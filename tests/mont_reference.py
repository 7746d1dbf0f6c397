"""The op-by-op Montgomery-domain curve and isogeny model.

Every value here is a Montgomery representative x*R mod p and comes from
one `Fp` call per ALU op, so every op is recorded as it is computed.
Production code holds residues x mod p, computes on them as plain bignums
and issues its ops from templates; the tests check `Fp.inv`,
`Fp.is_square`, `mont_curve.curve_constants`, `xdbladd`, `xmul`, `xtwist`,
`affinize_mont` and `isogeny.xisog` against these functions in values
(through `mont`), trace bytes and the module tag left behind.
"""

from csidhsim.mont_curve import (CurveConstants, CurveSide,
                                 InfinityAffinize, ProjCurve, ProjPoint)
from csidhsim.trace import MOD_XAFFINIZE, MOD_XDBLADD, MOD_XISOG, MOD_XTWIST


def mont(fp, v):
    """The Montgomery representative x*R mod p of a residue x, or a tuple
    of the same type with each of its residues mapped."""
    R, p = 1 << fp.shift, fp.p
    if isinstance(v, int):
        return v * R % p
    return type(v)(*(x * R % p for x in v))


def ref_pow(fp, x, e):
    """Montgomery-domain x^e by square-and-always-multiply: one squaring
    and one multiply per bit of e, most significant first."""
    r = mont(fp, 1)
    for b in bin(e)[2:]:
        r = fp.mul(r, r)
        t = fp.mul(r, x)
        r = t if b == "1" else r
    return r


def ref_curve_constants(fp, curve):
    """`mont_curve.curve_constants` op by op: A24 = Ax + 2*Az and
    C24 = 4*Az, by three adds under xDBLADD."""
    fp.set_module(MOD_XDBLADD)
    az2 = fp.add(curve.Az, curve.Az)
    return CurveConstants(fp.add(curve.Ax, az2), fp.add(az2, az2))


def xdbl_tail(fp, aa, bb, e, const):
    """x([2]P) from aa = (X+Z)^2, bb = (X-Z)^2 and e = aa - bb."""
    t = fp.mul(const.C24, bb)
    x2 = fp.mul(t, aa)
    z2 = fp.mul(e, fp.add(t, fp.mul(const.A24, e)))
    return ProjPoint(x2, z2)


def xadd_tail(fp, a, b, Q, diff):
    """x(P+Q) from a = X+Z and b = X-Z of P, given diff = x(P-Q)."""
    c = fp.add(Q.X, Q.Z)
    d = fp.sub(Q.X, Q.Z)
    da = fp.mul(d, a)
    cb = fp.mul(c, b)
    t0 = fp.add(da, cb)
    t1 = fp.sub(da, cb)
    x3 = fp.mul(diff.Z, fp.mul(t0, t0))
    z3 = fp.mul(diff.X, fp.mul(t1, t1))
    return ProjPoint(x3, z3)


def xdbl(fp, P, const):
    """x([2]P)."""
    fp.set_module(MOD_XDBLADD)
    a = fp.add(P.X, P.Z)
    b = fp.sub(P.X, P.Z)
    aa = fp.mul(a, a)
    bb = fp.mul(b, b)
    return xdbl_tail(fp, aa, bb, fp.sub(aa, bb), const)


def xadd(fp, P, Q, diff):
    """x(P+Q) given diff = x(P-Q)."""
    fp.set_module(MOD_XDBLADD)
    return xadd_tail(fp, fp.add(P.X, P.Z), fp.sub(P.X, P.Z), Q, diff)


def ref_xdbladd(fp, P, Q, diff, const):
    """One ladder step from the same two tails `xdbl` and `xadd` use; the
    addition tail runs first."""
    fp.set_module(MOD_XDBLADD)
    a = fp.add(P.X, P.Z)
    b = fp.sub(P.X, P.Z)
    aa = fp.mul(a, a)
    bb = fp.mul(b, b)
    e = fp.sub(aa, bb)
    PQ = xadd_tail(fp, a, b, Q, diff)
    return xdbl_tail(fp, aa, bb, e, const), PQ


def ref_xmul(fp, P, k, const):
    """x([k]P) by a ladder of max(bit length of k, 1) `ref_xdbladd` steps."""
    r0, r1 = ProjPoint(mont(fp, 1), 0), P
    for i in reversed(range(max(k.bit_length(), 1))):
        if (k >> i) & 1:
            r1, r0 = ref_xdbladd(fp, r1, r0, P, const)
        else:
            r0, r1 = ref_xdbladd(fp, r0, r1, P, const)
    return r0


def kernel_multiples(fp, K, d, const):
    """Yield x([i]K) for i = 1..d, keeping only the last two multiples."""
    if d < 1:
        return
    yield K
    if d == 1:
        return
    prev2, prev = K, xdbl(fp, K, const)
    yield prev
    for _ in range(d - 2):
        prev2, prev = prev, xadd(fp, prev, K, prev2)
        yield prev


def _eighth_power(fp, x):
    x = fp.mul(x, x)
    x = fp.mul(x, x)
    return fp.mul(x, x)


def ref_xisog(fp, curve, points, K, l):
    """`isogeny.xisog` op by op: (curve', images, fault)."""
    d = (l - 1) // 2
    const = ref_curve_constants(fp, curve)

    fp.set_module(MOD_XISOG)
    one = mont(fp, 1)
    pre = []
    for P in points:
        pre.append((fp.add(P.X, P.Z), fp.sub(P.X, P.Z)))
    pi_plus = pi_minus = one
    eval_plus = [one] * len(pre)
    eval_minus = [one] * len(pre)

    for M in kernel_multiples(fp, K, d, const):
        fp.set_module(MOD_XISOG)
        s = fp.add(M.X, M.Z)
        t = fp.sub(M.X, M.Z)
        pi_plus = fp.mul(pi_plus, s)
        pi_minus = fp.mul(pi_minus, t)
        for j, (pp, pm) in enumerate(pre):
            t0 = fp.mul(pm, s)
            t1 = fp.mul(pp, t)
            eval_plus[j] = fp.mul(eval_plus[j], fp.add(t0, t1))
            eval_minus[j] = fp.mul(eval_minus[j], fp.sub(t0, t1))

    images = []
    for P, ep, em in zip(points, eval_plus, eval_minus):
        images.append(ProjPoint(fp.mul(P.X, fp.mul(ep, ep)),
                                fp.mul(P.Z, fp.mul(em, em))))

    az2 = fp.add(curve.Az, curve.Az)
    a24p = fp.add(curve.Ax, az2)
    a24m = fp.sub(curve.Ax, az2)
    tp = fp.mul(ref_pow(fp, a24p, l), _eighth_power(fp, pi_plus))
    tm = fp.mul(ref_pow(fp, a24m, l), _eighth_power(fp, pi_minus))
    ax = fp.add(fp.add(tp, tm), fp.add(tp, tm))
    az = fp.sub(tp, tm)

    lk = ref_xmul(fp, K, l, const)
    return ProjCurve(ax, az), images, az == 0 or lk.Z != 0


def ref_xtwist(fp, x, A):
    """`mont_curve.xtwist` op by op: x^3 + A*x^2 + x, then Euler's
    criterion by `ref_pow`."""
    fp.set_module(MOD_XTWIST)
    one = mont(fp, 1)
    x2 = fp.mul(x, x)
    ax = fp.mul(A, x)
    rhs = fp.mul(x, fp.add(fp.add(x2, ax), one))
    square = ref_pow(fp, rhs, (fp.p - 1) >> 1) == one or rhs == 0
    return CurveSide.CURVE if square else CurveSide.TWIST


def ref_affinize(fp, curve):
    """`mont_curve.affinize_mont` op by op: Ax * Az^(p-2)."""
    if curve.Az == 0:
        raise InfinityAffinize("projective curve with Az = 0")
    fp.set_module(MOD_XAFFINIZE)
    return fp.mul(curve.Ax, ref_pow(fp, curve.Az, fp.p - 2))
