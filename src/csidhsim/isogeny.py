"""Odd-degree isogeny computation (the xISOG control-unit model).

Kernel multiples are produced by a differential addition chain holding a
two-entry sliding window ([2]K by xDBL, then [i+1]K by xADD from [i]K, K
and [i-1]K).  The modelled control unit consumes each multiple at once
into four running products: the per-point evaluation accumulators and the
curve products pi_plus = prod(X_i + Z_i), pi_minus = prod(X_i - Z_i).

The codomain coefficient comes from the Edwards-style update
(A24plus', A24minus') = ((A+2)^l * pi_plus^8, (A-2)^l * pi_minus^8)
mapped back to (Ax' : Az') = (2*(A24plus' + A24minus') : A24plus' - A24minus').
This is the reconciled form of the published update (whose printed version
misplaces a square); it is locked against the brute-force Velu oracle over
the toy field by the test suite.

The trace records the schedule of the op-by-op Montgomery model, issued in
one `Fp.issue` call as a concatenation of constant pieces, each tagged once
at import: the chain's xDBL and xADD steps xDBLADD, everything else xISOG.
The values are residues mod p: `xisog` writes the chain's xDBL and xADD
once, on ints, into a list of (X + Z, X - Z) pairs, forms the running
products from it as plain `a*b % p`, and takes the two l-th and eighth
powers with `pow`.  The tests check it against the op-by-op model in
`tests/mont_reference.py`.
"""

from __future__ import annotations

from .fp import Fp
from .mont_curve import (ProjCurve, ProjPoint, curve_constants, is_infinity,
                         xmul)
from .trace import (MOD_XDBLADD, MOD_XISOG, OP_ADD, OP_MONT_MUL, OP_SUB,
                    tag_ops)

_A, _S, _M = OP_ADD, OP_SUB, OP_MONT_MUL
# The op-by-op model's schedule in pieces.  xISOG's: each point's
# (X + Z, X - Z); each multiple's (X + Z, X - Z) and its two curve
# products; each multiple's two products and accumulator updates per point;
# each point's image; the codomain's (A+2, A-2), one of its power
# products, and its (Ax', Az').
_PRE = tag_ops(MOD_XISOG, (_A, _S))
_MULTIPLE = tag_ops(MOD_XISOG, (_A, _S, _M, _M))
_MULTIPLE_POINT = tag_ops(MOD_XISOG, (_M, _M, _A, _M, _S, _M))
_IMAGE = tag_ops(MOD_XISOG, (_M,) * 4)
_CODOMAIN_HEAD = tag_ops(MOD_XISOG, (_A, _A, _S))
_MONT_MUL = tag_ops(MOD_XISOG, (_M,))
_CODOMAIN_TAIL = tag_ops(MOD_XISOG, (_A, _A, _A, _S))
# The chain's steps, xDBLADD's.
_XDBL = tag_ops(MOD_XDBLADD, (_A, _S, _M, _M, _S, _M, _M, _M, _A, _M))
_XADD = tag_ops(MOD_XDBLADD, (_A, _S, _A, _S, _M, _M, _A, _S, _M, _M, _M, _M))


def _schedule(n: int, l: int) -> bytes:
    """Trace bytes of `xisog` on n points between `curve_constants` and
    [l]K.  The codomain takes, for each of A+2 and A-2, 2*bitlen(l)
    MONT_MULs for its l-th power, 3 for the eighth power of its pi and 1
    for their product."""
    d = (l - 1) // 2
    body = _MULTIPLE + _MULTIPLE_POINT * n
    chain = body + (_XDBL + body + (_XADD + body) * (d - 2) if d > 1
                    else b"")
    return (_PRE * n + chain + _IMAGE * n + _CODOMAIN_HEAD
            + _MONT_MUL * (4 * l.bit_length() + 8) + _CODOMAIN_TAIL)


def xisog(fp: Fp, curve: ProjCurve, points, K: ProjPoint, l: int):
    """Degree-l isogeny with kernel <K>: codomain curve, point images, fault.

    `points` is a sequence of ProjPoint to push through the isogeny; a point
    in <K> maps to the point at infinity.  [l]K is computed at the end and
    any result other than the point at infinity raises the fault flag (never
    silently); so does a codomain with Az = 0.  This is the ct action's only
    kernel-order check.

    Returns (curve', images, fault).
    """
    const = curve_constants(fp, curve)
    fp.issue(_schedule(len(points), l))
    p = fp.p
    A24, C24 = const
    # The chain: (X + Z, X - Z) of [i]K for i = 1..d, d = (l-1)/2.  [2]K by
    # xDBL, then [i+1]K by xADD from [i]K = (x : z), K and [i-1]K.
    kx, kz = K
    ks, kd = kx + kz, kx - kz
    sums = [(ks, kd)]
    d = (l - 1) // 2
    if d > 1:
        aa = ks * ks % p
        bb = kd * kd % p
        e = aa - bb
        c = C24 * bb % p
        x, z = c * aa % p, e * ((c + A24 * e) % p) % p
        px, pz = kx, kz
        for _ in range(d - 2):
            s, t = x + z, x - z
            sums.append((s, t))
            da = kd * s % p
            cb = ks * t % p
            t0 = da + cb
            t1 = da - cb
            x, z, px, pz = (pz * (t0 * t0 % p) % p, px * (t1 * t1 % p) % p,
                            x, z)
        sums.append((x + z, x - z))

    # The curve products pi_plus = prod(X_i + Z_i), pi_minus =
    # prod(X_i - Z_i), and each point's two evaluation accumulators.
    pi_plus = pi_minus = 1
    for s, t in sums:
        pi_plus = pi_plus * s % p
        pi_minus = pi_minus * t % p
    images = []
    for X, Z in points:
        pp, pm = X + Z, X - Z
        ep = em = 1
        for s, t in sums:
            t0 = pm * s % p
            t1 = pp * t % p
            ep = ep * (t0 + t1) % p
            em = em * (t0 - t1) % p
        images.append(ProjPoint(X * (ep * ep % p) % p, Z * (em * em % p) % p))

    tp = pow(A24, l, p) * pow(pi_plus, 8, p) % p            # (A+2)^l pi+^8
    tm = pow(A24 - C24, l, p) * pow(pi_minus, 8, p) % p     # (A-2)^l pi-^8
    az = (tp - tm) % p
    new_curve = ProjCurve(2 * (tp + tm) % p, az)

    # A codomain with Az = 0 is no curve: a fault, like a kernel of the
    # wrong order.
    lk = xmul(fp, K, l, const)
    return new_curve, images, az == 0 or not is_infinity(lk)
