"""x-only curve arithmetic against the affine group-law oracle (F_419)."""

import random

import pytest

from csidhsim import oracle as orc
from csidhsim.fp import Fp
from csidhsim.mont_curve import (XDBLADD_OPS, CurveConstants, CurveSide,
                                 InfinityAffinize, ProjCurve, ProjPoint,
                                 affinize, curve_constants, is_infinity,
                                 screen_side, xdbladd, xmul, xtwist)
from csidhsim.params import get_params
from csidhsim.trace import MOD_XDBLADD, MOD_XISOG, OpTrace
from mont_reference import ref_xdbladd, ref_xmul, xadd, xdbl
from test_action import MID90

TOY = get_params("toy419")
P419 = TOY.p


@pytest.fixture(scope="module")
def fp():
    return Fp(TOY)


def mpt(fp, x):
    return ProjPoint(fp.to_mont(x), fp.one)


def aff_x(fp, P):
    return fp.from_mont(P.X) * pow(fp.from_mont(P.Z), -1, P419) % P419


def affinize_pt(fp, P):
    """Affine standard-domain x-coordinate X/Z, through the field context."""
    if P.Z == 0:
        raise InfinityAffinize("point at infinity has no affine x")
    return fp.from_mont(fp.mul(P.X, fp.inv(P.Z)))


@pytest.fixture(scope="module")
def base(fp):
    curve = ProjCurve(fp.to_mont(0), fp.one)
    return curve, curve_constants(fp, curve)


def test_infinity_detection(fp):
    assert is_infinity(ProjPoint(fp.one, 0))
    assert not is_infinity(ProjPoint(0, fp.one))


def test_two_torsion_doubles_to_infinity(fp, base):
    _, const = base
    assert is_infinity(xdbl(fp, ProjPoint(0, fp.one), const))


def test_xdbl_xadd_match_affine_oracle(fp, base):
    _, const = base
    points, _ = orc.enumerate_curve(0, P419)
    for P in points[:60]:
        Pp = mpt(fp, P.x)
        D = orc.add_points(P, P, 0, P419)
        got = xdbl(fp, Pp, const)
        if D is orc.INFINITY:
            assert is_infinity(got)
        else:
            assert aff_x(fp, got) == D.x


def test_xadd_matches_affine_oracle(fp, base):
    _, const = base
    points, _ = orc.enumerate_curve(0, P419)
    P = points[3]
    for Q in points[:40]:
        S = orc.add_points(P, Q, 0, P419)
        D = orc.add_points(P, orc.AffinePoint(Q.x, (P419 - Q.y) % P419),
                           0, P419)
        if (S is orc.INFINITY or D is orc.INFINITY
                or 0 in (P.x, Q.x, D.x, S.x)):
            continue
        got = xadd(fp, mpt(fp, P.x), mpt(fp, Q.x), mpt(fp, D.x))
        assert aff_x(fp, got) == S.x


def test_xdbladd_consistent_with_parts(fp, base):
    _, const = base
    points, _ = orc.enumerate_curve(0, P419)
    P, Q = points[5], points[9]
    D = orc.add_points(P, orc.AffinePoint(Q.x, (P419 - Q.y) % P419), 0, P419)
    if D is orc.INFINITY:
        pytest.skip("degenerate difference for this point pair")
    # xdbladd runs on standard-domain residues: the points are (x : 1), the
    # constants go in times R^-1 and the results come back out times R.
    std = CurveConstants(const.A24 * fp.Rinv % P419,
                         const.C24 * fp.Rinv % P419)
    dbl, s = (ProjPoint(R.X * fp.one % P419, R.Z * fp.one % P419)
              for R in xdbladd(P419, ProjPoint(P.x, 1), ProjPoint(Q.x, 1),
                               ProjPoint(D.x, 1), std))
    assert aff_x(fp, dbl) == aff_x(fp, xdbl(fp, mpt(fp, P.x), const))
    assert aff_x(fp, s) == aff_x(
        fp, xadd(fp, mpt(fp, P.x), mpt(fp, Q.x), mpt(fp, D.x)))


def test_ladder_exhaustive_toy(fp, base):
    _, const = base
    points, order = orc.enumerate_curve(0, P419)
    assert order == 420
    for P in points[:25]:
        if P.x == 0:
            continue   # the ladder excludes the X=0 two-torsion point
        n = orc.point_order(P, 0, P419)
        Pp = mpt(fp, P.x)
        for k in range(0, n + 1):
            R = orc.scalar_mul(k, P, 0, P419)
            got = xmul(fp, Pp, k, const)
            if R is orc.INFINITY:
                assert is_infinity(got)
            else:
                assert aff_x(fp, got) == R.x


def test_ladder_trivial_scalars(fp, base):
    _, const = base
    P = mpt(fp, 4)   # arbitrary valid x over F_419
    assert is_infinity(xmul(fp, P, 0, const))
    assert aff_x(fp, xmul(fp, P, 1, const)) == 4
    O = ProjPoint(fp.one, 0)
    for k in (0, 1, 2, 3, 7):   # O ladders to O, seen as (0 : 0) for k >= 1
        assert is_infinity(xmul(fp, O, k, const))


def test_ladder_schedule_depends_only_on_bound(base):
    from csidhsim.trace import OpTrace
    _, _ = base
    traces = []
    for k in (5, 7, 4):   # different values, same bit length 3
        t = OpTrace()
        ctx = Fp(TOY, t)
        curve = ProjCurve(ctx.to_mont(0), ctx.one)
        const = curve_constants(ctx, curve)
        xmul(ctx, mpt(ctx, 4), k, const)
        traces.append(bytes(t.buf))
    assert traces[0] == traces[1] == traces[2]


def test_xdbladd_ops_is_the_reference_step():
    t = OpTrace()
    ref_xdbladd(Fp(TOY, t), ProjPoint(4, 1), ProjPoint(9, 2), ProjPoint(5, 3),
                CurveConstants(3, 6))
    assert t.buf == bytes(MOD_XDBLADD << 3 | op for op in XDBLADD_OPS)


@pytest.mark.parametrize("params", [TOY, MID90, get_params("csidh512")],
                         ids=lambda params: params.name)
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_xmul_equals_reference_ladder(params, traced):
    # Values, trace bytes and the module tag left behind all equal those of
    # a ladder of op-by-op Montgomery steps, for edge and seeded scalars and
    # for an input point at infinity (Z = 0).
    rng = random.Random(f"xmul-{params.name}")
    p, bits = params.p, params.p.bit_length()
    scalars = [0, 1, p + 1, *(rng.randrange(1 << j) for j in (8, bits))]
    for j in (1, 2, 7, bits):
        scalars += [1 << j, (1 << j) - 1]
    plain = Fp(params)
    const = curve_constants(plain, ProjCurve(rng.randrange(p),
                                             rng.randrange(1, p)))
    points = [ProjPoint(rng.randrange(1, p), rng.randrange(1, p)),
              ProjPoint(rng.randrange(1, p), 0)]
    for P in points:
        for k in scalars:
            got_t, want_t = (OpTrace(), OpTrace()) if traced else (None, None)
            got_fp, want_fp = Fp(params, got_t), Fp(params, want_t)
            for ctx in (got_fp, want_fp):
                ctx.set_module(MOD_XISOG)
                ctx.add(1, 2)
            got = xmul(got_fp, P, k, const)
            assert got == ref_xmul(want_fp, P, k, const), (P, k)
            assert got_fp.mark() == want_fp.mark()
            if traced:
                assert got_t.buf == want_t.buf, (P, k)


def test_xtwist_exhaustive_toy(fp):
    A_m = fp.to_mont(0)
    curve_xs = {P.x for P in orc.enumerate_curve(0, P419)[0]}
    for x in range(1, P419):
        side = xtwist(fp, fp.to_mont(x), A_m)
        want = CurveSide.CURVE if x in curve_xs else CurveSide.TWIST
        assert side is want, x
    assert xtwist(fp, fp.to_mont(0), A_m) is CurveSide.CURVE


def test_screen_side_matches_xtwist_exhaustive_toy(fp):
    # Every nonsingular A and every nonzero x, on (A : 1) and on one seeded
    # rescaling (c*A : c); this includes the 2-torsion x whose right-hand
    # side is 0, which count as CURVE.
    c = fp.to_mont(random.Random(419).randrange(2, P419))
    zero_rhs = 0
    for A in range(P419):
        if A in (2, P419 - 2):
            continue
        A_m = fp.to_mont(A)
        curves = (ProjCurve(A_m, fp.one),
                  ProjCurve(fp.mul(A_m, c), c))
        for x in range(1, P419):
            want = xtwist(fp, fp.to_mont(x), A_m)
            zero_rhs += (x * x + A * x + 1) % P419 == 0
            for curve in curves:
                assert screen_side(P419, curve, x) is want, (A, x, curve)
    assert zero_rhs > 0


def test_projective_invariance(fp, base):
    curve, _ = base
    for c in (2, 77, 418):
        cm = fp.to_mont(c)
        scaled = ProjCurve(fp.mul(curve.Ax, cm), fp.mul(curve.Az, cm))
        assert affinize(fp, scaled) == affinize(fp, curve) == 0
        P = mpt(fp, 4)
        Ps = ProjPoint(fp.mul(P.X, cm), fp.mul(P.Z, cm))
        assert affinize_pt(fp, Ps) == affinize_pt(fp, P) == 4


def test_affinize_infinity_raises(fp):
    with pytest.raises(InfinityAffinize):
        affinize(fp, ProjCurve(fp.one, 0))
    with pytest.raises(InfinityAffinize):
        affinize_pt(fp, ProjPoint(fp.one, 0))
