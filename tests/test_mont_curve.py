"""x-only curve arithmetic against the affine group-law oracle (F_419)."""

import random

import pytest

from csidhsim import oracle as orc
from csidhsim.fp import Fp
from csidhsim.mont_curve import (XDBLADD_OPS, CurveConstants, CurveSide,
                                 InfinityAffinize, ProjCurve, ProjPoint,
                                 affinize, affinize_mont, curve_constants,
                                 is_infinity, screen_side, xdbladd, xmul,
                                 xtwist)
from csidhsim.params import get_params
from csidhsim.trace import MOD_XDBLADD, MOD_XISOG, OpTrace
from mont_reference import (mont, ref_affinize, ref_curve_constants,
                            ref_xdbladd, ref_xmul, ref_xtwist, xadd, xdbl)
from test_action import MID90

TOY = get_params("toy419")
P419 = TOY.p


@pytest.fixture(scope="module")
def fp():
    return Fp(TOY)


def mpt(fp, x):
    """(x : 1) as the op-by-op Montgomery reference takes it."""
    return mont(fp, ProjPoint(x, 1))


def aff_x(fp, P):
    """X/Z: the same for a point's residues and its Montgomery form."""
    return P.X * pow(P.Z, -1, P419) % P419


def affinize_pt(fp, P):
    """Affine x-coordinate X/Z, through the field context."""
    if P.Z == 0:
        raise InfinityAffinize("point at infinity has no affine x")
    return P.X * fp.inv(P.Z) % P419


@pytest.fixture(scope="module")
def base(fp):
    curve = ProjCurve(0, 1)
    return curve, curve_constants(fp, curve)


def test_infinity_detection(fp):
    assert is_infinity(ProjPoint(1, 0))
    assert not is_infinity(ProjPoint(0, 1))


def test_two_torsion_doubles_to_infinity(fp, base):
    _, const = base
    assert is_infinity(xdbl(fp, mpt(fp, 0), mont(fp, const)))


def test_xdbl_xadd_match_affine_oracle(fp, base):
    const = mont(fp, base[1])
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
    X2, Z2, X3, Z3 = xdbladd(P419, P.x, 1, Q.x, 1, D.x, 1, *const)
    dbl, s = ProjPoint(X2, Z2), ProjPoint(X3, Z3)
    assert aff_x(fp, dbl) == aff_x(
        fp, xdbl(fp, mpt(fp, P.x), mont(fp, const)))
    assert aff_x(fp, s) == aff_x(
        fp, xadd(fp, mpt(fp, P.x), mpt(fp, Q.x), mpt(fp, D.x)))


def test_xdbladd_equals_reference_step():
    # The flat step on residues against the op-by-op Montgomery step on
    # csidh512 operands, with Z = 0 and X = 0 in each input point and in
    # the difference, canonical results included.
    params = get_params("csidh512")
    p = params.p
    rng = random.Random("xdbladd-csidh512")
    plain = Fp(params)

    def draw():
        return ProjPoint(rng.randrange(1, p), rng.randrange(1, p))

    def edges(P):
        return [P, ProjPoint(P.X, 0), ProjPoint(0, P.Z)]

    const = curve_constants(plain, ProjCurve(rng.randrange(p),
                                             rng.randrange(1, p)))
    cases = [(P, Q, D) for P in edges(draw()) for Q in edges(draw())
             for D in edges(draw())]
    cases += [(draw(), draw(), draw()) for _ in range(20)]
    for P, Q, D in cases:
        got = xdbladd(p, *P, *Q, *D, *const)
        assert all(0 <= v < p for v in got)
        dbl, add = ref_xdbladd(Fp(params), mont(plain, P), mont(plain, Q),
                               mont(plain, D), mont(plain, const))
        assert (mont(plain, ProjPoint(*got[:2])), mont(
            plain, ProjPoint(*got[2:]))) == (dbl, add), (P, Q, D)


def test_ladder_exhaustive_toy(fp, base):
    _, const = base
    points, order = orc.enumerate_curve(0, P419)
    assert order == 420
    for P in points[:25]:
        if P.x == 0:
            continue   # the ladder excludes the X=0 two-torsion point
        n = orc.point_order(P, 0, P419)
        Pp = ProjPoint(P.x, 1)
        for k in range(0, n + 1):
            R = orc.scalar_mul(k, P, 0, P419)
            got = xmul(fp, Pp, k, const)
            if R is orc.INFINITY:
                assert is_infinity(got)
            else:
                assert aff_x(fp, got) == R.x


def test_ladder_trivial_scalars(fp, base):
    _, const = base
    P = ProjPoint(4, 1)   # arbitrary valid x over F_419
    assert is_infinity(xmul(fp, P, 0, const))
    assert aff_x(fp, xmul(fp, P, 1, const)) == 4
    O = ProjPoint(1, 0)
    for k in (0, 1, 2, 3, 7):   # O ladders to O, seen as (0 : 0) for k >= 1
        assert is_infinity(xmul(fp, O, k, const))


def test_ladder_schedule_depends_only_on_bound(base):
    from csidhsim.trace import OpTrace
    _, _ = base
    traces = []
    for k in (5, 7, 4):   # different values, same bit length 3
        t = OpTrace()
        ctx = Fp(TOY, t)
        const = curve_constants(ctx, ProjCurve(0, 1))
        xmul(ctx, ProjPoint(4, 1), k, const)
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
def test_curve_constants_equal_reference(params, traced):
    # Values, trace bytes and the module tag left behind equal those of the
    # op-by-op Montgomery constants, for the base curve, Az = 0 and seeded
    # curves.  The reference takes and returns Montgomery representatives.
    rng = random.Random(f"constants-{params.name}")
    p = params.p
    curves = [ProjCurve(0, 1), ProjCurve(p - 1, p - 1),
              ProjCurve(rng.randrange(p), 0)] + [
        ProjCurve(rng.randrange(p), rng.randrange(1, p)) for _ in range(4)]
    got_t, want_t = (OpTrace(), OpTrace()) if traced else (None, None)
    got_fp, want_fp = Fp(params, got_t), Fp(params, want_t)
    for curve in curves:
        for ctx in (got_fp, want_fp):
            ctx.set_module(MOD_XISOG)
            ctx.add(1, 2)
        got = curve_constants(got_fp, curve)
        assert mont(got_fp, got) == ref_curve_constants(
            want_fp, mont(got_fp, curve)), curve
        assert got_fp.mark() == want_fp.mark(), curve
        if traced:
            assert got_t.buf == want_t.buf, curve
    assert got_fp.mark()[1] == MOD_XDBLADD << 3


@pytest.mark.parametrize("params", [TOY, MID90, get_params("csidh512")],
                         ids=lambda params: params.name)
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_xmul_equals_reference_ladder(params, traced):
    # Values, trace bytes and the module tag left behind all equal those of
    # a ladder of op-by-op Montgomery steps, for edge and seeded scalars and
    # for an input point at infinity (Z = 0).  The reference takes and
    # returns Montgomery representatives.
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
            assert mont(plain, got) == ref_xmul(
                want_fp, mont(plain, P), k, mont(plain, const)), (P, k)
            assert got_fp.mark() == want_fp.mark()
            if traced:
                assert got_t.buf == want_t.buf, (P, k)


def test_xtwist_exhaustive_toy(fp):
    curve_xs = {P.x for P in orc.enumerate_curve(0, P419)[0]}
    for x in range(1, P419):
        side = xtwist(fp, x, 0)
        want = CurveSide.CURVE if x in curve_xs else CurveSide.TWIST
        assert side is want, x
    assert xtwist(fp, 0, 0) is CurveSide.CURVE


@pytest.mark.parametrize("params", [TOY, MID90, get_params("csidh512")],
                         ids=lambda params: params.name)
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_xtwist_and_affinize_equal_reference(params, traced):
    # Values, trace bytes and the module tag left behind equal those of the
    # op-by-op Montgomery xTWIST and xAffinize, which take and return
    # Montgomery representatives.  The 2-torsion x (x = 0, and a root of
    # x^2 + A*x + 1) have a zero right-hand side and classify as CURVE; a
    # curve with Az = 0 raises on both sides.
    rng = random.Random(f"xtwist-{params.name}")
    p = params.p
    root = rng.randrange(1, p)
    A_root = -(root + pow(root, -1, p)) % p
    cases = [(A_root, root), (A_root, 0)] + [
        (rng.randrange(p), rng.randrange(1, p)) for _ in range(8)]
    curves = [ProjCurve(rng.randrange(p), rng.randrange(1, p))
              for _ in range(4)] + [ProjCurve(rng.randrange(p), 0)]
    got_t, want_t = (OpTrace(), OpTrace()) if traced else (None, None)
    got_fp, want_fp = Fp(params, got_t), Fp(params, want_t)
    for ctx in (got_fp, want_fp):
        ctx.set_module(MOD_XISOG)
        ctx.add(1, 2)

    def same_trace():
        return got_fp.mark() == want_fp.mark() and (
            not traced or got_t.buf == want_t.buf)

    sides = []
    for A, x in cases:
        side = xtwist(got_fp, x, A)
        assert side is ref_xtwist(want_fp, mont(got_fp, x),
                                  mont(got_fp, A)), (A, x)
        assert same_trace(), (A, x)
        sides.append(side)
    assert sides[:2] == [CurveSide.CURVE] * 2
    assert set(sides[2:]) == set(CurveSide)
    for curve in curves:
        if curve.Az:
            assert mont(got_fp, affinize_mont(got_fp, curve)) == ref_affinize(
                want_fp, mont(got_fp, curve)), curve
        else:
            with pytest.raises(InfinityAffinize):
                affinize_mont(got_fp, curve)
            with pytest.raises(InfinityAffinize):
                ref_affinize(want_fp, mont(got_fp, curve))
        assert same_trace(), curve


def test_screen_side_matches_xtwist_exhaustive_toy(fp):
    # Every nonsingular A and every nonzero x, on (A : 1) and on one seeded
    # rescaling (c*A : c); this includes the 2-torsion x whose right-hand
    # side is 0, which count as CURVE.
    c = random.Random(419).randrange(2, P419)
    zero_rhs = 0
    for A in range(P419):
        if A in (2, P419 - 2):
            continue
        curves = (ProjCurve(A, 1), ProjCurve(A * c % P419, c))
        for x in range(1, P419):
            want = xtwist(fp, x, A)
            zero_rhs += (x * x + A * x + 1) % P419 == 0
            for curve in curves:
                assert screen_side(P419, curve, x) is want, (A, x, curve)
    assert zero_rhs > 0


def test_projective_invariance(fp, base):
    curve, _ = base
    for c in (2, 77, 418):
        scaled = ProjCurve(curve.Ax * c % P419, curve.Az * c % P419)
        assert affinize(fp, scaled) == affinize(fp, curve) == 0
        P = ProjPoint(4, 1)
        Ps = ProjPoint(P.X * c % P419, P.Z * c % P419)
        assert affinize_pt(fp, Ps) == affinize_pt(fp, P) == 4


def test_affinize_infinity_raises(fp):
    with pytest.raises(InfinityAffinize):
        affinize(fp, ProjCurve(1, 0))
    with pytest.raises(InfinityAffinize):
        affinize_pt(fp, ProjPoint(1, 0))
