"""xISOG against the brute-force Velu oracle over F_419, and against the
op-by-op Montgomery model on every built-in size."""

import random

import pytest

from csidhsim import oracle as orc
from csidhsim.fp import Fp
from csidhsim.isogeny import xisog
from csidhsim.mont_curve import (ProjCurve, ProjPoint, curve_constants,
                                 is_infinity, xmul)
from csidhsim.params import get_params
from csidhsim.trace import MOD_XTWIST, OpTrace
from mont_reference import kernel_multiples, mont, ref_xisog
from test_action import MID90

TOY = get_params("toy419")
P419 = TOY.p


@pytest.fixture(scope="module")
def fp():
    return Fp(TOY)


def aff(fp, num, den):
    """num/den: the same for residues and for Montgomery representatives."""
    return num * pow(den, -1, P419) % P419


def run_xisog(fp, A, eval_xs, ker_x, l):
    points = [ProjPoint(x, 1) for x in eval_xs]
    return xisog(fp, ProjCurve(A, 1), points, ProjPoint(ker_x, 1), l)


def test_kernel_multiples_match_oracle(fp):
    # The op-by-op reference chain, on Montgomery representatives.
    for l in (3, 5, 7):
        K, _ = orc.find_order_l_point(0, l, P419, side=1)
        const = mont(fp, curve_constants(fp, ProjCurve(0, 1)))
        got = list(kernel_multiples(fp, mont(fp, ProjPoint(K.x, 1)),
                                    (l - 1) // 2, const))
        assert len(got) == (l - 1) // 2
        for i, M in enumerate(got, start=1):
            want = orc.scalar_mul(i, K, 0, P419)
            assert aff(fp, M.X, M.Z) == want.x


def test_kernel_maps_to_infinity(fp):
    K, _ = orc.find_order_l_point(0, 5, P419, side=1)
    _, images, fault = run_xisog(fp, 0, [K.x], K.x, 5)
    assert is_infinity(images[0]) and not fault


def test_codomain_and_image_match_velu(fp):
    for A in (0, 6):
        for l in (3, 5, 7):
            K, _ = orc.find_order_l_point(A, l, P419, side=1)
            A_ref, phi = orc.velu_isogeny(A, K, l, P419)
            pts, _ = orc.enumerate_curve(A, P419)
            ev = next(P for P in pts if P.x != 0
                      and orc.scalar_mul(l, P, A, P419) is not orc.INFINITY)
            curve2, images, fault = run_xisog(fp, A, [ev.x], K.x, l)
            assert not fault
            assert aff(fp, curve2.Ax, curve2.Az) == A_ref
            assert aff(fp, images[0].X, images[0].Z) == phi(ev).x


def test_twist_side_kernel_walks_inverse_direction(fp):
    # an x on the twist of E_A is a valid x-only kernel and applies the
    # inverse class-group step, matching the oracle's quadratic-twist trick
    for l in (3, 5, 7):
        A_ref = orc.act_one(0, l, -1, P419)
        Kt, coeff = orc.find_order_l_point(0, l, P419, side=-1)
        # twist point (x, y) on E_{-A} corresponds to x' = -x on E_A's twist
        ker_x = (P419 - Kt.x) % P419
        curve2, _, fault = run_xisog(fp, 0, [], ker_x, l)
        assert not fault
        assert aff(fp, curve2.Ax, curve2.Az) == A_ref


def test_degree_commutes_with_scalar(fp):
    # phi([l]Q) == [l]phi(Q) on the codomain
    from csidhsim.mont_curve import xmul
    l = 5
    K, _ = orc.find_order_l_point(0, l, P419, side=1)
    pts, _ = orc.enumerate_curve(0, P419)
    Q = next(P for P in pts if P.x != 0
             and orc.scalar_mul(l, P, 0, P419) is not orc.INFINITY)
    lQ = orc.scalar_mul(l, Q, 0, P419)
    curve2, images, _ = run_xisog(fp, 0, [Q.x, lQ.x], K.x, l)
    const2 = curve_constants(fp, curve2)
    lhs = xmul(fp, images[0], l, const2)
    assert aff(fp, lhs.X, lhs.Z) == aff(fp, images[1].X, images[1].Z)


def test_projective_scale_invariance(fp):
    l = 7
    K, _ = orc.find_order_l_point(0, l, P419, side=1)
    pts, _ = orc.enumerate_curve(0, P419)
    ev = next(P for P in pts if P.x not in (0, K.x))
    base_curve, base_img, _ = run_xisog(fp, 0, [ev.x], K.x, l)
    for c in (3, 100):
        curve = ProjCurve(0, c)
        Ks = ProjPoint(K.x * c % P419, c)
        Ps = ProjPoint(ev.x * c % P419, c)
        curve2, images, fault = xisog(fp, curve, [Ps], Ks, l)
        assert not fault
        assert aff(fp, curve2.Ax, curve2.Az) == aff(
            fp, base_curve.Ax, base_curve.Az)
        assert aff(fp, images[0].X, images[0].Z) == aff(
            fp, base_img[0].X, base_img[0].Z)


def test_composition_matches_oracle(fp):
    A1_ref = orc.act_one(0, 3, 1, P419)
    A2_ref = orc.act_one(A1_ref, 5, 1, P419)
    K3, _ = orc.find_order_l_point(0, 3, P419, side=1)
    curve1, _, _ = run_xisog(fp, 0, [], K3.x, 3)
    A1 = aff(fp, curve1.Ax, curve1.Az)
    assert A1 == A1_ref
    K5, _ = orc.find_order_l_point(A1, 5, P419, side=1)
    curve2, _, _ = run_xisog(fp, A1, [], K5.x, 5)
    assert aff(fp, curve2.Ax, curve2.Az) == A2_ref


def test_fault_soundness(fp):
    rnd = random.Random(7)
    pts, _ = orc.enumerate_curve(0, P419)
    good = bad = 0
    for _ in range(1000):
        l = rnd.choice((3, 5, 7))
        K, _ = orc.find_order_l_point(0, l, P419, side=1)
        _, _, fault = run_xisog(fp, 0, [], K.x, l)
        good += not fault
        # corrupted kernel: a random point whose order is not l
        while True:
            C = rnd.choice(pts)
            if orc.point_order(C, 0, P419) != l and C.x != 0:
                break
        _, _, fault = run_xisog(fp, 0, [], C.x, l)
        bad += fault
    assert good == 1000 and bad == 1000



def _xisog_cases(params):
    """(curve, points, K, l, kind) on the base curve, scaled by a seeded c.

    For each l in 3, 5, 7 and the largest prime, and 0, 1 and 2 points:
    a kernel of order l, K = O and a kernel of wrong order; with points, a
    kernel of order l whose last point is [2]K, in <K>."""
    rng = random.Random(f"xisog-{params.name}")
    fp, p = Fp(params), params.p
    c = rng.randrange(1, p)
    curve = ProjCurve(0, c)
    const = curve_constants(fp, curve)

    def point():
        return ProjPoint(rng.randrange(1, p) * c % p, c)

    for l in (3, 5, 7, params.primes[-1]):
        K = ProjPoint(0, 0)
        while is_infinity(K):
            K = xmul(fp, point(), (p + 1) // l, const)
        for n in (0, 1, 2):
            points = [point() for _ in range(n)]
            yield curve, points, K, l, "order l"
            yield curve, points, ProjPoint(c, 0), l, "O"
            yield curve, points, point(), l, "wrong order"
            if n:
                in_ker = points[:-1] + [xmul(fp, K, 2, const)]
                yield curve, in_ker, K, l, "image O"


@pytest.mark.parametrize("params", [TOY, MID90, get_params("csidh512")],
                         ids=lambda params: params.name)
@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
def test_xisog_equals_reference(params, traced):
    # Values, trace bytes and the module tag left behind all equal those of
    # the op-by-op Montgomery xISOG, for kernels of order l, O and of the
    # wrong order, and for a point in <K>.  The reference takes and returns
    # Montgomery representatives.
    kinds = set()
    for curve, points, K, l, kind in _xisog_cases(params):
        got_t, want_t = (OpTrace(), OpTrace()) if traced else (None, None)
        got_fp, want_fp = Fp(params, got_t), Fp(params, want_t)
        for ctx in (got_fp, want_fp):
            ctx.set_module(MOD_XTWIST)
            ctx.add(1, 2)
        got = xisog(got_fp, curve, points, K, l)
        want = ref_xisog(want_fp, mont(got_fp, curve),
                         [mont(got_fp, P) for P in points],
                         mont(got_fp, K), l)
        assert (mont(got_fp, got[0]), [mont(got_fp, Q) for Q in got[1]],
                got[2]) == want, (l, kind)
        assert got_fp.mark() == want_fp.mark(), (l, kind)
        if traced:
            assert got_t.buf == want_t.buf, (l, kind)
        _, images, fault = got
        if kind != "O":
            assert fault == (kind == "wrong order"), (l, kind)
        if kind == "image O":
            assert [is_infinity(Q) for Q in images] == [False] * (
                len(images) - 1) + [True]
        kinds.add(kind)
    assert kinds == {"order l", "O", "wrong order", "image O"}
