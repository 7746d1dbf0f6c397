"""Self-checks for the brute-force reference implementations."""

import itertools
import pickle
import random

import pytest

from csidhsim import oracle as orc
from csidhsim.mont_curve import ProjPoint

P = 419
PRIMES = (3, 5, 7)
NONSINGULAR = [A for A in range(P) if A not in (2, P - 2)]
SUPERSINGULAR = [A for A in NONSINGULAR if orc.curve_order(A, P) == P + 1]
WALKS = [*itertools.product((-1, 0, 1), repeat=3), (2, -2, 1)]  # 27 keys + 1


def on_curve(pt, A, p):
    """pt satisfies y^2 = x^3 + A*x^2 + x (infinity always does)."""
    if pt is orc.INFINITY:
        return True
    return (pt.y * pt.y - (pt.x ** 3 + A * pt.x * pt.x + pt.x)) % p == 0


def test_naive_redc():
    R = 1 << 32
    assert orc.naive_redc(0, P, R) == 0
    a = 123
    assert orc.naive_redc(a * R % (P * R), P, R) == a % P


def test_base_curve_is_supersingular():
    pts, order = orc.enumerate_curve(0, P)
    assert order == P + 1 == 420
    assert all(on_curve(pt, 0, P) for pt in pts)


def test_enumerate_rejects_singular():
    with pytest.raises(ValueError):
        orc.enumerate_curve(2, P)
    with pytest.raises(ValueError):
        orc.enumerate_curve(P - 2, P)


def test_ordinary_curves_exist():
    orders = {orc.curve_order(A, P) for A in range(3, 30)}
    assert any(o != P + 1 for o in orders)


def test_group_law_basics():
    pts, _ = orc.enumerate_curve(0, P)
    Q = pts[5]
    assert orc.add_points(Q, orc.INFINITY, 0, P) == Q
    neg = orc.AffinePoint(Q.x, (P - Q.y) % P)
    assert orc.add_points(Q, neg, 0, P) is orc.INFINITY
    n = orc.point_order(Q, 0, P)
    assert (P + 1) % n == 0
    assert orc.scalar_mul(n, Q, 0, P) is orc.INFINITY


def test_velu_kernel_to_infinity():
    K, _ = orc.find_order_l_point(0, 7, P, side=1)
    _, phi = orc.velu_isogeny(0, K, 7, P)
    assert phi(K) is orc.INFINITY
    assert phi(orc.INFINITY) is orc.INFINITY


def velu_cases():
    """(coeff, l, K, A', phi) for every supersingular curve, l and side."""
    for A in SUPERSINGULAR:
        for l in PRIMES:
            for side in (1, -1):
                K, coeff = orc.find_order_l_point(A, l, P, side)
                yield (coeff, l, K, *orc.velu_isogeny(coeff, K, l, P))


def test_velu_maps_every_point_onto_its_codomain():
    # For every supersingular curve, l and side, phi sends exactly the
    # kernel to O and every other affine point to a point (x, y) of E_{A'}.
    # A wrong A', or a y not carried through the Montgomery normalization,
    # leaves the image off the curve.
    for coeff, l, K, A2, phi in velu_cases():
        kernel = {orc.scalar_mul(i, K, coeff, P) for i in range(1, l)}
        for Q in orc.curve_points(coeff, P):
            img = phi(Q)
            assert (img is orc.INFINITY) == (Q in kernel)
            assert on_curve(img, A2, P), (coeff, l, Q, img)


def test_velu_is_a_homomorphism():
    # phi(Q1 + Q2) == phi(Q1) + phi(Q2) on E_{A'} for 20 seeded random
    # pairs per case, a pair with Q1 + Q2 = O and a kernel point plus a
    # random point; a map whose image x is right but whose y is not fails
    # most random pairs.
    rng = random.Random(34)
    for coeff, _, K, A2, phi in velu_cases():
        points = list(orc.curve_points(coeff, P))
        Q = rng.choice(points)
        pairs = [(Q, orc.AffinePoint(Q.x, -Q.y % P)), (K, Q)]
        pairs += [(rng.choice(points), rng.choice(points)) for _ in range(20)]
        for Q1, Q2 in pairs:
            assert (phi(orc.add_points(Q1, Q2, coeff, P))
                    == orc.add_points(phi(Q1), phi(Q2), A2, P)), (Q1, Q2)


def test_affine_point_contract():
    # Equal only to an AffinePoint with the same coordinates: a point is
    # not a bare pair or a projective point. A bare pair asks the point,
    # a subclass of tuple, first; another tuple type such as ProjPoint
    # answers its own == with tuple equality, so only the point's side is
    # the contract.
    Q = orc.AffinePoint(3, 5)
    assert Q == orc.AffinePoint(3, 5) and not Q != orc.AffinePoint(3, 5)
    for other in ((3, 5), [3, 5], ProjPoint(3, 5), orc.AffinePoint(3, 4),
                  orc.AffinePoint(4, 5), orc.INFINITY):
        assert Q != other and not Q == other
    for other in ((3, 5), [3, 5]):
        assert other != Q and not other == Q
    assert hash(Q) == hash(orc.AffinePoint(3, 5))
    assert len({Q, orc.AffinePoint(3, 5)}) == 1
    copy = pickle.loads(pickle.dumps(Q))
    assert copy == Q and copy.__class__ is orc.AffinePoint
    for name in ("x", "y", "z"):
        with pytest.raises(AttributeError):
            setattr(Q, name, 0)


@pytest.mark.parametrize("l", PRIMES)
def test_velu_rejects_wrong_order_kernel(l):
    K, _ = orc.find_order_l_point(0, l, P, side=1)
    T = orc.AffinePoint(0, 0)                     # order 2
    K2 = orc.add_points(K, T, 0, P)
    other, _ = orc.find_order_l_point(0, {3: 5, 5: 7, 7: 3}[l], P, side=1)
    assert orc.point_order(K2, 0, P) == 2 * l
    for bad in (orc.INFINITY, K2, T, other):
        with pytest.raises(ValueError, match="exact order"):
            orc.velu_isogeny(0, bad, l, P)


def test_scalar_mul_rejects_negative_scalar():
    Q = next(orc.curve_points(0, P))
    assert orc.scalar_mul(0, Q, 0, P) is orc.INFINITY
    with pytest.raises(ValueError, match="non-negative"):
        orc.scalar_mul(-1, Q, 0, P)


@pytest.mark.parametrize("e", [(1, 1, 1, 1), (1,), ()])
def test_brute_group_action_rejects_wrong_length(e):
    with pytest.raises(ValueError, match=f"{len(e)} entries for 3 primes"):
        orc.brute_group_action(0, e, PRIMES, P)


def test_velu_codomain_supersingular():
    for l in PRIMES:
        K, _ = orc.find_order_l_point(0, l, P, side=1)
        A2, _ = orc.velu_isogeny(0, K, l, P)
        assert orc.curve_order(A2, P) == P + 1


def test_action_inverse_round_trip():
    for l in PRIMES:
        A1 = orc.act_one(0, l, 1, P)
        assert orc.act_one(A1, l, -1, P) == 0


def test_action_commutes_under_permutation():
    a = orc.brute_group_action(0, (1, 1, 0), PRIMES, P)
    b = orc.act_one(orc.act_one(0, 5, 1, P), 3, 1, P)
    assert a == b


def test_oracle_refuses_large_fields():
    with pytest.raises(ValueError):
        orc.enumerate_curve(0, 1 << 40)


def enumerate_first_kernel(A, l, p, side):
    """find_order_l_point as it was written over enumerate_curve."""
    coeff = A % p if side > 0 else (-A) % p
    points, order = orc.enumerate_curve(coeff, p)
    cof = order // l
    for Q in points:
        K = orc.scalar_mul(cof, Q, coeff, p)
        if K is not orc.INFINITY:
            return K, coeff
    raise AssertionError("no point of order l")


def test_curve_order_matches_enumeration():
    assert len(NONSINGULAR) == 417
    for A in NONSINGULAR:
        assert orc.curve_order(A, P) == orc.enumerate_curve(A, P)[1]


def test_find_order_l_point_matches_enumerate_first():
    assert len(SUPERSINGULAR) == 27
    for A in SUPERSINGULAR:
        for l in PRIMES:
            for side in (1, -1):
                assert (orc.find_order_l_point(A, l, P, side)
                        == enumerate_first_kernel(A, l, P, side))


@pytest.mark.parametrize("name", ["curve_points", "curve_order"])
def test_point_scans_reject_singular_and_large_fields(name):
    scan = getattr(orc, name)
    for A in (2, P - 2, -2):
        with pytest.raises(ValueError, match="singular"):
            scan(A, P)
    with pytest.raises(ValueError, match="toy-sized"):
        scan(0, orc.TOY_LIMIT + 3)   # = 3 mod 4, so only the size is wrong


@pytest.mark.parametrize("call", [
    lambda: orc.enumerate_curve(0, 13),
    lambda: orc.curve_order(0, 13),
    lambda: orc.find_order_l_point(0, 3, 13),
], ids=["enumerate_curve", "curve_order", "find_order_l_point"])
def test_oracle_rejects_p_1_mod_4(call):
    # sqrt_mod's a^((p+1)/4) is a square root only for p = 3 mod 4; at
    # p = 13 it would count 6 points on E_0 instead of 20.
    with pytest.raises(ValueError, match="3 mod 4"):
        call()


def stepwise_walk(A, e):
    """brute_group_action as a chain of act_one steps, each of which counts
    its own curve; every curve on the way must have the start's count N and
    a twist of count 2p + 2 - N."""
    N = orc.curve_order(A, P)
    for l, ei in zip(PRIMES, e):
        for _ in range(abs(ei)):
            A = orc.act_one(A, l, 1 if ei > 0 else -1, P)
            assert orc.curve_order(A, P) == N
            assert orc.curve_order(-A, P) == 2 * P + 2 - N
    return A


def test_walk_equals_counting_at_every_step():
    assert len(SUPERSINGULAR) == 27 and len(WALKS) == 28
    for A in SUPERSINGULAR:
        for e in WALKS:
            assert (orc.brute_group_action(A, e, PRIMES, P)
                    == stepwise_walk(A, e)), (A, e)


def test_walk_counts_points_once(monkeypatch):
    counted = []
    curve_order = orc.curve_order

    def counting_curve_order(A, p):
        counted.append(A)
        return curve_order(A, p)

    monkeypatch.setattr(orc, "curve_order", counting_curve_order)
    for e in WALKS:
        counted.clear()
        orc.brute_group_action(6, e, PRIMES, P)
        assert counted == ([] if e == (0, 0, 0) else [6]), e
    counted.clear()
    assert orc.brute_group_action(2, (0, 0, 0), PRIMES, P) == 2
    assert counted == []
    with pytest.raises(ValueError, match="singular"):
        orc.brute_group_action(2, (1, 0, 0), PRIMES, P)


@pytest.mark.parametrize("bad", [0, 2, -2])
@pytest.mark.parametrize("call", [
    lambda bad: orc.find_order_l_point(0, 3, P, side=bad),
    lambda bad: orc.act_one(0, 3, bad, P),
], ids=["find_order_l_point", "act_one"])
def test_unknown_side_or_sign_is_rejected(call, bad):
    with pytest.raises(ValueError, match=r"\+1 or -1"):
        call(bad)
