"""Self-checks for the brute-force reference implementations."""

import pytest

from csidhsim import oracle as orc

P = 419
PRIMES = (3, 5, 7)


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
    orders = {orc.enumerate_curve(A, P)[1] for A in range(3, 30)}
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


def test_velu_codomain_supersingular():
    for l in PRIMES:
        K, _ = orc.find_order_l_point(0, l, P, side=1)
        A2, _ = orc.velu_isogeny(0, K, l, P)
        assert orc.enumerate_curve(A2, P)[1] == P + 1


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
