"""Brute-force reference implementations for tests (toy-sized fields only).

Everything here is deliberately independent of the production modules: plain
affine group-law arithmetic, exhaustive enumeration, translation-form Velu
isogenies normalized to the Montgomery model by explicit isomorphism search.
Nothing is constant-time and nothing is shared with the main code paths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

TOY_LIMIT = 1 << 32


def naive_modmul(a: int, b: int, p: int) -> int:
    return a * b % p


def naive_redc(T: int, p: int, R: int) -> int:
    """T * R^-1 mod p via an extended-gcd inverse."""
    return T * pow(R, -1, p) % p


@dataclass(frozen=True)
class AffinePoint:
    x: int
    y: int


INFINITY = None  # affine point at infinity marker


def _check_toy(p: int) -> None:
    if p >= TOY_LIMIT:
        raise ValueError("oracle is restricted to toy-sized fields")


def on_curve(P, A: int, p: int) -> bool:
    if P is INFINITY:
        return True
    return (P.y * P.y - (P.x ** 3 + A * P.x * P.x + P.x)) % p == 0


def add_points(P, Q, A: int, p: int):
    """Chord-tangent addition on y^2 = x^3 + A*x^2 + x."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    if P.x == Q.x and (P.y + Q.y) % p == 0:
        return INFINITY
    if P == Q:
        lam = (3 * P.x * P.x + 2 * A * P.x + 1) * pow(2 * P.y, -1, p) % p
    else:
        lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (lam * lam - A - P.x - Q.x) % p
    y3 = (lam * (P.x - x3) - P.y) % p
    return AffinePoint(x3, y3)


def scalar_mul(k: int, P, A: int, p: int):
    R = INFINITY
    Q = P
    while k:
        if k & 1:
            R = add_points(R, Q, A, p)
        Q = add_points(Q, Q, A, p)
        k >>= 1
    return R


def point_order(P, A: int, p: int) -> int:
    n = 1
    Q = P
    while Q is not INFINITY:
        Q = add_points(Q, P, A, p)
        n += 1
    return n


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def sqrt_mod(a: int, p: int):
    """Square root for p = 3 mod 4; None if a is a non-residue."""
    a %= p
    if a == 0:
        return 0
    s = pow(a, (p + 1) // 4, p)
    return s if s * s % p == a else None


def enumerate_curve(A: int, p: int):
    """All affine points of y^2 = x^3 + A*x^2 + x plus the group order.

    Rejects singular coefficients (A = +-2)."""
    _check_toy(p)
    A %= p
    if A == 2 or A == p - 2:
        raise ValueError("singular curve coefficient")
    points = []
    for x in range(p):
        rhs = (x ** 3 + A * x * x + x) % p
        y = sqrt_mod(rhs, p)
        if y is None:
            continue
        points.append(AffinePoint(x, y))
        if y != 0:
            points.append(AffinePoint(x, (p - y) % p))
    return points, len(points) + 1   # + point at infinity


def _fit_cubic(samples, p: int):
    """Solve y^2 = x^3 + a2*x^2 + a4*x + a6 for (a2, a4, a6) by Gaussian
    elimination over three (x, y) samples, verifying with the rest."""
    rows = []
    for P in samples:
        rows.append(([P.x * P.x % p, P.x, 1], (P.y * P.y - P.x ** 3) % p))
    # eliminate over the first three independent rows
    for trio in itertools.combinations(range(len(rows)), 3):
        m = [[rows[i][0][0], rows[i][0][1], rows[i][0][2], rows[i][1]]
             for i in trio]
        sol = _solve3(m, p)
        if sol is None:
            continue
        a2, a4, a6 = sol
        if all((P.y * P.y - (P.x ** 3 + a2 * P.x * P.x + a4 * P.x + a6)) % p == 0
               for P in samples):
            return a2, a4, a6
    raise ArithmeticError("could not fit codomain cubic")


def _solve3(m, p: int):
    # 3x4 augmented matrix, Gauss-Jordan mod p
    m = [row[:] for row in m]
    for col in range(3):
        piv = next((r for r in range(col, 3) if m[r][col] % p), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, p)
        m[col] = [v * inv % p for v in m[col]]
        for r in range(3):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(v - f * w) % p for v, w in zip(m[r], m[col])]
    return m[0][3], m[1][3], m[2][3]


def velu_isogeny(A: int, kernel_gen, l: int, p: int):
    """Degree-l isogeny by translation-form Velu, normalized to the unique
    Montgomery codomain.

    Returns (A', phi) where phi maps an affine x (or AffinePoint) to the
    image x on y^2 = x^3 + A'*x^2 + x, or INFINITY for kernel inputs.
    """
    _check_toy(p)
    if point_order(kernel_gen, A, p) != l:
        raise ValueError("kernel generator does not have exact order l")
    kernel = []
    Q = kernel_gen
    while Q is not INFINITY:
        kernel.append(Q)
        Q = add_points(Q, kernel_gen, A, p)
    kernel_x = {K.x for K in kernel}

    def raw_map(P):
        """Translation Velu: phi(P) = P + sum over kernel of ((P+Q) - Q)."""
        if P is INFINITY or P.x in kernel_x:
            return INFINITY
        x = P.x
        y = P.y
        for K in kernel:
            S = add_points(P, K, A, p)
            x = (x + S.x - K.x) % p
            y = (y + S.y - K.y) % p
        return AffinePoint(x, y)

    # Sample images and fit the (non-Montgomery) codomain cubic.
    samples = []
    seen = set()
    for x in range(p):
        rhs = (x ** 3 + A * x * x + x) % p
        if x in kernel_x or rhs == 0:
            continue
        y = sqrt_mod(rhs, p)
        if y is None:
            continue
        img = raw_map(AffinePoint(x, y))
        if img is INFINITY or img.x in seen:
            continue
        seen.add(img.x)
        samples.append(img)
        if len(samples) >= 8:
            break
    a2, a4, a6 = _fit_cubic(samples, p)

    # Normalize y^2 = x^3 + a2 x^2 + a4 x + a6 to Montgomery form via
    # x -> u^2 x + r with r a rational 2-torsion x and u in F_p.
    candidates = []
    for r in range(p):
        if (r ** 3 + a2 * r * r + a4 * r + a6) % p != 0:
            continue
        u4 = (3 * r * r + 2 * a2 * r + a4) % p
        u2 = sqrt_mod(u4, p)
        if u2 is None or u2 == 0:
            continue
        for cand in (u2, (p - u2) % p):
            if legendre(cand, p) != 1:
                continue  # u must live in F_p
            A_new = (3 * r + a2) * pow(cand, -1, p) % p
            if A_new in (2, p - 2):
                continue
            candidates.append((r, cand, A_new))
    if len({c[2] for c in candidates}) != 1:
        raise ArithmeticError(
            f"Montgomery normalization not unique: {candidates}")
    r, u2, A_new = candidates[0]
    u2_inv = pow(u2, -1, p)

    def phi(P):
        if isinstance(P, int):
            rhs = (P ** 3 + A * P * P + P) % p
            y = sqrt_mod(rhs, p)
            if y is None:
                raise ValueError("x is not on the curve side")
            P = AffinePoint(P, y)
        img = raw_map(P)
        if img is INFINITY:
            return INFINITY
        return AffinePoint((img.x - r) * u2_inv % p, img.y)  # y left raw

    return A_new, phi


def find_order_l_point(A: int, l: int, p: int, side: int = 1):
    """A point of exact order l on E_A (side=+1) or on its twist, handled
    as E_{-A} via the standard twist isomorphism (side=-1)."""
    coeff = A % p if side > 0 else (-A) % p
    points, order = enumerate_curve(coeff, p)
    if order % l:
        raise ValueError("group order not divisible by l")
    cof = order // l
    for P in points:
        K = scalar_mul(cof, P, coeff, p)
        if K is not INFINITY:
            return K, coeff
    raise ArithmeticError("no point of order l found")


def act_one(A: int, l: int, sign: int, p: int) -> int:
    """Apply one degree-l isogeny step in the given direction."""
    if sign > 0:
        K, _ = find_order_l_point(A, l, p, side=1)
        A_new, _ = velu_isogeny(A, K, l, p)
        return A_new
    # negative direction: act on the quadratic twist E_{-A} and flip back
    K, coeff = find_order_l_point(A, l, p, side=-1)
    A_new, _ = velu_isogeny(coeff, K, l, p)
    return (-A_new) % p


def brute_group_action(A: int, e, primes, p: int) -> int:
    """Apply |e_i| Velu isogenies of degree l_i per prime, signs included."""
    _check_toy(p)
    A %= p
    for l, ei in zip(primes, e):
        for _ in range(abs(ei)):
            A = act_one(A, l, 1 if ei > 0 else -1, p)
    return A
