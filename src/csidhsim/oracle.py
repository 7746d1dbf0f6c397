"""Brute-force reference implementations for tests (toy-sized fields only).

Everything here is deliberately independent of the production modules: plain
affine group-law arithmetic, exhaustive point counting and enumeration, and
Velu isogenies. One set of Velu's closed-form sums over the kernel gives
the codomain, each point's image x' and its y' = y*dx'/dx, and the image of
(0, 0), a rational 2-torsion x; the codomain is normalized to the Montgomery
model by explicit isomorphism search, which maps the images with it.
A walk counts its start's points once: isogenous curves over F_p have the
same number of points (Tate, Invent. Math. 2, 1966), so every curve on it
has the start's count N, and each twist E_{-A} has 2p + 2 - N.
Nothing is constant-time and nothing is shared with the main code paths.
"""

from __future__ import annotations

from typing import NamedTuple

TOY_LIMIT = 1 << 32


def naive_redc(T: int, p: int, R: int) -> int:
    """T * R^-1 mod p via an extended-gcd inverse."""
    return T * pow(R, -1, p) % p


class AffinePoint(NamedTuple):
    """A read-only affine point (x, y), equal only to an AffinePoint with
    the same coordinates: never to a bare tuple or another tuple type."""

    x: int
    y: int

    def __eq__(self, other):
        return other.__class__ is AffinePoint and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = tuple.__hash__


INFINITY = None  # affine point at infinity marker


def _check_toy(p: int) -> None:
    if p >= TOY_LIMIT:
        raise ValueError("oracle is restricted to toy-sized fields")
    if p % 4 != 3:
        raise ValueError("oracle square roots need p = 3 mod 4")


def _check_curve(A: int, p: int) -> int:
    """A mod p for a toy field, rejecting singular coefficients (A = +-2)."""
    _check_toy(p)
    A %= p
    if A == 2 or A == p - 2:
        raise ValueError("singular curve coefficient")
    return A


def add_points(P, Q, A: int, p: int):
    """Chord-tangent addition on y^2 = x^3 + A*x^2 + x."""
    if P is INFINITY:
        return Q
    if Q is INFINITY:
        return P
    if P.x == Q.x:                   # P = -Q or, on the curve, P = Q
        if (P.y + Q.y) % p == 0:
            return INFINITY
        lam = (3 * P.x * P.x + 2 * A * P.x + 1) * pow(2 * P.y, -1, p) % p
    else:
        lam = (Q.y - P.y) * pow(Q.x - P.x, -1, p) % p
    x3 = (lam * lam - A - P.x - Q.x) % p
    y3 = (lam * (P.x - x3) - P.y) % p
    return AffinePoint(x3, y3)


def scalar_mul(k: int, P, A: int, p: int):
    """[k]P for k >= 0 by double-and-add."""
    if k < 0:
        raise ValueError("scalar must be non-negative")
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


def curve_points(A: int, p: int):
    """The affine points of y^2 = x^3 + A*x^2 + x, generated lazily in
    ascending x, (x, y) before (x, p - y)."""
    A = _check_curve(A, p)
    return _scan_points(A, p)   # checked now, not at the first next()


def _scan_points(A: int, p: int):
    for x in range(p):
        y = sqrt_mod(x ** 3 + A * x * x + x, p)
        if y is None:
            continue
        yield AffinePoint(x, y)
        if y != 0:
            yield AffinePoint(x, p - y)


def curve_order(A: int, p: int) -> int:
    """#E_A(F_p), counted against a table of squares; builds no points."""
    A = _check_curve(A, p)
    points_at = [0] * p         # affine points with x^3 + A*x^2 + x = index
    for y in range(1, (p + 1) // 2):
        points_at[y * y % p] = 2
    points_at[0] = 1
    return 1 + sum([points_at[((x + A) * x + 1) * x % p] for x in range(p)])


def enumerate_curve(A: int, p: int):
    """All affine points of y^2 = x^3 + A*x^2 + x plus the group order."""
    points = list(curve_points(A, p))
    return points, len(points) + 1   # + point at infinity


def velu_isogeny(A: int, kernel_gen, l: int, p: int):
    """Degree-l isogeny by Velu's formulas, normalized to the unique
    Montgomery codomain.

    Returns (A', phi) where phi maps an AffinePoint to its image on
    y^2 = x^3 + A'*x^2 + x, or INFINITY for INFINITY and kernel inputs.
    """
    _check_toy(p)
    # One walk K, 2K, ... lists the kernel; it reaches O after exactly l - 1
    # points only if K has exact order l, and it stops after l points.
    kernel = []
    Q = kernel_gen
    while Q is not INFINITY and len(kernel) < l:
        kernel.append(Q)
        Q = add_points(Q, kernel_gen, A, p)
    if len(kernel) != l - 1:
        raise ValueError("kernel generator does not have exact order l")
    kernel_x = {K.x for K in kernel}

    # Velu's closed form for a1 = a3 = 0 (Washington, Elliptic Curves,
    # Thm 12.16), one set of sums over one of each pair +-K, with
    # v_K = 2*g_K and u_K = 4*y_K^2. The codomain is
    # y^2 = x^3 + A*x^2 + (1 - 5v)*x - (4A*v + 7w), and with
    # d = 1/(x - x_K), P maps to x' = x + sum(v_K*d + u_K*d^2) and
    # y' = y*(1 - sum(v_K*d^2 + 2*u_K*d^3)) = y*dx'/dx.
    sums = [(K.x, 2 * ((3 * K.x + 2 * A) * K.x + 1), 4 * K.y * K.y)
            for K in kernel[:(l - 1) // 2]]
    v = sum(vK for _, vK, _ in sums)
    w = sum(uK + xK * vK for xK, vK, uK in sums)
    a2, a4, a6 = A, (1 - 5 * v) % p, -(4 * A * v + 7 * w) % p

    def image(x):
        """x' and dx'/dx for an affine x outside the kernel."""
        x2, slope = x, 1
        for xK, vK, uK in sums:
            d = pow(x - xK, -1, p)
            x2 += (vK + uK * d) * d
            slope -= (vK + 2 * uK * d) * d * d
        return x2 % p, slope

    # Normalize y^2 = x^3 + a2 x^2 + a4 x + a6 to Montgomery form via
    # x -> u^2 x + r with r a rational 2-torsion x and u in F_p. The image
    # of (0, 0) is one such r; the quotient quadratic holds the others.
    r0 = image(0)[0]
    if ((r0 + a2) * r0 + a4) * r0 % p != -a6 % p:
        raise ArithmeticError("image of (0, 0) is off the Velu codomain")
    b = a2 + r0                      # cubic = (x - r0)(x^2 + b*x + c)
    s = sqrt_mod(b * b - 4 * (a4 + r0 * b), p)
    half = (p + 1) // 2
    roots = {r0} if s is None else {r0, (s - b) * half % p,
                                    (-s - b) * half % p}
    candidates = []
    for r in sorted(roots):
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
    u3_inv = u2_inv * pow(sqrt_mod(u2, p), -1, p)

    def phi(P):
        if P is INFINITY or P.x in kernel_x:
            return INFINITY
        x2, slope = image(P.x)
        return AffinePoint((x2 - r) * u2_inv % p, P.y * slope * u3_inv % p)

    return A_new, phi


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"direction must be +1 or -1, not {sign!r}")


def _kernel_point(coeff: int, l: int, order: int, p: int):
    """The first point of curve_points(coeff, p) whose [order/l] multiple
    is not O, where order = #E_coeff(F_p): a point of exact order l."""
    if order % l:
        raise ValueError("group order not divisible by l")
    cof = order // l
    for P in curve_points(coeff, p):
        K = scalar_mul(cof, P, coeff, p)
        if K is not INFINITY:
            return K
    raise ArithmeticError("no point of order l found")


def find_order_l_point(A: int, l: int, p: int, side: int = 1):
    """A point of exact order l on E_A (side=+1) or on its twist, handled
    as E_{-A} via the standard twist isomorphism (side=-1)."""
    _check_sign(side)
    coeff = A * side % p
    return _kernel_point(coeff, l, curve_order(coeff, p), p), coeff


def _step(A: int, l: int, sign: int, p: int, order: int) -> int:
    """One degree-l isogeny step from E_A, where order = #E_A(F_p); the
    negative direction acts on the twist E_{-A}, of order 2p + 2 - order,
    and flips back."""
    if sign > 0:
        return velu_isogeny(A, _kernel_point(A, l, order, p), l, p)[0]
    coeff = (-A) % p
    K = _kernel_point(coeff, l, 2 * p + 2 - order, p)
    return (-velu_isogeny(coeff, K, l, p)[0]) % p


def act_one(A: int, l: int, sign: int, p: int) -> int:
    """Apply one degree-l isogeny step in the given direction."""
    _check_sign(sign)
    A %= p
    return _step(A, l, sign, p, curve_order(A, p))


def brute_group_action(A: int, e, primes, p: int) -> int:
    """Apply |e_i| Velu isogenies of degree l_i per prime, signs included."""
    _check_toy(p)
    if len(e) != len(primes):
        raise ValueError(
            f"exponent vector has {len(e)} entries for {len(primes)} primes")
    A %= p
    if not any(e):
        return A
    order = curve_order(A, p)   # the same on every curve of the walk
    for l, ei in zip(primes, e):
        for _ in range(abs(ei)):
            A = _step(A, l, 1 if ei > 0 else -1, p, order)
    return A
