"""Brute-force reference implementations for tests (toy-sized fields only).

Everything here is deliberately independent of the production modules: plain
affine group-law arithmetic, exhaustive point counting and enumeration, and
Velu isogenies. The codomain comes from Velu's closed-form sums over the
kernel; the translation-form map phi(P) = P + sum((P + K) - K) gives the
point images and the image of (0, 0), a rational 2-torsion x, and the
codomain is normalized to the Montgomery model by explicit isomorphism
search.
A walk counts its start's points once: isogenous curves over F_p have the
same number of points (Tate, Invent. Math. 2, 1966), so every curve on it
has the start's count N, and each twist E_{-A} has 2p + 2 - N.
Nothing is constant-time and nothing is shared with the main code paths.
"""

from __future__ import annotations

TOY_LIMIT = 1 << 32


def naive_redc(T: int, p: int, R: int) -> int:
    """T * R^-1 mod p via an extended-gcd inverse."""
    return T * pow(R, -1, p) % p


class AffinePoint:
    """A read-only affine point (x, y), equal only to an AffinePoint with
    the same coordinates."""

    __slots__ = ("x", "y")

    def __init__(self, x: int, y: int):
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    def __eq__(self, other):
        if other.__class__ is not AffinePoint:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))

    def __repr__(self):
        return f"AffinePoint(x={self.x!r}, y={self.y!r})"

    def __reduce__(self):
        return AffinePoint, (self.x, self.y)

    def __setattr__(self, name, value):
        raise AttributeError("AffinePoint is read-only")

    def __delattr__(self, name):
        raise AttributeError("AffinePoint is read-only")


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

    Returns (A', phi) where phi maps an affine x (or AffinePoint) to the
    image x on y^2 = x^3 + A'*x^2 + x, or INFINITY for kernel inputs.
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

    # Velu's closed form for a1 = a3 = 0 (Washington, Elliptic Curves,
    # Thm 12.16), summed over one of each pair +-K: the codomain is
    # y^2 = x^3 + A*x^2 + (1 - 5v)*x - (4A*v + 7w).
    v = w = 0
    for K in kernel[:(l - 1) // 2]:
        g = (3 * K.x + 2 * A) * K.x + 1
        v += 2 * g
        w += 4 * K.y * K.y + 2 * K.x * g
    a2, a4, a6 = A, (1 - 5 * v) % p, -(4 * A * v + 7 * w) % p

    # Normalize y^2 = x^3 + a2 x^2 + a4 x + a6 to Montgomery form via
    # x -> u^2 x + r with r a rational 2-torsion x and u in F_p. The image
    # of (0, 0) is one such r; the quotient quadratic holds the others.
    r0 = raw_map(AffinePoint(0, 0)).x
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
