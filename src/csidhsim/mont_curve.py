"""x-only Montgomery-curve arithmetic over F_p.

Points are (X : Z) pairs and curves (Ax : Az) pairs of residues mod p;
Z = 0 encodes the point at infinity.  The formulas compute on them as plain
bignum arithmetic on the prime `p`.  The public functions take an
:class:`~csidhsim.fp.Fp` context and issue their ALU ops on it from
templates, tagged with the right control-unit module, so the trace is what
an op-by-op Montgomery model records.  The ladder step `xdbladd` and its
addition half `xadd_tail` are the one implementation of the xDBL/xADD
formulas: `xmul` issues each step's `XDBLADD_OPS`, and `isogeny.xisog`
runs its kernel chain on them.

The combined double-and-add consumes the curve through precomputed
(A+2)/4-style constants (A24 = Ax + 2*Az, C24 = 4*Az), recomputed whenever
the curve changes.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .fp import Fp, jacobi
from .trace import (MOD_XAFFINIZE, MOD_XDBLADD, MOD_XTWIST, OP_ADD,
                    OP_MONT_MUL, OP_SUB)

# xTWIST's ops before its residue test: x^2, A*x, the two additions of
# x^2 + A*x + 1, and the product with x.
_XTWIST_OPS = bytes((OP_MONT_MUL, OP_MONT_MUL, OP_ADD, OP_ADD, OP_MONT_MUL))
# xAffinize's product Ax * Az^-1, after the inversion.
_XAFFINIZE_TAIL = bytes((OP_MONT_MUL,))


class InfinityAffinize(ZeroDivisionError):
    """Affinization of a projective value with zero denominator."""


class CurveSide(Enum):
    CURVE = "curve"
    TWIST = "twist"


class ProjPoint(NamedTuple):
    X: int
    Z: int


class ProjCurve(NamedTuple):
    Ax: int
    Az: int


class CurveConstants(NamedTuple):
    """Cached ladder constants: A24 = Ax + 2*Az, C24 = 4*Az."""
    A24: int
    C24: int


def curve_constants(fp: Fp, curve: ProjCurve) -> CurveConstants:
    fp.set_module(MOD_XDBLADD)
    az2 = fp.add(curve.Az, curve.Az)
    return CurveConstants(fp.add(curve.Ax, az2), fp.add(az2, az2))


def is_infinity(P: ProjPoint) -> bool:
    return P.Z == 0


# One ladder step's ALU ops in the op-by-op Montgomery model's issue order:
# the (X+-Z) squares and their difference, then the differential addition,
# then the rest of the doubling.
XDBLADD_OPS = bytes((OP_ADD, OP_SUB, OP_MONT_MUL, OP_MONT_MUL, OP_SUB,
                     OP_ADD, OP_SUB, OP_MONT_MUL, OP_MONT_MUL, OP_ADD, OP_SUB,
                     *(OP_MONT_MUL,) * 7, OP_ADD, OP_MONT_MUL))


def xadd_tail(p: int, a: int, b: int, Q: ProjPoint,
              diff: ProjPoint) -> ProjPoint:
    """x(P+Q) on residues mod p, from a = X+Z and b = X-Z of P, given
    diff = x(P-Q): the addition half of `xdbladd`, and each xADD step of
    `isogeny.xisog`'s kernel chain.  Untraced."""
    da = (Q.X - Q.Z) * a % p
    cb = (Q.X + Q.Z) * b % p
    t0 = da + cb
    t1 = da - cb
    return ProjPoint(diff.Z * (t0 * t0 % p) % p, diff.X * (t1 * t1 % p) % p)


def xdbladd(p: int, P: ProjPoint, Q: ProjPoint, diff: ProjPoint,
            const: CurveConstants) -> tuple[ProjPoint, ProjPoint]:
    """Simultaneous (x([2]P), x(P+Q)) sharing the (X+-Z) intermediates.

    One ladder step on residues mod p, computed as plain bignum arithmetic
    and untraced: `xmul` issues the step's `XDBLADD_OPS`.  diff must be
    x(P-Q).  Each product is reduced once; sums and differences stay
    unreduced where that reduction covers them.  Results are canonical.
    """
    X, Z = P
    a = X + Z
    b = X - Z
    aa = a * a % p
    bb = b * b % p
    e = aa - bb
    t = const.C24 * bb % p
    return (ProjPoint(t * aa % p, e * ((t + const.A24 * e) % p) % p),
            xadd_tail(p, a, b, Q, diff))


def xmul(fp: Fp, P: ProjPoint, k: int, const: CurveConstants) -> ProjPoint:
    """x([k]P) via a Montgomery ladder of max(bit length of k, 1) steps.

    Every step is one `xdbladd`, whichever bit it consumes, so the operation
    sequence depends only on the bit length of k.  Every scalar the action
    ladders is public (a product of the parameter set's primes, or p + 1),
    so this keeps the trace key-independent.

    For k >= 1 the ladder returns (0 : 0) for P = O and for the X = 0
    two-torsion point (0 : 1), because the difference point P has Z = 0,
    resp. X = 0.  `is_infinity` reads any Z = 0 as O, and must: honest ct
    rounds ladder points that are already O, and an `is_infinity` that
    refused (0 : 0) failed the ct action on up to all 27 toy419 keys,
    depending on the seed.  On a supersingular curve the action layer never
    ladders (0 : 1): sampling rejects x = 0 and cofactor clearing removes
    the even part.  `validate_pk` checks `Q.X == 0` itself.

    The steps' ops are issued as xDBLADD's in one `Fp.issue` call, so the
    trace equals an op-by-op ladder's.
    """
    p = fp.p
    bits = bin(k)[2:]                  # "0" for k = 0: one step
    fp.set_module(MOD_XDBLADD)
    fp.issue(XDBLADD_OPS, len(bits))
    r0 = ProjPoint(1, 0)               # point at infinity
    r1 = P
    for bit in bits:
        if bit == "1":
            r1, r0 = xdbladd(p, r1, r0, P, const)
        else:
            r0, r1 = xdbladd(p, r0, r1, P, const)
    return r0


def xtwist(fp: Fp, x: int, A: int) -> CurveSide:
    """Classify an x-coordinate as curve or twist of y^2 = x^3 + A*x^2 + x.

    CURVE iff x^3 + A*x^2 + x is a square mod p; a zero right-hand side
    (2-torsion x) counts as CURVE.
    """
    fp.set_module(MOD_XTWIST)
    fp.issue(_XTWIST_OPS, 1)
    rhs = x * ((x + A) * x + 1) % fp.p
    return CurveSide.CURVE if fp.is_square(rhs) else CurveSide.TWIST


def screen_side(p: int, curve: ProjCurve, x: int) -> CurveSide:
    """`xtwist`'s side of x on the curve (Ax : Az), Az != 0.

    Az*x*(Az*x^2 + Ax*x + Az) is Az^2 * (x^3 + A*x^2 + x), so its Jacobi
    symbol gives the side without an inversion.  Untraced: it issues no op
    on any `Fp`.
    """
    Ax, Az = curve
    azx = Az * x % p
    j = jacobi(azx * ((azx + Ax) * x + Az), p)
    return CurveSide.CURVE if j >= 0 else CurveSide.TWIST


def affinize_mont(fp: Fp, curve: ProjCurve) -> int:
    """Affine coefficient Ax/Az: one inversion, then one product, as the
    ALU computes it in the Montgomery domain."""
    if curve.Az == 0:
        raise InfinityAffinize("projective curve with Az = 0")
    fp.set_module(MOD_XAFFINIZE)
    inv = fp.inv(curve.Az)
    fp.issue(_XAFFINIZE_TAIL, 1)
    return curve.Ax * inv % fp.p


def affinize(fp: Fp, curve: ProjCurve) -> int:
    """Affine coefficient Ax/Az, with the ALU's conversion out of the
    Montgomery domain (one MONT_REDUCE)."""
    return fp.from_mont(affinize_mont(fp, curve))
