"""x-only Montgomery-curve arithmetic over F_p.

Points are (X : Z) pairs and curves (Ax : Az) pairs of residues mod p;
Z = 0 encodes the point at infinity.  The formulas compute on them as plain
bignum arithmetic on the prime `p`.  The public functions take an
:class:`~csidhsim.fp.Fp` context and record their ALU ops on it through
`Fp.issue`, from templates that are their trace bytes, tagged with their
control-unit module once at import; so the trace is what an op-by-op
Montgomery model records.  The ladder step `xdbladd` is written once, on
ints; `xmul` calls it once per bit and issues each step's `XDBLADD_OPS`.
The tests check both against the op-by-op model in
`tests/mont_reference.py`.

The combined double-and-add consumes the curve through precomputed
(A+2)/4-style constants (A24 = Ax + 2*Az, C24 = 4*Az), recomputed whenever
the curve changes.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .fp import Fp, jacobi
from .trace import (MOD_XAFFINIZE, MOD_XDBLADD, MOD_XTWIST, OP_ADD,
                    OP_MONT_MUL, OP_SUB, tag_ops)

# xTWIST's ops before its residue test: x^2, A*x, the two additions of
# x^2 + A*x + 1, and the product with x.
_XTWIST_OPS = tag_ops(MOD_XTWIST, (OP_MONT_MUL, OP_MONT_MUL, OP_ADD, OP_ADD,
                                   OP_MONT_MUL))
# xAffinize's product Ax * Az^-1, after the inversion.
_XAFFINIZE_TAIL = tag_ops(MOD_XAFFINIZE, (OP_MONT_MUL,))


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
# then the rest of the doubling.  `_XDBLADD_STEP` is its trace bytes.
XDBLADD_OPS = bytes((OP_ADD, OP_SUB, OP_MONT_MUL, OP_MONT_MUL, OP_SUB,
                     OP_ADD, OP_SUB, OP_MONT_MUL, OP_MONT_MUL, OP_ADD, OP_SUB,
                     *(OP_MONT_MUL,) * 7, OP_ADD, OP_MONT_MUL))
_XDBLADD_STEP = tag_ops(MOD_XDBLADD, XDBLADD_OPS)


def xdbladd(p: int, x0: int, z0: int, x1: int, z1: int, xd: int, zd: int,
            A24: int, C24: int) -> tuple[int, int, int, int]:
    """One ladder step on residues mod p: (X2, Z2, X3, Z3) with
    (X2 : Z2) = x([2]P) and (X3 : Z3) = x(P+Q), for P = (x0 : z0),
    Q = (x1 : z1) and the difference (xd : zd) = x(P-Q).

    Plain bignum arithmetic, untraced: `xmul` issues the step's
    `XDBLADD_OPS`.  Each product is reduced once; sums and differences
    stay unreduced where that reduction covers them.  Results are
    canonical.
    """
    a = x0 + z0
    b = x0 - z0
    aa = a * a % p
    bb = b * b % p
    e = aa - bb
    t = C24 * bb % p
    da = (x1 - z1) * a % p
    cb = (x1 + z1) * b % p
    t0 = da + cb
    t1 = da - cb
    return (t * aa % p, e * ((t + A24 * e) % p) % p,
            zd * (t0 * t0 % p) % p, xd * (t1 * t1 % p) % p)


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
    fp.issue(_XDBLADD_STEP, len(bits))
    A24, C24 = const
    xd, zd = P
    x0, z0, x1, z1 = 1, 0, xd, zd      # R0 = O, R1 = P
    for bit in bits:
        if bit == "1":
            x1, z1, x0, z0 = xdbladd(p, x1, z1, x0, z0, xd, zd, A24, C24)
        else:
            x0, z0, x1, z1 = xdbladd(p, x0, z0, x1, z1, xd, zd, A24, C24)
    return ProjPoint(x0, z0)


def xtwist(fp: Fp, x: int, A: int) -> CurveSide:
    """Classify an x-coordinate as curve or twist of y^2 = x^3 + A*x^2 + x.

    CURVE iff x^3 + A*x^2 + x is a square mod p; a zero right-hand side
    (2-torsion x) counts as CURVE.
    """
    fp.issue(_XTWIST_OPS)
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
    fp.set_module(MOD_XAFFINIZE)       # the inversion records under it
    inv = fp.inv(curve.Az)
    fp.issue(_XAFFINIZE_TAIL)
    return curve.Ax * inv % fp.p


def affinize(fp: Fp, curve: ProjCurve) -> int:
    """Affine coefficient Ax/Az, with the ALU's conversion out of the
    Montgomery domain (one MONT_REDUCE)."""
    return fp.from_mont(affinize_mont(fp, curve))
