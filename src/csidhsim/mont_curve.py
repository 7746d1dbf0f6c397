"""x-only Montgomery-curve arithmetic over F_p.

Points are (X : Z) pairs and curves (Ax : Az) pairs of Montgomery-domain
ints; Z = 0 encodes the point at infinity.  The public functions take an
:class:`~csidhsim.fp.Fp` context so operation traces attribute work to the
right control-unit module.

The exceptions are the ladder step `xdbladd` and its addition half
`xadd_tail`, the one implementation of the xDBL/xADD formulas, which run on
standard-domain residues: `xmul` converts its inputs to residues once, runs
every step there as plain bignum arithmetic on the prime `p`, and converts
the result back.  It issues the steps' ALU ops on its `Fp` in one call,
from the per-step template `XDBLADD_OPS`, so the trace is what an op-by-op
Montgomery ladder records.  `isogeny.xisog` runs its kernel chain on
residues in the same way.

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
    """x(P+Q) on standard-domain residues mod p, from a = X+Z and b = X-Z
    of P, given diff = x(P-Q): the addition half of `xdbladd`, and each
    xADD step of `isogeny.xisog`'s kernel chain.  Untraced."""
    da = (Q.X - Q.Z) * a % p
    cb = (Q.X + Q.Z) * b % p
    t0 = da + cb
    t1 = da - cb
    return ProjPoint(diff.Z * (t0 * t0 % p) % p, diff.X * (t1 * t1 % p) % p)


def xdbladd(p: int, P: ProjPoint, Q: ProjPoint, diff: ProjPoint,
            const: CurveConstants) -> tuple[ProjPoint, ProjPoint]:
    """Simultaneous (x([2]P), x(P+Q)) sharing the (X+-Z) intermediates.

    One ladder step on standard-domain residues mod p (points and
    constants alike), computed as plain bignum arithmetic and untraced:
    `xmul` issues the step's `XDBLADD_OPS`.  diff must be x(P-Q).  Each
    product is reduced once; sums and differences stay unreduced where that
    reduction covers them.  Results are canonical.
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

    Inputs and result are Montgomery-domain.  The steps run on
    standard-domain residues, converted in (times R^-1) and out (times R)
    once, off the ALU model; their ops are issued as xDBLADD's in one
    `Fp.issue` call, so the trace equals an op-by-op ladder's.
    """
    p, rinv = fp.p, fp.Rinv
    P = ProjPoint(P.X * rinv % p, P.Z * rinv % p)
    const = CurveConstants(const.A24 * rinv % p, const.C24 * rinv % p)
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
    one = fp.one
    return ProjPoint(r0.X * one % p, r0.Z * one % p)


def xtwist(fp: Fp, x: int, A: int) -> CurveSide:
    """Classify an x-coordinate (Montgomery domain) as curve or twist.

    CURVE iff x^3 + A*x^2 + x is a square mod p; a zero right-hand side
    (2-torsion x) counts as CURVE.
    """
    fp.set_module(MOD_XTWIST)
    x2 = fp.mul(x, x)
    ax = fp.mul(A, x)
    rhs = fp.mul(x, fp.add(fp.add(x2, ax), fp.one))
    return CurveSide.CURVE if fp.is_square(rhs) else CurveSide.TWIST


def screen_side(p: int, curve: ProjCurve, x: int) -> CurveSide:
    """`xtwist`'s side of a standard-domain x on the curve (Ax : Az), Az != 0.

    Az*x*(Az*x^2 + Ax*x + Az) is Az^2 * (x^3 + A*x^2 + x) times the square
    R^2, so its Jacobi symbol gives the side without an inversion.  Untraced:
    it issues no op on any `Fp`.
    """
    Ax, Az = curve
    azx = Az * x % p
    j = jacobi(azx * ((azx + Ax) * x + Az), p)
    return CurveSide.CURVE if j >= 0 else CurveSide.TWIST


def affinize_mont(fp: Fp, curve: ProjCurve) -> int:
    """Affine Montgomery-domain coefficient Ax/Az (single inversion)."""
    if curve.Az == 0:
        raise InfinityAffinize("projective curve with Az = 0")
    fp.set_module(MOD_XAFFINIZE)
    return fp.mul(curve.Ax, fp.inv(curve.Az))


def affinize(fp: Fp, curve: ProjCurve) -> int:
    """Affine standard-domain coefficient Ax/Az."""
    return fp.from_mont(affinize_mont(fp, curve))
