"""Odd-degree isogeny computation (the xISOG control-unit model).

Kernel multiples are produced by a differential addition chain holding a
two-entry sliding window; each multiple is consumed immediately into four
running products: the per-point evaluation accumulators and the curve
products pi_plus = prod(X_i + Z_i), pi_minus = prod(X_i - Z_i).

The codomain coefficient comes from the Edwards-style update
(A24plus', A24minus') = ((A+2)^l * pi_plus^8, (A-2)^l * pi_minus^8)
mapped back to (Ax' : Az') = (2*(A24plus' + A24minus') : A24plus' - A24minus').
This is the reconciled form of the published update (whose printed version
misplaces a square); it is locked against the brute-force Velu oracle over
the toy field by the test suite.
"""

from __future__ import annotations

from typing import Iterator

from .fp import Fp
from .mont_curve import (CurveConstants, ProjCurve, ProjPoint, curve_constants,
                         is_infinity, xadd, xdbl, xmul)
from .trace import MOD_XISOG


def kernel_multiples(fp: Fp, K: ProjPoint, d: int,
                     const: CurveConstants) -> Iterator[ProjPoint]:
    """Yield x([i]K) for i = 1..d, keeping only the last two multiples."""
    if d < 1:
        return
    yield K
    if d == 1:
        return
    prev2, prev = K, xdbl(fp, K, const)
    yield prev
    for _ in range(d - 2):
        prev2, prev = prev, xadd(fp, prev, K, prev2)
        yield prev


def _eighth_power(fp: Fp, x: int) -> int:
    x = fp.mul(x, x)
    x = fp.mul(x, x)
    return fp.mul(x, x)


def xisog(fp: Fp, curve: ProjCurve, points, K: ProjPoint, l: int):
    """Degree-l isogeny with kernel <K>: codomain curve, point images, fault.

    `points` is a sequence of ProjPoint to push through the isogeny; a point
    in <K> maps to the point at infinity.  [l]K is computed at the end and
    any result other than the point at infinity raises the fault flag (never
    silently); so does a codomain with Az = 0.  This is the ct action's only
    kernel-order check.

    Returns (curve', images, fault).
    """
    d = (l - 1) // 2
    const = curve_constants(fp, curve)

    fp.set_module(MOD_XISOG)
    one = fp.one
    pre = []
    for P in points:
        pre.append((fp.add(P.X, P.Z), fp.sub(P.X, P.Z)))
    # Running products over the d = (l-1)/2 kernel multiples: the curve
    # products, and one evaluation accumulator pair per point.
    pi_plus = pi_minus = one
    eval_plus = [one] * len(pre)
    eval_minus = [one] * len(pre)

    for M in kernel_multiples(fp, K, d, const):
        fp.set_module(MOD_XISOG)
        s = fp.add(M.X, M.Z)
        t = fp.sub(M.X, M.Z)
        pi_plus = fp.mul(pi_plus, s)
        pi_minus = fp.mul(pi_minus, t)
        for j, (pp, pm) in enumerate(pre):
            t0 = fp.mul(pm, s)
            t1 = fp.mul(pp, t)
            eval_plus[j] = fp.mul(eval_plus[j], fp.add(t0, t1))
            eval_minus[j] = fp.mul(eval_minus[j], fp.sub(t0, t1))

    images = []
    for P, ep, em in zip(points, eval_plus, eval_minus):
        images.append(ProjPoint(fp.mul(P.X, fp.mul(ep, ep)),
                                fp.mul(P.Z, fp.mul(em, em))))

    az2 = fp.add(curve.Az, curve.Az)
    a24p = fp.add(curve.Ax, az2)                  # (A+2) projectively
    a24m = fp.sub(curve.Ax, az2)                  # (A-2) projectively
    tp = fp.mul(fp.pow_fixed(a24p, l), _eighth_power(fp, pi_plus))
    tm = fp.mul(fp.pow_fixed(a24m, l), _eighth_power(fp, pi_minus))
    ax = fp.add(fp.add(tp, tm), fp.add(tp, tm))   # 2*(tp + tm)
    az = fp.sub(tp, tm)
    new_curve = ProjCurve(ax, az)

    # A codomain with Az = 0 is no curve: a fault, like a kernel of the
    # wrong order.
    lk = xmul(fp, K, l, const)
    return new_curve, images, az == 0 or not is_infinity(lk)
