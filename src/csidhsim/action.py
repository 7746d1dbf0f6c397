"""The CSIDH class-group action and key exchange.

Two evaluation paths are provided:

* :func:`group_action_vartime` -- the straightforward batched algorithm:
  process positive exponents on the curve side, negative ones on the
  quadratic twist, retrying with fresh points until every exponent drains.
  Its control flow depends on the private key.

* :func:`group_action_ct` -- the constant-time variant.  Every prime
  receives exactly ``m`` isogeny slots; slots beyond ``|e_i|`` run a dummy
  isogeny whose results are discarded while the point is advanced by a
  degree-``l`` scalar multiplication instead.  Real and dummy slots issue
  the identical operation sequence, so the recorded OpTrace depends only on
  the parameter set, never on the key.

Randomness-dependent retry loops are modeled as fixed-latency units, so
only the accepted attempt stays in the trace.  Point sampling screens each
candidate x for its side by an untraced Jacobi symbol
(:func:`~csidhsim.mont_curve.screen_side`), so a rejected candidate issues
no op.  The ct path then classifies each accepted point of a round's pair
once on the traced context with ``xtwist``, and the action fails if that
disagrees with the screen.  Re-sampling the active point when a kernel
comes out trivial runs on the one traced context and is rolled back
(:meth:`Fp.rollback`).  Retry counts depend only on the sampled
randomness, so this keeps the trace structure-determined without hiding
any key-dependent work.

Negative exponents never negate the curve: a twist-side x-coordinate is a
perfectly good x-only kernel, and pushing it through the same isogeny
formulas walks the class-group action in the inverse direction.

:func:`shared_secret` always validates the peer key; :func:`run_action`,
the one runner behind every action, acts on the curve it is given.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass

from .fp import FieldElement, Fp
from .mont_curve import (CurveSide, InfinityAffinize, ProjCurve, ProjPoint,
                         affinize, affinize_mont, curve_constants,
                         is_infinity, screen_side, xmul, xtwist)
from .isogeny import xisog
from .params import PARAM_IDS, PARAM_NAMES, CsidhParams, get_params
from .trace import MOD_CSIDH, CostTable, CycleLedger, OpTrace

SK_MAGIC = b"CSIDHSK1"
PK_MAGIC = b"CSIDHPK1"

# Retry ceiling for rejection loops; hitting it means the entropy source is
# broken (honest probability ~2^-1000), not that we were unlucky.
_MAX_REJECTS = 10_000

# Kernel repairs per ct slot.  An honest retry succeeds with probability
# >= 1 - 1/l >= 2/3, so running out (< 2^-200) means the curve is not
# supersingular and the action fails.
_MAX_REPAIRS = 128

# Most primes one action batch works on, in both action paths.
BATCH_LIMIT = 16


class RngFailure(RuntimeError):
    """The entropy source failed to produce an acceptable sample."""


class FaultDetected(RuntimeError):
    """The group action failed its checks: an isogeny fault, a kernel that
    could not be repaired, or a result that is not supersingular."""


class InvalidPrivateKey(ValueError):
    """Private key is malformed or out of range."""


class InvalidPeerKey(ValueError):
    """Peer public key is malformed or failed validation."""


class Drbg:
    """Deterministic byte stream (SHA-256 in counter mode) with rejection
    samplers for bounded integers and sign bits."""

    def __init__(self, seed: bytes):
        self._key = hashlib.sha256(seed).digest()
        self._counter = 0
        self._pool = b""

    def bytes(self, n: int) -> bytes:
        while len(self._pool) < n:
            block = hashlib.sha256(
                self._key + self._counter.to_bytes(8, "little")).digest()
            self._counter += 1
            self._pool += block
        out, self._pool = self._pool[:n], self._pool[n:]
        return out

    def bit(self) -> int:
        return self.bytes(1)[0] & 1

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection."""
        nbytes = (bound.bit_length() + 7) // 8
        mask = (1 << bound.bit_length()) - 1
        for _ in range(_MAX_REJECTS):
            v = int.from_bytes(self.bytes(nbytes), "little") & mask
            if v < bound:
                return v
        raise RngFailure("rejection sampler exceeded retry ceiling")


def make_rng(seed: bytes | None = None) -> Drbg:
    return Drbg(seed if seed is not None else os.urandom(32))


def _parse_header(raw: bytes, magic: bytes, error: type[ValueError]):
    """Split a key file into (params, body) after its magic and param id."""
    if raw[:len(magic)] != magic:
        raise error("bad key-file magic")
    if len(raw) <= len(magic):
        raise error("key file is truncated")
    param_id = raw[len(magic)]
    if param_id not in PARAM_NAMES:
        raise error("unknown parameter-set id")
    return get_params(PARAM_NAMES[param_id]), raw[len(magic) + 1:]


@dataclass(frozen=True)
class PrivateKey:
    """Exponent vector e with |e_i| <= m."""

    exponents: tuple
    params: CsidhParams

    def __post_init__(self):
        if len(self.exponents) != self.params.n:
            raise InvalidPrivateKey("exponent vector has wrong length")
        if any(abs(e) > self.params.m for e in self.exponents):
            raise InvalidPrivateKey("exponent out of range")

    def to_bytes(self) -> bytes:
        body = bytes((e + 256) % 256 for e in self.exponents)
        return SK_MAGIC + bytes([PARAM_IDS[self.params.name]]) + body

    @classmethod
    def from_bytes(cls, raw: bytes) -> "PrivateKey":
        params, body = _parse_header(raw, SK_MAGIC, InvalidPrivateKey)
        if len(body) != params.n:
            raise InvalidPrivateKey("payload has wrong length")
        exps = tuple(b - 256 if b >= 128 else b for b in body)
        return cls(exps, params)


@dataclass
class PublicKey:
    """Affine Montgomery coefficient (standard domain)."""

    A: int

    def to_bytes(self, params: CsidhParams) -> bytes:
        return (PK_MAGIC + bytes([PARAM_IDS[params.name]])
                + self.A.to_bytes(params.byte_length, "little"))

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["PublicKey", CsidhParams]:
        params, body = _parse_header(raw, PK_MAGIC, InvalidPeerKey)
        if len(body) != params.byte_length:
            raise InvalidPeerKey("payload has wrong length")
        A = int.from_bytes(body, "little")
        if A >= params.p:
            raise InvalidPeerKey("coefficient out of range")
        return cls(A), params


@dataclass
class ActionConfig:
    constant_time: bool = True


def random_private_key(params: CsidhParams, rng: Drbg) -> PrivateKey:
    span = 2 * params.m + 1
    exps = tuple(rng.below(span) - params.m for _ in range(params.n))
    return PrivateKey(exps, params)


def validate_basic(A: int, params: CsidhParams) -> bool:
    """Canonical range plus nonsingularity (A not in {2, p-2})."""
    return 0 <= A < params.p and A != 2 and A != params.p - 2


# --- point sampling -------------------------------------------------------

def sample_point(fp: Fp, curve: ProjCurve, side: CurveSide,
                 rng: Drbg) -> ProjPoint:
    """Random projective point with x on the requested side of the curve.

    Candidates are screened by `screen_side`, off the ALU model, so the only
    op issued on `fp` is the accepted x's `to_mont`.
    """
    if curve.Az == 0:
        raise InfinityAffinize("projective curve with Az = 0")
    p = fp.p
    for _ in range(_MAX_REJECTS):
        x = rng.below(p)
        if x and screen_side(p, curve, x) is side:
            return ProjPoint(fp.to_mont(x), fp.one)
    raise RngFailure("point sampling exceeded retry ceiling")


# --- variable-time action (the reference batched algorithm) ---------------

def group_action_vartime(pk: PublicKey, sk: PrivateKey, params: CsidhParams,
                         rng: Drbg, trace: OpTrace | None = None):
    """Batched variable-time evaluation; returns (PublicKey or None, ok)."""
    fp = Fp(params, trace)
    if not validate_basic(pk.A, params):
        return None, False
    primes = params.primes
    n = params.n
    e = list(sk.exponents)
    curve = ProjCurve(fp.to_mont(pk.A), fp.one)

    for twist in (False, True):
        side = CurveSide.TWIST if twist else CurveSide.CURVE
        while True:
            batch = [i for i in range(n)
                     if (e[i] > 0 and not twist) or (e[i] < 0 and twist)]
            batch = batch[:BATCH_LIMIT]
            if not batch:
                break
            in_batch = set(batch)
            k = 4 * math.prod(primes[j] for j in range(n)
                              if j not in in_batch)
            P = sample_point(fp, curve, side, rng)
            const = curve_constants(fp, curve)
            P = xmul(fp, P, k, const)
            for idx in reversed(batch):
                if is_infinity(P):
                    break
                cof = math.prod(primes[j] for j in batch if j < idx)
                K = xmul(fp, P, cof, const)
                if is_infinity(K):
                    continue   # P lacked this torsion; prime stays pending
                curve, images, fault = xisog(fp, curve, [P], K, primes[idx])
                if fault:
                    return None, False
                P = images[0]
                const = curve_constants(fp, curve)
                e[idx] += 1 if twist else -1
            # next while-iteration draws a fresh point

    if not _validate_working_curve(fp, curve, params, rng):
        return None, False
    return PublicKey(affinize(fp, curve)), True


def _validate_working_curve(fp: Fp, curve: ProjCurve, params: CsidhParams,
                            rng: Drbg) -> bool:
    """Order sanity check on the projective working curve: [p+1]P = O for a
    random point (any side; both have order p+1 iff supersingular)."""
    fp.set_module(MOD_CSIDH)
    x = 0
    while x == 0:
        x = rng.below(params.p)
    P = ProjPoint(fp.to_mont(x), fp.one)
    const = curve_constants(fp, curve)
    return is_infinity(xmul(fp, P, params.p + 1, const))


# --- constant-time action --------------------------------------------------

def group_action_ct(pk: PublicKey, sk: PrivateKey, params: CsidhParams,
                    rng: Drbg):
    """Dummy-isogeny constant-time evaluation.

    Returns (PublicKey, success, OpTrace); the key is None on failure.  The
    trace is byte-identical across private keys of the same parameter set:
    every prime is processed in a fixed batch/round/slot schedule with
    exactly m isogeny computations, and each slot issues the same operations
    whether the isogeny is real or a dummy -- only which results are kept
    differs.
    """
    trace = OpTrace()
    fp = Fp(params, trace)
    if not validate_basic(pk.A, params):
        return None, False, trace

    primes = params.primes
    n = params.n
    m = params.m
    # Sign-match e_ct[i] = +-m; the sign bit is drawn for every index so rng
    # usage never depends on where the zeros sit.
    signs = []
    for ei in sk.exponents:
        coin = 1 if rng.bit() else -1
        signs.append(1 if ei > 0 else -1 if ei < 0 else coin)
    remaining = [abs(ei) for ei in sk.exponents]

    curve = ProjCurve(fp.to_mont(pk.A), fp.one)
    batches = [list(range(lo, min(lo + BATCH_LIMIT, n)))
               for lo in range(0, n, BATCH_LIMIT)]

    for batch in batches:
        in_batch = set(batch)
        k_clear = 4 * math.prod(primes[j] for j in range(n)
                                if j not in in_batch)
        for _ in range(m):
            curve = _ct_round(fp, curve, batch, k_clear, signs, remaining,
                              params, rng)
            if curve is None:
                return None, False, trace

    if any(remaining):
        raise RuntimeError("ct schedule left isogenies unapplied")
    if not _validate_working_curve(fp, curve, params, rng):
        return None, False, trace
    return PublicKey(affinize(fp, curve)), True, trace


def _sample_pair(fp: Fp, curve: ProjCurve, clear: int, rng: Drbg):
    """One curve-side and one twist-side point, cofactor-cleared by [clear].

    Each point is classified once more on the traced context; None when
    that disagrees with the side `sample_point` screened it for.
    """
    A_mont = affinize_mont(fp, curve)
    P_plus = sample_point(fp, curve, CurveSide.CURVE, rng)
    if xtwist(fp, P_plus.X, A_mont) is not CurveSide.CURVE:
        return None
    P_minus = sample_point(fp, curve, CurveSide.TWIST, rng)
    if xtwist(fp, P_minus.X, A_mont) is not CurveSide.TWIST:
        return None
    const = curve_constants(fp, curve)
    P_plus = xmul(fp, P_plus, clear, const)
    P_minus = xmul(fp, P_minus, clear, const)
    return P_plus, P_minus, const


def _kernel_ok(K: ProjPoint) -> bool:
    """K is not the point at infinity.

    On a supersingular curve K = [cof]active has order 1 or l, so this is
    the only check an honest slot needs.  Any other order is a fault, and
    `xisog`'s [l]K = O flag reports it.
    """
    return not is_infinity(K)


def _ct_round(fp, curve, batch, k_clear, signs, remaining, params, rng):
    """One batch round: sample a point pair, then one slot per prime,
    descending.  Returns the updated curve, or None on a detected fault or
    a kernel that runs out of repairs."""
    primes = params.primes
    pair = _sample_pair(fp, curve, k_clear, rng)
    if pair is None:
        return None
    P_plus, P_minus, const = pair

    for idx in reversed(batch):
        l = primes[idx]
        cof = math.prod(primes[j] for j in batch if j < idx)
        s = signs[idx]
        active, other = (P_plus, P_minus) if s > 0 else (P_minus, P_plus)

        # Repair loop: while K is the point at infinity (the active point
        # lacks the l-torsion), replace the active point with a fresh point
        # on its side, cleared of the primes outside the batch and those
        # earlier slots of this round already applied.  The inactive point
        # keeps its value.  The rejected K and the repair are rolled back.
        repairs = 0
        mark = fp.mark()
        while True:
            K = xmul(fp, active, cof, const)
            if _kernel_ok(K):
                break
            repairs += 1
            if repairs > _MAX_REPAIRS:
                return None
            side = CurveSide.CURVE if s > 0 else CurveSide.TWIST
            clear = k_clear * math.prod(primes[j] for j in batch if j > idx)
            fresh = sample_point(fp, curve, side, rng)
            active = xmul(fp, fresh, clear, const)
            fp.rollback(mark)

        new_curve, images, fault = xisog(fp, curve, [active, other], K, l)
        if fault:
            return None

        # Identical traced work either way; the flag only selects which
        # results survive.  A real slot moves to the codomain and images and
        # keeps its active image; a dummy slot keeps [l]active instead.
        real = remaining[idx] > 0
        if real:
            curve, (active, other) = new_curve, images
            remaining[idx] -= 1
        const = curve_constants(fp, curve)
        l_active = xmul(fp, active, l, const)
        other = xmul(fp, other, l, const)
        if not real:
            active = l_active
        P_plus, P_minus = (active, other) if s > 0 else (other, active)
    return curve


# --- key exchange ----------------------------------------------------------

def validate_pk(A: int, params: CsidhParams, rng: Drbg) -> bool:
    """Supersingularity sanity check: encoding, A not in {2, p-2}, then
    [p+1]P = O for one random point.  Probabilistic, not a proof."""
    if not validate_basic(A, params):
        return False
    fp = Fp(params)
    return _validate_working_curve(fp, ProjCurve(fp.to_mont(A), fp.one),
                                   params, rng)


def run_action(pk: PublicKey, sk: PrivateKey, params: CsidhParams,
               rng: Drbg, config: ActionConfig | None = None,
               trace: OpTrace | None = None):
    """[sk]pk on the path `config` selects; raises FaultDetected on failure.

    Returns (PublicKey, OpTrace or None).  The ct path records a fresh
    trace; the vartime path records into `trace` when one is given.  A key
    for another parameter set raises InvalidPrivateKey.
    """
    if sk.params != params:
        raise InvalidPrivateKey(
            f"key is for {sk.params.name}, not {params.name}")
    config = config or ActionConfig()
    if config.constant_time:
        out, ok, trace = group_action_ct(pk, sk, params, rng)
    else:
        out, ok = group_action_vartime(pk, sk, params, rng, trace)
    if not ok:
        raise FaultDetected("group action failed its self-check")
    return out, trace


def keygen(sk: PrivateKey, params: CsidhParams, rng: Drbg,
           config: ActionConfig | None = None):
    """Public key [sk]E_0; returns (PublicKey, OpTrace or None)."""
    return run_action(PublicKey(0), sk, params, rng, config)


def shared_secret(sk: PrivateKey, peer: PublicKey, params: CsidhParams,
                  rng: Drbg, config: ActionConfig | None = None
                  ) -> FieldElement:
    """Affine coefficient of [sk]E_peer, after validating the peer key."""
    if not validate_pk(peer.A, params, rng):
        raise InvalidPeerKey("peer public key failed validation")
    out, _ = run_action(peer, sk, params, rng, config)
    return FieldElement(out.A, params)


def estimate_keygen(params: CsidhParams,
                    cost_table: CostTable | None = None) -> CycleLedger:
    """Price the constant-time keygen trace of `params`.

    The trace is the same for every key and seed, so this runs the zero key
    under one fixed seed.  Always the constant-time path: only it records
    the trace the cycle model prices.
    """
    sk = PrivateKey((0,) * params.n, params)
    _, trace = run_action(PublicKey(0), sk, params, make_rng(b"estimate"))
    return CycleLedger(trace, cost_table)
