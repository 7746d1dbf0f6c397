"""The CSIDH class-group action and key exchange.

Two evaluation paths are provided.  Both take ``(pk, sk, rng, record=True)``,
act over the parameter set ``sk.params`` and return ``(PublicKey or None,
ok, OpTrace)``; the trace is empty when ``record`` is false.

* :func:`group_action_vartime` -- the straightforward batched algorithm:
  process positive exponents on the curve side, negative ones on the
  quadratic twist, retrying with fresh points until every exponent drains.
  Its control flow depends on the private key.

* :func:`group_action_ct` -- the constant-time variant.  Every prime
  receives exactly ``m`` isogeny slots; slots beyond ``|e_i|`` run a dummy
  isogeny whose results are discarded while the point is advanced by a
  degree-``l`` scalar multiplication instead.  Real and dummy slots issue
  the identical operation sequence, so the recorded OpTrace depends only on
  the parameter set, never on the key.  Its loops read only the public
  :func:`ct_schedule`: batches, clearing scalars, slots and cofactors.
  Each round holds one point per side, indexed by :data:`SIDES`; the key
  picks only which of the two a slot's kernel comes from.
  :func:`ct_trace` generates that trace from the schedule alone.

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

Only an action whose trace is returned or exported records one: the
constant-time :func:`keygen` does, as does the CLI's ``trace``.
:func:`shared_secret`, the variable-time :func:`keygen` and the CLI's
``keygen`` and ``dh`` run untraced, with the same arithmetic and the same
DRBG draws.  The CLI's ``bench`` runs no action: it prices
:func:`ct_trace`.
"""

from __future__ import annotations

import hashlib
import math
import os

from .fp import FieldElement, Fp
from .mont_curve import (_XDBLADD_STEP, CurveSide, InfinityAffinize,
                         ProjCurve, ProjPoint, affinize, affinize_mont,
                         curve_constants, is_infinity, screen_side, xmul,
                         xtwist)
from .isogeny import _schedule, xisog
from .params import PARAM_IDS, PARAM_NAMES, CsidhParams, get_params
from .records import Record
from .trace import MOD_CSIDH, OpTrace

SK_MAGIC = b"CSIDHSK1"
PK_MAGIC = b"CSIDHPK1"

# Retry ceiling for rejection loops; hitting it means the entropy source is
# broken (honest probability ~2^-1000), not that we were unlucky.
_MAX_REJECTS = 10_000

# Kernel repairs per ct slot.  An honest retry succeeds with probability
# >= 1 - 1/l >= 2/3, so running out (< 2^-200) means the curve is not
# supersingular and the action fails.
_MAX_REPAIRS = 128

# Points `validate_pk` tries before it rejects for want of a proof.  A point
# of a supersingular curve proves each l with probability 1 - 1/l, so honest
# curves need few (every toy419 one at most 5); the cap bounds the work.
_VALIDATE_POINTS = 32

# Most primes one action batch works on, in both action paths.
BATCH_LIMIT = 16

# The ct round's point pair in side order: points[s] lies on SIDES[s].
SIDES = (CurveSide.CURVE, CurveSide.TWIST)


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


class PrivateKey(Record):
    """Exponent vector e of ints with |e_i| <= m, held as a tuple."""

    __slots__ = ("exponents", "params")

    def __init__(self, exponents, params: CsidhParams):
        exponents = tuple(exponents)
        if len(exponents) != params.n:
            raise InvalidPrivateKey("exponent vector has wrong length")
        if not all(isinstance(e, int) for e in exponents):
            raise InvalidPrivateKey("exponent is not an int")
        if any(abs(e) > params.m for e in exponents):
            raise InvalidPrivateKey("exponent out of range")
        self._init(exponents, params)

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


class PublicKey(Record):
    """Affine Montgomery coefficient (standard domain)."""

    __slots__ = ("A",)

    def __init__(self, A: int):
        self._init(A)

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


class ActionConfig(Record):
    __slots__ = ("constant_time",)

    def __init__(self, constant_time: bool = True):
        self._init(constant_time)


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
            return ProjPoint(fp.to_mont(x), 1)
    raise RngFailure("point sampling exceeded retry ceiling")


# --- variable-time action (the reference batched algorithm) ---------------

def group_action_vartime(pk: PublicKey, sk: PrivateKey, rng: Drbg,
                         record: bool = True):
    """Batched variable-time evaluation; contract as `group_action_ct`."""
    params = sk.params
    trace = OpTrace()
    fp = Fp(params, trace if record else None)
    if not validate_basic(pk.A, params):
        return None, False, trace
    primes, n = params.primes, params.n
    e = list(sk.exponents)
    curve = ProjCurve(fp.to_mont(pk.A), 1)

    for side, sign in zip(SIDES, (1, -1)):
        while True:
            batch = [i for i in range(n) if e[i] * sign > 0][:BATCH_LIMIT]
            if not batch:
                break
            k = (params.p + 1) // math.prod(primes[i] for i in batch)
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
                    return None, False, trace
                P = images[0]
                const = curve_constants(fp, curve)
                e[idx] -= sign
            # next while-iteration draws a fresh point

    if not _validate_working_curve(fp, curve, rng):
        return None, False, trace
    return PublicKey(affinize(fp, curve)), True, trace


def _validate_working_curve(fp: Fp, curve: ProjCurve, rng: Drbg) -> bool:
    """Order sanity check on the projective working curve: [p+1]P = O for a
    random point (any side; both have order p+1 iff supersingular)."""
    fp.set_module(MOD_CSIDH)
    x = 0
    while x == 0:
        x = rng.below(fp.p)
    P = ProjPoint(fp.to_mont(x), 1)
    const = curve_constants(fp, curve)
    return is_infinity(xmul(fp, P, fp.p + 1, const))


# --- constant-time action --------------------------------------------------

def ct_schedule(params: CsidhParams):
    """The public constant-time schedule, one entry per batch of at most
    `BATCH_LIMIT` consecutive primes: ``(k_clear, slots)``.

    ``k_clear`` = 4 * the primes outside the batch = (p + 1) / the batch's
    primes.  ``slots`` are ``(index, l, cof, clear)`` in descending l:
    ``cof`` is the product of the batch's smaller primes and ``clear`` =
    ``k_clear`` * its larger ones, the scalar that clears a repair point.
    """
    schedule = []
    for lo in range(0, params.n, BATCH_LIMIT):
        batch = params.primes[lo:lo + BATCH_LIMIT]
        k_clear = (params.p + 1) // math.prod(batch)
        slots = tuple((lo + j, l, math.prod(batch[:j]),
                       k_clear * math.prod(batch[j + 1:]))
                      for j, l in reversed(tuple(enumerate(batch))))
        schedule.append((k_clear, slots))
    return tuple(schedule)


def ct_trace(params: CsidhParams) -> OpTrace:
    """The trace every `group_action_ct` on `params` records, from
    `ct_schedule` alone: no key, no DRBG draw, no point arithmetic.

    The cheap pieces run the production functions on placeholder values,
    so each op lands on the module they leave current (a round's sampled
    `to_mont`s on xAffinize, then xTWIST).  The ladders and `xisog`'s body
    are issued from the templates the formulas issue.
    """
    trace = OpTrace()
    fp = Fp(params, trace)
    curve = ProjCurve(0, 1)

    def ladders(k, times=1):       # `xmul`'s steps: one per bit of k
        fp.issue(_XDBLADD_STEP, times * (len(bin(k)) - 2))

    fp.to_mont(0)
    for k_clear, slots in ct_schedule(params):
        for _ in range(params.m):
            A = affinize_mont(fp, curve)
            for _ in SIDES:
                xtwist(fp, fp.to_mont(1), A)
            curve_constants(fp, curve)
            ladders(k_clear, 2)
            for _, l, cof, _ in slots:
                ladders(cof)
                curve_constants(fp, curve)
                fp.issue(_schedule(len(SIDES), l))
                ladders(l)
                curve_constants(fp, curve)
                ladders(l, 2)
    fp.set_module(MOD_CSIDH)
    fp.to_mont(1)
    curve_constants(fp, curve)
    ladders(params.p + 1)
    affinize(fp, curve)
    return trace


def group_action_ct(pk: PublicKey, sk: PrivateKey, rng: Drbg,
                    record: bool = True):
    """Dummy-isogeny constant-time evaluation of [sk]pk over `sk.params`.

    Returns (PublicKey, success, OpTrace); the key is None on failure.  The
    trace is byte-identical across private keys of the same parameter set:
    each `ct_schedule` batch runs m rounds, so every prime gets exactly m
    isogeny computations, and each slot issues the same operations
    whether the isogeny is real or a dummy -- only which results are kept
    differs; it equals `ct_trace(sk.params)`.  With `record` false the
    action runs on an untraced Fp, with the same arithmetic and DRBG
    draws, and the trace stays empty.
    """
    params = sk.params
    trace = OpTrace()
    fp = Fp(params, trace if record else None)
    if not validate_basic(pk.A, params):
        return None, False, trace

    # Side 0 (curve) for e > 0, 1 (twist) for e < 0, a coin for e = 0; the
    # bit is drawn for every index so rng usage never depends on the zeros.
    sides = []
    for ei in sk.exponents:
        coin = 1 - rng.bit()
        sides.append(int(ei < 0) if ei else coin)

    curve = ProjCurve(fp.to_mont(pk.A), 1)
    for k_clear, slots in ct_schedule(params):
        for r in range(params.m):   # a prime's first |e_i| slots are real
            reals = [r < abs(ei) for ei in sk.exponents]
            curve = _ct_round(fp, curve, k_clear, slots, sides, reals, rng)
            if curve is None:
                return None, False, trace

    if not _validate_working_curve(fp, curve, rng):
        return None, False, trace
    return PublicKey(affinize(fp, curve)), True, trace


def _sample_pair(fp: Fp, curve: ProjCurve, clear: int, rng: Drbg):
    """One point per side in `SIDES` order, cleared by [clear], and the
    ladder constants: (points, const).  None when a point's traced
    classification disagrees with the side `sample_point` screened it for.
    """
    A = affinize_mont(fp, curve)
    points = []
    for side in SIDES:
        P = sample_point(fp, curve, side, rng)
        if xtwist(fp, P.X, A) is not side:
            return None
        points.append(P)
    const = curve_constants(fp, curve)
    return [xmul(fp, P, clear, const) for P in points], const


def _kernel_ok(K: ProjPoint) -> bool:
    """K is not the point at infinity.

    On a supersingular curve K = [cof]active has order 1 or l, so this is
    the only check an honest slot needs.  Any other order is a fault, and
    `xisog`'s [l]K = O flag reports it.
    """
    return not is_infinity(K)


def _ct_round(fp, curve, k_clear, slots, sides, reals, rng):
    """One batch round: sample a side-indexed point pair cleared by
    [k_clear], then run the batch's `ct_schedule` slots in order, each on
    ``points[sides[index]]`` and real iff ``reals[index]``.  Returns the
    updated curve, or None on a detected fault or a kernel that runs out of
    repairs."""
    pair = _sample_pair(fp, curve, k_clear, rng)
    if pair is None:
        return None
    points, const = pair

    for idx, l, cof, clear in slots:
        s = sides[idx]
        # Repair loop: while K is the point at infinity (the active point
        # lacks the l-torsion), replace the active point with a fresh point
        # on its side, cleared of the primes outside the batch and those
        # earlier slots of this round already applied.  The inactive point
        # keeps its value.  The rejected K and the repair are rolled back.
        repairs = 0
        mark = fp.mark()
        while True:
            K = xmul(fp, points[s], cof, const)
            if _kernel_ok(K):
                break
            repairs += 1
            if repairs > _MAX_REPAIRS:
                return None
            fresh = sample_point(fp, curve, SIDES[s], rng)
            points[s] = xmul(fp, fresh, clear, const)
            fp.rollback(mark)

        new_curve, images, fault = xisog(fp, curve, points, K, l)
        if fault:
            return None

        # Identical traced work either way; the flag only selects which
        # results survive.  A real slot moves to the codomain and images and
        # keeps its active image; every other point is laddered by [l].
        real = reals[idx]
        if real:
            curve, points = new_curve, images
        const = curve_constants(fp, curve)
        active = points[s]
        points = [xmul(fp, P, l, const) for P in points]
        if real:
            points[s] = active
    return curve


# --- key exchange ----------------------------------------------------------

def _prime_multiples(fp: Fp, P: ProjPoint, primes, const):
    """Yield (l, [prod(primes) / l]P) for each l in `primes` where that
    point is not O, by a product tree: each half of the primes is reached by
    laddering over the other half's product.  Larger primes come first, and
    the next ladder runs only when the caller asks for more."""
    if is_infinity(P):
        return
    if len(primes) == 1:
        yield primes[0], P
        return
    mid = len(primes) // 2
    lo, hi = primes[:mid], primes[mid:]
    yield from _prime_multiples(fp, xmul(fp, P, math.prod(lo), const), hi,
                                const)
    yield from _prime_multiples(fp, xmul(fp, P, math.prod(hi), const), lo,
                                const)


def validate_pk(A: int, params: CsidhParams) -> bool:
    """Proof that E_A is supersingular: the check of the CSIDH paper
    (Castryck, Lange, Martindale, Panny, Renes; ASIACRYPT 2018).

    After `validate_basic`, for x = 1, 2, ... (at most `_VALIDATE_POINTS`)
    take P = [4](x : 1), and Q = [(p+1) / (4l)]P for each prime l.  A Q != O
    with [l]Q != O rejects.  Otherwise l divides both p + 1 and the order
    p + 1 -+ t of the curve or its twist, so l | t; once the product of such
    primes exceeds 4 sqrt(p) >= 2|t|, t = 0 and the curve is accepted.  The
    points are public and fixed, so the verdict draws no randomness; it
    runs on an untraced Fp.
    """
    if not validate_basic(A, params):
        return False
    fp = Fp(params)
    const = curve_constants(fp, ProjCurve(A, 1))
    proven = 1
    for x in range(1, _VALIDATE_POINTS + 1):
        P = xmul(fp, ProjPoint(x, 1), 4, const)
        for l, Q in _prime_multiples(fp, P, params.primes, const):
            # The ladder cannot take (0 : 1), of order 2; it has none on a
            # supersingular curve once [4] cleared the even part.
            if Q.X == 0 or not is_infinity(xmul(fp, Q, l, const)):
                return False
            proven = math.lcm(proven, l)
            if proven * proven > 16 * params.p:
                return True
    return False


def _check_key_params(sk: PrivateKey, params: CsidhParams) -> None:
    if sk.params != params:
        raise InvalidPrivateKey(
            f"key is for {sk.params.name}, not {params.name}")


def run_action(pk: PublicKey, sk: PrivateKey, rng: Drbg,
               config: ActionConfig | None = None, record: bool = False):
    """[sk]pk over `sk.params` on the path `config` selects; raises
    FaultDetected on failure.

    Returns (PublicKey, OpTrace or None): the action's operation trace when
    `record`, else None.  Recording changes no value and no DRBG draw.
    """
    constant_time = (config or ActionConfig()).constant_time
    act = group_action_ct if constant_time else group_action_vartime
    out, ok, trace = act(pk, sk, rng, record)
    if not ok:
        raise FaultDetected("group action failed its self-check")
    return out, trace if record else None


def keygen(sk: PrivateKey, params: CsidhParams, rng: Drbg,
           config: ActionConfig | None = None):
    """Public key [sk]E_0; returns (PublicKey, OpTrace or None).

    The constant-time path returns its trace, the one the cycle model
    prices; the variable-time path records none.  A key for another set
    raises InvalidPrivateKey.
    """
    _check_key_params(sk, params)
    config = config or ActionConfig()
    return run_action(PublicKey(0), sk, rng, config,
                      record=config.constant_time)


def shared_secret(sk: PrivateKey, peer: PublicKey, params: CsidhParams,
                  rng: Drbg, config: ActionConfig | None = None
                  ) -> FieldElement:
    """Affine coefficient of [sk]E_peer, after validating the peer key.

    A key for another set raises InvalidPrivateKey before any validation.
    Records no trace: nothing prices the action on a peer's curve.
    """
    _check_key_params(sk, params)
    if not validate_pk(peer.A, params):
        raise InvalidPeerKey("peer public key failed validation")
    out, _ = run_action(peer, sk, rng, config)
    return FieldElement(out.A, params)
