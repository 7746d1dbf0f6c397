"""Field arithmetic over F_p in standard and Montgomery domains.

This module is the semantic ground truth for the word-level datapath model:
every datapath operation must produce bit-identical values to the methods
of :class:`Fp`, the one field-arithmetic surface.  It works on plain ints
and is used by the curve, isogeny and action layers, with optional
operation tracing.  :class:`FieldElement` is only a checked, serializable
holder for a canonical value, such as a shared secret.

All operations return canonical values (< p).  The schedule is what the
trace records, and it depends on public values only: the conditional
subtraction is a masked select, and inversion and the residue test record
a fixed square-and-always-multiply schedule keyed only to public
exponents.  Their values come from Python's `pow` on the standard-domain
residue.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from .params import WORD_BITS, CsidhParams
from .trace import (MOD_CSIDH, OP_ADD, OP_MONT_MUL, OP_MONT_REDUCE, OP_SUB,
                    tag_ops)


class ZeroInverse(ZeroDivisionError):
    """Inverse of zero requested."""


@dataclass(frozen=True)
class FieldElement:
    """A canonical mod-p value (0 <= value < p), serialized little-endian.

    Whether the value is in the standard or Montgomery domain is determined
    by context; the representation is the same.
    """

    value: int
    params: CsidhParams

    def __post_init__(self):
        if not 0 <= self.value < self.params.p:
            raise ValueError("field element out of canonical range")

    def to_bytes(self) -> bytes:
        return self.value.to_bytes(self.params.byte_length, "little")


# struct code of one datapath word: standard-size "I" is WORD_BITS = 32 bits
_WORD_CODE = "I"


def int_to_words(value: int, n_words: int):
    """Little-endian words; needs 0 <= value < 2^(WORD_BITS * n_words)."""
    try:
        raw = value.to_bytes(n_words * WORD_BITS // 8, "little")
    except OverflowError:
        raise ValueError(f"value does not fit in {n_words} words") from None
    return struct.unpack(f"<{n_words}{_WORD_CODE}", raw)


def words_to_int(words) -> int:
    """Inverse of int_to_words; each word must lie in [0, 2^WORD_BITS)."""
    try:
        raw = struct.pack(f"<{len(words)}{_WORD_CODE}", *words)
    except struct.error:
        raise ValueError(f"word out of range [0, 2**{WORD_BITS})") from None
    return int.from_bytes(raw, "little")


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0: 1, -1, or 0 when gcd(a, n) > 1.

    Plain bignum arithmetic, outside the ALU model: it records no trace op
    and its running time depends on `a`.
    """
    a %= n
    t = 1
    while a:
        z = (a & -a).bit_length() - 1
        a >>= z
        if z & 1 and n & 7 in (3, 5):
            t = -t
        if a & n & 2:      # quadratic reciprocity: both are 3 mod 4
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


# pow_fixed's ops per exponent bit: the squaring, then the multiply.
_SQUARE_MULTIPLY = bytes((OP_MONT_MUL, OP_MONT_MUL))


class Fp:
    """Int-valued field context with optional ALU-op tracing.

    The curve and action layers route all field arithmetic through one Fp
    instance; when a trace buffer is attached, each operation appends one
    opcode byte tagged with the currently active control-unit module.  A
    layer that computes values off the context (the ladder, the isogeny)
    records its ops through `issue` or `issue_tagged`, so Fp is the one
    writer of trace bytes.
    """

    __slots__ = ("p", "mask", "shift", "pinv", "one", "R2", "Rinv", "trace",
                 "_mod")

    def __init__(self, params: CsidhParams, trace=None):
        self.p = params.p
        self.mask = params.R - 1
        self.shift = params.width
        self.pinv = params.pinv
        self.one = params.one_m
        self.R2 = params.R2
        self.Rinv = params.Rinv
        self.trace = trace.buf if trace is not None else None
        self._mod = MOD_CSIDH << 3

    def set_module(self, module_tag: int) -> None:
        self._mod = module_tag << 3

    def mark(self) -> tuple[int, int]:
        """Checkpoint of the trace length and module tag for `rollback`."""
        return len(self.trace or ()), self._mod

    def rollback(self, mark: tuple[int, int]) -> None:
        """Drop the ops recorded since `mark` and restore its module tag."""
        n, self._mod = mark
        if self.trace is not None:
            del self.trace[n:]

    def issue(self, ops: bytes, times: int) -> None:
        """Record the opcodes `ops`, in order, `times` over, tagged with the
        current module; for a caller that computes their values itself."""
        t = self.trace
        if t is not None:
            t.extend(tag_ops(self._mod >> 3, ops) * times)

    def issue_tagged(self, ops: bytes, module_tag: int) -> None:
        """Record trace bytes `ops` that carry their own module tags (a
        template mixing modules, see `trace.tag_ops`), then make
        `module_tag` current, as the op-by-op code would leave it."""
        t = self.trace
        if t is not None:
            t.extend(ops)
        self._mod = module_tag << 3

    # --- core ops (operands and results are plain ints < p) ---

    def add(self, a: int, b: int) -> int:
        t = self.trace
        if t is not None:
            t.append(self._mod | OP_ADD)
        s = a + b
        p = self.p
        return s - p if s >= p else s

    def sub(self, a: int, b: int) -> int:
        t = self.trace
        if t is not None:
            t.append(self._mod | OP_SUB)
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a: int, b: int) -> int:
        """Montgomery product a*b*R^-1 mod p."""
        t = self.trace
        if t is not None:
            t.append(self._mod | OP_MONT_MUL)
        T = a * b
        m = ((T & self.mask) * self.pinv) & self.mask
        r = (T + m * self.p) >> self.shift
        p = self.p
        return r - p if r >= p else r

    def redc(self, T: int) -> int:
        """Montgomery reduction T*R^-1 mod p for T < p*R."""
        if not 0 <= T < self.p << self.shift:
            raise ValueError("mont_reduce input out of range [0, p*R)")
        t = self.trace
        if t is not None:
            t.append(self._mod | OP_MONT_REDUCE)
        m = ((T & self.mask) * self.pinv) & self.mask
        r = (T + m * self.p) >> self.shift
        p = self.p
        return r - p if r >= p else r

    def to_mont(self, a: int) -> int:
        return self.mul(a, self.R2)

    def from_mont(self, a: int) -> int:
        return self.redc(a)

    def pow_fixed(self, x: int, e: int) -> int:
        """Montgomery-domain x^e with a fixed schedule for the public e.

        The trace records one squaring and one (always-executed) multiply
        per bit of e, max(bit length of e, 1) pairs issued in one call, so
        the operation sequence depends only on e.  The value is Python's
        `pow` on the standard-domain residue x*R^-1, converted back once.
        """
        self.issue(_SQUARE_MULTIPLY, max(e.bit_length(), 1))
        p = self.p
        return pow(x * self.Rinv % p, e, p) * self.one % p

    def inv(self, a: int) -> int:
        """Montgomery-domain inverse: maps x*R to x^-1*R, via a^(p-2)."""
        if a == 0:
            raise ZeroInverse("inverse of zero")
        return self.pow_fixed(a, self.p - 2)

    def is_square(self, a: int) -> bool:
        """Euler criterion with fixed schedule; 0 counts as a square.

        Works identically for standard- and Montgomery-domain inputs since
        R = 2^W is itself a square (W even).
        """
        r = self.pow_fixed(a, (self.p - 1) >> 1)
        return r == self.one or a == 0

