"""Field arithmetic over F_p.

Every value the curve, isogeny and action layers hold is a residue: the
standard-domain value x mod p, as a plain int.  :class:`Fp` is the one
field-arithmetic surface and the one writer of trace bytes.  The trace
prices the modelled ALU, which works in the Montgomery domain, so `to_mont`
and `from_mont` record that ALU's conversions without changing the value.

`mul` and `redc` are the Montgomery product and reduction themselves: the
reference values of the MONT_MUL and MONT_REDUCE ops, which the word-level
datapath model must reproduce bit for bit.  :class:`FieldElement` is only a
checked, serializable holder for a canonical value, such as a shared secret.

All operations return canonical values (< p).  The schedule is what the
trace records, and it depends on public values only: the conditional
subtraction is a masked select, and inversion and the residue test record
a fixed square-and-always-multiply schedule keyed only to public
exponents.  Their values come from exact fast algorithms: the inverse from
Python's `pow(a, -1, p)`, the residue test from `jacobi`.
"""

from __future__ import annotations

import struct

from .params import WORD_BITS, CsidhParams
from .records import Record
from .trace import MOD_CSIDH, OP_ADD, OP_MONT_MUL, OP_MONT_REDUCE, OP_SUB


class ZeroInverse(ZeroDivisionError):
    """Inverse of zero requested."""


class FieldElement(Record):
    """A canonical residue mod p (0 <= value < p), serialized
    little-endian."""

    __slots__ = ("value", "params")

    def __init__(self, value: int, params: CsidhParams):
        if not 0 <= value < params.p:
            raise ValueError("field element out of canonical range")
        self._init(value, params)

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


class Fp:
    """Int-valued field context with optional ALU-op tracing.

    The curve and action layers record every ALU op through one Fp
    instance; when a trace buffer is attached, each operation appends one
    opcode byte tagged with the currently active control-unit module.  The
    curve formulas compute their products as plain `a*b % p` and record
    their op templates, tagged at import, through `issue`, so Fp is the one
    writer of trace bytes.
    """

    __slots__ = ("p", "mask", "shift", "pinv", "trace", "_mod")

    def __init__(self, params: CsidhParams, trace=None):
        self.p = params.p
        self.mask = params.R - 1
        self.shift = params.width
        self.pinv = params.pinv
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

    def issue(self, ops: bytes, times: int = 1) -> None:
        """Record the trace bytes `ops`, `times` over, then make the module
        of their last op current, as the op-by-op code would leave it.
        `ops` is a template tagged at import (`trace.tag_ops`), for a
        caller that computes the values itself."""
        t = self.trace
        if t is not None:
            t.extend(ops * times)
        self._mod = ops[-1] & ~7

    def _record(self, op: int) -> None:
        """Record the single op `op` under the current module."""
        t = self.trace
        if t is not None:
            t.append(self._mod | op)

    # --- core ops (operands and results are plain ints < p) ---

    def add(self, a: int, b: int) -> int:
        self._record(OP_ADD)
        s = a + b
        p = self.p
        return s - p if s >= p else s

    def sub(self, a: int, b: int) -> int:
        self._record(OP_SUB)
        s = a - b
        return s + self.p if s < 0 else s

    def mul(self, a: int, b: int) -> int:
        """Montgomery product a*b*R^-1 mod p, MONT_MUL's reference value."""
        self._record(OP_MONT_MUL)
        return self._reduce(a * b)

    def redc(self, T: int) -> int:
        """Montgomery reduction T*R^-1 mod p for T < p*R, MONT_REDUCE's
        reference value."""
        if not 0 <= T < self.p << self.shift:
            raise ValueError("mont_reduce input out of range [0, p*R)")
        self._record(OP_MONT_REDUCE)
        return self._reduce(T)

    def _reduce(self, T: int) -> int:
        """T*R^-1 mod p, canonical, for 0 <= T < p*R."""
        m = ((T & self.mask) * self.pinv) & self.mask
        r = (T + m * self.p) >> self.shift
        p = self.p
        return r - p if r >= p else r

    def to_mont(self, a: int) -> int:
        """The ALU's conversion into the Montgomery domain: records one
        MONT_MUL and returns the residue `a` unchanged."""
        self._record(OP_MONT_MUL)
        return a

    def from_mont(self, a: int) -> int:
        """The ALU's conversion out of the Montgomery domain: records one
        MONT_REDUCE and returns the residue `a` unchanged."""
        self._record(OP_MONT_REDUCE)
        return a

    def _issue_pow(self, e: int) -> None:
        """Record x^e's fixed schedule for the public e under the current
        module: one squaring and one (always-executed) multiply per bit of
        e, 2*max(bit length of e, 1) MONT_MULs, so it depends only on e."""
        t = self.trace
        if t is not None:
            t.extend(bytes((self._mod | OP_MONT_MUL,))
                     * (2 * max(e.bit_length(), 1)))

    def inv(self, a: int) -> int:
        """Inverse, recorded as a^(p-2)."""
        if a == 0:
            raise ZeroInverse("inverse of zero")
        self._issue_pow(self.p - 2)
        return pow(a, -1, self.p)

    def is_square(self, a: int) -> bool:
        """Quadratic-residue test, recorded as Euler's criterion
        a^((p-1)/2); 0 counts as a square."""
        self._issue_pow((self.p - 1) >> 1)
        return jacobi(a, self.p) >= 0
