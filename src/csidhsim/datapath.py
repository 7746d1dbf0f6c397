"""Behavioral, cycle-annotated model of the hardware ALU.

Each operation returns the exact arithmetic result (bit-identical to the
``fp`` module) together with a deterministic :class:`CycleCost`.  Cycle
costs are functions of (operation, ALU mode, width) only -- never of
operand values.  The carry-select, wide-multiply and Montgomery-multiply
latencies are imported from :mod:`csidhsim.trace`, whose default cost table
is derived from the same constants, so the datapath model and the cycle
ledger cannot disagree.

Modeling granularity is the pipeline phase: per-phase values are computed
the way the hardware's register structure implies (dual-path sums per
32-bit chunk, 17 Booth partial products, up/down accumulator batches),
but no gate-level timing is modeled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from enum import Enum

from .fp import int_to_words, words_to_int
from .params import CsidhParams
from .trace import CSEL_CYCLES, MONT_MUL_CYCLES, MUL_WIDE_CYCLES


class AluMode(Enum):
    """FPGA maps 32x32 multiplies to 1-cycle DSP blocks; ASIC uses the
    two-cycle pipelined Booth multiplier."""

    FPGA = "fpga"
    ASIC = "asic"


@dataclass(frozen=True)
class CycleCost:
    cycles: int

    def __post_init__(self):
        if self.cycles < 0:
            raise ValueError("cycle cost must be non-negative")


class RngExhausted(RuntimeError):
    """The masked-ALU randomness source ran out of words."""


# Booth-core latency; datapath-only, since the ledger has no Booth opcode.
BOOTH_CYCLES = {AluMode.FPGA: 1, AluMode.ASIC: 2}

_WORD_BITS = 32
_MASK32 = (1 << _WORD_BITS) - 1


def _add32cs(x: int, y: int, carry_in: int):
    """One carry-select cell: both carry-in scenarios, then select."""
    t = x + y
    s0, c0 = t & _MASK32, t >> _WORD_BITS
    t += 1
    s1, c1 = t & _MASK32, t >> _WORD_BITS
    return (s1, c1) if carry_in else (s0, c0)


def _sub32cs(x: int, y: int, borrow_in: int):
    """One borrow-select cell: both borrow-in scenarios, then select."""
    t = x - y
    d0, w0 = t & _MASK32, 1 if t < 0 else 0
    t -= 1
    d1, w1 = t & _MASK32, 1 if t < 0 else 0
    return (d1, w1) if borrow_in else (d0, w0)


def _select_chain(cell, a, b, c: int):
    """Chain one select cell per 32-bit chunk, least significant first.

    Each cell forms both scenario results from its own operands alone
    (pipeline stage 1); only the selection waits for the incoming carry
    or borrow (stage 2).  Returns (words, carry_out, cost).
    """
    if len(a) != len(b):
        raise ValueError("operand length mismatch")
    out = []
    for x, y in zip(a, b):
        w, c = cell(x, y, c)
        out.append(w)
    return tuple(out), c, CycleCost(CSEL_CYCLES)


def csel_add(a, b, carry_in: int = 0):
    """Pipelined carry-select addition of equal-length 32-bit word vectors.

    Returns (sum, carry_out, cost).
    """
    return _select_chain(_add32cs, a, b, carry_in)


def csel_sub(a, b, borrow_in: int = 0):
    """Carry-select subtraction; returns (difference, borrow_out, cost)."""
    return _select_chain(_sub32cs, a, b, borrow_in)


def booth_mul(x: int, y: int, width: int, mode: AluMode = AluMode.ASIC):
    """Radix-4 Booth multiplier for unsigned width-bit operands.

    Both inputs are zero-padded by one bit so the signed Booth recoding
    yields the correct unsigned product.  For width 32 this produces exactly
    17 partial products, summed 9 in pipeline stage one and 8 in stage two.
    """
    if not (0 <= x < (1 << width) and 0 <= y < (1 << width)):
        raise ValueError("operand out of range")
    padded = width + 1          # zero MSB makes the operands non-negative
    n_partials = (padded + 1) // 2
    if width == 32 and n_partials != 17:
        raise RuntimeError("radix-4 recoding must give 17 partials")
    partials = []
    for j in range(n_partials):
        b_hi = (y >> (2 * j + 1)) & 1
        b_mid = (y >> (2 * j)) & 1
        b_lo = (y >> (2 * j - 1)) & 1 if j > 0 else 0
        digit = b_lo + b_mid - 2 * b_hi       # in {-2..2}
        partials.append((digit * x) << (2 * j))
    # Stage 1: reduce the first ceil(n/2)+1 partials; stage 2 adds the rest.
    split = 9 if n_partials == 17 else (n_partials + 1) // 2
    stage1 = sum(partials[:split])
    product = stage1 + sum(partials[split:])
    if product != x * y:
        raise RuntimeError("Booth partial products do not sum to x*y")
    return product, CycleCost(BOOTH_CYCLES[mode])


def booth_mul32(x: int, y: int, mode: AluMode = AluMode.ASIC):
    """32x32 -> 64-bit Booth multiply: 2 cycles ASIC, 1 cycle FPGA."""
    return booth_mul(x, y, 32, mode)


def _chunk_product(a_k: int, b, n: int):
    """One 32-bit chunk of `a` against all n chunks of `b`, folded with
    carry-select cells into an (n+1)-word chunk product."""
    lo, hi = [], []
    for b_i in b:
        pp = a_k * b_i
        lo.append(pp & _MASK32)
        hi.append(pp >> _WORD_BITS)
    words = [lo[0]]
    c = 0
    for t in range(1, n):
        w, c = _add32cs(hi[t - 1], lo[t], c)
        words.append(w)
    w, c = _add32cs(hi[n - 1], 0, c)
    words.append(w)
    if c:
        raise RuntimeError("chunk product overflowed n+1 words")
    return words_to_int(words)


def mul_wide(a, b, mode: AluMode = AluMode.FPGA):
    """Parallel schoolbook 512x512 multiply (two 8-chunk batches).

    Per chunk of `a`: generate 16 partial products, fold the 32-bit
    overlaps with carry-select cells, accumulate into the batch's 1024-bit
    register at the chunk's word offset; finally merge the up/down batch
    accumulators.  Costs ``MUL_WIDE_CYCLES`` for the ALU mode.
    """
    if len(a) != len(b):
        raise ValueError("operand length mismatch")
    n = len(a)
    half = (n + 1) // 2
    acc_up = 0
    for k in range(half):
        acc_up += _chunk_product(a[k], b, n) << (_WORD_BITS * k)
    acc_down = 0
    for v in range(half, n):
        acc_down += _chunk_product(a[v], b, n) << (_WORD_BITS * v)
    product = acc_up + acc_down
    return (int_to_words(product, 2 * n),
            CycleCost(MUL_WIDE_CYCLES[mode.value]))


def mont_mul_dp_int(a: int, b: int, params: CsidhParams,
                    mode: AluMode = AluMode.FPGA):
    """Montgomery multiply a*b*R^-1 mod p on the word-level datapath."""
    n = params.n_words
    p_words = int_to_words(params.p, n)
    pinv_words = int_to_words(params.pinv, n)
    a_words = int_to_words(a, n)
    b_words = int_to_words(b, n)

    t_words, _ = mul_wide(a_words, b_words, mode)            # T = a*b
    t_low = t_words[:n]
    m_words = mul_wide(t_low, pinv_words, mode)[0][:n]       # m = T_low*pinv mod R
    mp_words, _ = mul_wide(m_words, p_words, mode)           # m*p
    t1, carry, _ = csel_add(t_words, mp_words)               # T' = T + m*p
    if carry:
        raise RuntimeError("T' must fit in 2W bits for canonical inputs")
    t_out = t1[n:]                                           # T'/R (right shift)
    diff, borrow, _ = csel_sub(t_out, p_words)
    result = t_out if borrow else diff                       # masked select
    return words_to_int(result), CycleCost(MONT_MUL_CYCLES[mode.value])


# --- masked ALU ---

@dataclass(frozen=True)
class AluActivity:
    """Per-cycle sub-unit activity flags (adder, subtractor, multiplier)."""

    cycles: tuple  # tuple of (adder_active, subtractor_active, multiplier_active)

    def all_units_always_active(self) -> bool:
        return all(all(flags) for flags in self.cycles) and len(self.cycles) > 0


class ListWordRng:
    """Finite randomness source for the masked ALU; raises on exhaustion."""

    def __init__(self, words):
        self._words = list(words)
        self._idx = 0

    def next_word(self) -> int:
        if self._idx >= len(self._words):
            raise RngExhausted("masked-ALU rng exhausted")
        w = self._words[self._idx]
        self._idx += 1
        return w


class RandomWordRng:
    """Unbounded 32-bit word source over a seeded PRNG."""

    def __init__(self, seed=None):
        self._rng = random.Random(seed)

    def next_word(self) -> int:
        return self._rng.getrandbits(32)


MASKED_OPS = ("ADD", "SUB", "MUL")


def masked_issue(op: str, operands, rng, mode: AluMode = AluMode.FPGA):
    """Execute `op` on its sub-unit while the two idle units chew fresh
    random words each cycle; results of the dummy units are discarded.

    Returns (result, activity) where result is exactly what the unmasked
    operation returns and activity shows all three units busy every cycle.
    """
    if op == "ADD":
        result = csel_add(*operands)
    elif op == "SUB":
        result = csel_sub(*operands)
    elif op == "MUL":
        result = mul_wide(*operands, mode=mode)
    else:
        raise ValueError(f"unknown ALU opcode: {op!r}")
    n_cycles = result[-1].cycles
    for _ in range(n_cycles):
        for _ in range(2):     # the two idle units of the three
            # two fresh operand words per idle unit per cycle
            rng.next_word()
            rng.next_word()
    activity = AluActivity(tuple((True, True, True) for _ in range(n_cycles)))
    return result, activity
