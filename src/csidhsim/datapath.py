"""Behavioral, cycle-annotated model of the hardware ALU.

Each operation returns the exact arithmetic result (bit-identical to the
``fp`` module) together with a deterministic :class:`CycleCost`.  Cycle
costs are functions of (operation, ALU mode, width) only -- never of
operand values.  The carry-select, Booth, wide-multiply and
Montgomery-multiply latencies are imported from :mod:`csidhsim.trace`,
whose default cost table is derived from the same constants, so the
datapath model and the cycle ledger cannot disagree.

Modeling granularity is the pipeline phase: per-phase values are computed
the way the hardware's register structure implies (dual-path sums per 32-bit
chunk, up/down accumulator batches), but no gate-level timing is modeled.
The Booth core `booth_mul` is modelled, and checked against x*y, on its own;
`mul_wide` forms its 32x32 chunk products exactly, without it.

Where the cells run: `_add32cs` is the one carry-select cell and
`_sub32cs` the one borrow-select cell.  `csel_add` / `csel_sub` chain one
cell per 32-bit chunk; `mul_wide` folds each 32-bit overlap of a chunk
product through one `_add32cs`.  The Montgomery reduction
(`mont_reduce_dp_int`, and the tail of `mont_mul_dp_int`) is two
`mul_wide`s, one `csel_add` and one `csel_sub`.  Words are packed and
unpacked in bulk by `fp.int_to_words` / `fp.words_to_int`, which are
bookkeeping, not modelled hardware.
"""

from __future__ import annotations

import functools
import random
from enum import Enum

from .fp import int_to_words, words_to_int
from .params import WORD_BITS, CsidhParams
from .records import Record
from .trace import (BOOTH_CYCLES, CSEL_CYCLES, DEFAULT_COSTS,
                    MONT_MUL_CYCLES, MUL_WIDE_CYCLES, OP_MONT_REDUCE)


class AluMode(Enum):
    """FPGA maps 32x32 multiplies to 1-cycle DSP blocks; ASIC uses the
    two-cycle pipelined Booth multiplier."""

    FPGA = "fpga"
    ASIC = "asic"


class CycleCost(Record):
    __slots__ = ("cycles",)

    def __init__(self, cycles: int):
        if cycles < 0:
            raise ValueError("cycle cost must be non-negative")
        self._init(cycles)


# The fixed cost of each operation, built once.  MONT_REDUCE is priced as
# the ledger prices it: the Montgomery multiply without its first mul_wide.
_CSEL_COST = CycleCost(CSEL_CYCLES)
_BOOTH_COST = {m: CycleCost(BOOTH_CYCLES[m.value]) for m in AluMode}
_MUL_WIDE_COST = {m: CycleCost(MUL_WIDE_CYCLES[m.value]) for m in AluMode}
_MONT_MUL_COST = {m: CycleCost(MONT_MUL_CYCLES[m.value]) for m in AluMode}
_MONT_REDUCE_COST = {m: CycleCost(DEFAULT_COSTS[m.value][OP_MONT_REDUCE])
                     for m in AluMode}

_MASK32 = (1 << WORD_BITS) - 1


def _add32cs(x: int, y: int, carry_in: int):
    """One carry-select cell: both carry-in scenarios, then select."""
    t = x + y
    s0, c0 = t & _MASK32, t >> WORD_BITS
    t += 1
    s1, c1 = t & _MASK32, t >> WORD_BITS
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
    return tuple(out), c, _CSEL_COST


def csel_add(a, b):
    """Pipelined carry-select addition of equal-length 32-bit word vectors,
    with no carry in.  Returns (sum, carry_out, cost)."""
    return _select_chain(_add32cs, a, b, 0)


def csel_sub(a, b):
    """Carry-select subtraction, no borrow in: (diff, borrow_out, cost)."""
    return _select_chain(_sub32cs, a, b, 0)


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
    partials = []
    for j in range(n_partials):
        b_hi = (y >> (2 * j + 1)) & 1
        b_mid = (y >> (2 * j)) & 1
        b_lo = (y >> (2 * j - 1)) & 1 if j > 0 else 0
        digit = b_lo + b_mid - 2 * b_hi       # in {-2..2}
        partials.append((digit * x) << (2 * j))
    # Stage 1 sums the first ceil(n/2) partials; stage 2 adds the rest.
    split = (n_partials + 1) // 2
    stage1 = sum(partials[:split])
    product = stage1 + sum(partials[split:])
    if product != x * y:
        raise RuntimeError("Booth partial products do not sum to x*y")
    return product, _BOOTH_COST[mode]


def booth_mul32(x: int, y: int, mode: AluMode = AluMode.ASIC):
    """32x32 -> 64-bit Booth multiply; costs ``BOOTH_CYCLES`` for the mode."""
    return booth_mul(x, y, WORD_BITS, mode)


def _chunk_product(a_k: int, b):
    """One 32-bit chunk of `a` against all n chunks of `b`, folded with
    carry-select cells into an (n+1)-word chunk product.

    One pass: partial product t is split into its low and high words, its
    low word meets the high word of partial product t-1 in one cell, and
    the cell's sum word is placed at word t of the result.
    """
    pp = a_k * b[0]
    product = pp & _MASK32
    hi = pp >> WORD_BITS
    c = 0
    shift = WORD_BITS
    for b_t in b[1:]:
        pp = a_k * b_t
        w, c = _add32cs(hi, pp & _MASK32, c)
        product |= w << shift
        hi = pp >> WORD_BITS
        shift += WORD_BITS
    w, c = _add32cs(hi, 0, c)
    if c:
        raise RuntimeError("chunk product overflowed n+1 words")
    return product | w << shift


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
        acc_up += _chunk_product(a[k], b) << (WORD_BITS * k)
    acc_down = 0
    for v in range(half, n):
        acc_down += _chunk_product(a[v], b) << (WORD_BITS * v)
    product = acc_up + acc_down
    return int_to_words(product, 2 * n), _MUL_WIDE_COST[mode]


@functools.cache
def _modulus_words(params: CsidhParams):
    """Words of p and of -p^-1 mod R, built once per parameter set."""
    n = params.n_words
    return int_to_words(params.p, n), int_to_words(params.pinv, n)


def _mont_reduce_words(t_words, params: CsidhParams, mode: AluMode) -> int:
    """The reduction tail: (T + m*p) / R, then the masked subtraction of p."""
    n = params.n_words
    p_words, pinv_words = _modulus_words(params)
    t_low = t_words[:n]
    m_words = mul_wide(t_low, pinv_words, mode)[0][:n]       # m = T_low*pinv mod R
    mp_words, _ = mul_wide(m_words, p_words, mode)           # m*p
    t1, carry, _ = csel_add(t_words, mp_words)               # T' = T + m*p
    if carry:
        raise RuntimeError("T' must fit in 2W bits for canonical inputs")
    t_out = t1[n:]                                           # T'/R (right shift)
    diff, borrow, _ = csel_sub(t_out, p_words)
    result = t_out if borrow else diff                       # masked select
    return words_to_int(result)


def _check_reducible(T: int, params: CsidhParams) -> None:
    """The reduction tail is exact only for 0 <= T < p*R."""
    if not 0 <= T < params.p << params.width:
        raise ValueError("mont_reduce input out of range [0, p*R)")


def mont_reduce_dp_int(T: int, params: CsidhParams,
                       mode: AluMode = AluMode.FPGA):
    """MONT_REDUCE: T*R^-1 mod p for 0 <= T < p*R on the word-level
    datapath, at the ledger's MONT_REDUCE cost."""
    _check_reducible(T, params)
    t_words = int_to_words(T, 2 * params.n_words)
    return _mont_reduce_words(t_words, params, mode), _MONT_REDUCE_COST[mode]


def mont_mul_dp_int(a: int, b: int, params: CsidhParams,
                    mode: AluMode = AluMode.FPGA):
    """Montgomery multiply a*b*R^-1 mod p on the word-level datapath:
    one mul_wide for T = a*b, then the MONT_REDUCE tail.  Operands must
    fit in n words and T in [0, p*R), else ValueError."""
    _check_reducible(a * b, params)
    n = params.n_words
    t_words, _ = mul_wide(int_to_words(a, n), int_to_words(b, n), mode)
    return _mont_reduce_words(t_words, params, mode), _MONT_MUL_COST[mode]


# --- masked ALU ---

class AluActivity(Record):
    """Per-cycle sub-unit activity flags: `cycles` holds one (adder,
    subtractor, multiplier) tuple of bools per cycle."""

    __slots__ = ("cycles",)

    def __init__(self, cycles: tuple):
        self._init(cycles)

    def all_units_always_active(self) -> bool:
        return all(all(flags) for flags in self.cycles) and len(self.cycles) > 0


@functools.cache
def _all_active(n_cycles: int) -> AluActivity:
    """The all-units-busy record of an n-cycle issue, built once per n."""
    return AluActivity(((True, True, True),) * n_cycles)


class RandomWordRng:
    """Unbounded 32-bit word source over a PRNG seeded with `seed`."""

    def __init__(self, seed):
        self._rng = random.Random(seed)

    def next_word(self) -> int:
        return self._rng.getrandbits(WORD_BITS)


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
    return result, _all_active(n_cycles)
