"""Word-level datapath model: value equivalence with fp and fixed cycle costs."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from csidhsim.datapath import (AluMode, CycleCost, RandomWordRng, booth_mul,
                               booth_mul32, csel_add, csel_sub, masked_issue,
                               mont_mul_dp_int, mont_reduce_dp_int, mul_wide)
from csidhsim.fp import Fp, int_to_words, words_to_int
from csidhsim.oracle import naive_redc
from csidhsim.params import get_params
from csidhsim.trace import OP_MONT_REDUCE, CostTable

FULL = get_params("csidh512")
TOY = get_params("toy419")

word = st.integers(0, 2**32 - 1)
elt512 = st.integers(0, 2**512 - 1)
vec16 = st.builds(lambda v: int_to_words(v, 16), elt512)


# --- carry-select adder ------------------------------------------------------

def test_csel_add_edges():
    zero = (0,) * 16
    s, c, cost = csel_add(zero, zero)
    assert s == zero and c == 0 and cost == CycleCost(2)
    ones = int_to_words(2**512 - 1, 16)
    s, c, _ = csel_add(ones, int_to_words(1, 16))
    assert words_to_int(s) == 0 and c == 1


def test_csel_sub_edges():
    a = int_to_words(123456789, 16)
    d, w, cost = csel_sub(a, a)
    assert words_to_int(d) == 0 and w == 0 and cost == CycleCost(2)
    d, w, _ = csel_sub((0,) * 16, int_to_words(1, 16))
    assert words_to_int(d) == 2**512 - 1 and w == 1


def test_csel_length_mismatch():
    with pytest.raises(ValueError):
        csel_add((0,) * 16, (0,) * 15)
    with pytest.raises(ValueError):
        csel_sub((0,) * 4, (0,) * 5)


@given(a=elt512, b=elt512)
def test_csel_add_oracle(a, b):
    s, c, _ = csel_add(int_to_words(a, 16), int_to_words(b, 16))
    assert words_to_int(s) + (c << 512) == a + b


@given(a=elt512, b=elt512)
def test_csel_sub_oracle(a, b):
    d, w, _ = csel_sub(int_to_words(a, 16), int_to_words(b, 16))
    assert words_to_int(d) - (w << 512) == a - b


# --- Booth multiplier --------------------------------------------------------

def test_booth_edges():
    assert booth_mul32(0, 0xFFFFFFFF)[0] == 0
    prod, cost = booth_mul32(2**32 - 1, 2**32 - 1, AluMode.ASIC)
    assert prod == 2**64 - 2**33 + 1
    assert cost == CycleCost(2)
    assert booth_mul32(3, 5, AluMode.FPGA)[1] == CycleCost(1)


def test_booth_16bit_exhaustive_diagonal():
    # full 16-bit exhaustive is 4G cases; sweep the stress patterns instead
    for x in range(0, 1 << 16, 257):
        for y in (0, 1, 2, 0x5555, 0xAAAA, 0xFFFF, x):
            assert booth_mul(x, y, 16)[0] == x * y


@given(x=word, y=word)
def test_booth32_oracle(x, y):
    assert booth_mul32(x, y)[0] == x * y


def test_booth_range_check():
    with pytest.raises(ValueError):
        booth_mul(1 << 32, 1, 32)


# --- wide multiplier ---------------------------------------------------------

def test_mul_wide_edges():
    zero = (0,) * 16
    one = int_to_words(1, 16)
    b = int_to_words(0xDEADBEEF << 300, 16)
    prod, cost = mul_wide(zero, b, AluMode.FPGA)
    assert words_to_int(prod) == 0 and cost == CycleCost(22)
    prod, cost = mul_wide(one, b, AluMode.ASIC)
    assert prod[:16] == b and cost == CycleCost(23)


@given(a=elt512, b=elt512)
def test_mul_wide_oracle(a, b):
    prod, _ = mul_wide(int_to_words(a, 16), int_to_words(b, 16))
    assert words_to_int(prod) == a * b


# --- Montgomery multiply on the datapath --------------------------------------

@given(a=st.integers(0, FULL.p - 1), b=st.integers(0, FULL.p - 1))
@settings(max_examples=40)
def test_mont_mul_dp_matches_fp(a, b):
    got, cost = mont_mul_dp_int(a, b, FULL)
    assert got == Fp(FULL).mul(a, b)
    assert cost == CycleCost(87)


def test_mont_mul_dp_cost_value_independent():
    lo = mont_mul_dp_int(0, 0, FULL, AluMode.FPGA)[1]
    hi = mont_mul_dp_int(FULL.p - 1, FULL.p - 1, FULL, AluMode.FPGA)[1]
    assert lo == hi == CycleCost(87)
    assert mont_mul_dp_int(1, 1, FULL, AluMode.ASIC)[1] == CycleCost(89)


def test_mont_mul_dp_toy():
    got, _ = mont_mul_dp_int(100, 200, TOY)
    assert got == 100 * 200 * pow(TOY.R, -1, TOY.p) % TOY.p


@pytest.mark.parametrize("params", [TOY, FULL], ids=lambda p: p.name)
def test_mont_mul_dp_rejects_operand_beyond_R(params):
    # an operand >= R has no n-word form, so it is rejected, not truncated;
    # a product beyond p*R is out of MONT_REDUCE's range
    R = params.R
    for a, b in ((R, 1), (1, R + 5), (-1, 1), (R - 1, R - 1)):
        with pytest.raises(ValueError):
            mont_mul_dp_int(a, b, params)


# --- Montgomery reduction on the datapath ------------------------------------

@pytest.mark.parametrize("mode", list(AluMode))
@pytest.mark.parametrize("params", [TOY, FULL], ids=lambda p: p.name)
def test_mont_reduce_dp_matches_fp_and_oracle(params, mode):
    fp = Fp(params)
    p, R = params.p, params.R
    rnd = random.Random(f"{params.name}-{mode.value}")
    a = rnd.randrange(p)
    edges = [0, 1, a * R, p * R - 1, p - 1, R - 1, R]
    cases = edges + [rnd.randrange(p * R) for _ in range(200)]
    cost = CycleCost(CostTable().costs[mode.value][OP_MONT_REDUCE])
    for T in cases:
        got, got_cost = mont_reduce_dp_int(T, params, mode)
        assert got == fp.redc(T) == naive_redc(T, p, R)
        assert got_cost == cost
    assert mont_reduce_dp_int(a * R, params, mode)[0] == a


@pytest.mark.parametrize("params", [TOY, FULL], ids=lambda p: p.name)
def test_mont_reduce_dp_range(params):
    for T in (-1, params.p * params.R, params.R ** 2):
        with pytest.raises(ValueError, match=r"\[0, p\*R\)"):
            mont_reduce_dp_int(T, params)


# --- masked ALU --------------------------------------------------------------

def _vec(v):
    return int_to_words(v, 16)


@pytest.mark.parametrize("op,operands", [
    ("ADD", (_vec(12345), _vec(2**512 - 1))),
    ("SUB", (_vec(7), _vec(9))),
    ("MUL", (_vec(3**100), _vec(5**90))),
])
def test_masked_issue_transparent(op, operands):
    rng = RandomWordRng(1)
    masked, activity = masked_issue(op, operands, rng)
    if op == "ADD":
        assert masked == csel_add(*operands)
    elif op == "SUB":
        assert masked == csel_sub(*operands)
    else:
        assert masked == mul_wide(*operands)
    assert activity.all_units_always_active()


def test_masked_activity_uniform_across_opcodes():
    rng = RandomWordRng(2)
    act_add = masked_issue("ADD", (_vec(1), _vec(2)), rng)[1]
    rng = RandomWordRng(3)
    act_sub = masked_issue("SUB", (_vec(5), _vec(2)), rng)[1]
    assert act_add == act_sub   # 2-cycle ops have identical activity records


class RngExhausted(RuntimeError):
    """The finite word source ran out."""


class ListWordRng:
    """Finite randomness source for the masked ALU; raises on exhaustion."""

    def __init__(self, words):
        self._words = list(words)

    def next_word(self) -> int:
        if not self._words:
            raise RngExhausted("masked-ALU rng exhausted")
        return self._words.pop(0)


def test_masked_rng_exhaustion_surfaces():
    rng = ListWordRng([1, 2, 3])   # far fewer than 2 cycles * 2 units * 2 words
    with pytest.raises(RngExhausted):
        masked_issue("ADD", (_vec(1), _vec(2)), rng)


def test_masked_unknown_opcode():
    with pytest.raises(ValueError):
        masked_issue("XOR", ((0,), (0,)), RandomWordRng(0))
