"""Field arithmetic against the arbitrary-precision oracle."""

import pytest
from hypothesis import given, settings, strategies as st

from csidhsim.fp import (FieldElement, Fp, WideProduct, ZeroInverse, fp_add,
                         fp_inv, fp_sub, from_mont, int_to_words, is_square,
                         mont_mul, mont_reduce, to_mont, words_to_int)
from csidhsim.oracle import naive_redc
from csidhsim.params import get_params

TOY = get_params("toy419")
FULL = get_params("csidh512")
PARAMS = [TOY, FULL]

toy_elt = st.integers(0, TOY.p - 1)
full_elt = st.integers(0, FULL.p - 1)


def fe(v, params):
    return FieldElement(v, params)


# --- representation ---------------------------------------------------------

def test_word_roundtrip():
    v = 0x1234_5678_9ABC_DEF0 % FULL.p
    words = int_to_words(v, FULL.n_words)
    assert len(words) == 16
    assert words_to_int(words) == v


def test_canonical_range_enforced(toy):
    with pytest.raises(ValueError):
        FieldElement(toy.p, toy)
    with pytest.raises(ValueError):
        FieldElement(-1, toy)


def test_serialization_little_endian(full):
    a = fe(1, full)
    raw = a.to_bytes()
    assert len(raw) == 64
    assert raw[0] == 1 and set(raw[1:]) == {0}
    assert FieldElement.from_bytes(raw, full) == a


def test_wide_product_range(full):
    WideProduct(full.R ** 2 - 1, full)
    with pytest.raises(ValueError):
        WideProduct(full.R ** 2, full)


# --- add / sub --------------------------------------------------------------

@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_add_sub_edges(params):
    p = params.p
    assert fp_add(fe(0, params), fe(0, params), params).value == 0
    assert fp_add(fe(p - 1, params), fe(1, params), params).value == 0
    assert fp_sub(fe(5 % p, params), fe(5 % p, params), params).value == 0
    assert fp_sub(fe(0, params), fe(1, params), params).value == p - 1


@given(a=full_elt, b=full_elt)
def test_add_sub_oracle_full(a, b):
    p = FULL.p
    assert fp_add(fe(a, FULL), fe(b, FULL), FULL).value == (a + b) % p
    assert fp_sub(fe(a, FULL), fe(b, FULL), FULL).value == (a - b) % p


@given(a=toy_elt, b=toy_elt)
def test_add_sub_oracle_toy(a, b):
    p = TOY.p
    assert fp_add(fe(a, TOY), fe(b, TOY), TOY).value == (a + b) % p
    assert fp_sub(fe(a, TOY), fe(b, TOY), TOY).value == (a - b) % p


# --- Montgomery multiply / reduce --------------------------------------------

@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_mont_identities(params):
    one_m = fe(params.one_m, params)
    assert mont_mul(one_m, one_m, params).value == params.one_m
    x = fe(1234 % params.p, params)
    assert mont_mul(x, fe(params.R2, params), params).value == \
        x.value * params.R % params.p
    assert to_mont(fe(0, params), params).value == 0
    assert to_mont(fe(1, params), params).value == params.one_m


@given(a=full_elt, b=full_elt)
def test_mont_mul_oracle(a, b):
    want = a * b * pow(FULL.R, -1, FULL.p) % FULL.p
    assert mont_mul(fe(a, FULL), fe(b, FULL), FULL).value == want


@given(T=st.integers(0, FULL.p * FULL.R - 1))
def test_mont_reduce_oracle(T):
    got = mont_reduce(WideProduct(T, FULL), FULL).value
    assert got == naive_redc(T, FULL.p, FULL.R)


def test_redc_rejects_out_of_range_input():
    fp = Fp(TOY)
    with pytest.raises(ValueError):
        fp.redc(TOY.p << TOY.width)
    with pytest.raises(ValueError):
        fp.redc(-1)


def test_mont_reduce_edges(full):
    assert mont_reduce(WideProduct(0, full), full).value == 0
    a = 0xDEADBEEF
    assert mont_reduce(WideProduct(a * full.R, full), full).value == a


@given(a=full_elt)
def test_mont_roundtrip(a):
    assert from_mont(to_mont(fe(a, FULL), FULL), FULL).value == a


@given(a=full_elt, b=full_elt, c=full_elt)
@settings(max_examples=30)
def test_mont_mul_ring_laws(a, b, c):
    fa, fb, fc = fe(a, FULL), fe(b, FULL), fe(c, FULL)
    assert mont_mul(fa, fb, FULL) == mont_mul(fb, fa, FULL)
    assert mont_mul(mont_mul(fa, fb, FULL), fc, FULL) == \
        mont_mul(fa, mont_mul(fb, fc, FULL), FULL)
    assert mont_mul(fa, fp_add(fb, fc, FULL), FULL) == \
        fp_add(mont_mul(fa, fb, FULL), mont_mul(fa, fc, FULL), FULL)


# --- inversion and residue test ----------------------------------------------

def test_inv_known_value():
    assert fp_inv(fe(2, TOY), TOY).value == 210   # 2 * 210 = 420 = 1 mod 419


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_inv_zero_raises(params):
    with pytest.raises(ZeroInverse):
        fp_inv(fe(0, params), params)


@given(a=st.integers(1, FULL.p - 1))
@settings(max_examples=25)
def test_inv_definitional(a):
    inv = fp_inv(fe(a, FULL), FULL)
    assert a * inv.value % FULL.p == 1
    assert fp_inv(inv, FULL).value == a


def test_is_square_exhaustive_toy(toy):
    squares = {b * b % toy.p for b in range(1, toy.p)}
    for a in range(toy.p):
        assert is_square(fe(a, toy), toy) == (a in squares or a == 0)


def test_is_square_edges(full):
    assert is_square(fe(1, full), full)
    assert not is_square(fe(full.p - 1, full), full)   # p = 3 mod 4


# --- fixed operation schedules ------------------------------------------------

def _trace_of(params, fn):
    from csidhsim.trace import OpTrace
    t = OpTrace()
    ctx = Fp(params, t)
    fn(ctx)
    return bytes(t.buf)


@pytest.mark.parametrize("pair", [(1, 2), (77, 418), (400, 400)])
def test_inv_schedule_value_independent(toy, pair):
    a, b = pair
    ta = _trace_of(toy, lambda c: c.inv(c.to_mont(a)))
    tb = _trace_of(toy, lambda c: c.inv(c.to_mont(b)))
    assert ta == tb


def test_is_square_schedule_value_independent(toy):
    ta = _trace_of(toy, lambda c: c.is_square(3))
    tb = _trace_of(toy, lambda c: c.is_square(toy.p - 1))
    assert ta == tb
