"""Field arithmetic against the arbitrary-precision oracle."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from csidhsim.fp import (FieldElement, Fp, ZeroInverse, int_to_words,
                         jacobi, words_to_int)
from csidhsim.oracle import naive_redc
from csidhsim.params import get_params
from csidhsim.trace import (MOD_CSIDH, MOD_XAFFINIZE, MOD_XDBLADD, MOD_XISOG,
                            MOD_XTWIST, OP_ADD, OP_MONT_MUL, OP_MONT_REDUCE,
                            OP_SUB, OpTrace, tag_ops)
from mont_reference import mont, ref_pow
from test_action import MID90

TOY = get_params("toy419")
FULL = get_params("csidh512")
PARAMS = [TOY, FULL]
FP_TOY = Fp(TOY)
FP_FULL = Fp(FULL)

toy_elt = st.integers(0, TOY.p - 1)
full_elt = st.integers(0, FULL.p - 1)


# --- representation ---------------------------------------------------------

def test_word_roundtrip():
    v = 0x1234_5678_9ABC_DEF0 % FULL.p
    words = int_to_words(v, FULL.n_words)
    assert len(words) == 16
    assert words_to_int(words) == v


def test_word_roundtrip_edges():
    for n in (1, 3, 16):
        for v in (0, 1, 2**(32 * n) - 1):
            words = int_to_words(v, n)
            assert len(words) == n and words_to_int(words) == v
    assert int_to_words(2**32 + 5, 2) == (5, 1)
    assert words_to_int(()) == 0


@pytest.mark.parametrize("value", [2**512, 2**600, -1, -(2**512)],
                         ids=["2^512", "2^600", "-1", "-2^512"])
def test_int_to_words_rejects_unrepresentable(value):
    # no 16-word form: neither truncated nor wrapped to all-ones words
    with pytest.raises(ValueError):
        int_to_words(value, 16)


@pytest.mark.parametrize("words", [(2**32,), (0, 2**32, 0), (-1,), (1, -5)])
def test_words_to_int_rejects_out_of_range_word(words):
    # a word outside [0, 2^32) would spill into its neighbour's bits
    with pytest.raises(ValueError):
        words_to_int(words)


def test_canonical_range_enforced(toy):
    with pytest.raises(ValueError):
        FieldElement(toy.p, toy)
    with pytest.raises(ValueError):
        FieldElement(-1, toy)


def test_serialization_little_endian(full):
    a = FieldElement(1, full)
    raw = a.to_bytes()
    assert len(raw) == 64
    assert raw[0] == 1 and set(raw[1:]) == {0}
    assert FieldElement(int.from_bytes(raw, "little"), full) == a


# --- add / sub --------------------------------------------------------------

@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_add_sub_edges(params):
    fp, p = Fp(params), params.p
    assert fp.add(0, 0) == 0
    assert fp.add(p - 1, 1) == 0
    assert fp.sub(5 % p, 5 % p) == 0
    assert fp.sub(0, 1) == p - 1


@given(a=full_elt, b=full_elt)
def test_add_sub_oracle_full(a, b):
    p = FULL.p
    assert FP_FULL.add(a, b) == (a + b) % p
    assert FP_FULL.sub(a, b) == (a - b) % p


@given(a=toy_elt, b=toy_elt)
def test_add_sub_oracle_toy(a, b):
    p = TOY.p
    assert FP_TOY.add(a, b) == (a + b) % p
    assert FP_TOY.sub(a, b) == (a - b) % p


# --- Montgomery multiply / reduce --------------------------------------------

@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_mont_identities(params):
    # Values are residues, so the ALU's conversions return their input
    # and record one op each under the current module; `mul` is the
    # Montgomery product itself.
    p, R = params.p, params.R
    t = OpTrace()
    fp = Fp(params, t)
    fp.set_module(MOD_XTWIST)
    x = 1234 % p
    assert fp.to_mont(x) == x and fp.to_mont(0) == 0
    assert fp.from_mont(x) == x and fp.from_mont(0) == 0
    assert t.buf == bytes(MOD_XTWIST << 3 | op for op in (
        OP_MONT_MUL, OP_MONT_MUL, OP_MONT_REDUCE, OP_MONT_REDUCE))
    one = R % p
    assert fp.mul(one, one) == one
    assert fp.mul(x, R * R % p) == x * R % p


@given(a=full_elt, b=full_elt)
def test_mont_mul_oracle(a, b):
    want = a * b * pow(FULL.R, -1, FULL.p) % FULL.p
    assert FP_FULL.mul(a, b) == want


@given(T=st.integers(0, FULL.p * FULL.R - 1))
def test_mont_reduce_oracle(T):
    assert FP_FULL.redc(T) == naive_redc(T, FULL.p, FULL.R)


def test_redc_rejects_out_of_range_input():
    fp = Fp(TOY)
    with pytest.raises(ValueError):
        fp.redc(TOY.p << TOY.width)
    with pytest.raises(ValueError):
        fp.redc(-1)


def test_mont_reduce_edges(full):
    fp = Fp(full)
    assert fp.redc(0) == 0
    a = 0xDEADBEEF
    assert fp.redc(a * full.R) == a


@given(a=full_elt)
def test_mont_roundtrip(a):
    assert FP_FULL.from_mont(FP_FULL.to_mont(a)) == a


@given(a=full_elt, b=full_elt, c=full_elt)
@settings(max_examples=30)
def test_mont_mul_ring_laws(a, b, c):
    mul, add = FP_FULL.mul, FP_FULL.add
    assert mul(a, b) == mul(b, a)
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


# --- inversion and residue test ----------------------------------------------

def test_inv_known_value():
    assert FP_TOY.inv(2) == 210   # 2 * 210 = 420 = 1 mod 419


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_inv_zero_raises(params):
    with pytest.raises(ZeroInverse):
        Fp(params).inv(0)


@given(a=st.integers(1, FULL.p - 1))
@settings(max_examples=25)
def test_inv_definitional(a):
    inv = FP_FULL.inv(a)
    assert a * inv % FULL.p == 1
    assert FP_FULL.inv(inv) == a


def test_is_square_exhaustive_toy(toy):
    fp = Fp(toy)
    squares = {b * b % toy.p for b in range(1, toy.p)}
    for a in range(toy.p):
        assert fp.is_square(a) == (a in squares or a == 0)


def test_is_square_edges(full):
    fp = Fp(full)
    assert fp.is_square(1)
    assert not fp.is_square(full.p - 1)   # p = 3 mod 4


def test_jacobi_matches_euler_criterion(full, rnd):
    # Euler's criterion: a^((p-1)/2) mod p is 0, 1 or p-1 = (a/p) mod p.
    p = full.p
    values = [0, 1, p - 1] + [rnd.randrange(p) for _ in range(200)]
    for a in values:
        assert jacobi(a, p) % p == pow(a, (p - 1) >> 1, p), a
    assert jacobi(p - 1, p) == -1 and jacobi(0, p) == 0


# --- fixed operation schedules ------------------------------------------------

def _trace_of(params, fn):
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


@pytest.mark.parametrize("params", PARAMS, ids=lambda p: p.name)
def test_pow_inv_is_square_equal_reference(params):
    # Values, trace bytes and the module tag left behind equal those of a
    # square-and-always-multiply of one `Fp.mul` per op: 2*max(bitlen e, 1)
    # MONT_MULs per exponent, tagged with the current module.  The reference
    # takes and returns Montgomery representatives.
    rng = random.Random(f"pow-{params.name}")
    p = params.p
    xs = [0, 1, params.R % p, p - 1, *(rng.randrange(p) for _ in range(6))]
    exps = [0, 1, 2, params.primes[-1], (p - 1) >> 1, p - 2]
    got_t, want_t = OpTrace(), OpTrace()
    got, want = Fp(params, got_t), Fp(params, want_t)
    for ctx in (got, want):
        ctx.set_module(MOD_XTWIST)
    one = mont(want, 1)
    for x in xs:
        xm = mont(want, x)
        for e in exps:
            n = len(got_t)
            got._issue_pow(e)
            ref_pow(want, xm, e)
            assert got_t.buf[n:] == bytes(
                [MOD_XTWIST << 3 | OP_MONT_MUL]) * (2 * max(e.bit_length(), 1))
        assert got.is_square(x) == (ref_pow(want, xm, (p - 1) >> 1) == one
                                    or x == 0), x
        if x:
            assert mont(want, got.inv(x)) == ref_pow(want, xm, p - 2), x
        else:
            with pytest.raises(ZeroInverse):
                got.inv(x)
    assert got_t.buf == want_t.buf
    assert got.mark() == want.mark()


def test_inv_exhaustive_toy():
    p = TOY.p
    for a in range(1, p):
        assert a * FP_TOY.inv(a) % p == 1, a


@pytest.mark.parametrize("params", [MID90, FULL], ids=lambda p: p.name)
def test_inv_and_is_square_equal_slow_formulas(params):
    # The fast values (`pow(a, -1, p)`, the Jacobi symbol) against a^(p-2)
    # and Euler's criterion, 0 counting as a square.
    rng = random.Random(f"fast-{params.name}")
    p = params.p
    fp = Fp(params)
    xs = [0, 1, 2, p - 1, *(rng.randrange(p) for _ in range(40))]
    for a in xs:
        assert fp.is_square(a) == (pow(a, (p - 1) >> 1, p) == 1 or a == 0), a
        if a:
            assert fp.inv(a) == pow(a, p - 2, p), a
    assert {fp.is_square(a) for a in xs[1:]} == {True, False}


def test_is_square_schedule_value_independent(toy):
    ta = _trace_of(toy, lambda c: c.is_square(3))
    tb = _trace_of(toy, lambda c: c.is_square(toy.p - 1))
    assert ta == tb


# Op templates as `trace.tag_ops` builds them: single-module ones, and two
# mixed ones like `isogeny._schedule`'s, ending on xISOG and on xDBLADD.
_TEMPLATES = {
    "xtwist": tag_ops(MOD_XTWIST, (OP_MONT_MUL, OP_ADD)),
    "xaffinize": tag_ops(MOD_XAFFINIZE, (OP_MONT_MUL,)),
    "xdbladd": tag_ops(MOD_XDBLADD, (OP_ADD, OP_SUB, OP_MONT_MUL)),
    "ends-xisog": (tag_ops(MOD_XDBLADD, (OP_ADD, OP_MONT_MUL))
                   + tag_ops(MOD_XISOG, (OP_MONT_MUL, OP_SUB))),
    "ends-xdbladd": (tag_ops(MOD_XISOG, (OP_SUB, OP_MONT_MUL))
                     + tag_ops(MOD_XDBLADD, (OP_ADD,))),
}


@pytest.mark.parametrize("traced", [True, False],
                         ids=["traced", "untraced"])
def test_issue_leaves_the_module_of_the_templates_last_op(toy, traced):
    # `issue` appends the template `times` over and leaves current the
    # module of its last op, the one the op-by-op code would leave.
    for name, ops in _TEMPLATES.items():
        for times in (1, 3):
            t = OpTrace()
            fp = Fp(toy, t if traced else None)
            fp.set_module(MOD_CSIDH)
            fp.issue(ops, times)
            assert bytes(t.buf) == (ops * times if traced else b""), name
            assert fp.mark()[1] == ops[-1] & ~7, name


# --- speculative work ---------------------------------------------------------

def test_rollback_restores_trace_and_module(toy):
    t = OpTrace()
    fp = Fp(toy, t)
    fp.set_module(MOD_XAFFINIZE)
    fp.add(1, 2)
    before = bytes(t.buf)
    mark = fp.mark()
    fp.set_module(MOD_XTWIST)
    fp.mul(3, 4)
    fp.inv(5)
    fp.rollback(mark)
    assert bytes(t.buf) == before
    assert fp.mark() == mark
    fp.sub(2, 1)      # recorded under the restored module tag
    assert t.buf[-1] == (MOD_XAFFINIZE << 3) | OP_SUB


def test_rollback_untraced_touches_no_buffer(toy):
    other = OpTrace()
    other.buf.append(MOD_CSIDH << 3 | OP_ADD)
    fp = Fp(toy)
    fp.set_module(MOD_XAFFINIZE)
    mark = fp.mark()
    fp.set_module(MOD_XTWIST)
    fp.mul(3, 4)
    assert fp.mark() != mark          # the module tag moved
    fp.rollback(mark)
    assert fp.trace is None and fp.mark() == mark   # and is restored
    assert bytes(other.buf) == bytes([(MOD_CSIDH << 3) | OP_ADD])
