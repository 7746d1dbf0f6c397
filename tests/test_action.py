"""Group action, sampling, validation, and key serialization (toy-scale)."""

import inspect
import itertools
import math
import sys

import pytest
from hypothesis import given, settings, strategies as st

from csidhsim import action, oracle as orc
from csidhsim.action import (ActionConfig, Drbg, FaultDetected, InvalidPeerKey,
                             InvalidPrivateKey, PrivateKey, PublicKey,
                             RngFailure, keygen, make_rng, random_private_key,
                             run_action, sample_point, shared_secret,
                             validate_basic, validate_pk)
from csidhsim.fp import Fp
from csidhsim.mont_curve import (CurveSide, InfinityAffinize, ProjCurve,
                                 ProjPoint, xtwist)
from csidhsim.params import CsidhParams, csidh512_params, get_params
from csidhsim.trace import (MOD_XDBLADD, MOD_XISOG, OP_MONT_MUL, OPCODE_NAMES,
                             CostTable, CycleLedger, OpTrace)

TOY = get_params("toy419")
# p = 4*3*5*...*71 - 1 is a 90-bit prime.  Its 19 primes exceed
# BATCH_LIMIT, so the ct schedule runs two batches, and with m = 3 one prime
# can get both real and dummy slots, which toy419 never does.
MID90 = CsidhParams("mid90", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                              43, 47, 53, 59, 61, 67, 71), 3)


def ct(e, seed=b"ct"):
    sk = PrivateKey(e, TOY)
    pk, ok, trace = action.group_action_ct(PublicKey(0), sk, make_rng(seed))
    assert ok
    return pk.A, trace


def vt(e, seed=b"vt"):
    sk = PrivateKey(e, TOY)
    pk, ok, _ = action.group_action_vartime(PublicKey(0), sk, make_rng(seed))
    assert ok
    return pk.A


# --- rng ---------------------------------------------------------------------

def test_drbg_deterministic():
    a, b = Drbg(b"x"), Drbg(b"x")
    assert a.bytes(32) == b.bytes(32)
    assert Drbg(b"x").bytes(32) != Drbg(b"y").bytes(32)


def test_drbg_below_in_range():
    rng = Drbg(b"r")
    vals = [rng.below(419) for _ in range(2000)]
    assert all(0 <= v < 419 for v in vals)
    assert len(set(vals)) > 300    # roughly uniform coverage


# --- keys --------------------------------------------------------------------

def test_private_key_bounds():
    with pytest.raises(ValueError):
        PrivateKey((2, 0, 0), TOY)
    with pytest.raises(ValueError):
        PrivateKey((1, 1), TOY)
    # Only ints: a float or a string is no exponent, even one in range.
    for e in ((0.5, 0, 0), ("1", 0, 0)):
        with pytest.raises(InvalidPrivateKey):
            PrivateKey(e, TOY)
    assert PrivateKey((True, False, 0), TOY) == PrivateKey((1, 0, 0), TOY)


def test_private_key_roundtrip():
    sk = PrivateKey((-1, 0, 1), TOY)
    raw = sk.to_bytes()
    assert raw[:8] == b"CSIDHSK1" and len(raw) == 8 + 1 + 3
    assert PrivateKey.from_bytes(raw) == sk
    with pytest.raises(ValueError):
        PrivateKey.from_bytes(b"NOTAKEY1" + raw[8:])
    # A key is a value: a list or a generator of the same exponents makes
    # an equal, hashable key.
    for same in (PrivateKey([-1, 0, 1], TOY),
                 PrivateKey((e for e in (-1, 0, 1)), TOY)):
        assert same == sk and hash(same) == hash(sk)
        assert same.to_bytes() == raw


def test_public_key_roundtrip():
    pk = PublicKey(390)
    raw = pk.to_bytes(TOY)
    assert raw[:8] == b"CSIDHPK1" and len(raw) == 8 + 1 + TOY.byte_length
    got, params = PublicKey.from_bytes(raw)
    assert got.A == 390 and params is TOY
    assert got == pk and hash(got) == hash(pk)
    bad = raw[:9] + (TOY.p).to_bytes(TOY.byte_length, "little")
    with pytest.raises(ValueError):
        PublicKey.from_bytes(bad)


def test_random_private_key_uniform_bounds():
    rng = make_rng(b"sk")
    for _ in range(50):
        sk = random_private_key(TOY, rng)
        assert all(-1 <= e <= 1 for e in sk.exponents)


# --- point sampling ----------------------------------------------------------

def e0(fp):
    """E_0 as a projective curve, and its affine A."""
    return ProjCurve(0, 1), 0


def test_sample_point_side_postcondition():
    fp = Fp(TOY)
    curve, A = e0(fp)
    rng = make_rng(b"pts")
    for side in (CurveSide.CURVE, CurveSide.TWIST):
        for _ in range(500):
            P = sample_point(fp, curve, side, rng)
            assert xtwist(fp, P.X, A) is side


def test_sample_point_deterministic():
    fp = Fp(TOY)
    curve, _ = e0(fp)
    xs1 = [sample_point(fp, curve, CurveSide.CURVE, make_rng(bytes([i]))).X
           for i in range(10)]
    xs2 = [sample_point(fp, curve, CurveSide.CURVE, make_rng(bytes([i]))).X
           for i in range(10)]
    assert xs1 == xs2


def test_sample_point_hit_rate_near_half():
    # over F_419, A=0: exhaustive count of curve-side x (RHS square or 0)
    fp = Fp(TOY)
    curve_xs = sum(1 for x in range(1, TOY.p)
                   if xtwist(fp, x, 0) is CurveSide.CURVE)
    p_hit = curve_xs / (TOY.p - 1)
    n = 1000
    rng = make_rng(b"rate")
    hits = 0
    for _ in range(n):
        x = 0
        while x == 0:
            x = rng.below(TOY.p)
        hits += xtwist(fp, x, 0) is CurveSide.CURVE
    sigma = (n * p_hit * (1 - p_hit)) ** 0.5
    assert abs(hits - n * p_hit) <= 3 * sigma


def test_sample_point_rng_failure():
    class StuckRng:
        def below(self, bound):
            return 10   # always the same curve-side x (10 is on E_0)

    fp = Fp(TOY)
    curve, _ = e0(fp)
    with pytest.raises(RngFailure):
        sample_point(fp, curve, CurveSide.TWIST, StuckRng())


def test_sample_point_rejects_az_zero():
    fp = Fp(TOY)
    with pytest.raises(InfinityAffinize):
        sample_point(fp, ProjCurve(1, 0), CurveSide.CURVE,
                     make_rng(b"az"))


def test_sample_point_records_one_classification():
    # Seed 0 rejects 4 candidates before a twist-side x; they are screened
    # off the trace, so it holds exactly the accepted x's to_mont.
    plain = Fp(TOY)
    curve, A = e0(plain)
    rng = make_rng(bytes([0]))
    rejected = 0
    while True:
        x = rng.below(TOY.p)
        if x and xtwist(plain, x, A) is CurveSide.TWIST:
            break
        rejected += 1
    assert rejected == 4

    got = OpTrace()
    P = sample_point(Fp(TOY, got), curve, CurveSide.TWIST,
                     make_rng(bytes([0])))
    assert P == ProjPoint(x, 1)
    want = OpTrace()
    Fp(TOY, want).to_mont(x)
    assert got == want


# --- action paths ------------------------------------------------------------

def test_ct_repair_resamples_only_the_active_point(monkeypatch):
    # The pinned toy419 run (acceptance-sk-0 under acceptance-shared-seed)
    # repairs one kernel.  Each repair draws one point and no pair, and the
    # slot's isogeny gets the inactive point it had before the repair.
    events = []
    kernel_ok, sample, pair, isog = (action._kernel_ok, action.sample_point,
                                     action._sample_pair, action.xisog)

    def spy_kernel_ok(K):
        ok = kernel_ok(K)
        if not ok:
            # _ct_round's inactive point as the check failed
            round_ = sys._getframe(1).f_locals
            events.append(("repair", round_["points"][1 - round_["s"]]))
        return ok

    def spy_sample(*args):
        events.append(("sample_point", None))
        return sample(*args)

    def spy_pair(*args):
        events.append(("pair", None))
        return pair(*args)

    def spy_isog(fp, curve, points, K, l):
        s = sys._getframe(1).f_locals["s"]   # _ct_round's side index
        events.append(("xisog", points[1 - s]))
        return isog(fp, curve, points, K, l)

    monkeypatch.setattr(action, "_kernel_ok", spy_kernel_ok)
    monkeypatch.setattr(action, "sample_point", spy_sample)
    monkeypatch.setattr(action, "_sample_pair", spy_pair)
    monkeypatch.setattr(action, "xisog", spy_isog)
    sk = random_private_key(TOY, make_rng(b"acceptance-sk-0"))
    pk, ok, _ = action.group_action_ct(PublicKey(0), sk,
                                       make_rng(b"acceptance-shared-seed"))
    assert ok and pk.A == 6

    starts = [i for i, (kind, _) in enumerate(events) if kind == "repair"]
    assert starts
    for i in starts:
        end = next(j for j in range(i + 1, len(events))
                   if events[j][0] in ("repair", "xisog"))
        assert [kind for kind, _ in events[i + 1:end]] == ["sample_point"]
        isog_at = next(j for j in range(i, len(events))
                       if events[j][0] == "xisog")
        assert events[isog_at][1] == events[i][1]


def test_xtwist_runs_once_per_pair_point(monkeypatch):
    # In the pinned toy419 run xtwist classifies only the two points of each
    # sampled pair: not a rejected candidate, not a kernel repair, and
    # nothing on the vartime path.
    calls = {"xtwist": 0, "pair": 0, "repair": 0}
    per_pair = []
    real_xtwist, pair, kernel_ok = (action.xtwist, action._sample_pair,
                                    action._kernel_ok)

    def spy_xtwist(fp, x, A):
        calls["xtwist"] += 1
        return real_xtwist(fp, x, A)

    def spy_pair(*args):
        before = calls["xtwist"]
        calls["pair"] += 1
        out = pair(*args)
        per_pair.append(calls["xtwist"] - before)
        return out

    def spy_kernel_ok(K):
        ok = kernel_ok(K)
        calls["repair"] += not ok
        return ok

    monkeypatch.setattr(action, "xtwist", spy_xtwist)
    monkeypatch.setattr(action, "_sample_pair", spy_pair)
    monkeypatch.setattr(action, "_kernel_ok", spy_kernel_ok)
    sk = random_private_key(TOY, make_rng(b"acceptance-sk-0"))
    pk, ok, _ = action.group_action_ct(PublicKey(0), sk,
                                       make_rng(b"acceptance-shared-seed"))
    assert ok and pk.A == 6
    assert calls["repair"] >= 1 and calls["pair"] >= 1
    assert per_pair == [2] * calls["pair"]
    assert calls["xtwist"] == 2 * calls["pair"]

    calls["xtwist"] = 0
    pk, ok, _ = action.group_action_vartime(
        PublicKey(0), sk, make_rng(b"acceptance-shared-seed"))
    assert ok and pk.A == 6
    assert calls["xtwist"] == 0


def test_traced_classification_disagreeing_with_screen_faults(monkeypatch):
    real_xtwist = action.xtwist

    def wrong_side(fp, x, A):
        side = real_xtwist(fp, x, A)
        return (CurveSide.TWIST if side is CurveSide.CURVE
                else CurveSide.CURVE)

    monkeypatch.setattr(action, "xtwist", wrong_side)
    sk = random_private_key(TOY, make_rng(b"acceptance-sk-0"))
    with pytest.raises(FaultDetected):
        keygen(sk, TOY, make_rng(b"acceptance-shared-seed"))


def test_identity_action_fixes_keys():
    for A0 in (0, 6, 158):
        sk = PrivateKey((0, 0, 0), TOY)
        pkv, okv, _ = action.group_action_vartime(PublicKey(A0), sk,
                                                  make_rng(b"i"))
        pkc, okc, _ = action.group_action_ct(PublicKey(A0), sk,
                                             make_rng(b"i"))
        assert okv and okc and pkv.A == pkc.A == A0


def test_single_steps_match_oracle():
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, 0, 0), (0, 0, -1)):
        ref = orc.brute_group_action(0, e, TOY.primes, TOY.p)
        assert vt(e) == ref
        assert ct(e)[0] == ref


def test_action_composition_commutes():
    e1, e2 = (1, 0, -1), (0, 1, 1)
    total = tuple(a + b for a, b in zip(e1, e2))
    mid = vt(e1)
    sk2 = PrivateKey(e2, TOY)
    end, ok, _ = action.group_action_vartime(PublicKey(mid), sk2,
                                             make_rng(b"c"))
    assert ok
    assert end.A == orc.brute_group_action(0, total, TOY.primes, TOY.p)


def _inverse_key_returns_to_e0(keys, constant_time):
    # [-e]([e]E0) = E0.  Both action paths share the curve and isogeny
    # formulas, so their agreement alone would not see a defect they have
    # in common; this relation would.
    cfg = ActionConfig(constant_time=constant_time)
    for sk in keys:
        rng = make_rng(b"inverse-key")
        pk, _ = run_action(PublicKey(0), sk, rng, cfg)
        neg = PrivateKey([-e for e in sk.exponents], sk.params)
        back, _ = run_action(pk, neg, rng, cfg)
        assert back.A == 0, sk.exponents


@pytest.mark.parametrize("constant_time", [True, False], ids=["ct", "vartime"])
def test_inverse_key_returns_to_base_curve(constant_time):
    keys = [PrivateKey(e, TOY) for e in itertools.product(
        range(-TOY.m, TOY.m + 1), repeat=TOY.n)]
    assert len(keys) == 27
    keys += [random_private_key(MID90, make_rng(b"inverse-%d" % i))
             for i in range(3)]
    _inverse_key_returns_to_e0(keys, constant_time)


@pytest.mark.parametrize("constant_time", [True, False], ids=["ct", "vartime"])
@settings(max_examples=20, deadline=None)
@given(e=st.lists(st.integers(-MID90.m, MID90.m), min_size=MID90.n,
                  max_size=MID90.n))
def test_inverse_key_returns_to_base_curve_mid90(constant_time, e):
    _inverse_key_returns_to_e0([PrivateKey(e, MID90)], constant_time)


@pytest.mark.slow
@pytest.mark.parametrize("constant_time", [True, False], ids=["ct", "vartime"])
def test_inverse_key_returns_to_base_curve_full(constant_time, full):
    _inverse_key_returns_to_e0(
        [random_private_key(full, make_rng(b"inverse-full"))], constant_time)


def test_invalid_input_returns_failure():
    sk = PrivateKey((1, 0, 0), TOY)
    key, ok, _ = action.group_action_vartime(PublicKey(2), sk,
                                             make_rng(b"x"))
    assert (key, ok) == (None, False)
    key, ok, _ = action.group_action_ct(PublicKey(TOY.p - 2), sk,
                                        make_rng(b"x"))
    assert (key, ok) == (None, False)


def test_ct_isogeny_budget_is_exactly_m(monkeypatch):
    calls = []
    real_xisog = action.xisog

    def counting(fp, curve, points, K, l):
        calls.append(l)
        return real_xisog(fp, curve, points, K, l)

    monkeypatch.setattr(action, "xisog", counting)
    for e in ((0, 0, 0), (1, -1, 0), (-1, -1, -1)):
        calls.clear()
        ct(e)
        for l in TOY.primes:
            assert calls.count(l) == TOY.m


def test_mid90_two_batches(monkeypatch):
    assert MID90.n > action.BATCH_LIMIT
    assert (MID90.p.bit_length(), MID90.n_words) == (90, 3)
    # Consecutive batches, each in descending l; cof * l * clear and
    # k_clear * the batch's primes are both p + 1.
    schedule = action.ct_schedule(MID90)
    assert [len(slots) for _, slots in schedule] == [16, 3]
    assert [idx for _, slots in schedule for idx, *_ in slots] == [
        *range(15, -1, -1), 18, 17, 16]
    for k_clear, slots in schedule:
        for idx, l, cof, clear in slots:
            assert l == MID90.primes[idx]
            assert cof * l * clear == MID90.p + 1
        assert k_clear * math.prod(l for _, l, _, _ in slots) == MID90.p + 1
    calls = []
    real_xisog = action.xisog

    def counting(fp, curve, points, K, l):
        calls.append(l)
        return real_xisog(fp, curve, points, K, l)

    monkeypatch.setattr(action, "xisog", counting)
    traces = set()
    for i in range(10):
        sk = random_private_key(MID90, make_rng(b"mid90-sk-%d" % i))
        calls.clear()
        pk, ok, trace = action.group_action_ct(PublicKey(0), sk,
                                               make_rng(b"mid90-ct-%d" % i))
        assert ok
        assert all(calls.count(l) == MID90.m for l in MID90.primes)
        traces.add(bytes(trace.buf))
        vt_pk, ok, _ = action.group_action_vartime(
            PublicKey(0), sk, make_rng(b"mid90-vt-%d" % i))
        assert ok and vt_pk == pk
    assert [len(t) for t in traces] == [89_788]


def bit_len(k):
    return max(k.bit_length(), 1)


def schedule_op_counts(params):
    """{(opcode name, module name): count} of a recorded ct action, from
    `ct_schedule` and the formulas' op counts; no op template is read.

    Ladder steps (4 ADD, 4 SUB, 12 MONT_MUL each): per round the pair's
    two [k_clear], per slot its cofactor, [l]K in `xisog` and [l] of both
    points, and the end check's [p + 1].  Each slot's `xisog` on the two
    points takes, for each of its d = (l - 1)/2 kernel multiples, 3 ADD,
    3 SUB and 10 MONT_MUL (2 curve products, 4 per point), plus 7 ADD,
    4 SUB and 16 + 4 * bitlen(l) MONT_MUL (the points' sums, 4 per image,
    2 * bitlen(l) per l-th power, 3 per eighth power, 1 per product).  Its
    chain's xDBL (2 ADD, 2 SUB, 6 MONT_MUL; d > 1) and d - 2 xADDs (3 ADD,
    3 SUB, 6 MONT_MUL) are xDBLADD's, as are the constants' 3 ADDs per
    round, 2 per slot and 1 at the end.  Each round affinizes (a^(p-2)
    and a product), `to_mont`s its two points, one on xAffinize and one on
    xTWIST, and `xtwist`s them (3 MONT_MUL, 2 ADD and Euler's
    a^((p-1)/2) each).  The end affinizes and leaves the domain by one
    MONT_REDUCE; the initial and the check's `to_mont` are CSIDH's.
    Rolled-back repairs leave no op.
    """
    p, m = params.p, params.m
    schedule = action.ct_schedule(params)
    rounds = m * len(schedule)
    ls = [l for _, slots in schedule for _, l, _, _ in slots] * m
    steps = bit_len(p + 1) + m * sum(
        2 * bit_len(k_clear) + sum(bit_len(cof) + 3 * bit_len(l)
                                   for _, l, cof, _ in slots)
        for k_clear, slots in schedule)
    multiples = sum((l - 1) // 2 for l in ls)
    xdbl = sum(l > 3 for l in ls)
    xadd = sum(max((l - 1) // 2 - 2, 0) for l in ls)
    consts = rounds + 2 * len(ls) + 1
    affinize = 2 * bit_len(p - 2) + 1
    euler = 2 * bit_len((p - 1) // 2)
    return {
        ("ADD", "xDBLADD"): 4 * steps + 2 * xdbl + 3 * xadd + 3 * consts,
        ("SUB", "xDBLADD"): 4 * steps + 2 * xdbl + 3 * xadd,
        ("MONT_MUL", "xDBLADD"): 12 * steps + 6 * (xdbl + xadd),
        ("ADD", "xISOG"): 3 * multiples + 7 * len(ls),
        ("SUB", "xISOG"): 3 * multiples + 4 * len(ls),
        ("MONT_MUL", "xISOG"): 10 * multiples + sum(16 + 4 * l.bit_length()
                                                     for l in ls),
        ("ADD", "xTWIST"): 4 * rounds,
        ("MONT_MUL", "xTWIST"): rounds * (2 * (3 + euler) + 1),
        ("MONT_MUL", "xAffinize"): (rounds + 1) * affinize + rounds,
        ("MONT_REDUCE", "xAffinize"): 1,
        ("MONT_MUL", "CSIDH"): 2,
    }


def schedule_xdbladd_mont_muls(params):
    return schedule_op_counts(params)["MONT_MUL", "xDBLADD"]


def xdbladd_mont_muls(trace):
    return trace.buf.count((MOD_XDBLADD << 3) | OP_MONT_MUL)


def schedule_xisog_mont_muls(params):
    return schedule_op_counts(params)["MONT_MUL", "xISOG"]


def xisog_mont_muls(trace):
    return trace.buf.count((MOD_XISOG << 3) | OP_MONT_MUL)


def ledger_op_counts(trace):
    """{(opcode name, module name): count} of `trace`, read off its
    ledger's module cycles with one opcode priced at a cycle, the rest at
    none."""
    counts = {}
    for op, name in OPCODE_NAMES.items():
        table = CostTable()
        table.costs["fpga"] = {o: int(o == op) for o in OPCODE_NAMES}
        cycles = CycleLedger(trace, table).module_cycles("fpga")
        counts |= {(name, module): n for module, n in cycles.items() if n}
    return counts


@pytest.mark.parametrize("params", [TOY, MID90, get_params("csidh512")],
                         ids=["toy419", "mid90", "csidh512"])
def test_ct_trace_counts_are_the_schedule_closed_forms(params):
    assert ledger_op_counts(action.ct_trace(params)) == \
        schedule_op_counts(params)


def assert_recorded_is_generated(params, runs):
    """Each (key, seed) run's recorded ct trace is `action.ct_trace`'s."""
    generated = action.ct_trace(params)
    for sk, seed in runs:
        _, ok, trace = action.group_action_ct(PublicKey(0), sk,
                                              make_rng(seed))
        assert ok
        assert trace == generated, (sk.exponents, seed)


def test_recorded_ct_trace_is_generated_toy419():
    keys = [PrivateKey(e, TOY) for e in itertools.product(
        range(-TOY.m, TOY.m + 1), repeat=TOY.n)]
    assert len(keys) == 27
    assert_recorded_is_generated(TOY, [(sk, b"generated-%d" % i)
                                       for sk in keys for i in range(3)])


def test_recorded_ct_trace_is_generated_mid90():
    assert_recorded_is_generated(MID90, [
        (random_private_key(MID90, make_rng(b"generated-sk-%d" % i)),
         b"generated-%d" % i) for i in range(5)])


@settings(max_examples=20, deadline=None)
@given(e=st.lists(st.integers(-MID90.m, MID90.m), min_size=MID90.n,
                  max_size=MID90.n), seed=st.binary(max_size=8))
def test_recorded_ct_trace_is_generated_mid90_any_key(e, seed):
    assert_recorded_is_generated(MID90, [(PrivateKey(e, MID90), seed)])


@pytest.mark.parametrize("params, want", [(TOY, 570), (MID90, 40_068)],
                         ids=["toy419", "mid90"])
def test_ct_schedule_is_the_trace_schedule(params, want):
    sk = random_private_key(params, make_rng(b"schedule-sk"))
    _, ok, trace = action.group_action_ct(PublicKey(0), sk,
                                          make_rng(b"schedule"))
    assert ok
    assert xdbladd_mont_muls(trace) == schedule_xdbladd_mont_muls(params)
    assert schedule_xdbladd_mont_muls(params) == want


@pytest.mark.parametrize("params, want", [(TOY, 140), (MID90, 11_346)],
                         ids=["toy419", "mid90"])
def test_xisog_schedule_is_the_trace_schedule(params, want):
    # `xisog` issues its ops from templates; this count comes from a closed
    # form over `ct_schedule` that no template code produced.
    sk = random_private_key(params, make_rng(b"schedule-sk"))
    _, ok, trace = action.group_action_ct(PublicKey(0), sk,
                                          make_rng(b"schedule"))
    assert ok
    assert xisog_mont_muls(trace) == schedule_xisog_mont_muls(params)
    assert schedule_xisog_mont_muls(params) == want


@pytest.mark.parametrize("act", [action.group_action_ct,
                                 action.group_action_vartime],
                         ids=["ct", "vartime"])
def test_group_actions_share_one_contract(act):
    # Both take (pk, sk, rng, record=True), read the set from the key and
    # return (key, ok, trace); recording changes no value and no DRBG draw.
    assert inspect.signature(action.group_action_ct) == inspect.signature(
        action.group_action_vartime)
    sig = inspect.signature(act)
    assert list(sig.parameters) == ["pk", "sk", "rng", "record"]
    assert sig.parameters["record"].default is True
    for i, e in enumerate(itertools.product((-1, 0, 1), repeat=3)):
        sk, seed = PrivateKey(e, TOY), b"contract-%d" % i
        pk, ok, trace = act(PublicKey(0), sk, make_rng(seed))
        assert ok and len(trace) > 0
        assert act(PublicKey(0), sk, make_rng(seed), record=False) == (
            pk, ok, OpTrace())


def test_ct_trace_differs_from_vartime():
    sk = PrivateKey((1, 0, -1), TOY)
    _, _, t = action.group_action_vartime(PublicKey(0), sk, make_rng(b"v"))
    _, _, tc = action.group_action_ct(PublicKey(0), sk, make_rng(b"v"))
    assert bytes(t.buf) != bytes(tc.buf)


# --- validation --------------------------------------------------------------

def test_validate_basic():
    assert validate_basic(0, TOY)
    assert not validate_basic(2, TOY)
    assert not validate_basic(TOY.p - 2, TOY)
    assert not validate_basic(TOY.p, TOY)
    assert not validate_basic(-1, TOY)


def test_validate_pk_accepts_supersingular():
    assert validate_pk(0, TOY)
    for e in ((1, 0, 0), (0, -1, 1)):
        assert validate_pk(vt(e), TOY)


def test_validate_pk_rejects_singular_and_ordinary():
    assert not validate_pk(2, TOY)
    assert not validate_pk(TOY.p - 2, TOY)
    ordinary = [A for A in range(3, 50)
                if A not in (2, TOY.p - 2)
                and orc.curve_order(A, TOY.p) != TOY.p + 1]
    assert not any(validate_pk(A, TOY) for A in ordinary)


def test_validate_pk_decides_every_toy_curve():
    # One call per coefficient, against the oracle's point count: all 27
    # supersingular curves are accepted and every other A is rejected.
    got = [validate_pk(A, TOY) for A in range(TOY.p)]
    want = [A not in (2, TOY.p - 2) and orc.curve_order(A, TOY.p) == TOY.p + 1
            for A in range(TOY.p)]
    assert got == want
    assert sum(want) == 27


# --- key exchange ------------------------------------------------------------

def test_keygen_zero_key_is_base_curve():
    pk, trace = keygen(PrivateKey((0, 0, 0), TOY), TOY, make_rng(b"k"))
    assert pk.A == 0 and trace is not None


def test_keygen_vartime_path():
    cfg = ActionConfig(constant_time=False)
    pk, trace = keygen(PrivateKey((1, 1, 1), TOY), TOY, make_rng(b"k"), cfg)
    assert pk.A == orc.brute_group_action(0, (1, 1, 1), TOY.primes, TOY.p)
    assert trace is None


def test_shared_secret_agreement_toy():
    for ea, eb in itertools.product([(1, 0, -1), (0, 1, 1)], repeat=2):
        ska, skb = PrivateKey(ea, TOY), PrivateKey(eb, TOY)
        pka, _ = keygen(ska, TOY, make_rng(b"a"))
        pkb, _ = keygen(skb, TOY, make_rng(b"b"))
        sab = shared_secret(ska, pkb, TOY, make_rng(b"1"))
        sba = shared_secret(skb, pka, TOY, make_rng(b"2"))
        assert sab == sba


def test_shared_secret_is_the_traced_action_untraced(monkeypatch):
    # shared_secret runs the ct action untraced; with the same DRBG draws
    # (validate_pk draws none) it lands on the curve a traced
    # group_action_ct reaches, for every toy key.
    peer = PublicKey(vt((1, 0, -1)))
    untraced = []
    real_ct = action.group_action_ct

    def capture(*args, **kwargs):
        result = real_ct(*args, **kwargs)
        untraced.append(result[2])
        return result

    for i, e in enumerate(itertools.product((-1, 0, 1), repeat=3)):
        sk, seed = PrivateKey(e, TOY), b"ss-%d" % i
        pk, ok, trace = real_ct(peer, sk, make_rng(seed))
        assert ok and len(trace) > 0
        monkeypatch.setattr(action, "group_action_ct", capture)
        secret = shared_secret(sk, peer, TOY, make_rng(seed))
        monkeypatch.setattr(action, "group_action_ct", real_ct)
        assert secret.value == pk.A
    # each shared_secret ran one ct action, and it recorded no op
    assert len(untraced) == 27
    assert all(t == OpTrace() for t in untraced)


def test_shared_secret_rejects_invalid_peer():
    sk = PrivateKey((1, 0, 0), TOY)
    with pytest.raises(InvalidPeerKey):
        shared_secret(sk, PublicKey(2), TOY, make_rng(b"x"))
    ordinary = next(A for A in range(3, 50)
                    if orc.curve_order(A, TOY.p) != TOY.p + 1)
    with pytest.raises(InvalidPeerKey):
        shared_secret(sk, PublicKey(ordinary), TOY, make_rng(b"x"))


@pytest.mark.parametrize("constant_time", [True, False])
def test_private_key_for_other_params_rejected(constant_time, monkeypatch):
    # A key is checked against the set by value: csidh512_params() builds a
    # set equal to, but not the same object as, get_params("csidh512").
    # shared_secret blames the private key before it validates the peer.
    # `run_action` takes no set: it acts over `sk.params`.
    def no_validation(*args):
        raise AssertionError("peer validated for a key of another set")

    monkeypatch.setattr(action, "validate_pk", no_validation)
    full = csidh512_params()
    cfg = ActionConfig(constant_time=constant_time)
    toy_sk = PrivateKey((1, -1, 1), TOY)
    full_sk = PrivateKey((1, -1, 1, 5) + (0,) * (full.n - 4), full)
    for sk, params in ((toy_sk, full), (full_sk, TOY)):
        with pytest.raises(InvalidPrivateKey, match=f"not {params.name}"):
            keygen(sk, params, make_rng(b"p"), cfg)
        with pytest.raises(InvalidPrivateKey, match=f"not {params.name}"):
            shared_secret(sk, PublicKey(3), params, make_rng(b"p"), cfg)
    zero = PrivateKey((0,) * full.n, full)
    vt_cfg = ActionConfig(constant_time=False)
    pk, _ = keygen(zero, get_params("csidh512"), make_rng(b"p"), vt_cfg)
    assert pk.A == 0


@pytest.mark.parametrize("constant_time", [True, False])
def test_unvalidated_ordinary_peer_faults(constant_time):
    # Every 13th ordinary toy curve (30 of 390).  Without validation the ct
    # kernel repair used to spin forever, or a codomain with Az = 0 raised
    # InfinityAffinize; both paths must now fail with FaultDetected.
    ordinary = [A for A in range(TOY.p) if validate_basic(A, TOY)
                and orc.curve_order(A, TOY.p) != TOY.p + 1][::13]
    assert len(ordinary) == 30
    sk = PrivateKey((1, 0, -1), TOY)
    cfg = ActionConfig(constant_time=constant_time)
    for A in ordinary:
        with pytest.raises(FaultDetected):
            run_action(PublicKey(A), sk, make_rng(b"%d" % A), cfg)


def test_unvalidated_hostile_peer_faults_at_first_isogeny(monkeypatch, full):
    # On an ordinary csidh512 curve a kernel of the wrong order is reported
    # by xisog's [l]K flag in the first slot, not re-sampled: the round's
    # point pair is the only sampling, so no kernel repair runs.
    sk = random_private_key(full, make_rng(b"hostile-sk"))
    sides = []
    sample = action.sample_point

    def spy_sample(fp, curve, side, rng):
        sides.append(side)
        return sample(fp, curve, side, rng)

    monkeypatch.setattr(action, "sample_point", spy_sample)
    for A in (5, 7, 11):
        sides.clear()
        with pytest.raises(FaultDetected):
            run_action(PublicKey(A), sk, make_rng(b"%d" % A))
        assert sides == [CurveSide.CURVE, CurveSide.TWIST]
