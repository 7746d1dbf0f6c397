"""Group action, sampling, validation, and key serialization (toy-scale)."""

import itertools
import sys

import pytest

from csidhsim import action, oracle as orc
from csidhsim.action import (ActionConfig, Drbg, FaultDetected, InvalidPeerKey,
                             InvalidPrivateKey, PrivateKey, PublicKey,
                             RngFailure, keygen, make_rng, random_private_key,
                             run_action, sample_point, shared_secret,
                             validate_basic, validate_pk)
from csidhsim.fp import Fp
from csidhsim.mont_curve import (CurveSide, InfinityAffinize, ProjCurve,
                                 xtwist)
from csidhsim.params import CsidhParams, csidh512_params, get_params
from csidhsim.trace import OpTrace

TOY = get_params("toy419")


def ct(e, seed=b"ct"):
    sk = PrivateKey(e, TOY)
    pk, ok, trace = action.group_action_ct(PublicKey(0), sk, TOY,
                                           make_rng(seed))
    assert ok
    return pk.A, trace


def vt(e, seed=b"vt"):
    sk = PrivateKey(e, TOY)
    pk, ok = action.group_action_vartime(PublicKey(0), sk, TOY,
                                         make_rng(seed))
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


def test_private_key_roundtrip():
    sk = PrivateKey((-1, 0, 1), TOY)
    raw = sk.to_bytes()
    assert raw[:8] == b"CSIDHSK1" and len(raw) == 8 + 1 + 3
    assert PrivateKey.from_bytes(raw) == sk
    with pytest.raises(ValueError):
        PrivateKey.from_bytes(b"NOTAKEY1" + raw[8:])


def test_public_key_roundtrip():
    pk = PublicKey(390)
    raw = pk.to_bytes(TOY)
    assert raw[:8] == b"CSIDHPK1" and len(raw) == 8 + 1 + TOY.byte_length
    got, params = PublicKey.from_bytes(raw)
    assert got.A == 390 and params is TOY
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
    """E_0 as a projective curve, and its affine Montgomery-domain A."""
    return ProjCurve(fp.to_mont(0), fp.one), fp.to_mont(0)


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
    A = fp.to_mont(0)
    curve_xs = sum(1 for x in range(1, TOY.p)
                   if xtwist(fp, fp.to_mont(x), A) is CurveSide.CURVE)
    p_hit = curve_xs / (TOY.p - 1)
    n = 1000
    rng = make_rng(b"rate")
    hits = 0
    for _ in range(n):
        x = 0
        while x == 0:
            x = rng.below(TOY.p)
        hits += xtwist(fp, fp.to_mont(x), A) is CurveSide.CURVE
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
        sample_point(fp, ProjCurve(fp.one, 0), CurveSide.CURVE,
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
        if x and xtwist(plain, plain.to_mont(x), A) is CurveSide.TWIST:
            break
        rejected += 1
    assert rejected == 4

    got = OpTrace()
    P = sample_point(Fp(TOY, got), curve, CurveSide.TWIST,
                     make_rng(bytes([0])))
    assert P.X == plain.to_mont(x)
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
            events.append(("repair", sys._getframe(1).f_locals["other"]))
        return ok

    def spy_sample(*args):
        events.append(("sample_point", None))
        return sample(*args)

    def spy_pair(*args):
        events.append(("pair", None))
        return pair(*args)

    def spy_isog(fp, curve, points, K, l):
        events.append(("xisog", points[1]))
        return isog(fp, curve, points, K, l)

    monkeypatch.setattr(action, "_kernel_ok", spy_kernel_ok)
    monkeypatch.setattr(action, "sample_point", spy_sample)
    monkeypatch.setattr(action, "_sample_pair", spy_pair)
    monkeypatch.setattr(action, "xisog", spy_isog)
    sk = random_private_key(TOY, make_rng(b"acceptance-sk-0"))
    pk, ok, _ = action.group_action_ct(PublicKey(0), sk, TOY,
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
    pk, ok, _ = action.group_action_ct(PublicKey(0), sk, TOY,
                                       make_rng(b"acceptance-shared-seed"))
    assert ok and pk.A == 6
    assert calls["repair"] >= 1 and calls["pair"] >= 1
    assert per_pair == [2] * calls["pair"]
    assert calls["xtwist"] == 2 * calls["pair"]

    calls["xtwist"] = 0
    pk, ok = action.group_action_vartime(PublicKey(0), sk, TOY,
                                         make_rng(b"acceptance-shared-seed"))
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
        pkv, okv = action.group_action_vartime(PublicKey(A0), sk, TOY,
                                               make_rng(b"i"))
        pkc, okc, _ = action.group_action_ct(PublicKey(A0), sk, TOY,
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
    end, ok = action.group_action_vartime(PublicKey(mid), sk2, TOY,
                                          make_rng(b"c"))
    assert ok
    assert end.A == orc.brute_group_action(0, total, TOY.primes, TOY.p)


def test_invalid_input_returns_failure():
    sk = PrivateKey((1, 0, 0), TOY)
    key, ok = action.group_action_vartime(PublicKey(2), sk, TOY,
                                          make_rng(b"x"))
    assert (key, ok) == (None, False)
    key, ok, _ = action.group_action_ct(PublicKey(TOY.p - 2), sk, TOY,
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
    # p = 4*3*5*...*71 - 1 is a 90-bit prime.  Its 19 primes exceed
    # BATCH_LIMIT, so the ct schedule runs two batches, and with m = 3 one
    # prime can get both real and dummy slots, which toy419 never does.
    mid = CsidhParams("mid90", (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41,
                                43, 47, 53, 59, 61, 67, 71), 3)
    assert mid.n > action.BATCH_LIMIT
    assert (mid.p.bit_length(), mid.n_words) == (90, 3)
    calls = []
    real_xisog = action.xisog

    def counting(fp, curve, points, K, l):
        calls.append(l)
        return real_xisog(fp, curve, points, K, l)

    monkeypatch.setattr(action, "xisog", counting)
    traces = set()
    for i in range(10):
        sk = random_private_key(mid, make_rng(b"mid90-sk-%d" % i))
        calls.clear()
        pk, ok, trace = action.group_action_ct(PublicKey(0), sk, mid,
                                               make_rng(b"mid90-ct-%d" % i))
        assert ok
        assert all(calls.count(l) == mid.m for l in mid.primes)
        traces.add(bytes(trace.buf))
        vt_pk, ok = action.group_action_vartime(
            PublicKey(0), sk, mid, make_rng(b"mid90-vt-%d" % i))
        assert ok and vt_pk == pk
    assert [len(t) for t in traces] == [89_788]


def test_ct_trace_differs_from_vartime():
    from csidhsim.trace import OpTrace
    sk = PrivateKey((1, 0, -1), TOY)
    t = OpTrace()
    action.group_action_vartime(PublicKey(0), sk, TOY, make_rng(b"v"),
                                trace=t)
    _, _, tc = action.group_action_ct(PublicKey(0), sk, TOY, make_rng(b"v"))
    assert bytes(t.buf) != bytes(tc.buf)


# --- validation --------------------------------------------------------------

def test_validate_basic():
    assert validate_basic(0, TOY)
    assert not validate_basic(2, TOY)
    assert not validate_basic(TOY.p - 2, TOY)
    assert not validate_basic(TOY.p, TOY)
    assert not validate_basic(-1, TOY)


def validate_thrice(A, rng):
    """validate_pk on three points drawn in turn from one rng."""
    return all(validate_pk(A, TOY, rng) for _ in range(3))


def test_validate_pk_accepts_supersingular():
    assert validate_pk(0, TOY, make_rng(b"v"))
    for e in ((1, 0, 0), (0, -1, 1)):
        assert validate_thrice(vt(e), make_rng(b"v"))


def test_validate_pk_rejects_singular_and_ordinary():
    assert not validate_pk(2, TOY, make_rng(b"v"))
    assert not validate_pk(TOY.p - 2, TOY, make_rng(b"v"))
    ordinary = [A for A in range(3, 50)
                if A not in (2, TOY.p - 2)
                and orc.curve_order(A, TOY.p) != TOY.p + 1]
    rejected = sum(not validate_thrice(A, make_rng(b"v")) for A in ordinary)
    assert rejected == len(ordinary)


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


def test_shared_secret_rejects_invalid_peer():
    sk = PrivateKey((1, 0, 0), TOY)
    with pytest.raises(InvalidPeerKey):
        shared_secret(sk, PublicKey(2), TOY, make_rng(b"x"))
    ordinary = next(A for A in range(3, 50)
                    if orc.curve_order(A, TOY.p) != TOY.p + 1)
    with pytest.raises(InvalidPeerKey):
        shared_secret(sk, PublicKey(ordinary), TOY, make_rng(b"x"))


@pytest.mark.parametrize("constant_time", [True, False])
def test_private_key_for_other_params_rejected(constant_time):
    # A key is checked against the set by value: csidh512_params() builds a
    # set equal to, but not the same object as, get_params("csidh512").
    full = csidh512_params()
    cfg = ActionConfig(constant_time=constant_time)
    toy_sk = PrivateKey((1, -1, 1), TOY)
    full_sk = PrivateKey((1, -1, 1, 5) + (0,) * (full.n - 4), full)
    for sk, params in ((toy_sk, full), (full_sk, TOY)):
        with pytest.raises(InvalidPrivateKey, match=f"not {params.name}"):
            run_action(PublicKey(0), sk, params, make_rng(b"p"), cfg)
    zero = PrivateKey((0,) * full.n, full)
    vt_cfg = ActionConfig(constant_time=False)
    pk, _ = run_action(PublicKey(0), zero, get_params("csidh512"),
                       make_rng(b"p"), vt_cfg)
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
            run_action(PublicKey(A), sk, TOY, make_rng(b"%d" % A), cfg)


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
            run_action(PublicKey(A), sk, full, make_rng(b"%d" % A))
        assert sides == [CurveSide.CURVE, CurveSide.TWIST]
