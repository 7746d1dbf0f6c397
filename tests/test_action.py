"""Group action, sampling, validation, and key serialization (toy-scale)."""

import itertools

import pytest

from csidhsim import action, oracle as orc
from csidhsim.action import (ActionConfig, Drbg, FaultDetected, InvalidPeerKey,
                             PrivateKey, PublicKey, RngFailure, keygen,
                             make_rng, random_private_key, sample_point,
                             shared_secret, validate_basic, validate_pk)
from csidhsim.fp import Fp
from csidhsim.mont_curve import CurveSide, xtwist
from csidhsim.params import get_params

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
    assert [a.word() for _ in range(8)] == [b.word() for _ in range(8)]
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

def test_sample_point_side_postcondition():
    fp = Fp(TOY)
    A = fp.to_mont(0)
    rng = make_rng(b"pts")
    for side in (CurveSide.CURVE, CurveSide.TWIST):
        for _ in range(500):
            P = sample_point(fp, A, side, rng)
            assert xtwist(fp, P.X, A) is side


def test_sample_point_deterministic():
    fp = Fp(TOY)
    A = fp.to_mont(0)
    xs1 = [sample_point(fp, A, CurveSide.CURVE, make_rng(bytes([i]))).X
           for i in range(10)]
    xs2 = [sample_point(fp, A, CurveSide.CURVE, make_rng(bytes([i]))).X
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
    A = fp.to_mont(0)
    with pytest.raises(RngFailure):
        sample_point(fp, A, CurveSide.TWIST, StuckRng())


# --- action paths ------------------------------------------------------------

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
    _, ok = action.group_action_vartime(PublicKey(2), sk, TOY, make_rng(b"x"))
    assert not ok
    _, ok, _ = action.group_action_ct(PublicKey(TOY.p - 2), sk, TOY,
                                      make_rng(b"x"))
    assert not ok


def test_ct_isogeny_budget_is_exactly_m(monkeypatch):
    calls = []
    real_xisog = action.xisog

    def counting(fp, curve, points, K, l, fault_check=True):
        calls.append(l)
        return real_xisog(fp, curve, points, K, l, fault_check)

    monkeypatch.setattr(action, "xisog", counting)
    for e in ((0, 0, 0), (1, -1, 0), (-1, -1, -1)):
        calls.clear()
        ct(e)
        for l in TOY.primes:
            assert calls.count(l) == TOY.m


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


def test_validate_pk_accepts_supersingular():
    assert validate_pk(0, TOY, make_rng(b"v"))
    for e in ((1, 0, 0), (0, -1, 1)):
        assert validate_pk(vt(e), TOY, make_rng(b"v"), rounds=3)


def test_validate_pk_rejects_singular_and_ordinary():
    assert not validate_pk(2, TOY, make_rng(b"v"))
    assert not validate_pk(TOY.p - 2, TOY, make_rng(b"v"))
    ordinary = [A for A in range(3, 50)
                if A not in (2, TOY.p - 2)
                and orc.enumerate_curve(A, TOY.p)[1] != TOY.p + 1]
    rejected = sum(not validate_pk(A, TOY, make_rng(b"v"), rounds=3)
                   for A in ordinary)
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
                    if orc.enumerate_curve(A, TOY.p)[1] != TOY.p + 1)
    with pytest.raises(InvalidPeerKey):
        shared_secret(sk, PublicKey(ordinary), TOY, make_rng(b"x"))


@pytest.mark.parametrize("constant_time", [True, False])
def test_unvalidated_ordinary_peer_faults(constant_time):
    # Every 13th ordinary toy curve (30 of 390).  Without validation the ct
    # kernel repair used to spin forever, or a codomain with Az = 0 raised
    # InfinityAffinize; both paths must now fail with FaultDetected.
    ordinary = [A for A in range(TOY.p) if validate_basic(A, TOY)
                and orc.enumerate_curve(A, TOY.p)[1] != TOY.p + 1][::13]
    assert len(ordinary) == 30
    sk = PrivateKey((1, 0, -1), TOY)
    cfg = ActionConfig(constant_time=constant_time)
    for A in ordinary:
        with pytest.raises(FaultDetected):
            shared_secret(sk, PublicKey(A), TOY, make_rng(b"%d" % A), cfg,
                          validate=False)
