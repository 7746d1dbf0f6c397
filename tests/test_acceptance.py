"""Acceptance criteria, one test per criterion.

Each test emits a single PASS/FAIL verdict line; conftest prints them in an
"acceptance criteria" section at the end of the run so they are readable
straight off the run log.  Full-size CSIDH-512 artifacts are computed once
and shared across criteria.

The 100-keypair full-size agreement check is marked `slow` (deselected by
default); the default run exercises the 10-keypair smoke variant.  The
independent full-size trials (criterion 06's agreements, criterion 07's
keygens) run in up to two worker processes.
"""

import functools
import hashlib
import itertools
import multiprocessing
import os
import pickle
import random
import time

import pytest

from csidhsim import action, oracle as orc
from csidhsim.action import (ActionConfig, PrivateKey, PublicKey, keygen,
                             make_rng, random_private_key, shared_secret,
                             validate_pk)
from csidhsim.datapath import (AluMode, CycleCost, RandomWordRng, csel_add,
                               csel_sub, masked_issue, mont_mul_dp_int,
                               mont_reduce_dp_int, mul_wide)
from csidhsim.fp import Fp, int_to_words, words_to_int
from csidhsim.isogeny import xisog
from csidhsim.mont_curve import ProjCurve, ProjPoint
from csidhsim.params import get_params
from csidhsim.trace import CostTable, CycleLedger, calibrate_overhead
from test_action import (MID90, schedule_xdbladd_mont_muls,
                         schedule_xisog_mont_muls, xdbladd_mont_muls,
                         xisog_mont_muls)

TOY = get_params("toy419")
FULL = get_params("csidh512")

TARGET_FPGA_CYCLES = 103_000_000
MONT_MUL_COUNT_RANGE = (1_000_000, 1_200_000)
RAW_TOLERANCE = 0.30
CALIBRATED_TOLERANCE = 0.05


RESULTS = []


def criterion(num, desc):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                RESULTS.append(f"ACCEPTANCE {num:02d} FAIL: {desc}")
                raise
            RESULTS.append(f"ACCEPTANCE {num:02d} PASS: {desc}")
        return wrapper
    return deco


# The longest a pooled trial may take, ten times criterion 06's agreement
# trial (about 13 s: four keygens and three shared secrets at csidh512).
TRIAL_TIMEOUT_S = 120


def run_trials(trial, args, trial_timeout=TRIAL_TIMEOUT_S):
    """[trial(x) for x in args], in up to two worker processes.

    Workers are spawned, so each imports this module afresh and a trial
    depends only on its argument.  An exception raised in a worker, a
    failed assert included, is raised again here; the pool is shut down
    and its workers joined before this returns.  Each worker loads its
    result back from pickle before returning it, so a result the parent
    could not unpickle fails in the worker with its own exception instead
    of stopping the pool's result handler.  The wait is bounded by
    `trial_timeout` seconds per round of trials; past the bound it raises
    multiprocessing.TimeoutError and the pool is terminated, so the test
    fails instead of hanging.
    """
    workers = min(os.cpu_count() or 1, 2, len(args))
    if workers < 2:
        return [trial(x) for x in args]
    rounds = -(-len(args) // workers)
    with multiprocessing.get_context("spawn").Pool(workers) as pool:
        results = pool.map_async(functools.partial(_reloaded, trial), args,
                                 chunksize=1).get(trial_timeout * rounds)
        pool.close()
        pool.join()
    return results


def _reloaded(trial, x):
    """trial(x), after a round trip through pickle."""
    return pickle.loads(pickle.dumps(trial(x)))


def _trial_fails_at_one(i):
    assert i != 1, "trial 1 failed"
    return i


def test_run_trials_raises_a_worker_failure():
    assert run_trials(_trial_fails_at_one, [0, 2, 3]) == [0, 2, 3]
    with pytest.raises(AssertionError, match="trial 1 failed"):
        run_trials(_trial_fails_at_one, range(4))


def _trial_sleeps(seconds):
    time.sleep(seconds)
    return seconds


def test_run_trials_bounds_its_wait():
    if min(os.cpu_count() or 1, 2) < 2:
        pytest.skip("one CPU: trials run in the test process, unpooled")
    t0 = time.monotonic()
    with pytest.raises(multiprocessing.TimeoutError):
        run_trials(_trial_sleeps, [60, 60], trial_timeout=2)
    assert time.monotonic() - t0 < 30


def _refuse_load():
    raise RuntimeError("this result cannot be loaded")


class _Unloadable:
    def __reduce__(self):
        return _refuse_load, ()


def _trial_unloadable(i):
    return _Unloadable()


def test_run_trials_names_an_unloadable_result():
    # The worker's own load fails, and its error reaches the parent in
    # place of a stalled pool; no worker is left behind.
    if min(os.cpu_count() or 1, 2) < 2:
        pytest.skip("one CPU: trials run in the test process, unpooled")
    t0 = time.monotonic()
    with pytest.raises(RuntimeError, match="cannot be loaded"):
        run_trials(_trial_unloadable, [0, 1], trial_timeout=5)
    assert time.monotonic() - t0 < 30
    assert multiprocessing.active_children() == []


# Shared full-size artifacts: 20 seeded constant-time keygens.
_FULL_KEYGENS = {}


def _full_keygen_trial(i):
    rng = make_rng(b"acceptance-sk-%d" % i)
    sk = random_private_key(FULL, rng)
    pk, ok, trace = action.group_action_ct(
        PublicKey(0), sk, make_rng(b"acceptance-shared-seed"))
    assert ok
    return sk, pk, trace


def full_keygens(indices):
    """The cached keygens for `indices`; the missing ones run as trials."""
    missing = [i for i in indices if i not in _FULL_KEYGENS]
    _FULL_KEYGENS.update(zip(missing, run_trials(_full_keygen_trial, missing)))
    return [_FULL_KEYGENS[i] for i in indices]


def full_keygen(i):
    return full_keygens([i])[0]


@criterion(1, "mul_wide costs exactly 22 (FPGA) / 23 (ASIC) cycles, "
              "value-independent")
def test_criterion_01_mul_wide_latency():
    rnd = random.Random(1)
    cases = [(0, 0), (1, 1), (2**512 - 1, 2**512 - 1), (FULL.p, FULL.p - 1)]
    cases += [(rnd.getrandbits(512), rnd.getrandbits(512))
              for _ in range(1000)]
    for a, b in cases:
        aw, bw = int_to_words(a, 16), int_to_words(b, 16)
        prod, cost = mul_wide(aw, bw, AluMode.FPGA)
        assert cost == CycleCost(22)
        assert words_to_int(prod) == a * b
        assert mul_wide(aw, bw, AluMode.ASIC)[1] == CycleCost(23)


@criterion(2, "mont_mul_dp costs exactly 87 cycles in FPGA mode, "
              "value-independent")
def test_criterion_02_mont_mul_latency():
    rnd = random.Random(2)
    cases = [(0, 0), (1, 1), (FULL.p - 1, FULL.p - 1)]
    cases += [(rnd.randrange(FULL.p), rnd.randrange(FULL.p))
              for _ in range(1000)]
    Rinv = pow(FULL.R, -1, FULL.p)
    for a, b in cases:
        value, cost = mont_mul_dp_int(a, b, FULL, AluMode.FPGA)
        assert cost == CycleCost(87)
        assert value == a * b * Rinv % FULL.p


@criterion(3, "fp and datapath add/sub/mul/redc match the bignum oracle "
              "(>=1e5 random cases per parameter set, zero mismatches)")
def test_criterion_03_arithmetic_oracle():
    rnd = random.Random(3)
    for params in (TOY, FULL):
        fp = Fp(params)
        p, R = params.p, params.R
        Rinv = pow(R, -1, p)
        edges = [0, 1, p - 2, p - 1]
        pairs = [(a, b) for a in edges for b in edges]
        pairs += [(rnd.randrange(p), rnd.randrange(p)) for _ in range(25_000)]
        for a, b in pairs:
            assert fp.add(a, b) == (a + b) % p
            assert fp.sub(a, b) == (a - b) % p
            assert fp.mul(a, b) == a * b * Rinv % p
        for _ in range(25_000):
            T = rnd.randrange(p * R)
            assert fp.redc(T) == orc.naive_redc(T, p, R)
        # word-level datapath on sampled subsets (bit-identical to fp)
        n = params.n_words
        for _ in range(2_000):
            a, b = rnd.randrange(p), rnd.randrange(p)
            assert mont_mul_dp_int(a, b, params)[0] == fp.mul(a, b)
        width = params.width
        for _ in range(10_000):
            a, b = rnd.getrandbits(width), rnd.getrandbits(width)
            aw, bw = int_to_words(a, n), int_to_words(b, n)
            s, c, _ = csel_add(aw, bw)
            assert words_to_int(s) + (c << width) == a + b
            d, w, _ = csel_sub(aw, bw)
            assert words_to_int(d) - (w << width) == a - b
        for _ in range(3_000):
            a, b = rnd.getrandbits(width), rnd.getrandbits(width)
            prod, _ = mul_wide(int_to_words(a, n), int_to_words(b, n))
            assert words_to_int(prod) == a * b
    # word-level MONT_REDUCE on a sampled subset (bit-identical to fp.redc)
    for params in (TOY, FULL):
        fp = Fp(params)
        for _ in range(2_000):
            T = rnd.randrange(params.p * params.R)
            assert mont_reduce_dp_int(T, params)[0] == fp.redc(T)


@criterion(4, "xisog codomain and point image match the Velu oracle for "
              "every kernel, l in {3,5,7}, exhaustively over F_419")
def test_criterion_04_velu_equivalence():
    fp = Fp(TOY)
    p = TOY.p
    for A in (0, 6, 158, 390):
        points, _ = orc.enumerate_curve(A, p)
        for l in TOY.primes:
            kernels = [P for P in points if orc.point_order(P, A, p) == l]
            assert kernels   # every supersingular curve has full l-torsion
            for K in kernels:
                A_ref, phi = orc.velu_isogeny(A, K, l, p)
                ev = next(P for P in points
                          if P.x != 0 and orc.scalar_mul(l, P, A, p)
                          is not orc.INFINITY)
                curve = ProjCurve(fp.to_mont(A), 1)
                Kp = ProjPoint(fp.to_mont(K.x), 1)
                Pp = ProjPoint(fp.to_mont(ev.x), 1)
                curve2, (img,), fault = xisog(fp, curve, [Pp], Kp, l)
                assert not fault
                a_z = pow(fp.from_mont(curve2.Az), -1, p)
                assert fp.from_mont(curve2.Ax) * a_z % p == A_ref
                i_z = pow(fp.from_mont(img.Z), -1, p)
                assert fp.from_mont(img.X) * i_z % p == phi(ev).x


@criterion(5, "group_action_ct == group_action_vartime == brute-force "
              "oracle for all 27 toy keys")
def test_criterion_05_action_path_equivalence():
    for e in itertools.product((-1, 0, 1), repeat=3):
        sk = PrivateKey(e, TOY)
        ref = orc.brute_group_action(0, e, TOY.primes, TOY.p)
        pkv, okv, _ = action.group_action_vartime(
            PublicKey(0), sk, make_rng(b"v" + bytes(8)))
        pkc, okc, _ = action.group_action_ct(
            PublicKey(0), sk, make_rng(b"c" + bytes(8)))
        assert okv and okc
        assert pkv.A == ref and pkc.A == ref


def _agreement_trial(i):
    rng = make_rng(b"agree-%d" % i)
    ska = random_private_key(FULL, rng)
    skb = random_private_key(FULL, rng)
    ct = ActionConfig(constant_time=True)
    vt = ActionConfig(constant_time=False)
    pka_ct, _ = keygen(ska, FULL, make_rng(b"ra%d" % i), ct)
    pkb_ct, _ = keygen(skb, FULL, make_rng(b"rb%d" % i), ct)
    pka_vt, _ = keygen(ska, FULL, make_rng(b"rc%d" % i), vt)
    pkb_vt, _ = keygen(skb, FULL, make_rng(b"rd%d" % i), vt)
    assert pka_ct.A == pka_vt.A and pkb_ct.A == pkb_vt.A
    s_ab = shared_secret(ska, pkb_ct, FULL, make_rng(b"s1%d" % i), ct)
    s_ba = shared_secret(skb, pka_ct, FULL, make_rng(b"s2%d" % i), ct)
    s_ab_vt = shared_secret(ska, pkb_vt, FULL, make_rng(b"s3%d" % i), vt)
    assert s_ab == s_ba == s_ab_vt


@criterion(6, "CSIDH-512 key agreement, ct and vartime paths "
              "(10-keypair smoke variant)")
def test_criterion_06_key_agreement_smoke():
    run_trials(_agreement_trial, range(10))


@pytest.mark.slow
@criterion(6, "CSIDH-512 key agreement, ct and vartime paths "
              "(full 100-keypair variant)")
def test_criterion_06_key_agreement_full():
    run_trials(_agreement_trial, range(10, 110))


@criterion(7, "ct traces byte-identical across 20 CSIDH-512 keys with a "
              "fixed seed; per-prime isogeny budget exactly m")
def test_criterion_07_trace_invariance(monkeypatch, tmp_path):
    digests = {trace.digest() for _, _, trace in full_keygens(range(20))}
    assert len(digests) == 1
    # spot byte-compare via the exported trace files
    f1, f2 = tmp_path / "k0.trace", tmp_path / "k1.trace"
    full_keygen(0)[2].dump(f1)
    full_keygen(1)[2].dump(f2)
    assert f1.read_bytes() == f2.read_bytes()
    # isogeny budget: every prime sees exactly m real+dummy isogenies
    calls = []
    real_xisog = action.xisog

    def counting(fp, curve, points, K, l):
        calls.append(l)
        return real_xisog(fp, curve, points, K, l)

    monkeypatch.setattr(action, "xisog", counting)
    for e in ((0,) * FULL.n, (5,) + (0,) * (FULL.n - 1),
              tuple((-1) ** i * (i % 6) for i in range(FULL.n))):
        calls.clear()
        _, ok, _ = action.group_action_ct(
            PublicKey(0), PrivateKey(e, FULL), make_rng(b"budget"))
        assert ok
        assert all(calls.count(l) == FULL.m for l in FULL.primes)


@criterion(8, "keygen cycle estimate: raw within 30% of 1.03e8, calibrated "
              "within 5%; MONT_MUL count in [1.0e6, 1.2e6]")
def test_criterion_08_cycle_estimate():
    ledger = CycleLedger(full_keygen(0)[2])
    raw = ledger.total_cycles("fpga")
    assert abs(raw - TARGET_FPGA_CYCLES) <= RAW_TOLERANCE * TARGET_FPGA_CYCLES
    table = CostTable()
    table.overhead["fpga"] = calibrate_overhead(
        ledger, TARGET_FPGA_CYCLES, "fpga")
    calibrated = CycleLedger(full_keygen(0)[2], table).total_cycles("fpga")
    assert abs(calibrated - TARGET_FPGA_CYCLES) <= \
        CALIBRATED_TOLERANCE * TARGET_FPGA_CYCLES
    count = ledger.opcode_counts()["MONT_MUL"]
    assert MONT_MUL_COUNT_RANGE[0] <= count <= MONT_MUL_COUNT_RANGE[1]
    # published latencies are frequency division over the cycle totals
    assert abs(calibrated / 200e6 - 0.515) <= 0.05 * 0.515
    assert ledger.module_cycles("fpga")  # breakdown available


@criterion(9, "serialized CSIDH-512 public-key payload is exactly 64 bytes")
def test_criterion_09_public_key_size():
    pk = full_keygen(0)[1]
    raw = pk.to_bytes(FULL)
    assert len(raw) - len(b"CSIDHPK1") - 1 == 64
    got, params = PublicKey.from_bytes(raw)
    assert got.A == pk.A and params is FULL


@criterion(10, "validate_pk accepts the base curve and honest keys; rejects "
               "singular and ordinary coefficients")
def test_criterion_10_validation():
    assert validate_pk(0, TOY)
    assert validate_pk(0, FULL)
    rng = make_rng(b"honest")
    for i in range(100):
        sk = random_private_key(TOY, rng)
        pk, ok, _ = action.group_action_vartime(PublicKey(0), sk,
                                                make_rng(b"h%d" % i))
        assert ok and validate_pk(pk.A, TOY)
    for i in range(3):   # full-size honest keys from the shared cache
        assert validate_pk(full_keygen(i)[1].A, FULL)
    for params in (TOY, FULL):
        assert not validate_pk(2, params)
        assert not validate_pk(params.p - 2, params)
    ordinary = [A for A in range(3, 60)
                if A not in (2, TOY.p - 2)
                and orc.enumerate_curve(A, TOY.p)[1] != TOY.p + 1]
    assert ordinary
    for A in ordinary:
        assert not validate_pk(A, TOY)


@criterion(11, "fault flag: 1000/1000 corrupted kernels detected, "
               "0/1000 false positives")
def test_criterion_11_fault_detection():
    fp = Fp(TOY)
    rnd = random.Random(11)
    points, _ = orc.enumerate_curve(0, TOY.p)
    by_order = {}
    for P in points:
        by_order.setdefault(orc.point_order(P, 0, TOY.p), []).append(P)
    curve = ProjCurve(fp.to_mont(0), 1)
    detected = clean = 0
    for _ in range(1000):
        l = rnd.choice(TOY.primes)
        K = rnd.choice(by_order[l])
        Kp = ProjPoint(fp.to_mont(K.x), 1)
        clean += not xisog(fp, curve, [], Kp, l)[2]
        wrong = rnd.choice([P for o, pts in by_order.items() if o != l
                            for P in pts if P.x != 0])
        Wp = ProjPoint(fp.to_mont(wrong.x), 1)
        detected += xisog(fp, curve, [], Wp, l)[2]
    assert clean == 1000
    assert detected == 1000


@criterion(12, "masked ALU: all three sub-units active every cycle; masked "
               "results equal unmasked results")
def test_criterion_12_masked_alu():
    rnd = random.Random(12)
    a = int_to_words(rnd.getrandbits(512), 16)
    b = int_to_words(rnd.getrandbits(512), 16)
    plain = {"ADD": csel_add(a, b), "SUB": csel_sub(a, b),
             "MUL": mul_wide(a, b)}
    activities = {}
    for op in ("ADD", "SUB", "MUL"):
        masked, activity = masked_issue(op, (a, b), RandomWordRng(op))
        assert masked == plain[op]
        assert activity.all_units_always_active()
        activities[op] = activity
    # 2-cycle ops share one activity shape; FPGA MUL differs only in length
    assert activities["ADD"] == activities["SUB"]
    assert all(all(flags) for flags in activities["MUL"].cycles)


# Observable outputs for acceptance-sk-0 under the shared seed, pinned so a
# refactor of the arithmetic, curve, isogeny, action or ledger layers cannot
# change the trace, the public key or the cycle ledger without failing here.
PINNED = {
    "csidh512": {
        "digest": "56f7ec37327885f105da13c3802f9361"
                  "a9c68708591b2ee9b74c84806ce0832d",
        "A": int("598cce5566e442ec9c642476387ad48ffa1c126045181257431f67d1"
                 "e8af59dbea439dd68c729297cce6249b2d4471cc0db425866ba971e6"
                 "62348fd39cbde55a", 16),
        "dump": "ffcfaec2d457a1ef8361e6df40250259"
                "5689bbabedf9300017aa6d7b342f0d85",
        "total": {"fpga": 104_299_433, "asic": 106_627_178},
        "modules": {
            "fpga": {"CSIDH": 174, "xAffinize": 2_316_266,
                     "xDBLADD": 67_325_778, "xISOG": 30_204_590,
                     "xTWIST": 4_452_625},
            "asic": {"CSIDH": 178, "xAffinize": 2_369_513,
                     "xDBLADD": 68_821_662, "xISOG": 30_880_850,
                     "xTWIST": 4_554_975},
        },
    },
    "toy419": {
        "digest": "e8e4c03ab36071c41af3aab7ef81b1d5"
                  "b36c84d0e294d390ab5c894e50a3a72b",
        "A": 6,
        "dump": "1ff8c47be650cd29de18b926d5a894f5"
                "78ba77fec951bb7c0f07d0ca20ac3e0d",
        "total": {"fpga": 70_711, "asic": 72_292},
        "modules": {
            "fpga": {"CSIDH": 174, "xAffinize": 3_458, "xDBLADD": 51_214,
                     "xISOG": 12_456, "xTWIST": 3_409},
            "asic": {"CSIDH": 178, "xAffinize": 3_537, "xDBLADD": 52_354,
                     "xISOG": 12_736, "xTWIST": 3_487},
        },
    },
    # 89,788 ops over two ct batches, where toy419 runs one.
    "mid90": {
        "digest": "e7777b15f9bf5f0e56995373a89c1503"
                  "b1e35e81c11bbc8a7addd8917e620514",
        "A": 0x1466ba3a3ca0eb200e95709,
        "dump": "b31d227ef949fc929df0f7d967c96e55"
                "353ce6216020075b8c3650e307f5e24f",
        "total": {"fpga": 4_913_174, "asic": 5_022_909},
        "modules": {
            "fpga": {"CSIDH": 174, "xAffinize": 110_816,
                     "xDBLADD": 3_600_744, "xISOG": 1_011_858,
                     "xTWIST": 189_582},
            "asic": {"CSIDH": 178, "xAffinize": 113_363,
                     "xDBLADD": 3_680_880, "xISOG": 1_034_550,
                     "xTWIST": 193_938},
        },
    },
}


def test_pinned_trace_key_and_ledger(tmp_path):
    _, pk, trace = full_keygen(0)
    runs = {"csidh512": (pk, trace)}
    for params in (TOY, MID90):
        sk = random_private_key(params, make_rng(b"acceptance-sk-0"))
        pk, ok, trace = action.group_action_ct(
            PublicKey(0), sk, make_rng(b"acceptance-shared-seed"))
        assert ok
        runs[params.name] = (pk, trace)
    for name, (pk, trace) in runs.items():
        want = PINNED[name]
        assert trace.digest() == want["digest"], name
        assert pk.A == want["A"], name
        path = tmp_path / f"{name}.trace"
        trace.dump(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want["dump"]
        ledger = CycleLedger(trace)
        for mode in ("fpga", "asic"):
            assert ledger.total_cycles(mode) == want["total"][mode]
            assert ledger.module_cycles(mode) == want["modules"][mode]


def test_ct_schedule_is_the_trace_schedule_full():
    # The cached csidh512 keygen's xDBLADD MONT_MULs match the count from
    # `ct_schedule`: 46,451 ladder steps x 12 + 31,755 kernel-multiple
    # steps x 6.
    trace = full_keygen(0)[2]
    assert xdbladd_mont_muls(trace) == schedule_xdbladd_mont_muls(FULL)
    assert schedule_xdbladd_mont_muls(FULL) == 747_942


def test_xisog_schedule_is_the_trace_schedule_full():
    # The cached csidh512 keygen's xISOG MONT_MULs match the closed form
    # over `ct_schedule`.
    trace = full_keygen(0)[2]
    assert xisog_mont_muls(trace) == schedule_xisog_mont_muls(FULL)
    assert schedule_xisog_mont_muls(FULL) == 338_130


def test_recorded_ct_trace_is_generated_full():
    # The cached csidh512 keygen's trace is the one `action.ct_trace`
    # generates from `ct_schedule`, byte for byte.
    assert full_keygen(0)[2] == action.ct_trace(FULL)
