"""The benchmark's four workloads, each a closed loop in one thread.

A workload draws its private keys, DRBG seeds and operands from a
``random.Random`` seeded with (workload name, seed); the library only
receives them.  Every correctness gate counts into ``Run.failed`` instead of
raising, so a run always reports how many of its operations failed.

Workloads call the library through module attributes (``action.keygen``,
``oracle.brute_group_action``, ...) so the traced run can wrap them there.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, NamedTuple

from csidhsim import action, datapath, oracle
from csidhsim import trace as trace_mod
from csidhsim.fp import Fp, int_to_words, words_to_int
from csidhsim.params import get_params

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())
MODES = ("fpga", "asic")

# What a failing library call raises; anything else is a benchmark bug and
# propagates.
OP_ERRORS = (action.FaultDetected, action.InvalidPeerKey, action.RngFailure,
             ValueError, ZeroDivisionError)

clock = time.perf_counter


class Run:
    """Samples, gate outcomes and model invariants of one pass."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.samples = defaultdict(list)      # name -> [(start, end)]
        self.sim_ops = 0                      # ops in the ct traces made
        self.attempted = 0
        self.failed = 0
        self.failures = Counter()             # gate name -> failures
        self.invariants = {}

    def check(self, ok: bool, gate: str) -> bool:
        if not ok:
            self.failed += 1
            self.failures[gate] += 1
        return ok


class Budget:
    """Whether to start another unit of work.

    The first unit always runs.  With ``units`` the loop stops after that
    many; otherwise a unit starts only while one of average length still
    ends by the deadline.
    """

    def __init__(self, seconds: float | None = None, units: int | None = None):
        self.seconds = seconds
        self.units = units
        self.done = 0
        self.t0 = clock()

    def more(self) -> bool:
        if self.done == 0:
            return True
        if self.units is not None:
            return self.done < self.units
        elapsed = clock() - self.t0
        return elapsed * (self.done + 1) / self.done <= self.seconds


def inputs(workload: str, seed: int) -> random.Random:
    return random.Random(f"csidhsim-perfbench:{workload}:{seed}")


def _private_key(rnd: random.Random, params) -> action.PrivateKey:
    m = params.m
    return action.PrivateKey(
        tuple(rnd.randint(-m, m) for _ in range(params.n)), params)


def _file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _check_trace(run: Run, trace, expect: dict, state: dict) -> None:
    """Gate a ct trace: the first one of the pass against the pinned model
    invariants, every later one byte-for-byte against the first."""
    first = state.get("trace")
    if first is not None:
        run.check(trace.buf == first.buf, "ct traces differ")
        return
    state["trace"] = trace
    opcodes = trace_mod.CycleLedger(trace).opcode_counts()
    run.invariants.update(trace_sha256=trace.digest(), trace_ops=len(trace),
                          opcodes=dict(sorted(opcodes.items())))
    run.check(trace.digest() == expect["trace_sha256"], "trace digest")
    run.check(len(trace) == expect["trace_ops"], "trace ops")
    run.check(opcodes == expect["opcodes"], "opcode counts")


def _check_cycles(run: Run, cycles: dict, expect: dict) -> None:
    run.invariants["sim_cycles"] = cycles
    run.check(cycles == expect["sim_cycles"], "sim cycles")


def _price(trace) -> dict:
    ledger = trace_mod.CycleLedger(trace)
    return {mode: ledger.total_cycles(mode) for mode in MODES}


# --- exchanges ---------------------------------------------------------------

def _exchange_once(run, rnd, params, cfg, expect, state, dump_path):
    parties = [(_private_key(rnd, params), action.make_rng(rnd.randbytes(32)))
               for _ in range(2)]
    pks = []
    for sk, rng in parties:
        run.attempted += 1
        t0 = clock()
        pk, trace = action.keygen(sk, params, rng, cfg)
        span = (t0, clock())
        run.samples["keygen_s"].append(span)
        pks.append(pk)
        if trace is not None:
            run.samples["ct_action_s"].append(span)
            run.sim_ops += len(trace)
            _check_trace(run, trace, expect, state)

    if expect is not None:
        # Price one keygen trace (the other is gated byte-identical to it).
        run.attempted += 1
        t0 = clock()
        cycles = _price(trace)
        trace.dump(dump_path)
        run.samples["estimate_s"].append((t0, clock()))
        _check_cycles(run, cycles, expect)
        dump_sha = _file_sha256(dump_path)
        run.invariants["dump_sha256"] = dump_sha
        run.check(dump_sha == expect["dump_sha256"], "trace dump")

    secrets = []
    for (sk, rng), peer in zip(parties, reversed(pks)):
        run.attempted += 1
        raw = peer.to_bytes(params)
        t0 = clock()
        parsed, parsed_params = action.PublicKey.from_bytes(raw)
        secret = action.shared_secret(sk, parsed, params, rng, cfg)
        run.samples["dh_s"].append((t0, clock()))
        run.check(parsed_params is params and parsed.A == peer.A,
                  "public key round trip")
        secrets.append(secret)
    run.check(secrets[0] == secrets[1], "shared secrets differ")


def _exchange(run, rnd, budget, params_name, constant_time):
    params = get_params(params_name)
    cfg = action.ActionConfig(constant_time=constant_time)
    expect = EXPECTED["traces"][params.name] if constant_time else None
    state = {}
    run.out_dir.mkdir(parents=True, exist_ok=True)
    dump_path = run.out_dir / f"{params.name}-keygen.trace"
    try:
        while budget.more():
            try:
                _exchange_once(run, rnd, params, cfg, expect, state, dump_path)
            except OP_ERRORS as exc:
                run.check(False, f"exchange raised {type(exc).__name__}")
            budget.done += 1
    finally:
        dump_path.unlink(missing_ok=True)


def ct_exchange(run, rnd, budget, params_name="csidh512"):
    """Two parties: ct keygen, price + dump the trace, round-trip the public
    keys, validated shared secrets."""
    _exchange(run, rnd, budget, params_name, constant_time=True)


def vartime_exchange(run, rnd, budget, params_name="csidh512"):
    """The same exchange with the variable-time action and no pricing."""
    _exchange(run, rnd, budget, params_name, constant_time=False)


# --- toy419 exhaustive sweep ---------------------------------------------------

def toy_verify(run, rnd, budget):
    """Every toy private key, in a seed-shuffled order per sweep: ct action,
    vartime action, brute-force oracle and ledger must all agree."""
    params = get_params("toy419")
    expect = EXPECTED["traces"][params.name]
    ct_cfg = action.ActionConfig()
    vt_cfg = action.ActionConfig(constant_time=False)
    keys = list(itertools.product(range(-params.m, params.m + 1),
                                  repeat=params.n))
    state = {}
    pending = []
    while budget.more():
        if not pending:
            pending = keys[:]
            rnd.shuffle(pending)
        e = pending.pop()
        sk = action.PrivateKey(e, params)
        ct_rng = action.make_rng(rnd.randbytes(16))
        vt_rng = action.make_rng(rnd.randbytes(16))
        run.attempted += 1
        try:
            t0 = clock()
            pk_ct, trace = action.keygen(sk, params, ct_rng, ct_cfg)
            t1 = clock()
            pk_vt, _ = action.keygen(sk, params, vt_rng, vt_cfg)
            A = oracle.brute_group_action(0, e, params.primes, params.p)
            cycles = _price(trace)
            t2 = clock()
        except OP_ERRORS as exc:
            run.check(False, f"toy key raised {type(exc).__name__}")
        else:
            run.samples["key_s"].append((t0, t2))
            run.samples["ct_action_s"].append((t0, t1))
            run.sim_ops += len(trace)
            run.check(pk_ct.A == pk_vt.A == A, "ct / vartime / oracle differ")
            _check_trace(run, trace, expect, state)
            _check_cycles(run, cycles, expect)
        budget.done += 1


# --- word-level datapath -------------------------------------------------------

def _datapath_unit(run, params, ref, a, b, x, y, mask_seed):
    """Cross-check every datapath op on one operand set in both ALU modes."""
    costs = EXPECTED["datapath_cycles"]
    n, width = params.n_words, params.width
    aw, bw = int_to_words(a, n), int_to_words(b, n)
    checks = []

    added = datapath.csel_add(aw, bw)
    s, carry, cost = added
    checks.append(("csel_add", words_to_int(s) | carry << width == a + b
                   and cost.cycles == costs["csel"]))
    subbed = datapath.csel_sub(aw, bw)
    d, borrow, cost = subbed
    checks.append(("csel_sub", words_to_int(d) - (borrow << width) == a - b
                   and cost.cycles == costs["csel"]))

    mont = ref.mul(a, b)
    for mode in datapath.AluMode:
        value, cost = datapath.mont_mul_dp_int(a, b, params, mode)
        checks.append(("mont_mul_dp", value == mont and
                       cost.cycles == costs["mont_mul"][mode.value]))
        wide = datapath.mul_wide(aw, bw, mode)
        checks.append(("mul_wide", words_to_int(wide[0]) == a * b and
                       wide[1].cycles == costs["mul_wide"][mode.value]))
        product, cost = datapath.booth_mul32(x, y, mode)
        checks.append(("booth_mul32", product == x * y and
                       cost.cycles == costs["booth"][mode.value]))
        unmasked = {"ADD": added, "SUB": subbed, "MUL": wide}
        for op in datapath.MASKED_OPS:
            result, activity = datapath.masked_issue(
                op, (aw, bw), datapath.RandomWordRng(mask_seed), mode)
            checks.append((f"masked_issue {op}", result == unmasked[op]
                           and activity.all_units_always_active()
                           and len(activity.cycles) == result[-1].cycles))
    run.attempted += len(checks)
    for gate, ok in checks:
        run.check(ok, gate)


def datapath_verify(run, rnd, budget):
    """Seed-derived csidh512 operands through csel_add/sub, mont_mul_dp_int,
    mul_wide, booth_mul32 and masked_issue, against Fp and bignum results."""
    params = get_params("csidh512")
    ref = Fp(params)
    while budget.more():
        a, b = rnd.randrange(params.p), rnd.randrange(params.p)
        x, y = rnd.getrandbits(32), rnd.getrandbits(32)
        mask_seed = rnd.getrandbits(64)
        t0 = clock()
        try:
            _datapath_unit(run, params, ref, a, b, x, y, mask_seed)
        except OP_ERRORS as exc:
            run.attempted += 1
            run.check(False, f"datapath raised {type(exc).__name__}")
        run.samples["unit_s"].append((t0, clock()))
        budget.done += 1


class Workload(NamedTuple):
    run: Callable
    op_samples: tuple      # sample series whose pooled median is op_s.p50
    trace_units: int       # fixed work of a traced run


WORKLOADS = {
    "ct-exchange": Workload(ct_exchange, ("keygen_s", "dh_s"), 1),
    "vartime-exchange": Workload(vartime_exchange, ("keygen_s", "dh_s"), 1),
    "toy-verify": Workload(toy_verify, ("key_s",), 270),
    "datapath-verify": Workload(datapath_verify, ("unit_s",), 200),
}
