"""Operation traces, cost tables, and cycle ledgers."""

import itertools

import pytest

from csidhsim import action
from csidhsim.action import (PrivateKey, PublicKey, estimate_keygen,
                             make_rng)
from csidhsim.datapath import AluMode, csel_add, mont_mul_dp_int, mul_wide
from csidhsim.fp import int_to_words
from csidhsim.params import get_params
from csidhsim.trace import (MOD_CSIDH, MOD_XMUL, OP_ADD, OP_MONT_MUL,
                            OP_MONT_REDUCE, OP_MUL_WIDE, OP_SUB, CostTable,
                            CycleLedger, OpTrace, calibrate_overhead)

TOY = get_params("toy419")


def toy_trace(e=(1, 0, -1), seed=b"t"):
    sk = PrivateKey(e, TOY)
    _, ok, trace = action.group_action_ct(PublicKey(0), sk, TOY,
                                          make_rng(seed))
    assert ok
    return trace


def test_record_and_order():
    t = OpTrace()
    t.record(OP_ADD, MOD_CSIDH)
    assert len(t) == 1
    t.record(OP_MONT_MUL, MOD_XMUL)
    assert list(t.entries()) == [("ADD", "CSIDH"), ("MONT_MUL", "xMUL")]


def test_trace_equal():
    t = toy_trace()
    assert t == t
    other = OpTrace()
    other.record(OP_ADD, MOD_CSIDH)
    assert t != other


def test_trace_dump_load_roundtrip(tmp_path):
    t = toy_trace()
    path = tmp_path / "trace.txt"
    t.dump(path)
    loaded = OpTrace.load(path)
    assert t == loaded
    assert path.read_text().splitlines()[0].count("\t") == 1


def test_default_cost_values():
    table = CostTable()
    assert table.cost(OP_MONT_MUL, "fpga") == 87
    assert table.cost(OP_MUL_WIDE, "fpga") == 22
    assert table.cost(OP_MUL_WIDE, "asic") == 23


@pytest.mark.parametrize("mode", list(AluMode))
def test_default_costs_match_datapath(mode):
    table = CostTable()
    m = mode.value
    aw = bw = int_to_words(0, 16)
    assert table.cost(OP_MUL_WIDE, m) == mul_wide(aw, bw, mode)[1].cycles
    assert table.cost(OP_MONT_MUL, m) == \
        mont_mul_dp_int(0, 0, TOY, mode)[1].cycles
    csel = csel_add(aw, bw)[2].cycles
    assert table.cost(OP_ADD, m) == table.cost(OP_SUB, m) == 2 * csel
    assert table.cost(OP_MONT_REDUCE, m) == \
        table.cost(OP_MONT_MUL, m) - table.cost(OP_MUL_WIDE, m)


def test_single_op_pricing():
    t = OpTrace()
    t.record(OP_MONT_MUL, MOD_XMUL)
    assert CycleLedger(t).total_cycles("fpga") == 87
    t2 = OpTrace()
    t2.record(OP_MUL_WIDE, MOD_CSIDH)
    led = CycleLedger(t2)
    assert led.total_cycles("fpga") == 22
    assert led.total_cycles("asic") == 23


def test_empty_ledger_is_zero():
    assert CycleLedger(OpTrace()).total_cycles("fpga") == 0


def test_ledger_totals_consistent():
    t = toy_trace()
    led = CycleLedger(t)
    assert sum(led.opcode_counts().values()) == len(t) == led.total_ops
    assert sum(led.module_cycles("fpga").values()) == led.total_cycles("fpga")


def test_replay_reprices_identically(tmp_path):
    t = toy_trace()
    path = tmp_path / "trace.txt"
    t.dump(path)
    led1 = CycleLedger(t)
    led2 = CycleLedger(OpTrace.load(path))
    assert led1.total_cycles("fpga") == led2.total_cycles("fpga")
    assert led1.opcode_counts() == led2.opcode_counts()


def test_cost_table_roundtrip(tmp_path):
    table = CostTable()
    table.costs["fpga"][OP_MONT_MUL] = 90
    table.overhead["fpga"] = 1.25
    path = tmp_path / "costs.cfg"
    table.dump(path)
    loaded = CostTable.load(path)
    assert loaded.cost(OP_MONT_MUL, "fpga") == 90
    assert loaded.overhead["fpga"] == 1.25


def test_overhead_affects_total():
    t = toy_trace()
    table = CostTable()
    table.overhead["fpga"] = 2.0
    led = CycleLedger(t, table)
    base = CycleLedger(t).total_cycles("fpga")
    assert led.raw_cycles("fpga") == base
    assert led.total_cycles("fpga") == base + round(2.0 * led.total_ops)


def test_calibrate_overhead_hits_target():
    t = toy_trace()
    led = CycleLedger(t)
    target = led.total_cycles("fpga") * 2
    ov = calibrate_overhead(led, target, "fpga")
    table = CostTable()
    table.overhead["fpga"] = ov
    assert CycleLedger(t, table).total_cycles("fpga") == pytest.approx(
        target, abs=1)


def test_ledger_dump_format(tmp_path):
    t = toy_trace()
    path = tmp_path / "ledger.txt"
    CycleLedger(t).dump(path, "fpga")
    text = path.read_text()
    assert "count.MONT_MUL" in text and "total.fpga" in text


def test_toy_cycles_identical_across_all_keys():
    totals = set()
    for e in itertools.product((-1, 0, 1), repeat=3):
        led = CycleLedger(toy_trace(e, seed=b"fixed"))
        totals.add(led.total_cycles("fpga"))
    assert len(totals) == 1


def test_estimate_keygen_deterministic():
    t1 = estimate_keygen(TOY, seed=b"e")
    t2 = estimate_keygen(TOY, seed=b"e")
    assert t1[0] == t2[0] and t1[1] == t2[1]
    assert t1[0] > 0
