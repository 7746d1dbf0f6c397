"""Operation traces, cost tables, and cycle ledgers."""

import itertools
import re

import pytest

from csidhsim import action
from csidhsim.action import (PrivateKey, PublicKey, estimate_keygen,
                             make_rng)
from csidhsim.datapath import AluMode, csel_add, mont_mul_dp_int, mul_wide
from csidhsim.fp import int_to_words
from csidhsim.params import get_params
from csidhsim.trace import (MOD_CSIDH, MOD_XMUL, MUL_WIDE_CYCLES, OP_ADD,
                            OP_MONT_MUL, OP_MONT_REDUCE, OP_SUB, CostTable,
                            CycleLedger, OpTrace, calibrate_overhead)
from test_acceptance import PINNED

TOY = get_params("toy419")


def toy_trace(e=(1, 0, -1), seed=b"t"):
    sk = PrivateKey(e, TOY)
    _, ok, trace = action.group_action_ct(PublicKey(0), sk, TOY,
                                          make_rng(seed))
    assert ok
    return trace


def test_record_and_order(tmp_path):
    t = OpTrace()
    t.record(OP_ADD, MOD_CSIDH)
    assert len(t) == 1
    t.record(OP_MONT_MUL, MOD_XMUL)
    path = tmp_path / "trace.txt"
    t.dump(path)
    assert path.read_bytes() == b"ADD\tCSIDH\nMONT_MUL\txMUL\n"


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


def test_dump_spans_chunks(tmp_path):
    # 4096-op write chunks: a trace of 2 * 4096 + 1 ops dumps every line.
    t = OpTrace()
    t.buf.extend(bytes([OP_SUB | MOD_XMUL << 3]) * (2 * 4096 + 1))
    t.buf[4096] = OP_ADD | MOD_CSIDH << 3
    path = tmp_path / "trace.txt"
    t.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(t)
    assert lines[4096] == "ADD\tCSIDH"
    assert lines[:4096] == lines[4097:] == ["SUB\txMUL"] * 4096
    assert OpTrace.load(path) == t


@pytest.mark.parametrize("opcode, module, byte", [
    (7, MOD_CSIDH, "0x2f"),    # unknown opcode
    (2, MOD_CSIDH, "0x2a"),    # the retired MUL_WIDE opcode
    (OP_ADD, 6, "0x30"),       # unknown module
])
def test_unknown_trace_byte_rejected(tmp_path, opcode, module, byte):
    t = toy_trace()
    t.record(opcode, module)
    with pytest.raises(ValueError, match=f"unknown trace byte {byte}"):
        CycleLedger(t)
    path = tmp_path / "trace.txt"
    with pytest.raises(ValueError, match=f"unknown trace byte {byte}"):
        t.dump(path)
    assert not path.exists()


@pytest.mark.parametrize("bad", ["ADD\tFOO", "FOO\tCSIDH", "ADD CSIDH", "",
                                 "ADD\tCSIDH\tCSIDH", b"ADD\tCSIDH\xff"])
def test_load_rejects_bad_line(tmp_path, bad):
    # An undecodable byte is shown as U+FFFD in the reported line.
    raw = bad if isinstance(bad, bytes) else bad.encode()
    path = tmp_path / "trace.txt"
    path.write_bytes(b"ADD\tCSIDH\n" + raw + b"\nSUB\txMUL\n")
    shown = raw.decode(errors="replace")
    with pytest.raises(ValueError, match=re.escape(
            f"trace.txt:2: bad trace line {shown!r}")):
        OpTrace.load(path)


def test_default_cost_values():
    table = CostTable()
    assert table.cost(OP_MONT_MUL, "fpga") == 87
    assert MUL_WIDE_CYCLES["fpga"] == 22
    assert MUL_WIDE_CYCLES["asic"] == 23


@pytest.mark.parametrize("mode", list(AluMode))
def test_default_costs_match_datapath(mode):
    table = CostTable()
    m = mode.value
    aw = bw = int_to_words(0, 16)
    assert MUL_WIDE_CYCLES[m] == mul_wide(aw, bw, mode)[1].cycles
    assert table.cost(OP_MONT_MUL, m) == \
        mont_mul_dp_int(0, 0, TOY, mode)[1].cycles
    csel = csel_add(aw, bw)[2].cycles
    assert table.cost(OP_ADD, m) == table.cost(OP_SUB, m) == 2 * csel
    assert table.cost(OP_MONT_REDUCE, m) == \
        table.cost(OP_MONT_MUL, m) - MUL_WIDE_CYCLES[m]


def test_single_op_pricing():
    t = OpTrace()
    t.record(OP_MONT_MUL, MOD_XMUL)
    assert CycleLedger(t).total_cycles("fpga") == 87
    t2 = OpTrace()
    t2.record(OP_MONT_REDUCE, MOD_CSIDH)
    led = CycleLedger(t2)
    assert led.total_cycles("fpga") == 65
    assert led.total_cycles("asic") == 66


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


def test_calibrate_overhead_rejects_empty_trace():
    with pytest.raises(ValueError, match="empty trace"):
        calibrate_overhead(CycleLedger(OpTrace()), 100, "fpga")


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
    # The trace is the same for every key and seed, so the estimate is the
    # pinned toy ledger.
    ledger = estimate_keygen(TOY)
    want = PINNED["toy419"]
    for mode in ("fpga", "asic"):
        assert ledger.total_cycles(mode) == want["total"][mode]
        assert ledger.module_cycles(mode) == want["modules"][mode]
