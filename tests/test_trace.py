"""Operation traces, cost tables, and cycle ledgers."""

import itertools

import pytest

from csidhsim import action
from csidhsim.action import PrivateKey, PublicKey, make_rng
from csidhsim.datapath import (AluMode, booth_mul32, csel_add,
                               mont_mul_dp_int, mont_reduce_dp_int, mul_wide)
from csidhsim.fp import int_to_words
from csidhsim.params import get_params
from csidhsim.trace import (BOOTH_CYCLES, MOD_CSIDH, MOD_XTWIST, MODULE_NAMES,
                            MUL_WIDE_CYCLES, OP_ADD, OP_MONT_MUL,
                            OP_MONT_REDUCE, OP_SUB, OPCODE_NAMES, CostTable,
                            CostTableError, CycleLedger, OpTrace,
                            calibrate_overhead)
from test_acceptance import PINNED
from test_action import MID90

TOY = get_params("toy419")


def toy_trace(e=(1, 0, -1), seed=b"t"):
    sk = PrivateKey(e, TOY)
    _, ok, trace = action.group_action_ct(PublicKey(0), sk, make_rng(seed))
    assert ok
    return trace


def test_record_and_order(tmp_path):
    t = OpTrace()
    t.buf.append(MOD_CSIDH << 3 | OP_ADD)
    assert len(t) == 1
    t.buf.append(MOD_XTWIST << 3 | OP_MONT_MUL)
    path = tmp_path / "trace.txt"
    t.dump(path)
    assert path.read_bytes() == b"ADD\tCSIDH\nMONT_MUL\txTWIST\n"


def test_trace_equal():
    t = toy_trace()
    assert t == t
    other = OpTrace()
    other.buf.append(MOD_CSIDH << 3 | OP_ADD)
    assert t != other


def test_trace_dump_load_roundtrip(tmp_path):
    # One opcode<TAB>module line per op, named from the public tables.
    t = toy_trace()
    path = tmp_path / "trace.txt"
    t.dump(path)
    assert path.read_text().splitlines() == [
        f"{OPCODE_NAMES[b & 7]}\t{MODULE_NAMES[b >> 3]}" for b in t.buf]


def test_dump_spans_chunks(tmp_path):
    # 4096-op write chunks: a trace of 2 * 4096 + 1 ops dumps every line.
    t = OpTrace()
    t.buf.extend(bytes([OP_SUB | MOD_XTWIST << 3]) * (2 * 4096 + 1))
    t.buf[4096] = OP_ADD | MOD_CSIDH << 3
    path = tmp_path / "trace.txt"
    t.dump(path)
    lines = path.read_text().splitlines()
    assert len(lines) == len(t)
    assert lines[4096] == "ADD\tCSIDH"
    assert lines[:4096] == lines[4097:] == ["SUB\txTWIST"] * 4096


@pytest.mark.parametrize("opcode, module, byte", [
    (7, MOD_CSIDH, "0x2f"),    # unknown opcode
    (2, MOD_CSIDH, "0x2a"),    # the retired MUL_WIDE opcode
    (OP_ADD, 6, "0x30"),       # unknown module
    (OP_MONT_MUL, 1, "0x0b"),  # the unassigned xMUL module
])
def test_unknown_trace_byte_rejected(tmp_path, opcode, module, byte):
    t = toy_trace()
    t.buf.append(module << 3 | opcode)
    with pytest.raises(ValueError, match=f"unknown trace byte {byte}"):
        CycleLedger(t)
    path = tmp_path / "trace.txt"
    with pytest.raises(ValueError, match=f"unknown trace byte {byte}"):
        t.dump(path)
    assert not path.exists()


def test_default_cost_values():
    table = CostTable()
    assert table.costs["fpga"][OP_MONT_MUL] == 87
    assert MUL_WIDE_CYCLES["fpga"] == 22
    assert MUL_WIDE_CYCLES["asic"] == 23


@pytest.mark.parametrize("mode", list(AluMode))
def test_default_costs_match_datapath(mode):
    table = CostTable()
    m = mode.value
    aw = bw = int_to_words(0, 16)
    assert MUL_WIDE_CYCLES[m] == mul_wide(aw, bw, mode)[1].cycles
    assert BOOTH_CYCLES[m] == booth_mul32(0, 0, mode)[1].cycles
    assert table.costs[m][OP_MONT_MUL] == \
        mont_mul_dp_int(0, 0, TOY, mode)[1].cycles
    csel = csel_add(aw, bw)[2].cycles
    assert table.costs[m][OP_ADD] == table.costs[m][OP_SUB] == 2 * csel
    assert table.costs[m][OP_MONT_REDUCE] == \
        table.costs[m][OP_MONT_MUL] - MUL_WIDE_CYCLES[m] == \
        mont_reduce_dp_int(0, TOY, mode)[1].cycles


def test_single_op_pricing():
    t = OpTrace()
    t.buf.append(MOD_XTWIST << 3 | OP_MONT_MUL)
    assert CycleLedger(t).total_cycles("fpga") == 87
    t2 = OpTrace()
    t2.buf.append(MOD_CSIDH << 3 | OP_MONT_REDUCE)
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


def test_cost_table_roundtrip(tmp_path):
    # A table written in README's `NAME.mode = value` format loads back
    # over the defaults.
    path = tmp_path / "costs.cfg"
    path.write_text("MONT_MUL.fpga = 90\noverhead.fpga = 1.25\n")
    loaded = CostTable.load(path)
    assert loaded.costs["fpga"][OP_MONT_MUL] == 90
    assert loaded.overhead["fpga"] == 1.25
    loaded.costs["fpga"][OP_MONT_MUL] = CostTable().costs["fpga"][OP_MONT_MUL]
    loaded.overhead["fpga"] = 0.0
    assert loaded == CostTable()


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


def test_negative_total_rejected(tmp_path):
    # An overhead that prices the trace below zero raises, naming the mode,
    # the overhead and the total; the other mode still prices, and `dump`
    # writes no file.
    t = toy_trace()
    table = CostTable()
    table.overhead["asic"] = -100.0
    led = CycleLedger(t, table)
    total = led.raw_cycles("asic") - 100 * led.total_ops
    assert total < 0
    with pytest.raises(CostTableError, match=f"overhead.asic = -100.0 "
                       f"prices the trace at {total} cycles"):
        led.total_cycles("asic")
    assert led.total_cycles("fpga") == CycleLedger(t).total_cycles("fpga")
    path = tmp_path / "ledger.txt"
    with pytest.raises(CostTableError):
        led.dump(path)
    assert not path.exists()


def test_ledger_dump_format(tmp_path):
    ledger = CycleLedger(toy_trace())
    path = tmp_path / "ledger.txt"
    ledger.dump(path)
    lines = [line.split(" = ") for line in path.read_text().splitlines()]
    want = {f"count.{name}": str(n)
            for name, n in ledger.opcode_counts().items()}
    for mode in ("fpga", "asic"):
        want |= {f"cycles.{module}.{mode}": str(cycles)
                 for module, cycles in ledger.module_cycles(mode).items()}
        want[f"overhead.{mode}"] = str(ledger.cost_table.overhead[mode])
        want[f"total.{mode}"] = str(ledger.total_cycles(mode))
    assert "count.MONT_MUL" in want
    assert dict(lines) == want and len(lines) == len(want)   # each name once


def test_toy_cycles_identical_across_all_keys():
    totals = set()
    for e in itertools.product((-1, 0, 1), repeat=3):
        led = CycleLedger(toy_trace(e, seed=b"fixed"))
        totals.add(led.total_cycles("fpga"))
    assert len(totals) == 1


@pytest.mark.parametrize("name", list(PINNED))
def test_ct_trace_prices_to_the_pinned_ledgers(name):
    # The pinned ledgers, priced from the generated trace: no action runs.
    params = MID90 if name == "mid90" else get_params(name)
    ledger = CycleLedger(action.ct_trace(params))
    want = PINNED[name]
    for mode in ("fpga", "asic"):
        assert ledger.total_cycles(mode) == want["total"][mode]
        assert ledger.module_cycles(mode) == want["modules"][mode]
