"""Operation tracing and cycle accounting.

Every ALU-level operation issued by the arithmetic and curve layers is
recorded as one byte: ``(module_tag << 3) | opcode``.  Traces are append-only
bytearrays, cheap to record and directly comparable byte-for-byte, which is
exactly the property the constant-time tests rely on.

A :class:`CycleLedger` prices a finished trace against a cost table
(opcode -> cycles per ALU mode) and reports totals per issuing module.
"""

from __future__ import annotations

import hashlib
from collections import Counter

from .records import Record

# Opcodes (2 is unassigned: the wide multiply is priced inside MONT_MUL and
# MONT_REDUCE, never issued on its own)
OP_ADD = 0
OP_SUB = 1
OP_MONT_MUL = 3
OP_MONT_REDUCE = 4

OPCODE_NAMES = {
    OP_ADD: "ADD",
    OP_SUB: "SUB",
    OP_MONT_MUL: "MONT_MUL",
    OP_MONT_REDUCE: "MONT_REDUCE",
}
OPCODE_IDS = {v: k for k, v in OPCODE_NAMES.items()}

# Issuing-module tags: the control-unit FSMs plus the top level (1 is
# unassigned: `xmul` issues every ladder step as xDBLADD's, never as xMUL's)
MOD_XISOG = 0
MOD_XDBLADD = 2
MOD_XAFFINIZE = 3
MOD_XTWIST = 4
MOD_CSIDH = 5

MODULE_NAMES = {
    MOD_XISOG: "xISOG",
    MOD_XDBLADD: "xDBLADD",
    MOD_XAFFINIZE: "xAffinize",
    MOD_XTWIST: "xTWIST",
    MOD_CSIDH: "CSIDH",
}

# The dump format, defined once: the line of every trace byte, None for a
# byte that names no known (opcode, module) pair; and the 20 known bytes.
_LINES = tuple(
    f"{OPCODE_NAMES[b & 7]}\t{MODULE_NAMES[b >> 3]}\n".encode()
    if b & 7 in OPCODE_NAMES and b >> 3 in MODULE_NAMES else None
    for b in range(256))
_KNOWN = bytes(b for b, line in enumerate(_LINES) if line is not None)


def tag_ops(module: int, ops) -> bytes:
    """The trace bytes of the bare opcodes `ops` (ints) issued by `module`.
    Op templates are tagged once, when their module is imported."""
    return bytes(module << 3 | op for op in ops)


# Ops per write when dumping: the text streams in pieces of ~50 KB.
_DUMP_CHUNK = 4096


def _reject_unknown(buf) -> None:
    """Raise ValueError naming the first byte of `buf` that is not a known
    (opcode, module) pair."""
    unknown = buf.translate(None, _KNOWN)
    if unknown:
        b = unknown[0]
        raise ValueError(f"unknown trace byte {b:#04x} (opcode {b & 7}, "
                         f"module {b >> 3}) at op {buf.index(b)}")


class OpTrace:
    """Append-only sequence of (opcode, issuing-module) entries."""

    __slots__ = ("buf",)

    def __init__(self):
        self.buf = bytearray()

    def __len__(self):
        return len(self.buf)

    def __eq__(self, other):
        if not isinstance(other, OpTrace):
            return NotImplemented
        return self.buf == other.buf

    def digest(self) -> str:
        return hashlib.sha256(self.buf).hexdigest()

    def dump(self, path) -> None:
        """Export as newline-delimited ``opcode<TAB>module`` text.

        Each byte's line comes from a precomputed table, and the lines are
        written `_DUMP_CHUNK` ops at a time, so the text streams without
        being built whole.  A byte that is no known (opcode, module) pair
        raises ValueError naming it, before the file is opened.
        """
        buf = self.buf
        _reject_unknown(buf)
        line = _LINES.__getitem__
        with open(path, "wb") as f:
            for i in range(0, len(buf), _DUMP_CHUNK):
                f.write(b"".join(map(line, buf[i:i + _DUMP_CHUNK])))


# Structural ALU latencies in cycles, per ALU mode.  The datapath model
# returns these as its CycleCosts, and the ledger's default costs are derived
# from them below, so each figure is written down exactly once.
CSEL_CYCLES = 2              # two-stage pipelined carry-select adder pass
BOOTH_CYCLES = {"fpga": 1, "asic": 2}   # 32x32 Booth core; no opcode
MUL_WIDE_CYCLES = {"fpga": 22, "asic": 23}
# The ASIC Montgomery multiply runs the two-cycle Booth cores: one extra
# cycle per wide multiply on the REDC path, calibrated against the
# published end-to-end totals.
MONT_MUL_CYCLES = {"fpga": 87, "asic": 89}

# Default cycle costs per opcode and ALU mode.  A modular add/sub is two
# carry-select passes (raw add plus conditional correction); MONT_REDUCE is
# the reduction tail of the Montgomery multiply, i.e. without the first
# wide multiply.
DEFAULT_COSTS = {
    mode: {
        OP_ADD: 2 * CSEL_CYCLES,
        OP_SUB: 2 * CSEL_CYCLES,
        OP_MONT_MUL: MONT_MUL_CYCLES[mode],
        OP_MONT_REDUCE: MONT_MUL_CYCLES[mode] - MUL_WIDE_CYCLES[mode],
    }
    for mode in MONT_MUL_CYCLES
}

# Per-operation control/FSM overhead in cycles (state transitions, memory
# moves).  Zero by default; calibrate_overhead() fits it to a measured or
# published end-to-end total.  A negative fit means the model prices more
# cycles than that total, as for the paper's csidh512 keygen: -0.675 (FPGA)
# and -0.066 (ASIC) per op (ROADMAP item 17).
DEFAULT_OVERHEAD = {"fpga": 0.0, "asic": 0.0}

# Largest magnitude a cost-table value may have, so that every ledger total
# and the latency derived from it stay finite.
MAX_COST = 2 ** 32


class CostTableError(ValueError):
    """A cost-table file has a line that cannot be used."""


class CostTable(Record):
    """Cycles per opcode and per-operation overhead, by ALU mode; each
    table left out is a fresh copy of the defaults."""

    __slots__ = ("costs", "overhead")

    def __init__(self, costs: dict | None = None,
                 overhead: dict | None = None):
        self._init(costs if costs is not None else {
            mode: dict(ops) for mode, ops in DEFAULT_COSTS.items()},
            overhead if overhead is not None else dict(DEFAULT_OVERHEAD))

    @classmethod
    def load(cls, path) -> "CostTable":
        """Read ``NAME.mode = value`` lines over the defaults.

        Raises CostTableError naming the line for a missing ``=``, an
        unknown opcode or mode, a non-numeric value, a negative opcode cost,
        or a value beyond ``MAX_COST`` in magnitude (also inf and nan).
        ``overhead`` may be negative, as :func:`calibrate_overhead` can fit.
        """
        table = cls()
        with open(path, encoding="utf-8", errors="replace") as f:
            for lineno, line in enumerate(f, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                bad = CostTableError(f"{path}:{lineno}: bad cost-table "
                                     f"line {line!r}")
                key, eq, value = (s.strip() for s in line.partition("="))
                name, _, mode = key.partition(".")
                if not eq or mode not in table.costs:
                    raise bad
                try:
                    if name == "overhead":
                        overhead = float(value)
                        if not abs(overhead) <= MAX_COST:   # also nan
                            raise bad
                        table.overhead[mode] = overhead
                    else:
                        cycles = int(value)
                        if not 0 <= cycles <= MAX_COST:
                            raise bad
                        table.costs[mode][OPCODE_IDS[name]] = cycles
                except (KeyError, ValueError):
                    raise bad from None
        return table


class CycleLedger:
    """Per-opcode and per-module operation counts with cycle pricing.

    The trace is counted once, one `bytearray.count` per known (opcode,
    module) byte; a byte that is no known pair raises ValueError naming it.
    """

    def __init__(self, trace: OpTrace, cost_table: CostTable | None = None):
        self.cost_table = cost_table or CostTable()
        buf = trace.buf
        self._packed = {b: n for b in _KNOWN if (n := buf.count(b))}
        if sum(self._packed.values()) != len(buf):
            _reject_unknown(buf)

    @property
    def total_ops(self) -> int:
        return sum(self._packed.values())

    def opcode_counts(self) -> dict[str, int]:
        counts = Counter()
        for packed, n in self._packed.items():
            counts[OPCODE_NAMES[packed & 7]] += n
        return dict(counts)

    def module_cycles(self, mode: str) -> dict[str, int]:
        out = Counter()
        costs = self.cost_table.costs[mode]
        for packed, n in self._packed.items():
            out[MODULE_NAMES[packed >> 3]] += n * costs[packed & 7]
        return dict(out)

    def raw_cycles(self, mode: str) -> int:
        """Priced operations only, without the per-operation overhead."""
        costs = self.cost_table.costs[mode]
        return sum(n * costs[packed & 7] for packed, n in self._packed.items())

    def total_cycles(self, mode: str) -> int:
        """Raises CostTableError if the overhead prices below zero."""
        overhead = self.cost_table.overhead[mode]
        total = self.raw_cycles(mode) + round(overhead * self.total_ops)
        if total < 0:
            raise CostTableError(f"overhead.{mode} = {overhead} prices the "
                                 f"trace at {total} cycles")
        return total

    def dump(self, path) -> None:
        """Counts once, then each mode's module cycles, overhead and total.
        Every total is priced before the file is opened."""
        overhead = self.cost_table.overhead
        totals = {mode: self.total_cycles(mode) for mode in overhead}
        with open(path, "w") as f:
            for name, n in sorted(self.opcode_counts().items()):
                f.write(f"count.{name} = {n}\n")
            for mode, total in totals.items():
                for name, cyc in sorted(self.module_cycles(mode).items()):
                    f.write(f"cycles.{name}.{mode} = {cyc}\n")
                f.write(f"overhead.{mode} = {overhead[mode]}\n")
                f.write(f"total.{mode} = {total}\n")


def calibrate_overhead(ledger: CycleLedger, target_cycles: int,
                       mode: str) -> float:
    """Fit the per-operation overhead constant so the ledger total matches
    a published end-to-end cycle count.  A negative fit is no FSM cost: it
    means the model prices more cycles than that count."""
    if not ledger.total_ops:
        raise ValueError("cannot calibrate overhead on an empty trace")
    return (target_cycles - ledger.raw_cycles(mode)) / ledger.total_ops
