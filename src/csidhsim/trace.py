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
from dataclasses import dataclass, field

# Opcodes
OP_ADD = 0
OP_SUB = 1
OP_MUL_WIDE = 2
OP_MONT_MUL = 3
OP_MONT_REDUCE = 4

OPCODE_NAMES = {
    OP_ADD: "ADD",
    OP_SUB: "SUB",
    OP_MUL_WIDE: "MUL_WIDE",
    OP_MONT_MUL: "MONT_MUL",
    OP_MONT_REDUCE: "MONT_REDUCE",
}
OPCODE_IDS = {v: k for k, v in OPCODE_NAMES.items()}

# Issuing-module tags (the control-unit FSMs plus the top level)
MOD_XISOG = 0
MOD_XMUL = 1
MOD_XDBLADD = 2
MOD_XAFFINIZE = 3
MOD_XTWIST = 4
MOD_CSIDH = 5

MODULE_NAMES = {
    MOD_XISOG: "xISOG",
    MOD_XMUL: "xMUL",
    MOD_XDBLADD: "xDBLADD",
    MOD_XAFFINIZE: "xAffinize",
    MOD_XTWIST: "xTWIST",
    MOD_CSIDH: "CSIDH",
}
MODULE_IDS = {v: k for k, v in MODULE_NAMES.items()}


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

    def record(self, opcode: int, module_tag: int) -> None:
        self.buf.append((module_tag << 3) | opcode)

    def entries(self):
        for b in self.buf:
            yield OPCODE_NAMES[b & 7], MODULE_NAMES[b >> 3]

    def digest(self) -> str:
        return hashlib.sha256(self.buf).hexdigest()

    def dump(self, path) -> None:
        """Export as newline-delimited ``opcode<TAB>module`` text."""
        with open(path, "w") as f:
            for op, mod in self.entries():
                f.write(f"{op}\t{mod}\n")

    @classmethod
    def load(cls, path) -> "OpTrace":
        t = cls()
        with open(path) as f:
            for line in f:
                op, mod = line.rstrip("\n").split("\t")
                t.record(OPCODE_IDS[op], MODULE_IDS[mod])
        return t


# Structural ALU latencies in cycles, per ALU mode.  The datapath model
# returns these as its CycleCosts, and the ledger's default costs are derived
# from them below, so each figure is written down exactly once.
CSEL_CYCLES = 2              # two-stage pipelined carry-select adder pass
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
        OP_MUL_WIDE: MUL_WIDE_CYCLES[mode],
        OP_MONT_MUL: MONT_MUL_CYCLES[mode],
        OP_MONT_REDUCE: MONT_MUL_CYCLES[mode] - MUL_WIDE_CYCLES[mode],
    }
    for mode in MONT_MUL_CYCLES
}

# Per-operation control/FSM overhead in cycles (state transitions, memory
# moves).  Zero by default; calibrate_overhead() fits it to a measured or
# published end-to-end total.
DEFAULT_OVERHEAD = {"fpga": 0.0, "asic": 0.0}

# Largest magnitude a cost-table value may have, so that every ledger total
# and the latency derived from it stay finite.
MAX_COST = 2 ** 32


class CostTableError(ValueError):
    """A cost-table file has a line that cannot be used."""


@dataclass
class CostTable:
    costs: dict = field(default_factory=lambda: {
        mode: dict(ops) for mode, ops in DEFAULT_COSTS.items()})
    overhead: dict = field(default_factory=lambda: dict(DEFAULT_OVERHEAD))

    def cost(self, opcode: int, mode: str) -> int:
        return self.costs[mode][opcode]

    def dump(self, path) -> None:
        with open(path, "w") as f:
            for mode, ops in sorted(self.costs.items()):
                for op, cyc in sorted(ops.items()):
                    f.write(f"{OPCODE_NAMES[op]}.{mode} = {cyc}\n")
            for mode, ov in sorted(self.overhead.items()):
                f.write(f"overhead.{mode} = {ov}\n")

    @classmethod
    def load(cls, path) -> "CostTable":
        """Read ``NAME.mode = value`` lines over the defaults.

        Raises CostTableError naming the line for a missing ``=``, an
        unknown opcode or mode, a non-numeric value, a negative opcode cost,
        or a value beyond ``MAX_COST`` in magnitude (also inf and nan).
        ``overhead`` may be negative, as :func:`calibrate_overhead` can fit.
        """
        table = cls()
        with open(path) as f:
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
    """Per-opcode and per-module operation counts with cycle pricing."""

    def __init__(self, trace: OpTrace, cost_table: CostTable | None = None):
        self.cost_table = cost_table or CostTable()
        self._packed = Counter(trace.buf)

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
        return (self.raw_cycles(mode)
                + round(self.cost_table.overhead[mode] * self.total_ops))

    def dump(self, path, mode: str) -> None:
        with open(path, "w") as f:
            for name, n in sorted(self.opcode_counts().items()):
                f.write(f"count.{name} = {n}\n")
            for name, cyc in sorted(self.module_cycles(mode).items()):
                f.write(f"cycles.{name} = {cyc}\n")
            f.write(f"overhead.{mode} = {self.cost_table.overhead[mode]}\n")
            f.write(f"total.{mode} = {self.total_cycles(mode)}\n")


def calibrate_overhead(ledger: CycleLedger, target_cycles: int,
                       mode: str) -> float:
    """Fit the per-operation overhead constant so the ledger total matches
    a published end-to-end cycle count."""
    return (target_cycles - ledger.raw_cycles(mode)) / ledger.total_ops
