"""Command-line front end.

Subcommands, each taking only the flags it reads; all but ``bench`` run
the constant-time action, except ``trace --vartime``:

* ``keygen`` -- sample a private key, derive the public key, write both.
* ``dh``     -- derive the shared secret from a private key and a peer key,
  in the parameter set both key files name.  The peer key is always
  validated first; there is no switch to skip that.
* ``bench``  -- cycle estimate for one constant-time key generation, one
  column per ALU mode.  It prices ``action.ct_trace``, the trace every key
  records, and runs no group action.
* ``trace``  -- export the operation trace of one seeded key generation.

All randomness flows through a single DRBG: with ``--seed`` (the empty
seed included) ``keygen`` and ``trace`` are bit-reproducible, files and
stdout included.  ``dh`` takes no seed, because its output does not
depend on its random draws.
Results go to stdout, diagnostics to stderr.

The subcommands raise; :func:`main` alone turns an error into a one-line
message and an exit code: 2 usage error, I/O failure or unusable cost
table, 3 fault detected (the group action failed its checks), 4 invalid
private key, peer key or key file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

from . import action
from .params import PARAM_TABLE, get_params
from .trace import CostTable, CostTableError, CycleLedger

EXIT_IO = 2
EXIT_FAULT = 3
EXIT_INVALID_KEY = 4

# Report-formatting defaults only; cycles are the ground-truth metric.
CLOCK_HZ = {"fpga": 200e6, "asic": 180e6}


def _build_parser() -> argparse.ArgumentParser:
    names = tuple(PARAM_TABLE)
    params = argparse.ArgumentParser(add_help=False)
    params.add_argument("--params", choices=names, default=names[0],
                        help="parameter set")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", metavar="HEX", type=bytes.fromhex,
                        help="deterministic seed for all randomness")
    parser = argparse.ArgumentParser(
        prog="csidhsim",
        description="CSIDH key exchange over a cycle-accounted datapath model")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", parents=[params, seeded],
                       help="generate a keypair")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="write PREFIX.sk and PREFIX.pk")

    p = sub.add_parser("dh", help="derive a shared secret")
    p.add_argument("sk_path", help="own private-key file")
    p.add_argument("pk_path", help="peer public-key file")
    p.add_argument("--reveal", action="store_true",
                   help="print the raw secret instead of its SHA-256")
    p.add_argument("--out", metavar="PATH",
                   help="also write the raw secret bytes to PATH")

    p = sub.add_parser("bench", parents=[params],
                       help="cycle estimate for one key generation")
    p.add_argument("--cost-table", metavar="PATH",
                   help="cost-table file overriding the built-in defaults")
    p.add_argument("--out", metavar="PATH", help="write the ledger report")

    p = sub.add_parser("trace", parents=[params, seeded],
                       help="export a key-generation operation trace")
    p.add_argument("--vartime", action="store_true",
                   help="trace the variable-time action (key-dependent)")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="trace output file (opcode<TAB>module lines)")

    return parser


def cmd_keygen(args) -> int:
    params = get_params(args.params)
    rng = action.make_rng(args.seed)
    sk = action.random_private_key(params, rng)
    pk, _ = action.run_action(action.PublicKey(0), sk, rng)
    Path(args.out + ".sk").write_bytes(sk.to_bytes())
    Path(args.out + ".pk").write_bytes(pk.to_bytes(params))
    print(pk.A.to_bytes(params.byte_length, "little").hex())
    return 0


def cmd_dh(args) -> int:
    sk_raw = Path(args.sk_path).read_bytes()
    pk_raw = Path(args.pk_path).read_bytes()
    sk = action.PrivateKey.from_bytes(sk_raw)
    peer, peer_params = action.PublicKey.from_bytes(pk_raw)
    if peer_params != sk.params:
        raise action.InvalidPeerKey(
            f"key is for {peer_params.name}, private key for {sk.params.name}")
    secret = action.shared_secret(sk, peer, sk.params, action.make_rng())
    raw = secret.to_bytes()
    if args.out:
        Path(args.out).write_bytes(raw)
    if args.reveal:
        print(raw.hex())
    else:
        print("sha256:" + hashlib.sha256(raw).hexdigest())
    return 0


def cmd_bench(args) -> int:
    params = get_params(args.params)
    cost_table = CostTable.load(args.cost_table) if args.cost_table else None
    ledger = CycleLedger(action.ct_trace(params), cost_table)
    columns = [ledger.module_cycles(mode) for mode in CLOCK_HZ]
    totals = [ledger.total_cycles(mode) for mode in CLOCK_HZ]
    rows = [("mode", CLOCK_HZ)]
    rows += [(f"cycles.{module}", [column[module] for column in columns])
             for module in sorted(columns[0], key=lambda m: -columns[0][m])]
    rows += [("total cycles", totals), ("latency", [
        f"{total / hz * 1e3:.1f} ms at {hz / 1e6:.0f} MHz"
        for total, hz in zip(totals, CLOCK_HZ.values())])]
    print(f"params         {params.name}")
    for label, cells in rows:
        print(f"{label:<16}", *(f"{cell:>20}" for cell in cells))
    if args.out:
        ledger.dump(args.out)
    return 0


def cmd_trace(args) -> int:
    params = get_params(args.params)
    rng = action.make_rng(args.seed)
    sk = action.random_private_key(params, rng)
    config = action.ActionConfig(constant_time=not args.vartime)
    _, trace = action.run_action(action.PublicKey(0), sk, rng, config,
                                 record=True)
    trace.dump(args.out)
    print(f"{len(trace)} operations -> {args.out}")
    return 0


_COMMANDS = {
    "keygen": cmd_keygen,
    "dh": cmd_dh,
    "bench": cmd_bench,
    "trace": cmd_trace,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except OSError as exc:
        print(f"I/O failed: {exc}", file=sys.stderr)
        return EXIT_IO
    except CostTableError as exc:
        print(f"invalid cost table: {exc}", file=sys.stderr)
        return EXIT_IO
    except action.FaultDetected as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    except action.InvalidPrivateKey as exc:
        print(f"invalid private key: {exc}", file=sys.stderr)
        return EXIT_INVALID_KEY
    except action.InvalidPeerKey as exc:
        print(f"invalid peer key: {exc}", file=sys.stderr)
        return EXIT_INVALID_KEY


if __name__ == "__main__":
    sys.exit(main())
