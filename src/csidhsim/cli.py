"""Command-line front end.

Subcommands:

* ``keygen`` -- sample a private key, derive the public key, write both.
* ``dh``     -- derive the shared secret from a private key and a peer key.
  The peer key is always validated first; there is no switch to skip that.
* ``bench``  -- cycle estimate for one constant-time key generation (also
  under ``--vartime``), with latency report.  The trace it prices is the
  same for every key and seed, so ``--seed`` does not change it.
* ``trace``  -- export the operation trace of one seeded key generation.

All randomness flows through a single DRBG: with ``--seed`` (the empty
seed included) every run is bit-reproducible (files and stdout included).
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
from .trace import CostTable, CostTableError, OpTrace

EXIT_IO = 2
EXIT_FAULT = 3
EXIT_INVALID_KEY = 4

# Report-formatting defaults only; cycles are the ground-truth metric.
CLOCK_HZ = {"fpga": 200e6, "asic": 180e6}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csidhsim",
        description="CSIDH key exchange over a cycle-accounted datapath model")
    names = tuple(PARAM_TABLE)
    parser.add_argument("--params", choices=names, default=names[0],
                        help="parameter set")
    parser.add_argument("--mode", choices=("fpga", "asic"), default="fpga",
                        help="ALU cost model for cycle accounting")
    parser.add_argument("--vartime", action="store_true",
                        help="use the variable-time action (not constant-time)")
    parser.add_argument("--seed", metavar="HEX", type=bytes.fromhex,
                        help="deterministic seed for all randomness")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="write PREFIX.sk and PREFIX.pk")

    p = sub.add_parser("dh", help="derive a shared secret")
    p.add_argument("sk_path", help="own private-key file")
    p.add_argument("pk_path", help="peer public-key file")
    p.add_argument("--reveal", action="store_true",
                   help="print the raw secret instead of its SHA-256")
    p.add_argument("--out", metavar="PATH",
                   help="also write the raw secret bytes to PATH")

    p = sub.add_parser("bench", help="cycle estimate for one key generation")
    p.add_argument("--cost-table", metavar="PATH",
                   help="cost-table file overriding the built-in defaults")
    p.add_argument("--out", metavar="PATH", help="write the ledger report")

    p = sub.add_parser("trace", help="export a key-generation operation trace")
    p.add_argument("--out", required=True, metavar="PATH",
                   help="trace output file (opcode<TAB>module lines)")

    return parser


def _config(args) -> action.ActionConfig:
    return action.ActionConfig(constant_time=not args.vartime)


def cmd_keygen(args) -> int:
    params = get_params(args.params)
    rng = action.make_rng(args.seed)
    sk = action.random_private_key(params, rng)
    pk, _ = action.keygen(sk, params, rng, _config(args))
    Path(args.out + ".sk").write_bytes(sk.to_bytes())
    Path(args.out + ".pk").write_bytes(pk.to_bytes(params))
    print(pk.A.to_bytes(params.byte_length, "little").hex())
    return 0


def cmd_dh(args) -> int:
    params = get_params(args.params)
    rng = action.make_rng(args.seed)
    sk_raw = Path(args.sk_path).read_bytes()
    pk_raw = Path(args.pk_path).read_bytes()
    sk = action.PrivateKey.from_bytes(sk_raw)
    peer, peer_params = action.PublicKey.from_bytes(pk_raw)
    if peer_params is not params:
        raise action.InvalidPeerKey(
            f"key is for {peer_params.name}, not --params {params.name}")
    secret = action.shared_secret(sk, peer, params, rng, _config(args))
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
    ledger = action.estimate_keygen(params, cost_table)
    breakdown = ledger.module_cycles(args.mode)
    total = ledger.total_cycles(args.mode)
    print(f"params         {params.name}")
    print(f"mode           {args.mode}")
    for module, cycles in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        print(f"cycles.{module:<12} {cycles}")
    print(f"total cycles   {total}")
    hz = CLOCK_HZ[args.mode]
    print(f"latency        {total / hz * 1e3:.1f} ms at {hz / 1e6:.0f} MHz")
    if args.out:
        ledger.dump(args.out, args.mode)
    return 0


def cmd_trace(args) -> int:
    params = get_params(args.params)
    rng = action.make_rng(args.seed)
    sk = action.random_private_key(params, rng)
    _, trace = action.run_action(action.PublicKey(0), sk, params, rng,
                                 _config(args), OpTrace())
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
