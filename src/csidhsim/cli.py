"""Command-line front end.

Subcommands:

* ``keygen`` -- sample a private key, derive the public key, write both.
* ``dh``     -- derive the shared secret from a private key and a peer key.
* ``bench``  -- cycle estimate for one key generation, with latency report.
* ``trace``  -- export the operation trace of one seeded key generation.

All randomness flows through a single DRBG: with ``--seed`` every run is
bit-reproducible (files and stdout included).  Results go to stdout,
diagnostics to stderr.  Exit codes: 2 usage error, I/O failure or
unreadable cost table, 3 fault detected, 4 invalid peer key or key file.
"""

from __future__ import annotations

import argparse
import hashlib
import sys

from . import action
from .params import get_params
from .trace import CostTable, CycleLedger, estimate_keygen

EXIT_IO = 2
EXIT_FAULT = 3
EXIT_INVALID_PEER = 4

# Report-formatting defaults only; cycles are the ground-truth metric.
CLOCK_HZ = {"fpga": 200e6, "asic": 180e6}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csidhsim",
        description="CSIDH key exchange over a cycle-accounted datapath model")
    parser.add_argument("--params", choices=("csidh512", "toy419"),
                        default="csidh512", help="parameter set")
    parser.add_argument("--mode", choices=("fpga", "asic"), default="fpga",
                        help="ALU cost model for cycle accounting")
    parser.add_argument("--vartime", action="store_true",
                        help="use the variable-time action (not constant-time)")
    parser.add_argument("--seed", metavar="HEX", type=bytes.fromhex,
                        help="deterministic seed for all randomness")
    parser.add_argument("--fault-check", dest="fault_check",
                        action=argparse.BooleanOptionalAction, default=True,
                        help="verify [l]K = O after every isogeny")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("keygen", help="generate a keypair")
    p.add_argument("--out", required=True, metavar="PREFIX",
                   help="write PREFIX.sk and PREFIX.pk")

    p = sub.add_parser("dh", help="derive a shared secret")
    p.add_argument("sk_path", help="own private-key file")
    p.add_argument("pk_path", help="peer public-key file")
    p.add_argument("--skip-validate", action="store_true",
                   help="skip peer-key supersingularity validation")
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
    return action.ActionConfig(constant_time=not args.vartime,
                               fault_check=args.fault_check)


def _rng(args) -> action.Drbg:
    return action.make_rng(args.seed or None)


def cmd_keygen(args) -> int:
    params = get_params(args.params)
    rng = _rng(args)
    sk = action.random_private_key(params, rng)
    try:
        pk, _ = action.keygen(sk, params, rng, _config(args))
    except action.FaultDetected as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    try:
        with open(args.out + ".sk", "wb") as f:
            f.write(sk.to_bytes())
        with open(args.out + ".pk", "wb") as f:
            f.write(pk.to_bytes(params))
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_IO
    print(pk.A.to_bytes(params.byte_length, "little").hex())
    return 0


def cmd_dh(args) -> int:
    params = get_params(args.params)
    rng = _rng(args)
    try:
        with open(args.sk_path, "rb") as f:
            sk_raw = f.read()
        with open(args.pk_path, "rb") as f:
            pk_raw = f.read()
    except OSError as exc:
        print(f"read failed: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        sk = action.PrivateKey.from_bytes(sk_raw)
    except ValueError as exc:
        print(f"invalid private key: {exc}", file=sys.stderr)
        return EXIT_INVALID_PEER
    try:
        peer, peer_params = action.PublicKey.from_bytes(pk_raw)
    except ValueError as exc:
        print(f"invalid peer key: {exc}", file=sys.stderr)
        return EXIT_INVALID_PEER
    if sk.params is not params or peer_params is not params:
        print("key files do not match --params", file=sys.stderr)
        return EXIT_INVALID_PEER
    try:
        secret = action.shared_secret(sk, peer, params, rng, _config(args),
                                      validate=not args.skip_validate)
    except action.InvalidPeerKey as exc:
        print(f"invalid peer key: {exc}", file=sys.stderr)
        return EXIT_INVALID_PEER
    except action.FaultDetected as exc:
        print(f"fault: {exc}", file=sys.stderr)
        return EXIT_FAULT
    raw = secret.to_bytes()
    if args.out:
        try:
            with open(args.out, "wb") as f:
                f.write(raw)
        except OSError as exc:
            print(f"write failed: {exc}", file=sys.stderr)
            return EXIT_IO
    if args.reveal:
        print(raw.hex())
    else:
        print("sha256:" + hashlib.sha256(raw).hexdigest())
    return 0


def cmd_bench(args) -> int:
    params = get_params(args.params)
    cost_table = None
    if args.cost_table:
        try:
            cost_table = CostTable.load(args.cost_table)
        except OSError as exc:
            print(f"read failed: {exc}", file=sys.stderr)
            return EXIT_IO
        except ValueError as exc:
            print(f"invalid cost table: {exc}", file=sys.stderr)
            return EXIT_IO
    seed = args.seed or b"bench"
    total, breakdown, ledger = estimate_keygen(
        params, config=_config(args), mode=args.mode, seed=seed,
        cost_table=cost_table)
    print(f"params         {params.name}")
    print(f"mode           {args.mode}")
    for module, cycles in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        print(f"cycles.{module:<12} {cycles}")
    print(f"total cycles   {total}")
    hz = CLOCK_HZ[args.mode]
    print(f"latency        {total / hz * 1e3:.1f} ms at {hz / 1e6:.0f} MHz")
    if args.out:
        try:
            ledger.dump(args.out, args.mode)
        except OSError as exc:
            print(f"write failed: {exc}", file=sys.stderr)
            return EXIT_IO
    return 0


def cmd_trace(args) -> int:
    params = get_params(args.params)
    rng = _rng(args)
    sk = action.random_private_key(params, rng)
    config = _config(args)
    if args.vartime:
        from .trace import OpTrace
        trace = OpTrace()
        _, ok = action.group_action_vartime(
            action.PublicKey(0), sk, params, rng, config, trace=trace)
    else:
        _, ok, trace = action.group_action_ct(
            action.PublicKey(0), sk, params, rng, config)
    if not ok:
        print("fault: action self-check failed", file=sys.stderr)
        return EXIT_FAULT
    try:
        trace.dump(args.out)
    except OSError as exc:
        print(f"write failed: {exc}", file=sys.stderr)
        return EXIT_IO
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
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
