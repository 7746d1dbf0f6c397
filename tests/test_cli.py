"""CLI behavior: reproducibility, agreement, exit codes, formats."""

import argparse
import builtins
import functools
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import csidhsim
from csidhsim import oracle
from csidhsim.action import PrivateKey, PublicKey, validate_basic
from csidhsim.cli import _build_parser, main
from csidhsim.params import get_params
from test_acceptance import PINNED


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_keygen_reproducible(tmp_path, capsys):
    for seed in ("aa", ""):   # the empty seed is a seed, not os.urandom
        outs = []
        for name in ("a1", "a2"):
            prefix = str(tmp_path / name)
            code, out, _ = run(capsys, "keygen", "--params", "toy419",
                               "--seed", seed, "--out", prefix)
            assert code == 0
            outs.append((out, (tmp_path / (name + ".sk")).read_bytes(),
                         (tmp_path / (name + ".pk")).read_bytes()))
        assert outs[0] == outs[1]


def test_dh_agreement_and_reveal(tmp_path, capsys):
    alice, bob = str(tmp_path / "alice"), str(tmp_path / "bob")
    assert run(capsys, "keygen", "--params", "toy419", "--seed", "01",
               "--out", alice)[0] == 0
    assert run(capsys, "keygen", "--params", "toy419", "--seed", "02",
               "--out", bob)[0] == 0
    code, s1, _ = run(capsys, "dh", alice + ".sk", bob + ".pk", "--reveal")
    assert code == 0
    code, s2, _ = run(capsys, "dh", bob + ".sk", alice + ".pk", "--reveal")
    assert code == 0
    assert s1 == s2
    # default output is a hash, not the secret
    code, hashed, _ = run(capsys, "dh", alice + ".sk", bob + ".pk")
    assert code == 0 and hashed.startswith("sha256:")
    assert s1.strip() not in hashed


def test_dh_secret_file(tmp_path, capsys):
    alice, bob = str(tmp_path / "a"), str(tmp_path / "b")
    run(capsys, "keygen", "--params", "toy419", "--seed", "01", "--out", alice)
    run(capsys, "keygen", "--params", "toy419", "--seed", "02", "--out", bob)
    out = tmp_path / "secret.bin"
    code, shown, _ = run(capsys, "dh", alice + ".sk", bob + ".pk",
                         "--reveal", "--out", str(out))
    assert code == 0
    assert out.read_bytes().hex() == shown.strip()


def test_exit_io_on_bad_path(tmp_path, capsys):
    code, _, err = run(capsys, "keygen", "--params", "toy419", "--seed", "00",
                       "--out", str(tmp_path / "no/such/dir/x"))
    assert code == 2 and "failed" in err


def test_exit_invalid_peer_on_garbage(tmp_path, capsys):
    alice = str(tmp_path / "alice")
    run(capsys, "keygen", "--params", "toy419", "--seed", "01",
        "--out", alice)
    bad = tmp_path / "bad.pk"
    bad.write_bytes(b"CSIDHPK1" + b"\xff" * 10)
    code, _, err = run(capsys, "dh", alice + ".sk", str(bad))
    assert code == 4 and "invalid" in err
    # header-only files: magic present, parameter id and body missing; the
    # message names the file at fault
    for magic, sk_path, pk_path, kind in (
            (b"CSIDHPK1", alice + ".sk", str(bad), "peer"),
            (b"CSIDHSK1", str(bad), alice + ".pk", "private")):
        bad.write_bytes(magic)
        code, _, err = run(capsys, "dh", sk_path, pk_path)
        assert code == 4 and "truncated" in err
        assert err.startswith(f"invalid {kind} key: ")


def test_exit_invalid_peer_on_singular_curve(tmp_path, capsys):
    from csidhsim.action import PublicKey
    from csidhsim.params import get_params
    toy = get_params("toy419")
    alice = str(tmp_path / "alice")
    run(capsys, "keygen", "--params", "toy419", "--seed", "01",
        "--out", alice)
    evil = tmp_path / "evil.pk"
    evil.write_bytes(PublicKey(2).to_bytes(toy))
    code, _, _ = run(capsys, "dh", alice + ".sk", str(evil))
    assert code == 4


def test_exit_fault_on_traced_side_mismatch(tmp_path, capsys, monkeypatch):
    # The ct path re-classifies each sampled point on the traced context;
    # a classification that disagrees with the sampler is a fault.
    real_xtwist = csidhsim.action.xtwist

    def wrong_side(fp, x, A):
        side = real_xtwist(fp, x, A)
        return (csidhsim.CurveSide.TWIST if side is csidhsim.CurveSide.CURVE
                else csidhsim.CurveSide.CURVE)

    monkeypatch.setattr(csidhsim.action, "xtwist", wrong_side)
    prefix = tmp_path / "k"
    code, out, err = run(capsys, "keygen", "--params", "toy419",
                         "--seed", "00", "--out", str(prefix))
    assert code == 3 and out == ""
    assert err.startswith("fault: ") and "Traceback" not in err
    assert not prefix.with_suffix(".pk").exists()


def test_trace_command_key_independent(tmp_path, capsys):
    files = []
    for seed in ("0a", "0b"):   # different seeds -> different keys
        path = tmp_path / f"trace-{seed}.txt"
        code, _, _ = run(capsys, "trace", "--params", "toy419",
                         "--seed", seed, "--out", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]   # ct trace depends only on the params


def test_keygen_and_dh_run_only_the_constant_time_action(tmp_path, capsys,
                                                        monkeypatch):
    class VartimeReached(Exception):
        pass

    def vartime(*args):
        raise VartimeReached

    monkeypatch.setattr(csidhsim.action, "group_action_vartime", vartime)
    alice, bob = str(tmp_path / "alice"), str(tmp_path / "bob")
    for seed, prefix in (("01", alice), ("02", bob)):
        assert run(capsys, "keygen", "--params", "toy419", "--seed", seed,
                   "--out", prefix)[0] == 0
    assert run(capsys, "dh", alice + ".sk", bob + ".pk")[0] == 0
    with pytest.raises(VartimeReached):   # trace --vartime still reaches it
        main(["trace", "--params", "toy419", "--seed", "01", "--vartime",
              "--out", str(tmp_path / "vt.trace")])


def test_trace_command_vartime_key_dependent(tmp_path, capsys):
    files = []
    for seed in ("0a", "1b"):
        path = tmp_path / f"vt-{seed}.txt"
        code, _, _ = run(capsys, "trace", "--params", "toy419",
                         "--seed", seed, "--vartime", "--out", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] != files[1]


def bench_totals(out):
    """{mode: total cycles} from a bench report's mode and total rows."""
    rows = {line[:16].strip(): line[16:].split()
            for line in out.splitlines()}
    return dict(zip(rows["mode"], map(int, rows["total cycles"])))


def test_bench_report(tmp_path, capsys):
    ledger = tmp_path / "ledger.txt"
    code, out, _ = run(capsys, "bench", "--params", "toy419",
                       "--out", str(ledger))
    assert code == 0
    assert "total cycles" in out and "200 MHz" in out and "180 MHz" in out
    assert bench_totals(out) == PINNED["toy419"]["total"]
    text = ledger.read_text()
    assert "total.fpga" in text and "total.asic" in text


def test_bench_runs_no_group_action(tmp_path, capsys, monkeypatch):
    # bench prices `action.ct_trace`, so its figures need no action run.
    def no_action(*args, **kwargs):
        raise AssertionError("bench ran a group action")

    for name in ("group_action_ct", "group_action_vartime", "run_action"):
        monkeypatch.setattr(csidhsim.action, name, no_action)
    ledger = tmp_path / "ledger.txt"
    code, out, _ = run(capsys, "bench", "--params", "csidh512",
                       "--out", str(ledger))
    assert code == 0
    assert bench_totals(out) == {"fpga": 104_299_433, "asic": 106_627_178}
    text = ledger.read_text()
    assert "total.fpga = 104299433\n" in text
    assert "total.asic = 106627178\n" in text


def test_bench_custom_cost_table(tmp_path, capsys):
    cfg = tmp_path / "costs.cfg"
    cfg.write_text("MONT_MUL.fpga = 1\nADD.fpga = 0\nSUB.fpga = 0\n")
    code, out, _ = run(capsys, "bench", "--params", "toy419",
                       "--cost-table", str(cfg))
    assert code == 0
    totals = bench_totals(out)
    assert totals["fpga"] > 0
    # the table prices fpga only; the asic column keeps the default costs
    assert totals["asic"] == PINNED["toy419"]["total"]["asic"]
    for line in ("MONT_MUL.fpga 1", "FOO.fpga = 3", "MONT_MUL.gpu = 3",
                 "MONT_MUL.fpga = fast", "overhead.fpga = x",
                 "MONT_MUL.fpga = -100", "overhead.fpga = inf",
                 "overhead.fpga = nan", "overhead.fpga = 1e400",
                 "overhead.fpga = -1e308", "MONT_MUL.fpga = " + "9" * 400,
                 "MUL_WIDE.fpga = 22"):
        cfg.write_text("ADD.fpga = 0\n" + line + "\n")
        code, out, err = run(capsys, "bench", "--params", "toy419",
                             "--cost-table", str(cfg))
        assert code == 2 and out == ""
        assert f"costs.cfg:2: bad cost-table line {line!r}" in err


@pytest.mark.parametrize("params, overhead, fpga", [
    ("toy419", -100, None),
    ("toy419", -1e9, None),
    ("csidh512", -0.675, 103_000_396),
])
def test_bench_negative_overhead(tmp_path, capsys, params, overhead, fpga):
    # An overhead that prices the trace below zero is an unusable table: no
    # report, no ledger file.  The calibrated csidh512 fit of ROADMAP item
    # 17 is negative but still prices the trace, and stays legal.
    cfg, ledger = tmp_path / "costs.cfg", tmp_path / "ledger.txt"
    cfg.write_text(f"overhead.fpga = {overhead}\n")
    code, out, err = run(capsys, "bench", "--params", params,
                         "--cost-table", str(cfg), "--out", str(ledger))
    if fpga is None:
        assert code == 2 and out == "" and not ledger.exists()
        assert err.startswith(f"invalid cost table: overhead.fpga = "
                              f"{float(overhead)} prices the trace at -")
    else:
        assert code == 0 and bench_totals(out)["fpga"] == fpga
        assert "515.0 ms at 200 MHz" in out
        assert f"total.fpga = {fpga}\n" in ledger.read_text()


def test_malformed_seed_is_usage_error(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    for command in ("keygen", "trace"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--params", "toy419", "--seed", "zz",
                  "--out", prefix])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


# The options each subcommand reads, and so takes; -h aside, there are no
# global options.
OPTIONS = {
    "keygen": {"--params", "--seed", "--out"},
    "dh": {"--reveal", "--out"},
    "bench": {"--params", "--cost-table", "--out"},
    "trace": {"--params", "--seed", "--vartime", "--out"},
}


def subparsers(parser):
    sub, = (act for act in parser._actions
            if isinstance(act, argparse._SubParsersAction))
    return sub.choices


def test_each_subcommand_takes_exactly_the_flags_it_reads():
    parser = _build_parser()
    assert set(parser._option_string_actions) == {"-h", "--help"}
    subs = subparsers(parser)
    assert set(subs) == set(OPTIONS)
    for name, sub in subs.items():
        options = set(sub._option_string_actions) - {"-h", "--help"}
        assert options == OPTIONS[name], name
    assert sum(map(len, OPTIONS.values())) == 12


@pytest.mark.parametrize("argv", [
    ["--seed", "00", "bench"],
    ["bench", "--mode", "asic"],
    ["bench", "--vartime"],
    ["keygen", "--mode", "asic", "--out", "k"],
    ["keygen", "--vartime", "--params", "toy419", "--seed", "00",
     "--out", "k"],
    ["dh", "--params", "toy419", "a.sk", "b.pk"],
    ["dh", "--vartime", "a.sk", "b.pk"],
    ["dh", "--seed", "00", "a.sk", "b.pk"],
], ids=" ".join)
def test_flag_in_wrong_place_is_usage_error(argv, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:   # argparse, not an I/O error
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: ") and "Traceback" not in err
    assert not list(tmp_path.iterdir())


def test_dh_takes_params_from_key_files(tmp_path, capsys):
    alice, bob = str(tmp_path / "alice"), str(tmp_path / "bob")
    for seed, prefix in (("01", alice), ("02", bob)):
        assert run(capsys, "keygen", "--params", "toy419", "--seed", seed,
                   "--out", prefix)[0] == 0
    code, out, _ = run(capsys, "dh", alice + ".sk", bob + ".pk")
    assert code == 0
    assert out == ("sha256:60ad1fb6b44656467ab4ba43861bf2f4"
                   "6c5eaa8597ba606b417764c630f351fd\n")
    # a key pair from different sets is refused, naming both, either way
    full_sk, full_pk = tmp_path / "full.sk", tmp_path / "full.pk"
    full_sk.write_bytes(PrivateKey((0,) * FULL.n, FULL).to_bytes())
    full_pk.write_bytes(PublicKey(0).to_bytes(FULL))
    for sk_path, pk_path in ((alice + ".sk", full_pk),
                             (full_sk, alice + ".pk")):
        code, out, err = run(capsys, "dh", str(sk_path), str(pk_path))
        assert code == 4 and out == ""
        assert err.startswith("invalid peer key: ")
        assert "toy419" in err and "csidh512" in err


TOY = get_params("toy419")
FULL = get_params("csidh512")
ORDINARY = next(A for A in range(3, TOY.p) if validate_basic(A, TOY)
                and oracle.curve_order(A, TOY.p) != TOY.p + 1)

# (files to write, argv, exit code).  Paths in argv are relative to the
# directory holding alice.sk / alice.pk, a toy419 key pair.
HOSTILE = {
    "garbage peer key": (
        {"x.pk": b"CSIDHPK1" + b"\xff" * 10}, ["dh", "alice.sk", "x.pk"], 4),
    "header-only peer key": (
        {"x.pk": b"CSIDHPK1"}, ["dh", "alice.sk", "x.pk"], 4),
    "header-only private key": (
        {"x.sk": b"CSIDHSK1"}, ["dh", "x.sk", "alice.pk"], 4),
    "key for other params": (
        {"f.pk": PublicKey(0).to_bytes(FULL)}, ["dh", "alice.sk", "f.pk"], 4),
    "private key for other params": (
        {"f.sk": PrivateKey((0,) * FULL.n, FULL).to_bytes()},
        ["dh", "f.sk", "alice.pk"], 4),
    "singular curve": (
        {"x.pk": PublicKey(2).to_bytes(TOY)}, ["dh", "alice.sk", "x.pk"], 4),
    "ordinary curve": (
        {"x.pk": PublicKey(ORDINARY).to_bytes(TOY)},
        ["dh", "alice.sk", "x.pk"], 4),
    "skip-validate flag": (
        {"x.pk": PublicKey(ORDINARY).to_bytes(TOY)},
        ["dh", "alice.sk", "x.pk", "--skip-validate"], 2),
    "missing key file": ({}, ["dh", "alice.sk", "none.pk"], 2),
    "unwritable output": (
        {}, ["keygen", "--params", "toy419", "--out", "none/x"], 2),
    "non-hex seed": (
        {}, ["keygen", "--params", "toy419", "--seed", "zz", "--out", "y"], 2),
    "infinite overhead": (
        {"c.cfg": b"overhead.fpga = inf\n"},
        ["bench", "--params", "toy419", "--cost-table", "c.cfg"], 2),
    "nan overhead": (
        {"c.cfg": b"overhead.fpga = nan\n"},
        ["bench", "--params", "toy419", "--cost-table", "c.cfg"], 2),
    "overflowing overhead": (
        {"c.cfg": b"overhead.fpga = 1e400\n"},
        ["bench", "--params", "toy419", "--cost-table", "c.cfg"], 2),
    "negative total cycles": (
        {"c.cfg": b"overhead.fpga = -100\n"},
        ["bench", "--params", "toy419", "--cost-table", "c.cfg"], 2),
    "undecodable cost table": (
        {"c.cfg": b"MONT_MUL.fpga = 8\xff7\n"},
        ["bench", "--params", "toy419", "--cost-table", "c.cfg"], 2),
}


@pytest.fixture(scope="module")
def alice_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile")
    assert main(["keygen", "--params", "toy419", "--seed", "01",
                 "--out", str(d / "alice")]) == 0
    return d


@pytest.mark.parametrize("case", sorted(HOSTILE))
def test_hostile_input_exit_code(case, alice_dir):
    # A fresh interpreter, so that an uncaught exception would show up as a
    # traceback on stderr, and a timeout, so that a hang fails.
    files, argv, expected = HOSTILE[case]
    for name, data in files.items():
        (alice_dir / name).write_bytes(data)
    env = dict(os.environ,
               PYTHONPATH=str(Path(csidhsim.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "csidhsim.cli", *argv],
        cwd=alice_dir, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == expected, proc.stderr
    assert proc.stderr and "Traceback" not in proc.stderr


def test_unknown_params_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["keygen", "--params", "csidh1024", "--out", "x"])


README = Path(__file__).parent.parent / "README.md"


def readme_cli_section():
    readme = README.read_text()
    return readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


def test_readme_names_only_real_flags():
    # Every --flag the README's CLI section names, exit-code table included,
    # must be an option of some subcommand of the real parser.
    named = set(re.findall(r"--[a-z][a-z-]*", readme_cli_section()))
    options = set()
    for sub in subparsers(_build_parser()).values():
        options |= set(sub._option_string_actions)
    assert named and named <= options, named - options


def test_readme_names_only_real_api():
    # In README's inline code and fenced Python blocks, every dotted name
    # that starts at the package, one of its modules or a public class or
    # function a module defines must resolve; so must every call of a bare
    # name that is not a builtin.
    modules = {m.name: importlib.import_module(f"csidhsim.{m.name}")
               for m in pkgutil.iter_modules(csidhsim.__path__)}
    roots = {"csidhsim": csidhsim, **modules}
    for module in modules.values():
        roots.update((name, obj) for name, obj in vars(module).items()
                     if not name.startswith("_")
                     and getattr(obj, "__module__", None) == module.__name__)
    readme = README.read_text()
    fence = re.compile(r"^```(\w*)\n(.*?)^```", re.S | re.M)
    code = " ".join([body for lang, body in fence.findall(readme)
                     if lang == "python"]
                    + re.findall(r"`([^`\n]+)`", fence.sub("", readme)))
    dotted = [name.split(".") for name in set(re.findall(
        r"(?<![\w./])[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+", code))
        if name.split(".", 1)[0] in roots]
    called = set(re.findall(r"(?<![\w.])([A-Za-z_]\w*)\(", code))
    members = set(roots).union(*map(dir, roots.values()))
    missing = [".".join(parts) for parts in dotted
               if functools.reduce(lambda obj, attr: getattr(obj, attr, None),
                                   parts[1:], roots[parts[0]]) is None]
    missing += [name + "(" for name in called
                if not hasattr(builtins, name) and name not in members]
    assert dotted and called and not missing, missing


def test_readme_commands_parse():
    # Every csidhsim command in the README's CLI code block, comments
    # stripped, must be accepted by the real parser as written.
    block = readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [line.split("#", 1)[0].strip() for line in block.splitlines()]
    commands = [c for c in commands if c.startswith("csidhsim ")]
    assert commands
    parser = _build_parser()
    for command in commands:
        parser.parse_args(shlex.split(command)[1:])
