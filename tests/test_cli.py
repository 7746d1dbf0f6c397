"""CLI behavior: reproducibility, agreement, exit codes, formats."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import csidhsim
from csidhsim import oracle
from csidhsim.action import PublicKey, validate_basic
from csidhsim.cli import main
from csidhsim.params import get_params


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_keygen_reproducible(tmp_path, capsys):
    for seed in ("aa", ""):   # the empty seed is a seed, not os.urandom
        outs = []
        for name in ("a1", "a2"):
            prefix = str(tmp_path / name)
            code, out, _ = run(capsys, "--params", "toy419", "--seed", seed,
                               "keygen", "--out", prefix)
            assert code == 0
            outs.append((out, (tmp_path / (name + ".sk")).read_bytes(),
                         (tmp_path / (name + ".pk")).read_bytes()))
        assert outs[0] == outs[1]


def test_dh_agreement_and_reveal(tmp_path, capsys):
    alice, bob = str(tmp_path / "alice"), str(tmp_path / "bob")
    assert run(capsys, "--params", "toy419", "--seed", "01",
               "keygen", "--out", alice)[0] == 0
    assert run(capsys, "--params", "toy419", "--seed", "02",
               "keygen", "--out", bob)[0] == 0
    code, s1, _ = run(capsys, "--params", "toy419", "--seed", "03", "dh",
                      alice + ".sk", bob + ".pk", "--reveal")
    assert code == 0
    code, s2, _ = run(capsys, "--params", "toy419", "--seed", "04", "dh",
                      bob + ".sk", alice + ".pk", "--reveal")
    assert code == 0
    assert s1 == s2
    # default output is a hash, not the secret
    code, hashed, _ = run(capsys, "--params", "toy419", "--seed", "05", "dh",
                          alice + ".sk", bob + ".pk")
    assert code == 0 and hashed.startswith("sha256:")
    assert s1.strip() not in hashed


def test_dh_secret_file(tmp_path, capsys):
    alice, bob = str(tmp_path / "a"), str(tmp_path / "b")
    run(capsys, "--params", "toy419", "--seed", "01", "keygen", "--out", alice)
    run(capsys, "--params", "toy419", "--seed", "02", "keygen", "--out", bob)
    out = tmp_path / "secret.bin"
    code, shown, _ = run(capsys, "--params", "toy419", "--seed", "03", "dh",
                         alice + ".sk", bob + ".pk", "--reveal",
                         "--out", str(out))
    assert code == 0
    assert out.read_bytes().hex() == shown.strip()


def test_exit_io_on_bad_path(tmp_path, capsys):
    code, _, err = run(capsys, "--params", "toy419", "--seed", "00",
                       "keygen", "--out", str(tmp_path / "no/such/dir/x"))
    assert code == 2 and "failed" in err


def test_exit_invalid_peer_on_garbage(tmp_path, capsys):
    alice = str(tmp_path / "alice")
    run(capsys, "--params", "toy419", "--seed", "01", "keygen",
        "--out", alice)
    bad = tmp_path / "bad.pk"
    bad.write_bytes(b"CSIDHPK1" + b"\xff" * 10)
    code, _, err = run(capsys, "--params", "toy419", "dh",
                       alice + ".sk", str(bad))
    assert code == 4 and "invalid" in err
    # header-only files: magic present, parameter id and body missing; the
    # message names the file at fault
    for magic, sk_path, pk_path, kind in (
            (b"CSIDHPK1", alice + ".sk", str(bad), "peer"),
            (b"CSIDHSK1", str(bad), alice + ".pk", "private")):
        bad.write_bytes(magic)
        code, _, err = run(capsys, "--params", "toy419", "dh",
                           sk_path, pk_path)
        assert code == 4 and "truncated" in err
        assert err.startswith(f"invalid {kind} key: ")


def test_exit_invalid_peer_on_singular_curve(tmp_path, capsys):
    from csidhsim.action import PublicKey
    from csidhsim.params import get_params
    toy = get_params("toy419")
    alice = str(tmp_path / "alice")
    run(capsys, "--params", "toy419", "--seed", "01", "keygen",
        "--out", alice)
    evil = tmp_path / "evil.pk"
    evil.write_bytes(PublicKey(2).to_bytes(toy))
    code, _, _ = run(capsys, "--params", "toy419", "--seed", "02", "dh",
                     alice + ".sk", str(evil))
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
    code, out, err = run(capsys, "--params", "toy419", "--seed", "00",
                         "keygen", "--out", str(prefix))
    assert code == 3 and out == ""
    assert err.startswith("fault: ") and "Traceback" not in err
    assert not prefix.with_suffix(".pk").exists()


def test_trace_command_key_independent(tmp_path, capsys):
    files = []
    for seed in ("0a", "0b"):   # different seeds -> different keys
        path = tmp_path / f"trace-{seed}.txt"
        code, _, _ = run(capsys, "--params", "toy419", "--seed", seed,
                         "trace", "--out", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]   # ct trace depends only on the params


def test_trace_command_vartime_key_dependent(tmp_path, capsys):
    files = []
    for seed in ("0a", "1b"):
        path = tmp_path / f"vt-{seed}.txt"
        code, _, _ = run(capsys, "--params", "toy419", "--seed", seed,
                         "--vartime", "trace", "--out", str(path))
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] != files[1]


def test_bench_report(tmp_path, capsys):
    ledger = tmp_path / "ledger.txt"
    code, out, _ = run(capsys, "--params", "toy419", "--seed", "07",
                       "--mode", "asic", "bench", "--out", str(ledger))
    assert code == 0
    assert "total cycles" in out and "180 MHz" in out
    assert "total.asic" in ledger.read_text()


def test_bench_custom_cost_table(tmp_path, capsys):
    cfg = tmp_path / "costs.cfg"
    cfg.write_text("MONT_MUL.fpga = 1\nADD.fpga = 0\nSUB.fpga = 0\n")
    code, out, _ = run(capsys, "--params", "toy419", "--seed", "07",
                       "bench", "--cost-table", str(cfg))
    assert code == 0
    cheap = int(out.splitlines()[-2].split()[-1])   # latency line is last
    assert cheap > 0
    for line in ("MONT_MUL.fpga 1", "FOO.fpga = 3", "MONT_MUL.gpu = 3",
                 "MONT_MUL.fpga = fast", "overhead.fpga = x",
                 "MONT_MUL.fpga = -100", "overhead.fpga = inf",
                 "overhead.fpga = nan", "overhead.fpga = 1e400",
                 "overhead.fpga = -1e308", "MONT_MUL.fpga = " + "9" * 400,
                 "MUL_WIDE.fpga = 22"):
        cfg.write_text("ADD.fpga = 0\n" + line + "\n")
        code, out, err = run(capsys, "--params", "toy419", "--seed", "07",
                             "bench", "--cost-table", str(cfg))
        assert code == 2 and out == ""
        assert f"costs.cfg:2: bad cost-table line {line!r}" in err


def test_malformed_seed_is_usage_error(tmp_path, capsys):
    prefix = str(tmp_path / "x")
    for argv in (("keygen", "--out", prefix), ("bench",)):
        with pytest.raises(SystemExit) as exc:
            main(["--params", "toy419", "--seed", "zz", *argv])
        assert exc.value.code == 2
        assert "argument --seed" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


TOY = get_params("toy419")
ORDINARY = next(A for A in range(3, TOY.p) if validate_basic(A, TOY)
                and oracle.curve_order(A, TOY.p) != TOY.p + 1)

# (files to write, argv after "--params toy419", exit code).  Paths in argv
# are relative to the directory holding alice.sk / alice.pk.
HOSTILE = {
    "garbage peer key": (
        {"x.pk": b"CSIDHPK1" + b"\xff" * 10}, ["dh", "alice.sk", "x.pk"], 4),
    "header-only peer key": (
        {"x.pk": b"CSIDHPK1"}, ["dh", "alice.sk", "x.pk"], 4),
    "header-only private key": (
        {"x.sk": b"CSIDHSK1"}, ["dh", "x.sk", "alice.pk"], 4),
    "key for other params": (
        {}, ["--params", "csidh512", "dh", "alice.sk", "alice.pk"], 4),
    "singular curve": (
        {"x.pk": PublicKey(2).to_bytes(TOY)}, ["dh", "alice.sk", "x.pk"], 4),
    "singular curve, unvalidated": (
        {"x.pk": PublicKey(2).to_bytes(TOY)},
        ["dh", "alice.sk", "x.pk", "--skip-validate"], 4),
    "ordinary curve": (
        {"x.pk": PublicKey(ORDINARY).to_bytes(TOY)},
        ["dh", "alice.sk", "x.pk"], 4),
    "ordinary curve, unvalidated ct": (
        {"x.pk": PublicKey(ORDINARY).to_bytes(TOY)},
        ["dh", "alice.sk", "x.pk", "--skip-validate"], 3),
    "ordinary curve, unvalidated vartime": (
        {"x.pk": PublicKey(ORDINARY).to_bytes(TOY)},
        ["--vartime", "dh", "alice.sk", "x.pk", "--skip-validate"], 3),
    "missing key file": ({}, ["dh", "alice.sk", "none.pk"], 2),
    "unwritable output": ({}, ["keygen", "--out", "none/x"], 2),
    "non-hex seed": ({}, ["--seed", "zz", "keygen", "--out", "y"], 2),
    "infinite overhead": (
        {"c.cfg": b"overhead.fpga = inf\n"},
        ["bench", "--cost-table", "c.cfg"], 2),
    "nan overhead": (
        {"c.cfg": b"overhead.fpga = nan\n"},
        ["bench", "--cost-table", "c.cfg"], 2),
    "overflowing overhead": (
        {"c.cfg": b"overhead.fpga = 1e400\n"},
        ["bench", "--cost-table", "c.cfg"], 2),
    "undecodable cost table": (
        {"c.cfg": b"MONT_MUL.fpga = 8\xff7\n"},
        ["bench", "--cost-table", "c.cfg"], 2),
}


@pytest.fixture(scope="module")
def alice_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("hostile")
    assert main(["--params", "toy419", "--seed", "01", "keygen",
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
        [sys.executable, "-m", "csidhsim.cli", "--params", "toy419", *argv],
        cwd=alice_dir, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == expected, proc.stderr
    assert proc.stderr and "Traceback" not in proc.stderr


def test_unknown_params_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--params", "csidh1024", "keygen", "--out", "x"])
