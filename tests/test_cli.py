import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from multid import groebner
from multid.cli import main
from multid.parsing import parse_polynomial


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bfunction_text(capsys):
    code, out, _ = run_cli(
        capsys, "bfunction", "--vars", "x,y", "--ideal", "x^2+y^3"
    )
    assert code == 0
    assert out.strip() == "(s+5/6)(s+1)(s+7/6)"


def test_bfunction_with_multiplier(capsys):
    code, out, _ = run_cli(
        capsys, "bfunction", "--vars", "x,y", "--ideal", "x^2+y^3", "--g", "x"
    )
    assert code == 0
    assert out.strip() == "(s+1)(s+11/6)(s+13/6)"


def test_lct_text(capsys):
    code, out, _ = run_cli(capsys, "lct", "--vars", "x,y", "--ideal", "x^2,y^3")
    assert code == 0
    assert out.strip() == "5/6"


def test_multiplier_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys,
        "multiplier",
        "--vars",
        "x,y",
        "--ideal",
        "x*y*(x+y)*(x+2*y)",
        "--c",
        "3/4",
        "--format",
        "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "multiplier"
    assert payload["input"]["variables"] == ["x", "y"]
    assert payload["result"]["c"] == "3/4"
    gens = payload["result"]["generators"]
    # Emitted generator strings parse back to polynomials (round trip) and
    # span <x, y>^2.
    parsed = [parse_polynomial(g, ("x", "y")) for g in gens]
    assert sorted(str(p) for p in parsed) == sorted(gens)
    assert {str(p) for p in parsed} == {"x^2", "x*y", "y^2"}
    stats = payload["stats"]
    assert set(stats) >= {"spairs", "reductions", "max_coeff_bits", "millis"}


def test_jumps_text(capsys):
    code, out, _ = run_cli(
        capsys, "jumps", "--vars", "x", "--ideal", "x", "--cmax", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lct = 1"
    assert lines[1] == "c = 0: 1"
    assert lines[2] == "c = 1: x"
    assert lines[3] == "c = 2: x^2"


def test_verify_command(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--vars", "x,y", "--ideal", "x^2+y^3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "(s+5/6)(s+1)(s+7/6)"
    assert "minimal: True" in lines[1]
    assert "algorithms agree: True" in lines[2]


def test_stats_flag_in_text_mode(capsys):
    code, out, _ = run_cli(
        capsys, "lct", "--vars", "x", "--ideal", "x", "--stats"
    )
    assert code == 0
    assert "stats: spairs=" in out


def test_stats_count_one_invocation(capsys):
    args = ("lct", "--vars", "x", "--ideal", "x", "--format", "json")
    proc = subprocess.run(
        [sys.executable, "-m", "multid.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    alone = json.loads(proc.stdout)["stats"]
    run_cli(capsys, "bfunction", "--vars", "x,y", "--ideal", "x^2,y^3")
    _, out, _ = run_cli(capsys, *args)
    after = json.loads(out)["stats"]
    # work done by an earlier invocation in the same process is not counted
    alone.pop("millis")
    after.pop("millis")
    assert after == alone


def test_usage_error_exit_code(capsys):
    assert main(["bfunction", "--vars", "x,y"]) == 1
    capsys.readouterr()
    assert main(["nonsense"]) == 1
    capsys.readouterr()


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "bfunction", "--vars", "x,y", "--ideal", "xy")
    assert code == 2
    assert "parse error" in err


def test_computation_error_exit_code(capsys):
    # lct of the unit ideal is undefined.
    code, _, err = run_cli(capsys, "lct", "--vars", "x", "--ideal", "x,x+1")
    assert code == 3
    assert "error" in err


def test_deterministic_output(capsys):
    args = ("jumps", "--vars", "x,y", "--ideal", "x^2+y^3", "--cmax", "1",
            "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    a, b = json.loads(first), json.loads(second)
    # wall-clock millis is the one legitimately nondeterministic field
    a["stats"].pop("millis")
    b["stats"].pop("millis")
    assert a == b


def test_timeout_exit_code():
    env = dict(os.environ, MULTID_TIME_LIMIT_MS="1")
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "multid.cli",
            "bfunction",
            "--vars",
            "x,y",
            "--ideal",
            "x*y*(x+y)*(x+2*y)",
            "--m",
            "2",
            "--format",
            "json",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 3
    assert json.loads(proc.stdout)["result"] == "timeout"


def test_time_limit_covers_the_whole_invocation(capsys, monkeypatch):
    # every Groebner run takes 0.4 s on a fake clock: each stays under the
    # 1 s cap, but a jumps query needs more than two of them
    clock = [0.0]
    monkeypatch.setattr(groebner, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    real = groebner.buchberger_ipolys

    def run(*args):
        out = real(*args)
        clock[0] += 0.4
        return out

    monkeypatch.setattr(groebner, "buchberger_ipolys", run)
    monkeypatch.setenv("MULTID_TIME_LIMIT_MS", "1000")
    code, out, _ = run_cli(
        capsys, "jumps", "--vars", "x,y", "--ideal", "x^2+y^3", "--cmax", "1",
        "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["result"] == "timeout"
