import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

from multid import cli, groebner, multiplier, request
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
    assert set(stats) >= {
        "spairs", "pruned_chain", "pruned_product", "reductions",
        "max_coeff_bits", "millis", "zero_steps",
    }


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
    assert " pruned_chain=" in out and " pruned_product=" in out


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
    for argv in (
        ("bfunction", "--vars", "x,y", "--ideal", "xy"),
        ("multiplier", "--vars", "x", "--ideal", "x", "--c", "1/0"),
        ("jumps", "--vars", "x", "--ideal", "x", "--cmax", "1/0"),
        ("multiplier", "--vars", "x", "--ideal", "x", "--c", "abc"),
        ("multiplier", "--vars", "x", "--ideal", "x", "--c=-1"),
        ("jumps", "--vars", "x", "--ideal", "x", "--cmax=-1"),
        ("jumps", "--vars", "x", "--ideal", "x", "--cmax=0"),
        # input that Signature or IdealInput rejects
        ("bfunction", "--vars", "x,y", "--ideal", "0"),
        ("bfunction", "--vars", "x,y", "--ideal", ","),
        ("bfunction", "--vars", "x,x", "--ideal", "x"),
        ("bfunction", "--vars", "s", "--ideal", "s"),
        ("bfunction", "--vars", "t1", "--ideal", "t1"),
        ("bfunction", "--vars", "Dx", "--ideal", "Dx"),
        ("bfunction", "--vars", ",", "--ideal", "1"),
        ("bfunction", "--vars", "x,y", "--ideal", "x^2+y^3", "--m", "0"),
        ("bfunction", "--vars", "x,y", "--ideal", "x^2+y^3", "--g", "0"),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2, argv
        assert "parse error" in err, argv


def test_huge_exponent_is_a_parse_error(capsys):
    # rejected before any multiplication, so this returns at once
    code, _, err = run_cli(
        capsys, "bfunction", "--vars", "x", "--ideal", "x^99999999999999999999"
    )
    assert code == 2
    assert "exponent exceeds the limit" in err


@pytest.mark.parametrize("value", ["abc", "-5", "1.5"])
def test_invalid_time_limit_is_a_usage_error(capsys, monkeypatch, value):
    monkeypatch.setenv("MULTID_TIME_LIMIT_MS", value)
    code, out, err = run_cli(capsys, "lct", "--vars", "x,y", "--ideal", "x^2,y^3")
    assert code == 1
    assert out == ""
    assert "MULTID_TIME_LIMIT_MS" in err and repr(value) in err
    # library callers get a ValueError that says the same
    with pytest.raises(ValueError, match="MULTID_TIME_LIMIT_MS"):
        with request.collect_stats():
            pass


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
    monkeypatch.setattr(request, "time", SimpleNamespace(monotonic=lambda: clock[0]))
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


def test_timeout_reports_the_counters_of_the_cut_run(capsys, monkeypatch):
    # every clock reading advances 1 ms on a fake clock, so the 30 ms cap
    # trips inside I_{f,1}'s run, the first one; the JSON still carries the
    # counters that run reached
    clock = [0.0]

    def tick():
        clock[0] += 0.001
        return clock[0]

    monkeypatch.setattr(request, "time", SimpleNamespace(monotonic=tick))
    real = groebner.buchberger_ipolys
    runs = []

    def run(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "buchberger_ipolys", run)
    monkeypatch.setenv("MULTID_TIME_LIMIT_MS", "30")
    code, out, _ = run_cli(
        capsys, "bfunction", "--vars", "x,y", "--ideal", "x^2+y^3",
        "--format", "json",
    )
    assert code == 3
    payload = json.loads(out)
    assert payload["command"] == "bfunction"
    assert payload["result"] == "timeout"
    assert len(runs) == 1
    assert payload["stats"]["spairs"] > 0
    assert payload["stats"]["reductions"] > 0


def test_time_limit_covers_building_a_power(capsys, monkeypatch):
    # every clock reading advances 1 ms on a fake clock; <x, y>^300 takes
    # about a thousand multiplications, each checking the 500 ms cap, so
    # the cap stops them before J_f(300)'s Groebner run starts
    clock = [0.0]

    def tick():
        clock[0] += 0.001
        return clock[0]

    monkeypatch.setattr(request, "time", SimpleNamespace(monotonic=tick))
    real = groebner.buchberger_ipolys
    runs = []

    def run(*args):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(groebner, "buchberger_ipolys", run)
    monkeypatch.setenv("MULTID_TIME_LIMIT_MS", "500")
    code, out, _ = run_cli(
        capsys, "bfunction", "--vars", "x,y", "--ideal", "x,y", "--m", "300",
        "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["result"] == "timeout"
    assert len(runs) == 1  # I_{f,1}'s run alone


def test_time_limit_covers_parsing(capsys, monkeypatch):
    # every clock reading advances 1 ms on a fake clock; expanding
    # (x+y+z)^40 reads it once per left-hand term of each product, about
    # 270 times, so the 100 ms cap stops the parser: the input is never
    # built and no Groebner run starts
    clock = [0.0]

    def tick():
        clock[0] += 0.001
        return clock[0]

    monkeypatch.setattr(request, "time", SimpleNamespace(monotonic=tick))
    runs, inputs = [], []
    real_run, real_input = groebner.buchberger_ipolys, cli.IdealInput

    def run(*args):
        runs.append(args)
        return real_run(*args)

    def build_input(*args):
        inputs.append(args)
        return real_input(*args)

    monkeypatch.setattr(groebner, "buchberger_ipolys", run)
    monkeypatch.setattr(cli, "IdealInput", build_input)
    monkeypatch.setenv("MULTID_TIME_LIMIT_MS", "100")
    code, out, _ = run_cli(
        capsys, "bfunction", "--vars", "x,y,z", "--ideal", "(x+y+z)^40",
        "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["result"] == "timeout"
    assert inputs == [] and runs == []


def test_time_limit_covers_the_jump_candidates(capsys, monkeypatch):
    # every clock reading advances 1 ms on a fake clock; the lct of <x>
    # takes a few dozen readings, and closing its candidates under +1 up to
    # --cmax 1000 one per step, so the 100 ms cap trips in that closure,
    # before any multiplier ideal is formed
    clock = [0.0]

    def tick():
        clock[0] += 0.001
        return clock[0]

    monkeypatch.setattr(request, "time", SimpleNamespace(monotonic=tick))
    calls = []
    real = multiplier.multiplier_ideal_ideal

    def ideal(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(multiplier, "multiplier_ideal_ideal", ideal)
    monkeypatch.setenv("MULTID_TIME_LIMIT_MS", "100")
    code, out, _ = run_cli(
        capsys, "jumps", "--vars", "x", "--ideal", "x", "--cmax", "1000",
        "--format", "json",
    )
    assert code == 3
    assert json.loads(out)["result"] == "timeout"
    assert calls == []


def test_multiplier_of_a_large_c(capsys):
    # J(a^c) = a^c J(a^0), with a^c built once and without recursion
    code, out, _ = run_cli(
        capsys, "multiplier", "--vars", "x", "--ideal", "x", "--c", "1500"
    )
    assert code == 0
    assert out.strip() == "x^1500"


def test_multiplier_of_a_large_c_in_two_generators(capsys):
    # J(<x,y>^200) = <x,y>^199, whose 200 distinct products are each formed
    # once; with repeats there would be 2^199
    code, out, _ = run_cli(
        capsys, "multiplier", "--vars", "x,y", "--ideal", "x,y", "--c", "200"
    )
    assert code == 0
    gens = out.strip().split(", ")
    assert len(gens) == 200
    assert set(gens) == {
        str(parse_polynomial(f"x^{i}*y^{199 - i}", ("x", "y"))) for i in range(200)
    }
