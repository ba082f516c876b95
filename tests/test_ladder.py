"""The stage probe in tools/ladder.py."""

import importlib.util
from pathlib import Path

from multid.request import TIME_LIMIT_ENV

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ladder.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("ladder", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_a_stage_cut_off_at_the_cap_keeps_its_counters(monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setenv(TIME_LIMIT_ENV, "1000")
    first, *rest = tool.ladder("t3_t4_t5")
    assert first.startswith("t3_t4_t5 m=2 If1 ")
    assert first.endswith(": cut off at the cap")
    assert int(first.split(" reductions=")[1].split()[0]) > 0
    assert rest == ["t3_t4_t5 m=2 Jfm skipped", "t3_t4_t5 m=2 b skipped"]
    assert capsys.readouterr().out.splitlines() == [first, *rest]
