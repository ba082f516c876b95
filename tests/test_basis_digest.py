"""The basis-digest tool in tools/basis_digest.py."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "basis_digest.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("basis_digest", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_digest_repeats_on_the_cusp_queries():
    tool = load_tool()
    cusp = [q for q in tool.queries() if "cusp" in q.name]
    assert len(cusp) == 6
    first = [tool.query_runs(q) for q in cusp]
    assert all(lines and ok for lines, ok in first)
    assert [tool.query_runs(q) for q in cusp] == first


def test_digest_flags_a_wrong_answer():
    tool = load_tool()
    query = next(q for q in tool.queries() if q.name == "cusp")
    lines, ok = tool.query_runs(tool.Query("cusp", query.argv, "(s+1)", "none"))
    assert lines == tool.query_runs(query)[0]
    assert not ok


def test_no_query_repeats_a_basis_run():
    # each multiplier ideal of a filtration is computed once per input
    tool = load_tool()
    for query in tool.WORKLOADS["filtration_sweep"].queries:
        lines, ok = tool.query_runs(query)
        assert ok
        bases = [line.rsplit(" basis=", 1)[1] for line in lines if " basis=" in line]
        assert len(set(bases)) == len(bases), query.name
