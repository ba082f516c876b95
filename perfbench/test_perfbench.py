"""Checks of the benchmark itself; run with `python3 -m pytest perfbench -q`."""

import json
from fractions import Fraction

import run
from spans import Tracer, counts
from workloads import WORKLOADS

cli = run.load_cli()


def _queries(workload):
    return {q.name: q for q in WORKLOADS[workload].queries}


def _traced(tracer, argv):
    tracer.begin_query()
    assert cli.main(list(argv)) == 0
    return tracer.end_query()


def test_counters_do_not_depend_on_what_ran_before(capsys):
    q = _queries("bfunction_cold")
    with Tracer() as tracer:
        first = _traced(tracer, q["cusp"].argv)
        bigger = _traced(tracer, q["two_branch"].argv)
        last = _traced(tracer, q["cusp"].argv)
    # the process-wide GBStats maximum would carry two_branch's value over
    assert bigger["groebner.max_coeff_bits"] > first["groebner.max_coeff_bits"]
    assert counts(last) == counts(first)


def test_wrappers_reach_names_imported_by_value(capsys):
    import multid.oracles

    original = multid.oracles.verify_minimality
    with Tracer() as tracer:
        assert cli.verify_minimality is multid.oracles.verify_minimality
        assert cli.verify_minimality is not original
        tally = _traced(tracer, _queries("verify_crosscheck")["verify_cusp"].argv)
    assert cli.verify_minimality is original
    assert tally["oracles.minimality_calls"] == 1
    assert tally["oracles.cross_check_calls"] == 1
    assert tally["groebner.member_calls"] == 3  # one per root of b


def _table(text):
    """(lct line, [(c, set of generators)]) from `jumps` text output."""
    lines = text.splitlines()
    steps = []
    for line in lines[1:]:
        c, gens = line.removeprefix("c = ").split(": ")
        steps.append((c, set(gens.split(", "))))
    return lines[0], steps


def test_monomial_answers_match_the_newton_polyhedron_oracle():
    from multid import format_rational, howald_filtration, parse_polynomial

    checked = 0
    for q in WORKLOADS["filtration_sweep"].queries:
        if q.source != "howald":
            continue
        variables = tuple(q.option("--vars").split(","))
        exponents = []
        for src in q.option("--ideal").split(","):
            (exp,) = parse_polynomial(src, variables).terms
            exponents.append(exp)
        oracle = howald_filtration(exponents, Fraction(q.option("--cmax")), variables)
        text = [f"lct = {format_rational(oracle.lct)}"] + [
            f"c = {format_rational(c)}: " + ", ".join(str(g) for g in gens)
            for c, gens in oracle.steps
        ]
        assert _table("\n".join(text)) == _table(q.expected), q.name
        checked += 1
    assert checked == 4


def test_every_workload_names_its_heavy_query():
    for w in WORKLOADS.values():
        names = [q.name for q in w.queries]
        assert len(set(names)) == len(names)
        assert w.heavy in names


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _ in run.PER_LAYER
    ]
