"""multid query benchmark: cold CLI queries in one process, outputs checked.

    python3 perfbench/run.py --workload bfunction_cold --seed 1 --seconds 30 --trace 0

A closed loop with one client: the workload's queries go through
`multid.cli.main(argv)` one after another, each starting cold through the
CLI's own per-call cache reset.  The seed only shuffles the query order;
each pass over the workload uses its own shuffle.  A new pass starts while
it is expected to end within `--seconds` (at least two passes run, three
when traced), and timings are medians over the passes.  Every output is
compared with its known answer (see workloads.py); a query that raises,
exits non-zero or prints a wrong answer is named on stderr and counted as
failed.

With `--trace 0` no wrapper is installed and the end-to-end metrics are
printed.  With `--trace 1` traced and untraced passes alternate (T, U, T,
...) and the per-layer metrics of the traced passes are printed, with
`trace_overhead_frac` = median traced total / median untraced total - 1.
The traced run also checks that traced and untraced outputs agree, that
each query's counters repeat exactly across passes in different orders,
and that every per-layer metric is non-zero on the workloads it is mapped
to.  Any failed check makes `correct` false.

The last stdout line is the JSON result; the line before it carries
machine info and digests of the outputs and counters.  Exits 2 without a
result when the multid sources are not next to this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
from spans import Tracer, combine, counts  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

SETUP_SAMPLES = 9
HARD_CAP_S = 140.0  # no pass starts that is expected to end after this

# (name, unit) of the end-to-end metrics, printed with --trace 0
END_TO_END = (
    ("total_s", "s"),
    ("heavy_query_s", "s"),
    ("light_queries_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
)

_ALL = ("bfunction_cold", "filtration_sweep", "verify_crosscheck")
_BF, _FS, _VC = ((w,) for w in _ALL)
# (name, unit, workloads on which it must be non-zero), printed with --trace 1
PER_LAYER = (
    ("groebner.busy_s", "s", _ALL),
    ("groebner.runs", "count", _ALL),
    ("groebner.spairs", "count", _BF),
    ("groebner.reductions", "count", _BF),
    ("groebner.pruned_chain", "count", _BF),
    ("groebner.pruned_product", "count", _BF),
    ("groebner.prune_frac", "frac", _BF),
    ("groebner.max_coeff_bits", "bits", _BF),
    ("groebner.basis_max", "count", _BF),
    ("groebner.eliminate_s", "s", _BF),
    ("groebner.eliminate_calls", "count", _BF),
    ("groebner.colon_s", "s", _BF),
    ("groebner.colon_calls", "count", _BF),
    ("groebner.saturate_s", "s", _FS),
    ("groebner.saturate_calls", "count", _FS),
    ("groebner.intersect_s", "s", _VC),
    ("groebner.intersect_calls", "count", _VC),
    ("groebner.initial_ideal_s", "s", _VC),
    ("groebner.initial_ideal_calls", "count", _VC),
    ("groebner.member_s", "s", _VC),
    ("groebner.member_calls", "count", _VC),
    ("pipeline.If1_s", "s", _BF),
    ("pipeline.If1_calls", "count", _BF),
    ("pipeline.Jfm_s", "s", _BF),
    ("pipeline.Jfm_calls", "count", _BF),
    ("pipeline.I2_s", "s", _BF),
    ("pipeline.I2_calls", "count", _BF),
    ("pipeline.bfunction_calls", "count", _FS),
    ("pipeline.bfunction_level_calls", "count", _FS),
    ("pipeline.alg2_s", "s", _VC),
    ("pipeline.memo_hit_frac", "frac", _FS),
    ("rationals.roots_calls", "count", _FS),
    ("rationals.roots_s", "s", _FS),
    ("rationals.roots_max_degree", "count", _FS),
    ("multiplier.lct_calls", "count", _FS),
    ("multiplier.lct_s", "s", _FS),
    ("multiplier.ideal_calls", "count", _FS),
    ("multiplier.jumps_s", "s", _FS),
    ("oracles.cross_check_s", "s", _VC),
    ("oracles.minimality_s", "s", _VC),
    ("cli.self_s", "s", _ALL),
    ("trace_overhead_frac", "frac", ()),
)

SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import multid.cli
from workloads import WORKLOADS, build_inputs
build_inputs(WORKLOADS[{workload!r}])
print(time.perf_counter() - t0)
"""


@dataclass
class Pass:
    traced: bool
    times: dict = field(default_factory=dict)  # query -> wall seconds
    outputs: dict = field(default_factory=dict)  # query -> stdout
    failed: list = field(default_factory=list)  # query names
    tallies: dict = field(default_factory=dict)  # query -> tracer tally

    @property
    def total(self) -> float:
        return sum(self.times.values())


def load_cli():
    """Import multid from this checkout's src/, or exit 2 if it is absent."""
    if not (SRC / "multid" / "__init__.py").is_file():
        print(f"error: no multid sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import multid.cli

    if Path(multid.cli.__file__).resolve().parents[1] != SRC:
        print(f"error: imported multid from {multid.cli.__file__}", file=sys.stderr)
        sys.exit(2)
    return multid.cli


def measure_setup(workload: Workload) -> float:
    """Median over fresh interpreters of: import multid, build the inputs."""
    code = SETUP_CODE.format(src=str(SRC), here=str(HERE), workload=workload.name)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True, timeout=60, cwd=ROOT, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(cli, workload: Workload, order, tracer: Tracer | None) -> Pass:
    p = Pass(traced=tracer is not None)
    for q in order:
        out, err = io.StringIO(), io.StringIO()
        if tracer:
            tracer.begin_query()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(list(q.argv))
            except Exception:  # a crashing query is a failure, not an abort
                code = traceback.format_exc()
        p.times[q.name] = time.perf_counter() - t0
        if tracer:
            p.tallies[q.name] = tracer.end_query()
        p.outputs[q.name] = out.getvalue()
        if code != 0 or out.getvalue().rstrip("\n") != q.expected:
            p.failed.append(q.name)
            print(
                f"FAILED {workload.name}/{q.name}: exit {code!r}\n"
                f"  expected: {q.expected!r}\n  got: {out.getvalue()!r}\n"
                f"  stderr: {err.getvalue()!r}",
                file=sys.stderr,
            )
    return p


def run_passes(cli, workload: Workload, seed: int, seconds: int, traced: bool):
    """T, U, T, ... when traced, else U, U, ...; see the module docstring."""
    min_passes = 3 if traced else 2
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        if passes:
            elapsed = time.perf_counter() - start
            typical = statistics.median(p.total for p in passes)
            if elapsed + typical > HARD_CAP_S:
                break
            if len(passes) >= min_passes and elapsed + typical > seconds:
                break
        k = len(passes)
        order = list(workload.queries)
        random.Random(f"{workload.name}:{seed}:{k}").shuffle(order)
        if traced and k % 2 == 0:
            with Tracer() as tracer:
                if tracer.missing:
                    raise SystemExit(f"error: cannot trace {tracer.missing}")
                passes.append(run_pass(cli, workload, order, tracer))
        else:
            passes.append(run_pass(cli, workload, order, None))
    return passes


def end_to_end(
    workload: Workload, passes: list[Pass], setup_s: float, ok_frac: float
) -> dict:
    heavy = [p.times[workload.heavy] for p in passes]
    return {
        "total_s": statistics.median(p.total for p in passes),
        "heavy_query_s": statistics.median(heavy),
        "light_queries_s": statistics.median(
            p.total - h for p, h in zip(passes, heavy)
        ),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": ok_frac,
    }


def per_layer(workload: Workload, passes: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer medians over the traced passes, and the failed self-checks."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    problems = []
    if len(traced) < 2 or not untraced:
        problems.append(f"only {len(passes)} passes fit; the checks need 3")
        untraced = untraced or traced
    per_pass = [combine(p.tallies.values()) for p in traced]
    values = {
        name: statistics.median(pp.get(name, 0) for pp in per_pass)
        for name, _, _ in PER_LAYER
    }
    values["trace_overhead_frac"] = (
        statistics.median(p.total for p in traced)
        / statistics.median(p.total for p in untraced) - 1
    )
    for name, _, mapped in PER_LAYER:
        if workload.name in mapped and not values[name] > 0:
            problems.append(f"per-layer metric {name} is 0 on {workload.name}")
    for q in workload.queries:
        if len({json.dumps(counts(p.tallies[q.name])) for p in traced}) > 1:
            problems.append(f"counters of {q.name} differ between passes")
        if len({p.outputs[q.name] for p in passes}) > 1:
            problems.append(f"traced and untraced outputs of {q.name} differ")
    return values, problems


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    cli = load_cli()
    setup_s = None if args.trace else measure_setup(workload)
    passes = run_passes(cli, workload, args.seed, args.seconds, bool(args.trace))
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failed) for p in passes)

    if args.trace:
        values, problems = per_layer(workload, passes)
        units = {name: unit for name, unit, _ in PER_LAYER}
    else:
        ok_frac = (attempted - failed) / attempted
        values, problems = end_to_end(workload, passes, setup_s, ok_frac), []
        units = dict(END_TO_END)
    for problem in problems:
        print(f"SELF-CHECK FAILED: {problem}", file=sys.stderr)
    first = passes[0]
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_total_s": [p.total for p in passes],
        "query_s": {
            q.name: statistics.median(p.times[q.name] for p in passes)
            for q in workload.queries
        },
        "output_digest": digest(first.outputs),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sympy": metadata.version("sympy"),
        "machine": platform.machine(),
    }
    if args.trace:
        info["counts_digest"] = digest(
            {name: counts(t) for name, t in first.tallies.items()}
        )
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
