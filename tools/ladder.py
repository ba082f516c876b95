"""Stage-by-stage probe of the paper-scale fixtures under a time cap.

    python3 tools/ladder.py [--cap SECONDS] [--fixture NAME ...]

Runs the stages of each fixture, I_{f,1}, then J_f(m), then the b-function
read off J_f(m), with the multid sources from the `src/` next to this
directory.  Each stage runs in its own `collect_stats()` block with
MULTID_TIME_LIMIT_MS set to the cap (120 s by default), so each is capped
alone and its counters are its own: a later stage reads the earlier ones
from the input's stage memo.  One line per stage gives its wall time, its
Groebner counters and a summary of its result.  A stage the cap cuts off
prints the counters it reached, which measure the Groebner core's
throughput on work it cannot finish, and the stages after it are skipped.

The fixtures are the stress fixtures of the acceptance tests: the generic
3x3 determinant, whose b-function (s+1)(s+2)(s+3) is Cayley's identity, and
the monomial curves (T^6, T^8, T^11) and (T^3, T^4, T^5), the latter at
level m = 2.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multid.errors import ComputationTimeout  # noqa: E402
from multid.parsing import parse_polynomial  # noqa: E402
from multid.pipeline import (  # noqa: E402
    IdealInput,
    bfunction_level,
    build_Jf_m,
    compute_If1,
)
from multid.request import TIME_LIMIT_ENV, collect_stats  # noqa: E402

# name -> (variables, generators of a, level m)
FIXTURES = {
    "det3": (
        tuple(f"x{i}" for i in range(1, 10)),
        ("x1*(x5*x9-x6*x8)-x2*(x4*x9-x6*x7)+x3*(x4*x8-x5*x7)",),
        1,
    ),
    "t6_t8_t11": (("x1", "x2", "x3"), ("x1^4-x2^3", "x3^2-x1*x2^2"), 1),
    "t3_t4_t5": (
        ("x1", "x2", "x3"),
        ("x1^3-x2*x3", "x2^2-x1*x3", "x3^2-x1^2*x2"),
        2,
    ),
}

# (name, stage, summary of its result)
STAGES = (
    ("If1", compute_If1, lambda I: f"{len(I.generators)} generators"),
    ("Jfm", build_Jf_m, lambda J: f"{len(J.generators)} generators"),
    ("b", bfunction_level, str),
)

COUNTERS = ("spairs", "zero_spairs", "reductions", "zero_steps", "max_coeff_bits")


def fixture_input(name: str) -> IdealInput:
    variables, gens, m = FIXTURES[name]
    f = tuple(parse_polynomial(p, variables) for p in gens)
    return IdealInput(variables, f, None, m)


def ladder(name: str) -> list[str]:
    """One line per stage of the fixture; the caller sets the cap."""
    inp = fixture_input(name)
    lines = []
    for i, (stage, run, summary) in enumerate(STAGES):
        t0 = time.monotonic()
        cut = False
        with collect_stats() as stats:
            try:
                status = summary(run(inp))
            except ComputationTimeout:
                cut, status = True, "cut off at the cap"
        counts = " ".join(f"{k}={getattr(stats, k)}" for k in COUNTERS)
        lines.append(
            f"{name} m={inp.m} {stage} {time.monotonic() - t0:.1f}s {counts}"
            f" : {status}"
        )
        print(lines[-1], flush=True)
        if cut:
            for later, _, _ in STAGES[i + 1 :]:
                lines.append(f"{name} m={inp.m} {later} skipped")
                print(lines[-1], flush=True)
            break
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--cap", type=float, default=120.0,
        help="wall-time cap of each stage in seconds (default 120)",
    )
    parser.add_argument(
        "--fixture", action="append", choices=sorted(FIXTURES),
        help="a fixture to run, repeatable (default: all, in order)",
    )
    args = parser.parse_args(argv)
    os.environ[TIME_LIMIT_ENV] = str(int(args.cap * 1000))
    for name in args.fixture or FIXTURES:
        ladder(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
