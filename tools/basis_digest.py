"""Digest of every Gröbner run behind the benchmark's queries.

    python3 tools/basis_digest.py

Runs the 27 queries of `perfbench/workloads.py` through `multid.cli.main`,
with the multid sources from the `src/` next to this directory, and then
`jumps <x^2,y^3> --cmax 2` once more: the same command as `jumps_x2y3`, so
its lines also show that a repeated query in one process repeats its runs.

`groebner.buchberger_ipolys`, the hook `perfbench/spans.py` also wraps,
is wrapped from outside, and each of its runs prints one line: the query,
the run's index in it, its pair selection (`TermOrder.by_sugar`), the
counters `spairs`, `reductions`, `zero_spairs` and `max_coeff_bits`, and a
hash of the reduced basis (its slot names, term order's weight rows and
integer term lists, in their order).  `minimal_polynomial`, which reads
every b-function off a basis, is wrapped in `multid.pipeline`, which
imports it by value; each call prints one line after the query's run
lines: its index in the query, its reduction steps and a hash of the
coefficients it returns.  The closing lines give the number of minimal
polynomials and of runs, one digest of all the bases and one of all the
run counters.

A change that should keep every computation the same, such as a faster
data structure in the reducer, must print the same lines before and after.
`tools/basis_digest.expected` holds the output of this tree, and CI fails
on any difference from it; a change that alters runs regenerates it

    python3 tools/basis_digest.py > tools/basis_digest.expected

so its diff shows which runs changed.
Exits 1 if a query exits non-zero or prints an answer other than its known
one.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from multid import cli, groebner, pipeline  # noqa: E402
from multid.request import collect_stats  # noqa: E402
from workloads import WORKLOADS, Query  # noqa: E402

EXTRA = Query(
    "jumps_x2y3_cmax2",
    ("jumps", "--vars", "x,y", "--ideal", "x^2,y^3", "--cmax", "2"),
    None,
    "none",
)


def queries() -> list:
    return [q for w in WORKLOADS.values() for q in w.queries] + [EXTRA]


def _hash(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def query_runs(query) -> tuple[list, bool]:
    """(one digest line per Gröbner run and per minimal polynomial, whether
    the query succeeded)."""
    runs, minpolys = [], []
    real = groebner.buchberger_ipolys
    real_minpoly = pipeline.minimal_polynomial

    def recorded(sig, gens, order):
        basis, stats = real(sig, gens, order)
        # a one-row order hashes as its row, as before block orders existed
        rows = order.rows if len(order.rows) > 1 else order.rows[0]
        runs.append((sig.slot_names, rows, order.by_sugar, basis, stats))
        return basis, stats

    def recorded_minpoly(basis, order, a, g):
        # its own block, so that the block counts this call's steps alone
        with collect_stats() as stats:
            coeffs = real_minpoly(basis, order, a, g)
        minpolys.append((stats.reductions, coeffs))
        return coeffs

    out = io.StringIO()
    groebner.buchberger_ipolys = recorded
    pipeline.minimal_polynomial = recorded_minpoly
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(query.argv))
    finally:
        groebner.buchberger_ipolys = real
        pipeline.minimal_polynomial = real_minpoly
    ok = code == 0 and (
        query.expected is None or out.getvalue().rstrip("\n") == query.expected
    )
    lines = [
        f"{query.name} {i} {'sugar' if sugar else 'normal'}"
        f" spairs={st.spairs} reductions={st.reductions}"
        f" zero_spairs={st.zero_spairs} max_coeff_bits={st.max_coeff_bits}"
        f" basis={_hash((names, weights, basis))}"
        for i, (names, weights, sugar, basis, st) in enumerate(runs)
    ]
    lines += [
        f"{query.name} minpoly {k} reductions={steps} coeffs={_hash(coeffs)}"
        for k, (steps, coeffs) in enumerate(minpolys)
    ]
    return lines, ok


def main() -> int:
    failed = []
    lines = []
    for q in queries():
        got, ok = query_runs(q)
        lines += got
        if not ok:
            failed.append(q.name)
    for line in lines:
        print(line)
    # each run line ends with " basis=<hash>"; split it into bases and counts
    runs = [line.rsplit(" ", 1) for line in lines if " basis=" in line]
    print(f"minimal_polynomials {len(lines) - len(runs)}")
    print(f"runs {len(runs)}")
    print(f"bases {_hash([basis for _, basis in runs])}")
    print(f"counts {_hash([counts for counts, _ in runs])}")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
