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
integer term lists, in their order).  The closing lines give the number of
runs and one digest of all the bases and one of all the counters.

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

from multid import cli, groebner  # noqa: E402
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
    """(one digest line per Gröbner run, whether the query succeeded)."""
    runs = []
    real = groebner.buchberger_ipolys

    def recorded(sig, gens, order):
        basis, stats = real(sig, gens, order)
        # a one-row order hashes as its row, as before block orders existed
        rows = order.rows if len(order.rows) > 1 else order.rows[0]
        runs.append((sig.slot_names, rows, order.by_sugar, basis, stats))
        return basis, stats

    out = io.StringIO()
    groebner.buchberger_ipolys = recorded
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(query.argv))
    finally:
        groebner.buchberger_ipolys = real
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
    # each line ends with " basis=<hash>"; split it into bases and counts
    print(f"runs {len(lines)}")
    print(f"bases {_hash([line.rsplit(' ', 1)[1] for line in lines])}")
    print(f"counts {_hash([line.rsplit(' ', 1)[0] for line in lines])}")
    if failed:
        print("failed: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
