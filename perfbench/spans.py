"""Per-layer spans recorded from outside the program.

`Tracer` wraps the public functions of multid's layers (groebner, pipeline,
rationals, multiplier, oracles, cli) while it is installed.  Modules import
these names by value (`from .groebner import eliminate`), so the wrapper is
set in every multid namespace that holds the original function, and taken
out again on exit.  Nothing under `src/` changes.

Counters are kept per query: the caller opens a fresh tally before each
query with `begin_query` and takes it back with `end_query`.  Gröbner
counters come from the per-run `GBStats` that `buchberger_ipolys` returns,
never from the process-wide `GLOBAL_STATS`, so a query's counts do not
depend on what ran before it in the same process.

Times are wall seconds.  Groebner ideal operations are charged to the
outermost operation (a `colon` includes the `intersect` and `eliminate` it
calls); pipeline stages report self time (a `build_Jf_m` excludes the
nested `compute_If1`); `cli.self_s` is the time in `main` outside every
library span.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function, span name)
TARGETS = (
    ("groebner", "buchberger_ipolys", "groebner.run"),
    ("groebner", "eliminate", "groebner.eliminate"),
    ("groebner", "colon", "groebner.colon"),
    ("groebner", "saturate", "groebner.saturate"),
    ("groebner", "intersect", "groebner.intersect"),
    ("groebner", "initial_ideal", "groebner.initial_ideal"),
    ("groebner", "member", "groebner.member"),
    ("pipeline", "compute_If1", "pipeline.If1"),
    ("pipeline", "build_Jf_m", "pipeline.Jfm"),
    ("pipeline", "_build_I2", "pipeline.I2"),
    ("pipeline", "bfunction", "pipeline.bfunction"),
    ("pipeline", "bfunction_level", "pipeline.bfunction_level"),
    ("pipeline", "bfunction_alg2", "pipeline.alg2"),
    ("rationals", "rational_roots", "rationals.roots"),
    ("multiplier", "lct", "multiplier.lct"),
    ("multiplier", "multiplier_ideal_ideal", "multiplier.ideal"),
    ("multiplier", "jumping_coefficients", "multiplier.jumps"),
    ("oracles", "cross_check", "oracles.cross_check"),
    ("oracles", "verify_minimality", "oracles.minimality"),
    ("cli", "main", "cli"),
)

GROEBNER_OPS = frozenset(
    name for _, _, name in TARGETS
    if name.startswith("groebner.") and name != "groebner.run"
)
# cached pipeline stages: a call that starts no Groebner run is a memo hit
STAGES = frozenset({"pipeline.If1", "pipeline.Jfm", "pipeline.I2"})
MAXIMA = frozenset(
    {"groebner.max_coeff_bits", "groebner.basis_max", "rationals.roots_max_degree"}
)


class _Span:
    __slots__ = ("name", "child_s", "stage_child_s", "started_run")

    def __init__(self, name: str):
        self.name = name
        self.child_s = 0.0  # time covered by direct child spans
        self.stage_child_s = 0.0  # time of nested pipeline stages
        self.started_run = False  # a Groebner run started inside


class Tracer:
    """Context manager that installs the wrappers and collects tallies."""

    def __init__(self):
        self.stack: list[_Span] = []
        self.tally: dict = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        namespaces = [
            m for name, m in list(sys.modules.items())
            if name == "multid" or name.startswith("multid.")
        ]
        for module, func, span in TARGETS:
            original = getattr(sys.modules.get(f"multid.{module}"), func, None)
            if original is None:
                self.missing.append(f"multid.{module}.{func}")
                continue
            wrapper = self._wrap(span, original)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapper)
                        self._patches.append((ns, attr, original))
        return self

    def __exit__(self, *exc) -> None:
        for ns, attr, original in reversed(self._patches):
            setattr(ns, attr, original)
        self._patches.clear()

    def begin_query(self) -> None:
        self.tally = {}

    def end_query(self) -> dict:
        return self.tally

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = _Span(name)
            self.stack.append(span)
            result = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                self.stack.pop()
                self._close(span, dur, args, result)

        return traced

    def _add(self, key: str, value) -> None:
        self.tally[key] = self.tally.get(key, 0) + value

    def _inside(self, names) -> bool:
        return any(s.name in names for s in self.stack)

    def _close(self, span: _Span, dur: float, args, result) -> None:
        name, stack = span.name, self.stack
        if stack:
            stack[-1].child_s += dur
        if name == "cli":
            self._add("cli.self_s", dur - span.child_s)
            return
        if name == "groebner.run":
            self._close_run(dur, result)
            return
        if name in GROEBNER_OPS:
            if not self._inside(GROEBNER_OPS):
                self._add(f"{name}_calls", 1)
                self._add(f"{name}_s", dur)
            return
        self._add(f"{name}_calls", 1)
        if name in STAGES:
            self._add(f"{name}_s", dur - span.stage_child_s)
            self._add("pipeline.stage_calls", 1)
            self._add("pipeline.memo_hits", 0 if span.started_run else 1)
            for outer in reversed(stack):
                if outer.name in STAGES:
                    outer.stage_child_s += dur
                    break
            return
        if not self._inside((name,)):  # recursion is charged once
            self._add(f"{name}_s", dur)
        if name == "rationals.roots":
            self._max("rationals.roots_max_degree", args[0].degree)

    def _close_run(self, dur: float, result) -> None:
        for outer in self.stack:
            outer.started_run = True
        self._add("groebner.runs", 1)
        self._add("groebner.busy_s", dur)
        if result is None:  # the run raised (e.g. a time limit)
            return
        basis, stats = result
        self._add("groebner.spairs", stats.spairs)
        self._add("groebner.reductions", stats.reductions)
        self._add("groebner.pruned_chain", stats.pruned_chain)
        self._add("groebner.pruned_product", stats.pruned_product)
        self._max("groebner.max_coeff_bits", stats.max_coeff_bits)
        self._max("groebner.basis_max", len(basis))

    def _max(self, key: str, value) -> None:
        self.tally[key] = max(self.tally.get(key, 0), value)


def combine(tallies) -> dict:
    """One pass's totals from its per-query tallies (maxima stay maxima)."""
    out: dict = {}
    for tally in tallies:
        for key, value in tally.items():
            if key in MAXIMA:
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    pruned = out.get("groebner.pruned_chain", 0) + out.get("groebner.pruned_product", 0)
    considered = pruned + out.get("groebner.spairs", 0)
    out["groebner.prune_frac"] = pruned / considered if considered else 0.0
    stage_calls = out.get("pipeline.stage_calls", 0)
    out["pipeline.memo_hit_frac"] = (
        out.get("pipeline.memo_hits", 0) / stage_calls if stage_calls else 0.0
    )
    return out


def counts(tally: dict) -> dict:
    """The integer counters of a tally: these must repeat exactly."""
    return {k: v for k, v in sorted(tally.items()) if isinstance(v, int)}
