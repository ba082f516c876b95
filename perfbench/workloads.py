"""The benchmark's fixed query sets and their known-correct answers.

Each query is one `multid` CLI invocation in text format; its expected
output is the exact stdout.  Every answer names where it comes from:

* ``acceptance``: the b-functions and filtration tables pinned in the
  repository's acceptance tests (copied here, not imported);
* ``readme``: the CLI examples in the README;
* ``howald``: the Newton-polyhedron oracle ``howald_filtration`` (monomial
  ideals; ``test_perfbench.py`` re-derives these tables from it);
* ``recorded``: no pinned answer exists, so the output was recorded at the
  commit that introduced the benchmark.

For the ``jumps`` rows marked ``acceptance`` the acceptance tests pin the
jumps and the ideals up to ideal equality; the exact generator strings are
the recorded reduced grevlex bases of those ideals.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Query:
    name: str
    argv: tuple[str, ...]
    expected: str
    source: str

    def option(self, flag: str) -> str | None:
        args = dict(zip(self.argv[1::2], self.argv[2::2]))
        return args.get(flag)


@dataclass(frozen=True)
class Workload:
    """A fixed query set; why each was chosen is in BENCHMARK.json."""

    name: str
    heavy: str
    queries: tuple[Query, ...]


def _q(name, command, vars_, ideal, expected, source, **opts) -> Query:
    argv = [command, "--vars", vars_, "--ideal", ideal]
    for key, value in opts.items():
        argv += [f"--{key}", value]
    return Query(name, tuple(argv), expected, source)


def _verified(b: str) -> str:
    return f"{b}\nminimal: True\nalgorithms agree: True"


CUSP_B = "(s+5/6)(s+1)(s+7/6)"
CUSP_GX_B = "(s+1)(s+11/6)(s+13/6)"
CUSP_GY_B = "(s+1)(s+7/6)(s+11/6)"
TWO_BRANCH_B = "(s+7/10)(s+9/10)(s+1)(s+11/10)(s+13/10)"
FOUR_LINES_B = "(s+1/2)(s+3/4)(s+1)^2(s+5/4)(s+3/2)"
X2Y3_B = "(s+5/6)(s+7/6)(s+4/3)(s+3/2)(s+5/3)(s+2)"
X2Y3_GX_B = "(s+4/3)(s+5/3)(s+11/6)(s+2)(s+13/6)(s+5/2)"
X2Y3_GY_B = "(s+7/6)(s+3/2)(s+5/3)(s+11/6)(s+2)(s+7/3)"
T456_B = (
    "(s+17/12)(s+3/2)(s+19/12)(s+7/4)(s+11/6)"
    "(s+23/12)(s+2)(s+25/12)(s+13/6)(s+9/4)"
)
X3Y4_B = (
    "(s+7/12)(s+5/6)(s+11/12)(s+13/12)(s+7/6)(s+5/4)"
    "(s+4/3)(s+17/12)(s+3/2)(s+5/3)(s+7/4)(s+2)"
)
X2XYY4_B = "(s+1)^2(s+5/4)(s+3/2)(s+7/4)"

CUSP, TWO_BRANCH = "x^2+y^3", "(x+y)^2-(x-y)^5"
FOUR_LINES = "x*y*(x+y)*(x+2*y)"
T456 = "x2^2-x1*x3,x1^3-x3^2"

BFUNCTION_COLD = Workload(
    name="bfunction_cold",
    heavy="t456",
    queries=(
        _q("cusp", "bfunction", "x,y", CUSP, CUSP_B, "acceptance"),
        _q("cusp_g_x", "bfunction", "x,y", CUSP, CUSP_GX_B, "acceptance", g="x"),
        _q("cusp_g_y", "bfunction", "x,y", CUSP, CUSP_GY_B, "acceptance", g="y"),
        _q("two_branch", "bfunction", "x,y", TWO_BRANCH, TWO_BRANCH_B, "acceptance"),
        _q("four_lines", "bfunction", "x,y", FOUR_LINES, FOUR_LINES_B, "acceptance"),
        _q("x2y3", "bfunction", "x,y", "x^2,y^3", X2Y3_B, "acceptance"),
        _q("x2y3_g_x", "bfunction", "x,y", "x^2,y^3", X2Y3_GX_B, "acceptance", g="x"),
        _q("x2y3_g_y", "bfunction", "x,y", "x^2,y^3", X2Y3_GY_B, "acceptance", g="y"),
        _q("t456", "bfunction", "x1,x2,x3", T456, T456_B, "acceptance"),
    ),
)

FILTRATION_SWEEP = Workload(
    name="filtration_sweep",
    heavy="jumps_x3y4",
    queries=(
        _q("jumps_x", "jumps", "x", "x",
           "lct = 1\nc = 0: 1\nc = 1: x\nc = 2: x^2", "howald", cmax="2"),
        _q("jumps_xy", "jumps", "x,y", "x,y",
           "lct = 2\nc = 0: 1\nc = 2: y, x", "howald", cmax="2"),
        _q("jumps_x2y3", "jumps", "x,y", "x^2,y^3",
           "lct = 5/6\nc = 0: 1\nc = 5/6: y, x\nc = 7/6: x, y^2\n"
           "c = 4/3: y^2, x*y, x^2\nc = 3/2: x*y, x^2, y^3\n"
           "c = 5/3: x^2, y^3, x*y^2\nc = 11/6: x*y^2, x^2*y, x^3, y^4\n"
           "c = 2: x^2*y, x^3, y^4, x*y^3", "howald", cmax="2"),
        # cmax = 3/2 keeps every candidate below lct + 1 = 19/12, so the
        # query stays at level 1 (cmax = 2 takes about 70 s, too long for
        # one benchmark run); root extraction is most of its time.
        _q("jumps_x3y4", "jumps", "x,y", "x^3,y^4",
           "lct = 7/12\nc = 0: 1\nc = 7/12: y, x\nc = 5/6: x, y^2\n"
           "c = 11/12: y^2, x*y, x^2\nc = 13/12: x*y, x^2, y^3\n"
           "c = 7/6: x^2, y^3, x*y^2\nc = 5/4: y^3, x*y^2, x^2*y, x^3\n"
           "c = 4/3: x*y^2, x^2*y, x^3, y^4\nc = 17/12: x^2*y, x^3, y^4, x*y^3\n"
           "c = 3/2: x^3, y^4, x*y^3, x^2*y^2", "howald", cmax="3/2"),
        _q("jumps_cusp", "jumps", "x,y", CUSP,
           "lct = 5/6\nc = 0: 1\nc = 5/6: y, x\nc = 1: y^3 + x^2\n"
           "c = 11/6: y^4 + x^2*y, x*y^3 + x^3\nc = 2: y^6 + 2*x^2*y^3 + x^4",
           "readme", cmax="2"),
        _q("jumps_two_branch", "jumps", "x,y", TWO_BRANCH,
           "lct = 7/10\nc = 0: 1\nc = 7/10: y, x\nc = 9/10: x + y, y^2",
           "acceptance", cmax="19/20"),
        _q("jumps_four_lines", "jumps", "x,y", FOUR_LINES,
           "lct = 1/2\nc = 0: 1\nc = 1/2: y, x\nc = 3/4: y^2, x*y, x^2\n"
           "c = 1: x^3*y + 3*x^2*y^2 + 2*x*y^3\n"
           "c = 3/2: x^3*y^2 + 3*x^2*y^3 + 2*x*y^4, x^4*y - 7*x^2*y^3 - 6*x*y^4",
           "acceptance", cmax="3/2"),
        _q("lct_x2y3", "lct", "x,y", "x^2,y^3", "5/6", "readme"),
        _q("multiplier_four_lines", "multiplier", "x,y", FOUR_LINES,
           "y^2, x*y, x^2", "readme", c="3/4"),
    ),
)

VERIFY_CROSSCHECK = Workload(
    name="verify_crosscheck",
    heavy="verify_x2xyy4",
    queries=(
        _q("verify_cusp", "verify", "x,y", CUSP, _verified(CUSP_B), "acceptance"),
        _q("verify_cusp_g_x", "verify", "x,y", CUSP, _verified(CUSP_GX_B),
           "acceptance", g="x"),
        _q("verify_two_branch", "verify", "x,y", TWO_BRANCH,
           _verified(TWO_BRANCH_B), "acceptance"),
        _q("verify_four_lines", "verify", "x,y", FOUR_LINES,
           _verified(FOUR_LINES_B), "acceptance"),
        _q("verify_x2y3", "verify", "x,y", "x^2,y^3", _verified(X2Y3_B), "acceptance"),
        _q("verify_x2y3_g_x", "verify", "x,y", "x^2,y^3", _verified(X2Y3_GX_B),
           "acceptance", g="x"),
        _q("verify_x2y3_g_y", "verify", "x,y", "x^2,y^3", _verified(X2Y3_GY_B),
           "acceptance", g="y"),
        _q("verify_x3y4", "verify", "x,y", "x^3,y^4", _verified(X3Y4_B), "recorded"),
        _q("verify_x2xyy4", "verify", "x,y", "x^2,x*y,y^4", _verified(X2XYY4_B),
           "recorded"),
    ),
)

WORKLOADS = {w.name: w for w in (BFUNCTION_COLD, FILTRATION_SWEEP, VERIFY_CROSSCHECK)}


def build_inputs(workload: Workload) -> list:
    """Parse every query's polynomials into an IdealInput (the set-up work)."""
    from multid import IdealInput, parse_polynomial

    inputs = []
    for q in workload.queries:
        variables = tuple(q.option("--vars").split(","))
        f = [parse_polynomial(p, variables) for p in q.option("--ideal").split(",")]
        g = q.option("--g")
        inputs.append(
            IdealInput(variables, tuple(f), g and parse_polynomial(g, variables))
        )
    return inputs
