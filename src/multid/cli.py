"""Command-line interface.

Commands: bfunction, lct, multiplier, jumps, verify.  Output is plain text
by default or JSON with --format json; all rationals are serialized as
exact strings ("5/6"), never floats.

Exit codes: 0 success, 1 usage error, 2 parse error, 3 computation error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .errors import (
    ComputationTimeout,
    InvalidSetting,
    MultidError,
    ParseError,
    ZeroDivisor,
)
from .multiplier import jumping_coefficients, lct, multiplier_ideal
from .oracles import cross_check, verify_minimality
from .parsing import parse_polynomial
from .pipeline import IdealInput, bfunction
from .rationals import format_rational, parse_rational
from .request import GBStats, collect_stats

USAGE_ERROR, PARSE_ERROR, COMPUTATION_ERROR = 1, 2, 3


@functools.cache
def _argparser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; parsing leaves it as it is."""
    ap = argparse.ArgumentParser(
        prog="multid",
        description="Bernstein-Sato polynomials and multiplier ideals over Q",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_g=True, with_m=True):
        p.add_argument("--vars", required=True, help="comma-separated variable names")
        p.add_argument(
            "--ideal", required=True, help="comma-separated polynomial generators"
        )
        if with_g:
            p.add_argument("--g", default=None, help="multiplier polynomial g (default 1)")
        if with_m:
            p.add_argument("--m", type=int, default=1, help="level m (default 1)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--stats", action="store_true", help="include engine statistics")

    common(sub.add_parser("bfunction", help="generalized Bernstein-Sato polynomial"))
    common(sub.add_parser("lct", help="log-canonical threshold"), with_g=False, with_m=False)
    p = sub.add_parser("multiplier", help="generators of the multiplier ideal J(a^c)")
    common(p, with_g=False, with_m=False)
    p.add_argument("--c", required=True, help="exponent c (rational)")
    p = sub.add_parser("jumps", help="jumping coefficients and filtration")
    common(p, with_g=False, with_m=False)
    p.add_argument("--cmax", required=True, help="upper bound (rational)")
    common(sub.add_parser("verify", help="minimality and algorithm cross-checks"))
    return ap


def _parse_input(args) -> IdealInput:
    """The query's IdealInput.

    Input that `Signature` or `IdealInput` rejects is a parse error: the
    input, not the computation, is at fault.
    """
    variables = tuple(v.strip() for v in args.vars.split(",") if v.strip())
    try:
        gens = tuple(
            parse_polynomial(src, variables)
            for src in args.ideal.split(",")
            if src.strip()
        )
        g = None
        if getattr(args, "g", None):
            g = parse_polynomial(args.g, variables)
        m = getattr(args, "m", 1)
        return IdealInput(variables, gens, g, m)
    except (ValueError, ZeroDivisor) as e:
        raise ParseError(str(e)) from e


def _factored_json(b) -> dict:
    return {
        "printed": str(b),
        "factors": [
            {"root": format_rational(root), "multiplicity": mult}
            for root, mult in b.factors
        ],
    }


def _filtration_json(filt) -> dict:
    return {
        "lct": format_rational(filt.lct),
        "jumps": [format_rational(c) for c in filt.jumps],
        "steps": [
            {"c": format_rational(c), "generators": [str(g) for g in gens]}
            for c, gens in filt.steps
        ],
        "valid_up_to": format_rational(filt.valid_up_to),
    }


def _run(args) -> tuple[dict, list[str]]:
    """Returns (json result, text lines)."""
    input = _parse_input(args)
    if args.command == "bfunction":
        b = bfunction(input)
        return _factored_json(b), [str(b)]
    if args.command == "lct":
        v = lct(input)
        return {"lct": format_rational(v)}, [format_rational(v)]
    if args.command == "multiplier":
        c = parse_rational(args.c)
        if c < 0:
            raise ParseError("--c must be nonnegative")
        gens = multiplier_ideal(input, c)
        text = [", ".join(str(g) for g in gens)]
        return {"c": format_rational(c), "generators": [str(g) for g in gens]}, text
    if args.command == "jumps":
        cmax = parse_rational(args.cmax)
        if cmax <= 0:
            raise ParseError("--cmax must be positive")
        filt = jumping_coefficients(input, cmax)
        lines = [f"lct = {format_rational(filt.lct)}"]
        for c, gens in filt.steps:
            lines.append(
                f"c = {format_rational(c)}: " + ", ".join(str(g) for g in gens)
            )
        return _filtration_json(filt), lines
    if args.command == "verify":
        b = bfunction(input)
        minimal = verify_minimality(b, input)
        agree = cross_check(input) if input.m == 1 else None
        result = {
            "bfunction": _factored_json(b),
            "minimal": minimal,
            "algorithms_agree": agree,
        }
        lines = [
            str(b),
            f"minimal: {minimal}",
            f"algorithms agree: {agree if agree is not None else 'n/a (m > 1)'}",
        ]
        if not minimal or agree is False:
            raise MultidError("verification failed: " + json.dumps(result))
        return result, lines
    raise ValueError(f"unknown command {args.command}")


def _emit(args, result: dict, lines: list[str], stats: GBStats) -> None:
    if args.format == "json":
        payload = {
            "command": args.command,
            "input": {
                "variables": [v.strip() for v in args.vars.split(",") if v.strip()],
                "ideal": [s.strip() for s in args.ideal.split(",") if s.strip()],
                "g": getattr(args, "g", None),
                "m": getattr(args, "m", None),
                "c": getattr(args, "c", None) or getattr(args, "cmax", None),
            },
            "result": result,
            "stats": stats.as_dict(),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)
        if args.stats:
            d = stats.as_dict()
            print("stats: " + " ".join(f"{k}={v}" for k, v in d.items()))


def main(argv=None) -> int:
    try:
        args = _argparser().parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else USAGE_ERROR
    try:
        with collect_stats() as stats:
            result, lines = _run(args)
    except InvalidSetting as e:
        print(f"usage error: {e}", file=sys.stderr)
        return USAGE_ERROR
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return PARSE_ERROR
    except ComputationTimeout as e:
        if args.format == "json":
            payload = {
                "command": args.command,
                "result": "timeout",
                "stats": stats.as_dict(),
            }
            print(json.dumps(payload))
        else:
            print(f"timeout: {e}", file=sys.stderr)
        return COMPUTATION_ERROR
    except (MultidError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return COMPUTATION_ERROR
    _emit(args, result, lines, stats)
    return 0


if __name__ == "__main__":
    sys.exit(main())
