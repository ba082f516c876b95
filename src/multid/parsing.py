"""Exact polynomial parser for the CLI.

Grammar (whitespace ignored, multiplication always explicit):

    expr    ::= ['-'] term (('+' | '-') term)*
    term    ::= factor ('*' factor)*
    factor  ::= base ['^' uint]        (uint at most MAX_EXPONENT)
    base    ::= coefficient | variable | '(' expr ')'
    coefficient ::= int | int '/' int

Implicit multiplication ("xy", "2x") is rejected on purpose: juxtaposed
names would be ambiguous against multi-character variables.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import ParseError, UnknownVariable
from .weyl import Signature, WeylElement

# the largest exponent accepted after '^'; a larger one is a ParseError
MAX_EXPONENT = 1000

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^]))")


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            if src[pos:].strip():
                raise ParseError(f"unexpected character {src[pos]!r}", pos)
            break
        num, name, op = m.groups()
        start = m.end() - len((num or name or op))
        if num:
            tokens.append(("num", int(num), start))
        elif name:
            tokens.append(("name", name, start))
        else:
            tokens.append(("op", op, start))
        pos = m.end()
    tokens.append(("end", None, len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str, sig: Signature, variables):
        self.src = src
        self.sig = sig
        self.variables = set(variables)
        self.tokens = _tokenize(src)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> WeylElement:
        out = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {val!r}", pos)
        return out

    def expr(self) -> WeylElement:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        out = self.term()
        if negate:
            out = -out
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                out = out - rhs if val == "-" else out + rhs
            else:
                return out

    def term(self) -> WeylElement:
        out = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val == "*":
                self.next()
                out = out * self.factor()
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                raise ParseError(
                    "implicit multiplication is not allowed; use '*'", pos
                )
            else:
                return out

    def factor(self) -> WeylElement:
        base = self.base()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            kind, exp, pos = self.next()
            if kind != "num":
                raise ParseError("exponent must be a nonnegative integer", pos)
            if exp > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit {MAX_EXPONENT}", pos)
            # repeated squaring
            out = WeylElement.one(self.sig)
            while exp:
                if exp & 1:
                    out = out * base
                exp >>= 1
                if exp:
                    base = base * base
            return out
        return base

    def base(self) -> WeylElement:
        kind, val, pos = self.next()
        if kind == "num":
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, den, p3 = self.next()
                if k3 != "num" or den == 0:
                    raise ParseError("denominator must be a positive integer", p3)
                return WeylElement.constant(self.sig, Fraction(val, den))
            return WeylElement.constant(self.sig, val)
        if kind == "name":
            if val not in self.variables:
                raise UnknownVariable(f"unknown variable {val!r}", pos)
            return WeylElement.generator(self.sig, val)
        if kind == "op" and val == "(":
            out = self.expr()
            self.expect_op(")")
            return out
        raise ParseError(f"unexpected {val!r}", pos)


def parse_polynomial(src: str, variables) -> WeylElement:
    """Parse source text into a polynomial over C[variables]."""
    variables = tuple(variables)
    sig = Signature(central=variables)
    p = _Parser(src, sig, variables).parse()
    return p
