"""Parser for the ASCII expression grammar.

Grammar (whitespace insignificant)::

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' signed-integer)?
    atom    := integer | identifier | identifier '(' expr ')' | '(' expr ')' | '@' integer

Integers are unsigned digit runs; rationals are spelled ``p/q`` and fall
out of ordinary division.  An exponent is at most ``MAX_EXPONENT`` in
absolute value: the exact zero test raises sampled rationals to it, and
that cost grows with the exponent.  Identifiers must be declared
coordinates, declared opaque function names, elementary function names
in call position, or opaque-derivative names of the form ``F_x1_x1``
(the base function name followed by one underscore-separated coordinate
per derivative taken).  That last form is also what the printer emits, so
parse -> print -> parse is the identity on canonical expressions.

``@n`` stands for the n-th of a list of already-parsed definitions, the
``defs`` of a report entry (see ``expr.Printer``).  It is accepted only
where such a list is passed; anywhere else, as in a problem's ``rhs`` or
``w``, it is a parse error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Sequence

from .expr import (
    ELEMENTARY_FUNCTIONS,
    Expr,
    div,
    fun,
    mul,
    neg,
    opaque,
    pow_int,
    rational,
    sub,
    sym,
    add,
)

__all__ = ["Context", "MAX_EXPONENT", "ParseError", "parse_expr"]

# x2^1000 + x1^1000 analyses at order 3 in about 0.2 s, ^10000 in about 15 s.
MAX_EXPONENT = 1000


class ParseError(ValueError):
    """Syntax or identifier error, carrying the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Context:
    """Declared coordinates and opaque function names for parsing.

    ``functions`` maps each opaque function name to the tuple of
    coordinates it depends on.
    """

    coords: tuple[str, ...]
    functions: dict[str, tuple[str, ...]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in self.functions:
            if "_" in name:
                raise ValueError("opaque function names must not contain underscores")
            if name in self.coords:
                raise ValueError(f"{name!r} is both a coordinate and a function")

    def coordinate(self, name: str) -> Expr:
        if name not in self.coords:
            raise KeyError(name)
        return sym(name)

    def opaque_symbol(self, name: str, orders: dict[str, int] | None = None) -> Expr:
        deps = self.functions[name]
        counts = tuple((orders or {}).get(c, 0) for c in deps)
        return opaque(name, deps, counts)


_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([()+\-*/^])|@(\d+))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError(f"unexpected character {stripped[0]!r}", len(text) - len(stripped))
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("name", m.group(2), m.start(2)))
        elif m.group(3):
            tokens.append(("op", m.group(3), m.start(3)))
        else:
            tokens.append(("ref", m.group(4), m.start(4) - 1))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: Context, defs: Sequence[Expr] | None):
        self.tokens = _tokenize(text)
        self.ctx = ctx
        self.defs = defs
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, pos = self.advance()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}", pos)

    def parse(self) -> Expr:
        e = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.advance()
                rhs = self.term()
                e = add(e, rhs) if val == "+" else sub(e, rhs)
            else:
                return e

    def term(self) -> Expr:
        e = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.advance()
                rhs = self.factor()
                e = mul(e, rhs) if val == "*" else div(e, rhs)
            else:
                return e

    def factor(self) -> Expr:
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            return neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.advance()
            return pow_int(base, self.exponent())
        return base

    def exponent(self) -> int:
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.advance()
            sign = -1
        kind, val, pos = self.advance()
        if kind != "int":
            raise ParseError("exponent must be an integer literal", pos)
        # the length test keeps int() off very long digit runs
        if len(val.lstrip("0")) > len(str(MAX_EXPONENT)) or int(val) > MAX_EXPONENT:
            raise ParseError(f"budget exceeded: exponents are limited to {MAX_EXPONENT} in absolute value", pos)
        return sign * int(val)

    def atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "int":
            return rational(int(val))
        if kind == "op" and val == "(":
            e = self.expr()
            self.expect_op(")")
            return e
        if kind == "ref":
            # the length test keeps int() off very long digit runs
            n = int(val) if len(val) <= 18 else 0
            if self.defs is None or not 1 <= n <= len(self.defs):
                raise ParseError(f"undefined reference @{val}", pos)
            return self.defs[n - 1]
        if kind == "name":
            nkind, nval, _ = self.peek()
            if nkind == "op" and nval == "(":
                if val not in ELEMENTARY_FUNCTIONS:
                    raise ParseError(f"unknown function {val!r}", pos)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return fun(val, arg)
            return self.identifier(val, pos)
        raise ParseError(f"unexpected token {val!r}", pos)

    def identifier(self, name: str, pos: int) -> Expr:
        if name in self.ctx.coords:
            return sym(name)
        if name in self.ctx.functions:
            return self.ctx.opaque_symbol(name)
        if "_" in name:
            base, *parts = name.split("_")
            if base in self.ctx.functions and parts:
                deps = self.ctx.functions[base]
                counts: dict[str, int] = {}
                for p in parts:
                    if p not in deps:
                        raise ParseError(
                            f"{base!r} does not depend on coordinate {p!r}", pos
                        )
                    counts[p] = counts.get(p, 0) + 1
                return self.ctx.opaque_symbol(base, counts)
        raise ParseError(f"unknown identifier {name!r}", pos)


def parse_expr(text: str, ctx: Context, defs: Sequence[Expr] | None = None) -> Expr:
    """Parse ``text`` to a canonical expression.

    ``@n`` is ``defs[n-1]``.  Raises ``ParseError`` (with position) on
    syntax errors, unknown identifiers, non-integer exponents, exponents
    beyond ``MAX_EXPONENT`` and references outside ``defs`` (every
    reference, when ``defs`` is None).
    """
    return _Parser(text, ctx, defs).parse()
