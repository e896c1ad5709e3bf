"""Tiny arithmetic expression language for config files.

Grammar (standard precedence, ^ is right-associative power):

    expr   := term   (('+' | '-') term)*
    term   := unary  (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | VARIABLE | FUNC '(' expr (',' expr)* ')'
            | '(' expr ')'

Known functions: sin, cos, exp, atan, abs, sqrt (one argument) and
min, max (two arguments).  Variables are whitelisted per call site so a
weight expression cannot reference x or y.  Compilation produces a
closure over numpy arrays; evaluation never raises on domain issues
(division by zero, sqrt of negatives) and leaves the non-finite values
to the numeric layers, which already guard against them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ExpressionError

_TOKEN_RE = re.compile(
    r"""
    (?P<number>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<space>\s+)
""",
    re.VERBOSE,
)

UNARY_FUNCTIONS: dict[str, Callable] = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "atan": np.arctan,
    "abs": np.abs,
    "sqrt": np.sqrt,
}
BINARY_FUNCTIONS: dict[str, Callable] = {
    "min": np.minimum,
    "max": np.maximum,
}
# numpy scalars, as the numbers are, so that 1/0 between two constants is
# inf under IEEE, as on arrays, and no Python ZeroDivisionError
CONSTANTS: dict[str, np.float64] = {"pi": np.float64(np.pi)}


@dataclass(frozen=True)
class Token:
    kind: str  # "number" | "name" | one of "+-*/^(),"
    text: str
    col: int  # 1-based position in the expression


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(
                f"unexpected character {text[pos]!r} in expression", col=pos + 1
            )
        pos = m.end()
        if m.lastgroup == "space":
            continue
        kind = m.lastgroup if m.lastgroup != "op" else m.group()
        tokens.append(Token(kind, m.group(), m.start() + 1))
    return tokens


@dataclass(frozen=True)
class CompiledExpression:
    """Expression compiled to a closure over named numpy arrays."""

    source: str
    variables: tuple[str, ...]  # whitelist, in call order
    used: frozenset[str]
    _fn: Callable = field(repr=False)

    def __call__(self, *args):
        if len(args) != len(self.variables):
            raise ExpressionError(
                f"expression over {self.variables} called with {len(args)} values"
            )
        env = {
            name: np.asarray(value, dtype=float)
            for name, value in zip(self.variables, args)
        }
        with np.errstate(all="ignore"):
            out = self._fn(env)
        shape = np.broadcast_shapes(*(env[v].shape for v in self.variables))
        return np.broadcast_to(np.asarray(out, dtype=float), shape).copy()


class _Parser:
    def __init__(self, tokens: list[Token], source: str, variables: tuple[str, ...]):
        self.tokens = tokens
        self.source = source
        self.variables = variables
        self.used: set[str] = set()
        self.i = 0

    def peek(self) -> Token | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def take(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ExpressionError(
                "unexpected end of expression", col=len(self.source) + 1
            )
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != kind:
            found = f"{tok.text!r}" if tok is not None else "end of expression"
            col = tok.col if tok is not None else len(self.source) + 1
            raise ExpressionError(f"expected {kind!r}, found {found}", col=col)
        return self.take()

    # grammar rules, lowest precedence first

    def expr(self) -> Callable:
        node = self.term()
        while (tok := self.peek()) is not None and tok.kind in "+-":
            self.take()
            rhs = self.term()
            node = (
                (lambda a, b: lambda env: a(env) + b(env))
                if tok.kind == "+"
                else (lambda a, b: lambda env: a(env) - b(env))
            )(node, rhs)
        return node

    def term(self) -> Callable:
        node = self.unary()
        while (tok := self.peek()) is not None and tok.kind in "*/":
            self.take()
            rhs = self.unary()
            node = (
                (lambda a, b: lambda env: a(env) * b(env))
                if tok.kind == "*"
                else (lambda a, b: lambda env: a(env) / b(env))
            )(node, rhs)
        return node

    def unary(self) -> Callable:
        tok = self.peek()
        if tok is not None and tok.kind == "-":
            self.take()
            inner = self.unary()
            return lambda env: -inner(env)
        return self.power()

    def power(self) -> Callable:
        base = self.atom()
        tok = self.peek()
        if tok is not None and tok.kind == "^":
            self.take()
            expo = self.unary()
            return lambda env: np.power(base(env), expo(env))
        return base

    def atom(self) -> Callable:
        tok = self.take()
        if tok.kind == "number":
            value = np.float64(tok.text)
            return lambda env: value
        if tok.kind == "(":
            node = self.expr()
            self.expect(")")
            return node
        if tok.kind == "name":
            return self.name_atom(tok)
        raise ExpressionError(f"unexpected token {tok.text!r}", col=tok.col)

    def name_atom(self, tok: Token) -> Callable:
        name = tok.text
        nxt = self.peek()
        if nxt is not None and nxt.kind == "(":
            if name in UNARY_FUNCTIONS:
                fn = UNARY_FUNCTIONS[name]
                self.take()
                arg = self.expr()
                self.expect(")")
                return lambda env: fn(arg(env))
            if name in BINARY_FUNCTIONS:
                fn = BINARY_FUNCTIONS[name]
                self.take()
                first = self.expr()
                self.expect(",")
                second = self.expr()
                self.expect(")")
                return lambda env: fn(first(env), second(env))
            raise ExpressionError(f"unknown function {name!r}", col=tok.col)
        if name in CONSTANTS:
            value = CONSTANTS[name]
            return lambda env: value
        if name in self.variables:
            self.used.add(name)
            return lambda env: env[name]
        allowed = ", ".join(self.variables) if self.variables else "none"
        raise ExpressionError(
            f"unknown name {name!r} (variables here: {allowed})", col=tok.col
        )


def compile_expression(
    text: str, variables: tuple[str, ...] = ("t", "x", "y")
) -> CompiledExpression:
    """Parse and compile one expression over the given variable whitelist.

    The compiled object is called positionally in whitelist order, e.g.
    compile_expression("t - x*y")(t, x, y); every argument is broadcast
    as a float array and the result always carries the broadcast shape.
    """
    if not text.strip():
        raise ExpressionError("empty expression", col=1)
    parser = _Parser(tokenize(text), text, tuple(variables))
    root = parser.expr()
    leftover = parser.peek()
    if leftover is not None:
        raise ExpressionError(
            f"unexpected trailing {leftover.text!r}", col=leftover.col
        )
    return CompiledExpression(
        source=text,
        variables=tuple(variables),
        used=frozenset(parser.used),
        _fn=root,
    )
