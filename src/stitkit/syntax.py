"""Formula syntax: AST, parser, printer and structural measures.

The primitive connectives are atoms, ~, &, the agentive operator [i]
(cstit), the deliberative operator {i} (dstit) and the settledness
operator [].  Everything else (|, ->, <->, <>, <i>) is parser sugar and
is desugared on construction:

    <>f   == ~[]~f          <i>f  == ~[i]~f
    a | b == ~(~a & ~b)      a -> b == ~(a & ~b)
    a <-> b == (a -> b) & (b -> a)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum


class SyntaxError_(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


@dataclass(frozen=True)
class Formula:
    __slots__ = ()

    def __str__(self):
        return pretty(self)


@dataclass(frozen=True)
class Atom(Formula):
    __slots__ = ("name",)
    name: str


@dataclass(frozen=True)
class Not(Formula):
    __slots__ = ("sub",)
    sub: Formula


@dataclass(frozen=True)
class And(Formula):
    __slots__ = ("left", "right")
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Cstit(Formula):
    __slots__ = ("agent", "sub")
    agent: int
    sub: Formula


@dataclass(frozen=True)
class Dstit(Formula):
    __slots__ = ("agent", "sub")
    agent: int
    sub: Formula


@dataclass(frozen=True)
class Box(Formula):
    __slots__ = ("sub",)
    sub: Formula


# -- sugar constructors -------------------------------------------------

def Or(a, b):
    return Not(And(Not(a), Not(b)))


def Implies(a, b):
    return Not(And(a, Not(b)))


def Iff(a, b):
    return And(Implies(a, b), Implies(b, a))


def Diamond(f):
    return Not(Box(Not(f)))


def PosCstit(agent, f):
    """<i>f, the dual of the cstit operator."""
    return Not(Cstit(agent, Not(f)))


def conjoin(formulas):
    """Right-nested conjunction of a nonempty sequence."""
    formulas = list(formulas)
    if not formulas:
        raise ValueError("empty conjunction")
    out = formulas[-1]
    for f in reversed(formulas[:-1]):
        out = And(f, out)
    return out


class LanguageTag(Enum):
    CSTIT = "cstit"
    DSTIT = "dstit"
    MIXED = "mixed"


# -- lexer / parser -----------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<lpar>\()|(?P<rpar>\))
     |(?P<iff><->)|(?P<imp>->)
     |(?P<and>&)|(?P<or>\|)|(?P<not>~)
     |(?P<box>\[\])|(?P<dia><>)
     |(?P<cstit>\[(?P<cagent>\d+)\])
     |(?P<poscstit><(?P<pagent>\d+)>)
     |(?P<dstit>\{(?P<dagent>\d+)\})
     |(?P<atom>[a-z_][a-zA-Z0-9_]*)
    )""",
    re.VERBOSE,
)

_BINOPS = {"and", "or", "imp", "iff"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise SyntaxError_(f"unexpected input {rest[:10]!r}", pos)
        # every alternative is one named group that closes last, so
        # lastgroup names the token kind
        tokens.append((m.lastgroup, m, m.start()))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxError_(f"expected {kind}, found {tok[0]}", tok[2])
        return tok

    def parse_unary(self):
        kind, m, pos = self.next()
        if kind == "atom":
            return Atom(m.group("atom"))
        if kind == "not":
            return Not(self.parse_unary())
        if kind == "box":
            return Box(self.parse_unary())
        if kind == "dia":
            return Diamond(self.parse_unary())
        if kind == "cstit":
            return Cstit(int(m.group("cagent")), self.parse_unary())
        if kind == "poscstit":
            return PosCstit(int(m.group("pagent")), self.parse_unary())
        if kind == "dstit":
            return Dstit(int(m.group("dagent")), self.parse_unary())
        if kind == "lpar":
            left = self.parse_unary()
            op = self.next()
            if op[0] == "rpar":
                return left
            if op[0] not in _BINOPS:
                raise SyntaxError_("expected binary operator", op[2])
            out = self.parse_chain(op[0], left)
            self.expect("rpar")
            return out
        raise SyntaxError_(f"unexpected token {kind}", pos)

    def parse_chain(self, op, left):
        # & and | may be chained ((a & b & c) nests to the right)
        items = [left, self.parse_unary()]
        while self.peek() == op and op in ("and", "or"):
            self.next()
            items.append(self.parse_unary())
        if self.peek() in _BINOPS:
            tok = self.tokens[self.i]
            raise SyntaxError_("mixed binary operators need parentheses",
                               tok[2])
        out = items[-1]
        for item in reversed(items[:-1]):
            out = _combine(op, item, out)
        return out

    def parse_top(self):
        left = self.parse_unary()
        if self.peek() in _BINOPS:
            # outermost parentheses are optional
            op = self.next()
            out = self.parse_chain(op[0], left)
            self.expect("eof")
            return out
        self.expect("eof")
        return left


def _combine(op, left, right):
    if op == "and":
        return And(left, right)
    if op == "or":
        return Or(left, right)
    if op == "imp":
        return Implies(left, right)
    return Iff(left, right)


def parse(text):
    """Parse formula text into its (desugared) AST."""
    return _Parser(text).parse_top()


# -- printer ------------------------------------------------------------

def pretty(f):
    """Canonical text form; parse(pretty(f)) == f, byte-stable."""
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Not):
        return "~" + pretty(f.sub)
    if isinstance(f, And):
        return f"({pretty(f.left)} & {pretty(f.right)})"
    if isinstance(f, Cstit):
        return f"[{f.agent}]{pretty(f.sub)}"
    if isinstance(f, Dstit):
        return f"{{{f.agent}}}{pretty(f.sub)}"
    if isinstance(f, Box):
        return "[]" + pretty(f.sub)
    raise TypeError(f"not a formula: {f!r}")


# -- structural measures ------------------------------------------------

def length(f):
    """Symbol-count measure: atoms 1, ~ 1+, & 3+, [i] 3+, {i} 5+, [] 1+."""
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Not):
        return 1 + length(f.sub)
    if isinstance(f, And):
        return 3 + length(f.left) + length(f.right)
    if isinstance(f, Cstit):
        return 3 + length(f.sub)
    if isinstance(f, Dstit):
        return 5 + length(f.sub)
    if isinstance(f, Box):
        return 1 + length(f.sub)
    raise TypeError(f"not a formula: {f!r}")


def children(f):
    if isinstance(f, Atom):
        return ()
    if isinstance(f, And):
        return (f.left, f.right)
    return (f.sub,)


def subformulas(f):
    """All subformulas of f in post-order (children first), deduplicated."""
    out = []
    seen = set()

    def walk(g):
        if g in seen:
            return
        for c in children(g):
            walk(c)
        seen.add(g)
        out.append(g)

    walk(f)
    return tuple(out)


def agents(f):
    """Agent indices occurring in cstit/dstit operators."""
    out = set()
    for g in subformulas(f):
        if isinstance(g, (Cstit, Dstit)):
            out.add(g.agent)
    return out


def atoms(f):
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


def language_tag(f):
    has_c = any(isinstance(g, Cstit) for g in subformulas(f))
    has_d = any(isinstance(g, Dstit) for g in subformulas(f))
    if has_c and has_d:
        return LanguageTag.MIXED
    if has_d:
        return LanguageTag.DSTIT
    return LanguageTag.CSTIT


def expand_dstit(f):
    """Rewrite every {i}g into ([i]g & ~[]g)."""
    if isinstance(f, Atom):
        return f
    if isinstance(f, Not):
        return Not(expand_dstit(f.sub))
    if isinstance(f, And):
        return And(expand_dstit(f.left), expand_dstit(f.right))
    if isinstance(f, Cstit):
        return Cstit(f.agent, expand_dstit(f.sub))
    if isinstance(f, Box):
        return Box(expand_dstit(f.sub))
    sub = expand_dstit(f.sub)
    return And(Cstit(f.agent, sub), Not(Box(sub)))
