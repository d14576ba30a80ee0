"""Formula syntax: AST, parser, printer and structural measures.

The primitive connectives are atoms, ~, &, the agentive operator [i]
(cstit), the deliberative operator {i} (dstit) and the settledness
operator [].  Everything else (|, ->, <->, <>, <i>) is parser sugar and
is desugared on construction:

    <>f   == ~[]~f          <i>f  == ~[i]~f
    a | b == ~(~a & ~b)      a -> b == ~(a & ~b)
    a <-> b == (a -> b) & (b -> a)

Nodes are immutable and compare by structure.  A node computes its hash
once, when it is built, from the stored hashes of its children, so
building and hashing a node cost O(1) at any depth.  ``==`` tests
identity, then class and hash, and only then walks both trees.  The
first ``subformulas`` call on a node stores the post-order walk on that
node; ``agents``, ``atoms`` and ``language_tag`` read it, and it lives
exactly as long as the node does.  There is no intern table: two parses
of one text give two equal, distinct trees.

Nothing in this module recurses.  The parser, the printers, the
measures, equality and ``expand_dstit`` walk with explicit stacks, so
they handle any nesting depth under the default recursion limit.  The
parser scans the text once into token strings and computes a position
only for an error.
"""

from __future__ import annotations

import re
from dataclasses import FrozenInstanceError
from enum import Enum


class SyntaxError_(ValueError):
    """Raised on malformed formula text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_new = object.__new__


class Formula:
    """Base of the six node classes.

    ``_hash`` is set at construction; ``_sf`` holds the subformula walk
    once ``subformulas`` has run on the node.
    """

    __slots__ = ("_hash", "_sf")
    __match_args__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __hash__(self):
        return self._hash

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return False if isinstance(other, Formula) else NotImplemented
        return self._hash == other._hash and _same(self, other)

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__match_args__)

    def __repr__(self):
        return _repr(self)

    def __str__(self):
        return pretty(self)


class Atom(Formula):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name):
        self = _new(cls)
        _set_name(self, name)
        _set_hash(self, hash((0, name)))
        return self


class Not(Formula):
    __slots__ = ("sub",)
    __match_args__ = ("sub",)

    def __new__(cls, sub):
        self = _new(cls)
        _set_not_sub(self, sub)
        _set_hash(self, hash((1, sub._hash)))
        return self


class And(Formula):
    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        self = _new(cls)
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((2, left._hash, right._hash)))
        return self


class Cstit(Formula):
    __slots__ = ("agent", "sub")
    __match_args__ = ("agent", "sub")

    def __new__(cls, agent, sub):
        self = _new(cls)
        _set_cstit_agent(self, agent)
        _set_cstit_sub(self, sub)
        _set_hash(self, hash((3, agent, sub._hash)))
        return self


class Dstit(Formula):
    __slots__ = ("agent", "sub")
    __match_args__ = ("agent", "sub")

    def __new__(cls, agent, sub):
        self = _new(cls)
        _set_dstit_agent(self, agent)
        _set_dstit_sub(self, sub)
        _set_hash(self, hash((4, agent, sub._hash)))
        return self


class Box(Formula):
    __slots__ = ("sub",)
    __match_args__ = ("sub",)

    def __new__(cls, sub):
        self = _new(cls)
        _set_box_sub(self, sub)
        _set_hash(self, hash((5, sub._hash)))
        return self


# slot setters, which bypass the raising __setattr__
_set_hash = Formula._hash.__set__
_set_sf = Formula._sf.__set__
_set_name = Atom.name.__set__
_set_not_sub = Not.sub.__set__
_set_left = And.left.__set__
_set_right = And.right.__set__
_set_cstit_agent = Cstit.agent.__set__
_set_cstit_sub = Cstit.sub.__set__
_set_dstit_agent = Dstit.agent.__set__
_set_dstit_sub = Dstit.sub.__set__
_set_box_sub = Box.sub.__set__

_MODAL = (Cstit, Dstit)


def _same(a, b):
    """Structural equality of two nodes, one pair of nodes at a time."""
    stack = [(a, b)]
    while stack:
        a, b = stack.pop()
        if a is b:
            continue
        t = type(a)
        if t is not type(b) or a._hash != b._hash:
            return False
        if t is Atom:
            if a.name != b.name:
                return False
        elif t is And:
            stack.append((a.right, b.right))
            stack.append((a.left, b.left))
        else:
            if t in _MODAL and a.agent != b.agent:
                return False
            stack.append((a.sub, b.sub))
    return True


def _repr(f):
    """Dataclass-style repr, e.g. Not(sub=Atom(name='p'))."""
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        if type(g) is str:
            out.append(g)
            continue
        out.append(type(g).__name__ + "(")
        pieces = []
        for k, name in enumerate(g.__match_args__):
            value = getattr(g, name)
            pieces.append(f"{', ' if k else ''}{name}=")
            pieces.append(value if isinstance(value, Formula)
                          else repr(value))
        pieces.append(")")
        stack.extend(reversed(pieces))
    return "".join(out)


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

# one token per match, after any blanks; the alternatives are tried in
# order, so any other character is a one-character bad token
_TOKEN_RE = re.compile(
    r"\s*(\(|\)|<->|->|&|\||~|\[\]|<>|\[\d+\]|<\d+>|\{\d+\}"
    r"|[a-z_][a-zA-Z0-9_]*|\S)")

_ATOM_START = frozenset("abcdefghijklmnopqrstuvwxyz_")
# a prefix token waits for its operand as (builder, agent or None); [i],
# <i> and {i} go by their first character, once the second is a digit
_UNARY = {"~": (Not, None), "[]": (Box, None), "<>": (Diamond, None)}
_AGENTIVE = {"[": Cstit, "<": PosCstit, "{": Dstit}
_BINARY = {"&": And, "|": Or, "->": Implies, "<->": Iff}

# token kinds as error messages name them; "" is the end of the text
_KINDS = {"(": "lpar", ")": "rpar", "<->": "iff", "->": "imp", "&": "and",
          "|": "or", "~": "not", "[]": "box", "<>": "dia", "": "eof"}
_AGENT_KINDS = {"[": "cstit", "<": "poscstit", "{": "dstit"}

# parser frames besides prefix operators (tuples) and open chains (lists)
_OPEN = object()  # after "(", waiting for its first operand
_TOP = object()  # the whole text


def _kind(word):
    """The kind of a token text, as error messages name it."""
    if word in _KINDS:
        return _KINDS[word]
    if word[0] in _ATOM_START:
        return "atom"
    if word[0] in _AGENTIVE and word[1:2].isdecimal():
        return _AGENT_KINDS[word[0]]
    return "bad"


class _Stop(Exception):
    """A parse failure: (token index, message with {} for its kind)."""


def parse(text):
    """Parse formula text into its (desugared) AST.

    Grammar: a formula is a unary formula, optionally followed by one
    binary operator chain without parentheses at the top level.  A unary
    formula is an atom, a prefix operator applied to a unary formula, or
    "(" unary ")" or "(" unary op unary ... ")".  Only & and | chain
    (nesting to the right); mixing operators needs parentheses.

    One findall turns the text into token strings.  Only a failure scans
    the text again, for the position and kind of the token at fault;
    text that does not tokenize is reported before any other error, at
    its first bad character.
    """
    tokens = _TOKEN_RE.findall(text)
    tokens.append("")  # eof
    try:
        return _parse(tokens)
    except _Stop as stop:
        index, message = stop.args
    pos, kind = _locate(text, index)
    raise SyntaxError_(message.format(kind), pos)


def _locate(text, index):
    """Start and kind of token ``index`` (eof after the last token);
    raises SyntaxError_ for the first bad token instead, if any."""
    found = len(text), "eof"
    for k, m in enumerate(_TOKEN_RE.finditer(text)):
        kind = _kind(m[1])
        if kind == "bad":
            pos = m.start()
            raise SyntaxError_(
                f"unexpected input {text[pos:].lstrip()[:10]!r}",
                pos) from None
        if k == index:
            found = m.start(), kind
    return found


def _parse(tokens):
    """One pass over the token texts, which end with "" for eof.
    ``frames`` holds what waits for the next complete operand, innermost
    last: a prefix operator, an open parenthesis, a chain [op, closing
    token, operands...] or the top.  A failure raises _Stop."""
    i = 0
    frames = [_TOP]
    while True:
        word = tokens[i]
        i += 1
        if word in _UNARY:
            frames.append(_UNARY[word])
            continue
        if word == "(":
            frames.append(_OPEN)
            continue
        first = word[:1]
        if first in _ATOM_START:
            value = Atom(word)
        elif first in _AGENTIVE and word[1:2].isdecimal():
            try:
                agent = int(word[1:-1])
            except ValueError:
                # more digits than int() converts from text
                raise _Stop(i - 1, "agent index of {} is too long") from None
            frames.append((_AGENTIVE[first], agent))
            continue
        else:
            raise _Stop(i - 1, "unexpected token {}")
        # an operand is complete: hand it out until a frame needs more
        while True:
            frame = frames[-1]
            if type(frame) is tuple:
                frames.pop()
                build, agent = frame
                value = build(value) if agent is None else build(agent, value)
                continue
            word = tokens[i]
            if frame is _OPEN:
                i += 1
                if word == ")":
                    frames.pop()
                    continue
                if word not in _BINARY:
                    raise _Stop(i - 1, "expected binary operator")
                frames[-1] = [word, ")", value]
                break
            if frame is _TOP:
                if word in _BINARY:
                    # outermost parentheses are optional
                    i += 1
                    frames[-1] = [word, "", value]
                    break
                if word:
                    raise _Stop(i, "expected eof, found {}")
                return value
            op = frame[0]
            frame.append(value)
            if word == op and (op == "&" or op == "|"):
                # & and | may be chained ((a & b & c) nests to the right)
                i += 1
                break
            if word in _BINARY:
                raise _Stop(i, "mixed binary operators need parentheses")
            i += 1
            if word != frame[1]:
                raise _Stop(i - 1, f"expected {_KINDS[frame[1]]}, found {{}}")
            frames.pop()
            build = _BINARY[op]
            for k in range(len(frame) - 2, 1, -1):
                value = build(frame[k], value)
            if not frames:
                return value


# -- printer ------------------------------------------------------------

def pretty(f):
    """Canonical text form; parse(pretty(f)) == f, byte-stable."""
    if not isinstance(f, Formula):
        raise TypeError(f"not a formula: {f!r}")
    out = []
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is str:
            out.append(g)
        elif t is Atom:
            out.append(g.name)
        elif t is Not:
            out.append("~")
            stack.append(g.sub)
        elif t is And:
            out.append("(")
            stack += (")", g.right, " & ", g.left)
        elif t is Cstit:
            out.append(f"[{g.agent}]")
            stack.append(g.sub)
        elif t is Dstit:
            out.append(f"{{{g.agent}}}")
            stack.append(g.sub)
        elif t is Box:
            out.append("[]")
            stack.append(g.sub)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return "".join(out)


# -- structural measures ------------------------------------------------

def length(f):
    """Symbol-count measure: atoms 1, ~ 1+, & 3+, [i] 3+, {i} 5+, [] 1+."""
    total = 0
    stack = [f]
    while stack:
        g = stack.pop()
        t = type(g)
        if t is And:
            total += 3
            stack.append(g.left)
            stack.append(g.right)
        elif t is Atom:
            total += 1
        elif t is Not or t is Box:
            total += 1
            stack.append(g.sub)
        elif t is Cstit:
            total += 3
            stack.append(g.sub)
        elif t is Dstit:
            total += 5
            stack.append(g.sub)
        else:
            raise TypeError(f"not a formula: {g!r}")
    return total


_EMIT = object()  # stack mark: the node below it has all children done


def subformulas(f):
    """All subformulas of f in post-order (children first), deduplicated.

    Walked once per node: the tuple is stored on f and returned by every
    later call.
    """
    try:
        return f._sf
    except AttributeError:
        pass
    out = []
    seen = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if g is _EMIT:
            g = stack.pop()
        elif g in seen:
            continue
        elif type(g) is not Atom:
            stack.append(g)
            stack.append(_EMIT)
            if type(g) is And:
                stack.append(g.right)
                stack.append(g.left)
            else:
                stack.append(g.sub)
            continue
        seen.add(g)
        out.append(g)
    out = tuple(out)
    _set_sf(f, out)
    return out


def agents(f):
    """Agent indices occurring in cstit/dstit operators."""
    return {g.agent for g in subformulas(f) if isinstance(g, _MODAL)}


def atoms(f):
    return {g.name for g in subformulas(f) if isinstance(g, Atom)}


def language_tag(f):
    sf = subformulas(f)
    has_c = any(isinstance(g, Cstit) for g in sf)
    has_d = any(isinstance(g, Dstit) for g in sf)
    if has_c and has_d:
        return LanguageTag.MIXED
    if has_d:
        return LanguageTag.DSTIT
    return LanguageTag.CSTIT


def expand_dstit(f):
    """Rewrite every {i}g into ([i]g & ~[]g).

    A node with no {i} below it comes back as it is, so a dstit-free
    formula is its own expansion and keeps its stored subformula walk.
    """
    sf = subformulas(f)
    if not any(type(g) is Dstit for g in sf):
        return f
    new = {}  # subformula -> its expansion, or None when it is unchanged
    for g in sf:
        t = type(g)
        if t is Atom:
            new[g] = None
        elif t is And:
            left, right = new[g.left], new[g.right]
            new[g] = (None if left is None and right is None else
                      And(g.left if left is None else left,
                          g.right if right is None else right))
        else:
            sub = new[g.sub]
            if t is Dstit:
                sub = g.sub if sub is None else sub
                new[g] = And(Cstit(g.agent, sub), Not(Box(sub)))
            elif sub is None:
                new[g] = None
            elif t is Cstit:
                new[g] = Cstit(g.agent, sub)
            else:
                new[g] = t(sub)
    return new[f]
