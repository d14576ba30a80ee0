"""Polynomial satisfiability-preserving translations between the two
agentive languages.

Both translations are structure-preserving (Plaisted & Greenbaum 1986,
after Tseitin 1968).  Atoms stand for themselves and ~, & and [] are
copied through; only the operator of the source language is rewritten:

    tr:  {i}g  becomes  ([i]s & ~[]s)     (deliberative to agentive)
    tr': [i]g  becomes  ({i}s | []s)      (agentive to deliberative)

Here s is g itself when g is an atom.  Otherwise s is a fresh atom, one
per distinct g, defined by a settled clause over the translation t(g)
of g.  The clause depends on the polarities at which s occurs:

    [](s <-> t(g))   at both polarities (always so for tr, where s
                     occurs under [i] and under ~[])
    [](s -> t(g))    only positively
    [](t(g) -> s)    only negatively

One-way clauses are sound because ({i}s | []s) is equivalent to [i]s,
which is monotone in s, and [] is the universal modality of a moment.
The output is t(f) when no fresh atom is made, and otherwise t(f)
conjoined with the clauses, inner definitions first.

Fresh atoms are named _b0, _b1, ... in the order their definitions are
made, skipping every name that is an atom of the input.
"""

from __future__ import annotations

from itertools import count

from . import syntax
from .syntax import (And, Atom, Box, Cstit, Dstit, Iff, Implies, Not, Or,
                     conjoin, subformulas)


def _rewrite(op, s):
    """The rewrite of op = {i}g or [i]g with g replaced by the atom s."""
    if isinstance(op, Dstit):
        return And(Cstit(op.agent, s), Not(Box(s)))
    return Or(Dstit(op.agent, s), Box(s))


def _polarities(f, kind):
    """Map each non-atomic operand g of a `kind` node of f to the set of
    polarities (+1, -1) at which its fresh atom occurs in the output."""
    pols = {}
    seen = set()

    def walk(h, pol):
        if (h, pol) in seen or isinstance(h, Atom):
            return
        seen.add((h, pol))
        if isinstance(h, Not):
            walk(h.sub, -pol)
        elif isinstance(h, And):
            walk(h.left, pol)
            walk(h.right, pol)
        elif isinstance(h, kind):
            # {i} rewrites to s under [i] and under ~[]: both polarities;
            # [i] rewrites to the monotone ({i}s | []s): the node's own.
            uses = (pol, -pol) if kind is Dstit else (pol,)
            if not isinstance(h.sub, Atom):
                pols.setdefault(h.sub, set()).update(uses)
            for p in uses:
                walk(h.sub, p)
        else:
            walk(h.sub, pol)

    walk(f, 1)
    return pols


def _definition(s, body, pols):
    if len(pols) == 2:
        return Iff(s, body)
    if 1 in pols:
        return Implies(s, body)
    return Implies(body, s)


def _translate(f, kind):
    pols = _polarities(f, kind)
    taken = syntax.atoms(f)
    names = (Atom(f"_b{k}") for k in count() if f"_b{k}" not in taken)
    fresh, clauses, memo = {}, [], {}

    def name(g):
        if g not in fresh:
            body = t(g)
            fresh[g] = s = next(names)
            clauses.append(Box(_definition(s, body, pols[g])))
        return fresh[g]

    def t(h):
        if h in memo:
            return memo[h]
        if isinstance(h, Atom):
            out = h
        elif isinstance(h, Not):
            out = Not(t(h.sub))
        elif isinstance(h, And):
            out = And(t(h.left), t(h.right))
        elif isinstance(h, Box):
            out = Box(t(h.sub))
        elif isinstance(h, kind):
            out = _rewrite(h, h.sub if isinstance(h.sub, Atom)
                           else name(h.sub))
        else:
            raise TypeError(f"not a formula: {h!r}")
        memo[h] = out
        return out

    out = t(f)
    return And(out, conjoin(clauses)) if clauses else out


def tr(f):
    """Deliberative-language formula to an agentive-language one,
    satisfiable iff the input is."""
    if any(isinstance(g, Cstit) for g in subformulas(f)):
        raise ValueError("tr input must not contain [i] operators")
    out = _translate(f, Dstit)
    if any(isinstance(g, Dstit) for g in subformulas(out)):
        raise AssertionError("tr output contains a {i} operator")
    return out


def tr_prime(f):
    """Agentive-language formula to a deliberative-language one,
    satisfiable iff the input is."""
    if any(isinstance(g, Dstit) for g in subformulas(f)):
        raise ValueError("tr_prime input must not contain {i} operators")
    out = _translate(f, Cstit)
    if any(isinstance(g, Cstit) for g in subformulas(out)):
        raise AssertionError("tr_prime output contains an [i] operator")
    return out
