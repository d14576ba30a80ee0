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
made, skipping every name that is an atom of the input.  Each
translation is one ``syntax.rewrite`` walk, children first.
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
    # polarities at which each node occurs; parents come before children
    reach = {f: {1}}
    for h in reversed(subformulas(f)):
        if isinstance(h, Atom):
            continue
        at = reach[h]
        if isinstance(h, Not):
            reach.setdefault(h.sub, set()).update(-p for p in at)
        elif isinstance(h, And):
            reach.setdefault(h.left, set()).update(at)
            reach.setdefault(h.right, set()).update(at)
        elif isinstance(h, kind):
            # {i} rewrites to s under [i] and under ~[]: both polarities;
            # [i] rewrites to the monotone ({i}s | []s): the node's own.
            uses = {1, -1} if kind is Dstit else at
            if not isinstance(h.sub, Atom):
                pols.setdefault(h.sub, set()).update(uses)
            reach.setdefault(h.sub, set()).update(uses)
        else:
            reach.setdefault(h.sub, set()).update(at)
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
    fresh, clauses = {}, []

    # children first, so a fresh atom is named at the first `kind` node
    # over its operand, after every name made inside that operand; it is
    # named by the source operand g.sub and defined over its translation
    def rule(g, h):
        if not isinstance(g, kind):
            return h
        s = g.sub
        if not isinstance(s, Atom):
            if s not in fresh:
                fresh[s] = next(names)
                clauses.append(Box(_definition(fresh[s], h.sub, pols[s])))
            s = fresh[s]
        return _rewrite(g, s)

    top = syntax.rewrite(f, rule)
    return And(top, conjoin(clauses)) if clauses else top


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
