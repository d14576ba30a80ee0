"""Shared test utilities: formula generators, small-model helpers, the
recursive reference parser and translation, the scalar references of the
bit-parallel inner loops, the direct permutation-property checks, and
measures that only the tests read."""

import itertools
import random
import re
from itertools import count

from stitkit import syntax
from stitkit.axioms import canon
from stitkit.kripke import (KripkeModel, _agent_cell, _class_lookup,
                            box_classes, check_equivalence)
from stitkit.solver import (ENGINE_MAX_LEAVES, InconclusiveError,
                            _subsets_desc)
from stitkit.syntax import (And, Atom, Box, Cstit, Diamond, Dstit, Iff,
                            Implies, Not, Or, PosCstit, SyntaxError_,
                            conjoin, length)
from stitkit.translate import _definition, _rewrite


def exhaustive_formulas(max_length, atom_names=("p", "q"), agents=(0, 1),
                        dstit=True):
    """All formulas of length <= max_length over the given atoms/agents.

    Grown by the length measure: atoms cost 1, ~ and [] cost 1, & and
    [i] cost 3, {i} costs 5.
    """
    by_len = {n: [] for n in range(1, max_length + 1)}
    for name in atom_names:
        by_len[1].append(Atom(name))
    for n in range(2, max_length + 1):
        out = by_len[n]
        for f in by_len[n - 1]:
            out.append(Not(f))
            out.append(Box(f))
        if n - 3 >= 1:
            for f in by_len[n - 3]:
                for a in agents:
                    out.append(Cstit(a, f))
            for x in range(1, n - 3):
                y = n - 3 - x
                if y >= 1:
                    for lf in by_len[x]:
                        for rf in by_len[y]:
                            out.append(And(lf, rf))
        if dstit and n - 5 >= 1:
            for f in by_len[n - 5]:
                for a in agents:
                    out.append(Dstit(a, f))
    for n in range(1, max_length + 1):
        yield from by_len[n]


def random_formula(rng, budget, atom_names=("p", "q"), agents=(0, 1),
                   dstit=True, cstit=True):
    """A random formula of length <= budget (length measure)."""
    choices = ["atom"]
    if budget >= 2:
        choices += ["not", "box"]
    if budget >= 4 and cstit:
        choices.append("cstit")
    if budget >= 5:
        choices.append("and")
    if budget >= 6 and dstit:
        choices.append("dstit")
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(atom_names))
    if kind == "not":
        return Not(random_formula(rng, budget - 1, atom_names, agents,
                                  dstit, cstit))
    if kind == "box":
        return Box(random_formula(rng, budget - 1, atom_names, agents,
                                  dstit, cstit))
    if kind == "cstit":
        return Cstit(rng.choice(agents),
                     random_formula(rng, budget - 3, atom_names, agents,
                                    dstit, cstit))
    if kind == "dstit":
        return Dstit(rng.choice(agents),
                     random_formula(rng, budget - 5, atom_names, agents,
                                    dstit, cstit))
    lb = rng.randint(1, budget - 3 - 1)
    return And(random_formula(rng, lb, atom_names, agents, dstit, cstit),
               random_formula(rng, budget - 3 - lb, atom_names, agents,
                              dstit, cstit))


def random_corpus(seed, count, budget, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_formula(rng, budget, **kwargs)
        assert length(f) <= budget
        out.append(f)
    return out


# -- recursive reference for syntax.parse -----------------------------------

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
        tokens.append((m.lastgroup, m, m.start()))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


def _combine(op, left, right):
    if op == "and":
        return And(left, right)
    if op == "or":
        return Or(left, right)
    if op == "imp":
        return Implies(left, right)
    return Iff(left, right)


class _ReferenceParser:
    """Recursive descent, one method per rule, over a tokenizer that
    matches one token at a time."""

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


def reference_parse(text):
    """syntax.parse as recursive descent: same ASTs, same errors."""
    return _ReferenceParser(text).parse_top()


# -- recursive reference for translate.tr and translate.tr_prime ----------

def reference_translate(f, kind):
    """translate._translate as the recursive walks it replaced: tr for
    kind Dstit, tr_prime for kind Cstit, without the language guards."""
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
            uses = (pol, -pol) if kind is Dstit else (pol,)
            if not isinstance(h.sub, Atom):
                pols.setdefault(h.sub, set()).update(uses)
            for p in uses:
                walk(h.sub, p)
        else:
            walk(h.sub, pol)

    walk(f, 1)
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


# -- scalar references for solver._types and solver._search_group --------

def reference_types(g):
    """solver._types one assignment at a time: same result, same order."""
    sf = syntax.subformulas(g)
    idx = {s: i for i, s in enumerate(sf)}
    leaves = [i for i, s in enumerate(sf)
              if isinstance(s, (Atom, Cstit, Box))]
    if len(leaves) > ENGINE_MAX_LEAVES:
        raise InconclusiveError(
            f"{len(leaves)} independent subformulas exceed the engine cap",
            {"cap": "leaves", "leaves": len(leaves)})
    out = []
    for bits in range(1 << len(leaves)):
        val = [False] * len(sf)
        for k, i in enumerate(leaves):
            val[i] = bool((bits >> k) & 1)
        ok = True
        for i, s in enumerate(sf):
            if isinstance(s, Not):
                val[i] = not val[idx[s.sub]]
            elif isinstance(s, And):
                val[i] = val[idx[s.left]] and val[idx[s.right]]
            elif isinstance(s, (Cstit, Box)) and val[i] \
                    and not val[idx[s.sub]]:
                ok = False
                break
        if ok:
            out.append(tuple(val))
    return sf, idx, out


def reference_search_group(cand, agents, profiles, iprof, cstit_nodes,
                           sub_of, box_negs, root, stats):
    """solver._search_group over lists and sets of types."""
    for combo in itertools.product(
            *(_subsets_desc(profiles[a]) for a in agents)):
        stats["combos"] += 1
        allowed = {a: set(r) for a, r in zip(agents, combo)}
        u_set = [t for t in cand
                 if all(iprof(t, a) in allowed[a] for a in agents)]
        if not u_set:
            continue
        realized = {tuple(iprof(t, a) for a in agents) for t in u_set}
        if any(tup not in realized for tup in itertools.product(*combo)):
            continue
        if any(all(t[n] for t in u_set) for n in box_negs):
            continue
        ok = True
        for a, rs in zip(agents, combo):
            for r in rs:
                cell = [t for t in u_set if iprof(t, a) == r]
                for pos, v in zip(cstit_nodes[a], r):
                    if not v and all(t[sub_of[pos]] for t in cell):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        t_sat = next((t for t in u_set if t[root]), None)
        if t_sat is None:
            continue
        return u_set, t_sat
    return None


# -- direct permutation-property checks, references for the per-class
# rectangularity test in kripke.check_gpp and solver._frames ----------------

def _cell_of(cells, i):
    for c in cells:
        if (c >> i) & 1:
            return c
    raise ValueError


def reference_frame_gpp(parts, n):
    """Direct permutation-property check on bitmask partitions."""
    a = len(parts)
    for l in range(a):
        for m in range(a):
            for w in range(n):
                cw = _cell_of(parts[l], w)
                reach = 0
                for u in range(n):
                    if (cw >> u) & 1:
                        reach |= _cell_of(parts[m], u)
                for v in range(n):
                    if not (reach >> v) & 1:
                        continue
                    for nn in range(a):
                        need = _cell_of(parts[nn], w)
                        for i in range(a):
                            if i != nn:
                                need &= _cell_of(parts[i], v)
                        if not need:
                            return False
    return True


def reference_check_gpp(m):
    """General permutation property violations, as (w, v, l, m, n) tuples.

    Quantifies l, m, n over the stored agents plus, when the universe is
    larger, a single representative padded agent (padded agents all act
    alike).  Relations must already be equivalence relations.
    """
    eq = check_equivalence(m)
    if eq:
        raise ValueError("not equivalence relations: " + "; ".join(eq))
    stored = sorted(m.relations)
    agents = list(stored)
    if m.agent_universe > len(stored):
        padded = next(a for a in range(m.agent_universe)
                      if a not in set(stored))
        agents.append(padded)
    class_of = _class_lookup(m)
    out = []
    for l in agents:
        for mm in agents:
            for w in m.worlds:
                for u in _agent_cell(m, l, w, class_of):
                    for v in _agent_cell(m, mm, u, class_of):
                        for n in agents:
                            need = set(_agent_cell(m, n, w, class_of))
                            for i in agents:
                                if i != n:
                                    need &= _agent_cell(m, i, v, class_of)
                            if not need:
                                out.append((w, v, l, mm, n))
    return sorted(set(out))


# -- scalar reference for axioms._pl_entails --------------------------------

def reference_pl_consequence(premises, conclusion, max_letters=16):
    """axioms._pl_entails on the canon forms, one assignment at a time,
    over a tuple skeleton of each canonical premise and of the
    conclusion."""
    letters = {}

    def skel(f):
        if isinstance(f, Not):
            return ("not", skel(f.sub))
        if isinstance(f, And):
            return ("and", skel(f.left), skel(f.right))
        if f not in letters:
            letters[f] = len(letters)
        return ("var", letters[f])

    shapes = [skel(canon(p)) for p in premises] + [skel(canon(conclusion))]
    if len(letters) > max_letters:
        raise ValueError("too many distinct subformulas for a PL step")

    def ev(shape, bits):
        tag = shape[0]
        if tag == "var":
            return bool((bits >> shape[1]) & 1)
        if tag == "not":
            return not ev(shape[1], bits)
        return ev(shape[1], bits) and ev(shape[2], bits)

    for bits in range(1 << len(letters)):
        if all(ev(s, bits) for s in shapes[:-1]) and not ev(shapes[-1], bits):
            return False
    return True


# -- measures only the tests read -----------------------------------------

def blowup(f, out):
    """Measured length ratio (length(out) - 1) / length(f)."""
    return (length(out) - 1) / length(f)


def generated_submodel(m, w):
    """Restriction of a KripkeModel to the settledness class of w."""
    cls = next(c for c in box_classes(m) if w in c)
    keep = [u for u in m.worlds if u in cls]
    relations = {a: tuple(c & cls for c in cells if c & cls)
                 for a, cells in m.relations.items()}
    valuation = {p: ws & cls for p, ws in m.valuation.items()}
    return KripkeModel(tuple(keep), relations, valuation, m.agent_universe)
