"""Shared test utilities: formula generators, small-model helpers, the
scalar references of the bit-parallel inner loops, and measures that
only the tests read."""

import itertools
import random

from stitkit import syntax
from stitkit.axioms import canon
from stitkit.kripke import KripkeModel, box_classes
from stitkit.solver import (ENGINE_MAX_LEAVES, InconclusiveError,
                            _subsets_desc)
from stitkit.syntax import And, Atom, Box, Cstit, Dstit, Not, length


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


# -- scalar reference for axioms._pl_consequence ----------------------------

def reference_pl_consequence(premises, conclusion, max_letters=16):
    """axioms._pl_consequence one assignment at a time, over a tuple
    skeleton of each canonical premise and of the conclusion."""
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
