"""Finite branching-time models with agents and choices, evaluated at
moment/history indices.

Moments form a rooted tree given by parent links; histories are maximal
branches.  Because a finite tree cannot distinguish two histories that
share every moment, a leaf may carry a history multiplicity: `histories k`
in the text format attaches k distinct histories ending at that leaf.
The default multiplicity is 1, which recovers the plain branch reading.

Histories are auto-named h1, h2, ... in depth-first leaf order.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from .kripke import int_field, key_line, once, unmet_choices
from .syntax import And, Atom, Box, Cstit, Dstit, Not


@dataclass
class BtacModel:
    """Moment tree plus choice partitions and a valuation.

    ``parent`` maps each moment to its parent (None for the root);
    ``multiplicity`` maps a leaf to its history count (absent means 1);
    ``choice`` maps (agent, moment) to a tuple of frozensets of history
    names; unstored pairs default to the vacuous single-cell choice.
    ``valuation`` maps an atom to a set of (moment, history) pairs.
    """

    moments: tuple
    parent: dict
    choice: dict
    valuation: dict
    multiplicity: dict = field(default_factory=dict)

    def __post_init__(self):
        self.moments = tuple(self.moments)
        known = set(self.moments)
        if len(known) != len(self.moments):
            raise ValueError("duplicate moment ids")
        roots = [w for w in self.moments if self.parent.get(w) is None]
        if len(roots) != 1:
            raise ValueError(f"expected one root, found {len(roots)}")
        for w in self.moments:
            p = self.parent.get(w)
            if p is not None and p not in known:
                raise ValueError(f"unknown parent {p!r} of {w!r}")
        for w in self.moments:
            seen = set()
            while w is not None:
                if w in seen:
                    raise ValueError("cycle in parent links")
                seen.add(w)
                w = self.parent.get(w)
        self.choice = {k: tuple(frozenset(c) for c in cells)
                       for k, cells in self.choice.items()}
        self.valuation = {p: frozenset(map(tuple, ws))
                          for p, ws in self.valuation.items()}
        self._derive_histories()

    def _derive_histories(self):
        children = {w: [] for w in self.moments}
        root = None
        for w in self.moments:
            p = self.parent.get(w)
            if p is None:
                root = w
            else:
                children[p].append(w)
        for w, k in self.multiplicity.items():
            if children.get(w) != []:
                raise ValueError(f"histories at {w}, which is not a leaf")
            if k < 1:
                raise ValueError(f"histories {k} at {w} is below 1")
        names = []
        leaf_of = {}

        def walk(w):
            if not children[w]:
                for _ in range(self.multiplicity.get(w, 1)):
                    h = f"h{len(names) + 1}"
                    names.append(h)
                    leaf_of[h] = w
            else:
                for c in children[w]:
                    walk(c)

        walk(root)
        self.histories = tuple(names)
        self._leaf_of = leaf_of
        self._children = children
        self.root = root

    def moments_of(self, h):
        """Moments a history passes through, root first."""
        out = []
        w = self._leaf_of[h]
        while w is not None:
            out.append(w)
            w = self.parent.get(w)
        return tuple(reversed(out))

    def histories_through(self, w):
        """H_w: histories whose branch contains the moment w."""
        return frozenset(h for h in self.histories if w in self.moments_of(h))

    def choice_cells(self, agent, w):
        """Choice partition of agent at w; defaults to the single cell."""
        return self.choice.get((agent, w), (self.histories_through(w),))

    def choice_cell_of(self, agent, w, h):
        for c in self.choice_cells(agent, w):
            if h in c:
                return c
        raise KeyError((agent, w, h))

    def indices(self):
        return [(w, h) for w in self.moments
                for h in sorted(self.histories_through(w),
                                key=self.histories.index)]


def validate_model(m):
    """All invariant violations, as human-readable strings."""
    out = []
    for (a, w), cells in sorted(m.choice.items(),
                                key=lambda kv: (kv[0][1], kv[0][0])):
        if w not in m.moments:
            out.append(f"choice {a} at unknown moment {w!r}")
            continue
        hw = m.histories_through(w)
        seen = set()
        for c in cells:
            if not c:
                out.append(f"choice {a} at {w}: empty cell")
            stray = c - hw
            if stray:
                out.append(f"choice {a} at {w}: histories {sorted(stray)} "
                           f"not through {w}")
            overlap = seen & c
            if overlap:
                out.append(f"choice {a} at {w}: histories "
                           f"{sorted(overlap)} in two cells")
            seen |= c
        missing = hw - seen
        if missing:
            out.append(f"choice {a} at {w}: histories {sorted(missing)} "
                       f"in no cell")
    out.extend(_superadditivity(m))
    for p, pairs in sorted(m.valuation.items()):
        for w, h in sorted(pairs):
            if w not in m.moments or h not in m.histories:
                out.append(f"val {p}: unknown index {w}/{h}")
            elif w not in m.moments_of(h):
                out.append(f"val {p}: history {h} does not pass "
                           f"through {w}")
    return out


def _superadditivity(m):
    out = []
    for w in m.moments:
        agents = sorted(a for (a, w2) in m.choice if w2 == w)
        for combo in unmet_choices([m.choice_cells(a, w) for a in agents],
                                   m.histories_through(w)):
            cells = ", ".join(
                f"agent {a}: {{{' '.join(sorted(c))}}}"
                for a, c in zip(agents, combo))
            out.append(f"superadditivity fails at {w} ({cells})")
    return out


def eval(m, idx, f):
    """Truth of f at a moment/history index."""
    w, h = idx
    if w not in m.moments or h not in m.histories:
        raise KeyError(f"unknown index {w}/{h}")
    if w not in m.moments_of(h):
        raise ValueError(f"history {h} does not pass through {w}")
    if isinstance(f, Atom):
        return (w, h) in m.valuation.get(f.name, ())
    if isinstance(f, Not):
        return not eval(m, idx, f.sub)
    if isinstance(f, And):
        return eval(m, idx, f.left) and eval(m, idx, f.right)
    if isinstance(f, Cstit):
        return all(eval(m, (w, h2), f.sub)
                   for h2 in m.choice_cell_of(f.agent, w, h))
    if isinstance(f, Box):
        return all(eval(m, (w, h2), f.sub)
                   for h2 in m.histories_through(w))
    if isinstance(f, Dstit):
        pos = all(eval(m, (w, h2), f.sub)
                  for h2 in m.choice_cell_of(f.agent, w, h))
        neg = any(not eval(m, (w, h2), f.sub)
                  for h2 in m.histories_through(w))
        return pos and neg
    raise TypeError(f"not a formula: {f!r}")


def valid_in_model(m, f):
    return all(eval(m, idx, f) for idx in m.indices())


_SAFE_BOUNDS = (2, 4, 2, 2)  # moments, histories, agents, atoms


def enumerate_models(max_moments, max_histories, agent_count, atoms):
    """Every valid model up to the bounds (duplicates possible).

    Bounds are guarded against explosion; the documented safe maxima are
    2 moments, 4 histories, 2 agents, 2 atoms.
    """
    limits = (max_moments, max_histories, agent_count, len(atoms))
    if any(v > cap for v, cap in zip(limits, _SAFE_BOUNDS)):
        raise ValueError(f"bounds {limits} exceed safe maxima "
                         f"{_SAFE_BOUNDS}")
    for n_m in range(1, max_moments + 1):
        for parents in itertools.product(*(range(i) for i in range(1, n_m))):
            moments = tuple(f"m{i + 1}" for i in range(n_m))
            parent = {moments[0]: None}
            for i, p in enumerate(parents, start=1):
                parent[moments[i]] = moments[p]
            children = {w: False for w in moments}
            for i, p in enumerate(parents, start=1):
                children[moments[p]] = True
            leaves = [w for w in moments if not children[w]]
            for mult in _leaf_multiplicities(len(leaves), max_histories):
                yield from _models_on_tree(
                    moments, parent, dict(zip(leaves, mult)),
                    agent_count, atoms)


def _leaf_multiplicities(n_leaves, max_histories):
    for total in range(n_leaves, max_histories + 1):
        for cut in itertools.combinations(range(1, total), n_leaves - 1):
            bounds = (0,) + cut + (total,)
            yield tuple(bounds[i + 1] - bounds[i] for i in range(n_leaves))


def _models_on_tree(moments, parent, multiplicity, agent_count, atoms):
    skeleton = BtacModel(moments, parent, {}, {}, multiplicity)
    per_moment = []
    for w in moments:
        hw = sorted(skeleton.histories_through(w),
                    key=skeleton.histories.index)
        options = list(itertools.product(
            *(set_partitions(hw) for _ in range(agent_count))))
        per_moment.append([(w, combo) for combo in options])
    index_pairs = skeleton.indices()
    for assignment in itertools.product(*per_moment):
        choice = {}
        for w, combo in assignment:
            for a, cells in enumerate(combo):
                choice[(a, w)] = tuple(frozenset(c) for c in cells)
        candidate = BtacModel(moments, parent, choice, {}, multiplicity)
        if _superadditivity(candidate):
            continue
        for val_combo in itertools.product(
                *(_subsets(index_pairs) for _ in atoms)):
            valuation = {p: frozenset(ws)
                         for p, ws in zip(atoms, val_combo)}
            yield BtacModel(moments, parent, choice, valuation,
                            multiplicity)


def _subsets(items):
    for k in range(len(items) + 1):
        yield from itertools.combinations(items, k)


def set_partitions(items):
    """All partitions of a sequence, cells and cell lists sorted."""
    items = list(items)
    if not items:
        return [()]
    out = []

    def grow(i, cells):
        if i == len(items):
            out.append(tuple(tuple(c) for c in cells))
            return
        for c in cells:
            c.append(items[i])
            grow(i + 1, cells)
            c.pop()
        cells.append([items[i]])
        grow(i + 1, cells)
        cells.pop()

    grow(1, [[items[0]]])
    return out


# -- text format ---------------------------------------------------------

def parse_model(text):
    """Parse the line-oriented BT+AC model format: a ``btac`` line, then
    ``moment M [parent P] [histories K]``, ``choice A M: {...} ...`` and
    ``val P: M/H ...`` lines.  A choice or val line appears at most once
    per key."""
    lines = [ln.strip() for ln in text.strip().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines or lines[0] != "btac":
        raise ValueError("btac model text must start with 'btac'")
    moments, parent, multiplicity = [], {}, {}
    choice, valuation = {}, {}
    seen = set()
    for ln in lines[1:]:
        if ln.startswith("moment "):
            toks = ln.split()
            w = toks[1]
            moments.append(w)
            parent[w] = None
            rest = toks[2:]
            while rest:
                if len(rest) == 1:
                    raise ValueError(f"moment {w}: {rest[0]!r} needs a "
                                     f"value")
                if rest[0] == "parent":
                    parent[w] = rest[1]
                elif rest[0] == "histories":
                    multiplicity[w] = int_field(rest[1], ln)
                else:
                    raise ValueError(f"bad moment attribute {rest[0]!r}")
                rest = rest[2:]
        elif ln.startswith("choice "):
            (agent, w), body = key_line(ln, "choice A M")
            agent = int_field(agent, ln)
            once(seen, f"choice {agent} {w}", ln)
            choice[(agent, w)] = tuple(
                frozenset(chunk.split())
                for chunk in re.findall(r"\{([^{}]*)\}", body))
        elif ln.startswith("val "):
            (atom,), body = key_line(ln, "val P")
            once(seen, f"val {atom}", ln)
            pairs = set()
            for tok in body.split():
                w, _, h = tok.partition("/")
                pairs.add((w, h))
            valuation[atom] = pairs
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    m = BtacModel(tuple(moments), parent, choice, valuation, multiplicity)
    known_h = set(m.histories)
    for (a, w), cells in choice.items():
        if w not in set(moments):
            raise ValueError(f"choice at unknown moment {w!r}")
        for c in cells:
            if c - known_h:
                raise ValueError(f"unknown histories {sorted(c - known_h)}")
    for p, pairs in valuation.items():
        for w, h in pairs:
            if w not in set(moments) or h not in known_h:
                raise ValueError(f"val {p}: unknown index {w}/{h}")
    return m


def format_model(m):
    lines = ["btac"]
    for w in m.moments:
        parts = [f"moment {w}"]
        if m.parent.get(w) is not None:
            parts.append(f"parent {m.parent[w]}")
        if m.multiplicity.get(w, 1) != 1:
            parts.append(f"histories {m.multiplicity[w]}")
        lines.append(" ".join(parts))
    for (a, w) in sorted(m.choice, key=lambda k: (m.moments.index(k[1]), k[0])):
        cells = sorted(m.choice[(a, w)], key=lambda c: sorted(c))
        body = " ".join("{" + " ".join(sorted(c)) + "}" for c in cells)
        lines.append(f"choice {a} {w}: {body}")
    for p in sorted(m.valuation):
        body = " ".join(f"{w}/{h}" for w, h in sorted(m.valuation[p]))
        lines.append(f"val {p}: {body}")
    return "\n".join(lines) + "\n"
