"""Finite branching-time models with agents and choices, evaluated at
moment/history indices.

Moments form a rooted tree given by parent links; histories are maximal
branches.  Because a finite tree cannot distinguish two histories that
share every moment, a leaf may carry a history multiplicity: `histories k`
in the text format attaches k distinct histories ending at that leaf.
The default multiplicity is 1, which recovers the plain branch reading.

Histories are auto-named h1, h2, ... in depth-first leaf order.

A BtacModel is checked once, when it is built: the parent links form
one tree, each stored choice partitions the histories through its
moment, the choices of different agents at a moment meet (independence)
and each valuation pair names a history through its moment.  Otherwise
building it raises ValueError, so parse_model returns a model of the
class or refuses the text.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .kripke import (cells_field, check_partition, int_field, key_line,
                     model_lines, once, unmet_choices)
from .syntax import And, Atom, Box, Cstit, Dstit, Not


@dataclass
class BtacModel:
    """Moment tree plus choice partitions and a valuation.

    ``parent`` maps each moment to its parent (None for the root);
    ``multiplicity`` maps a leaf to its history count (absent means 1);
    ``choice`` maps (agent, moment) to a tuple of frozensets of history
    names; unstored pairs default to the vacuous single-cell choice.
    ``valuation`` maps an atom to a set of (moment, history) pairs.

    Building one raises ValueError on the first tree-structure error,
    else on all validate_model violations, joined by "; ".
    """

    moments: tuple
    parent: dict
    choice: dict
    valuation: dict
    multiplicity: dict = field(default_factory=dict)

    def __post_init__(self):
        self.moments = tuple(self.moments)
        children = {w: [] for w in self.moments}
        if len(children) != len(self.moments):
            raise ValueError("duplicate moment ids")
        roots, unknown = [], None
        for w in self.moments:
            p = self.parent.get(w)
            if p is None:
                roots.append(w)
            elif p in children:
                children[p].append(w)
            elif unknown is None:
                unknown = f"unknown parent {p!r} of {w!r}"
        if len(roots) != 1:
            raise ValueError(f"expected one root, found {len(roots)}")
        if unknown:
            raise ValueError(unknown)
        names = []
        leaf_of = {}
        reached = 0
        # depth first with an explicit stack, so a tree of any depth
        # names its histories; children go on reversed to keep leaf order
        stack = [roots[0]]
        while stack:
            w = stack.pop()
            reached += 1
            if children[w]:
                stack.extend(reversed(children[w]))
                continue
            for _ in range(self.multiplicity.get(w, 1)):
                h = f"h{len(names) + 1}"
                names.append(h)
                leaf_of[h] = w
        # every moment has one parent, so a moment the walk from the root
        # misses lies on a cycle or below one
        if reached != len(self.moments):
            raise ValueError("cycle in parent links")
        self.choice = {k: tuple(frozenset(c) for c in cells)
                       for k, cells in self.choice.items()}
        self.valuation = {p: frozenset(map(tuple, ws))
                          for p, ws in self.valuation.items()}
        for w, k in self.multiplicity.items():
            if children.get(w) != []:
                raise ValueError(f"histories at {w}, which is not a leaf")
            if k < 1:
                raise ValueError(f"histories {k} at {w} is below 1")
        self.histories = tuple(names)
        self._leaf_of = leaf_of
        bad = validate_model(self)
        if bad:
            raise ValueError("; ".join(bad))

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


def validate_model(m):
    """The class violations of a model's choices and valuation, as
    human-readable strings; building a BtacModel runs it, so a built
    model that has not been changed since has none.  H_w is built once,
    by one walk per history, so a chain validates in linear time."""
    out = []
    through = {w: set() for w in m.moments}
    for h in m.histories:
        for w in m.moments_of(h):
            through[w].add(h)
    through = {w: frozenset(hs) for w, hs in through.items()}
    histories = set(m.histories)
    for (a, w), cells in sorted(m.choice.items(),
                                key=lambda kv: (kv[0][1], kv[0][0])):
        if w not in through:
            out.append(f"choice {a} at unknown moment {w!r}")
            continue
        out.extend(check_partition(through[w], cells,
                                   f"choice {a} at {w}", "histories"))
    out.extend(_superadditivity(m, through))
    for p, pairs in sorted(m.valuation.items()):
        for w, h in sorted(pairs):
            if w not in through or h not in histories:
                out.append(f"val {p}: unknown index {w}/{h}")
            elif h not in through[w]:
                out.append(f"val {p}: history {h} does not pass "
                           f"through {w}")
    return out


def _superadditivity(m, through):
    out = []
    agents_at = {}
    for a, w in m.choice:
        agents_at.setdefault(w, []).append(a)
    for w in m.moments:
        agents = sorted(agents_at.get(w, ()))
        for combo in unmet_choices([m.choice[a, w] for a in agents],
                                   through[w]):
            cells = ", ".join(
                f"agent {a}: {{{' '.join(sorted(c))}}}"
                for a, c in zip(agents, combo))
            out.append(f"superadditivity fails at {w} ({cells})")
    return out


def eval(m, idx, f):
    """Truth of f at a moment/history index."""
    w, h = idx
    if w not in m.moments or h not in m.histories:
        raise ValueError(f"unknown index {w}/{h}")
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


# -- text format ---------------------------------------------------------

def parse_model(text):
    """Parse the line-oriented BT+AC model format: a ``btac`` line, then
    ``moment M [parent P] [histories K]``, ``choice A M: {...} ...`` and
    ``val P: M/H ...`` lines.  A choice or val line appears at most once
    per key."""
    lines = model_lines(text)
    if next(lines, None) != "btac":
        raise ValueError("btac model text must start with 'btac'")
    moments, parent, multiplicity = [], {}, {}
    choice, valuation = {}, {}
    seen = set()
    for ln in lines:
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
            if agent < 0:
                raise ValueError(f"bad line {ln!r}: agent {agent} is "
                                 f"negative")
            once(seen, f"choice {agent} {w}", ln)
            choice[(agent, w)] = cells_field(body, ln)
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
    return BtacModel(tuple(moments), parent, choice, valuation,
                     multiplicity)
