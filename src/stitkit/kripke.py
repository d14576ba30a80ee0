"""Kripke models with per-agent equivalence relations and the general
permutation property (GPP).  A MomentModel is a KripkeModel with one
settledness class, the kind the solver builds its witnesses from.

Settledness is derived, not stored.  With at least two stored agents the
settledness classes are the connected components of the union of the
agent relations, which under GPP coincide with travel along R_1 after
R_0.  With at most one stored agent the settledness relation is taken to
be universal over the whole world set; this single-agent convention is
documented in the README.  Agents within the declared universe that carry
no stored relation are *padded*: they act universally inside each
settledness class.

GPP asks, for all w R_l u R_m v and every agent n, that R_n(w) meets
R_i(v) for all i != n.  It holds exactly when every settledness class is
rectangular: every choice of one cell per agent inside the class meets.
Rectangular classes give GPP at once, since w and v above share a class.
For the converse, assume GPP:

(a) A path along agent relations shortens to two steps.  Given
    w R_l u R_m v R_k x, GPP at n != k gives y with w R_n y and y R_k v,
    so y R_k x by the transitivity of R_k, and w R_n y R_k x.  GPP at
    n = 1 also turns each two-step path into one along R_1 then R_0.
    So a settledness class is the set of worlds two steps from any of
    its members.
(b) By induction on the number of agents, cells c_0, ..., c_k of
    agents 0, ..., k, chosen inside one class, meet.  One cell is
    nonempty.  For more, take w in c_0 and, by induction, v in every c_i
    with i >= 1.  By (a), w and v are two steps apart, so GPP at n = 0
    gives a world of R_0(w) = c_0 and of every R_i(v) = c_i.

components is the one union-find for settledness classes, used by
box_classes and the solver's frames.  unmet_per_class tests each class
for the check that builds every KripkeModel and for those frames, so a
model without GPP is never built; BT+AC independence runs
unmet_choices at each moment.  A padded agent drops out: its cell is the
whole class.  check_partition checks relations and BT+AC choices alike.

Model files are line-oriented: a header ``kripke agents=N`` or
``moment agents=N``, a ``worlds:`` line, one ``rel A:`` (``part A:`` in
a moment file) line of ``{...}`` cells per stored agent, and ``val P:``
lines listing the worlds where an atom holds.  Lines starting with ``#``
are comments.  A key line appears at most once.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from . import syntax
from .syntax import And, Atom, Box, Cstit, Dstit, Not


@dataclass
class KripkeModel:
    """Worlds with one equivalence relation per stored agent.

    ``relations`` maps an agent index to a partition, given as a tuple of
    frozensets of worlds.  ``agent_universe`` is the size of the agent
    set; it must exceed every stored agent index, and defaults to one
    past the largest stored agent (at least 1).

    Building one raises ValueError unless there is a world, no world is
    listed twice, each relation partitions the worlds and no settledness
    class has an unmet choice of one cell per stored agent (GPP;
    rectangularity on a MomentModel).  The first unmet choice in
    unmet_per_class order is reported.
    """

    worlds: tuple
    relations: dict
    valuation: dict
    agent_universe: int = None

    def __post_init__(self):
        self.worlds = tuple(self.worlds)
        if not self.worlds:
            raise ValueError("a model needs at least one world")
        self.relations = {a: tuple(frozenset(c) for c in cells)
                          for a, cells in self.relations.items()}
        self.valuation = {p: frozenset(ws)
                          for p, ws in self.valuation.items()}
        if self.agent_universe is None:
            self.agent_universe = max(self.relations, default=0) + 1
        if self.agent_universe < 1:
            raise ValueError("agent_universe must be at least 1")
        for a in self.relations:
            if not 0 <= a < self.agent_universe:
                raise ValueError(f"agent {a} outside universe "
                                 f"{self.agent_universe}")
        known = set(self.worlds)
        if len(known) < len(self.worlds):
            twice = next(w for i, w in enumerate(self.worlds)
                         if w in self.worlds[:i])
            raise ValueError(f"world {twice!r} listed twice")
        for p, ws in self.valuation.items():
            bad = ws - known
            if bad:
                raise ValueError(f"valuation of {p} uses unknown worlds "
                                 f"{sorted(bad)}")
        agents = sorted(self.relations)
        bad = [v for a in agents for v in check_partition(
            known, self.relations[a], f"agent {a}", "worlds")]
        if bad:
            raise ValueError("; ".join(bad))
        if len(agents) < 2:  # no choice of cells can be unmet
            return
        unmet = next(unmet_per_class([self.relations[a] for a in agents],
                                     box_classes(self)), None)
        if unmet is not None:
            label = ("partitions not rectangular"
                     if isinstance(self, MomentModel)
                     else "permutation property fails")
            text = " ".join("{" + " ".join(sorted(c)) + "}" for c in unmet)
            raise ValueError(f"{label}: {text} do not meet")

    def cell(self, agent, w):
        """Equivalence class of w under the stored agent's relation."""
        for c in self.relations[agent]:
            if w in c:
                return c
        raise KeyError(w)


class MomentModel(KripkeModel):
    """A KripkeModel with a single settledness class.

    Its partitions meet rectangularly: every choice of one cell per
    stored agent intersects.  Model files write it with the ``moment``
    header and ``part`` lines.
    """


def check_partition(whole, cells, label, noun):
    """Violations of ``cells`` being a partition of ``whole``, with the
    members called ``noun`` in the messages."""
    whole = set(whole)
    # nonempty cells whose sizes sum to the size of their union, which
    # is whole, are disjoint and cover it: accept without the walk
    if (all(cells) and sum(map(len, cells)) == len(whole)
            and whole == set().union(*cells)):
        return []
    out = []
    seen = set()
    for c in cells:
        if not c:
            out.append(f"{label}: empty cell")
        overlap = seen & c
        if overlap:
            out.append(f"{label}: {noun} {sorted(overlap)} in two cells")
        stray = c - whole
        if stray:
            out.append(f"{label}: {noun} {sorted(stray)} outside the "
                       f"partitioned set")
        seen |= c
    missing = whole - seen
    if missing:
        out.append(f"{label}: {noun} {sorted(missing)} in no cell")
    return out


def components(items, cells):
    """Classes of ``items`` joined by sharing a cell, as sets in the
    order of their first items.  ``cells`` is an iterable of iterables
    of items."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in cells:
        for x, y in itertools.pairwise(c):
            parent[find(y)] = find(x)
    groups = {}
    for x in items:
        groups.setdefault(find(x), set()).add(x)
    return list(groups.values())


def box_classes(m):
    """Settledness classes of a model, as a list of frozensets.

    Components of the union of the stored relations when two or more
    agents are stored; the whole world set for a MomentModel or when at
    most one agent is stored.
    """
    if isinstance(m, MomentModel) or len(m.relations) < 2:
        return [frozenset(m.worlds)]
    return [frozenset(g) for g in components(
        m.worlds, itertools.chain.from_iterable(m.relations.values()))]


def _class_lookup(m):
    """Map a world to its settledness class, running box_classes on the
    first call only: most evaluations never ask for a class."""
    classes = {}

    def class_of(w):
        if not classes:
            classes.update((u, c) for c in box_classes(m) for u in c)
        return classes[w]

    return class_of


def _agent_cell(m, agent, w, class_of):
    """Class of w for any agent in the universe; padded agents act
    universally inside the settledness class given by ``class_of``."""
    if agent in m.relations:
        return m.cell(agent, w)
    if not 0 <= agent < m.agent_universe:
        raise ValueError(f"agent {agent} outside universe "
                         f"{m.agent_universe}")
    return class_of(w)


def unmet_choices(parts, whole):
    """Choices of one cell per partition that meet nowhere in ``whole``.

    Yields each such choice as a tuple, in itertools.product order.
    Cells and ``whole`` are bitmasks or frozensets alike.
    """
    for choice in itertools.product(*parts):
        inter = whole
        for c in choice:
            inter &= c
        if not inter:
            yield choice


def unmet_per_class(parts, classes):
    """unmet_choices inside each class in turn, where each partition
    offers the cells that meet the class."""
    for cls in classes:
        yield from unmet_choices([[c for c in cells if c & cls]
                                  for cells in parts], cls)


def mc(m, w, f):
    """Model checking at a world; dstit goes through interdefinability."""
    if w not in m.worlds:
        raise ValueError(f"unknown world {w!r}")
    class_of = _class_lookup(m)
    memo = {}

    def ev(g, u):
        key = (g, u)
        if key not in memo:
            memo[key] = _ev(g, u)
        return memo[key]

    def _ev(g, u):
        if isinstance(g, Atom):
            return u in m.valuation.get(g.name, ())
        if isinstance(g, Not):
            return not ev(g.sub, u)
        if isinstance(g, And):
            return ev(g.left, u) and ev(g.right, u)
        if isinstance(g, Cstit):
            return all(ev(g.sub, v)
                       for v in _agent_cell(m, g.agent, u, class_of))
        if isinstance(g, Box):
            return all(ev(g.sub, v) for v in class_of(u))
        if isinstance(g, Dstit):
            return (all(ev(g.sub, v)
                        for v in _agent_cell(m, g.agent, u, class_of))
                    and not all(ev(g.sub, v) for v in class_of(u)))
        raise TypeError(f"not a formula: {g!r}")

    return ev(f, w)


def filtrate(m, f):
    """Filtration through the subformulas of f, with its world map.

    Requires a generated model (single settledness class).  Returns the
    quotient, whose worlds are named q0, q1, ... in order of first
    appearance, and the map from each original world to the quotient
    world it collapsed into.
    """
    if len(box_classes(m)) != 1:
        raise ValueError("filtrate requires a generated model")
    # Work over the dstit-expanded formula so the relations see the
    # [i]- and []-components hidden inside {i}-subformulas.  A {i} node
    # costs 5 in the length measure but expands to at most 4 distinct
    # subformulas, so card(sf) <= length(f) survives the expansion.
    sf = syntax.subformulas(syntax.expand_dstit(f))
    truth = {w: tuple(mc(m, w, g) for g in sf) for w in m.worlds}
    class_names = {}
    world_map = {}
    for w in m.worlds:
        sig = truth[w]
        if sig not in class_names:
            class_names[sig] = f"q{len(class_names)}"
        world_map[w] = class_names[sig]
    new_worlds = tuple(class_names.values())
    if len(new_worlds) > 2 ** syntax.length(f):
        raise AssertionError("filtration exceeded the 2^length bound")

    # R'_i: classes related iff they agree on every [i]-subformula
    sf_idx = {g: k for k, g in enumerate(sf)}
    relations = {}
    for a in sorted(m.relations):
        box_positions = [sf_idx[g] for g in sf
                         if isinstance(g, Cstit) and g.agent == a]
        groups = {}
        for sig, name in class_names.items():
            key = tuple(sig[k] for k in box_positions)
            groups.setdefault(key, set()).add(name)
        relations[a] = tuple(frozenset(g) for g in groups.values())

    valuation = {}
    for sig, name in class_names.items():
        for g in sf:
            if isinstance(g, Atom) and sig[sf_idx[g]]:
                valuation.setdefault(g.name, set()).add(name)
    out = KripkeModel(new_worlds, relations,
                      {p: frozenset(ws) for p, ws in valuation.items()},
                      m.agent_universe)
    return out, world_map


# -- text format ---------------------------------------------------------

def key_line(ln, form):
    """Words after the keyword, and the text after the colon, of a line
    shaped like ``form: ...`` (``form`` such as ``"choice A M"``)."""
    head, colon, body = ln.partition(":")
    words = head.split()
    if not colon or len(words) != len(form.split()):
        raise ValueError(f"bad line {ln!r}: expected '{form}: ...'")
    return words[1:], body


def int_field(text, ln):
    """An integer field of a model-file line: ASCII digits after one
    optional minus sign (int() also takes a plus sign, underscores and
    other scripts' digits)."""
    digits = text.removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"bad line {ln!r}: {text!r} is not an integer")
    return int(text)


def once(seen, key, ln):
    """Record a key line, rejecting a second line with the same key:
    the later line would silently replace the earlier one."""
    if key in seen:
        raise ValueError(f"bad line {ln!r}: second '{key}' line")
    seen.add(key)


def model_lines(text):
    """The lines of a model file that carry content, stripped, skipping
    blank lines and ``#`` comments."""
    for ln in text.splitlines():
        ln = ln.strip()
        if ln and not ln.startswith("#"):
            yield ln


def cells_field(body, ln):
    """The ``{...}`` cells of a model-file line, as frozensets.  Text
    outside the cells and nested braces are refused."""
    if not re.fullmatch(r"(\s*\{[^{}]*\})*\s*", body):
        raise ValueError(f"bad line {ln!r}: expected {{...}} cells only")
    return tuple(frozenset(chunk.split())
                 for chunk in re.findall(r"\{([^{}]*)\}", body))


def parse_model(text):
    """Parse the line-oriented kripke/moment model format."""
    lines = model_lines(text)
    header = next(lines, None)
    if header is None:
        raise ValueError("empty model text")
    head = header.split()
    if head[0] not in ("kripke", "moment") or len(head) != 2 \
            or not head[1].startswith("agents="):
        raise ValueError(f"bad header {header!r}")
    universe = int_field(head[1].removeprefix("agents="), header)
    kind = head[0]
    relkey = "rel" if kind == "kripke" else "part"
    worlds = None
    relations = {}
    valuation = {}
    seen = set()
    for ln in lines:
        if ln.startswith("worlds:"):
            once(seen, "worlds", ln)
            worlds = tuple(ln.removeprefix("worlds:").split())
            if not worlds:
                raise ValueError(f"bad line {ln!r}: no worlds")
            if len(set(worlds)) < len(worlds):
                twice = next(w for i, w in enumerate(worlds)
                             if w in worlds[:i])
                raise ValueError(f"bad line {ln!r}: world {twice!r} "
                                 f"listed twice")
        elif ln.startswith(relkey + " "):
            (agent,), body = key_line(ln, relkey + " A")
            agent = int_field(agent, ln)
            once(seen, f"{relkey} {agent}", ln)
            relations[agent] = cells_field(body, ln)
        elif ln.startswith("val "):
            (atom,), body = key_line(ln, "val P")
            once(seen, f"val {atom}", ln)
            valuation[atom] = frozenset(body.split())
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    if worlds is None:
        raise ValueError("missing worlds: line")
    cls = KripkeModel if kind == "kripke" else MomentModel
    return cls(worlds, relations, valuation, universe)


def format_model(m):
    kind, relkey = (("moment", "part") if isinstance(m, MomentModel)
                    else ("kripke", "rel"))
    lines = [f"{kind} agents={m.agent_universe}",
             "worlds: " + " ".join(m.worlds)]
    for a in sorted(m.relations):
        cells = sorted(m.relations[a], key=lambda c: sorted(c))
        body = " ".join("{" + " ".join(sorted(c)) + "}" for c in cells)
        lines.append(f"{relkey} {a}: {body}")
    for p in sorted(m.valuation):
        lines.append(f"val {p}: " + " ".join(sorted(m.valuation[p])))
    return "\n".join(lines) + "\n"
