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

check_gpp, the solver's frame enumeration and the BT+AC independence
condition all test this one condition through unmet_choices.  A padded
agent drops out of it: its cell is the whole class.

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
    """

    worlds: tuple
    relations: dict
    valuation: dict
    agent_universe: int = None

    def __post_init__(self):
        self.worlds = tuple(self.worlds)
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
        for p, ws in self.valuation.items():
            bad = ws - set(self.worlds)
            if bad:
                raise ValueError(f"valuation of {p} uses unknown worlds "
                                 f"{sorted(bad)}")

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


def _check_partition(worlds, cells, label):
    """Violations of ``cells`` being a partition of ``worlds``."""
    out = []
    seen = set()
    for c in cells:
        if not c:
            out.append(f"{label}: empty cell")
        overlap = seen & c
        if overlap:
            out.append(f"{label}: worlds {sorted(overlap)} in two cells")
        stray = c - set(worlds)
        if stray:
            out.append(f"{label}: unknown worlds {sorted(stray)}")
        seen |= c
    missing = set(worlds) - seen
    if missing:
        out.append(f"{label}: worlds {sorted(missing)} in no cell")
    return out


def check_equivalence(m):
    """Violations of each stored relation being an equivalence relation.

    Relations are stored as partitions, so this amounts to checking the
    partition shape.
    """
    out = []
    for a in sorted(m.relations):
        out.extend(_check_partition(m.worlds, m.relations[a], f"agent {a}"))
    return out


def box_classes(m):
    """Settledness classes of a model, as a list of frozensets.

    Components of the union of the stored relations when two or more
    agents are stored; the whole world set for a MomentModel or when at
    most one agent is stored.
    """
    if isinstance(m, MomentModel) or len(m.relations) < 2:
        return [frozenset(m.worlds)]
    parent = {w: w for w in m.worlds}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for cells in m.relations.values():
        for c in cells:
            ws = sorted(c)
            for other in ws[1:]:
                parent[find(other)] = find(ws[0])
    groups = {}
    for w in m.worlds:
        groups.setdefault(find(w), set()).add(w)
    return [frozenset(g) for g in groups.values()]


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


def check_gpp(m):
    """General permutation property violations, as tuples of cells.

    Each tuple holds one cell per stored agent, in agent order, all in
    one settledness class and with no world in common; classes come in
    box_classes order.  Padded agents have the whole class as their
    cell, so they cannot make a choice unmet.  On a MomentModel the one
    class is the world set, so this checks rectangularity.  Relations
    must already be equivalence relations.
    """
    eq = check_equivalence(m)
    if eq:
        raise ValueError("not equivalence relations: " + "; ".join(eq))
    parts = [m.relations[a] for a in sorted(m.relations)]
    return [choice for cls in box_classes(m)
            for choice in unmet_choices(
                [[c for c in cells if c <= cls] for cells in parts], cls)]


def mc(m, w, f):
    """Model checking at a world; dstit goes through interdefinability."""
    if w not in m.worlds:
        raise KeyError(f"unknown world {w!r}")
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
    """Filtration through the subformulas of f.

    Requires a generated model (single settledness class) satisfying the
    permutation property.  Worlds of the result are named q0, q1, ... in
    order of first appearance; use filtrate_with_map to recover which
    original worlds collapsed where.
    """
    return filtrate_with_map(m, f)[0]


def filtrate_with_map(m, f):
    if len(box_classes(m)) != 1:
        raise ValueError("filtrate requires a generated model")
    if check_gpp(m):
        raise ValueError("filtrate requires the permutation property")
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


def validate_model(m):
    """Violations of the model's class, as human-readable strings.

    Both classes need partitions.  A MomentModel needs them to meet
    rectangularly and a KripkeModel needs the permutation property,
    which check_gpp tests as the same condition per settledness class;
    the first unmet choice of cells is reported.
    """
    out = check_equivalence(m)
    if out:
        return out
    label = ("partitions not rectangular" if isinstance(m, MomentModel)
             else "permutation property fails")
    for cells in check_gpp(m)[:1]:
        text = " ".join("{" + " ".join(sorted(c)) + "}" for c in cells)
        out.append(f"{label}: {text} do not meet")
    return out


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
    """An integer field of a model-file line."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad line {ln!r}: {text!r} is not an "
                         f"integer") from None


def once(seen, key, ln):
    """Record a key line, rejecting a second line with the same key:
    the later line would silently replace the earlier one."""
    if key in seen:
        raise ValueError(f"bad line {ln!r}: second '{key}' line")
    seen.add(key)


def parse_model(text):
    """Parse the line-oriented kripke/moment model format."""
    lines = [ln.strip() for ln in text.strip().splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty model text")
    head = lines[0].split()
    if head[0] not in ("kripke", "moment") or len(head) != 2 \
            or not head[1].startswith("agents="):
        raise ValueError(f"bad header {lines[0]!r}")
    universe = int_field(head[1].removeprefix("agents="), lines[0])
    kind = head[0]
    relkey = "rel" if kind == "kripke" else "part"
    worlds = None
    relations = {}
    valuation = {}
    seen = set()
    for ln in lines[1:]:
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
            relations[agent] = tuple(
                frozenset(chunk.split())
                for chunk in re.findall(r"\{([^{}]*)\}", body))
        elif ln.startswith("val "):
            (atom,), body = key_line(ln, "val P")
            once(seen, f"val {atom}", ln)
            valuation[atom] = frozenset(body.split())
        else:
            raise ValueError(f"unrecognized line {ln!r}")
    if worlds is None:
        raise ValueError("missing worlds: line")
    known = set(worlds)
    for a, cells in relations.items():
        for c in cells:
            if c - known:
                raise ValueError(f"{relkey} {a} uses unknown worlds "
                                 f"{sorted(c - known)}")
    if kind == "kripke":
        m = KripkeModel(worlds, relations, valuation, universe)
        eq = check_equivalence(m)
        if eq:
            raise ValueError("; ".join(eq))
        return m
    return MomentModel(worlds, relations, valuation, universe)


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
