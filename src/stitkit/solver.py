"""Satisfiability and validity over Kripke models with the permutation
property.

Satisfaction in such models reduces to satisfaction in a single
settledness class (truth only depends on the generated submodel), so the
search space is MomentModels: a world set with one choice partition per
occurring agent whose cells intersect rectangularly.

The search engine is type-based and complete without size restrictions.
A *type* is a truth assignment to the subformulas of the (dstit-expanded)
input that respects the boolean connectives and the T axiom for every
modal operator.  Worlds of any satisfying model induce types, and a
satisfying model can be rebuilt from the right collection of types; the
engine enumerates candidate collections grouped by settledness profile
and checks the closure conditions directly.  Every SAT answer carries a
witness that is re-checked by the independent model checker before being
returned, and every witness stays within the 2**length(f) world bound.

Both inner loops are bit-parallel on Python integers.  _types compiles
the subformulas into a boolean program over the leaves and runs it
through kernel.columns, so a connective or a T constraint is one big-int
operation per chunk of leaf assignments.  _search_group holds sets of
candidate types as bitsets, so a combination of profile subsets costs a
few ANDs and ORs.  The scalar loops they replaced are kept in the tests
as references.

The oracle, the product check and the schema sweeps of axioms are
unrelated brute forces, all run by first_hit: one kernel scan of every
valuation per list of frames, up to the first hit.  The oracle's lists
are the frames with the permutation property of each world count.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from . import kernel, syntax
from .kripke import (KripkeModel, MomentModel, components, mc,
                     unmet_choices, unmet_per_class)
from .syntax import And, Atom, Box, Cstit, Not

ORACLE_MAX_WORLDS = 5
ENGINE_MAX_LEAVES = 22
ENGINE_MAX_COMBOS = 1 << 22
_ONE = "1".__eq__  # a binary digit as a bool


class InconclusiveError(Exception):
    """Search gave up before exhausting the space it promised to cover."""

    def __init__(self, reason, stats=None):
        super().__init__(reason)
        self.stats = stats or {}


@dataclass
class SolverConfig:
    agent_universe: int = 2

    def __post_init__(self):
        if self.agent_universe < 1:
            raise ValueError("agent_universe must be at least 1")


@dataclass
class SatResult:
    verdict: str  # "SAT" or "UNSAT"
    witness: tuple = None  # (model, world) when SAT
    stats: dict = field(default_factory=dict)


def _check_agents(f, cfg):
    bad = [a for a in syntax.agents(f) if a >= cfg.agent_universe]
    if bad:
        raise ValueError(f"agents {sorted(bad)} outside universe "
                         f"{cfg.agent_universe}")


# -- type-based search engine ---------------------------------------------

def _types(g):
    """All locally coherent truth assignments over the subformulas of g.

    Returns (sf, idx, types): the subformulas in post-order, their
    positions, and one tuple of truth values per coherent assignment.
    Coherence means boolean clauses hold exactly and every true modal
    formula has a true body (the T constraint).

    The leaves (atoms, [i]- and []-subformulas) take every assignment
    once.  kernel.columns evaluates the subformulas as bit columns over
    one chunk of assignments at a time, so a T constraint costs one
    big-int operation per chunk.  The types come out in ascending
    assignment order.
    """
    sf = syntax.subformulas(g)
    idx = {s: i for i, s in enumerate(sf)}
    ops, args, modal, n_leaves = [], [], [], 0
    for i, s in enumerate(sf):
        if isinstance(s, Not):
            op, arg = kernel.OP_NOT, (idx[s.sub], 0)
        elif isinstance(s, And):
            op, arg = kernel.OP_AND, (idx[s.left], idx[s.right])
        else:
            op, arg = kernel.OP_ATOM, (n_leaves, 0)
            n_leaves += 1
            if not isinstance(s, Atom):
                modal.append((i, idx[s.sub]))
        ops.append(op)
        args.append(arg)
    if n_leaves > ENGINE_MAX_LEAVES:
        raise InconclusiveError(
            f"{n_leaves} independent subformulas exceed the engine cap",
            {"cap": "leaves", "leaves": n_leaves})
    out = []
    for full, col in kernel.columns(ops, args, n_leaves):
        ok = full
        for i, body in modal:
            ok &= ~col[i] | col[body]
        if not ok:
            continue
        top = full + 1
        # binary digits, lowest first: bit b of a column at index b
        pos = [b for b, ch in enumerate(bin(ok)[:1:-1]) if ch == "1"]
        digits = [bin(v | top)[:2:-1] for v in col]
        out.extend(zip(*(map(_ONE, map(d.__getitem__, pos))
                         for d in digits)))
    return sf, idx, out


def _subsets_desc(items):
    """Nonempty subsets, largest first."""
    items = list(items)
    for k in range(len(items), 0, -1):
        yield from itertools.combinations(items, k)


def sat(f, cfg=None):
    """Decide satisfiability over the configured agent universe."""
    cfg = cfg or SolverConfig()
    _check_agents(f, cfg)
    g = syntax.expand_dstit(f)
    sf, idx, types = _types(g)
    root = idx[g]
    box_nodes = [i for i, s in enumerate(sf) if isinstance(s, Box)]
    agents = sorted({s.agent for s in sf if isinstance(s, Cstit)})
    cstit_nodes = {a: [i for i, s in enumerate(sf)
                       if isinstance(s, Cstit) and s.agent == a]
                   for a in agents}
    sub_of = {i: idx[sf[i].sub] for i, s in enumerate(sf)
              if isinstance(sf[i], (Cstit, Box))}

    bound = 2 ** syntax.length(f)
    stats = {"engine": "types", "types": len(types), "groups": 0,
             "combos": 0, "bound": bound}

    def boxprof(t):
        return tuple(t[i] for i in box_nodes)

    def iprof(t, a):
        return tuple(t[i] for i in cstit_nodes[a])

    groups = {}
    for t in types:
        groups.setdefault(boxprof(t), []).append(t)

    for bp, group in sorted(groups.items(), reverse=True):
        stats["groups"] += 1
        # settledness positives: every member must verify the body
        cand = [t for t in group
                if all(t[sub_of[i]] for i, v in zip(box_nodes, bp) if v)]
        if not any(t[root] for t in cand):
            continue
        box_negs = [sub_of[i] for i, v in zip(box_nodes, bp) if not v]
        profiles = {a: sorted({iprof(t, a) for t in cand}) for a in agents}
        subset_space = 1
        for a in agents:
            subset_space *= 2 ** len(profiles[a])
        if subset_space > ENGINE_MAX_COMBOS:
            stats["cap"] = "combos"
            raise InconclusiveError(
                "profile subset space exceeds the engine cap", stats)
        hit = _search_group(cand, agents, profiles, iprof, cstit_nodes,
                            sub_of, box_negs, root, stats)
        if hit is not None:
            u_set, t_sat = hit
            model, world = _build_witness(u_set, t_sat, sf, agents, iprof,
                                          cfg)
            if mc(model, world, f) is not True:
                raise AssertionError("witness failed re-check")
            if len(model.worlds) > bound:
                raise AssertionError("witness exceeds the 2^length bound")
            stats["witness_worlds"] = len(model.worlds)
            return SatResult("SAT", (model, world), stats)
    return SatResult("UNSAT", None, stats)


def _search_group(cand, agents, profiles, iprof, cstit_nodes, sub_of,
                  box_negs, root, stats):
    """First combination of profile subsets, one per agent, whose types
    close into a model; returns (u_set, t_sat) or None.

    Sets of types are bitsets over the positions of cand.  For each agent
    and profile one mask holds the candidates with that profile, and the
    mask of the candidates where a subformula holds is built the first
    time a check reads it.  Combinations come in the order of
    itertools.product over _subsets_desc, one count each.
    """
    everyone = (1 << len(cand)) - 1
    holds = {}

    def col(n):
        m = holds.get(n)
        if m is None:
            m = holds[n] = sum(1 << j for j, t in enumerate(cand) if t[n])
        return m

    # per agent: (subset, its profile masks, their union), largest first
    choices = []
    for a in agents:
        masks = dict.fromkeys(profiles[a], 0)
        for j, t in enumerate(cand):
            masks[iprof(t, a)] |= 1 << j
        opts = []
        for rs in _subsets_desc(profiles[a]):
            ms = [masks[r] for r in rs]
            union = 0
            for m in ms:
                union |= m
            opts.append((rs, ms, union))
        choices.append(opts)
    bodies = [[sub_of[pos] for pos in cstit_nodes[a]] for a in agents]
    root_mask = col(root)
    for combo in itertools.product(*choices):
        stats["combos"] += 1
        u = everyone
        for _, _, union in combo:
            u &= union
        hit = u & root_mask
        # f holds somewhere, every false [] and every false [a] in a
        # chosen cell is refuted, and every choice of one profile per
        # agent is realized; the last test walks a product, so it runs
        # on the fewest combinations
        if (hit and all(u & ~col(n) for n in box_negs)
                and all(u & m & ~col(sub)
                        for (rs, ms, _), subs in zip(combo, bodies)
                        for r, m in zip(rs, ms)
                        for v, sub in zip(r, subs) if not v)
                and next(unmet_choices([ms for _, ms, _ in combo], ~0),
                         None) is None):
            u_set = [t for j, t in enumerate(cand) if u >> j & 1]
            return u_set, cand[(hit & -hit).bit_length() - 1]
    return None


def _build_witness(u_set, t_sat, sf, agents, iprof, cfg):
    names = [f"w{k}" for k in range(len(u_set))]
    world_of = dict(zip(map(tuple, u_set), names))
    partitions = {}
    for a in agents:
        cells = {}
        for t, w in zip(u_set, names):
            cells.setdefault(iprof(t, a), set()).add(w)
        partitions[a] = tuple(frozenset(c) for c in cells.values())
    valuation = {}
    for i, s in enumerate(sf):
        if isinstance(s, Atom):
            valuation[s.name] = frozenset(
                w for t, w in zip(u_set, names) if t[i])
    model = MomentModel(tuple(names), partitions, valuation,
                        cfg.agent_universe)
    return model, world_of[tuple(t_sat)]


def valid(f, cfg=None):
    """True iff the negation is unsatisfiable."""
    cfg = cfg or SolverConfig()
    return sat(Not(f), cfg).verdict == "UNSAT"


def sat_single_agent(f, cfg=None):
    """Single-agent decision with a quadratic witness bound.

    The engine result is pruned down to the witnesses the closure
    conditions actually need: one world making f true, one refuting world
    per false settledness formula, and per surviving choice cell one
    refuting world for each false agentive formula.  That keeps the
    witness within length(f)**2 worlds.
    """
    cfg = cfg or SolverConfig(agent_universe=1)
    if cfg.agent_universe != 1:
        raise ValueError("sat_single_agent requires agent_universe=1")
    if len(syntax.agents(f)) > 1:
        raise ValueError("formula uses more than one agent")
    res = sat(f, cfg)
    if res.verdict != "SAT":
        return res
    model, world = res.witness
    model, world = _prune_single_agent(model, world, f)
    if mc(model, world, f) is not True:
        raise AssertionError("pruned witness failed re-check")
    bound = syntax.length(f) ** 2
    res.stats["witness_worlds"] = len(model.worlds)
    res.stats["quadratic_bound"] = bound
    res.stats["quadratic_ok"] = len(model.worlds) <= bound
    return SatResult("SAT", (model, world), res.stats)


def _prune_single_agent(model, world, f):
    g = syntax.expand_dstit(f)
    sf = syntax.subformulas(g)
    agents = sorted(syntax.agents(g))
    keep = {world}
    # refute every settledness formula that is false somewhere
    for s in sf:
        if isinstance(s, Box) and not mc(model, world, s):
            keep.add(next(w for w in model.worlds
                          if not mc(model, w, s.sub)))
    # within each touched cell, refute every false agentive formula
    for a in agents:
        for w in list(keep):
            cell = model.cell(a, w)
            for s in sf:
                if isinstance(s, Cstit) and s.agent == a \
                        and not mc(model, w, s):
                    keep.add(next(u for u in sorted(cell)
                                  if not mc(model, u, s.sub)))
    order = [w for w in model.worlds if w in keep]
    partitions = {a: tuple(c & keep for c in cells if c & keep)
                  for a, cells in model.relations.items()}
    valuation = {p: ws & keep for p, ws in model.valuation.items()}
    return MomentModel(tuple(order), partitions, valuation,
                       model.agent_universe), world


# -- frame enumeration for the oracle --------------------------------------

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


@lru_cache(maxsize=None)
def _mask_partitions(n):
    out = []
    for cells in set_partitions(range(n)):
        out.append(tuple(sum(1 << i for i in c) for c in cells))
    return tuple(out)


def _canonical(parts, n):
    best = None
    for perm in itertools.permutations(range(n)):
        remapped = tuple(
            tuple(sorted(sum(1 << perm[i] for i in range(n) if (c >> i) & 1)
                         for c in cells))
            for cells in parts)
        if best is None or remapped < best:
            best = remapped
    return best


@lru_cache(maxsize=None)
def _frames(n, n_agents):
    """Partition tuples with the permutation property, deduplicated up
    to world renaming: (one-class frames, every frame), the one-class
    frames first in both and each part in itertools.product order.

    A tuple has the property exactly when no settledness class has an
    unmet choice of cells (see the kripke module).  The classes are the
    components of the partitions, or the whole world set below two
    agents, where settledness is universal by convention."""
    full = (1 << n) - 1
    # _mask_partitions(n) holds set_partitions(range(n)) as bitmasks
    bits = dict(zip(_mask_partitions(n), set_partitions(range(n))))
    seen = set()
    out = ([], [])
    for parts in itertools.product(*(
            _mask_partitions(n) for _ in range(n_agents))):
        classes = ((full,) if n_agents < 2 else tuple(sorted(
            sum(1 << i for i in g) for g in components(
                range(n), (c for cells in parts for c in bits[cells])))))
        if next(unmet_per_class(parts, classes), None) is not None:
            continue
        key = _canonical(parts, n)
        if key in seen:
            continue
        seen.add(key)
        out[len(classes) > 1].append(kernel.Frame(n, parts + (classes,)))
    return tuple(out[0]), tuple(out[0] + out[1])


def moment_frames(n, n_agents):
    """Single-class frames: rectangular partition tuples, deduplicated up
    to world renaming.  Settledness is the full cell."""
    return _frames(n, n_agents)[0]


def general_frames(n, n_agents):
    """Every frame with the permutation property, deduplicated: the
    moment frames first, then the multi-class ones."""
    return _frames(n, n_agents)[1]


def first_hit(f, frame_lists, agent_order, want_sat):
    """((frame, valuation index, point), frames scanned) for the first
    point in list order where f holds (want_sat) or fails, or (None,
    frames scanned).  f is compiled once, atoms in sorted order and agent
    agent_order[k] on relation k; each list, of frames of one size, is
    one kernel.scan_frames call, and none is read past the first hit."""
    atom_names = sorted(syntax.atoms(f))
    ops, args = kernel.compile_formula(
        f, {p: k for k, p in enumerate(atom_names)},
        {a: k for k, a in enumerate(agent_order)})
    scanned = 0
    for frames in frame_lists:
        hit = kernel.scan_frames(ops, args, frames, len(atom_names), want_sat)
        if hit is not None:
            position, v, point = hit
            return (frames[position], v, point), scanned + position + 1
        scanned += len(frames)
    return None, scanned


def _frame_model(frame, v, atom_names, agents, cfg):
    n = frame.n_points
    names = tuple(f"w{i}" for i in range(n))

    def unmask(mask):
        return frozenset(names[i] for i in range(n) if (mask >> i) & 1)

    rels = {a: tuple(unmask(c) for c in frame.blocks[k])
            for k, a in enumerate(agents)}
    val_masks = kernel.decode_valuation(v, n, atom_names)
    valuation = {p: unmask(m) for p, m in val_masks.items()}
    cls = MomentModel if len(frame.blocks[-1]) == 1 else KripkeModel
    return cls(names, rels, valuation, cfg.agent_universe)


def oracle(f, max_worlds, cfg=None):
    """Independent brute force: every frame up to max_worlds, every
    valuation of the formula's atoms, streamed through the kernel with
    one scan per world count."""
    cfg = cfg or SolverConfig()
    _check_agents(f, cfg)
    if not 1 <= max_worlds <= ORACLE_MAX_WORLDS:
        raise ValueError(f"max_worlds {max_worlds} is outside the oracle "
                         f"range 1..{ORACLE_MAX_WORLDS}")
    agents = sorted(syntax.agents(f))
    atom_names = sorted(syntax.atoms(f))
    if max_worlds * len(atom_names) > kernel.MAX_VALUATION_BITS:
        raise ValueError(
            f"{len(atom_names)} atoms at {max_worlds} worlds exceeds the "
            f"oracle valuation budget of {kernel.MAX_VALUATION_BITS} bits")
    hit, scanned = first_hit(
        f, (general_frames(n, len(agents))
            for n in range(1, max_worlds + 1)), agents, True)
    stats = {"engine": "oracle", "frames": scanned, "max_worlds": max_worlds}
    if hit is None:
        return SatResult("UNSAT", None, stats)
    frame, v, point = hit
    model = _frame_model(frame, v, atom_names, agents, cfg)
    world = model.worlds[point]
    if mc(model, world, f) is not True:
        raise AssertionError("oracle witness failed re-check")
    return SatResult("SAT", (model, world), stats)


def product_sat(f, max_cells, cfg=None):
    """Two-agent cross-check over full product frames.

    Worlds are pairs (row, column); agent 0 chooses the row, agent 1 the
    column.  Returns SAT iff some product frame with at most max_cells
    cells per agent satisfies f under some valuation; raises ValueError
    on reaching a frame too large for the scan kernel.
    """
    cfg = cfg or SolverConfig()
    if not syntax.agents(f) <= {0, 1}:
        raise ValueError("product check needs agents within {0, 1}")
    if max_cells < 1:
        raise ValueError(f"max_cells {max_cells} is below 1")
    hit, _ = first_hit(f, _product_frames(max_cells), (0, 1), True)
    if hit is None:
        return SatResult("UNSAT", None, {"engine": "product"})
    rows, cols = hit[0].blocks[:2]
    return SatResult("SAT", None, {"engine": "product", "rows": len(rows),
                                   "cols": len(cols)})


def _product_frames(max_cells):
    """One-frame lists of the product frames, (rows, cols) row-major."""
    for rows in range(1, max_cells + 1):
        for cols in range(1, max_cells + 1):
            n = rows * cols
            row_cells = tuple(
                sum(1 << (r * cols + c) for c in range(cols))
                for r in range(rows))
            col_cells = tuple(
                sum(1 << (r * cols + c) for r in range(rows))
                for c in range(cols))
            yield (kernel.Frame(n, (row_cells, col_cells,
                                    ((1 << n) - 1,))),)
