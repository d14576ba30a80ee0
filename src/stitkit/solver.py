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
and checks the closure conditions directly.  Within a group it first
eliminates agent profiles to a greatest fixpoint (elimination of
Hintikka sets, Pratt 1979), which decides every condition but
rectangularity; only that one branches, over subsets of the kept
profiles.  So a group where one agent occurs takes one test (the
single-agent case is in NP), and ENGINE_MAX_COMBOS bounds the subset
space of two or more agents only.  Every SAT answer carries a
witness that is re-checked by the independent model checker before being
returned, and every witness stays within the 2**length(f) world bound.
Where fewer than two agents occur, at any agent universe, the witness
keeps only the types that the closure conditions need, read from the
elimination's cells, which keeps it within length(f)**2 worlds (the
single-agent small model).

A type is stored as its leaf assignment, one bit per leaf (atoms, [i]-
and []-subformulas), and settledness and agent profiles are masks of
it.  Both inner loops are bit-parallel on Python integers.  _types runs
the subformulas as a boolean program through kernel.columns, so a
connective or a T constraint is one big-int operation per chunk of leaf
assignments, and keeps the columns of the input and of the modal bodies
as byte strings over the types.  _search_group reads those as bitsets
over a group's candidates, so an elimination pass or a combination of
profile subsets costs a few ANDs and ORs per profile.  The scalar loops they
replaced are kept in the tests as references.

The oracle, the product check and the schema sweeps of axioms are
unrelated brute forces, all run by first_hit: one kernel scan of every
valuation per list of frames, up to the first hit.  The oracle's lists
are the frames with the permutation property of each world count.
"""

from __future__ import annotations

import itertools
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import lru_cache

from . import kernel, syntax
from .kripke import (KripkeModel, MomentModel, components, mc,
                     unmet_choices, unmet_per_class)
from .syntax import And, Atom, Box, Cstit, Not

ORACLE_MAX_WORLDS = 5
ENGINE_MAX_LEAVES = 22
ENGINE_MAX_COMBOS = 1 << 22
# the most partition tuples a frame walk visits, one byte of marks each
FRAME_WALK_MAX = 1 << 20
# for _types: digits as the bytes 0 and 1, and chunk offsets made once
_FLAGS = bytes.maketrans(b"01", b"\0\1")
_OFFSETS = tuple(range(1 << kernel._COLUMN_CHUNK_BITS))


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

    A type is its leaf assignment, as every subformula's value follows
    from the leaves: leaf k at bit k, in post-order with the [] leaves
    last, so that the types of one settledness profile are contiguous.
    Coherence is the T constraint: every true modal leaf has a true body.
    Returns (leaves, rows, root): the leaves, each with its body's column
    (None for an atom), the coherent assignments ascending, and g's
    column.  A column is a b'0'/b'1' byte string over rows, compressed
    from kernel.columns' bit columns once per chunk.
    """
    sf = syntax.subformulas(g)
    idx = {s: i for i, s in enumerate(sf)}
    ops, args, plain, boxes, modal = [], [], [], [], {}
    for i, s in enumerate(sf):
        if isinstance(s, Not):
            op, arg = kernel.OP_NOT, (idx[s.sub], 0)
        elif isinstance(s, And):
            op, arg = kernel.OP_AND, (idx[s.left], idx[s.right])
        else:
            op, arg = kernel.OP_ATOM, None
            (boxes if isinstance(s, Box) else plain).append(i)
            if not isinstance(s, Atom):
                modal[i] = idx[s.sub]
        ops.append(op)
        args.append(arg)
    leaves = plain + boxes
    if len(leaves) > ENGINE_MAX_LEAVES:
        raise InconclusiveError(
            f"{len(leaves)} independent subformulas exceed the engine cap",
            {"cap": "leaves", "leaves": len(leaves)})
    for k, i in enumerate(leaves):
        args[i] = (k, 0)
    # kept: the columns of every body and of g; rows in 8 bytes each
    parts = {i: bytearray() for i in [*modal.values(), len(sf) - 1]}
    rows, base = array("q"), 0
    for full, col in kernel.columns(ops, args, len(leaves)):
        ok = full
        for i, body in modal.items():
            ok &= ~col[i] | col[body]
        top = full + 1
        # binary digits, lowest first: bit b of a column at index b
        flags = bin(ok | top)[:2:-1].encode().translate(_FLAGS)
        pos = list(itertools.compress(_OFFSETS, flags))
        rows.extend(map(base.__add__, pos))
        for i, out in parts.items():
            digits = bin(col[i] | top)[:2:-1].encode()
            out.extend(map(digits.__getitem__, pos))
        base += full.bit_length()
    # each column copied out and freed in turn: at most one held twice
    cols = {i: bytes(parts.pop(i)) for i in list(parts)}
    return ([(sf[i], cols[modal[i]] if i in modal else None)
             for i in leaves], rows, cols[len(sf) - 1])


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
    leaves, rows, root = _types(g)
    # (leaf bit, body column) of every [] and of every agent's [i]
    box_pairs, pairs = [], {}
    for k, (s, body) in enumerate(leaves):
        if isinstance(s, Box):
            box_pairs.append((1 << k, body))
        elif isinstance(s, Cstit):
            pairs.setdefault(s.agent, []).append((1 << k, body))
    agents = sorted(pairs)
    box_mask = sum(n for n, _ in box_pairs)
    amask = {a: sum(n for n, _ in pairs[a]) for a in agents}
    top = 1 << len(leaves)

    def order(r):  # bits from leaf 0 on: the group and profile order
        return bin(r | top)[:2:-1]
    size = syntax.length(f)
    bound = 2 ** size
    stats = {"engine": "types", "types": len(rows), "groups": 0,
             "combos": 0, "pruned": 0, "bound": bound}

    # the [] leaves are the top bits, so a group is a run of rows; a
    # column over a group has candidate j at bit j
    groups, lo, shift = {}, 0, len(leaves) - len(box_pairs)
    while lo < len(rows):
        hi = bisect_left(rows, (rows[lo] >> shift) + 1 << shift, lo)
        groups[rows[lo] & box_mask], lo = slice(lo, hi), hi
    for bp in sorted(groups, key=order, reverse=True):
        stats["groups"] += 1
        span = groups[bp]
        root_mask = int(root[span][::-1], 2)
        if not root_mask:
            continue
        cand = rows[span]
        box_negs = [b for n, b in box_pairs if not bp & n]
        profiles = {a: sorted({r & amask[a] for r in cand}, key=order)
                    for a in agents}
        if (len(agents) > 1 and 1 << sum(map(len, profiles.values()))
                > ENGINE_MAX_COMBOS):
            stats["cap"] = "combos"
            raise InconclusiveError(
                "profile subset space exceeds the engine cap", stats)
        hit = _search_group(cand, span, agents, profiles, amask, pairs,
                            box_negs, root_mask, stats)
        if hit is not None:
            model, world = _build_witness(*hit, leaves, agents, amask, cfg)
            if mc(model, world, f) is not True:
                raise AssertionError("witness failed re-check")
            if len(model.worlds) > bound:
                raise AssertionError("witness exceeds the 2^length bound")
            stats["witness_worlds"] = len(model.worlds)
            if len(agents) < 2:
                q = stats["quadratic_bound"] = size ** 2
                stats["quadratic_ok"] = len(model.worlds) <= q
            return SatResult("SAT", (model, world), stats)
    return SatResult("UNSAT", None, stats)


def _search_group(cand, span, agents, profiles, amask, pairs, box_negs,
                  root_mask, stats):
    """The types of a model of f built from this group, and f's world in
    it, as (u_set, t_sat), or None.

    The candidates cand are the rows span of the columns, sets of them are
    bitsets in that order, and root_mask holds those where f holds.
    pairs[a] holds the (leaf bit, body column) of a's [a]-subformulas.

    First the profiles are eliminated to a greatest fixpoint (Pratt
    1979): u holds the candidates whose profiles are all kept, and a kept
    profile is dropped while its cell inside u is empty or has no refuter
    of one of its false [a] leaves.  A combination that closes keeps all
    of these inside its own u, which lies in the fixpoint's, so it uses
    kept profiles only, and the group fails with no combination walked
    when f or a false [] has no witness in the final u.  The walk is
    itertools.product over _subsets_desc of the kept profiles, which keeps
    the order of the full walk; its first combination is the fixpoint
    itself, where only rectangularity is left to test, and the types are
    those of the first combination that passes it.

    Below two agents that test always passes, so such a group takes that
    one combination, and keeps only the types a model needs, each the
    lowest in u of its kind: f's, a refuter of each false [], and, in
    the cell of each of those, a refuter of each false [a].  That keeps
    the model within length(f)**2 worlds, the small model of the
    single-agent case.
    """
    everyone = (1 << len(cand)) - 1
    col = {b: int(b[span][::-1], 2) for b in {*box_negs, *(
        b for a in agents for _, b in pairs[a])}}
    # per agent, its kept profiles in order: each one's cell, then the
    # refuters in the cell of each of its false [a] leaves
    kept = []
    for a in agents:
        masks, m, prs = dict.fromkeys(profiles[a], 0), amask[a], pairs[a]
        for j, r in enumerate(cand):
            masks[r & m] |= 1 << j
        kept.append({r: [c, *(c & ~col[b] for n, b in prs if not r & n)]
                     for r, c in masks.items()})
    u, dropped = everyone, True
    while dropped:
        dropped = False
        for cells in kept:
            for r in [r for r, need in cells.items()
                      if not all(u & x for x in need)]:
                # one agent's cells are disjoint, so u loses just this one
                u &= ~cells.pop(r)[0]
                dropped = True
    stats["pruned"] += sum(map(len, profiles.values())) - sum(map(len, kept))

    def witnessed(u):  # f holds in u and every false [] is refuted there
        return u & root_mask and all(u & ~col[b] for b in box_negs)

    def low(z):  # the lowest candidate in the bitset z, as a bitset
        return z & -z

    def found(u):  # the bits of u read once, lowest first, as _types does
        flags = bin(u)[:1:-1].encode().translate(_FLAGS)
        return (list(itertools.compress(cand, flags)),
                cand[low(u & root_mask).bit_length() - 1])

    if not witnessed(u):
        return None
    if len(agents) < 2:
        # the small model: f's first world, a refuter of each false [],
        # and, in each cell that holds one of those, a refuter of each
        # false [a]; the refuters share their cell's profile, so need no
        # more, and a kept cell lies inside u
        stats["combos"] += 1
        keep = low(u & root_mask)
        for b in box_negs:
            keep |= low(u & ~col[b])
        for cells in kept:
            for c, *refuters in cells.values():
                if c & keep:
                    for x in refuters:
                        keep |= low(x)
        return found(keep)
    # per agent: (cells, their union, every set that must meet u) of each
    # subset of the kept profiles, largest first; one agent's cells are
    # disjoint, so their sum is their union
    choices = [[([cells[r][0] for r in rs], sum(cells[r][0] for r in rs),
                 [x for r in rs for x in cells[r]])
                for rs in _subsets_desc(cells)] for cells in kept]
    for k, combo in enumerate(itertools.product(*choices)):
        stats["combos"] += 1
        u = everyone
        for _, union, _ in combo:
            u &= union
        # the first combination is the fixpoint; the last test walks a
        # product, so it runs on the fewest combinations
        if ((not k or witnessed(u) and all(u & x for _, _, need in combo
                                           for x in need))
                and next(unmet_choices([ms for ms, _, _ in combo], ~0),
                         None) is None):
            return found(u)
    return None


def _build_witness(u_set, t_sat, leaves, agents, amask, cfg):
    """The model over the types u_set[k] as worlds w{k}, and the world of
    t_sat."""
    worlds = [(r, f"w{k}") for k, r in enumerate(u_set)]
    partitions = {}
    for a in agents:
        cells = {}
        for r, w in worlds:
            cells.setdefault(r & amask[a], set()).add(w)
        partitions[a] = tuple(frozenset(c) for c in cells.values())
    valuation = {s.name: frozenset(w for r, w in worlds if r >> k & 1)
                 for k, (s, _) in enumerate(leaves) if isinstance(s, Atom)}
    model = MomentModel(tuple(w for _, w in worlds), partitions, valuation,
                        cfg.agent_universe)
    return model, f"w{u_set.index(t_sat)}"


def valid(f, cfg=None):
    """True iff the negation is unsatisfiable."""
    cfg = cfg or SolverConfig()
    return sat(Not(f), cfg).verdict == "UNSAT"


# -- frame enumeration for the oracle --------------------------------------

@lru_cache(maxsize=None)
def _mask_partitions(n):
    """Every partition of the points 0..n-1, each as a tuple of cell
    masks ordered by their lowest point, in restricted growth string
    order (Knuth, TAOCP 4A, 7.2.1.5): point i joins each cell of a
    partition of the points below it in turn, then opens a new cell,
    and earlier points vary slowest."""
    parts = [()]
    for i in range(n):
        parts = [p[:j] + (c | 1 << i,) + p[j + 1:]
                 for p in parts for j, c in enumerate(p + (0,))]
    return tuple(parts)


@lru_cache(maxsize=None)
def _renamings(n):
    """Per world permutation, the identity first: the index in
    _mask_partitions(n) of the image of each partition there.  A cell's
    image is read from a table over all masks, tab[m], and an image's
    cells are put in _mask_partitions' order, by their lowest bit."""
    parts_of = _mask_partitions(n)
    at = {cells: i for i, cells in enumerate(parts_of)}
    out = []
    for perm in itertools.permutations(range(n)):
        tab = [0] * (1 << n)
        for m in range(1, 1 << n):
            low = m & -m
            tab[m] = tab[m ^ low] | 1 << perm[low.bit_length() - 1]
        out.append([at[tuple(sorted((tab[c] for c in cells),
                                    key=lambda x: x & -x))]
                    for cells in parts_of])
    return tuple(out)


def check_frame_walk(n, n_agents):
    """Refuse a walk of the frames of n worlds and n_agents agents that
    would visit more than FRAME_WALK_MAX partition tuples."""
    size = len(_mask_partitions(n))
    if size ** n_agents > FRAME_WALK_MAX:
        raise ValueError(f"{n_agents} agents at {n} worlds walk "
                         f"{size}**{n_agents} partition tuples, over the "
                         f"frame budget of {FRAME_WALK_MAX}")


@lru_cache(maxsize=None)
def _frames(n, n_agents):
    """Frames of n worlds with the permutation property, deduplicated
    up to world renaming: (one-class frames, every frame), the one-class
    frames first in both.  A frame's blocks are one partition of
    _mask_partitions(n) per agent, then the settledness classes as masks,
    ascending.  The walk is itertools.product over the partitions'
    indices, one per agent, and each part of the result is in its order.

    A tuple has the property exactly when no settledness class has an
    unmet choice of cells (see the kripke module).  The classes are the
    components of the partitions, or the whole world set below two
    agents, where settledness is universal by convention.

    Renaming keeps the property, so each renaming class is tested once,
    at its first tuple in the walk, which is the one kept.  That tuple
    marks every renaming of it by its position in the walk, and a later
    tuple of the class is skipped by one lookup, before its classes are
    built (orderly generation: Read 1978; McKay 1998)."""
    check_frame_walk(n, n_agents)
    full = (1 << n) - 1
    parts_of = _mask_partitions(n)
    # parts_of with each cell as its list of points, for components
    points = [[[i for i in range(n) if c >> i & 1] for c in cells]
              for cells in parts_of]
    size = len(parts_of)
    # per renaming and agent k: each partition's image, times agent k's
    # place value in a walk position
    weights = [[[j * size ** (n_agents - 1 - k) for j in image]
                for k in range(n_agents)] for image in _renamings(n)]
    seen = bytearray(size ** n_agents)
    out = ([], [])
    for pos, ids in enumerate(itertools.product(range(size),
                                                repeat=n_agents)):
        if seen[pos]:
            continue
        for w in weights:
            seen[sum(map(list.__getitem__, w, ids))] = 1
        parts = tuple(map(parts_of.__getitem__, ids))
        classes = ((full,) if n_agents < 2 else tuple(sorted(
            sum(1 << i for i in g) for g in components(
                range(n), (c for i in ids for c in points[i])))))
        if next(unmet_per_class(parts, classes), None) is not None:
            continue
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
    one scan per world count.  A frame walk over FRAME_WALK_MAX partition
    tuples is refused before any scan."""
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
    check_frame_walk(max_worlds, len(agents))
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


def product_sat(f, max_cells):
    """Two-agent cross-check over full product frames.

    Worlds are pairs (row, column); agent 0 chooses the row, agent 1 the
    column.  Returns SAT iff some product frame with at most max_cells
    cells per agent satisfies f under some valuation; raises ValueError
    on reaching a frame too large for the scan kernel.
    """
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
            yield _product_frame(rows, cols)


@lru_cache(maxsize=None)
def _product_frame(rows, cols):
    """The one-frame list of the rows x cols product frame, one object
    per shape, as the kernel caches passes by the list's identity."""
    n = rows * cols
    row_cells = tuple(sum(1 << (r * cols + c) for c in range(cols))
                      for r in range(rows))
    col_cells = tuple(sum(1 << (r * cols + c) for r in range(rows))
                      for c in range(cols))
    return (kernel.Frame(n, (row_cells, col_cells, ((1 << n) - 1,))),)
