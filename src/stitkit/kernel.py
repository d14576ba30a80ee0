"""Bit-parallel evaluation: formulas and boolean programs run over many
valuations at once, packed into Python integers.

There is one program format.  A program is a pair of lists ``(ops,
args)`` with one node per distinct subformula, children before parents
and the root last; ``args[i]`` is a pair of node indices or of an index
and a relation (see ``compile_formula``).  ``_values`` is the one loop
that evaluates it, on bit-parallel values, for both the scans and
``columns``.

A *frame* is a world set of size ``n_points`` together with one partition
per relation (one relation per agent, plus the settledness relation last).
Cells are encoded as bitmasks over the points.  A *valuation index* ``v``
packs one point-mask per atom: atom ``a`` is true exactly at the points in
``(v >> (a * n_points)) & ((1 << n_points) - 1)``.

``scan_frames`` runs a compiled formula over all
``2**(n_atoms * n_points)`` valuations of each of a list of frames of
one size and returns the first (position, valuation, point), in frame
order, where it holds or fails; in stitkit only ``solver.first_hit``
calls it.  ``scan_sat`` and ``scan_valid`` do the same for one frame.
Each valuation is a slot of ``n_points + 1`` bits (the top bit a guard
kept at zero), and the program runs on up to ``2**_SCAN_CHUNK_BITS``
slots at once, with the frames side by side: each frame owns a region
of ``2**s`` slots, ``s`` its number of valuation bits (at most
``_SCAN_CHUNK_BITS``), and every relation's cells are packed so that
each region holds its own frame's cells.  ALLBLOCK tests containment
with the SWAR zero-detect ``guard ^ (((cell & out) | guard) - low_bits)
& guard``, which never borrows across slots.  ``eval_mask`` is the
one-valuation reference the scans are tested against; it shares no code
with them.

``columns`` runs a boolean program over leaves under every assignment,
each node one bit column over ``2**_COLUMN_CHUNK_BITS`` assignments at a
time.  The solver's type enumeration and the PL rule of the derivation
checker both use it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache

from .syntax import And, Atom, Box, Cstit, Dstit, Not, subformulas

OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_ALLBLOCK = 3

# a scan packs 2**_SCAN_CHUNK_BITS valuations into one integer per atom
_SCAN_CHUNK_BITS = 16
# columns holds 2**_COLUMN_CHUNK_BITS leaf assignments per bit column
_COLUMN_CHUNK_BITS = 10
# the most bits of packed passes that _cached_passes keeps
_PASS_CACHE_BITS = 1 << 24


@dataclass(frozen=True)
class Frame:
    """Relational structure without valuation.

    ``blocks[r]`` lists the cell bitmasks of relation ``r``; relations are
    ordered agent 0, ..., agent A-1, settledness last.
    """

    n_points: int
    blocks: tuple

    @property
    def full_mask(self):
        return (1 << self.n_points) - 1


def compile_formula(f, atom_order, agent_order):
    """Compile to an indexed program ``(ops, args)``.

    One node per distinct subformula, in the order of
    ``syntax.subformulas(f)``, so the root is last.  ``args[i]`` is a pair:
    ``(slot, 0)`` for ``OP_ATOM``, ``(x, 0)`` for ``OP_NOT``, ``(x, y)``
    for ``OP_AND`` and ``(x, relation)`` for ``OP_ALLBLOCK``, where ``x``
    and ``y`` index earlier nodes.  ``{i}g`` becomes the four nodes
    ``[i]g``, ``[]g``, ``~[]g`` and their conjunction over the one node
    of ``g``.

    ``atom_order``: atom name -> atom slot, for every atom of ``f``;
    ``agent_order``: agent -> relation index.  The settledness relation
    index is ``len(agent_order)``.
    """
    ops, args, at = [], [], {}
    box_rel = len(agent_order)
    for g in subformulas(f):
        if isinstance(g, Atom):
            op, arg = OP_ATOM, (atom_order[g.name], 0)
        elif isinstance(g, Not):
            op, arg = OP_NOT, (at[g.sub], 0)
        elif isinstance(g, And):
            op, arg = OP_AND, (at[g.left], at[g.right])
        elif isinstance(g, Cstit):
            op, arg = OP_ALLBLOCK, (at[g.sub], agent_order[g.agent])
        elif isinstance(g, Box):
            op, arg = OP_ALLBLOCK, (at[g.sub], box_rel)
        elif isinstance(g, Dstit):
            x, k = at[g.sub], len(ops)
            ops += (OP_ALLBLOCK, OP_ALLBLOCK, OP_NOT)
            args += ((x, agent_order[g.agent]), (x, box_rel), (k + 1, 0))
            op, arg = OP_AND, (k, k + 2)
        else:
            raise TypeError(f"not a formula: {g!r}")
        at[g] = len(ops)
        ops.append(op)
        args.append(arg)
    return ops, args


def eval_mask(ops, args, frame, atom_masks):
    """Reference single-valuation evaluator; returns the truth bitmask of
    the root."""
    full = frame.full_mask
    val = []
    for op, (x, y) in zip(ops, args):
        if op == OP_ATOM:
            val.append(atom_masks[x])
        elif op == OP_NOT:
            val.append(full & ~val[x])
        elif op == OP_AND:
            val.append(val[x] & val[y])
        else:  # OP_ALLBLOCK
            m = val[x]
            acc = 0
            for cell in frame.blocks[y]:
                if m & cell == cell:
                    acc |= cell
            val.append(acc)
    return val[-1]


def decode_valuation(v, n_points, atom_names):
    """Valuation index -> {atom: point bitmask}."""
    ones = (1 << n_points) - 1
    return {name: (v >> (a * n_points)) & ones
            for a, name in enumerate(atom_names)}


MAX_VALUATION_BITS = 26


def _check_size(n_points, n_atoms):
    if n_atoms * n_points > MAX_VALUATION_BITS:
        raise ValueError(
            f"valuation space too large: {n_atoms} atoms x {n_points} points")


# The only scan kernel; kept as a name for reports that print it.
BACKEND_NAME = "py"


@lru_cache(maxsize=None)
def _slot_lsb(n_slots, w):
    """Bit 0 of each of ``n_slots`` slots of ``w`` bits."""
    return _tile(1, w, n_slots)


def _tile(x, width, count):
    """``count`` copies of ``x``, one every ``width`` bits, built by
    doubling; ``x`` must fit in ``width`` bits."""
    out, have = x, 1
    while have < count:
        out |= out << (have * width)
        have *= 2
    return out if have == count else out & ((1 << (count * width)) - 1)


@lru_cache(maxsize=None)
def _atom_low(n_points, s, a):
    """Packed mask of atom ``a`` over the low ``s`` valuation bits.

    Slot k (for k in [0, 2**s)) holds ((k >> (a * n_points)) & ones),
    restricted to the bits of k below s.
    """
    w = n_points + 1
    lo, hi = a * n_points, (a + 1) * n_points
    x = 0
    for b in range(s):
        size = 1 << b
        d = (_slot_lsb(size, w) << (b - lo)) if lo <= b < hi else 0
        x = x | ((x | d) << (size * w))
    return x


def _passes(frames, n_atoms):
    """Yield the frames side by side, in passes of up to
    ``2**_SCAN_CHUNK_BITS`` slots: per pass its first frame's position,
    its ``low``, ``guard`` and ``full`` masks, the atom leaves of the low
    ``s`` valuation bits and, per relation, the packed cells.

    Each frame owns a region of ``2**s`` slots.  Packed cell ``j`` of a
    relation holds, in every slot of a frame's region, that frame's
    ``j``-th cell of the relation, or 0 when the frame has fewer cells.
    """
    n = frames[0].n_points
    w = n + 1
    s = min(n_atoms * n, _SCAN_CHUNK_BITS)
    width = w << s
    region = _slot_lsb(1 << s, w)
    atom_low = [_atom_low(n, s, a) for a in range(n_atoms)]
    per_pass = (1 << _SCAN_CHUNK_BITS) >> s
    for start in range(0, len(frames), per_pass):
        group = frames[start:start + per_pass]
        k = len(group)
        blocks = []
        for r in range(len(group[0].blocks)):
            packed = [0] * max(len(fr.blocks[r]) for fr in group)
            for i, fr in enumerate(group):
                for j, cell in enumerate(fr.blocks[r]):
                    packed[j] |= (region * cell) << (i * width)
            blocks.append(packed)
        low = _slot_lsb(k << s, w)
        yield (start, low, low << n, low * ((1 << n) - 1),
               [_tile(x, width, k) for x in atom_low], blocks)


# (id(frames), n_atoms) -> (frames, passes, their bits), the least
# recently used first; an entry holds its frames, so their id is not
# reused while it is cached
_pass_cache = OrderedDict()


def _cached_passes(frames, n_atoms):
    """The passes of _passes(frames, n_atoms), cached by the identity of
    ``frames``, so a scan hashes no frame, and for at most
    ``_PASS_CACHE_BITS`` bits in all: the least recently used entries go
    first, and passes larger than the whole budget are not kept.  Frames
    with more valuation bits than one chunk take a pass each, which the
    scan runs over several chunks: those passes are built one at a time,
    as the scan reaches them, and none is kept."""
    if n_atoms * frames[0].n_points > _SCAN_CHUNK_BITS:
        return _passes(frames, n_atoms)
    key = id(frames), n_atoms
    if key in _pass_cache:
        _pass_cache.move_to_end(key)
        return _pass_cache[key][1]
    passes = tuple(_passes(frames, n_atoms))
    bits = sum(x.bit_length() for _, *masks, tiled, blocks in passes
               for x in (*masks, *tiled, *(c for r in blocks for c in r)))
    if bits <= _PASS_CACHE_BITS:
        _pass_cache[key] = frames, passes, bits
        total = sum(entry[2] for entry in _pass_cache.values())
        while total > _PASS_CACHE_BITS:
            total -= _pass_cache.popitem(last=False)[1][2]
    return passes


def scan_frames(ops, args, frames, n_atoms, want_sat):
    """First (position, valuation index, point) in frame order where the
    program holds (with ``want_sat``) or fails (without), or None.

    ``frames`` is a sequence of frames with the same ``n_points`` and the
    same number of relations.  A pass runs the program once over up to
    ``2**_SCAN_CHUNK_BITS`` slots: every valuation of up to
    ``2**_SCAN_CHUNK_BITS >> s`` frames side by side, where ``s`` is the
    number of valuation bits of one frame, capped at
    ``_SCAN_CHUNK_BITS``; a frame with more valuation bits than that
    takes a pass of its own, in chunks of ``2**_SCAN_CHUNK_BITS``
    valuations.  The lowest hit bit is the first hit in frame order.
    """
    if not frames:
        return None
    n = frames[0].n_points
    _check_size(n, n_atoms)
    w = n + 1
    ones = (1 << n) - 1
    total_bits = n_atoms * n
    s = min(total_bits, _SCAN_CHUNK_BITS)
    mask = (1 << s) - 1
    for start, low, guard, full, tiled, blocks in _cached_passes(
            tuple(frames), n_atoms):
        for base in range(0, 1 << total_bits, 1 << s):
            leaves = [x | (low * ((base >> (a * n)) & ones))
                      for a, x in enumerate(tiled)] if base else tiled
            res = _values(ops, args, leaves, full, blocks, low, guard,
                          n)[-1]
            probe = res if want_sat else full ^ res
            if probe:
                bit = (probe & -probe).bit_length() - 1
                slot = bit // w
                return start + (slot >> s), base + (slot & mask), bit % w
    return None


def _values(ops, args, leaves, full, blocks, low, guard, n):
    """Every node's value of a program, each a bit-parallel subset of
    ``full``; ``OP_ATOM`` slot ``x`` reads ``leaves[x]``.  Only
    ``OP_ALLBLOCK`` reads ``blocks`` (per relation, its cells packed as
    ``_passes`` lays them out), ``low``, ``guard`` and ``n``.

    ALLBLOCK keeps a cell's points in each slot where no point of the
    cell is outside the argument.  Every value stays non-negative: a
    negative Python integer makes each bit operation copy it."""
    val = []
    push = val.append
    for op, (x, y) in zip(ops, args):
        if op == 0:  # ATOM
            push(leaves[x])
        elif op == 1:  # NOT
            push(full ^ val[x])
        elif op == 2:  # AND
            push(val[x] & val[y])
        else:  # ALLBLOCK
            out = full ^ val[x]
            acc = 0
            for cell in blocks[y]:
                # guard bit of each slot where the cell has no point out
                z = guard ^ (((cell & out) | guard) - low) & guard
                acc |= cell & (z - (z >> n))
            push(acc)
    return val


# one-frame scans, kept for perfbench's spans until they wrap scan_frames
def scan_sat(ops, args, frame, n_atoms):
    """First (valuation index, point) satisfying the program, or None."""
    hit = scan_frames(ops, args, (frame,), n_atoms, True)
    return None if hit is None else hit[1:]


def scan_valid(ops, args, frame, n_atoms):
    """First falsifying (valuation index, point), or None if frame-valid."""
    hit = scan_frames(ops, args, (frame,), n_atoms, False)
    return None if hit is None else hit[1:]


def columns(ops, args, n_leaves):
    """Bit columns of a boolean program under every leaf assignment.

    ``(ops, args)`` is an indexed program of ``OP_ATOM``, ``OP_NOT`` and
    ``OP_AND`` nodes, as ``compile_formula`` builds: ``(OP_ATOM, (k, 0))``
    is leaf ``k``.  Assignment ``a`` gives leaf ``k`` the value of bit
    ``k`` of ``a``.

    Yields ``(full, col)`` per chunk of ``2**_COLUMN_CHUNK_BITS``
    assignments (fewer when there are fewer leaves), in ascending order:
    bit ``b`` of ``col[i]`` is the value of node ``i`` under assignment
    ``base + b``, and ``full`` has one bit set per assignment of the
    chunk.
    """
    c = min(n_leaves, _COLUMN_CHUNK_BITS)
    width = 1 << c
    full = (1 << width) - 1
    # leaf k < c alternates runs of 2**k zeros and 2**k ones
    pattern = [_slot_lsb(1 << (c - k - 1), 1 << (k + 1))
               * (((1 << (1 << k)) - 1) << (1 << k)) for k in range(c)]
    for base in range(0, 1 << n_leaves, width):
        leaves = pattern + [full if base >> k & 1 else 0
                            for k in range(c, n_leaves)]
        yield full, _values(ops, args, leaves, full, None, 0, 0, 0)
