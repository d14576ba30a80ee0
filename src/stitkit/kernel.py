"""Bit-parallel evaluation: formulas and boolean programs run over many
valuations at once, packed into Python integers.

A *frame* is a world set of size ``n_points`` together with one partition
per relation (one relation per agent, plus the settledness relation last).
Cells are encoded as bitmasks over the points.  A *valuation index* ``v``
packs one point-mask per atom: atom ``a`` is true exactly at the points in
``(v >> (a * n_points)) & ((1 << n_points) - 1)``.

``scan_sat`` and ``scan_valid`` run a compiled formula over all
``2**(n_atoms * n_points)`` valuations of a frame and return the first
(valuation, point) where it holds or fails.  Each valuation is a slot of
``n_points + 1`` bits (the top bit a guard kept at zero), and the program
runs on ``2**_SCAN_CHUNK_BITS`` slots at once; ALLBLOCK tests containment
with the SWAR zero-detect ``guard & ~((t | guard) - low_bits)``, which
never borrows across slots.  ``eval_mask`` is the one-valuation
reference the scans are tested against.

``columns`` runs a boolean program over leaves under every assignment,
each node one bit column over ``2**_COLUMN_CHUNK_BITS`` assignments at a
time.  The solver's type enumeration and the PL rule of the derivation
checker both use it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .syntax import And, Atom, Box, Cstit, Dstit, Not

OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_ALLBLOCK = 3
OP_DUP = 4
OP_SWAP = 5

# a scan packs 2**_SCAN_CHUNK_BITS valuations into one integer per atom
_SCAN_CHUNK_BITS = 16
# columns holds 2**_COLUMN_CHUNK_BITS leaf assignments per bit column
_COLUMN_CHUNK_BITS = 10


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
    """Compile to (ops, args) lists; unknown atoms compile to constant false.

    ``atom_order``: atom name -> atom slot; ``agent_order``: agent -> relation
    index.  The settledness relation index is ``len(agent_order)``.
    """
    ops, args = [], []
    box_rel = len(agent_order)

    def emit(g):
        if isinstance(g, Atom):
            ops.append(OP_ATOM)
            args.append(atom_order.get(g.name, -1))
        elif isinstance(g, Not):
            emit(g.sub)
            ops.append(OP_NOT)
            args.append(0)
        elif isinstance(g, And):
            emit(g.left)
            emit(g.right)
            ops.append(OP_AND)
            args.append(0)
        elif isinstance(g, Cstit):
            emit(g.sub)
            ops.append(OP_ALLBLOCK)
            args.append(agent_order[g.agent])
        elif isinstance(g, Box):
            emit(g.sub)
            ops.append(OP_ALLBLOCK)
            args.append(box_rel)
        elif isinstance(g, Dstit):
            # {i}g == [i]g & ~[]g, sharing the sub-result via DUP/SWAP
            emit(g.sub)
            ops.append(OP_DUP)
            args.append(0)
            ops.append(OP_ALLBLOCK)
            args.append(box_rel)
            ops.append(OP_NOT)
            args.append(0)
            ops.append(OP_SWAP)
            args.append(0)
            ops.append(OP_ALLBLOCK)
            args.append(agent_order[g.agent])
            ops.append(OP_AND)
            args.append(0)
        else:
            raise TypeError(f"not a formula: {g!r}")

    emit(f)
    return ops, args


def eval_mask(ops, args, frame, atom_masks):
    """Reference single-valuation evaluator; returns the truth bitmask."""
    full = frame.full_mask
    stack = []
    for op, arg in zip(ops, args):
        if op == OP_ATOM:
            stack.append(atom_masks[arg] if arg >= 0 else 0)
        elif op == OP_NOT:
            stack[-1] = full & ~stack[-1]
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] &= b
        elif op == OP_ALLBLOCK:
            m = stack[-1]
            acc = 0
            for cell in frame.blocks[arg]:
                if m & cell == cell:
                    acc |= cell
            stack[-1] = acc
        elif op == OP_DUP:
            stack.append(stack[-1])
        else:  # OP_SWAP
            stack[-1], stack[-2] = stack[-2], stack[-1]
    return stack[-1]


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
    """Bit 0 of every slot, built by doubling."""
    out, have = 1, 1
    while have < n_slots:
        out |= out << (have * w)
        have *= 2
    return out


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


def _scan(ops, args, frame, n_atoms, want_sat):
    """First (valuation index, point) where the program holds (with
    ``want_sat``) or fails (without), or None."""
    _check_size(frame.n_points, n_atoms)
    n = frame.n_points
    w = n + 1
    ones = (1 << n) - 1
    total_bits = n_atoms * n
    s = min(total_bits, _SCAN_CHUNK_BITS)
    n_slots = 1 << s
    low = _slot_lsb(n_slots, w)
    guard = low << n
    full = low * ones
    atom_low = [_atom_low(n, s, a) for a in range(n_atoms)]

    for base in range(0, 1 << total_bits, n_slots):
        atom_masks = []
        for a in range(n_atoms):
            hi = (base >> (a * n)) & ones
            atom_masks.append(atom_low[a] | (low * hi))
        res = _run(ops, args, frame.blocks, atom_masks, low, guard, full, n)
        probe = res if want_sat else (full & ~res)
        if probe:
            bit = (probe & -probe).bit_length() - 1
            return base + bit // w, bit % w
    return None


def _run(ops, args, blocks, atom_masks, low, guard, full, n):
    stack = []
    for op, arg in zip(ops, args):
        if op == 0:  # ATOM
            stack.append(atom_masks[arg] if arg >= 0 else 0)
        elif op == 1:  # NOT
            stack[-1] = full & ~stack[-1]
        elif op == 2:  # AND
            b = stack.pop()
            stack[-1] &= b
        elif op == 3:  # ALLBLOCK
            m = stack[-1]
            acc = 0
            for cell in blocks[arg]:
                t = (low * cell) & ~m
                z = guard & ~((t | guard) - low)
                acc |= cell * (z >> n)
            stack[-1] = acc
        elif op == 4:  # DUP
            stack.append(stack[-1])
        else:  # SWAP
            stack[-1], stack[-2] = stack[-2], stack[-1]
    return stack[-1]


def scan_sat(ops, args, frame, n_atoms):
    """First (valuation index, point) satisfying the program, or None."""
    return _scan(ops, args, frame, n_atoms, True)


def scan_valid(ops, args, frame, n_atoms):
    """First falsifying (valuation index, point), or None if frame-valid."""
    return _scan(ops, args, frame, n_atoms, False)


def columns(prog, n_leaves):
    """Bit columns of a boolean program under every leaf assignment.

    ``prog`` is a post-order list of ``(op, x, y)`` nodes:
    ``(OP_ATOM, k, _)`` is leaf ``k``, ``(OP_NOT, x, _)`` negates node
    ``x`` and ``(OP_AND, x, y)`` conjoins nodes ``x`` and ``y``.
    Assignment ``a`` gives leaf ``k`` the value of bit ``k`` of ``a``.

    Yields ``(full, col)`` per chunk of ``2**_COLUMN_CHUNK_BITS``
    assignments (fewer when there are fewer leaves), in ascending order:
    bit ``b`` of ``col[i]`` is the value of node ``i`` under assignment
    ``base + b``, and ``full`` has one bit set per assignment of the
    chunk.  The list ``col`` is reused from one chunk to the next.
    """
    c = min(n_leaves, _COLUMN_CHUNK_BITS)
    width = 1 << c
    full = (1 << width) - 1
    # leaf k < c alternates runs of 2**k zeros and 2**k ones
    pattern = [_slot_lsb(1 << (c - k - 1), 1 << (k + 1))
               * (((1 << (1 << k)) - 1) << (1 << k)) for k in range(c)]
    col = [0] * len(prog)
    for base in range(0, 1 << n_leaves, width):
        for i, (op, x, y) in enumerate(prog):
            if op == OP_ATOM:
                col[i] = pattern[x] if x < c else full if base >> x & 1 else 0
            elif op == OP_NOT:
                col[i] = full ^ col[x]
            else:
                col[i] = col[x] & col[y]
        yield full, col
