"""Hot evaluation kernel: formulas compiled to stack programs, run over
every valuation of a fixed frame at once.

A *frame* is a world set of size ``n_points`` together with one partition
per relation (one relation per agent, plus the settledness relation last).
Cells are encoded as bitmasks over the points.  A *valuation index* ``v``
packs one point-mask per atom: atom ``a`` is true exactly at the points in
``(v >> (a * n_points)) & ((1 << n_points) - 1)``.

Two scans run over all ``2**(n_atoms * n_points)`` valuations of a
frame:

* ``scan_sat``   -- first (valuation, point) where the formula holds;
* ``scan_valid`` -- first (valuation, point) where it fails.

Both are done by ``stitkit._pykernel``, which packs many valuations into
a single big integer and uses SWAR tricks; ``eval_mask`` is the
one-valuation reference it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _pykernel
from .syntax import And, Atom, Box, Cstit, Dstit, Not

OP_ATOM = 0
OP_NOT = 1
OP_AND = 2
OP_ALLBLOCK = 3
OP_DUP = 4
OP_SWAP = 5


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


def scan_sat(ops, args, frame, n_atoms):
    """First (valuation index, point) satisfying the program, or None."""
    _check_size(frame.n_points, n_atoms)
    return _pykernel.scan(ops, args, frame.n_points, frame.blocks, n_atoms,
                          True)


def scan_valid(ops, args, frame, n_atoms):
    """First falsifying (valuation index, point), or None if frame-valid."""
    _check_size(frame.n_points, n_atoms)
    return _pykernel.scan(ops, args, frame.n_points, frame.blocks, n_atoms,
                          False)
