import random
import sys
import time
from collections import OrderedDict

import pytest

from stitkit import kernel, kripke, solver, syntax
from stitkit.syntax import And, Atom, Box, Cstit, Dstit, Not

from helpers import random_corpus


def random_partition(rng, n):
    labels = [rng.randrange(1 + i // 2) for i in range(n)]
    cells = {}
    for i, lab in enumerate(labels):
        cells.setdefault(lab, 0)
        cells[lab] |= 1 << i
    return tuple(cells.values())


def random_frame(rng, n, n_rels):
    return kernel.Frame(n, tuple(random_partition(rng, n)
                                 for _ in range(n_rels)))


def brute_scan(ops, args, frame, n_atoms, want_sat):
    full = frame.full_mask
    n = frame.n_points
    for v in range(1 << (n_atoms * n)):
        masks = [(v >> (k * n)) & full for k in range(n_atoms)]
        mask = kernel.eval_mask(ops, args, frame, masks)
        if want_sat and mask:
            return v, (mask & -mask).bit_length() - 1
        if not want_sat and mask != full:
            miss = full & ~mask
            return v, (miss & -miss).bit_length() - 1
    return None


def test_scan_matches_reference():
    rng = random.Random(3)
    corpus = random_corpus(7, 60, 10)
    for f in corpus:
        n = rng.randint(1, 3)
        frame = random_frame(rng, n, 3)
        names = sorted(syntax.atoms(f))
        ops, args = kernel.compile_formula(
            f, {p: k for k, p in enumerate(names)}, {0: 0, 1: 1})
        assert kernel.scan_sat(ops, args, frame, len(names)) == \
            brute_scan(ops, args, frame, len(names), True), syntax.pretty(f)
        assert kernel.scan_valid(ops, args, frame, len(names)) == \
            brute_scan(ops, args, frame, len(names), False), syntax.pretty(f)


def brute_frames(ops, args, frames, n_atoms, want_sat):
    """scan_frames one frame at a time, by brute_scan."""
    for position, frame in enumerate(frames):
        hit = brute_scan(ops, args, frame, n_atoms, want_sat)
        if hit is not None:
            return (position,) + hit
    return None


def _check_frames(f, frames, n_atoms):
    """scan_frames against brute_frames in both modes; returns the first
    satisfying hit."""
    names = ("p", "q", "r", "s", "t")[:n_atoms]
    ops, args = kernel.compile_formula(
        f, {p: k for k, p in enumerate(names)}, {0: 0, 1: 1})
    for want_sat in (False, True):
        hit = kernel.scan_frames(ops, args, frames, n_atoms, want_sat)
        assert hit == brute_frames(ops, args, frames, n_atoms, want_sat), \
            (syntax.pretty(f), want_sat)
    return hit


def test_scan_frames_matches_reference():
    # up to 12 valuation bits: several frames per pass (one when the list
    # has one frame), lists of up to 2**13 valuations in all; formulas
    # over the first n_atoms atoms
    rng = random.Random(5)
    corpora = [random_corpus(8, 200, 10,
                             atom_names=("p", "q", "r", "s", "t")[:k])
               for k in range(1, 6)]
    for n in range(1, 5):
        for n_atoms in range(1, 6):
            if n * n_atoms > 12:
                continue
            for _ in range(4):
                frames = [random_frame(rng, n, 3) for _ in range(
                    rng.randint(1, max(1, (1 << 13) >> (n * n_atoms))))]
                _check_frames(rng.choice(corpora[n_atoms - 1]), frames,
                              n_atoms)
    assert kernel.scan_frames([], [], (), 2, True) is None


def _frame(n, cells):
    """Agent 0 has ``cells``; agent 1 and settledness one cell each."""
    full = (1 << n) - 1
    return kernel.Frame(n, (cells, (full,), (full,)))


def test_scan_frames_across_passes_and_chunks():
    # 40 random frames of 4 points and 3 atoms: 16 frames in a pass, with
    # different numbers of cells
    rng = random.Random(6)
    frames = [random_frame(rng, 4, 3) for _ in range(40)]
    assert len({len(fr.blocks[0]) for fr in frames[:16]}) > 1
    for text in ("(r & ~[1]p)", "~((p | q) & [0]r)", "({0}q & <>~r)"):
        _check_frames(syntax.parse(text), frames, 3)
    # {0}p holds only where agent 0 has two cells
    one, two = _frame(4, (15,)), _frame(4, (3, 12))
    deliberate = syntax.parse("({0}p & (q | r))")
    for hit_at in (15, 16):  # last of the first pass, first of the next
        frames = [one] * hit_at + [two] + [one] * 3
        assert _check_frames(deliberate, frames, 3)[0] == hit_at
    # 3 points and 5 atoms: two frames in a pass; 4 points and 4 atoms:
    # one frame in a pass of one chunk; 5 atoms: one frame, 16 chunks
    three = [_frame(3, (7,)), _frame(3, (1, 6)), _frame(3, (7,))]
    assert _check_frames(syntax.parse("({0}p & t)"), three, 5) == \
        (1, 1 | 1 << 12, 0)
    assert _check_frames(syntax.parse("({0}p & s)"), [one, two, one],
                         4) == (1, 3 | 1 << 12, 0)
    assert _check_frames(syntax.parse("(t & [0]p)"), [two, one], 5) == \
        (0, 3 | 1 << 16, 0)


def test_pass_cache_keyed_by_list_and_bounded(monkeypatch):
    def no_hash(self):
        raise AssertionError("a frame was hashed")

    built, build = [], kernel._passes
    monkeypatch.setattr(kernel, "_passes",
                        lambda *a: built.append(a[0]) or build(*a))
    monkeypatch.setattr(kernel, "_pass_cache", OrderedDict())
    monkeypatch.setattr(kernel.Frame, "__hash__", no_hash)
    ops, args = kernel.compile_formula(syntax.parse("([0]p & ~[1]q)"),
                                       {"p": 0, "q": 1}, {0: 0, 1: 1})
    small, large = solver.general_frames(2, 2), solver.general_frames(3, 2)

    def scan(*lists):
        built.clear()
        for frames in lists:
            kernel.scan_frames(ops, args, frames, 2, False)
        return [id(frames) for frames in built]

    assert scan(small, large, small, large) == [id(small), id(large)]
    # frames of more valuation bits than one chunk: passes are not kept
    assert kernel.scan_frames(ops, args, small, 9, False) is not None
    assert len(kernel._pass_cache) == 2
    bits = {id(fr): b for fr, _, b in kernel._pass_cache.values()}
    assert bits[id(small)] < bits[id(large)]
    # a budget of one list: the least recently used list goes
    kernel._pass_cache.clear()
    monkeypatch.setattr(kernel, "_PASS_CACHE_BITS", bits[id(large)])
    assert scan(small, large, small) == [id(small), id(large), id(small)]
    assert [id(fr) for fr, _, _ in kernel._pass_cache.values()] == \
        [id(small)]
    # a list over the whole budget is not kept
    kernel._pass_cache.clear()
    monkeypatch.setattr(kernel, "_PASS_CACHE_BITS", bits[id(small)] - 1)
    assert scan(small, small) == [id(small), id(small)]
    assert not kernel._pass_cache


def test_decode_valuation():
    # atom a occupies bits [k*n, (k+1)*n)
    v = 0b10_01
    out = kernel.decode_valuation(v, 2, ("p", "q"))
    assert out == {"p": 0b01, "q": 0b10}


def test_scan_sat_tautology_and_contradiction():
    frame = kernel.Frame(2, ((1, 2), (3,), (3,)))
    names = {"p": 0}
    taut = syntax.parse("(p | ~p)")
    ops, args = kernel.compile_formula(taut, names, {0: 0, 1: 1})
    assert kernel.scan_valid(ops, args, frame, 1) is None
    contra = syntax.parse("(p & ~p)")
    ops, args = kernel.compile_formula(contra, names, {0: 0, 1: 1})
    assert kernel.scan_sat(ops, args, frame, 1) is None


def test_valuation_bit_guard():
    frame = kernel.Frame(14, (((1 << 14) - 1,),))
    f = syntax.parse("(p & q)")
    ops, args = kernel.compile_formula(f, {"p": 0, "q": 1}, {})
    with pytest.raises(ValueError):
        kernel.scan_sat(ops, args, frame, 2)


def test_backend_selected():
    assert kernel.BACKEND_NAME == "py"


# -- the compiled program ---------------------------------------------------

SHARED = ["((p & q) & ~(p & q))", "({0}(p & r) & [1]{0}(p & r))",
          "(({0}p & {1}p) & ({0}p & []p))", "~~r", "([0]s & [](s & t))",
          "({1}{1}q & ~{0}{1}q)", "(([]p & {0}p) & [](p & {0}p))"]


def test_compile_one_node_per_subformula():
    atom_order = {"p": 0, "q": 1, "r": 2, "s": 3, "t": 4}
    agent_order = {0: 0, 1: 1}
    for text in SHARED:
        f = syntax.parse(text)
        ops, args = kernel.compile_formula(f, atom_order, agent_order)
        assert len(ops) == len(args)
        at, k = {}, 0
        for g in syntax.subformulas(f):
            if isinstance(g, Dstit):
                x = at[g.sub]
                assert ops[k:k + 4] == [kernel.OP_ALLBLOCK] * 2 + [
                    kernel.OP_NOT, kernel.OP_AND]
                assert args[k:k + 4] == [(x, g.agent), (x, 2), (k + 1, 0),
                                         (k, k + 2)]
                k += 3
            elif isinstance(g, Atom):
                assert (ops[k], args[k]) == (
                    kernel.OP_ATOM, (atom_order[g.name], 0))
            elif isinstance(g, Not):
                assert (ops[k], args[k]) == (kernel.OP_NOT, (at[g.sub], 0))
            elif isinstance(g, And):
                assert (ops[k], args[k]) == (
                    kernel.OP_AND, (at[g.left], at[g.right]))
            else:
                rel = g.agent if isinstance(g, Cstit) else 2
                assert (ops[k], args[k]) == (
                    kernel.OP_ALLBLOCK, (at[g.sub], rel))
            at[g] = k
            k += 1
        assert k == len(ops) and at[f] == k - 1, text
        for i, (op, (x, y)) in enumerate(zip(ops, args)):
            if op != kernel.OP_ATOM:
                assert 0 <= x < i, text
            if op == kernel.OP_AND:
                assert 0 <= y < i, text


def _frame_model(frame, v, atom_names):
    n = frame.n_points
    worlds = tuple(f"w{i}" for i in range(n))

    def unmask(mask):
        return frozenset(worlds[i] for i in range(n) if mask >> i & 1)

    relations = {a: tuple(unmask(c) for c in frame.blocks[a])
                 for a in range(len(frame.blocks) - 1)}
    masks = kernel.decode_valuation(v, n, atom_names)
    valuation = {p: unmask(m) for p, m in masks.items()}
    return kripke.KripkeModel(worlds, relations, valuation, 2), masks


def test_compiled_program_matches_model_checker():
    # kripke.mc walks the formula itself, so a node index that points at
    # the wrong subformula shows up as a disagreement
    rng = random.Random(11)
    frames = [fr for n in (1, 2, 3) for fr in solver.general_frames(n, 2)]
    corpus = random_corpus(12, 1000, 16, atom_names=("p", "q", "r"))
    atom_names = ("p", "q", "r")
    atom_order = {p: k for k, p in enumerate(atom_names)}
    for f in corpus:
        frame = rng.choice(frames)
        v = rng.randrange(1 << (len(atom_names) * frame.n_points))
        m, masks = _frame_model(frame, v, atom_names)
        ops, args = kernel.compile_formula(f, atom_order, {0: 0, 1: 1})
        truth = kernel.eval_mask(ops, args, frame,
                                 [masks[p] for p in atom_names])
        for i, w in enumerate(m.worlds):
            assert bool(truth >> i & 1) == kripke.mc(m, w, f), \
                syntax.pretty(f)


DEPTH = 100_000


def test_deep_programs_without_recursion():
    # agent 0 sees one cell, agent 1 two; p true at point 0 only under
    # valuation 1.  Then ~^D p (D even) is p, [0]^D p holds nowhere and
    # {1}^D p holds at point 0.
    start = time.process_time()
    limit = sys.getrecursionlimit()
    frame = kernel.Frame(2, ((3,), (1, 2), (3,)))
    for level, first_sat, at_v1 in ((Not, (1, 0), 1),
                                    (lambda g: Cstit(0, g), (3, 0), 0),
                                    (lambda g: Dstit(1, g), (1, 0), 1)):
        f = Atom("p")
        for _ in range(DEPTH):
            f = level(f)
        ops, args = kernel.compile_formula(f, {"p": 0}, {0: 0, 1: 1})
        assert len(ops) == DEPTH * (4 if isinstance(f, Dstit) else 1) + 1
        assert kernel.scan_sat(ops, args, frame, 1) == first_sat
        assert kernel.eval_mask(ops, args, frame, [1]) == at_v1
    assert sys.getrecursionlimit() == limit
    assert time.process_time() - start < 5.0
