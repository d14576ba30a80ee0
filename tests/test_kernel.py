import random

import pytest

from stitkit import kernel, syntax

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


def test_unknown_atom_is_false():
    f = syntax.parse("r")
    frame = kernel.Frame(2, ((3,), (3,), (3,)))
    ops, args = kernel.compile_formula(f, {}, {0: 0, 1: 1})
    assert kernel.scan_sat(ops, args, frame, 0) is None
    g = syntax.parse("~r")
    ops, args = kernel.compile_formula(g, {}, {0: 0, 1: 1})
    assert kernel.scan_valid(ops, args, frame, 0) is None


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
