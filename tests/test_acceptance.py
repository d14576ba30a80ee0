"""Acceptance gate: one test per criterion, one printed verdict line each.

Criterion 5 checks both halves of the translations' contract: the
oracle verdict is preserved, and length(out) <= 1 + 14*length(f).  The
structure-preserving translations reach a ratio of at most 5.56 on its
corpus; tests/test_translate.py checks the same bound exhaustively.
"""

import importlib.resources
import re
import time

import pytest

from stitkit import axioms, solver, syntax, translate
from stitkit.kripke import MomentModel, filtrate, mc
from stitkit.solver import SolverConfig
from stitkit.syntax import (And, Atom, Box, Cstit, Dstit, Not, length,
                            parse, pretty, subformulas)

from helpers import (FIXTURES, exhaustive_formulas, line_negations,
                     random_corpus)

CFG1 = SolverConfig(agent_universe=1)
CFG2 = SolverConfig(agent_universe=2)


def report(capsys, n, ok, detail, elapsed):
    with capsys.disabled():
        print(f"criterion {n}: {'PASS' if ok else 'FAIL'} — {detail} "
              f"({elapsed:.1f}s)", flush=True)


def length_by_definition(f):
    if isinstance(f, Atom):
        return 1
    if isinstance(f, Not):
        return 1 + length_by_definition(f.sub)
    if isinstance(f, And):
        return 3 + length_by_definition(f.left) + length_by_definition(f.right)
    if isinstance(f, Cstit):
        return 3 + length_by_definition(f.sub)
    if isinstance(f, Dstit):
        return 5 + length_by_definition(f.sub)
    if isinstance(f, Box):
        return 1 + length_by_definition(f.sub)
    raise TypeError


def test_criterion_1_length_function(capsys):
    t0 = time.time()
    corpus = random_corpus(101, 1000, 18)
    bad = 0
    for f in corpus:
        if length(f) != length_by_definition(f):
            bad += 1
        if len(subformulas(f)) > length(f):
            bad += 1
    elapsed = time.time() - t0
    report(capsys, 1, bad == 0 and elapsed < 1.0,
           f"1000 formulas, {bad} violations", elapsed)
    assert bad == 0
    assert elapsed < 1.0


def test_criterion_2_axiom_validity_sweep(capsys):
    t0 = time.time()
    total, ces = 0, 0
    for name in ("AIA", "AAIA", "GPerm"):
        for models in ("btac", "kripke"):
            rep = axioms.semantic_audit(name, 2, models=models,
                                        max_points=4)
            total += rep["instances"]
            ces += len(rep["counterexamples"])
    elapsed = time.time() - t0
    report(capsys, 2, ces == 0 and elapsed < 300,
           f"{total} instances swept, {ces} counterexamples", elapsed)
    assert ces == 0
    assert elapsed < 300


def _random_generated_model(rng, atoms=("p", "q")):
    rows, cols = rng.randint(1, 3), rng.randint(1, 3)
    worlds = tuple(f"w{r}{c}" for r in range(rows) for c in range(cols))
    parts = {0: tuple(frozenset(f"w{r}{c}" for c in range(cols))
                      for r in range(rows)),
             1: tuple(frozenset(f"w{r}{c}" for r in range(rows))
                      for c in range(cols))}
    val = {p: frozenset(w for w in worlds if rng.random() < 0.5)
           for p in atoms}
    return MomentModel(worlds, parts, val, 2)


def test_criterion_3_filtration_bound(capsys):
    import random
    t0 = time.time()
    rng = random.Random(103)
    corpus = random_corpus(103, 200, 12)
    bad = 0
    for f in corpus:
        m = _random_generated_model(rng)
        out, wmap = filtrate(m, f)
        if len(out.worlds) > 2 ** length(f):
            bad += 1
        for g in subformulas(f):
            for w in m.worlds:
                if mc(m, w, g) != mc(out, wmap[w], g):
                    bad += 1
    elapsed = time.time() - t0
    report(capsys, 3, bad == 0 and elapsed < 60,
           f"200 pairs, {bad} violations", elapsed)
    assert bad == 0
    assert elapsed < 60


def test_criterion_4_solver_oracle_agreement(capsys):
    t0 = time.time()
    total, disagree = 0, 0
    for f in exhaustive_formulas(12):
        total += 1
        if solver.sat(f, CFG2).verdict != solver.oracle(f, 4, CFG2).verdict:
            disagree += 1
    elapsed = time.time() - t0
    report(capsys, 4, disagree == 0 and elapsed < 1800,
           f"{total} formulas exhaustively, {disagree} disagreements",
           elapsed)
    assert disagree == 0
    assert elapsed < 1800


def test_criterion_5_translation_preservation(capsys):
    t0 = time.time()
    dstit_in = random_corpus(105, 50, 10, cstit=False)
    cstit_in = random_corpus(106, 50, 10, dstit=False)
    mismatches, bound_violations = 0, 0
    for f in dstit_in:
        out = translate.tr(f)
        if solver.oracle(f, 2, CFG2).verdict != \
                solver.oracle(out, 2, CFG2).verdict:
            mismatches += 1
        if length(out) > 1 + 14 * length(f):
            bound_violations += 1
    for f in cstit_in:
        out = translate.tr_prime(f)
        if solver.oracle(f, 2, CFG2).verdict != \
                solver.oracle(out, 2, CFG2).verdict:
            mismatches += 1
        if length(out) > 1 + 14 * length(f):
            bound_violations += 1
    elapsed = time.time() - t0
    ok = mismatches == 0 and bound_violations == 0 and elapsed < 600
    report(capsys, 5, ok,
           f"100 formulas: {mismatches} verdict mismatches, "
           f"{bound_violations} length-bound violations",
           elapsed)
    assert mismatches == 0
    assert elapsed < 600
    assert bound_violations == 0, \
        "length(tr(f)) <= 1 + 14*length(f) fails"


def test_criterion_6_derivation_replays(capsys):
    t0 = time.time()
    root = importlib.resources.files("stitkit") / "fixtures"
    bad = []
    surviving = 0
    for name in FIXTURES:
        text = (root / name).read_text()
        if not axioms.check(axioms.parse_derivation(text)).ok:
            bad.append(name)
        for mutated in line_negations(text):
            if axioms.check(axioms.parse_derivation(mutated)).ok:
                surviving += 1
    # the warm-up deduction has its seven annotated steps
    warmup = (root / "aia1_warmup.drv").read_text()
    steps = len(re.findall(r"deduction step \d", warmup))
    elapsed = time.time() - t0
    ok = not bad and surviving == 0 and steps == 7 and elapsed < 10
    report(capsys, 6, ok,
           f"6 fixtures accepted: {not bad}; "
           f"{surviving} single-line mutations survived; "
           f"7-step deduction annotated: {steps == 7}", elapsed)
    assert bad == []
    assert surviving == 0
    assert steps == 7
    assert elapsed < 10


def _criterion7_corpus():
    return random_corpus(107, 200, 10)


def test_criterion_7_product_cross_check(capsys):
    t0 = time.time()
    disagree = 0
    for f in _criterion7_corpus():
        if solver.sat(f, CFG2).verdict != solver.product_sat(f, 3).verdict:
            disagree += 1
    elapsed = time.time() - t0
    report(capsys, 7, disagree == 0 and elapsed < 600,
           f"200 formulas, {disagree} disagreements", elapsed)
    assert disagree == 0
    assert elapsed < 600


def test_criterion_8_conservative_extension(capsys):
    t0 = time.time()
    differing = 0
    for f in _criterion7_corpus():
        verdicts = {solver.sat(f, SolverConfig(agent_universe=u)).verdict
                    for u in (2, 3, 4)}
        if len(verdicts) != 1:
            differing += 1
    elapsed = time.time() - t0
    report(capsys, 8, differing == 0 and elapsed < 600,
           f"200 formulas at universes 2/3/4, {differing} differ", elapsed)
    assert differing == 0
    assert elapsed < 600


def test_criterion_9_single_agent_quadratic_bound(capsys):
    t0 = time.time()
    total, findings = 0, 0
    for f in exhaustive_formulas(10, agents=(0,)):
        total += 1
        want = solver.oracle(f, solver.ORACLE_MAX_WORLDS, CFG1).verdict
        res = solver.sat(f, CFG1)
        if want == "SAT":
            if res.verdict != "SAT":
                findings += 1
                continue
            model, world = res.witness
            if len(model.worlds) > length(f) ** 2 or not mc(model, world, f):
                findings += 1
        elif res.verdict != "UNSAT":
            findings += 1
    elapsed = time.time() - t0
    report(capsys, 9, findings == 0 and elapsed < 600,
           f"{total} single-agent formulas, {findings} findings", elapsed)
    assert findings == 0
    assert elapsed < 600
