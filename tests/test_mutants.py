"""Planted defects in the engines and their cross-checks.

Each mutant is one literal substitution in a module of the package,
applied to a copy of it.  A fresh interpreter runs every 40th formula of
the criterion-4 corpus through ``sat`` on the copy, against
``oracle(f, 4)``, with the ``mc`` re-check of every witness and the
``2**length`` world bound, and must catch each mutant; the unmutated
copy must pass.  The mutants of ``solver``'s type search are caught on
the ``sat`` side, those of the kernel, of ``first_hit`` and of the
oracle's partitions on the brute force side, those of ``mc``,
``expand_dstit`` and ``syntax.rewrite`` by the re-check of ``sat``'s
witness.  A witness whose frame is refused when it is built, as a
``KripkeModel`` without the permutation property is, counts as caught
too.

The witness of a formula where fewer than two agents occur is held to
``length(f)**2`` worlds as well, the single-agent small model, at
universe 2 in the corpus above and at universe 1 in a one-agent slice:
every 40th criterion-9 formula, and one formula whose [0] refuter must
come from its own cell, against ``oracle(f, 4)``; and a disjunction of
14 atoms, whose 2**14 types exceed that bound, with the re-check and
the bound only (its 56 valuation bits at 4 worlds are beyond the
oracle's budget).

More slices check ``axioms``, ``translate`` and ``product_sat``.  The
six fixture derivations must be accepted and every 8th of criterion 6's
single-line negations rejected; then each derivation of
``PL_SHARED_STEPS`` must get its own verdict after one whose PL step has
its premises or its conclusion, each of ``AX_RK_SHARED_STEPS`` after one
with its AX line in another system or its RK or RKD step under the other
rule, and each of ``CITED_SHARED_STEPS`` after one whose MP or PL step
has its line and its first cited line but not its second.  (A negated
line changes the conclusion of the one step the check reaches, so the
negations alone never ask the step memo for a seen line under other
citations, nor for a seen step that another system or rule judges
otherwise.)  And ``oracle(f, 2)`` must give ``f`` and its translation
the same verdict, on the inputs of the two satisfiability tests of
tests/test_translate.py (through ``tr_prime`` with its polarity inputs,
and through ``tr``).  Then ``semantic_audit`` over the instances of
``MIXED_AUDIT``, three of whose groups hold a counterexample after a
valid first instance, must give the report of ``reference_audit``, one
instance at a time, over both model classes.  Last,
``product_sat(f, 3)`` must give the verdict of ``sat`` on each formula
of criterion 7's corpus.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import stitkit

PACKAGE = Path(stitkit.__file__).parent
TESTS = Path(__file__).resolve().parent

# name -> (module file, text in it, its replacement)
MUTANTS = {
    "types_without_T": ("solver.py", "ok &= ~col[i] | col[body]",
                        "ok &= full"),
    "no_false_box_refutation": ("solver.py",
                                "all(u & ~col[b] for b in box_negs)",
                                "all(u & ~col[b] for b in ())"),
    "no_false_cstit_refutation": ("solver.py",
                                  "for n, b in prs if not r & n)",
                                  "for n, b in prs if False)"),
    "no_unmet_choices": ("solver.py", "None) is None):",
                         "None) is None or 1):"),
    # the elimination of _search_group stops after one pass over the
    # agents, or never shrinks u after a drop
    "elimination_one_pass_only": ("solver.py", "while dropped:",
                                  "if dropped:"),
    "elimination_u_not_recomputed": ("solver.py",
                                     "u &= ~cells.pop(r)[0]",
                                     "cells.pop(r)"),
    "cells_keyed_by_first_agent": ("solver.py",
                                   "cells.setdefault(r & amask[a], set())",
                                   "cells.setdefault(r & amask[agents[0]], "
                                   "set())"),
    # a group's column read at the first rows of the table, not at the
    # group's own positions
    "column_at_wrong_positions": (
        "solver.py", "col = {b: int(b[span][::-1], 2)",
        "col = {b: int(b[:len(cand)][::-1], 2)"),
    # the one-agent witness selection of _search_group; the second adds
    # the [a] refuters of each cell that holds no world kept before
    "single_agent_no_box_refuters": ("solver.py", "for b in box_negs:",
                                     "for b in ():"),
    "single_agent_cstit_refuter_outside_cell": ("solver.py",
                                                "if c & keep:",
                                                "if ~c & keep:"),
    "single_agent_keeps_every_world": ("solver.py", "return found(keep)",
                                       "return found(u)"),
    "allblock_keeps_guard_bits": ("kernel.py", "z - (z >> n)", "z"),
    "first_hit_agents_reversed": (
        "solver.py", "{a: k for k, a in enumerate(agent_order)}",
        "{a: k for k, a in enumerate(agent_order[::-1])}"),
    # the oracle's partitions never have a third cell; the set is still
    # closed under renaming, so _renamings finds every image
    "partitions_at_most_two_cells": (
        "solver.py", "for p in parts for j, c in enumerate(p + (0,))]",
        "for p in parts for j, c in enumerate(p + (0,) * (len(p) < 2))]"),
    "mc_box_over_agent_0_cell": (
        "kripke.py", "return all(ev(g.sub, v) for v in class_of(u))",
        "return all(ev(g.sub, v) for v in _agent_cell(m, 0, u, class_of))"),
    "expand_dstit_without_not_box": (
        "syntax.py", "And(Cstit(h.agent, h.sub), Not(Box(h.sub)))",
        "Cstit(h.agent, h.sub)"),
    # the rebuild walk that expand_dstit, canon and the translations
    # share keeps an & with one rewritten child as it was
    "rewrite_keeps_and_with_one_new_child": (
        "syntax.py", "if left is not None or right is not None:",
        "if left is not None and right is not None:"),
    # a negation over a subformula with a collapsed double negation in it
    "canon_drops_a_negation": (
        "axioms.py", "type(h.sub) is Not else h",
        "type(h.sub) is Not else h.sub if type(h) is Not and h is not g "
        "else h"),
    # the step memo keyed without the cited trees, so a PL step gets the
    # verdict of an earlier step with its conclusion
    "pl_memo_key_without_premises": (
        "axioms.py", "id(tree),\n        *map(id, cited)))", "id(tree)))"),
    # the step memo keyed by the first cited tree only, so an MP or PL
    # step gets the verdict of an earlier step with its line and its
    # first citation
    "step_key_first_cited_only": (
        "axioms.py", "*map(id, cited)))", "*map(id, cited[:1])))"),
    # the step memo keyed without the system, so an AX line gets the
    # verdict of the same line in another system
    "ax_memo_key_without_system": (
        "axioms.py", '(system if rule == "AX" else None, rule',
        "(None, rule"),
    # the step memo keyed without the rule, so an RKD step gets the
    # verdict of an RK step with its line and cited line, or back
    "shape_memo_key_without_rule": (
        "axioms.py", 'else None, rule, params,', "else None, params,"),
    # the monotony rules with the wrong operator
    "rkd_applies_the_box": ("axioms.py",
                            'op = Diamond if rule == "RKD" else Box',
                            "op = Box"),
    "rk_agent_applies_the_dual": (
        "axioms.py", 'partial(PosCstit if rule == "RKD" else Cstit, a)',
        'partial(PosCstit if rule != "NEC" else Cstit, a)'),
    "positive_definition_reversed": (
        "translate.py", "return Implies(s, body)", "return Implies(body, s)"),
    # an audit group swept as its first instance alone
    "audit_sweeps_first_of_group": (
        "axioms.py", "conjoin([instances[j] for j in group])",
        "conjoin([instances[j] for j in group[:1]])"),
    # the columns of a product frame laid out with the row stride, so
    # that a row and a column may not meet
    "product_columns_with_row_stride": (
        "solver.py", "sum(1 << (r * cols + c) for r in range(rows))",
        "sum(1 << (c * rows + r) for r in range(rows))"),
}

# exit 3 on the first wrong answer or witness frame refused when built,
# so that any other exception (exit 1) does not count as a catch
CHECK = """
import importlib.resources
import re
import sys
from helpers import (AX_RK_SHARED_STEPS, CITED_SHARED_STEPS, FIXTURES,
                     MIXED_AUDIT, PL_SHARED_STEPS, TR_PRIME_POLARITY,
                     exhaustive_formulas, line_negations, random_corpus,
                     reference_audit)
from stitkit import axioms, solver, syntax, translate
from stitkit.kripke import mc

cfg1 = solver.SolverConfig(agent_universe=1)
cfg2 = solver.SolverConfig(agent_universe=2)
# the last one needs three cells of agent 0, so three worlds
corpus = list(exhaustive_formulas(12))[::40] + [
    f for f in random_corpus(40, 400, 16) if len(syntax.agents(f)) == 2] + [
    syntax.parse("((<>[0](p & q) & <>[0](p & ~q)) & <>[0]~p)")]
# the last one needs a ~p world in the cell of p: the first ~p type lies
# in the [0]q-false cell, which the <> keeps
single = list(exhaustive_formulas(10, agents=(0,)))[::40] + [
    syntax.parse("(p & ~[0]p & [0]q & <>~[0]q)")]
disjunction = syntax.parse("(" + " | ".join(f"p{i}" for i in range(14)) + ")")
# the messages of a KripkeModel refused when built: a relation that is no
# partition, or a choice of cells that does not meet
REFUSED = re.compile(r"agent [0-9]+: |partitions not rectangular: "
                     r"|permutation property fails: ")
checked = 0


def check(f, cfg, bound, want=None):
    global checked
    try:
        res = solver.sat(f, cfg)
        want = want or solver.oracle(f, 4, cfg).verdict
    except AssertionError as e:  # the witness re-checks of sat and oracle
        print(e, syntax.pretty(f))
        sys.exit(3)
    except ValueError as e:  # the frame check of every witness built
        if not REFUSED.match(str(e)):
            raise
        print(e, syntax.pretty(f))
        sys.exit(3)
    if res.verdict != want:
        print("verdict", syntax.pretty(f))
        sys.exit(3)
    if res.verdict == "SAT":
        model, world = res.witness
        if mc(model, world, f) is not True or len(model.worlds) > bound:
            print("witness", syntax.pretty(f))
            sys.exit(3)
    checked += 1


for f in corpus:
    n = syntax.length(f)
    check(f, cfg2, n ** 2 if len(syntax.agents(f)) < 2 else 2 ** n)
for f in single:
    check(f, cfg1, syntax.length(f) ** 2)
check(disjunction, cfg1, syntax.length(disjunction) ** 2, "SAT")

root = importlib.resources.files("stitkit") / "fixtures"
for name in FIXTURES:
    text = (root / name).read_text()
    for k, doc in enumerate([text, *list(line_negations(text))[::8]]):
        if axioms.check(axioms.parse_derivation(doc)).ok != (k == 0):
            print("derivation", name, k)
            sys.exit(3)
        checked += 1
for k, (doc, ok) in enumerate(PL_SHARED_STEPS + AX_RK_SHARED_STEPS
                               + CITED_SHARED_STEPS):
    if axioms.check(axioms.parse_derivation(doc)).ok != ok:
        print("shared step", k)
        sys.exit(3)
    checked += 1

cstit_only = random_corpus(45, 25, 8, dstit=False) + [
    syntax.parse(t) for t in TR_PRIME_POLARITY]
for tr, inputs in ((translate.tr_prime, cstit_only),
                   (translate.tr, random_corpus(44, 25, 8, cstit=False))):
    for f in inputs:
        try:
            same = (solver.oracle(f, 2, cfg2).verdict
                    == solver.oracle(tr(f), 2, cfg2).verdict)
        except AssertionError as e:  # the oracle's witness re-check
            print(e, syntax.pretty(f))
            sys.exit(3)
        if not same:
            print("translation", syntax.pretty(f))
            sys.exit(3)
        checked += 1

instances = [syntax.parse(t) for t in MIXED_AUDIT]
axioms.schema_instances = lambda name, max_k, grid: instances
for models in ("btac", "kripke"):
    if (axioms.semantic_audit("GPerm", 2, models=models, max_points=3)
            != reference_audit("GPerm", models, instances, 3)):
        print("audit", models)
        sys.exit(3)
    checked += 1

for f in random_corpus(107, 200, 10):
    if solver.sat(f, cfg2).verdict != solver.product_sat(f, 3).verdict:
        print("product", syntax.pretty(f))
        sys.exit(3)
    checked += 1
print(checked)
"""


def _run(tmp_path, name=None):
    pkg = tmp_path / "stitkit"
    shutil.copytree(PACKAGE, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if name is not None:
        module, old, new = MUTANTS[name]
        text = (PACKAGE / module).read_text()
        assert text.count(old) == 1, name
        (pkg / module).write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path),
                                                       str(TESTS)]))
    return subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=300)


def test_unmutated_copy_passes(tmp_path):
    out = _run(tmp_path)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == (2367 + 82 + 1 + 226 + 1 + 6 + 43 + 8 + 8
                               + 8 + 30 + 25 + 2 + 200)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_mutant_is_caught(tmp_path, name):
    out = _run(tmp_path, name)
    assert out.returncode == 3, (out.returncode, out.stderr)
