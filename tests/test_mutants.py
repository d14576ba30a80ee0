"""Planted defects in the type-based engine.

Each mutant is one literal substitution in ``stitkit/solver.py``, applied
to a copy of the package.  A fresh interpreter runs every 40th formula
of the criterion-4 corpus through ``sat`` on the copy, against
``oracle(f, 4)``, with the ``mc`` re-check of every witness and the
``2**length`` world bound, and must catch each mutant; the unmutated
copy must pass.

One mutant cannot be caught.  _types applies the T constraint to every
[]-subformula, so each type of a group whose profile has []g true
already has g true, and sat's settledness filter removes nothing.  Its
test pins that: the mutated copy passes like the unmutated one.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from stitkit import solver

SOLVER = Path(solver.__file__)
TESTS = Path(__file__).resolve().parent

# name -> (text in solver.py, its replacement)
MUTANTS = {
    "types_without_T": ("ok &= ~col[i] | col[body]", "ok &= full"),
    "no_settledness_filter": (
        "cand = [t for t in group if t & need == need]", "cand = group"),
    "no_false_box_refutation": ("all(u & ~col(b) for b in box_negs)",
                                "all(u & ~col(b) for b in ())"),
    "no_false_cstit_refutation": ("for n, b in prs if not r & n)",
                                  "for n, b in prs if False)"),
    "no_unmet_choices": ("None) is None):", "None) is None or 1):"),
    "cells_keyed_by_first_agent": ("cells.setdefault(t & amask[a], set())",
                                   "cells.setdefault(t & amask[agents[0]], "
                                   "set())"),
}
EQUIVALENT = {"no_settledness_filter"}

# exit 3 on the first wrong answer, so that any other exception (exit 1)
# does not count as a catch
CHECK = """
import sys
from helpers import exhaustive_formulas
from stitkit import solver, syntax
from stitkit.kripke import mc

cfg = solver.SolverConfig(agent_universe=2)
checked = 0
for f in list(exhaustive_formulas(12))[::40]:
    try:
        res = solver.sat(f, cfg)
    except AssertionError as e:  # sat's own witness re-check
        print(e, syntax.pretty(f))
        sys.exit(3)
    if res.verdict != solver.oracle(f, 4, cfg).verdict:
        print("verdict", syntax.pretty(f))
        sys.exit(3)
    if res.verdict == "SAT":
        model, world = res.witness
        if (mc(model, world, f) is not True
                or len(model.worlds) > 2 ** syntax.length(f)):
            print("witness", syntax.pretty(f))
            sys.exit(3)
    checked += 1
print(checked)
"""


def _run(tmp_path, name=None):
    pkg = tmp_path / "stitkit"
    shutil.copytree(SOLVER.parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    if name is not None:
        old, new = MUTANTS[name]
        text = SOLVER.read_text()
        assert text.count(old) == 1, name
        (pkg / "solver.py").write_text(text.replace(old, new))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path),
                                                       str(TESTS)]))
    return subprocess.run([sys.executable, "-c", CHECK], env=env,
                          capture_output=True, text=True, timeout=300)


def test_unmutated_copy_passes(tmp_path):
    out = _run(tmp_path)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == 2367


@pytest.mark.parametrize("name", sorted(set(MUTANTS) - EQUIVALENT))
def test_mutant_is_caught(tmp_path, name):
    out = _run(tmp_path, name)
    assert out.returncode == 3, (out.returncode, out.stderr)


@pytest.mark.parametrize("name", sorted(EQUIVALENT))
def test_equivalent_mutant_passes(tmp_path, name):
    out = _run(tmp_path, name)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout) == 2367
