"""sha256 digests of stitkit's results, to show that a change keeps them.

Run from the repository root, on each tree to compare:

    PYTHONPATH=src:tests python tests/digests.py NAME [NAME ...]

With no NAME it prints every digest.  Each digest hashes one text per
result, in input order; the script runs itself under PYTHONHASHSEED=0.

  frames     repr of moment_frames(n, k) and general_frames(n, k), one
             line each, for n 1-4 and k 0-3
  oracle     repr(oracle(f, 4)), one line per formula, on every 4th
             decide formula (perfbench.inputs.decide_inputs(1))
  product    product_sat(f, 3) verdict, stats and witness, one line per
             formula, on the same formulas
  audit      repr of the 120 audit reports of seed 1, one line each
  replay     repr((name, ok, line, message)) of axioms.check on the 334
             replay documents of seed 1
  sat-decide repr((verdict, format_model(model) or None, world or None,
             sorted(stats.items()))) of sat on the 94,658 decide formulas
             (seed 1 order, agent_universe=2)
  sat-hard3  the same on the 200 hard3 formulas (corpus order,
             agent_universe=3)
  sat-single the same on pretty(f) of the 8,962 criterion-9 formulas
             (helpers.exhaustive_formulas(10, agents=(0,)),
             agent_universe=1)

Pytest does not collect this file (its name does not start with
test_).  All eight digests take about 32 s of CPU on a 2-vCPU virtual
machine.
"""

import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import exhaustive_formulas  # noqa: E402
from perfbench import inputs, workloads  # noqa: E402
from stitkit import axioms, kripke, solver, syntax  # noqa: E402


def _lines(texts):
    return (t + "\n" for t in texts)


def frames():
    return _lines(repr(of(n, k)) for n in range(1, 5) for k in range(4)
                  for of in (solver.moment_frames, solver.general_frames))


def oracle():
    cfg = solver.SolverConfig(agent_universe=2)
    return _lines(repr(solver.oracle(syntax.parse(t), 4, cfg))
                  for t in inputs.decide_inputs(1)[::4])


def product():
    def text(t):
        try:
            res = solver.product_sat(syntax.parse(t), 3)
        except ValueError as e:
            return str(e)
        return f"{res.verdict} {res.stats} {res.witness}"
    return _lines(map(text, inputs.decide_inputs(1)[::4]))


def audit():
    return _lines(repr(axioms.semantic_audit(
        schema, 2, grid=[syntax.parse(phi)], models=models, max_points=4))
        for schema, models, phi in inputs.audit_inputs(1))


def replay():
    _, docs = workloads.Replay().inputs(1)
    for name, text, _ in docs:
        res = axioms.check(axioms.parse_derivation(text))
        yield repr((name, res.ok, res.line, res.message))


def _sat(texts, agent_universe):
    cfg = solver.SolverConfig(agent_universe=agent_universe)
    for t in texts:
        res = solver.sat(syntax.parse(t), cfg)
        model, world = res.witness or (None, None)
        yield repr((res.verdict, model and kripke.format_model(model),
                    world, sorted(res.stats.items())))


def sat_decide():
    return _sat(inputs.decide_inputs(1), 2)


def sat_hard3():
    return _sat(inputs.hard3_corpus(), 3)


def sat_single():
    return _sat((syntax.pretty(f)
                 for f in exhaustive_formulas(10, agents=(0,))), 1)


DIGESTS = {"frames": frames, "oracle": oracle, "product": product,
           "audit": audit, "replay": replay, "sat-decide": sat_decide,
           "sat-hard3": sat_hard3, "sat-single": sat_single}


def main(names):
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    unknown = [n for n in names if n not in DIGESTS]
    if unknown:
        sys.exit(f"unknown digest {unknown[0]!r}; choose from "
                 f"{', '.join(DIGESTS)}")
    for name in names or DIGESTS:
        h = hashlib.sha256()
        for text in DIGESTS[name]():
            h.update(text.encode())
        print(name, h.hexdigest(), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
