"""sha256 digests of stitkit's results, to show that a change keeps them.

Run from the repository root, on each tree to compare:

    PYTHONPATH=src:tests python tests/digests.py NAME [NAME ...]

With no NAME it prints every digest.  Each digest hashes one text per
result, in input order.  The script runs itself under PYTHONHASHSEED=0,
since the repr of a frozenset depends on the hash seed; result_text,
which the sat digests and tests/test_result_digests.py use, does not.
A change that keeps every result keeps every digest but the effort
digests of sat, which count the work of the search: the groups
searched, the combinations of profile subsets walked and the profiles
that the elimination before the walk dropped (EFFORT).

  frames     repr of moment_frames(n, k) and general_frames(n, k), one
             line each, for n 1-4 and k 0-3
  oracle     repr(oracle(f, 4)), one line per formula, on every 4th
             decide formula (perfbench.inputs.decide_inputs(1))
  product    product_sat(f, 3) verdict, stats and witness, one line per
             formula, on the same formulas
  audit      repr of the 120 audit reports of seed 1, one line each
  replay     repr((name, ok, line, message)) of axioms.check on the 334
             replay documents of seed 1
  justifications
             repr((name, ok, line, message)) of axioms.check on the
             3,000 single-justification mutations of the six fixtures
             (helpers.justification_mutations), each checked in its
             own system and then in each of the three
  sat-decide repr((verdict, format_model(model) or None, world or None,
             [(key, value) ...])) of sat on the 94,658 decide formulas
             (seed 1 order, agent_universe=2), with the sorted stats
             items other than the search effort counters (EFFORT);
             then, as "effort", the digest of repr of the sorted EFFORT
             items, one per formula; and, as "verdicts", the digest of
             the verdicts alone, one line per formula, which a change of
             witnesses alone keeps
  sat-hard3  the same on the 200 hard3 formulas (corpus order,
             agent_universe=3)
  sat-single the same on pretty(f) of the 8,962 criterion-9 formulas
             (helpers.exhaustive_formulas(10, agents=(0,)),
             agent_universe=1)

Pytest does not collect this file (its name does not start with
test_).  All nine digests take about 34 s of CPU on a 2-vCPU virtual
machine, justifications about 2 s of it.
"""

import hashlib
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import (exhaustive_formulas,  # noqa: E402
                     justification_mutations)
from perfbench import inputs, workloads  # noqa: E402
from stitkit import axioms, kripke, solver, syntax  # noqa: E402


def _lines(texts):
    return (t + "\n" for t in texts)


# the stats of sat that count the search's work, not its result
EFFORT = ("groups", "combos", "pruned")


def result_text(res, effort=None, verdicts=None):
    """repr of the verdict, the witness model as format_model writes it,
    the world and the stats items other than EFFORT, none of which
    depends on the hash seed; the EFFORT items go to effort and the
    verdict to verdicts, hashlib objects, when given."""
    model, world = res.witness or (None, None)
    stats = sorted(res.stats.items())
    if effort is not None:
        effort.update(repr([kv for kv in stats if kv[0] in EFFORT]).encode())
    if verdicts is not None:
        verdicts.update(f"{res.verdict}\n".encode())
    return repr((res.verdict, model and kripke.format_model(model), world,
                 [kv for kv in stats if kv[0] not in EFFORT]))


def sat_results(texts, agent_universe, effort=None, verdicts=None):
    cfg = solver.SolverConfig(agent_universe=agent_universe)
    return (result_text(solver.sat(syntax.parse(t), cfg), effort, verdicts)
            for t in texts)


def oracle_results(texts):
    """result_text of oracle(f, 4) at agent_universe=2."""
    cfg = solver.SolverConfig(agent_universe=2)
    return (result_text(solver.oracle(syntax.parse(t), 4, cfg))
            for t in texts)


def replay_results(docs):
    for name, text, _ in docs:
        res = axioms.check(axioms.parse_derivation(text))
        yield repr((name, res.ok, res.line, res.message))


def justification_results(docs):
    """The check of each derivation in its own system, then in XU,
    AAIA-SYS and GPERM-SYS."""
    for name, text in docs:
        derivation = axioms.parse_derivation(text)
        for system in (None, *axioms.SYSTEMS):
            res = axioms.check(derivation, system)
            yield repr((name, res.ok, res.line, res.message))


def single_texts():
    return [syntax.pretty(f) for f in exhaustive_formulas(10, agents=(0,))]


def sha256(texts):
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()


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
    return replay_results(workloads.Replay().inputs(1)[1])


def justifications():
    return _lines(justification_results(justification_mutations()))


def sat_decide(effort=None, verdicts=None):
    return sat_results(inputs.decide_inputs(1), 2, effort, verdicts)


def sat_hard3(effort=None, verdicts=None):
    return sat_results(inputs.hard3_corpus(), 3, effort, verdicts)


def sat_single(effort=None, verdicts=None):
    return sat_results(single_texts(), 1, effort, verdicts)


DIGESTS = {"frames": frames, "oracle": oracle, "product": product,
           "audit": audit, "replay": replay, "justifications": justifications,
           "sat-decide": sat_decide, "sat-hard3": sat_hard3,
           "sat-single": sat_single}


def main(names):
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0"))
    unknown = [n for n in names if n not in DIGESTS]
    if unknown:
        sys.exit(f"unknown digest {unknown[0]!r}; choose from "
                 f"{', '.join(DIGESTS)}")
    for name in names or DIGESTS:
        if name.startswith("sat-"):
            effort, verdicts = hashlib.sha256(), hashlib.sha256()
            print(name, sha256(DIGESTS[name](effort, verdicts)), "effort",
                  effort.hexdigest(), "verdicts", verdicts.hexdigest(),
                  flush=True)
        else:
            print(name, sha256(DIGESTS[name]()), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
