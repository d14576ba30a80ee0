"""Effort of sat's type search on two fixed samples, as one JSON object.

Run from the repository root, on each tree to compare:

    PYTHONPATH=src:tests python tests/search_counts.py [three|one ...]

  three  the three-agent sample: random.Random(77), each draw
         perfbench.inputs.random_formula(rng, rng.randint(50, 90),
         ("p", "q", "r"), (0, 1, 2)), the first 60 of length 50-90, at
         agent_universe=3
  one    the one-agent corpus: helpers.random_corpus with seeds 101-103
         and budgets 20, 30 and 45, 500 formulas each, atoms p, q, r and
         agent 0 only, at agent_universe=1

For each sample it reports the verdicts (SAT, UNSAT, or the cap of an
inconclusive search), the sums of the combos and pruned counters over
the decided formulas, and the CPU time of the sat calls
(time.process_time).  Pytest does not collect this file.
"""

import json
import random
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from helpers import random_corpus  # noqa: E402
from perfbench import inputs  # noqa: E402
from stitkit import solver, syntax  # noqa: E402


def three_agent_sample():
    rng = random.Random(77)
    out = []
    while len(out) < 60:
        f = inputs.random_formula(rng, rng.randint(50, 90), ("p", "q", "r"),
                                  (0, 1, 2))
        if 50 <= inputs.length(f) <= 90:
            out.append(syntax.parse(inputs.text(f)))
    return out


def one_agent_corpus():
    return [f for seed in (101, 102, 103) for budget in (20, 30, 45)
            for f in random_corpus(seed, 500, budget,
                                   atom_names=("p", "q", "r"), agents=(0,))]


def counts(formulas, agent_universe):
    cfg = solver.SolverConfig(agent_universe=agent_universe)
    verdicts, effort, cpu = Counter(), Counter(), 0.0
    for f in formulas:
        start = time.process_time()
        try:
            res = solver.sat(f, cfg)
        except solver.InconclusiveError as e:
            verdicts["inconclusive: " + e.stats["cap"]] += 1
        else:
            verdicts[res.verdict] += 1
            effort.update({k: res.stats.get(k, 0)
                           for k in ("combos", "pruned")})
        cpu += time.process_time() - start
    return {"formulas": len(formulas), "verdicts": dict(sorted(
        verdicts.items())), **effort, "cpu_s": round(cpu, 2)}


SAMPLES = {"three": (three_agent_sample, 3), "one": (one_agent_corpus, 1)}


def main(names):
    unknown = [n for n in names if n not in SAMPLES]
    if unknown:
        sys.exit(f"unknown sample {unknown[0]!r}; choose from "
                 f"{', '.join(SAMPLES)}")
    out = {}
    for name in names or SAMPLES:
        make, agent_universe = SAMPLES[name]
        out[name] = counts(make(), agent_universe)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
