"""Time one set-up of stitkit in a fresh process.

    python3 perfbench/setup_probe.py WORKLOAD T_SPAWN < pickled-context

run.py starts this once per ``setup_s`` sample, with T_SPAWN its own
``time.monotonic()`` just before the start and the workload's input
context (from ``inputs(seed)``) pickled on standard input.  It prints
one JSON list: the set-up seconds, then the median seconds of the
reference work just after.

The set-up is what a user of a fresh process waits for before the first
op: from the start of the process to the end of the stitkit imports,
plus the workload's ``prepare``.  Nothing of the benchmark is imported
before stitkit, so stitkit pays for every module it pulls in that the
interpreter has not loaded at start-up.  Reading the context and
importing the benchmark's own modules happen between the two timed
parts and are not counted.  ``time.monotonic`` is one system-wide clock
on Linux, so T_SPAWN and this process's readings can be subtracted.
"""

import os
import sys
import time

LAYERS = ("syntax", "solver", "kernel", "kripke", "btac", "axioms")


def main():
    workload, t_spawn = sys.argv[1], float(sys.argv[2])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    for name in LAYERS:
        __import__("stitkit." + name)
    imported = time.monotonic() - t_spawn

    import json
    import pickle
    import statistics
    import types

    sys.path.insert(0, root)
    from perfbench import run

    st = types.SimpleNamespace(**{n: sys.modules["stitkit." + n]
                                  for n in LAYERS})
    ctx = pickle.load(sys.stdin.buffer)
    t0 = time.monotonic()
    run.WORKLOADS[workload].prepare(st, ctx)
    prepared = time.monotonic() - t0
    ref = statistics.median(run.timed(run.reference_work)
                            for _ in range(run.REF_WINDOW))
    print(json.dumps([imported + prepared, ref]))


if __name__ == "__main__":
    main()
