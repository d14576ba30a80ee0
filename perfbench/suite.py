"""Run every workload, untraced and then traced, and print all metrics.

    python3 perfbench/suite.py [--seed 1]

Each run is its own process (perfbench/run.py) and lasts ``run_seconds``
of BENCHMARK.json.  For each workload this prints the end-to-end metrics
with their units (including op_ms_p99 where a run holds at least 1,000
ops, and failed_share), the per-layer metrics of the traced run that are
not zero, and the tracing overhead: one minus traced over untraced
ops_per_s.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} (trace {trace}) exited with "
                         f"{proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def main(argv=None):
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args(argv)
    correct = True
    for wl in (w["name"] for w in config["workloads"]):
        human, plain = run_once(wl, args.seed, config["run_seconds"], 0)
        _, traced = run_once(wl, args.seed, config["run_seconds"], 1)
        overhead = 1.0 - (traced["metrics"]["trace.ops_per_s_norm"]["value"]
                          / plain["metrics"]["ops_per_s_norm"]["value"])
        print(f"== {wl}")
        for line in human[1:]:
            print("  " + line)
        print(f"  trace_overhead {overhead:.4f} share")
        for name, m in traced["metrics"].items():
            if m["value"]:
                print(f"  {name} {m['value']:.6g} {m['unit']}")
        correct = correct and plain["correct"] and traced["correct"]
    return 0 if correct else 1

if __name__ == "__main__":
    sys.exit(main())
