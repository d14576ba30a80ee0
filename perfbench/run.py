"""Run one benchmark workload against the stitkit sources of this checkout.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Each workload runs as a closed loop with one client in this one process:
the next op starts when the previous one has returned.  The run lasts
until the ops have been busy for ``--seconds``; the benchmark's own work
between ops (taking the next input, checking the answer) is not timed.

On a shared machine the speed of the interpreter drifts (on a shared
2-vCPU virtual machine a fixed loop ran between 1.3 and 2.4 ms within
minutes), so the loop also times a
fixed piece of reference work after every REF_EVERY_S of op time, and
after each set-up.  The times in the result (``setup_s`` and the
``*_norm`` metrics) are scaled to a nominal machine on which that work
takes REF_NOMINAL_MS, each op by the reference times taken nearest to
it.  The raw values are printed too.

``setup_s`` is the median of SETUP_REPEATS set-ups, each in a fresh
process (setup_probe.py): from process start to the end of the stitkit
imports, plus the workload's program-side preparation.

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it wraps stitkit's entry points (see spans.py) and
reports the per-layer metrics, and writes every span to
``.perfbench_out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import itertools
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_REPEATS = 7
SHOWN_FAILURES = 3
REF_EVERY_S = 0.025
REF_ITERATIONS = 5000
REF_WINDOW = 15
REF_NOMINAL_MS = 1.5

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import spans  # noqa: E402
from perfbench.setup_probe import LAYERS  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


class RunFailed(RuntimeError):
    """stitkit cannot be loaded or set up from this checkout."""


def load_stitkit():
    """Import stitkit afresh from this checkout's sources.

    Earlier imports are dropped first, so each call gets modules that no
    tracer has wrapped.
    """
    for name in [m for m in sys.modules
                 if m == "stitkit" or m.startswith("stitkit.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        mods = {n: importlib.import_module(f"stitkit.{n}") for n in LAYERS}
    except ImportError as exc:
        raise RunFailed(f"cannot import stitkit from {SRC}: {exc}")
    origin = Path(mods["syntax"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RunFailed(f"stitkit was imported from {origin}, "
                             f"not from {SRC}")
    return types.SimpleNamespace(**mods)


def reference_work():
    """Fixed interpreter work (calls, small tuples, dict traffic) whose
    time tracks the machine's current speed."""
    seen = {}
    acc = 0
    for i in range(REF_ITERATIONS):
        key = (i % 61, i % 7)
        seen[key] = seen.get(key, 0) + 1
        acc += len(seen) ^ i
    return acc


class Measurement:
    """Per-op latencies and reference times of one run, in seconds."""

    def __init__(self):
        self.latencies = []
        # (ops done before it, seconds) for each timing of reference_work
        self.references = []
        # (seconds, median reference seconds just after) per set-up,
        # each in a fresh process
        self.setups = []
        self.failed = 0
        self.pass_len = None

    @property
    def ops(self):
        return len(self.latencies)

    def reference_s(self):
        return statistics.median(r for _, r in self.references)

    def whole_passes(self, latencies):
        """The latencies of the whole passes over the items, if there was
        one.  The ops of an unfinished last pass are a different sample
        in every run, which would move the percentiles."""
        if self.ops < self.pass_len:
            return latencies
        return latencies[:self.ops - self.ops % self.pass_len]

    def scaled_latencies(self):
        """Latencies of the whole passes at nominal speed: each op is
        scaled by the median of the REF_WINDOW reference times taken
        nearest to it."""
        times = [r for _, r in self.references]
        half = REF_WINDOW // 2
        scale = [REF_NOMINAL_MS / 1000.0
                 / statistics.median(times[max(0, j - half):j + half + 1])
                 for j in range(len(times))]
        out = []
        j = 0
        for i, lat in enumerate(self.latencies):
            while j < len(times) - 1 and self.references[j][0] <= i:
                j += 1
            out.append(lat * scale[j])
        return self.whole_passes(out)


def ops_per_s(latencies):
    return len(latencies) / sum(latencies)


def percentile_ms(latencies, pct):
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return cuts[pct - 1] * 1000.0


def timed(fn):
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def measure(wl, st, state, items, seconds, tracer=None, m=None):
    """Run ops, going round ``items``, until they have been busy for
    ``seconds``.

    An op fails when it raises, or when its answer is wrong or cannot be
    checked.
    """
    m = m or Measurement()
    m.pass_len = len(items)
    latencies = m.latencies
    run_op = wl.op
    if tracer is not None:
        run_op = functools.partial(tracer.span, spans.OP_SPAN, wl.op)
    busy = 0.0
    since_ref = REF_EVERY_S
    clock = time.perf_counter
    for item in itertools.cycle(items):
        out = error = None
        ok = False
        if tracer is not None:
            tracer.op_id = len(latencies)
        t0 = clock()
        try:
            out = run_op(st, state, item)
        except Exception as exc:
            error = exc
        t1 = clock()
        latencies.append(t1 - t0)
        busy += t1 - t0
        since_ref += t1 - t0
        if tracer is not None:
            tracer.paused = True
        if error is None:
            try:
                ok = wl.verify(st, state, item, out)
            except Exception as exc:
                error = exc
        if tracer is not None:
            tracer.paused = False
        if not ok:
            m.failed += 1
            if m.failed <= SHOWN_FAILURES:
                _show_failure(wl, item, error)
        if since_ref >= REF_EVERY_S:
            since_ref = 0.0
            m.references.append((len(latencies), timed(reference_work)))
        if busy >= seconds:
            break
    return m


def _show_failure(wl, item, error):
    print(f"perfbench: {wl.name} op failed on {str(item)[:120]!r}",
          file=sys.stderr)
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)


def environment(st):
    """What a reader needs to reproduce a run."""
    return {
        "git_rev": _git_rev(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "kernel_backend": st.kernel.BACKEND_NAME,
        "STITKIT_KERNEL": os.environ.get("STITKIT_KERNEL"),
        "STITKIT_MAX_ORACLE": os.environ.get("STITKIT_MAX_ORACLE"),
        # whether each set-up probe compiles stitkit or reads its .pyc
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def _git_rev():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def end_to_end(m):
    """Metrics of an untraced run: name -> (value, unit)."""
    scaled = m.scaled_latencies()
    nominal = REF_NOMINAL_MS / 1000.0
    return {
        "setup_s": (statistics.median(t * nominal / r for t, r in m.setups),
                    "s"),
        "ops_per_s_norm": (ops_per_s(scaled), "1/s"),
        "op_ms_p50_norm": (percentile_ms(scaled, 50), "ms"),
        "op_ms_p90_norm": (percentile_ms(scaled, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def raw_lines(m):
    """The unscaled end-to-end figures, for people reading the run."""
    lat = m.whole_passes(m.latencies)
    n = len(lat)
    out = [f"setup_s_raw {statistics.median(t for t, _ in m.setups):.6g} s",
           f"ops_per_s {ops_per_s(lat):.6g} 1/s",
           f"op_ms_p50 {percentile_ms(lat, 50):.6g} ms (n={n})",
           f"op_ms_p90 {percentile_ms(lat, 90):.6g} ms (n={n})"]
    if n >= 1000:
        out.append(f"op_ms_p99 {percentile_ms(lat, 99):.6g} ms (n={n})")
    out.append(f"failed_share {m.failed / m.ops:.6g} ({m.failed}/{m.ops})")
    out.append(f"reference_ms {1000.0 * m.reference_s():.6g} ms "
               f"(nominal {REF_NOMINAL_MS})")
    return out


# Per-layer metrics of a traced run.  Timed-region metrics are per op
# ("calls" count every call, inner recursive calls included; "self_s"
# is self time).  Metrics of program-side set-up cover one traced set-up.
PER_OP = (
    ("syntax.parse", ("calls", "self_s")),
    ("syntax.subformulas", ("calls", "self_s")),
    ("syntax.expand_dstit", ("self_s",)),
    ("solver.sat", ("calls", "self_s", "types", "groups", "combos",
                    "witness_worlds", "inconclusive_leaves",
                    "inconclusive_combos")),
    ("solver.oracle", ("calls", "self_s", "frames")),
    ("kernel.compile_formula", ("self_s",)),
    ("kernel.scan_sat", ("calls", "self_s", "valuations")),
    ("kernel.scan_valid", ("calls", "self_s", "valuations")),
    ("kripke.mc", ("calls", "self_s")),
    ("kripke.box_classes", ("calls", "self_s")),
    ("btac.eval", ("calls", "self_s")),
    ("axioms.parse_derivation", ("self_s",)),
    ("axioms.check", ("calls", "self_s", "rejected")),
    ("axioms.canon", ("calls", "self_s")),
    ("axioms.semantic_audit", ("self_s",)),
    ("axioms.schema_instances", ("self_s",)),
)
SETUP = (
    ("solver.frames.self_s", ("solver.moment_frames",
                              "solver.general_frames")),
    ("kripke.parse_model.self_s", ("kripke.parse_model",)),
    ("btac.parse_model.self_s", ("btac.parse_model",)),
    ("btac.validate_model.self_s", ("btac.validate_model",)),
)


def per_layer(tracer, m):
    """Metrics of a traced run: name -> (value, unit)."""
    n = m.ops
    count, self_s, counters = tracer.totals(lambda op: op >= 0)
    out = {}
    for entry, kinds in PER_OP:
        for kind in kinds:
            if kind == "calls":
                value = count[entry] + counters[entry + ".inner_calls"]
            elif kind == "self_s":
                value = self_s[entry]
            else:
                value = counters[f"{entry}.{kind}"]
            unit = "s/op" if kind == "self_s" else "1/op"
            out[f"{entry}.{kind}"] = (value / n, unit)
    scans = count["kernel.scan_sat"]
    out["kernel.scan_sat.hit_ratio"] = (
        counters["kernel.scan_sat.hits"] / scans if scans else 0.0, "share")
    out["bench.self_s"] = (self_s[spans.OP_SPAN] / n, "s/op")
    out["trace.ops_per_s_norm"] = (ops_per_s(m.scaled_latencies()), "1/s")
    _, setup_self, _ = tracer.totals(lambda op: op == spans.SETUP_OP)
    for metric, entries in SETUP:
        out[metric] = (sum(setup_self[e] for e in entries), "s")
    return out


def probe_setup(workload, context):
    """(seconds, reference seconds) of one set-up in a fresh process;
    see setup_probe.py."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload,
         repr(time.monotonic())],
        input=context, capture_output=True, cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RunFailed("set-up probe failed:\n"
                        + proc.stderr.decode(errors="replace"))
    return tuple(json.loads(proc.stdout))


def run(workload, seed, seconds, trace):
    """One run; returns (environment, metrics, Measurement)."""
    wl = WORKLOADS[workload]
    ctx, items = wl.inputs(seed)
    if trace:
        st = load_stitkit()
        tracer = spans.Tracer()
        tracer.install(vars(st))
        state = wl.prepare(st, ctx)
        m = measure(wl, st, state, items, seconds, tracer)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{workload}.tsv")
        metrics = per_layer(tracer, m)
    else:
        m = Measurement()
        st = load_stitkit()
        context = pickle.dumps(ctx)
        m.setups = [probe_setup(workload, context)
                    for _ in range(SETUP_REPEATS)]
        state = wl.prepare(st, ctx)
        measure(wl, st, state, items, seconds, m=m)
        metrics = end_to_end(m)
    return environment(st), metrics, m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if sys.flags.optimize:
        # stitkit re-checks witnesses with bare asserts, which -O removes
        print("perfbench: refusing to run under -O or PYTHONOPTIMIZE",
              file=sys.stderr)
        return 2
    try:
        env, metrics, m = run(args.workload, args.seed, args.seconds,
                              args.trace)
    except (RunFailed, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"ops {m.ops}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    if not args.trace:
        print("\n".join(raw_lines(m)))
    print(json.dumps({
        "correct": m.failed == 0, "attempted": m.ops, "failed": m.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
