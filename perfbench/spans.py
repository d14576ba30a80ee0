"""Spans around stitkit's public entry points, recorded from outside.

``Tracer.install`` replaces each entry point listed in ENTRY_POINTS with
a wrapper, in every loaded stitkit module that holds it (so names
imported into other modules, such as ``solver.mc`` or ``axioms.parse``,
are wrapped too).  A wrapper records one span: name, start, end, parent
span and op id.  Spans stay in memory until the run ends.

Recursive entry points record a span only at the outermost call and
count the inner calls.  A layer's self time is the duration of its spans
minus the time their child spans cover.
"""

from __future__ import annotations

import sys
import time

# (module, function, recursive)
ENTRY_POINTS = (
    ("syntax", "parse", False),
    ("syntax", "subformulas", False),
    ("syntax", "expand_dstit", True),
    ("solver", "sat", False),
    ("solver", "oracle", False),
    ("solver", "moment_frames", False),
    ("solver", "general_frames", False),
    ("kernel", "compile_formula", False),
    ("kernel", "scan_sat", False),
    ("kernel", "scan_valid", False),
    ("kripke", "mc", False),
    ("kripke", "box_classes", False),
    ("kripke", "parse_model", False),
    ("btac", "eval", True),
    ("btac", "parse_model", False),
    ("btac", "validate_model", False),
    ("axioms", "parse_derivation", False),
    ("axioms", "check", False),
    ("axioms", "canon", True),
    ("axioms", "semantic_audit", False),
    ("axioms", "schema_instances", False),
)

OP_SPAN = "bench.op"
SETUP_OP = -1


def _scan_counters(counters, name, args, result):
    frame, n_atoms = args[2], args[3]
    counters[name + ".hits"] += result is not None
    counters[name + ".valuations"] += (
        result[0] + 1 if result is not None
        else 2 ** (n_atoms * frame.n_points))


def _observe(counters, name, args, result):
    """Counters taken from what an entry point returns."""
    if name == "solver.sat":
        for key in ("types", "groups", "combos", "witness_worlds"):
            counters[f"solver.sat.{key}"] += result.stats.get(key, 0)
    elif name == "solver.oracle":
        counters["solver.oracle.frames"] += result.stats["frames"]
    elif name in ("kernel.scan_sat", "kernel.scan_valid"):
        _scan_counters(counters, name, args, result)
    elif name == "axioms.check":
        counters["axioms.check.rejected"] += not result.ok


def _observe_error(counters, name, exc):
    # The leaf cap in solver._types raises without stats; the message
    # names the cap that was hit.
    if name == "solver.sat" and type(exc).__name__ == "InconclusiveError":
        cap = ("leaves" if "independent subformulas" in str(exc)
               else "combos")
        counters[f"solver.sat.inconclusive_{cap}"] += 1


class _Counts(dict):
    def __missing__(self, key):
        return 0


class Tracer:
    """Spans and counters of one run, kept in memory."""

    def __init__(self):
        # span: [name, start, end, parent index, op id]
        self.spans = []
        self.stack = []
        self.op_id = SETUP_OP
        self.open_recursive = _Counts()
        # while paused (the benchmark checking an answer) nothing is recorded
        self.paused = False
        # per op id: counters and inner recursive calls
        self.counters = {}

    def _counters(self):
        c = self.counters.get(self.op_id)
        if c is None:
            c = self.counters[self.op_id] = _Counts()
        return c

    def span(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        spans, stack = self.spans, self.stack
        idx = len(spans)
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id]
        spans.append(rec)
        stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            stack.pop()

    def wrap(self, name, fn, recursive):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            if recursive and tracer.open_recursive[name]:
                tracer._counters()[name + ".inner_calls"] += 1
                return fn(*args, **kwargs)
            if recursive:
                tracer.open_recursive[name] += 1
            try:
                result = tracer.span(name, fn, *args, **kwargs)
            except Exception as exc:
                _observe_error(tracer._counters(), name, exc)
                raise
            finally:
                if recursive:
                    tracer.open_recursive[name] -= 1
            _observe(tracer._counters(), name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, modules):
        """Wrap every entry point; ``modules`` maps layer name to module."""
        loaded = [m for key, m in list(sys.modules.items())
                  if key == "stitkit" or key.startswith("stitkit.")]
        for layer, func, recursive in ENTRY_POINTS:
            orig = getattr(modules[layer], func)
            wrapped = self.wrap(f"{layer}.{func}", orig, recursive)
            for mod in loaded:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapped)

    def self_times(self):
        """Self time of every span, in span order."""
        out = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] >= 0:
                out[s[3]] -= s[2] - s[1]
        return out

    def totals(self, op_filter):
        """Per span name: (spans, self seconds), and summed counters,
        over the op ids accepted by op_filter."""
        spans = _Counts()
        self_s = _Counts()
        for s, own in zip(self.spans, self.self_times()):
            if op_filter(s[4]):
                spans[s[0]] += 1
                self_s[s[0]] += own
        counters = _Counts()
        for op, c in self.counters.items():
            if op_filter(op):
                for key, value in c.items():
                    counters[key] += value
        return spans, self_s, counters

    def write(self, path):
        """Write all spans, one per line: op name start end parent."""
        with open(path, "w") as fh:
            fh.write("op\tname\tstart\tend\tparent\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{op}\t{name}\t{start:.9f}\t{end:.9f}\t{parent}\n")
