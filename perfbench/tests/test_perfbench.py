"""Self-tests of the benchmark harness.

Run with: python3 -m pytest perfbench/tests
"""

import itertools
import json
import pickle
import shutil
import subprocess
import sys

import pytest

from perfbench import run, spans
from perfbench.workloads import WORKLOADS

SHORT = 0.3  # busy seconds per measured run in these tests


def _inputs_bytes(name, seed, count=300):
    ctx, items = WORKLOADS[name].inputs(seed)
    texts = [] if ctx is None else ctx[1]
    return repr((texts, items[:count])).encode()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert _inputs_bytes(name, 7) == _inputs_bytes(name, 7)
    assert _inputs_bytes(name, 7) != _inputs_bytes(name, 8)


def _flip_sat(orig):
    def sat(f, cfg=None):
        res = orig(f, cfg)
        verdict = "UNSAT" if res.verdict == "SAT" else "SAT"
        return type(res)(verdict, res.witness, res.stats)
    return sat


def _plant_counterexample(orig):
    def semantic_audit(*args, **kwargs):
        rep = orig(*args, **kwargs)
        rep["counterexamples"].append({"instance": "planted"})
        return rep
    return semantic_audit


def _flip_check(orig):
    def check(derivation, system=None):
        res = orig(derivation, system)
        return type(res)(not res.ok, res.line, res.message)
    return check


def _negate_outermost(orig):
    # btac.eval recurses through its module global, which the patch
    # replaces too; only the outermost answer is negated
    depth = [0]

    def negated(*args):
        depth[0] += 1
        try:
            value = orig(*args)
        finally:
            depth[0] -= 1
        return value if depth[0] else not value
    return negated


PLANTED = {
    "decide": ("solver", "sat", _flip_sat),
    "hard3": ("solver", "sat", _flip_sat),
    "audit": ("axioms", "semantic_audit", _plant_counterexample),
    "replay": ("axioms", "check", _flip_check),
    "check_kripke": ("kripke", "mc", _negate_outermost),
    "check_btac": ("btac", "eval", _negate_outermost),
}


def _measure(name, patch=None, tracer=None, seconds=SHORT):
    wl = WORKLOADS[name]
    ctx, items = wl.inputs(1)
    st = run.load_stitkit()
    if tracer is not None:
        tracer.install(vars(st))
    state = wl.prepare(st, ctx)
    if patch is not None:
        patch(st)
    return st, run.measure(wl, st, state, items, seconds, tracer)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_unpatched_run_has_no_failures(name):
    _, m = _measure(name)
    assert m.ops and m.failed == 0 and m.references


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_planted_wrong_answer_is_a_failure(name, monkeypatch):
    layer, func, planter = PLANTED[name]

    def patch(st):
        module = getattr(st, layer)
        monkeypatch.setattr(module, func, planter(getattr(module, func)))

    _, m = _measure(name, patch)
    assert m.failed / m.ops > 0


def test_planted_exception_is_a_failure(monkeypatch):
    def patch(st):
        orig = st.syntax.parse
        calls = itertools.count()

        def parse(text):
            if next(calls) % 2:
                raise RuntimeError("planted")
            return orig(text)
        monkeypatch.setattr(st.syntax, "parse", parse)

    _, m = _measure("decide", patch)
    assert 0 < m.failed < m.ops


@pytest.mark.parametrize("name", ["decide", "check_btac", "replay"])
def test_traced_self_times_add_up_to_op_wall_time(name):
    tracer = spans.Tracer()
    _, m = _measure(name, tracer=tracer)
    assert m.failed == 0
    latencies = m.latencies
    own = tracer.self_times()
    per_op = {}
    op_wall = {}
    for s, t in zip(tracer.spans, own):
        if s[4] >= 0:
            per_op[s[4]] = per_op.get(s[4], 0.0) + t
            if s[0] == spans.OP_SPAN:
                op_wall[s[4]] = s[2] - s[1]
    assert sorted(op_wall) == list(range(len(latencies)))
    for op, wall in op_wall.items():
        # layer self times plus the benchmark's own (the op span's self
        # time) cover the traced op exactly, within the measured latency
        assert per_op[op] == pytest.approx(wall, rel=1e-9, abs=1e-12)
        assert wall <= latencies[op]
        assert min(t for s, t in zip(tracer.spans, own)
                   if s[4] == op) >= -1e-12


def test_tracer_wraps_imported_names_and_counts_recursion():
    tracer = spans.Tracer()
    st, m = _measure("check_btac", tracer=tracer)
    assert st.solver.mc is st.kripke.mc
    assert st.axioms.parse is st.syntax.parse
    assert st.kripke.mc.__wrapped__ is not st.kripke.mc
    count, _, counters = tracer.totals(lambda op: op >= 0)
    assert count["btac.eval"] == m.ops
    assert counters["btac.eval.inner_calls"] > 0


def test_inconclusive_cap_is_counted_by_reason():
    st = run.load_stitkit()
    tracer = spans.Tracer()
    tracer.install(vars(st))
    tracer.op_id = 0
    wide = " & ".join(f"p{i}" for i in range(st.solver.ENGINE_MAX_LEAVES + 1))
    with pytest.raises(st.solver.InconclusiveError):
        st.solver.sat(st.syntax.parse(f"({wide})"))
    _, _, counters = tracer.totals(lambda op: op == 0)
    assert counters["solver.sat.inconclusive_leaves"] == 1
    assert counters["solver.sat.inconclusive_combos"] == 0


def test_setup_probe_times_a_fresh_process():
    ctx, _ = WORKLOADS["check_btac"].inputs(1)
    seconds, reference = run.probe_setup("check_btac", pickle.dumps(ctx))
    assert seconds > 0 and reference > 0


def _run_cli(*extra, workload="replay", cwd=None, script=run.__file__):
    return subprocess.run(
        [sys.executable, *extra, str(script), "--workload", workload,
         "--seed", "1", "--seconds", "0.1"],
        capture_output=True, text=True, cwd=cwd, timeout=120)


def test_refuses_to_run_optimized():
    p = _run_cli("-O")
    assert p.returncode == 2
    assert "correct" not in p.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    p = _run_cli(workload="decide", cwd=tmp_path,
                 script=tmp_path / "perfbench" / "run.py")
    assert p.returncode != 0
    assert "correct" not in p.stdout


def test_result_line_has_the_contract_keys():
    p = _run_cli()
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        m["name"] for m in json.loads(
            (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
