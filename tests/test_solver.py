import itertools
import os
import subprocess
import sys
import time

import pytest

from stitkit import kernel, kripke, solver, syntax
from stitkit.kripke import mc
from stitkit.solver import (InconclusiveError, SolverConfig, general_frames,
                            moment_frames, oracle, product_sat, sat,
                            sat_single_agent, valid)
from stitkit.syntax import length, parse, pretty

from helpers import (SIZED_SAT, exhaustive_formulas, random_corpus,
                     reference_frame_gpp, reference_oracle,
                     reference_search_group, reference_types)

CFG2 = SolverConfig(agent_universe=2)
CFG3 = SolverConfig(agent_universe=3)


def test_known_sat():
    for text in ["p", "([0]p & ~[]p)", "{0}p", "(<>p & <>~p)",
                 "(<0>p & <1>~p)", "({0}p & {1}q)"]:
        res = sat(parse(text), CFG2)
        assert res.verdict == "SAT", text
        model, world = res.witness
        assert mc(model, world, parse(text))


def test_known_unsat():
    for text in ["(p & ~p)", "({0}p & []p)", "([]p & ~[0]p)",
                 "{0}(p | ~p)", "(<>[0]p & <>[1]~p & [](~[0]p | ~[1]~p))"]:
        assert sat(parse(text), CFG2).verdict == "UNSAT", text


def test_independence_is_enforced():
    # without independence of agents this would be satisfiable
    f = parse("(<>[0]p & <>[1]q & ~<>([0]p & [1]q))")
    assert sat(f, CFG2).verdict == "UNSAT"


def test_valid():
    assert valid(parse("([]p -> [0]p)"), CFG2)
    assert valid(parse("([0]p -> p)"), CFG2)
    assert valid(parse("({0}p -> ~[]p)"), CFG2)
    assert not valid(parse("([0]p -> []p)"), CFG2)
    assert not valid(parse("p"), CFG2)


def test_witnesses_verify_and_fit_bound():
    for f in random_corpus(31, 150, 10):
        res = sat(f, CFG2)
        if res.verdict == "SAT":
            model, world = res.witness
            assert mc(model, world, f), pretty(f)
            assert len(model.worlds) <= 2 ** length(f)


def test_engine_matches_oracle_random():
    for f in random_corpus(32, 150, 9):
        want = oracle(f, 3, CFG2).verdict
        assert sat(f, CFG2).verdict == want, pretty(f)


def _satisfiable_in(f, frames_of, max_worlds):
    agents = sorted(syntax.agents(f))
    atom_names = sorted(syntax.atoms(f))
    ops, args = kernel.compile_formula(
        f, {p: k for k, p in enumerate(atom_names)},
        {a: k for k, a in enumerate(agents)})
    return any(kernel.scan_sat(ops, args, frame, len(atom_names))
               for n in range(1, max_worlds + 1)
               for frame in frames_of(n, len(agents)))


def test_oracle_moment_and_general_agree():
    for f in random_corpus(33, 80, 8):
        a = _satisfiable_in(f, moment_frames, 3)
        b = _satisfiable_in(f, general_frames, 3)
        assert a == b, pretty(f)


def test_oracle_scans_each_frame_once():
    f = parse("(([0]p & [1]q) & (r & ~r))")
    res = oracle(f, 3, CFG2)
    assert res.verdict == "UNSAT"
    assert res.stats["frames"] == sum(len(general_frames(n, 2))
                                      for n in range(1, 4))


def test_oracle_matches_frame_at_a_time_reference():
    # one scan per world count: the verdict, witness and frame count of
    # one scan per frame
    corpus = [parse(t) for t in SIZED_SAT] + random_corpus(
        34, 120, 10, atom_names=("p", "q", "r"))
    sizes, verdicts = set(), set()
    for f in corpus:
        for max_worlds in (3, 4):
            res = oracle(f, max_worlds, CFG2)
            assert res == reference_oracle(f, max_worlds, CFG2), pretty(f)
            verdicts.add(res.verdict)
            if res.verdict == "SAT":
                sizes.add(len(res.witness[0].worlds))
    assert sizes == {1, 2, 3, 4} and "UNSAT" in verdicts


def test_general_frames_extend_moment_frames():
    for n_agents in (2, 3):
        for n in range(1, 5):
            moment = moment_frames(n, n_agents)
            general = general_frames(n, n_agents)
            assert general[:len(moment)] == moment
            assert all(len(fr.blocks[-1]) > 1
                       for fr in general[len(moment):])


def test_gpp_is_rectangularity_per_class():
    # every partition tuple: the direct permutation-property check agrees
    # with "no settledness class has an unmet choice of cells", and the
    # frames list one tuple per renaming class of those that pass
    for n_agents in (2, 3):
        for n in range(1, 5):
            passing = set()
            for parts in itertools.product(*(
                    solver._mask_partitions(n) for _ in range(n_agents))):
                classes = [sum(1 << i for i in g) for g in kripke.components(
                    range(n), ([i for i in range(n) if c >> i & 1]
                               for cells in parts for c in cells))]
                per_class = next(kripke.unmet_per_class(parts, classes),
                                 None) is None
                assert per_class == reference_frame_gpp(parts, n), parts
                if per_class:
                    passing.add(solver._canonical(parts, n))
            frames = general_frames(n, n_agents)
            keys = [solver._canonical(fr.blocks[:-1], n) for fr in frames]
            assert sorted(keys) == sorted(passing)


def test_frame_counts():
    assert [len(moment_frames(n, 3)) for n in range(1, 5)] == [1, 4, 7, 16]
    assert [len(general_frames(n, 3)) for n in range(1, 5)] == [1, 5, 12, 38]


def test_oracle_guards():
    # a bound below 1 would sweep no frame and answer UNSAT
    for bound in (solver.ORACLE_MAX_WORLDS + 1, 0, -1):
        with pytest.raises(ValueError):
            oracle(parse("p"), bound, CFG2)


def test_product_sat_never_skips_a_frame():
    # an empty bound, or a frame too large to scan, would answer UNSAT
    for bound in (0, -1):
        with pytest.raises(ValueError):
            product_sat(parse("p"), bound)
    f = parse("(<0>p & <0>~p & <1>q & <1>~q & a & b & c & d & e)")
    with pytest.raises(ValueError):
        product_sat(f, 3)
    # a hit on a small frame ends the scan before any frame too large
    res = product_sat(parse("(a & b & c & d & e & f & g & h & i)"), 3)
    assert (res.verdict, res.stats["rows"], res.stats["cols"]) == \
        ("SAT", 1, 1)


def test_product_sat_stats():
    # agent 0 chooses the row, so its cell holds one world per column:
    # <0>p & <0>~p needs two columns, and a swapped agent order two rows
    for text, rows, cols in (("(<0>p & <0>~p)", 1, 2),
                             ("(<1>p & <1>~p)", 2, 1)):
        assert product_sat(parse(text), 3).stats == {
            "engine": "product", "rows": rows, "cols": cols}
    assert product_sat(parse("(p & ~p)"), 2).stats == {"engine": "product"}


def test_agent_universe_guard():
    with pytest.raises(ValueError):
        sat(parse("[5]p"), CFG2)


def test_single_agent():
    cfg1 = SolverConfig(agent_universe=1)
    f = parse("({0}p & <>~[0]p)")
    res = sat_single_agent(f, cfg1)
    assert res.verdict == "SAT"
    model, world = res.witness
    assert mc(model, world, f)
    assert len(model.worlds) <= length(f) ** 2
    assert sat_single_agent(parse("([0]p & ~[0]p)"), cfg1).verdict == "UNSAT"
    # within one choice cell, [0]p leaves no room for a ~p history
    assert sat_single_agent(parse("({0}p & <0>~p)"), cfg1).verdict == "UNSAT"
    with pytest.raises(ValueError):
        sat_single_agent(parse("[1]p"), cfg1)


def test_single_agent_matches_oracle():
    cfg1 = SolverConfig(agent_universe=1)
    for f in random_corpus(36, 80, 9, agents=(0,)):
        want = oracle(f, 3, cfg1).verdict
        assert sat_single_agent(f, cfg1).verdict == want, pretty(f)


def test_product_sat_agrees():
    for f in random_corpus(34, 120, 9):
        assert product_sat(f, 3).verdict == sat(f, CFG2).verdict, pretty(f)


def test_product_sat_agent_guard():
    with pytest.raises(ValueError):
        product_sat(parse("[2]p"), 3)


def test_conservative_over_universe():
    for f in random_corpus(35, 60, 9):
        v2 = sat(f, CFG2).verdict
        v3 = sat(f, CFG3).verdict
        v4 = sat(f, SolverConfig(agent_universe=4)).verdict
        assert v2 == v3 == v4, pretty(f)


def test_inconclusive_on_giant_formula():
    f = syntax.conjoin([parse(f"[0]a{i}") for i in range(30)])
    with pytest.raises(InconclusiveError) as leaves:
        sat(f, CFG2)
    assert leaves.value.stats == {"cap": "leaves", "leaves": 60}
    # 32 profiles per agent: 2**64 subset combinations in one group
    f = parse("(" + " | ".join(f"[{a}]{p}" for a in (0, 1)
                               for p in "pqrst") + ")")
    with pytest.raises(InconclusiveError) as combos:
        sat(f, CFG2)
    assert combos.value.stats["cap"] == "combos"
    assert combos.value.stats["groups"] == 1


def test_stats_reported():
    res = sat(parse("p"), CFG2)
    assert "engine" in res.stats
    res = oracle(parse("p"), 2, CFG2)
    assert res.stats["frames"] >= 1


def test_witness_recheck_survives_optimize():
    # Under -O a bare assert is stripped; the re-check must still raise.
    code = ("from stitkit import solver, syntax\n"
            "solver.mc = lambda *a: False\n"
            "try:\n"
            "    solver.sat(syntax.parse('p'))\n"
            "except AssertionError:\n"
            "    print('raised')\n")
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"


def _leaves(g):
    return sum(isinstance(s, (syntax.Atom, syntax.Cstit, syntax.Box))
               for s in syntax.subformulas(g))


def _assert_types_match(g):
    sf, idx, types = solver._types(g)
    ref_sf, ref_idx, ref_types = reference_types(g)
    assert (sf, idx) == (ref_sf, ref_idx), pretty(g)
    assert types == ref_types, pretty(g)
    assert all(type(v) is bool for t in types for v in t)


def test_types_match_reference_exhaustive():
    for f in exhaustive_formulas(8):
        _assert_types_match(syntax.expand_dstit(f))


def test_types_match_reference_around_chunk_size():
    # one chunk with room to spare, exactly one full chunk, several chunks
    chunk = kernel._COLUMN_CHUNK_BITS
    want = {chunk - 3: 3, chunk: 3, chunk + 2: 3}
    names = tuple("pqrstuvw")
    for f in random_corpus(37, 4000, 40, atom_names=names,
                           agents=(0, 1, 2)):
        g = syntax.expand_dstit(f)
        n = _leaves(g)
        if want.get(n):
            want[n] -= 1
            _assert_types_match(g)
    assert not any(want.values()), want


def test_types_near_leaf_cap():
    f = syntax.conjoin([parse(f"[0]a{i}") for i in range(10)])
    assert _leaves(f) == 20
    start = time.perf_counter()
    _, _, types = solver._types(f)
    elapsed = time.perf_counter() - start
    assert len(types) == 3 ** 10
    # on a 2-vCPU virtual machine: about 0.25 s; reference_types, one
    # assignment at a time, takes about 6.6 s
    assert elapsed < 3.0, elapsed


def _outcome(f, cfg):
    res = sat(f, cfg)
    if res.witness is None:
        return res.verdict, None, None, res.stats
    model, world = res.witness
    return res.verdict, kripke.format_model(model), world, res.stats


def _assert_sat_matches_reference(formulas, cfg):
    fast = [_outcome(f, cfg) for f in formulas]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_types",
                   lambda g: calls.append(g) or reference_types(g))
        mp.setattr(solver, "_search_group", reference_search_group)
        slow = [_outcome(f, cfg) for f in formulas]
    assert len(calls) == len(formulas)
    for f, a, b in zip(formulas, fast, slow):
        assert a == b, pretty(f)


def test_sat_matches_reference_exhaustive():
    _assert_sat_matches_reference(list(exhaustive_formulas(7)), CFG2)


def test_sat_matches_reference_three_agents():
    formulas = [f for f in random_corpus(38, 1000, 30,
                                         atom_names=("p", "q", "r"),
                                         agents=(0, 1, 2))
                if len(syntax.agents(f)) == 3][:50]
    assert len(formulas) == 50
    _assert_sat_matches_reference(formulas, CFG3)
