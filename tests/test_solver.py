import collections
import functools
import hashlib
import itertools
import operator
import os
import subprocess
import sys
import time
import tracemalloc

import pytest

from stitkit import kernel, kripke, solver, syntax
from stitkit.kripke import mc
from stitkit.solver import (InconclusiveError, SolverConfig, general_frames,
                            moment_frames, oracle, product_sat, sat, valid)
from stitkit.syntax import length, parse, pretty

import digests
from helpers import (SIZED_SAT, exhaustive_formulas, random_corpus,
                     reference_canonical, reference_frame_gpp,
                     reference_oracle,
                     reference_search_group, reference_types)

CFG2 = SolverConfig(agent_universe=2)
CFG3 = SolverConfig(agent_universe=3)
# the 60th formula of the three-agent sample of tests/search_counts.py
THREE_AGENT_UNSAT = ("([2][]~[]{0}[1]{0}r & ~~~[2][]~[]({1}([1]r & "
                     "[0]~(r & []q)) & ~{1}p))")


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


def test_three_agents_match_oracle():
    # every formula of length <= 12 where all three agents occur; the
    # check is one-sided, as a model may need more than four worlds
    formulas = [f for f in exhaustive_formulas(12, agents=(0, 1, 2))
                if len(syntax.agents(f)) == 3]
    verdicts = collections.Counter()
    for f in formulas:
        got = sat(f, CFG3).verdict
        assert not (got == "UNSAT"
                    and oracle(f, 4, CFG3).verdict == "SAT"), pretty(f)
        verdicts[got] += 1
    assert verdicts == {"SAT": 588, "UNSAT": 36}


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


def test_mask_partitions():
    # the Bell numbers; every partition's cells are nonempty, disjoint
    # (their sum is their union), cover all points and come in the order
    # of their lowest points
    assert [len(solver._mask_partitions(n)) for n in range(7)] == \
        [1, 1, 2, 5, 15, 52, 203]
    for n in range(7):
        for cells in solver._mask_partitions(n):
            assert all(cells)
            assert sum(cells) == functools.reduce(operator.or_, cells, 0) \
                == (1 << n) - 1
            lows = [c & -c for c in cells]
            assert lows == sorted(lows)
    # restricted growth string order: earlier points vary slowest
    assert solver._mask_partitions(3) == (
        (0b111,), (0b011, 0b100), (0b101, 0b010), (0b001, 0b110),
        (0b001, 0b010, 0b100))


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
                    passing.add(reference_canonical(parts, n))
            frames = general_frames(n, n_agents)
            keys = [reference_canonical(fr.blocks[:-1], n) for fr in frames]
            assert sorted(keys) == sorted(passing)


def test_frame_counts():
    assert [len(moment_frames(n, 3)) for n in range(1, 5)] == [1, 4, 7, 16]
    assert [len(general_frames(n, 3)) for n in range(1, 5)] == [1, 5, 12, 38]
    assert (len(moment_frames(5, 2)), len(general_frames(5, 2))) == (14, 54)


def test_frame_lists_digest():
    # the lists, representatives and order included, as tests/digests.py
    # hashes them: the first tuple of each renaming class in product order
    h = hashlib.sha256()
    for n in range(1, 5):
        for k in range(4):
            for frames in (moment_frames(n, k), general_frames(n, k)):
                h.update(f"{frames!r}\n".encode())
    assert h.hexdigest() == ("34e14453ec4e13b2e2e6a12e5f4194cf"
                             "3226d6e1f480bd2cac547559ae6d90bf")


def test_oracle_memory_over_one_chunk():
    # five atoms at four worlds need more valuation bits than one kernel
    # chunk, so the scan packs one frame at a time and keeps none; all
    # the packed passes of that list take about 20 MB
    f = parse("([0]p & [1]q & [2]r & ~(p & q & r & s & t) & (p&~p))")
    for n in range(1, 5):
        general_frames(n, 3)
    tracemalloc.start()
    try:
        assert oracle(f, 4, CFG3).verdict == "UNSAT"
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 4e6 and peak < 8e6, (held, peak)


def test_oracle_guards():
    # a bound below 1 would sweep no frame and answer UNSAT
    for bound in (solver.ORACLE_MAX_WORLDS + 1, 0, -1):
        with pytest.raises(ValueError):
            oracle(parse("p"), bound, CFG2)
    # a frame walk over the budget is refused before its marks are
    # allocated: 5**14 partition tuples at 3 worlds would take 6.1 GB
    many = parse("(" + " & ".join(f"<{i}>p" for i in range(14)) + " & []~p)")
    with pytest.raises(ValueError, match=r"14 agents at 3 worlds walk 5\*\*14 "
                       r"partition tuples, over the frame budget of 1048576"):
        oracle(many, 3, SolverConfig(agent_universe=14))
    for frames_of in (moment_frames, general_frames):
        with pytest.raises(ValueError, match="frame budget"):
            frames_of(2, 21)
    # the budget itself is a walk allowed
    assert solver.FRAME_WALK_MAX == 2 ** 20
    solver.check_frame_walk(2, 20)
    with pytest.raises(ValueError, match="frame budget"):
        solver.check_frame_walk(2, 21)


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
    res = sat(f, cfg1)
    assert res.verdict == "SAT"
    model, world = res.witness
    assert mc(model, world, f)
    assert len(model.worlds) <= length(f) ** 2
    assert sat(parse("([0]p & ~[0]p)"), cfg1).verdict == "UNSAT"
    # within one choice cell, [0]p leaves no room for a ~p history
    assert sat(parse("({0}p & <0>~p)"), cfg1).verdict == "UNSAT"
    with pytest.raises(ValueError):
        sat(parse("[1]p"), cfg1)


def test_single_agent_matches_oracle():
    cfg1 = SolverConfig(agent_universe=1)
    for f in random_corpus(36, 80, 9, agents=(0,)):
        want = oracle(f, 3, cfg1).verdict
        assert sat(f, cfg1).verdict == want, pretty(f)


@pytest.mark.parametrize("universe", [1, 2, 3])
def test_single_agent_witness_within_quadratic_bound(universe):
    # the 2**14 valuations of 14 atoms are one group of types, more than
    # length(f)**2; with no modal leaf, one world of f is a witness, at
    # any agent universe
    f = parse("(" + " | ".join(f"p{i}" for i in range(14)) + ")")
    res = sat(f, SolverConfig(agent_universe=universe))
    assert res.stats["types"] == 16384 > length(f) ** 2 == 8464
    assert res.stats["witness_worlds"] == 1
    assert res.stats["quadratic_ok"] is True
    model, world = res.witness
    assert mc(model, world, f) is True


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


@pytest.mark.parametrize("agent, universe",
                         [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
def test_one_agent_group_takes_one_combination(agent, universe):
    # 3**10 types in one group and 1,024 profiles of the agent: the
    # fixpoint is the one set tested, with no combinations cap; f holds
    # at one type only, with no false [] or [i] leaf, so that type is
    # the witness at every universe
    f = syntax.conjoin([parse(f"[{agent}]a{i}") for i in range(10)])
    res = sat(f, SolverConfig(agent_universe=universe))
    assert res.verdict == "SAT"
    assert res.stats["combos"] == 1
    assert res.stats["witness_worlds"] == 1
    assert res.stats["quadratic_ok"] is True
    model, world = res.witness
    assert mc(model, world, f) is True


def test_three_agent_unsat_refused_without_combinations():
    # the full subset walk tried 9,564,390 combinations (17.8 s of CPU
    # on a 2-vCPU virtual machine) before it gave UNSAT
    f = parse(THREE_AGENT_UNSAT)
    assert syntax.agents(f) == {0, 1, 2}
    res = sat(f, CFG3)
    assert res.verdict == "UNSAT"
    assert res.stats["combos"] == 0
    assert res.stats["pruned"] > 0


def test_stats_reported():
    res = sat(parse("p"), CFG2)
    assert "engine" in res.stats
    res = oracle(parse("p"), 2, CFG2)
    assert res.stats["frames"] >= 1


def test_witness_recheck_survives_optimize():
    # Under -O a bare assert is stripped; the re-check of a witness and
    # the frame check of a model built must still raise.
    code = ("from stitkit import btac, kripke, solver, syntax\n"
            "solver.mc = lambda *a: False\n"
            "try:\n"
            "    solver.sat(syntax.parse('p'))\n"
            "except AssertionError:\n"
            "    print('raised')\n"
            "try:\n"
            "    kripke.MomentModel(('a', 'b'), {0: ({'a'}, {'b'}),\n"
            "                                    1: ({'a'}, {'b'})}, {})\n"
            "except ValueError:\n"
            "    print('refused')\n"
            "try:\n"
            "    btac.BtacModel(('m1',), {'m1': None},\n"
            "                   {(0, 'm1'): ({'h1'}, {'h1'})},\n"
            "                   {'p': {('m1', 'h9')}})\n"
            "except ValueError:\n"
            "    print('refused')\n")
    src = os.path.dirname(os.path.dirname(solver.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["raised", "refused", "refused"]


def _leaves(g):
    return sum(isinstance(s, (syntax.Atom, syntax.Cstit, syntax.Box))
               for s in syntax.subformulas(g))


def _assert_types_match(g):
    leaves, rows, root = solver._types(g)
    ref_leaves, ref_rows, ref_root = reference_types(g)
    assert leaves == ref_leaves, pretty(g)
    assert rows == ref_rows, pretty(g)
    assert root == ref_root, pretty(g)
    assert all(type(c) is bytes for _, c in leaves if c is not None)
    assert type(root) is bytes


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
    _, rows, _ = solver._types(f)
    elapsed = time.perf_counter() - start
    assert len(rows) == 3 ** 10
    # on a 2-vCPU virtual machine: about 0.25 s; reference_types, one
    # assignment at a time, takes about 6.6 s
    assert elapsed < 3.0, elapsed


def test_sat_memory_near_leaf_cap():
    # tracemalloc peaks measured on these inputs: 1.61 and 4.59 MB, each
    # bound about 25 % above; two agents with 32 profiles each, so the
    # combinations cap refuses the first group
    base = syntax.conjoin([parse(f"[{i // 5}]a{i}") for i in range(10)])
    for f, bound in ((base, 2.0e6), (syntax.And(base, parse("~[]p")), 5.75e6)):
        tracemalloc.start()
        try:
            with pytest.raises(InconclusiveError, match="profile subset"):
                sat(f, CFG2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (pretty(f), peak)


def _outcome(f, cfg):
    """The result of sat, its stats without the effort counters, and its
    combos."""
    res = sat(f, cfg)
    stats = {k: v for k, v in res.stats.items() if k not in digests.EFFORT}
    model, world = res.witness or (None, None)
    return ((res.verdict, model and kripke.format_model(model), world,
             stats), res.stats["combos"])


def _assert_sat_matches_reference(formulas, cfg):
    fast = [_outcome(f, cfg) for f in formulas]
    calls = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "_types",
                   lambda g: calls.append(g) or reference_types(g))
        mp.setattr(solver, "_search_group", reference_search_group)
        slow = [_outcome(f, cfg) for f in formulas]
    assert len(calls) == len(formulas)
    for f, (a, combos), (b, walked) in zip(formulas, fast, slow):
        assert a == b, pretty(f)
        # the elimination only ever shortens the reference's walk
        assert combos <= walked, pretty(f)


def test_sat_matches_reference_exhaustive():
    _assert_sat_matches_reference(list(exhaustive_formulas(7)), CFG2)


def test_sat_matches_reference_three_agents():
    formulas = [f for f in random_corpus(38, 1000, 30,
                                         atom_names=("p", "q", "r"),
                                         agents=(0, 1, 2))
                if len(syntax.agents(f)) == 3][:50]
    assert len(formulas) == 50
    _assert_sat_matches_reference(formulas, CFG3)
