import importlib.resources
import random

import pytest

from stitkit import axioms, solver
from stitkit.axioms import (SYSTEMS, _PL_MAX_LETTERS, _pl_entails, canon,
                            check, default_grid, instantiate,
                            parse_derivation, schema_instances,
                            semantic_audit)
from stitkit.solver import SolverConfig
from stitkit.syntax import (Atom, Cstit, Not, Or, agents, atoms, conjoin,
                            parse, pretty)

from helpers import (AX_RK_SHARED_STEPS, FIXTURES, MIXED_AUDIT,
                     PL_SHARED_STEPS, SIZED_SAT, exhaustive_formulas,
                     random_corpus, reference_audit,
                     reference_pl_consequence, reference_sweep_frames)


def fixture_text(name):
    root = importlib.resources.files("stitkit") / "fixtures"
    return (root / name).read_text()


def test_instantiate_core_schemas():
    p, q = parse("p"), parse("q")
    assert instantiate("S5Box-T", {"phi": p}) == parse("([]p -> p)")
    assert instantiate("S5i-K", {"phi": p, "psi": q}, {"i": 1}) == \
        parse("([1](p -> q) -> ([1]p -> [1]q))")
    assert instantiate("S5i-5", {"phi": p}, {"i": 0}) == \
        parse("(<0>p -> [0]<0>p)")
    assert instantiate("InclBox", {"phi": p}, {"i": 1}) == \
        parse("([]p -> [1]p)")
    assert instantiate("DefBox", {"phi": p}) == parse("([]p <-> [1][0]p)")


def test_instantiate_parametrized_schemas():
    p, q = parse("p"), parse("q")
    aia1 = instantiate("AIA", {"phi0": p, "phi1": q}, k=1)
    assert aia1 == parse("((<>[0]p & <>[1]q) -> <>([0]p & [1]q))")
    aaia1 = instantiate("AAIA", {"phi": p}, k=1)
    assert aaia1 == parse("(<>p -> <1><0>p)")
    aaia2 = instantiate("AAIA", {"phi": p}, k=2)
    assert aaia2 == parse("(<>p -> <2>(<0>p & <1>p))")
    g = instantiate("GPerm", {"phi": p}, {"l": 1, "m": 0, "n": 0}, k=1)
    assert g == parse("(<1><0>p -> <0><1>p)")


def test_gperm_rejects_empty_conclusion():
    with pytest.raises(ValueError):
        instantiate("GPerm", {"phi": parse("p")},
                    {"l": 0, "m": 0, "n": 0}, k=0)


def test_instantiate_errors():
    with pytest.raises(ValueError):
        instantiate("NoSuchSchema", {})
    with pytest.raises(ValueError):
        instantiate("AIA", {"phi0": parse("p")}, k=1)  # missing phi1
    with pytest.raises(ValueError):
        instantiate("S5i-T", {"phi": parse("p")}, {"i": -1})
    # a parameter that the schema does not read
    with pytest.raises(ValueError, match="does not read psi"):
        instantiate("S5Box-T", {"phi": parse("p"), "psi": parse("q")})
    with pytest.raises(ValueError, match="does not read i"):
        instantiate("S5Box-T", {"phi": parse("p")}, {"i": 0})
    with pytest.raises(ValueError, match="does not read k"):
        instantiate("S5i-T", {"phi": parse("p")}, {"i": 0}, k=1)


def test_canon_collapses_double_negation():
    assert canon(parse("~~p")) == parse("p")
    assert canon(parse("[0]~~~p")) == parse("[0]~p")
    # parts without a double negation come back as the same objects
    f = parse("({1}(p & ~q) & [0]~~[]r)")
    g = canon(f)
    assert g == parse("({1}(p & ~q) & [0][]r)")
    assert g.left is f.left and g.right.sub is f.right.sub.sub.sub
    h = parse("([]~p & <0>q)")
    assert canon(h) is h


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_accepted(name):
    d = parse_derivation(fixture_text(name))
    r = check(d)
    assert r.ok, f"{name} line {r.line}: {r.message}"


def test_pl_rule():
    text = """
    system XU
    1: ([]p -> p) ; AX S5Box-T phi="p"
    2: (~~[]p -> p) ; PL 1
    3: (p | ~p) ; PL
    """
    assert check(parse_derivation(text)).ok


def _assert_pl_matches_reference(premises, conclusion):
    try:
        want = reference_pl_consequence(premises, conclusion,
                                        _PL_MAX_LETTERS)
    except ValueError:
        with pytest.raises(ValueError):
            _pl_entails([canon(p) for p in premises], canon(conclusion))
        return None
    got = _pl_entails([canon(p) for p in premises], canon(conclusion))
    assert got == want, ([pretty(p) for p in premises], pretty(conclusion))
    return want


def test_pl_matches_reference_exhaustive():
    # every conclusion of length <= 6 under 0-3 random premises, as is
    # and weakened by a premise or by excluded middle
    pool = list(exhaustive_formulas(6))
    rng = random.Random(61)
    verdicts = []
    for c in pool:
        for k in range(4):
            premises = rng.sample(pool, k)
            weaker = Or(c, premises[-1] if premises else Not(c))
            for conclusion in (c, weaker):
                verdicts.append(
                    _assert_pl_matches_reference(premises, conclusion))
    assert verdicts.count(True) > 800 and verdicts.count(False) > 700


def test_pl_matches_reference_many_letters():
    # 8-17 letters: one chunk of assignments, several, and over the cap
    for n in range(8, 18):
        letters = [Cstit(i % 2, Atom(f"p{i}")) if i % 3 else Atom(f"p{i}")
                   for i in range(n)]
        cases = [([conjoin(letters)], letters[-1]),
                 ([conjoin(letters[:-1])], letters[-1]),
                 ([], Not(conjoin(letters))),
                 (letters[1:], Or(letters[0], Not(letters[0])))]
        verdicts = [_assert_pl_matches_reference(p, c) for p, c in cases]
        if n > _PL_MAX_LETTERS:
            assert verdicts == [None] * 4
        else:
            assert verdicts == [True, False, False, True]


def test_pl_rejects_non_consequence():
    text = """
    system XU
    1: ([]p -> p) ; AX S5Box-T phi="p"
    2: (p -> []p) ; PL 1
    """
    r = check(parse_derivation(text))
    assert not r.ok and r.line == 2


def test_mp_and_nec():
    text = """
    system XU
    1: (p | ~p) ; PL
    2: []( p | ~p) ; NEC box 1
    3: ([](p | ~p) -> [0](p | ~p)) ; AX InclBox i=0 phi="(p | ~p)"
    4: [0](p | ~p) ; MP 3 2
    """
    assert check(parse_derivation(text)).ok


def test_mp_rejects_wrong_major():
    text = """
    system XU
    1: (p | ~p) ; PL
    2: q ; MP 1 1
    """
    assert not check(parse_derivation(text)).ok


def test_nec_gating():
    # GPERM-SYS has no settledness necessitation
    text = """
    system GPERM-SYS
    1: (p | ~p) ; PL
    2: [](p | ~p) ; NEC box 1
    """
    r = check(parse_derivation(text))
    assert not r.ok and r.line == 2
    agent = """
    system GPERM-SYS
    1: (p | ~p) ; PL
    2: [1](p | ~p) ; NEC agent 1 1
    """
    assert check(parse_derivation(agent)).ok


@pytest.mark.parametrize("step, message", [
    pytest.param("[]((p & q) -> p) ; NEC box 1",
                 "settledness necessitation is not primitive in GPERM-SYS",
                 id="NEC"),
    pytest.param("([](p & q) -> []p) ; RK box 1",
                 "settledness monotony is not available in GPERM-SYS",
                 id="RK"),
    pytest.param("(<>(p & q) -> <>p) ; RKD box 1",
                 "settledness monotony is not available in GPERM-SYS",
                 id="RKD"),
])
def test_box_rules_follow_the_systems_table(step, message):
    # the three settledness rules stand or fall with "box" in the nec
    # entry of SYSTEMS: refused in GPERM-SYS, each with its message, and
    # accepted in XU
    def run(system):
        return check(parse_derivation(
            f"system {system}\n1: ((p & q) -> p) ; PL\n2: {step}\n"))
    assert run("GPERM-SYS") == axioms.CheckResult(False, 2, message)
    assert run("XU").ok


MODAL_STEPS = """system XU
1: (p | ~p) ; PL
2: [](p | ~p) ; NEC box 1
3: ([](p | ~p) -> [0](p | ~p)) ; AX InclBox i=0 phi="(p | ~p)"
4: [0](p | ~p) ; MP 3 2
5: ((p & q) -> p) ; PL
6: ([](p & q) -> []p) ; RK box 5
7: (<>(p & q) -> <>p) ; RKD box 5
8: ([0](p & q) -> [0]p) ; RK agent 0 5
9: (<1>(p & q) -> <1>p) ; RKD agent 1 5
"""


def test_well_formed_modal_steps_are_accepted():
    # NEC box, MP, AX, and RK and RKD of both kinds in XU; NEC agent in
    # GPERM-SYS, where it is primitive
    assert check(parse_derivation(MODAL_STEPS)) == axioms.CheckResult(
        True, None, "9 lines accepted")
    gperm = ("system GPERM-SYS\n1: (p | ~p) ; PL\n"
             "2: [1](p | ~p) ; NEC agent 1 1\n")
    assert check(parse_derivation(gperm)) == axioms.CheckResult(
        True, None, "2 lines accepted")


def _with_justification(number, justification):
    """MODAL_STEPS with the justification of line number replaced."""
    lines = MODAL_STEPS.splitlines()
    formula = lines[number].split(";")[0]
    lines[number] = f"{formula}; {justification}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("number, justification, message", [
    (8, "RK agnet 0 5", "unknown RK kind 'agnet'"),
    (8, "RK 7 0 5", "unknown RK kind '7'"),
    (8, "RK agent 0 5 junk", "malformed justification: expected "
     "'RK agent a i', not 'RK agent 0 5 junk'"),
    (9, "RKD agent 1 5 garbage", "malformed justification: expected "
     "'RKD agent a i', not 'RKD agent 1 5 garbage'"),
    (2, "NEC box 1 77", "malformed justification: expected 'NEC box i', "
     "not 'NEC box 1 77'"),
    (4, "MP 3 2 1", "malformed justification: expected 'MP i j', not "
     "'MP 3 2 1'"),
    (3, 'AX InclBox i=0 phi="(p | ~p)" zzz', "malformed justification: "
     "AX takes key=value parameters, not 'zzz'"),
    # a line or an agent is ASCII digits only, though int() takes more
    (4, "MP +3 2", "malformed justification: line '+3' is not a number"),
    (4, "MP 3 0_2", "malformed justification: line '0_2' is not a number"),
    (4, "MP 3 \u0662", "malformed justification: line '\u0662' is not a "
     "number"),
    (5, "PL \uff11", "malformed justification: line '\uff11' is not a "
     "number"),
    (8, "RK agent +0 5", "malformed justification: agent '+0' is not a "
     "number"),
    (3, 'AX InclBox i=\u0660 phi="(p | ~p)"', "malformed justification: "
     "AX takes key=value parameters, not 'i=\u0660'"),
    # a parameter given twice, or one the schema does not read
    (3, 'AX InclBox i=0 phi="q" phi="(p | ~p)"', "malformed justification: "
     "AX parameter phi given twice"),
    (3, 'AX InclBox i=1 i=0 phi="(p | ~p)"', "malformed justification: "
     "AX parameter i given twice"),
    (3, 'AX InclBox i=0 phi="(p | ~p)" psi="q" l=1', "malformed "
     "justification: schema InclBox does not read l, psi"),
    (3, 'AX InclBox k=1 i=0 phi="(p | ~p)"', "malformed justification: "
     "schema InclBox does not read k"),
    # an empty quoted slot is an empty formula
    (3, 'AX InclBox i=0 phi=""', "malformed justification: unexpected "
     "token eof (at position 0)"),
    # a quoted k or agent, or a number for a slot, is refused by name
    (3, 'AX InclBox i=0 phi="(p | ~p)" k=""', "malformed justification: "
     "AX parameter k takes a number, not a quoted formula"),
    (3, 'AX AIA k="1" phi0="p" phi1="p"', "malformed justification: "
     "AX parameter k takes a number, not a quoted formula"),
    (3, 'AX AIA k="p" phi0="p" phi1="p"', "malformed justification: "
     "AX parameter k takes a number, not a quoted formula"),
    (3, 'AX InclBox i="0" phi="(p | ~p)"', "malformed justification: "
     "AX parameter i takes a number, not a quoted formula"),
    (3, 'AX InclBox i=0 phi=1', "malformed justification: AX parameter "
     "phi takes a quoted formula, not a number"),
    (3, 'AX AIA k=1 phi0="p" phi1=0', "malformed justification: AX "
     "parameter phi1 takes a quoted formula, not a number"),
])
def test_every_argument_is_read(number, justification, message):
    # a kind the rule does not know, or an argument beyond those the
    # README documents, fails the line; the same steps read in full are
    # accepted above
    text = _with_justification(number, justification)
    assert check(parse_derivation(text)) == axioms.CheckResult(
        False, number, message)


def test_ax_must_match_exactly():
    text = """
    system XU
    1: ([]p -> q) ; AX S5Box-T phi="p"
    """
    assert not check(parse_derivation(text)).ok


def test_ax_schema_not_in_system():
    text = """
    system XU
    1: ([]p <-> [1][0]p) ; AX DefBox phi="p"
    """
    assert not check(parse_derivation(text)).ok


def test_parse_derivation_errors():
    with pytest.raises(ValueError):
        parse_derivation("system XU\n1: p q r\n")
    with pytest.raises(ValueError):
        parse_derivation("1: p ; PL\n")  # missing system header
    with pytest.raises(ValueError):
        parse_derivation("system XU\n2: p ; PL\n")  # gap in numbering
    with pytest.raises(ValueError, match="bad derivation line"):
        parse_derivation("system XU\n\u0661: p ; PL\n")  # not ASCII
    # a later header does not move the derivation to another system: the
    # line below is refused in GPERM-SYS and would pass in XU
    with pytest.raises(ValueError, match="repeated 'system' header"):
        parse_derivation('system GPERM-SYS\n'
                         '1: ([]p -> p) ; AX S5Box-T phi="p"\n'
                         'system XU\n')


def test_formula_texts_are_parsed_once():
    # a text seen before comes back as the same tree, in a line or in an
    # AX slot, from another derivation too
    first = parse_derivation('system XU\n1: ([]p -> p) ; AX S5Box-T phi="p"\n'
                             '2: (p & q) ; PL\n')
    second = parse_derivation("system AAIA-SYS\n1: (p & q) ; PL\n")
    assert second.lines[0].formula is first.lines[1].formula
    assert axioms._parse_ax_args(("S5Box-T", 'phi="(p & q)"'))[1]["phi"] \
        is first.lines[1].formula
    # a bad text is not kept: it raises the same error every time
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError) as e:
            parse_derivation("system XU\n1: (p & ; PL\n")
        messages.append(str(e.value))
    assert messages[0] == messages[1] and "position" in messages[0]
    # and the memo is bounded
    assert axioms._parse_formula.cache_info().maxsize is not None


def test_memo_parses_through_the_module_name(monkeypatch):
    # a wrapper put in place of axioms.parse (as the benchmark's tracer
    # does) sees one call per text not parsed before, and no other
    axioms._parse_formula.cache_clear()
    seen = []
    monkeypatch.setattr(axioms, "parse",
                        lambda text: seen.append(text) or parse(text))
    parse_derivation('system XU\n'
                     '1: ([]memo_a -> memo_a) ; AX S5Box-T phi="memo_a"\n'
                     '2: ([]memo_a -> memo_a) ; PL 1\n')
    assert seen == ["([]memo_a -> memo_a)"]
    axioms._parse_ax_args(("S5Box-T", 'phi="memo_a"', 'psi="memo_a"'))
    assert seen == ["([]memo_a -> memo_a)", "memo_a"]


def _counting(monkeypatch, name):
    """Calls of axioms.<name> from now on, through a wrapper in its place
    (canon's own recursion goes through the wrapper too)."""
    calls = []
    fn = getattr(axioms, name)
    monkeypatch.setattr(axioms, name,
                        lambda *args: calls.append(args) or fn(*args))
    return calls


def test_each_line_and_pl_step_is_judged_once(monkeypatch):
    # a second check of a derivation, or of another with the same line
    # texts, computes no canon form and no truth table
    doc = ('system XU\n1: ([]~~once_a -> ~~once_a) ; AX S5Box-T '
           'phi="~~once_a"\n2: (~[]once_a | once_a) ; PL 1\n')
    canons, tables = (_counting(monkeypatch, name)
                      for name in ("canon", "_pl_entails"))
    first = check(parse_derivation(doc))
    assert first.ok and canons and len(tables) == 1
    seen = len(canons)
    assert check(parse_derivation(doc.replace("XU", "AAIA-SYS"))) == first
    assert (len(canons), len(tables)) == (seen, 1)


def test_pl_memo_keys_the_premises_and_the_conclusion():
    # a step with the premises or the conclusion of an earlier step, and
    # the other verdict, gets its own verdict, in either order
    refused = axioms.CheckResult(False, 2, "not a propositional "
                                 "consequence of the cited lines")
    for doc, ok in PL_SHARED_STEPS:
        result = check(parse_derivation(doc))
        assert result.ok if ok else result == refused, doc


def test_pl_step_errors_are_not_kept(monkeypatch):
    # a step over too many letters fails the same way every time, and is
    # judged every time
    letters = [f"many_{i}" for i in range(_PL_MAX_LETTERS + 1)]
    doc = f"system XU\n1: (({' & '.join(letters)}) -> many_0) ; PL\n"
    tables = _counting(monkeypatch, "_pl_entails")
    want = axioms.CheckResult(False, 1, "malformed justification: too many "
                              "distinct subformulas for a PL step")
    assert [check(parse_derivation(doc)) for _ in range(2)] == [want] * 2
    assert len(tables) == 2


def test_each_ax_and_shape_step_is_judged_once(monkeypatch):
    # a second check of the same line texts instantiates no schema and
    # computes no canon form
    doc = ("system XU\n1: (once_b -> (once_b | once_c)) ; PL\n"
           "2: ([0]once_b -> [0](once_b | once_c)) ; RK agent 0 1\n"
           "3: (<>once_b -> <>(once_b | once_c)) ; RKD box 1\n"
           "4: [](once_b -> (once_b | once_c)) ; NEC box 1\n"
           '5: ([]once_b -> once_b) ; AX S5Box-T phi="once_b"\n'
           '6: ([1]once_b -> once_b) ; AX S5i-T i=1 phi="once_b"\n')
    canons, schemas = (_counting(monkeypatch, name)
                       for name in ("canon", "instantiate"))
    first = check(parse_derivation(doc))
    assert first.ok and canons and len(schemas) == 2
    seen = len(canons)
    assert check(parse_derivation(doc)) == first
    assert (len(canons), len(schemas)) == (seen, 2)


def _clear_check_memos():
    for step in (axioms._line_form, axioms._pl_step, axioms._ax_step,
                 axioms._shape_step):
        step.memo.clear()


def test_ax_and_shape_memos_key_the_system_and_the_rule():
    # an AX line in another system, or an RK or RKD step under the other
    # rule, gets its own verdict, in either order: the one a check with
    # empty memos gives
    cold = []
    for doc, _ in AX_RK_SHARED_STEPS:
        _clear_check_memos()
        cold.append(check(parse_derivation(doc)))
    _clear_check_memos()
    warm = [check(parse_derivation(doc)) for doc, _ in AX_RK_SHARED_STEPS]
    assert warm == cold
    assert [r.ok for r in warm] == [ok for _, ok in AX_RK_SHARED_STEPS]
    assert {r.message.split(":")[0] for r in warm if not r.ok} == {
        "schema AIA not in GPERM-SYS", "RKD shape mismatch",
        "RK shape mismatch"}


def test_ax_errors_are_not_kept(monkeypatch):
    # a malformed AX argument fails the same way every time, and is read
    # every time
    parsed, schemas = (_counting(monkeypatch, name)
                       for name in ("_parse_ax_args", "instantiate"))
    for args, message in (('phi="p" phi="p"', "AX parameter phi given "
                           "twice"),
                          ('phi="p" psi="q"', "schema S5Box-T does not "
                           "read psi")):
        doc = f"system XU\n1: ([]p -> p) ; AX S5Box-T {args}\n"
        want = axioms.CheckResult(False, 1, f"malformed justification: "
                                  f"{message}")
        calls = len(parsed)
        assert [check(parse_derivation(doc)) for _ in range(2)] == [want] * 2
        assert len(parsed) == calls + 2
    assert len(schemas) == 2


def test_check_memos_are_bounded():
    # fed more distinct trees than the bound, each memo keeps the most
    # recently used ones and no more; a hit counts as a use
    bound = axioms._MEMO_SIZE
    trees = [Not(Not(Atom(f"bound_{i}"))) for i in range(bound + 6)]
    t_args = ("S5Box-T", 'phi="p"')
    for step, call, at in (
            (axioms._line_form, axioms._line_form, 0),
            (axioms._pl_step, lambda f: axioms._pl_step(f, f), 0),
            (axioms._ax_step, lambda f: axioms._ax_step("XU", t_args, f), 2),
            (axioms._shape_step,
             lambda f: axioms._shape_step("NEC", "box", None, f, f), 3)):
        for f in trees[:-1]:
            call(f)
        assert len(step.memo) == bound
        call(trees[5])
        call(trees[-1])
        kept = [args[at] for args, _ in step.memo.values()]
        assert kept == trees[7:-1] + [trees[5], trees[-1]]
    assert axioms._line_form(trees[5]) == Atom("bound_5")
    assert axioms._pl_step(trees[5], trees[5]) is True
    assert axioms._ax_step("XU", t_args, trees[5]) == (
        "axiom mismatch: expected ~([]p & ~p)")
    assert axioms._shape_step("NEC", "box", None, trees[5], trees[5]) == (
        "NEC box shape mismatch")


def test_every_fixture_line_is_semantically_valid():
    # soundness spot check: no derived line is refutable on small frames
    from stitkit.syntax import Not, agents
    for name in FIXTURES:
        d = parse_derivation(fixture_text(name))
        for line in d.lines:
            universe = max(agents(line.formula), default=-1) + 2
            cfg = SolverConfig(agent_universe=universe)
            res = solver.oracle(Not(line.formula), 3, cfg)
            assert res.verdict == "UNSAT", \
                f"{name}: {pretty(line.formula)}"


def test_default_grid():
    grid = default_grid()
    assert len(grid) == 20
    assert len(set(grid)) == 20


def test_schema_instances_counts():
    grid = default_grid()
    assert len(list(schema_instances("AIA", 2, grid))) == 40
    assert len(list(schema_instances("AAIA", 2, grid))) == 40
    assert len(list(schema_instances("GPerm", 2, grid))) == 1440


def test_semantic_audit_small():
    rep = semantic_audit("AIA", 1, models="btac", max_points=3)
    assert rep["instances"] == 20
    assert rep["counterexamples"] == []
    rep = semantic_audit("GPerm", 1, models="kripke", max_points=3)
    assert rep["counterexamples"] == []


def test_sweep_matches_frame_at_a_time_reference():
    # one scan per world count: the first falsifying frame, valuation and
    # point of one scan per frame; ~f first fails where f has its
    # smallest model
    corpus = [Not(parse(t)) for t in SIZED_SAT] + random_corpus(
        36, 120, 10, atom_names=("p", "q", "r"))
    sizes = set()
    for f in corpus:
        for frames_of in (solver.moment_frames, solver.general_frames):
            for max_points in (3, 4):
                hit = axioms._sweep_frames(f, max_points, frames_of)
                assert hit == reference_sweep_frames(f, max_points,
                                                     frames_of), pretty(f)
                sizes.add(hit and hit[0].n_points)
    assert sizes == {None, 1, 2, 3, 4}


def test_audit_groups_match_instance_at_a_time(monkeypatch):
    # each group of MIXED_AUDIT is swept as one, and three of them hold a
    # counterexample after a valid first instance, which only the sweep of
    # the whole group finds
    instances = [parse(t) for t in MIXED_AUDIT]
    monkeypatch.setattr(axioms, "schema_instances",
                        lambda name, max_k, grid: instances)
    for models in ("btac", "kripke"):
        rep = semantic_audit("GPerm", 2, models=models, max_points=3)
        assert rep == reference_audit("GPerm", models, instances, 3)
        assert [c["instance"] for c in rep["counterexamples"]] == [
            pretty(instances[k]) for k in (3, 6, 7)]


def test_audit_sweeps_each_group_once(monkeypatch):
    # the 72 GPerm instances over one formula fall in as many groups as
    # agent sets, and no group fails
    swept = []

    def sweep(f, max_points, frames_of):
        swept.append(frozenset(agents(f)))
        return sweep_frames(f, max_points, frames_of)

    sweep_frames = axioms._sweep_frames
    monkeypatch.setattr(axioms, "_sweep_frames", sweep)
    rep = semantic_audit("GPerm", 2, grid=[parse("p")], models="kripke")
    assert rep["instances"] == 72 and rep["counterexamples"] == []
    groups = {(frozenset(agents(f)), frozenset(atoms(f)))
              for f in schema_instances("GPerm", 2, [parse("p")])}
    assert len(swept) == len(set(swept)) == len(groups) == 3


def test_semantic_audit_rejects_unknown_models():
    for models in ("bogus", "BTAC", "", None):
        with pytest.raises(ValueError, match="models must be"):
            semantic_audit("S5Box-T", 1, models=models, max_points=2)


def test_semantic_audit_rejects_empty_sweeps():
    # no frame swept, or no instance swept, is no evidence of validity
    for bound in (0, -1):
        with pytest.raises(ValueError):
            semantic_audit("S5Box-T", 1, max_points=bound)
    # past the oracle's world cap the frame enumeration does not finish
    bound = solver.ORACLE_MAX_WORLDS + 1
    with pytest.raises(ValueError, match=f"max_points {bound} is outside"):
        semantic_audit("S5Box-T", 1, max_points=bound)
    with pytest.raises(ValueError):
        semantic_audit("AIA", 0, max_points=3)


def test_systems_table():
    assert set(SYSTEMS) == {"XU", "AAIA-SYS", "GPERM-SYS"}
    assert "AIA" in SYSTEMS["XU"]["schemas"]
    assert "AAIA" in SYSTEMS["AAIA-SYS"]["schemas"]
    assert "GPerm" in SYSTEMS["GPERM-SYS"]["schemas"]
