import importlib.resources
import random

import pytest

from stitkit import axioms, solver
from stitkit.axioms import (SYSTEMS, _PL_MAX_LETTERS, _pl_entails, canon,
                            check, default_grid, instantiate,
                            parse_derivation, schema_instances,
                            semantic_audit)
from stitkit.solver import SolverConfig
from stitkit.syntax import Atom, Cstit, Not, Or, conjoin, parse, pretty

from helpers import exhaustive_formulas, reference_pl_consequence


def fixture_text(name):
    root = importlib.resources.files("stitkit") / "fixtures"
    return (root / name).read_text()


FIXTURES = ["aia1_warmup.drv", "aia2_induction.drv", "aia3_induction.drv",
            "s5box_from_gperm.drv", "inclbox_from_gperm.drv", "aaia_from_gperm.drv"]


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


def test_rk_gating_in_gperm_sys():
    text = """
    system GPERM-SYS
    1: ((p & q) -> p) ; PL
    2: ([](p & q) -> []p) ; RK box 1
    """
    r = check(parse_derivation(text))
    assert not r.ok and r.line == 2


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
