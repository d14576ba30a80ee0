import random

import pytest

from stitkit import btac, kripke, syntax
from stitkit.kripke import (KripkeModel, MomentModel, box_classes,
                            check_equivalence, check_gpp,
                            check_rectangular, filtrate, filtrate_with_map,
                            format_model, mc, parse_model)
from stitkit.syntax import parse, pretty, subformulas

from helpers import generated_submodel, random_corpus

PRODUCT = """
moment agents=2
worlds: a b c d
part 0: {a b} {c d}
part 1: {a c} {b d}
val p: a b
val q: a c
"""

TWO_CLASS = """
kripke agents=2
worlds: a b c d u v
rel 0: {a b} {c d} {u v}
rel 1: {a c} {b d} {u} {v}
val p: a b u
val q: a c
"""


def test_parse_and_format_roundtrip():
    for text in (PRODUCT, TWO_CLASS):
        m = parse_model(text)
        assert format_model(parse_model(format_model(m))) == format_model(m)


def test_parse_rejects_non_partition():
    bad = """
    kripke agents=1
    worlds: a b
    rel 0: {a} {a b}
    """
    with pytest.raises(ValueError):
        parse_model(bad)


def test_mc_matches_btac_on_product():
    m = parse_model(PRODUCT)
    bt = btac.parse_model("""
    btac
    moment m1 histories 4
    choice 0 m1: {h1 h2} {h3 h4}
    choice 1 m1: {h1 h3} {h2 h4}
    val p: m1/h1 m1/h2
    val q: m1/h1 m1/h3
    """)
    pairs = dict(zip("abcd", ["h1", "h2", "h3", "h4"]))
    for f in random_corpus(21, 120, 10):
        for w, h in pairs.items():
            assert mc(m, w, f) == btac.eval(bt, ("m1", h), f), pretty(f)


def test_mc_clauses():
    m = parse_model(PRODUCT)
    assert mc(m, "a", parse("[0]p"))
    assert not mc(m, "a", parse("[]p"))
    assert mc(m, "a", parse("{0}p"))
    assert not mc(m, "a", parse("{0}(p | ~p)"))
    assert mc(m, "a", parse("(<1>~p & [1]q)"))


def test_box_classes_and_generated_submodel():
    m = parse_model(TWO_CLASS)
    classes = box_classes(m)
    assert sorted(sorted(c) for c in classes) == [list("abcd"), ["u", "v"]]
    sub = generated_submodel(m, "a")
    assert sorted(sub.worlds) == list("abcd")
    for f in random_corpus(22, 60, 8):
        for w in sub.worlds:
            assert mc(m, w, f) == mc(sub, w, f), pretty(f)


def test_mc_finds_classes_at_most_once(monkeypatch):
    calls = []

    def counting(m):
        calls.append(m)
        return box_classes(m)

    monkeypatch.setattr(kripke, "box_classes", counting)
    m = parse_model(TWO_CLASS.replace("agents=2", "agents=3"))
    busy = parse("(([]p | <>q) & ([2]p | {2}~q | {0}[]p | <2>[]q))")
    quiet = parse("([0]p & ~([1]q & p))")
    for w in m.worlds:
        del calls[:]
        mc(m, w, busy)
        assert len(calls) == 1
        mc(m, w, quiet)
        assert len(calls) == 1
    del calls[:]
    assert check_gpp(m) == []
    assert len(calls) == 1


def test_single_stored_agent_box_is_universal():
    m = KripkeModel(("a", "b"), {0: ({"a"}, {"b"},)}, {"p": {"a"}}, 2)
    assert len(box_classes(m)) == 1
    assert not mc(m, "a", parse("[]p"))
    assert mc(m, "a", parse("<>~p"))


def test_check_gpp():
    good = parse_model(PRODUCT)
    assert check_gpp(good) == []
    bad = KripkeModel(
        ("a", "b", "c"),
        {0: ({"a", "b"}, {"c"}), 1: ({"b", "c"}, {"a"})},
        {}, 2)
    assert check_gpp(bad)


def test_check_rectangular():
    m = parse_model(PRODUCT)
    assert check_rectangular(m) == []
    bad = MomentModel(("a", "b"),
                      {0: ({"a"}, {"b"}), 1: ({"a"}, {"b"})}, {})
    assert check_rectangular(bad)


def test_equivalence_checker():
    m = parse_model(PRODUCT)
    assert check_equivalence(m) == []


def random_product_model(rng, rows, cols, atoms=("p", "q")):
    worlds = tuple(f"w{r}{c}" for r in range(rows) for c in range(cols))
    parts = {
        0: tuple(frozenset(f"w{r}{c}" for c in range(cols))
                 for r in range(rows)),
        1: tuple(frozenset(f"w{r}{c}" for r in range(rows))
                 for c in range(cols)),
    }
    val = {p: frozenset(w for w in worlds if rng.random() < 0.5)
           for p in atoms}
    return MomentModel(worlds, parts, val, 2)


def test_filtration_preserves_truth_and_bound():
    rng = random.Random(9)
    corpus = random_corpus(23, 40, 10)
    for f in corpus:
        m = random_product_model(rng, rng.randint(1, 3), rng.randint(1, 3))
        out, wmap = filtrate_with_map(m, f)
        assert len(out.worlds) <= 2 ** syntax.length(f)
        for g in subformulas(f):
            for w in m.worlds:
                assert mc(m, w, g) == mc(out, wmap[w], g), \
                    f"{pretty(g)} at {w}"


def test_filtrate_requires_generated_gpp_model():
    two = parse_model(TWO_CLASS)
    with pytest.raises(ValueError):
        filtrate(two, parse("p"))


def test_moment_and_kripke_files_agree():
    m = parse_model(PRODUCT)
    k = parse_model(PRODUCT.replace("moment", "kripke")
                    .replace("part", "rel"))
    assert isinstance(m, MomentModel)
    assert type(k) is KripkeModel
    assert k.relations == m.relations
    for f in random_corpus(24, 40, 8):
        for w in m.worlds:
            assert mc(m, w, f) == mc(k, w, f)
