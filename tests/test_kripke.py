import random

import pytest

from stitkit import btac, kripke, syntax
from stitkit.kripke import (KripkeModel, MomentModel, box_classes,
                            check_partition, components, filtrate,
                            format_model, mc, parse_model)
from stitkit.syntax import parse, pretty, subformulas

from helpers import generated_submodel, random_corpus, reference_check_gpp

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
    # both kinds are checked when read, through one path
    for kind, key in (("kripke", "rel"), ("moment", "part")):
        bad = f"{kind} agents=1\nworlds: a b\n{key} 0: {{a}} {{a b}}\n"
        with pytest.raises(ValueError,
                           match=r"agent 0: worlds \['a'\] in two cells"):
            parse_model(bad)


def test_valuation_of_unknown_worlds():
    with pytest.raises(ValueError, match=r"of p uses unknown worlds \['c'\]"):
        parse_model("kripke agents=1\nworlds: a b\nrel 0: {a b}\nval p: a c")
    with pytest.raises(ValueError,
                       match=r"of q uses unknown worlds \['c', 'd'\]"):
        KripkeModel(("a", "b"), {0: ({"a", "b"},)},
                    {"p": {"a"}, "q": {"c", "d"}})


def test_no_worlds_refused():
    for cls in (KripkeModel, MomentModel):
        with pytest.raises(ValueError, match="at least one world"):
            cls((), {}, {})


def test_duplicate_world_refused():
    # a model that format_model would write as a file parse_model refuses
    for cls in (KripkeModel, MomentModel):
        with pytest.raises(ValueError, match="world 'a' listed twice"):
            cls(("a", "b", "a", "b"), {0: ({"a"}, {"b"})}, {"p": {"a"}})
    with pytest.raises(ValueError, match="world 'a' listed twice"):
        parse_model("kripke agents=1\nworlds: a a b\nrel 0: {a} {b}\n")


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
    text = TWO_CLASS.replace("agents=2", "agents=3")
    m = parse_model(text)
    busy = parse("(([]p | <>q) & ([2]p | {2}~q | {0}[]p | <2>[]q))")
    quiet = parse("([0]p & ~([1]q & p))")
    for w in m.worlds:
        del calls[:]
        mc(m, w, busy)
        assert len(calls) == 1
        mc(m, w, quiet)
        assert len(calls) == 1
    # building the model checks its frame with one box_classes call
    del calls[:]
    parse_model(text)
    assert len(calls) == 1


def test_single_stored_agent_box_is_universal():
    m = KripkeModel(("a", "b"), {0: ({"a"}, {"b"},)}, {"p": {"a"}}, 2)
    assert len(box_classes(m)) == 1
    assert not mc(m, "a", parse("[]p"))
    assert mc(m, "a", parse("<>~p"))


def test_check_gpp():
    # a model without the permutation property is refused when built
    parse_model(PRODUCT.replace("moment", "kripke").replace("part", "rel"))
    with pytest.raises(ValueError, match=r"^permutation property fails: "
                                         r"\{c\} \{a\} do not meet$"):
        KripkeModel(("a", "b", "c"),
                    {0: ({"a", "b"}, {"c"}), 1: ({"b", "c"}, {"a"})},
                    {}, 2)


def test_check_rectangular():
    # on a MomentModel the one settledness class is the world set
    parse_model(PRODUCT)
    parts = {0: ({"a"}, {"b"}), 1: ({"a"}, {"b"})}
    assert list(kripke.unmet_per_class(
        [[frozenset(c) for c in parts[a]] for a in parts],
        [frozenset("ab")])) == [(frozenset("a"), frozenset("b")),
                                (frozenset("b"), frozenset("a"))]
    with pytest.raises(ValueError, match=r"^partitions not rectangular: "
                                         r"\{a\} \{b\} do not meet$"):
        MomentModel(("a", "b"), parts, {})


def _random_kripke(rng):
    """The worlds, relations and agent universe of a KripkeModel over 1-6
    worlds with 0-3 stored agents, each cell label drawn from a few, and
    sometimes padded agents."""
    worlds = tuple(f"w{i}" for i in range(rng.randint(1, 6)))
    stored = rng.sample(range(4), rng.randint(0, 3))
    relations = {}
    for a in stored:
        labels = rng.randint(1, 3)
        cells = {}
        for w in worlds:
            cells.setdefault(rng.randrange(labels), set()).add(w)
        relations[a] = tuple(cells.values())
    universe = max(stored, default=0) + 1 + rng.randint(0, 2)
    return worlds, relations, universe


def test_check_gpp_matches_reference():
    # a random frame is built exactly when the direct check finds no
    # violation, and a refused one names an unmet choice of cells
    rng = random.Random(41)
    verdicts = set()
    for _ in range(500):
        worlds, relations, universe = _random_kripke(rng)
        ok = reference_check_gpp(worlds, relations, universe) == []
        verdicts.add((len(relations), ok))
        if ok:
            KripkeModel(worlds, relations, {}, universe)
            continue
        with pytest.raises(ValueError) as err:
            KripkeModel(worlds, relations, {}, universe)
        message = str(err.value)
        body = message.removeprefix("permutation property fails: ")
        assert body != message and body.endswith(" do not meet"), message
        # the reported choice is one cell per stored agent, in agent
        # order, in one class, with nothing in common
        cells = kripke.cells_field(body.removesuffix(" do not meet"),
                                   message)
        stored = sorted(relations)
        assert len(cells) == len(stored), message
        assert all(c in map(frozenset, relations[a])
                   for c, a in zip(cells, stored)), message
        assert not frozenset.intersection(*cells), message
        assert any(all(c <= cls for c in cells) for cls in components(
            worlds, (c for a in stored for c in relations[a]))), message
    # both verdicts occur among the models with two or three stored agents
    assert {(2, True), (2, False), (3, True), (3, False)} <= verdicts


def test_equivalence_checker():
    whole = ("a", "b", "c")
    assert check_partition(whole, (frozenset("ab"), frozenset("c")),
                           "agent 0", "worlds") == []
    # cell sizes that sum to the world count do not make a partition
    assert check_partition(whole, (frozenset("ab"), frozenset("b")),
                           "agent 0", "worlds") == [
        "agent 0: worlds ['b'] in two cells",
        "agent 0: worlds ['c'] in no cell"]
    assert check_partition(whole, (frozenset("abc"), frozenset()),
                           "agent 0", "worlds") == ["agent 0: empty cell"]


@pytest.mark.parametrize("kind", ["kripke", "btac"])
@pytest.mark.parametrize("cells, message", [
    (({"h1", "h2", "h3"}, set()), "empty cell"),
    (({"h1", "h2"}, {"h2", "h3"}), "{noun} ['h2'] in two cells"),
    (({"h1", "h2", "h3", "h9"},),
     "{noun} ['h9'] outside the partitioned set"),
    (({"h1", "h2"},), "{noun} ['h3'] in no cell"),
])
def test_partition_messages(kind, cells, message):
    # a Kripke relation and a BT+AC choice go through one partition
    # check, which refuses either model when it is built
    with pytest.raises(ValueError) as err:
        if kind == "kripke":
            KripkeModel(("h1", "h2", "h3"), {0: cells}, {})
        else:
            btac.BtacModel(("m1",), {"m1": None}, {(0, "m1"): cells}, {},
                           {"m1": 3})
    label, noun = (("agent 0", "worlds") if kind == "kripke"
                   else ("choice 0 at m1", "histories"))
    # an empty BT+AC cell also fails independence, reported after it
    got = str(err.value).split("; ")
    assert got[0] == f"{label}: " + message.format(noun=noun)
    assert all(v.startswith("superadditivity fails") for v in got[1:])


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
        out, wmap = filtrate(m, f)
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
