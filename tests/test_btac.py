import itertools

import pytest

from stitkit import btac
from stitkit.btac import (BtacModel, enumerate_models, eval, format_model,
                          parse_model, set_partitions, valid_in_model,
                          validate_model)
from stitkit.syntax import parse

GARDEN = """
btac
moment m1 histories 4
choice 0 m1: {h1 h2} {h3 h4}
choice 1 m1: {h1 h3} {h2 h4}
val p: m1/h1 m1/h2
val q: m1/h1 m1/h3
"""


def garden():
    return parse_model(GARDEN)


def test_parse_and_histories():
    m = garden()
    assert m.histories == ("h1", "h2", "h3", "h4")
    assert validate_model(m) == []


def test_format_roundtrip():
    m = garden()
    again = parse_model(format_model(m))
    assert format_model(again) == format_model(m)


def test_eval_atoms_and_booleans():
    m = garden()
    assert eval(m, ("m1", "h1"), parse("(p & q)"))
    assert not eval(m, ("m1", "h2"), parse("q"))
    assert eval(m, ("m1", "h4"), parse("~(p | q)"))


def test_eval_box():
    m = garden()
    assert eval(m, ("m1", "h1"), parse("<>(p & q)"))
    assert not eval(m, ("m1", "h1"), parse("[]p"))
    assert eval(m, ("m1", "h4"), parse("[](p | ~p)"))


def test_eval_cstit():
    m = garden()
    # agent 0's cell at h1 is {h1, h2}, where p holds throughout
    assert eval(m, ("m1", "h1"), parse("[0]p"))
    assert not eval(m, ("m1", "h1"), parse("[0]q"))
    assert eval(m, ("m1", "h1"), parse("[1]q"))
    assert not eval(m, ("m1", "h3"), parse("[0]p"))


def test_eval_dstit():
    m = garden()
    # [0]p holds at h1 and p is not settled, so {0}p holds
    assert eval(m, ("m1", "h1"), parse("{0}p"))
    assert eval(m, ("m1", "h1"), parse("(p <-> ~{0}~p)")) \
        or eval(m, ("m1", "h1"), parse("p"))
    # settled truths are never seen to
    assert eval(m, ("m1", "h1"), parse("[0](p | ~p)"))
    assert not eval(m, ("m1", "h1"), parse("{0}(p | ~p)"))


def test_eval_along_history():
    text = """
    btac
    moment m1
    moment m2 parent m1
    moment m3 parent m1 histories 2
    val p: m2/h1
    """
    m = parse_model(text)
    assert m.histories == ("h1", "h2", "h3")
    assert eval(m, ("m2", "h1"), parse("p"))
    assert eval(m, ("m2", "h1"), parse("[]p"))  # only h1 passes m2
    assert not eval(m, ("m1", "h1"), parse("p"))
    assert not eval(m, ("m1", "h1"), parse("<>p"))  # p fails at m1 everywhere
    with pytest.raises(ValueError):
        eval(m, ("m3", "h1"), parse("p"))  # h1 does not pass m3


def test_vacuous_choice_defaults():
    text = """
    btac
    moment m1 histories 2
    val p: m1/h1
    """
    m = parse_model(text)
    assert eval(m, ("m1", "h1"), parse("([0]p <-> []p)"))


def test_validate_partition_violation():
    m = garden()
    m.choice[(0, "m1")] = (frozenset({"h1"}), frozenset({"h1", "h2"}))
    assert any("two cells" in v for v in validate_model(m))


def test_validate_superadditivity_violation():
    text = """
    btac
    moment m1 histories 2
    choice 0 m1: {h1} {h2}
    choice 1 m1: {h1} {h2}
    """
    m = parse_model(text)
    assert any("independence" in v.lower() or "intersection" in v.lower()
               or "superadditiv" in v.lower() for v in validate_model(m))


def test_tree_structure_errors():
    with pytest.raises(ValueError):
        BtacModel(("m1", "m2"), {"m1": None, "m2": None}, {}, {})
    with pytest.raises(ValueError):
        BtacModel(("m1",), {"m1": "m1"}, {}, {})
    with pytest.raises(ValueError):
        parse_model("btac\nmoment m1\nval p: m1/h9")


def test_moment_attribute_errors():
    for text, message in (
            ("moment m1 parent", "'parent' needs a value"),
            ("moment m1 histories 0", "histories 0 at m1 is below 1"),
            ("moment m1 histories -1", "histories -1 at m1 is below 1"),
            ("moment m1 histories 3\nmoment m2 parent m1",
             "histories at m1, which is not a leaf")):
        with pytest.raises(ValueError, match=message):
            parse_model("btac\n" + text)
    with pytest.raises(ValueError, match="m9, which is not a leaf"):
        BtacModel(("m1",), {"m1": None}, {}, {}, {"m9": 2})


def test_set_partitions():
    parts = list(set_partitions(["a", "b", "c"]))
    assert len(parts) == 5
    for p in parts:
        flat = sorted(itertools.chain.from_iterable(p))
        assert flat == ["a", "b", "c"]


def test_enumerate_models_all_valid():
    models = list(enumerate_models(2, 3, 2, ("p",)))
    assert models
    for m in models:
        assert validate_model(m) == []
    # settledness of tautologies holds everywhere
    taut = parse("[](p | ~p)")
    for m in models[:50]:
        assert valid_in_model(m, taut)


def test_enumerate_models_guard():
    with pytest.raises(ValueError):
        list(enumerate_models(3, 4, 2, ("p",)))


def test_valid_in_model():
    m = garden()
    assert valid_in_model(m, parse("({0}p -> ~[]p)"))
    assert not valid_in_model(m, parse("p"))
