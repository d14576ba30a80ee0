import random
import time

import pytest

from helpers import random_corpus
from stitkit import kernel
from stitkit.btac import BtacModel, eval, parse_model, validate_model
from stitkit.kripke import unmet_choices
from stitkit.syntax import parse, pretty

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


def test_validate_valuation_indices():
    text = """
    btac
    moment m1
    moment m2 parent m1
    moment m3 parent m1 histories 2
    val p: m1/h1 m2/h1 m3/h1 m3/h2 m2/h3 m1/h3
    """
    # parse_model and a model built directly are refused alike, with
    # every violation in order
    with pytest.raises(ValueError) as err:
        parse_model(text + "val q: m9/h1 m1/h9")
    assert str(err.value) == "; ".join([
        "val p: history h3 does not pass through m2",
        "val p: history h1 does not pass through m3",
        "val q: unknown index m1/h9",
        "val q: unknown index m9/h1"])
    with pytest.raises(ValueError, match="^val p: unknown index m1/h9$"):
        BtacModel(("m1",), {"m1": None}, {}, {"p": {("m1", "h9")}})


def test_validate_superadditivity_violation():
    text = """
    btac
    moment m1 histories 2
    choice 0 m1: {h1} {h2}
    choice 1 m1: {h1} {h2}
    """
    with pytest.raises(ValueError) as err:
        parse_model(text)
    assert str(err.value) == (
        "superadditivity fails at m1 (agent 0: {h1}, agent 1: {h2}); "
        "superadditivity fails at m1 (agent 0: {h2}, agent 1: {h1})")


def test_validate_deep_chain_in_linear_time():
    # H_w is built once per call: one walk per history, not one per moment
    n = 12000
    text = ("btac\nmoment m0\n"
            + "".join(f"moment m{i} parent m{i - 1}\n" for i in range(1, n))
            + f"choice 0 m{n // 2}: {{h1}}\n"
            + "val p: " + " ".join(f"m{i}/h1" for i in range(n)) + "\n")
    m = parse_model(text)
    start = time.process_time()
    assert validate_model(m) == []
    assert time.process_time() - start < 2.0


def test_tree_structure_errors():
    # tree-structure errors come before the class violations
    with pytest.raises(ValueError, match="^expected one root, found 2$"):
        BtacModel(("m1", "m2"), {"m1": None, "m2": None},
                  {(0, "m9"): ({"h1"},)}, {})
    with pytest.raises(ValueError):
        BtacModel(("m1",), {"m1": "m1"}, {}, {})
    # names a model-file line uses but no moment line or history defines
    for line, message in (
            ("val p: m1/h9", "val p: unknown index m1/h9"),
            ("val p: m9/h1", "val p: unknown index m9/h1"),
            ("choice 0 m9: {h1}", "choice 0 at unknown moment 'm9'"),
            ("choice 0 m1: {h1 h9}", r"choice 0 at m1: histories \['h9'\] "
                                     "outside the partitioned set")):
        with pytest.raises(ValueError, match=message):
            parse_model("btac\nmoment m1\n" + line)
    # one root and known parents, but a cycle of three moments hangs off
    # the tree; walks that reached the root earlier do not hide it
    with pytest.raises(ValueError, match="cycle in parent links"):
        parse_model("btac\nmoment r\nmoment x parent r\n"
                    "moment y parent x\nmoment a parent c\n"
                    "moment b parent a\nmoment c parent b\n"
                    "moment d parent b")


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


def _random_tree_model(rng):
    """A tree of depth <= 2 and branching <= 3 with 1-2 histories per
    leaf, random partitions of H_w for agents 0 and 1 at every moment,
    redrawn until they are independent, and a random valuation of p and
    q."""
    moments, parent, level = ["m0"], {"m0": None}, ["m0"]
    for _ in range(2):
        nxt = []
        for w in level:
            for _ in range(rng.randint(0, 3)):
                c = f"m{len(moments)}"
                moments.append(c)
                parent[c] = w
                nxt.append(c)
        level = nxt
    leaves = set(moments) - set(parent.values())
    mult = {w: rng.randint(1, 2) for w in sorted(leaves)}
    tree = BtacModel(moments, parent, {}, {}, mult)
    choice, valuation = {}, {"p": set(), "q": set()}
    for w in moments:
        hw = sorted(tree.histories_through(w))
        # at most three cells each, so that independent pairs are drawn
        # often enough to redraw until one is
        parts = None
        while parts is None or next(unmet_choices(parts, frozenset(hw)),
                                    None):
            parts = []
            for _ in (0, 1):
                cells = {}
                for h in hw:
                    cells.setdefault(rng.randrange(min(len(hw), 3)),
                                     set()).add(h)
                parts.append(tuple(cells.values()))
        choice[(0, w)], choice[(1, w)] = parts
        for pairs in valuation.values():
            pairs.update((w, h) for h in hw if rng.random() < 0.5)
    return BtacModel(moments, parent, choice, valuation, mult)


def test_eval_agrees_with_kernel_on_each_moment():
    # what the btac sweep of axioms.semantic_audit relies on: truth at
    # w/h depends only on the histories through w, so the moment frame
    # of w (agent cells on H_w, settledness block (H_w,)) gives the same
    # value as eval
    rng = random.Random(41)
    corpus = random_corpus(42, 150, 14)
    for _ in range(30):
        m = _random_tree_model(rng)
        for w in m.moments:
            hw = sorted(m.histories_through(w), key=m.histories.index)
            bit = {h: 1 << i for i, h in enumerate(hw)}
            blocks = tuple(tuple(sum(bit[h] for h in c)
                                 for c in m.choice_cells(a, w))
                           for a in (0, 1))
            frame = kernel.Frame(len(hw), blocks + (((1 << len(hw)) - 1,),))
            masks = [sum(bit[h] for h in hw if (w, h) in m.valuation[p])
                     for p in ("p", "q")]
            for f in rng.sample(corpus, 10):
                ops, args = kernel.compile_formula(f, {"p": 0, "q": 1},
                                                   {0: 0, 1: 1})
                truth = kernel.eval_mask(ops, args, frame, masks)
                for h in hw:
                    assert eval(m, (w, h), f) == bool(truth & bit[h]), \
                        (w, h, pretty(f))
