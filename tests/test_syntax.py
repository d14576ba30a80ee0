import copy
import importlib.resources
import itertools
import pickle
import random
import re
import sys
import time
from dataclasses import FrozenInstanceError

import pytest

from stitkit import syntax
from stitkit.syntax import (And, Atom, Box, Cstit, Diamond, Dstit, Iff,
                            Implies, Not, Or, PosCstit, SyntaxError_,
                            agents, atoms, conjoin, expand_dstit,
                            language_tag, length, parse, pretty,
                            subformulas, LanguageTag)

from helpers import exhaustive_formulas, random_corpus, reference_parse


def test_parse_primitives():
    assert parse("p") == Atom("p")
    assert parse("~p") == Not(Atom("p"))
    assert parse("(p & q)") == And(Atom("p"), Atom("q"))
    assert parse("[0]p") == Cstit(0, Atom("p"))
    assert parse("{3}p") == Dstit(3, Atom("p"))
    assert parse("[]p") == Box(Atom("p"))


def test_sugar_desugars():
    assert parse("(p | q)") == Not(And(Not(Atom("p")), Not(Atom("q"))))
    assert parse("(p -> q)") == Not(And(Atom("p"), Not(Atom("q"))))
    assert parse("(p <-> q)") == Iff(Atom("p"), Atom("q"))
    assert parse("<>p") == Not(Box(Not(Atom("p"))))
    assert parse("<2>p") == Not(Cstit(2, Not(Atom("p"))))
    assert parse("<>p") == Diamond(Atom("p"))
    assert parse("<0>p") == PosCstit(0, Atom("p"))


def test_outer_parens_optional():
    assert parse("p & q") == parse("(p & q)")
    assert parse("p -> q") == parse("(p -> q)")


def test_chained_same_op_nests_right():
    assert parse("(p & q & r)") == And(Atom("p"), And(Atom("q"), Atom("r")))
    assert parse("(p | q | r)") == Or(Atom("p"), Or(Atom("q"), Atom("r")))
    assert parse("(p & q & r)") == conjoin([Atom("p"), Atom("q"), Atom("r")])


def test_mixed_ops_need_parens():
    with pytest.raises(SyntaxError_):
        parse("(p & q | r)")
    with pytest.raises(SyntaxError_):
        parse("(p -> q -> r)")


def test_parse_errors():
    for bad in ["", "(p", "p)", "p q", "[p", "{0)p", "P", "p &", "&"]:
        with pytest.raises(SyntaxError_):
            parse(bad)


def test_atom_names():
    assert parse("_x9Y") == Atom("_x9Y")
    with pytest.raises(SyntaxError_):
        parse("9x")


def test_pretty_roundtrip_random():
    for f in random_corpus(11, 300, 14):
        assert parse(pretty(f)) == f


def test_pretty_examples():
    assert pretty(parse("{1}(p & ~[]q)")) == "{1}(p & ~[]q)"
    assert pretty(parse("<>p")) == "~[]~p"


def test_length_clauses():
    assert length(parse("p")) == 1
    assert length(parse("~p")) == 2
    assert length(parse("(p & q)")) == 5
    assert length(parse("[7]p")) == 4
    assert length(parse("{7}p")) == 6
    assert length(parse("[]p")) == 2
    assert length(parse("{0}(p & ~[]q)")) == 12


def test_subformulas_postorder_dedup():
    f = parse("(p & (p & q))")
    sf = subformulas(f)
    assert sf == (Atom("p"), Atom("q"), And(Atom("p"), Atom("q")), f)
    assert len(sf) == len(set(sf))


def test_subformula_card_bounded_by_length():
    for f in random_corpus(13, 200, 20):
        assert len(subformulas(f)) <= length(f)


def test_agents_and_atoms():
    f = parse("([2]p & {5}~q)")
    assert agents(f) == {2, 5}
    assert atoms(f) == {"p", "q"}
    assert agents(parse("[]p")) == set()


def test_language_tag():
    assert language_tag(parse("[0]p")) is LanguageTag.CSTIT
    assert language_tag(parse("{0}p")) is LanguageTag.DSTIT
    assert language_tag(parse("([0]p & {1}q)")) is LanguageTag.MIXED
    assert language_tag(parse("[]p")) is LanguageTag.CSTIT


def test_expand_dstit():
    f = parse("{0}p")
    assert expand_dstit(f) == parse("([0]p & ~[]p)")
    g = parse("{1}{0}p")
    inner = parse("([0]p & ~[]p)")
    assert expand_dstit(g) == And(Cstit(1, inner), Not(Box(inner)))
    # parts without a {i} come back as the same objects
    h = parse("(~[0]p & ({1}q | []r))")
    e = expand_dstit(h)
    assert e == parse("(~[0]p & (([1]q & ~[]q) | []r))")
    assert e.left is h.left
    assert e.right.sub.right is h.right.sub.right
    k = parse("(~[0]p & <>[1]q)")
    assert expand_dstit(k) is k


def test_str_matches_pretty():
    f = parse("([0]p & q)")
    assert str(f) == pretty(f)


# -- the node contract ----------------------------------------------------

def test_node_equality_and_hash_follow_the_text():
    # a second, separately parsed copy, so equality is never identity
    fs = list(exhaustive_formulas(6))
    copies = [parse(pretty(f)) for f in fs]
    texts = [pretty(f) for f in fs]
    for (a, ta), (b, tb) in itertools.product(zip(fs, texts),
                                              zip(copies, texts)):
        assert (a == b) is (ta == tb)
        assert (a != b) is (ta != tb)
        if ta == tb:
            assert a is not b and hash(a) == hash(b)
    assert len(set(fs) | set(copies)) == len(fs)
    # the hash covers every field: no two of these formulas share one
    assert len({hash(f) for f in fs}) == len(fs)


def test_node_pickle_copy_and_repr():
    def dataclass_repr(f):
        if isinstance(f, Atom):
            return f"Atom(name={f.name!r})"
        if isinstance(f, And):
            return (f"And(left={dataclass_repr(f.left)}, "
                    f"right={dataclass_repr(f.right)})")
        if isinstance(f, (Cstit, Dstit)):
            return (f"{type(f).__name__}(agent={f.agent!r}, "
                    f"sub={dataclass_repr(f.sub)})")
        return f"{type(f).__name__}(sub={dataclass_repr(f.sub)})"

    for f in exhaustive_formulas(6):
        for g in (pickle.loads(pickle.dumps(f)), copy.copy(f),
                  copy.deepcopy(f)):
            assert type(g) is type(f) and g == f and hash(g) == hash(f)
            assert pretty(g) == pretty(f)
        assert repr(f) == dataclass_repr(f)
    assert repr(parse("{1}(p & ~[]q)")) == (
        "Dstit(agent=1, sub=And(left=Atom(name='p'), "
        "right=Not(sub=Box(sub=Atom(name='q')))))")


def test_nodes_are_immutable():
    for f in exhaustive_formulas(6):
        for name in (*f.__match_args__, "_hash", "_sf", "other"):
            with pytest.raises(FrozenInstanceError):
                setattr(f, name, Atom("x"))
            with pytest.raises(FrozenInstanceError):
                delattr(f, name)


def test_formula_equality_with_other_types():
    assert Atom("p") != "p"
    assert Atom("p") != ("p",)
    assert Not(Atom("p")) != Box(Atom("p"))
    assert Cstit(0, Atom("p")) != Dstit(0, Atom("p"))
    assert Cstit(0, Atom("p")) != Cstit(1, Atom("p"))


DEPTH = 100_000

# kind -> (one level from constructors, the same nesting as text, length)
P = Atom("p")
DEEP = {
    "not": (Not, "~" * DEPTH + "p", DEPTH + 1),
    "cstit": (lambda g: Cstit(0, g), "[0]" * DEPTH + "p", 3 * DEPTH + 1),
    "dstit": (lambda g: Dstit(1, g), "{1}" * DEPTH + "p", 5 * DEPTH + 1),
    "and": (lambda g: And(P, g), "(p & " * DEPTH + "p" + ")" * DEPTH,
            4 * DEPTH + 1),
}


def _expansion_levels(e):
    """How many ([1]s & ~[]s) levels, each sharing s, lead down to p."""
    levels = 0
    while isinstance(e, And) and e.left.agent == 1 \
            and e.left.sub is e.right.sub.sub:
        e = e.left.sub
        levels += 1
    return levels if e == P else -1


def test_deep_nesting_without_recursion():
    # CPU time, so other processes on a shared machine do not count
    start = time.process_time()
    limit = sys.getrecursionlimit()
    for kind, (level, text, size) in DEEP.items():
        f = P
        for _ in range(DEPTH):
            f = level(f)
        assert pretty(f) == text
        g = parse(text)  # so parse(pretty(f)) == f below
        assert hash(f) == hash(g) and f == g
        assert f != level(g)
        sf = subformulas(g)
        assert len(sf) == DEPTH + 1 and sf[-1] is g and subformulas(g) is sf
        assert length(g) == size
        e = expand_dstit(g)
        if kind == "dstit":
            assert _expansion_levels(e) == DEPTH
        else:
            assert e is g
    assert sys.getrecursionlimit() == limit
    assert time.process_time() - start < 5.0


# -- the loop parser against the recursive reference ------------------------

def _outcome(parser, text):
    try:
        return "ok", parser(text)
    except SyntaxError_ as e:
        return "syntax", str(e), e.position
    except ValueError as e:
        return "value", str(e)


def _sugar_forms(text):
    """Variants of one formula text with sugar and with the outer
    parentheses dropped; some of them do not parse."""
    yield text
    for op in (" | ", " -> ", " <-> "):
        yield text.replace(" & ", op)
    yield text.replace("~[]", "<>")
    yield re.sub(r"~\[(\d+)\]", r"<\1>", text)
    yield re.sub(r"~\[(\d+)\]~", r"<\1>", text)
    if text.startswith("("):
        yield text[1:-1]
        yield text[1:-1].replace(" & ", " | ")
    yield text.replace(" & (", " & ").replace("))", ")")


JUNK = ["", " ", "(", ")", "()", "(p", "p)", "p q", "[p", "{0)p", "P", "p &",
        "&", "~", "[]", "<>", "<0>", "((p)", "(p))", "((p))", "(p & q) & r",
        "p & q & r", "p -> q -> r", "(p & q | r)", "(p -> q -> r)",
        "(p <-> q & r)", "(p | q | r)", "p | q & r", "(p & q & r",
        "[0][1]{2}<3>~<>[]p", "[00]p", "{007}(p & q)", "p&q", "~ ~ p",
        "p\tq", "(p & q)\n", "p @ q", "9x", "_", "(((p & q) -> r) | s)",
        "[" + "9" * 5000 + "]p", "(p & [" + "9" * 5000 + "]q)"]


_AGENT_KIND = {"[": "cstit", "<": "poscstit", "{": "dstit"}


def _long_agent(text):
    """The first agentive token with more digits than int() converts."""
    for m in re.finditer(r"\[\d+\]|<\d+>|\{\d+\}", text):
        if len(m[0]) - 2 > sys.get_int_max_str_digits():
            return m
    return None


def _token_strings(max_tokens):
    alphabet = ["p", "q", "(", ")", "&", "|", "->", "<->", "~", "[]", "<>",
                "[0]", "<1>", "{1}"]
    for k in range(max_tokens + 1):
        for combo in itertools.product(alphabet, repeat=k):
            yield " ".join(combo)


def _fixture_formula_texts():
    """The formula text of every line of the derivation fixtures."""
    root = importlib.resources.files("stitkit") / "fixtures"
    for path in root.iterdir():
        if path.name.endswith(".drv"):
            for line in path.read_text().splitlines():
                m = re.match(r"\d+\s*:\s*(.*?)\s*;", line.strip())
                if m:
                    yield m.group(1)


def test_parse_matches_reference_parser():
    texts = set(JUNK)
    for f in exhaustive_formulas(7):
        texts.update(_sugar_forms(pretty(f)))
    texts.update(_token_strings(4))
    rng = random.Random(7)
    base = sorted(texts)
    for _ in range(3000):
        t = rng.choice(base)
        k = rng.randrange(len(t) + 1)
        texts.add(t[:k] + rng.choice("()&|~<>-[]{}0p ") + t[k + 1:])
    # real-length texts: the derivation fixture lines, and each one
    # negated as the replay benchmark mutates it
    for text in _fixture_formula_texts():
        texts.update((text, "~" + text))
    outcomes = {"ok": 0, "syntax": 0}
    long_index = 0
    for text in sorted(texts):
        got = _outcome(parse, text)
        want = _outcome(reference_parse, text)
        if want[0] == "value":
            # int() refuses the agent index in the reference; parse
            # reports it at its token, whose match starts with the blanks
            # before it
            long_index += 1
            m = _long_agent(text)
            pos = len(text[:m.start()].rstrip())
            want = ("syntax", f"agent index of {_AGENT_KIND[m[0][0]]} is "
                    f"too long (at position {pos})", pos)
        assert got == want, text
        outcomes[got[0]] += 1
    assert min(outcomes.values()) > 0 and long_index > 0
