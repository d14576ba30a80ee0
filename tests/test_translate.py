import pytest

from stitkit import solver, syntax, translate
from stitkit.solver import SolverConfig
from stitkit.syntax import (And, Atom, Box, Cstit, Dstit, Iff, Implies,
                            LanguageTag, Not, Or, atoms, language_tag,
                            length, parse, pretty, subformulas)
from stitkit.translate import tr, tr_prime

from helpers import (TR_PRIME_POLARITY, blowup, exhaustive_formulas,
                     random_corpus, reference_translate)

CFG2 = SolverConfig(agent_universe=2)


def test_tr_output_language():
    for f in random_corpus(41, 60, 10, cstit=False):
        out = tr(f)
        assert language_tag(out) is not LanguageTag.DSTIT
        assert language_tag(out) is not LanguageTag.MIXED


def test_tr_prime_output_language():
    for f in random_corpus(42, 60, 10, dstit=False):
        out = tr_prime(f)
        assert language_tag(out) is not LanguageTag.CSTIT or \
            not syntax.agents(out)
        assert not any(isinstance(g, syntax.Cstit)
                       for g in syntax.subformulas(out))


def test_language_guards():
    with pytest.raises(ValueError):
        tr(parse("[0]p"))
    with pytest.raises(ValueError):
        tr_prime(parse("{0}p"))


def test_translations_match_recursive_reference():
    corpus = [*exhaustive_formulas(9), *random_corpus(5, 3000, 16)]
    done = 0
    for f in corpus:
        sf = subformulas(f)
        for fn, kind, other in ((tr, Dstit, Cstit), (tr_prime, Cstit, Dstit)):
            if not any(isinstance(g, other) for g in sf):
                want = reference_translate(f, kind)
                out = fn(f)
                assert out == want and pretty(out) == pretty(want), pretty(f)
                done += 1
    assert done == 10_276


def _fresh_count(f, kind):
    # one fresh atom per distinct non-atomic operand of a rewritten node
    return len({g.sub for g in subformulas(f)
                if isinstance(g, kind) and not isinstance(g.sub, Atom)})


def test_fresh_atoms_cannot_collide():
    names = ("_b0", "_b1")
    cases = [(tr, Dstit, [parse(t) for t in
                          ("(p & ~_b0)", "({0}p & ~_b1)",
                           "({0}~_b0 & ~_b1)", "{0}~{1}(p & ~_b0)")]
              + random_corpus(46, 40, 9, atom_names=names, cstit=False)),
             (tr_prime, Cstit, [parse(t) for t in
                                ("(p & ~_b0)", "([0]~p & ~_b0)",
                                 "([0]~_b0 & ~_b1)", "~[0]~[1](p & ~_b0)")]
              + random_corpus(47, 40, 9, atom_names=names, dstit=False))]
    for fn, kind, corpus in cases:
        for f in corpus:
            out = fn(f)
            # every fresh atom is an atom the input does not have
            assert len(atoms(out)) == len(atoms(f)) + _fresh_count(f, kind), \
                pretty(f)
            assert solver.oracle(f, 2, CFG2).verdict == \
                solver.oracle(out, 2, CFG2).verdict, pretty(f)


def test_biimp_shapes():
    p, q, s = Atom("p"), Atom("q"), Atom("_b0")
    # an atomic operand is its own name: the two rewrites alone
    assert tr(parse("{0}p")) == And(Cstit(0, p), Not(Box(p)))
    assert tr_prime(parse("[1]q")) == Or(Dstit(1, q), Box(q))
    # a compound operand gets a fresh atom and a settled definition:
    # two-way under {i}, one-way by polarity under [i]
    assert tr(parse("{0}~p")) == \
        And(And(Cstit(0, s), Not(Box(s))), Box(Iff(s, Not(p))))
    assert tr_prime(parse("[1]~q")) == \
        And(Or(Dstit(1, s), Box(s)), Box(Implies(s, Not(q))))
    assert tr_prime(parse("~[1]~q")) == \
        And(Not(Or(Dstit(1, s), Box(s))), Box(Implies(Not(q), s)))
    assert tr_prime(parse("([1]~q & ~[1]~q)")) == \
        And(And(Or(Dstit(1, s), Box(s)), Not(Or(Dstit(1, s), Box(s)))),
            Box(Iff(s, Not(q))))


def test_translation_linear_in_subformulas():
    # each rewritten operator contributes its rewrite and at most one
    # settled definition of bounded size
    for f in random_corpus(43, 60, 12, cstit=False):
        out = tr(f)
        assert length(out) <= 40 * length(f) + 1


def test_sat_preserved_dstit_to_cstit():
    for f in random_corpus(44, 25, 8, cstit=False):
        a = solver.oracle(f, 2, CFG2).verdict
        b = solver.oracle(tr(f), 2, CFG2).verdict
        assert a == b, pretty(f)


def test_sat_preserved_cstit_to_dstit():
    polarity = [parse(t) for t in TR_PRIME_POLARITY]
    for f in random_corpus(45, 25, 8, dstit=False) + polarity:
        a = solver.oracle(f, 2, CFG2).verdict
        b = solver.oracle(tr_prime(f), 2, CFG2).verdict
        assert a == b, pretty(f)


def test_blowup_measured():
    f = parse("{0}~q")
    out = tr(f)
    assert atoms(out) == {"q", "_b0"}
    assert blowup(f, out) == (length(out) - 1) / length(f)
    assert length(out) <= 1 + 14 * length(f)


def _chains(n):
    p = Atom("p")
    families = {tr_prime: (lambda g: Cstit(0, g),
                           lambda g: Cstit(0, Not(g)),
                           lambda g: Cstit(0, Box(g))),
                tr: (lambda g: Dstit(0, g),
                     lambda g: Dstit(0, Not(g)))}
    for fn, wraps in families.items():
        for wrap in wraps:
            g = p
            for _ in range(n):
                g = wrap(g)
                yield fn, g


def test_length_bound_exhaustive_and_chains():
    # criterion 5's factor-14 bound on every formula of length <= 10 of
    # each source language, and on operator chains up to depth 24
    cases = [(tr, f) for f in exhaustive_formulas(10)
             if not any(isinstance(g, Cstit) for g in subformulas(f))]
    cases += [(tr_prime, f) for f in exhaustive_formulas(10, dstit=False)]
    assert len(cases) == 6854 + 11470
    cases += list(_chains(24))
    bad = [pretty(f) for fn, f in cases
           if length(fn(f)) > 1 + 14 * length(f)]
    assert bad == []
