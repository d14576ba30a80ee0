"""Shared test utilities: formula generators, small-model helpers, the
recursive reference parser and translation, the scalar references of the
bit-parallel inner loops, the direct permutation-property checks, the
frame-at-a-time oracle, sweep and audit, measures that only the tests read,
and the shared inputs of the derivation and translation checks."""

import itertools
import random
from array import array
import re
from itertools import count

from stitkit import kernel, syntax
from stitkit.axioms import canon
from stitkit.kripke import (KripkeModel, box_classes, check_partition,
                            components, mc)
from stitkit.solver import (ENGINE_MAX_LEAVES, ORACLE_MAX_WORLDS,
                            InconclusiveError, SatResult, SolverConfig,
                            _check_agents, _frame_model, _subsets_desc,
                            general_frames, moment_frames)
from stitkit.syntax import (And, Atom, Box, Cstit, Diamond, Dstit, Iff,
                            Implies, Not, Or, PosCstit, SyntaxError_,
                            conjoin, length)
from stitkit.translate import _definition, _rewrite


def exhaustive_formulas(max_length, atom_names=("p", "q"), agents=(0, 1),
                        dstit=True):
    """All formulas of length <= max_length over the given atoms/agents.

    Grown by the length measure: atoms cost 1, ~ and [] cost 1, & and
    [i] cost 3, {i} costs 5.
    """
    by_len = {n: [] for n in range(1, max_length + 1)}
    for name in atom_names:
        by_len[1].append(Atom(name))
    for n in range(2, max_length + 1):
        out = by_len[n]
        for f in by_len[n - 1]:
            out.append(Not(f))
            out.append(Box(f))
        if n - 3 >= 1:
            for f in by_len[n - 3]:
                for a in agents:
                    out.append(Cstit(a, f))
            for x in range(1, n - 3):
                y = n - 3 - x
                if y >= 1:
                    for lf in by_len[x]:
                        for rf in by_len[y]:
                            out.append(And(lf, rf))
        if dstit and n - 5 >= 1:
            for f in by_len[n - 5]:
                for a in agents:
                    out.append(Dstit(a, f))
    for n in range(1, max_length + 1):
        yield from by_len[n]


def random_formula(rng, budget, atom_names=("p", "q"), agents=(0, 1),
                   dstit=True, cstit=True):
    """A random formula of length <= budget (length measure)."""
    choices = ["atom"]
    if budget >= 2:
        choices += ["not", "box"]
    if budget >= 4 and cstit:
        choices.append("cstit")
    if budget >= 5:
        choices.append("and")
    if budget >= 6 and dstit:
        choices.append("dstit")
    kind = rng.choice(choices)
    if kind == "atom":
        return Atom(rng.choice(atom_names))
    if kind == "not":
        return Not(random_formula(rng, budget - 1, atom_names, agents,
                                  dstit, cstit))
    if kind == "box":
        return Box(random_formula(rng, budget - 1, atom_names, agents,
                                  dstit, cstit))
    if kind == "cstit":
        return Cstit(rng.choice(agents),
                     random_formula(rng, budget - 3, atom_names, agents,
                                    dstit, cstit))
    if kind == "dstit":
        return Dstit(rng.choice(agents),
                     random_formula(rng, budget - 5, atom_names, agents,
                                    dstit, cstit))
    lb = rng.randint(1, budget - 3 - 1)
    return And(random_formula(rng, lb, atom_names, agents, dstit, cstit),
               random_formula(rng, budget - 3 - lb, atom_names, agents,
                              dstit, cstit))


def random_corpus(seed, count, budget, **kwargs):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f = random_formula(rng, budget, **kwargs)
        assert length(f) <= budget
        out.append(f)
    return out


# -- recursive reference for syntax.parse -----------------------------------

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<lpar>\()|(?P<rpar>\))
     |(?P<iff><->)|(?P<imp>->)
     |(?P<and>&)|(?P<or>\|)|(?P<not>~)
     |(?P<box>\[\])|(?P<dia><>)
     |(?P<cstit>\[(?P<cagent>\d+)\])
     |(?P<poscstit><(?P<pagent>\d+)>)
     |(?P<dstit>\{(?P<dagent>\d+)\})
     |(?P<atom>[a-z_][a-zA-Z0-9_]*)
    )""",
    re.VERBOSE,
)

_BINOPS = {"and", "or", "imp", "iff"}


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise SyntaxError_(f"unexpected input {rest[:10]!r}", pos)
        tokens.append((m.lastgroup, m, m.start()))
        pos = m.end()
    tokens.append(("eof", None, len(text)))
    return tokens


def _combine(op, left, right):
    if op == "and":
        return And(left, right)
    if op == "or":
        return Or(left, right)
    if op == "imp":
        return Implies(left, right)
    return Iff(left, right)


class _ReferenceParser:
    """Recursive descent, one method per rule, over a tokenizer that
    matches one token at a time."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind):
        tok = self.next()
        if tok[0] != kind:
            raise SyntaxError_(f"expected {kind}, found {tok[0]}", tok[2])
        return tok

    def parse_unary(self):
        kind, m, pos = self.next()
        if kind == "atom":
            return Atom(m.group("atom"))
        if kind == "not":
            return Not(self.parse_unary())
        if kind == "box":
            return Box(self.parse_unary())
        if kind == "dia":
            return Diamond(self.parse_unary())
        if kind == "cstit":
            return Cstit(int(m.group("cagent")), self.parse_unary())
        if kind == "poscstit":
            return PosCstit(int(m.group("pagent")), self.parse_unary())
        if kind == "dstit":
            return Dstit(int(m.group("dagent")), self.parse_unary())
        if kind == "lpar":
            left = self.parse_unary()
            op = self.next()
            if op[0] == "rpar":
                return left
            if op[0] not in _BINOPS:
                raise SyntaxError_("expected binary operator", op[2])
            out = self.parse_chain(op[0], left)
            self.expect("rpar")
            return out
        raise SyntaxError_(f"unexpected token {kind}", pos)

    def parse_chain(self, op, left):
        # & and | may be chained ((a & b & c) nests to the right)
        items = [left, self.parse_unary()]
        while self.peek() == op and op in ("and", "or"):
            self.next()
            items.append(self.parse_unary())
        if self.peek() in _BINOPS:
            tok = self.tokens[self.i]
            raise SyntaxError_("mixed binary operators need parentheses",
                               tok[2])
        out = items[-1]
        for item in reversed(items[:-1]):
            out = _combine(op, item, out)
        return out

    def parse_top(self):
        left = self.parse_unary()
        if self.peek() in _BINOPS:
            # outermost parentheses are optional
            op = self.next()
            out = self.parse_chain(op[0], left)
            self.expect("eof")
            return out
        self.expect("eof")
        return left


def reference_parse(text):
    """syntax.parse as recursive descent: same ASTs, same errors."""
    return _ReferenceParser(text).parse_top()


# -- recursive reference for translate.tr and translate.tr_prime ----------

def reference_translate(f, kind):
    """translate._translate as the recursive walks it replaced: tr for
    kind Dstit, tr_prime for kind Cstit, without the language guards."""
    pols = {}
    seen = set()

    def walk(h, pol):
        if (h, pol) in seen or isinstance(h, Atom):
            return
        seen.add((h, pol))
        if isinstance(h, Not):
            walk(h.sub, -pol)
        elif isinstance(h, And):
            walk(h.left, pol)
            walk(h.right, pol)
        elif isinstance(h, kind):
            uses = (pol, -pol) if kind is Dstit else (pol,)
            if not isinstance(h.sub, Atom):
                pols.setdefault(h.sub, set()).update(uses)
            for p in uses:
                walk(h.sub, p)
        else:
            walk(h.sub, pol)

    walk(f, 1)
    taken = syntax.atoms(f)
    names = (Atom(f"_b{k}") for k in count() if f"_b{k}" not in taken)
    fresh, clauses, memo = {}, [], {}

    def name(g):
        if g not in fresh:
            body = t(g)
            fresh[g] = s = next(names)
            clauses.append(Box(_definition(s, body, pols[g])))
        return fresh[g]

    def t(h):
        if h in memo:
            return memo[h]
        if isinstance(h, Atom):
            out = h
        elif isinstance(h, Not):
            out = Not(t(h.sub))
        elif isinstance(h, And):
            out = And(t(h.left), t(h.right))
        elif isinstance(h, Box):
            out = Box(t(h.sub))
        elif isinstance(h, kind):
            out = _rewrite(h, h.sub if isinstance(h.sub, Atom)
                           else name(h.sub))
        else:
            raise TypeError(f"not a formula: {h!r}")
        memo[h] = out
        return out

    out = t(f)
    return And(out, conjoin(clauses)) if clauses else out


# -- scalar references for solver._types and solver._search_group --------

def reference_types(g):
    """solver._types one assignment at a time: same result, same order."""
    sf = syntax.subformulas(g)
    idx = {s: i for i, s in enumerate(sf)}
    # post-order, the [] leaves last
    leaves = ([i for i, s in enumerate(sf) if isinstance(s, (Atom, Cstit))]
              + [i for i, s in enumerate(sf) if isinstance(s, Box)])
    if len(leaves) > ENGINE_MAX_LEAVES:
        raise InconclusiveError(
            f"{len(leaves)} independent subformulas exceed the engine cap",
            {"cap": "leaves", "leaves": len(leaves)})
    rows, vals = [], []
    for bits in range(1 << len(leaves)):
        val = [False] * len(sf)
        for k, i in enumerate(leaves):
            val[i] = bool((bits >> k) & 1)
        ok = True
        for i, s in enumerate(sf):
            if isinstance(s, Not):
                val[i] = not val[idx[s.sub]]
            elif isinstance(s, And):
                val[i] = val[idx[s.left]] and val[idx[s.right]]
            elif isinstance(s, (Cstit, Box)) and val[i] \
                    and not val[idx[s.sub]]:
                ok = False
                break
        if ok:
            rows.append(bits)
            vals.append(val)

    def column(s):
        return b"".join(b"1" if val[idx[s]] else b"0" for val in vals)

    return ([(sf[i], None if isinstance(sf[i], Atom) else column(sf[i].sub))
             for i in leaves], array("q", rows), column(g))


def reference_search_group(cand, span, agents, profiles, amask, pairs,
                           box_negs, root_mask, stats):
    """solver._search_group over lists and sets of types, reading each
    column one character at a time."""
    cand = list(cand)

    def holds(column, j):
        return column[span.start + j] == ord("1")

    for combo in itertools.product(
            *(_subsets_desc(profiles[a]) for a in agents)):
        stats["combos"] += 1
        allowed = {a: set(r) for a, r in zip(agents, combo)}
        u = [j for j, r in enumerate(cand)
             if all(r & amask[a] in allowed[a] for a in agents)]
        if not u:
            continue
        realized = {tuple(cand[j] & amask[a] for a in agents) for j in u}
        if any(tup not in realized for tup in itertools.product(*combo)):
            continue
        if any(all(holds(b, j) for j in u) for b in box_negs):
            continue
        ok = True
        for a, rs in zip(agents, combo):
            for r in rs:
                cell = [j for j in u if cand[j] & amask[a] == r]
                for n, b in pairs[a]:
                    if not r & n and all(holds(b, j) for j in cell):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            continue
        hit = next((j for j in u if root_mask >> j & 1), None)
        if hit is None:
            continue
        if len(agents) < 2:
            # the first world of f and of each needed refuter: of each
            # false [] in u, then of each false [a] in the cell of a world
            # kept so far
            keep = {hit}
            for b in box_negs:
                keep.add(next(j for j in u if not holds(b, j)))
            for a in agents:
                for j in sorted(keep):
                    r = cand[j] & amask[a]
                    for n, b in pairs[a]:
                        if not r & n:
                            keep.add(next(k for k in u if cand[k] & amask[a]
                                          == r and not holds(b, k)))
            u = sorted(keep)
        return [cand[j] for j in u], cand[hit]
    return None


# -- direct permutation-property checks, references for the per-class
# rectangularity test that builds every KripkeModel and solver._frames -----

def _cell_of(cells, i):
    for c in cells:
        if (c >> i) & 1:
            return c
    raise ValueError


def reference_canonical(parts, n):
    """The least renaming of a partition tuple over all n! world
    permutations, each mask remapped bit by bit and each agent's cells
    sorted: equal exactly for tuples that are renamings of each other."""
    best = None
    for perm in itertools.permutations(range(n)):
        remapped = tuple(
            tuple(sorted(sum(1 << perm[i] for i in range(n) if (c >> i) & 1)
                         for c in cells))
            for cells in parts)
        if best is None or remapped < best:
            best = remapped
    return best


def reference_frame_gpp(parts, n):
    """Direct permutation-property check on bitmask partitions."""
    a = len(parts)
    for l in range(a):
        for m in range(a):
            for w in range(n):
                cw = _cell_of(parts[l], w)
                reach = 0
                for u in range(n):
                    if (cw >> u) & 1:
                        reach |= _cell_of(parts[m], u)
                for v in range(n):
                    if not (reach >> v) & 1:
                        continue
                    for nn in range(a):
                        need = _cell_of(parts[nn], w)
                        for i in range(a):
                            if i != nn:
                                need &= _cell_of(parts[i], v)
                        if not need:
                            return False
    return True


def reference_check_gpp(worlds, relations, agent_universe):
    """General permutation property violations of a frame given by its
    worlds, its relations (agent -> cells) and its agent universe, as
    (w, v, l, m, n) tuples.

    Quantifies l, m, n over the stored agents plus, when the universe is
    larger, a single representative padded agent (padded agents all act
    alike), whose cell is the settledness class: a component of the
    stored relations, or every world below two stored agents.  Relations
    must be equivalence relations.
    """
    for a, cells in relations.items():
        eq = check_partition(worlds, cells, f"agent {a}", "worlds")
        if eq:
            raise ValueError("not equivalence relations: " + "; ".join(eq))
    stored = sorted(relations)
    agents = list(stored)
    if agent_universe > len(stored):
        padded = next(a for a in range(agent_universe)
                      if a not in set(stored))
        agents.append(padded)
    classes = ([set(worlds)] if len(stored) < 2 else components(
        worlds, (c for a in stored for c in relations[a])))

    def cell(a, w):
        return next(c for c in relations.get(a, classes) if w in c)

    out = []
    for l in agents:
        for mm in agents:
            for w in worlds:
                for u in cell(l, w):
                    for v in cell(mm, u):
                        for n in agents:
                            need = set(cell(n, w))
                            for i in agents:
                                if i != n:
                                    need &= cell(i, v)
                            if not need:
                                out.append((w, v, l, mm, n))
    return sorted(set(out))


# -- scalar reference for axioms._pl_entails --------------------------------

def reference_pl_consequence(premises, conclusion, max_letters=16):
    """axioms._pl_entails on the canon forms, one assignment at a time,
    over a tuple skeleton of each canonical premise and of the
    conclusion."""
    letters = {}

    def skel(f):
        if isinstance(f, Not):
            return ("not", skel(f.sub))
        if isinstance(f, And):
            return ("and", skel(f.left), skel(f.right))
        if f not in letters:
            letters[f] = len(letters)
        return ("var", letters[f])

    shapes = [skel(canon(p)) for p in premises] + [skel(canon(conclusion))]
    if len(letters) > max_letters:
        raise ValueError("too many distinct subformulas for a PL step")

    def ev(shape, bits):
        tag = shape[0]
        if tag == "var":
            return bool((bits >> shape[1]) & 1)
        if tag == "not":
            return not ev(shape[1], bits)
        return ev(shape[1], bits) and ev(shape[2], bits)

    for bits in range(1 << len(letters)):
        if all(ev(s, bits) for s in shapes[:-1]) and not ev(shapes[-1], bits):
            return False
    return True


# -- shared inputs of the derivation and translation checks

FIXTURES = ["aia1_warmup.drv", "aia2_induction.drv", "aia3_induction.drv",
            "s5box_from_gperm.drv", "inclbox_from_gperm.drv",
            "aaia_from_gperm.drv"]

_DRV_LINE = re.compile(r"^(\d+)\s*:\s*(.*?)\s*;\s*(.*)$")


def line_negations(text):
    """Criterion 6's single-line mutations of a derivation: the formula
    of each numbered line negated, one line at a time."""
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        m = _DRV_LINE.match(ln.strip())
        if m is None:
            continue
        mutated = list(lines)
        mutated[i] = f"{m.group(1)}: ~{m.group(2)} ; {m.group(3)}"
        yield "\n".join(mutated)


def _pl_document(phi, conclusion):
    """An XU derivation: the T instance of []phi, then conclusion by PL
    from it."""
    return (f'system XU\n1: ([]{phi} -> {phi}) ; AX S5Box-T phi="{phi}"\n'
            f"2: {conclusion} ; PL 1\n")


# derivations to check in this order, each with its verdict, in pairs:
# the PL step of the second of a pair has the premises (the first two
# pairs) or the conclusion (the last two) of the first, and the other
# verdict, so a memo of PL verdicts keyed by one part alone gives the
# second the verdict of the first
PL_SHARED_STEPS = [
    (_pl_document("s0", "(~[]s0 | s0)"), True),
    (_pl_document("s0", "(s0 -> []s0)"), False),
    (_pl_document("s1", "(s1 -> []s1)"), False),
    (_pl_document("s1", "(~[]s1 | s1)"), True),
    (_pl_document("s2", "(~[]s2 | s2)"), True),
    (_pl_document("s3", "(~[]s2 | s2)"), False),
    (_pl_document("s5", "(~[]s4 | s4)"), False),
    (_pl_document("s4", "(~[]s4 | s4)"), True),
]


def _aia_document(system, phi):
    """A derivation in system of one line: AIA(1) with phi in both slots,
    which is an axiom of XU but not of GPERM-SYS."""
    return (f"system {system}\n"
            f"1: ((<>[0]{phi} & <>[1]{phi}) -> <>([0]{phi} & [1]{phi})) ; "
            f'AX AIA k=1 phi0="{phi}" phi1="{phi}"\n')


def _monotony_document(rule, op, phi):
    """An XU derivation: (phi -> (phi | q)) by PL, then
    (op phi -> op (phi | q)) by rule of agent 0 from it."""
    return (f"system XU\n1: ({phi} -> ({phi} | q)) ; PL\n"
            f"2: ({op}{phi} -> {op}({phi} | q)) ; {rule} agent 0 1\n")


# derivations to check in this order, each with its verdict, in pairs:
# the second of a pair has the AX line of the first in the other system
# (the first two pairs), or the line and the cited line of the RK or
# RKD step of the first under the other rule (the last two), and the
# other verdict, so a memo of those verdicts keyed without the system
# or the rule gives the second the verdict of the first
AX_RK_SHARED_STEPS = [
    (_aia_document("XU", "s6"), True),
    (_aia_document("GPERM-SYS", "s6"), False),
    (_aia_document("GPERM-SYS", "s7"), False),
    (_aia_document("XU", "s7"), True),
    (_monotony_document("RK", "[0]", "s8"), True),
    (_monotony_document("RKD", "[0]", "s8"), False),
    (_monotony_document("RKD", "<0>", "s9"), True),
    (_monotony_document("RK", "<0>", "s9"), False),
]


# unsatisfiable inputs of tr_prime that put a compound operand of [i] at
# negative or mixed polarity, where a one-way definition of the wrong
# direction would make the output satisfiable
TR_PRIME_POLARITY = ["(~[0]~q & []~q)", "(~[0]~(p & q) & [](~p | ~q))",
                     "([0](p & q) & ~[0](p & q))", "~[0]~[1]([0]~p & p)",
                     "([1]~[0]~q & []~q)"]


# -- frame-at-a-time references for solver.oracle and axioms._sweep_frames

# satisfiable formulas whose smallest models have 1, 2, 3 and 4 worlds,
# some of them past the first frame of that size
SIZED_SAT = ["p", "(<>p & <>~p)", "((p & q) & (<>(~p & q) & <>~q))",
             "(((p & q) & <>(p & ~q)) & (<>(~p & q) & <>(~p & ~q)))",
             "({0}p & {1}q)", "(([0]p & <1>~p) & (<>(q & [1]p) & <>~q))",
             "((<>(p & q) & <>(p & ~q)) & (<>(~p & q) & [0](p | q)))"]


def reference_oracle(f, max_worlds, cfg=None):
    """solver.oracle with one kernel scan per frame: same verdict,
    witness and stats."""
    cfg = cfg or SolverConfig()
    _check_agents(f, cfg)
    if not 1 <= max_worlds <= ORACLE_MAX_WORLDS:
        raise ValueError(f"max_worlds {max_worlds} is outside the oracle "
                         f"range 1..{ORACLE_MAX_WORLDS}")
    agents = sorted(syntax.agents(f))
    atom_names = sorted(syntax.atoms(f))
    if max_worlds * len(atom_names) > kernel.MAX_VALUATION_BITS:
        raise ValueError(
            f"{len(atom_names)} atoms at {max_worlds} worlds exceeds the "
            f"oracle valuation budget of {kernel.MAX_VALUATION_BITS} bits")
    ops, args = kernel.compile_formula(
        f, {p: k for k, p in enumerate(atom_names)},
        {a: k for k, a in enumerate(agents)})
    stats = {"engine": "oracle", "frames": 0, "max_worlds": max_worlds}
    for n in range(1, max_worlds + 1):
        for frame in general_frames(n, len(agents)):
            stats["frames"] += 1
            hit = kernel.scan_sat(ops, args, frame, len(atom_names))
            if hit is None:
                continue
            v, point = hit
            model = _frame_model(frame, v, atom_names, agents, cfg)
            world = model.worlds[point]
            if mc(model, world, f) is not True:
                raise AssertionError("oracle witness failed re-check")
            return SatResult("SAT", (model, world), stats)
    return SatResult("UNSAT", None, stats)


def reference_sweep_frames(f, max_points, frames_of):
    """axioms._sweep_frames with one kernel scan per frame: the same
    first (frame, valuation, point) falsifying f, or None."""
    agents = sorted(syntax.agents(f))
    atom_names = sorted(syntax.atoms(f))
    ops, args = kernel.compile_formula(
        f, {p: i for i, p in enumerate(atom_names)},
        {a: i for i, a in enumerate(agents)})
    for n in range(1, max_points + 1):
        for frame in frames_of(n, len(agents)):
            hit = kernel.scan_valid(ops, args, frame, len(atom_names))
            if hit is not None:
                return frame, hit[0], hit[1]
    return None


# instances for axioms.semantic_audit in place of a schema family, in
# four (agents, atoms) groups met in turn: {0} and {0, 1} over p, none
# over p and q, none over q; the first instance of each of the first
# three groups is valid, and an invalid one comes later
MIXED_AUDIT = ["([0]p -> p)", "([]p <-> [1][0]p)", "(([]p & q) -> (p & q))",
               "(p -> [0]p)", "([]q -> q)", "(<0>p -> [0]<0>p)",
               "([1]p -> [0]p)", "((p & q) -> []p)", "(<0><1>p -> <1><0>p)"]


def reference_audit(name, models, instances, max_points):
    """The report of axioms.semantic_audit over instances, each swept on
    its own by reference_sweep_frames."""
    frames_of = moment_frames if models == "btac" else general_frames
    counterexamples = []
    for f in instances:
        hit = reference_sweep_frames(f, max_points, frames_of)
        if hit is not None:
            counterexamples.append(
                {"instance": syntax.pretty(f), "frame": hit[0],
                 "valuation": hit[1], "point": hit[2]})
    return {"schema": name, "models": models, "instances": len(instances),
            "counterexamples": counterexamples}


# -- measures only the tests read -----------------------------------------

def blowup(f, out):
    """Measured length ratio (length(out) - 1) / length(f)."""
    return (length(out) - 1) / length(f)


def generated_submodel(m, w):
    """Restriction of a KripkeModel to the settledness class of w."""
    cls = next(c for c in box_classes(m) if w in c)
    keep = [u for u in m.worlds if u in cls]
    relations = {a: tuple(c & cls for c in cells if c & cls)
                 for a, cells in m.relations.items()}
    valuation = {p: ws & cls for p, ws in m.valuation.items()}
    return KripkeModel(tuple(keep), relations, valuation, m.agent_universe)
