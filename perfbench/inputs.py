"""Seeded input generators for the benchmark workloads.

Every generator returns plain text (formula, model and derivation text),
which is all the program receives, plus whatever structure the benchmark
itself needs to check the program's answers.  Nothing here imports
stitkit: the inputs must not depend on the code being measured.

Formulas are built as small tuples and printed in stitkit's canonical
form:

    ("atom", name)  ("not", f)  ("and", f, g)  ("box", f)
    ("cstit", agent, f)  ("dstit", agent, f)
"""

from __future__ import annotations

import itertools
import random
import re


def rng_for(workload, seed):
    """Independent, reproducible random stream per workload and seed."""
    return random.Random(f"{workload}:{seed}")


# -- formulas ---------------------------------------------------------------

def text(f):
    """Canonical stitkit text of a tuple formula."""
    kind = f[0]
    if kind == "atom":
        return f[1]
    if kind == "not":
        return "~" + text(f[1])
    if kind == "and":
        return f"({text(f[1])} & {text(f[2])})"
    if kind == "box":
        return "[]" + text(f[1])
    if kind == "cstit":
        return f"[{f[1]}]" + text(f[2])
    return f"{{{f[1]}}}" + text(f[2])


def length(f):
    """stitkit's length measure: atoms 1, ~ and [] +1, & and [i] +3,
    {i} +5."""
    kind = f[0]
    if kind == "atom":
        return 1
    if kind in ("not", "box"):
        return 1 + length(f[1])
    if kind == "and":
        return 3 + length(f[1]) + length(f[2])
    if kind == "cstit":
        return 3 + length(f[2])
    return 5 + length(f[2])


def modal_depth(f):
    kind = f[0]
    if kind == "atom":
        return 0
    if kind == "not":
        return modal_depth(f[1])
    if kind == "and":
        return max(modal_depth(f[1]), modal_depth(f[2]))
    if kind == "box":
        return 1 + modal_depth(f[1])
    return 1 + modal_depth(f[2])


def expand_dstit(f):
    """{i}g rewritten as ([i]g & ~[]g), as the solver does."""
    kind = f[0]
    if kind == "atom":
        return f
    if kind in ("not", "box"):
        return (kind, expand_dstit(f[1]))
    if kind == "and":
        return ("and", expand_dstit(f[1]), expand_dstit(f[2]))
    sub = expand_dstit(f[2])
    if kind == "cstit":
        return ("cstit", f[1], sub)
    return ("and", ("cstit", f[1], sub), ("not", ("box", sub)))


def subformulas(f):
    out = {f}
    kind = f[0]
    if kind in ("not", "box"):
        out |= subformulas(f[1])
    elif kind == "and":
        out |= subformulas(f[1]) | subformulas(f[2])
    elif kind in ("cstit", "dstit"):
        out |= subformulas(f[2])
    return out


def agents(f):
    return {g[1] for g in subformulas(f) if g[0] in ("cstit", "dstit")}


def search_shape(f):
    """(leaves, profile sum) of the dstit expansion.

    ``leaves`` counts the distinct atoms, [i]- and []-subformulas: the
    type enumeration walks 2**leaves assignments.  ``profile sum`` is
    the sum over agents of 2**(distinct [i]-subformulas of that agent),
    which bounds the log2 of the group search's subset space.
    """
    sf = subformulas(expand_dstit(f))
    leaves = sum(1 for g in sf if g[0] in ("atom", "cstit", "box"))
    per_agent = {}
    for g in sf:
        if g[0] == "cstit":
            per_agent[g[1]] = per_agent.get(g[1], 0) + 1
    return leaves, sum(2 ** c for c in per_agent.values())


def random_formula(rng, budget, atom_names, agent_ids):
    """A random formula of length at most ``budget``."""
    kinds = ["atom"]
    if budget >= 2:
        kinds += ["not", "box"]
    if budget >= 4:
        kinds.append("cstit")
    if budget >= 5:
        kinds.append("and")
    if budget >= 6:
        kinds.append("dstit")
    kind = rng.choice(kinds)
    if kind == "atom":
        return ("atom", rng.choice(atom_names))
    if kind in ("not", "box"):
        return (kind, random_formula(rng, budget - 1, atom_names, agent_ids))
    if kind == "cstit":
        return ("cstit", rng.choice(agent_ids),
                random_formula(rng, budget - 3, atom_names, agent_ids))
    if kind == "dstit":
        return ("dstit", rng.choice(agent_ids),
                random_formula(rng, budget - 5, atom_names, agent_ids))
    left = rng.randint(1, budget - 4)
    return ("and", random_formula(rng, left, atom_names, agent_ids),
            random_formula(rng, budget - 3 - left, atom_names, agent_ids))


# -- decide: the criterion-4 corpus ------------------------------------------

DECIDE_MAX_LENGTH = 12


def exhaustive_texts(max_length, atom_names=("p", "q"), agent_ids=(0, 1)):
    """Every formula of length <= max_length, shortest first, as text.

    The same corpus, in the same order, as the criterion-4 acceptance
    test: 94,658 formulas at length 12.
    """
    by_len = {n: [] for n in range(1, max_length + 1)}
    by_len[1] = list(atom_names)
    for n in range(2, max_length + 1):
        out = by_len[n]
        for f in by_len[n - 1]:
            out.append("~" + f)
            out.append("[]" + f)
        if n - 3 >= 1:
            for f in by_len[n - 3]:
                for a in agent_ids:
                    out.append(f"[{a}]" + f)
            for x in range(1, n - 3):
                y = n - 3 - x
                for lf in by_len[x]:
                    for rf in by_len[y]:
                        out.append(f"({lf} & {rf})")
        if n - 5 >= 1:
            for f in by_len[n - 5]:
                for a in agent_ids:
                    out.append(f"{{{a}}}" + f)
    return [f for n in range(1, max_length + 1) for f in by_len[n]]


def decide_inputs(seed):
    """The criterion-4 corpus in a seeded order; a run consumes a prefix."""
    texts = exhaustive_texts(DECIDE_MAX_LENGTH)
    rng_for("decide", seed).shuffle(texts)
    return texts


# -- hard3: three-agent formulas for the type search -------------------------

HARD3_LENGTH = (35, 70)
HARD3_MAX_LEAVES = 12
HARD3_MAX_PROFILES = 10
HARD3_CORPUS_SEED = 11
HARD3_CORPUS = 200


def hard3_corpus():
    """Three-agent formulas, kept by input properties only, in draw order.

    Kept: all three agents occur, the length is in HARD3_LENGTH, and the
    search shape is bounded (see search_shape): at most HARD3_MAX_LEAVES
    leaves and a profile sum of at most HARD3_MAX_PROFILES.  Without the
    shape bounds single formulas take minutes (a 12-leaf UNSAT formula
    with a wide profile space ran 187 s on a 2-vCPU virtual machine),
    which no bounded run can hold.
    """
    rng = rng_for("hard3", HARD3_CORPUS_SEED)
    lo, hi = HARD3_LENGTH
    out = []
    while len(out) < HARD3_CORPUS:
        f = random_formula(rng, hi, ("p", "q", "r"), (0, 1, 2))
        if not lo <= length(f) <= hi or agents(f) != {0, 1, 2}:
            continue
        leaves, profiles = search_shape(f)
        if leaves <= HARD3_MAX_LEAVES and profiles <= HARD3_MAX_PROFILES:
            out.append(text(f))
    return out


def hard3_inputs(seed):
    """The hard3 corpus in a seeded order.

    The corpus itself is fixed: op costs range over three orders of
    magnitude, so the few hundred formulas a run has time for would make
    every seed a different workload.  A run goes round the corpus about
    twice.
    """
    texts = hard3_corpus()
    rng_for("hard3", seed).shuffle(texts)
    return texts


# -- audit: schema sweeps --------------------------------------------------

AUDIT_SCHEMAS = ("AIA", "AAIA", "GPerm")
AUDIT_MODELS = ("btac", "kripke")
# stitkit.axioms.default_grid, as text
AUDIT_GRID = ("p", "q", "~p", "~q", "(p & q)", "(p | q)", "(p -> q)",
              "[]p", "<>p", "~(p & q)", "[0]p", "[1]q", "<0>p", "{0}p",
              "{1}(p & q)", "([]p & q)", "([0]p | q)", "~[1]p",
              "(p & ~q)", "(q -> p)")


def audit_inputs(seed):
    """Every (schema, model class, grid formula) triple in a seeded order.

    One pass sweeps 3,040 schema instances, as criterion 2 does.
    """
    items = list(itertools.product(AUDIT_SCHEMAS, AUDIT_MODELS, AUDIT_GRID))
    rng_for("audit", seed).shuffle(items)
    return items


# -- replay: derivation fixtures and their mutations --------------------------

_DRV_LINE = re.compile(r"^(\d+)\s*:\s*(.*?)\s*;\s*(.*)$")


def mutations(drv_text):
    """Every single-line negation of a derivation, as in criterion 6."""
    lines = drv_text.splitlines()
    for i, ln in enumerate(lines):
        m = _DRV_LINE.match(ln.strip())
        if m is None:
            continue
        mutated = list(lines)
        mutated[i] = f"{m.group(1)}: ~{m.group(2)} ; {m.group(3)}"
        yield "\n".join(mutated)


def replay_inputs(seed, fixtures):
    """(name, text, should be accepted) for every fixture and mutation.

    ``fixtures`` maps fixture names to their text; a seed only sets the
    order of the documents.
    """
    docs = []
    for name in sorted(fixtures):
        docs.append((name, fixtures[name], True))
        for k, mutated in enumerate(mutations(fixtures[name])):
            docs.append((f"{name}~{k}", mutated, False))
    rng_for("replay", seed).shuffle(docs)
    return docs


# -- check: generated models ------------------------------------------------

CHECK_BUDGET = 14
CHECK_MAX_MODAL_DEPTH = 2
CHECK_QUERIES = 20000
CHECK_ATOMS = ("p", "q", "r")


def check_formulas(rng, count):
    """Formulas over agents 0-2 with modal depth <= 2.

    The depth bound keeps the unmemoized BT+AC evaluator (which
    revisits every history of the moment at each modality) within
    milliseconds per call.
    """
    out = []
    while len(out) < count:
        f = random_formula(rng, CHECK_BUDGET, CHECK_ATOMS, (0, 1, 2))
        if modal_depth(f) <= CHECK_MAX_MODAL_DEPTH:
            out.append(f)
    return out


class KripkeSpec:
    """A generated Kripke model: a union of product grids.

    Agent 0 chooses the row and agent 1 the column of each grid; agent 2
    is stored nowhere, so it is padded (acts universally inside a
    settledness class).  Each grid is one settledness class.
    """

    def __init__(self, worlds, rows, cols, components, valuation):
        self.worlds = worlds
        self.rows = rows
        self.cols = cols
        self.components = components
        self.valuation = valuation

    def text(self):
        lines = ["kripke agents=3", "worlds: " + " ".join(self.worlds)]
        for a, cells in ((0, self.rows), (1, self.cols)):
            body = " ".join("{" + " ".join(c) + "}" for c in cells)
            lines.append(f"rel {a}: {body}")
        for p in CHECK_ATOMS:
            lines.append(f"val {p}: " + " ".join(self.valuation[p]))
        return "\n".join(lines) + "\n"


KRIPKE_WORLDS = (120, 160, 200, 240)
# Grid shapes (rows, columns), taken in turn.  The shapes are fixed so
# that the seed changes valuations and queries but not the size of the
# settledness classes, which sets most of the cost of a [].
KRIPKE_GRIDS = ((2, 3), (3, 4), (4, 5), (5, 6), (6, 6), (3, 5), (4, 4),
                (2, 6))


def kripke_model(rng, n_worlds):
    worlds, rows, cols, components = [], [], [], []
    shapes = itertools.cycle(KRIPKE_GRIDS)
    left = n_worlds
    while left:
        r, c = next(shapes)
        if r * c > left:
            r, c = 1, left
        names = [[f"w{len(worlds) + i * c + j}" for j in range(c)]
                 for i in range(r)]
        flat = [w for row in names for w in row]
        worlds.extend(flat)
        rows.extend(names)
        cols.extend([[row[j] for row in names] for j in range(c)])
        components.append(flat)
        left -= r * c
    valuation = {p: [w for w in worlds if rng.random() < 0.5]
                 for p in CHECK_ATOMS}
    return KripkeSpec(worlds, rows, cols, components, valuation)


def check_kripke_inputs(seed):
    """Four models of fixed sizes, and (model, formula text, world)
    queries drawn uniformly."""
    rng = rng_for("check_kripke", seed)
    models = [kripke_model(rng, n) for n in KRIPKE_WORLDS]
    queries = []
    for f in check_formulas(rng, CHECK_QUERIES):
        k = rng.randrange(len(models))
        queries.append((k, text(f), rng.choice(models[k].worlds)))
    return models, queries


class BtacSpec:
    """A generated BT+AC model: a full tree with histories at the leaves.

    ``histories[w]`` lists the histories through moment w; ``choice``
    maps (agent, moment) to cells for agents 0 and 1, built so that
    every pair of cells intersects (independence).  Agent 2 keeps the
    vacuous single-cell choice.
    """

    def __init__(self, moments, parent, mult, histories, choice, valuation):
        self.moments = moments
        self.parent = parent
        self.mult = mult
        self.histories = histories
        self.choice = choice
        self.valuation = valuation

    def text(self):
        lines = ["btac"]
        for w in self.moments:
            ln = f"moment {w}"
            if self.parent[w] is not None:
                ln += f" parent {self.parent[w]}"
            if w in self.mult:
                ln += f" histories {self.mult[w]}"
            lines.append(ln)
        for (a, w), cells in self.choice.items():
            body = " ".join("{" + " ".join(c) + "}" for c in cells)
            lines.append(f"choice {a} {w}: {body}")
        for p in CHECK_ATOMS:
            body = " ".join(f"{w}/{h}" for w, h in self.valuation[p])
            lines.append(f"val {p}: {body}")
        return "\n".join(lines) + "\n"

    def indices(self):
        return [(w, h) for w in self.moments for h in self.histories[w]]


BTAC_SHAPE = (3, 3, 2)  # depth, branching, histories per leaf
BTAC_MODELS = 4


def btac_model(rng, depth, branching, per_leaf):
    moments, parent, children = ["m0"], {"m0": None}, {"m0": []}
    level = ["m0"]
    for _ in range(depth):
        nxt = []
        for w in level:
            for _ in range(branching):
                c = f"m{len(moments)}"
                moments.append(c)
                parent[c] = w
                children[c] = []
                children[w].append(c)
                nxt.append(c)
        level = nxt
    mult = {w: per_leaf for w in level}
    # stitkit names histories h1, h2, ... in depth-first leaf order,
    # visiting children in the order the moments are listed
    histories = {w: [] for w in moments}
    count = 0

    def walk(w, path):
        nonlocal count
        path = path + [w]
        if not children[w]:
            for _ in range(per_leaf):
                count += 1
                for u in path:
                    histories[u].append(f"h{count}")
        for c in children[w]:
            walk(c, path)

    walk("m0", [])
    choice = {}
    for w in moments:
        hw = list(histories[w])
        rng.shuffle(hw)
        n0 = rng.randint(1, min(3, len(hw)))
        n1 = rng.randint(1, max(1, min(3, len(hw) // n0)))
        pairs = list(itertools.product(range(n0), range(n1)))
        labels = pairs + [rng.choice(pairs) for _ in hw[len(pairs):]]
        for a in (0, 1):
            cells = {}
            for h, lab in zip(hw, labels):
                cells.setdefault(lab[a], []).append(h)
            choice[(a, w)] = [sorted(c, key=lambda h: int(h[1:]))
                              for _, c in sorted(cells.items())]
    valuation = {p: [(w, h) for w in moments for h in histories[w]
                     if rng.random() < 0.5]
                 for p in CHECK_ATOMS}
    return BtacSpec(moments, parent, mult, histories, choice, valuation)


def check_btac_inputs(seed):
    """Four trees of the same shape, and (model, formula text, index)
    queries drawn uniformly."""
    rng = rng_for("check_btac", seed)
    models = [btac_model(rng, *BTAC_SHAPE) for _ in range(BTAC_MODELS)]
    queries = []
    for f in check_formulas(rng, CHECK_QUERIES):
        k = rng.randrange(len(models))
        queries.append((k, text(f), rng.choice(models[k].indices())))
    return models, queries
