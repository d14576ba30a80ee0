"""Axiom schemas, Hilbert derivation checking, and semantic audits.

Schemas cover the three axiom systems:

* XU: S5 for settledness and for each agent, settledness inclusion, and
  the independence family AIA(k).
* AAIA-SYS: XU with AIA(k) replaced by the alternative family AAIA(k).
* GPERM-SYS: S5 for each agent, the settledness definition DefBox, and
  the general permutation family GPerm(k).

The derivation checker accepts, beyond axiom instances and the primitive
rules (modus ponens, necessitation), two kinds of derived steps that the
source deductions use freely:

* PL: the line is a propositional consequence of the cited lines, checked
  by truth table over the maximal non-boolean subformulas.  Formulas are
  compared modulo double-negation collapse, which the desugaring of dual
  operators introduces pervasively.
* RK / RKD: monotony of a box (or diamond) from a proven implication,
  i.e. from A -> B conclude [x]A -> [x]B (or <x>A -> <x>B), derivable
  from the K axiom plus necessitation of the same operator.

Necessitation is system-specific: settledness necessitation in XU and
AAIA-SYS, agent necessitation in GPERM-SYS (where settledness
necessitation, and with it RK and RKD of [], is not primitive).

Derivations repeat their formula texts: the same slot formula recurs in
many AX steps, and criterion 6's single-line negations of a fixture share
all but one of its lines.  So the formula of a derivation line or of an
AX slot parameter is parsed once per process for each distinct text,
through one memo from text to tree (a memo function, Michie 1968).
Sharing a tree is safe because nodes are immutable; only a successful
parse is kept, so a bad text raises the same error every time.  The memo
holds at most 1024 texts, least recently used first out, so a
long-lived process that checks many different derivations does not keep
every tree it ever read.

The checker's own work is memoized the same way, keyed by the
identity of those shared trees and by the value of the strings and ints
beside them.  Once per process are computed: the canon form of a line
for each distinct line tree; the verdict of a PL step for each distinct
tuple of canon conclusion and canon premises; the verdict of an AX step
for each distinct system, argument text and line tree; and the verdict
of a NEC, RK or RKD step for each distinct rule, kind, agent, canon
cited line and canon line.  Each memo holds the nodes its keys name, so
an id is never reused while its entry lives, keeps at most 1024
entries, least recently used first out, and keeps only results, a
failure message among them: a step over too many letters, a malformed
AX argument or a formula nested too deeply raises again every time.
MP steps, which no fixture uses, are judged afresh each time.
"""

from __future__ import annotations

import itertools
import re
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache, partial

from . import kernel, solver, syntax
from .syntax import (And, Box, Cstit, Diamond, Dstit, Iff, Implies, Not,
                     PosCstit, conjoin, parse)

SCHEMA_NAMES = ("S5Box-K", "S5Box-T", "S5Box-5", "S5i-K", "S5i-T", "S5i-5",
                "InclBox", "AIA", "AAIA", "GPerm", "DefBox", "Perm01",
                "ChurchRosser")

SYSTEMS = {
    "XU": {
        "schemas": {"S5Box-K", "S5Box-T", "S5Box-5", "S5i-K", "S5i-T",
                    "S5i-5", "InclBox", "AIA"},
        "nec": {"box"},
    },
    "AAIA-SYS": {
        "schemas": {"S5Box-K", "S5Box-T", "S5Box-5", "S5i-K", "S5i-T",
                    "S5i-5", "InclBox", "AAIA"},
        "nec": {"box"},
    },
    "GPERM-SYS": {
        "schemas": {"S5i-K", "S5i-T", "S5i-5", "DefBox", "GPerm"},
        "nec": {"agent"},
    },
}


def instantiate(name, bindings, agents=None, k=None):
    """Build the formula of a schema instance.

    ``bindings`` maps slot names (phi, psi, phi0, phi1, ...) to formulas;
    ``agents`` maps agent parameters (i, l, m, n) to indices; ``k`` is
    the family index for AIA/AAIA/GPerm.  A slot, agent or ``k`` that
    the schema does not read is refused.
    """
    agents = agents or {}
    read = set()

    def slot(s):
        read.add(s)
        if s not in bindings:
            raise ValueError(f"schema {name} needs slot {s}")
        return bindings[s]

    def agent(s):
        read.add(s)
        if s not in agents:
            raise ValueError(f"schema {name} needs agent {s}")
        if agents[s] < 0:
            raise ValueError(f"schema {name}: agent {s}={agents[s]} is "
                             f"negative")
        return agents[s]

    f = _schema(name, slot, agent, k)
    unread = sorted({*bindings, *agents} - read)
    if k is not None and name not in _FAMILIES:
        unread.append("k")
    if unread:
        raise ValueError(f"schema {name} does not read {', '.join(unread)}")
    return f


# the schemas indexed by k
_FAMILIES = ("AIA", "AAIA", "GPerm")


def _schema(name, slot, agent, k):
    """The formula of schema name, reading its slots and agents through
    slot and agent (see instantiate)."""
    if name == "S5Box-K":
        return Implies(Box(Implies(slot("phi"), slot("psi"))),
                       Implies(Box(slot("phi")), Box(slot("psi"))))
    if name == "S5Box-T":
        return Implies(Box(slot("phi")), slot("phi"))
    if name == "S5Box-5":
        return Implies(Diamond(slot("phi")), Box(Diamond(slot("phi"))))
    if name == "S5i-K":
        i = agent("i")
        return Implies(Cstit(i, Implies(slot("phi"), slot("psi"))),
                       Implies(Cstit(i, slot("phi")),
                               Cstit(i, slot("psi"))))
    if name == "S5i-T":
        return Implies(Cstit(agent("i"), slot("phi")), slot("phi"))
    if name == "S5i-5":
        i = agent("i")
        return Implies(PosCstit(i, slot("phi")),
                       Cstit(i, PosCstit(i, slot("phi"))))
    if name == "InclBox":
        return Implies(Box(slot("phi")), Cstit(agent("i"), slot("phi")))
    if name == "AIA":
        if k is None or k < 1:
            raise ValueError("AIA requires k >= 1")
        parts = [Cstit(i, slot(f"phi{i}")) for i in range(k + 1)]
        return Implies(conjoin([Diamond(p) for p in parts]),
                       Diamond(conjoin(parts)))
    if name == "AAIA":
        if k is None or k < 1:
            raise ValueError("AAIA requires k >= 1")
        body = conjoin([PosCstit(i, slot("phi")) for i in range(k)])
        return Implies(Diamond(slot("phi")), PosCstit(k, body))
    if name == "GPerm":
        if k is None or k < 0:
            raise ValueError("GPerm requires k >= 0")
        l, m, n = agent("l"), agent("m"), agent("n")
        others = [i for i in range(k + 1) if i != n]
        if not others:
            raise ValueError("GPerm conclusion conjunction is empty "
                             f"(k={k}, n={n})")
        body = conjoin([PosCstit(i, slot("phi")) for i in others])
        return Implies(PosCstit(l, PosCstit(m, slot("phi"))),
                       PosCstit(n, body))
    if name == "DefBox":
        return Iff(Box(slot("phi")), Cstit(1, Cstit(0, slot("phi"))))
    if name == "Perm01":
        return Iff(PosCstit(1, PosCstit(0, slot("phi"))),
                   PosCstit(0, PosCstit(1, slot("phi"))))
    if name == "ChurchRosser":
        return Implies(PosCstit(0, Cstit(1, slot("phi"))),
                       Cstit(1, PosCstit(0, slot("phi"))))
    raise ValueError(f"unknown schema {name!r}")


# -- derivations -----------------------------------------------------------

@dataclass
class Line:
    number: int
    formula: syntax.Formula
    rule: str
    args: tuple


@dataclass
class Derivation:
    system: str
    lines: list


@dataclass
class CheckResult:
    ok: bool
    line: int = None
    message: str = ""


_LINE_RE = re.compile(r"^([0-9]+)\s*:\s*(.*?)\s*;\s*(.+)$")
_PARAM_RE = re.compile(r'(\w+)\s*=\s*(?:"([^"]*)"|([0-9]+))')


def _number(tok, noun):
    """tok as an int, if it is ASCII digits only (int() also takes a
    sign, underscores, spaces and other scripts' digits)."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"{noun} {tok!r} is not a number")
    return int(tok)


# the most entries each memo of this module keeps
_MEMO_SIZE = 1024


@lru_cache(maxsize=_MEMO_SIZE)
def _parse_formula(text):
    """parse(text), kept for the next line or parameter with the same
    text; parse is looked up at each miss, so a wrapper put in its place
    sees every real parse."""
    return parse(text)


def parse_derivation(text):
    system = None
    lines = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("system "):
            if system is not None:
                raise ValueError("repeated 'system' header")
            system = ln.split(None, 1)[1].strip()
            continue
        m = _LINE_RE.match(ln)
        if m is None:
            raise ValueError(f"bad derivation line {ln!r}")
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise ValueError(f"line numbered {number} where "
                             f"{len(lines) + 1} was expected")
        rule, *args = m.group(3).split()
        lines.append(Line(number, _parse_formula(m.group(2)), rule,
                          tuple(args)))
    if system is None:
        raise ValueError("derivation is missing a 'system' header")
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    return Derivation(system, lines)


def canon(f):
    """Collapse double negations everywhere (an admissible rewriting).

    A node with no double negation below it comes back as it is."""
    if isinstance(f, Not):
        sub = canon(f.sub)
        if isinstance(sub, Not):
            return sub.sub
        return f if sub is f.sub else Not(sub)
    if isinstance(f, And):
        left, right = canon(f.left), canon(f.right)
        if left is f.left and right is f.right:
            return f
        return And(left, right)
    if isinstance(f, (Cstit, Dstit)):
        sub = canon(f.sub)
        return f if sub is f.sub else type(f)(f.agent, sub)
    if isinstance(f, Box):
        sub = canon(f.sub)
        return f if sub is f.sub else Box(sub)
    return f


_PL_MAX_LETTERS = 16


def _pl_entails(premises, conclusion):
    """Truth-table entailment over the maximal non-boolean subformulas
    of premises and conclusion, all already in canon form: the premises
    and the negated conclusion, one kernel.columns program over those
    letters, must be false under every assignment."""
    letters, ops, args = {}, [], []

    def emit(f):
        if isinstance(f, Not):
            op, arg = kernel.OP_NOT, (emit(f.sub), 0)
        elif isinstance(f, And):
            op, arg = kernel.OP_AND, (emit(f.left), emit(f.right))
        else:
            op, arg = kernel.OP_ATOM, (letters.setdefault(f, len(letters)), 0)
        ops.append(op)
        args.append(arg)
        return len(ops) - 1

    negated = (conclusion.sub if isinstance(conclusion, Not)
               else Not(conclusion))
    emit(conjoin([*premises, negated]))
    if len(letters) > _PL_MAX_LETTERS:
        raise ValueError("too many distinct subformulas for a PL step")
    return not any(col[-1] for _, col in
                   kernel.columns(ops, args, len(letters)))


def _memo(key):
    """A decorator: fn memoized by key(*args), for at most _MEMO_SIZE
    keys, least recently used first out.  A key names a formula tree by
    its identity (``id``) and a string, an int or a tuple of strings by
    its value.  An entry holds its arguments, so no id in its key is
    reused while it lives; only a result is kept, so an exception is
    raised again on every call.  The memo is the wrapper's ``memo``
    attribute."""
    def wrap(fn):
        memo = OrderedDict()

        def call(*args):
            k = key(*args)
            hit = memo.get(k)
            if hit is not None:
                memo.move_to_end(k)
                return hit[1]
            result = fn(*args)
            memo[k] = args, result
            if len(memo) > _MEMO_SIZE:
                memo.popitem(last=False)
            return result

        call.memo = memo
        return call
    return wrap


@_memo(id)
def _line_form(f):
    """canon(f), for a line formula; canon is looked up at each miss, so
    a wrapper put in its place sees every real call."""
    return canon(f)


@_memo(lambda *forms: tuple(map(id, forms)))
def _pl_step(conclusion, *premises):
    """Whether the canon forms premises entail conclusion (_pl_entails)."""
    return _pl_entails(premises, conclusion)


def _as_implication(f):
    """Split f, in canon form, of shape A -> B, else None.

    A -> B desugars to ~(A & ~B); after double-negation collapse the
    right conjunct may have lost its leading negation, so it is
    un-negated either way.
    """
    if isinstance(f, Not) and isinstance(f.sub, And):
        right = f.sub.right
        b = right.sub if isinstance(right, Not) else Not(right)
        return f.sub.left, b
    return None


# the AX parameters that take a number, and the formula slots of the
# schemas (phi, psi, phi0, phi1, ...)
_NUMBER_PARAMS = {"i", "l", "m", "n", "k"}
_SLOT_RE = re.compile(r"(?:phi|psi)[0-9]*")


def check_param(where, key, number):
    """Refuse a number for a formula slot and anything else for a number
    parameter: the one rule of AX lines and ``stitkit axiom --bind``.
    ``number`` says whether the value is a number; ``where`` names the
    parameter's source in the message."""
    if not number and key in _NUMBER_PARAMS:
        raise ValueError(f"{where} {key} takes a number, not a quoted "
                         f"formula")
    if number and _SLOT_RE.fullmatch(key):
        raise ValueError(f"{where} {key} takes a quoted formula, not a "
                         f"number")


def _parse_ax_args(args):
    name, *rest = args or ("",)
    rest = " ".join(rest)
    extra = _PARAM_RE.sub("", rest).strip()
    if extra:
        raise ValueError(f"AX takes key=value parameters, not {extra!r}")
    bindings, agents, k, seen = {}, {}, None, set()
    for m in _PARAM_RE.finditer(rest):
        key, fml, num = m.groups()
        if key in seen:
            raise ValueError(f"AX parameter {key} given twice")
        seen.add(key)
        check_param("AX parameter", key, num is not None)
        if fml is not None:
            bindings[key] = _parse_formula(fml)
        elif key == "k":
            k = int(num)
        else:
            agents[key] = int(num)
    return name, bindings, agents, k


def _read(line, usage):
    """The arguments of line, if usage names as many after the rule."""
    if len(line.args) != len(usage.split()) - 1:
        raise ValueError(f"expected {usage!r}, not "
                         f"{' '.join((line.rule, *line.args))!r}")
    return line.args


# what a system lacks for (rule, kind) when kind is not in its "nec" entry
_NEEDS_NEC = {("NEC", "box"): "settledness necessitation is not primitive",
              ("NEC", "agent"): "agent necessitation is not primitive",
              ("RK", "box"): "settledness monotony is not available",
              ("RKD", "box"): "settledness monotony is not available"}


@_memo(lambda system, args, tree: (system, args, id(tree)))
def _ax_step(system, args, tree):
    """Why tree is not the instance of a schema of system that the AX
    arguments args give, else None."""
    name, bindings, agents, k = _parse_ax_args(args)
    if name not in SYSTEMS[system]["schemas"]:
        return f"schema {name} not in {system}"
    want = instantiate(name, bindings, agents, k)
    if want != tree:
        return f"axiom mismatch: expected {syntax.pretty(want)}"
    return None


@_memo(lambda rule, kind, a, prev, form:
       (rule, kind, a, id(prev), id(form)))
def _shape_step(rule, kind, a, prev, form):
    """Why form, in canon form, does not follow from the canon form prev
    by rule (NEC, RK or RKD) of kind box, or of kind agent for agent a,
    else None."""
    if kind == "box":
        op = Diamond if rule == "RKD" else Box
    else:
        op = partial(PosCstit if rule == "RKD" else Cstit, a)
    if rule == "NEC":
        want = op(prev)
    else:
        imp = _as_implication(prev)
        if imp is None:
            return f"{rule} premise is not an implication"
        want = canon(Implies(op(imp[0]), op(imp[1])))
    if form != want:
        return (f"NEC {kind} shape mismatch" if rule == "NEC" else
                f"{rule} shape mismatch: expected {syntax.pretty(want)}")
    return None


def check(derivation, system=None):
    """Check derivation in its system (or in system): the first failure,
    else an accepted result.  A rule with an argument missing, unreadable
    or beyond those the README documents fails as malformed."""
    system = system or derivation.system
    if system not in SYSTEMS:
        return CheckResult(False, None, f"unknown system {system!r}")
    spec = SYSTEMS[system]
    proved = {}  # line number -> canon form of its formula

    def fail(line, msg):
        return CheckResult(False, line.number, msg)

    def cited(tok):
        return proved[_number(tok, "line")]

    for line in derivation.lines:
        form = _line_form(line.formula)
        try:
            rule = line.rule
            if rule == "AX":
                msg = _ax_step(system, line.args, line.formula)
                if msg:
                    return fail(line, msg)
            elif rule == "MP":
                major, minor = map(cited, _read(line, "MP i j"))
                imp = _as_implication(major)
                if imp is None:
                    return fail(line, "MP major premise is not an "
                                      "implication")
                if imp[0] != minor or imp[1] != form:
                    return fail(line, "MP shape mismatch")
            elif rule == "PL":
                premises = [cited(tok) for tok in line.args]
                if not _pl_step(form, *premises):
                    return fail(line, "not a propositional consequence "
                                      "of the cited lines")
            elif rule in ("NEC", "RK", "RKD"):
                kind = line.args[0] if line.args else ""
                if kind == "box":
                    _, prev = _read(line, f"{rule} box i")
                    a = None
                elif kind == "agent":
                    _, a, prev = _read(line, f"{rule} agent a i")
                    a = _number(a, "agent")
                else:
                    return fail(line, f"unknown {rule} kind {kind!r}")
                lacks = _NEEDS_NEC.get((rule, kind))
                if lacks and kind not in spec["nec"]:
                    return fail(line, f"{lacks} in {system}")
                msg = _shape_step(rule, kind, a, cited(prev), form)
                if msg:
                    return fail(line, msg)
            else:
                return fail(line, f"unknown rule {rule!r}")
        except KeyError as e:
            return fail(line, f"cites unproved line {e.args[0]}")
        except ValueError as e:
            return fail(line, f"malformed justification: {e}")
        proved[line.number] = form
    return CheckResult(True, None, f"{len(derivation.lines)} lines accepted")


# -- semantic audits -------------------------------------------------------

def default_grid():
    """Twenty small instantiation formulas for schema sweeps."""
    texts = ["p", "q", "~p", "~q", "(p & q)", "(p | q)", "(p -> q)",
             "[]p", "<>p", "~(p & q)", "[0]p", "[1]q", "<0>p", "{0}p",
             "{1}(p & q)", "([]p & q)", "([0]p | q)", "~[1]p",
             "(p & ~q)", "(q -> p)"]
    return [parse(t) for t in texts]


def schema_instances(name, max_k, grid):
    """Deterministic instance stream for a schema family."""
    out = []
    if name in ("AIA", "AAIA"):
        ks = range(1, max_k + 1)
    elif name == "GPerm":
        ks = range(0, max_k + 1)
    else:
        ks = (None,)
    for k in ks:
        for g, phi in enumerate(grid):
            if name == "AIA":
                bindings = {f"phi{i}": grid[(g + i) % len(grid)]
                            for i in range(k + 1)}
                out.append(instantiate(name, bindings, k=k))
            elif name == "AAIA":
                out.append(instantiate(name, {"phi": phi}, k=k))
            elif name == "GPerm":
                # l, m, n range over the three sweep agents; n may exceed k
                for l, m, n in itertools.product(range(3), repeat=3):
                    if any(i != n for i in range(k + 1)):
                        out.append(instantiate(
                            name, {"phi": phi},
                            {"l": l, "m": m, "n": n}, k=k))
            elif name.startswith("S5i") or name == "InclBox":
                bindings = {"phi": phi}
                if name == "S5i-K":
                    bindings["psi"] = grid[(g + 1) % len(grid)]
                for i in range(2):
                    out.append(instantiate(name, bindings, {"i": i}))
            else:
                bindings = {"phi": phi}
                if name == "S5Box-K":
                    bindings["psi"] = grid[(g + 1) % len(grid)]
                out.append(instantiate(name, bindings))
    return out


def _sweep_frames(f, max_points, frames_of):
    """First (frame, valuation, point) falsifying f, or None, over every
    frames_of frame of the occurring agents up to max_points worlds."""
    agents = sorted(syntax.agents(f))
    return solver.first_hit(
        f, (frames_of(n, len(agents)) for n in range(1, max_points + 1)),
        agents, False)[0]


def semantic_audit(name, max_k, grid=None, models="btac", max_points=4):
    """Validity sweep of a schema family over enumerated models.

    ``models='btac'`` sweeps every single-settledness-class choice frame,
    which covers all branching-time models within the bounds because
    evaluation never leaves the current moment; ``models='kripke'``
    additionally sweeps multi-class frames with the permutation property.
    ``max_points`` is capped like the oracle's ``max_worlds``, since both
    walk the same frames.  Returns a report with any counterexamples
    (none expected), in instance order.

    The instances of a family share most of their subformulas, so they
    are swept in groups: one sweep of the conjunction of each group of
    instances with the same agent set and the same atom set, in the
    order the groups first appear, where the kernel evaluates each
    shared subformula once.  A group whose conjunction never fails is
    valid throughout; only the instances of a group that fails are swept
    one at a time, for their own first counterexamples.  The agent set
    is in the key because it fixes the frames swept (``DefBox`` holds
    with two agents but not with three), and the atom set because it
    fixes the valuations: a group scans exactly the valuation space of
    each of its instances, no more.
    """
    if models not in ("btac", "kripke"):
        raise ValueError(f"models must be 'btac' or 'kripke', not {models!r}")
    if not 1 <= max_points <= solver.ORACLE_MAX_WORLDS:
        raise ValueError(f"max_points {max_points} is outside the sweep "
                         f"range 1..{solver.ORACLE_MAX_WORLDS}")
    grid = grid or default_grid()
    instances = schema_instances(name, max_k, grid)
    if not instances:
        raise ValueError(f"schema {name} has no instances at max_k {max_k}")
    frames_of = (solver.moment_frames if models == "btac"
                 else solver.general_frames)
    groups = {}
    for j, inst in enumerate(instances):
        key = (frozenset(syntax.agents(inst)), frozenset(syntax.atoms(inst)))
        groups.setdefault(key, []).append(j)
    hits = [None] * len(instances)
    for group in groups.values():
        if _sweep_frames(conjoin([instances[j] for j in group]), max_points,
                         frames_of) is not None:
            for j in group:
                hits[j] = _sweep_frames(instances[j], max_points, frames_of)
    return {"schema": name, "models": models, "instances": len(instances),
            "counterexamples": [
                {"instance": syntax.pretty(inst), "frame": hit[0],
                 "valuation": hit[1], "point": hit[2]}
                for inst, hit in zip(instances, hits) if hit is not None]}
