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
  i.e. from A -> B conclude [x]A -> [x]B (or <x>A -> <x>B).  Both are
  derivable from the K axiom plus necessitation in every system here.

Necessitation is system-specific: settledness necessitation in XU and
AAIA-SYS, agent necessitation in GPERM-SYS (where settledness
necessitation is derivable but not primitive).
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

from . import kernel, solver, syntax
from .syntax import (And, Atom, Box, Cstit, Diamond, Dstit, Iff, Implies,
                     Not, PosCstit, conjoin, parse)

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
    the family index for AIA/AAIA/GPerm.
    """
    agents = agents or {}

    def slot(s):
        if s not in bindings:
            raise ValueError(f"schema {name} needs slot {s}")
        return bindings[s]

    def agent(s):
        if s not in agents:
            raise ValueError(f"schema {name} needs agent {s}")
        if agents[s] < 0:
            raise ValueError(f"schema {name}: agent {s}={agents[s]} is "
                             f"negative")
        return agents[s]

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


_LINE_RE = re.compile(r"^(\d+)\s*:\s*(.*?)\s*;\s*(.+)$")
_PARAM_RE = re.compile(r'(\w+)\s*=\s*(?:"([^"]*)"|(\d+))')


def parse_derivation(text):
    system = None
    lines = []
    for raw in text.splitlines():
        ln = raw.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("system "):
            system = ln.split(None, 1)[1].strip()
            continue
        m = _LINE_RE.match(ln)
        if m is None:
            raise ValueError(f"bad derivation line {ln!r}")
        number = int(m.group(1))
        if number != len(lines) + 1:
            raise ValueError(f"line numbered {number} where "
                             f"{len(lines) + 1} was expected")
        formula = parse(m.group(2))
        just = m.group(3).split()
        lines.append(Line(number, formula, just[0], tuple(just[1:])))
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


def _parse_ax_args(args):
    text = " ".join(args)
    name = args[0] if args else ""
    rest = text[len(name):]
    bindings, agents, k = {}, {}, None
    for key, fml, num in _PARAM_RE.findall(rest):
        if fml:
            bindings[key] = parse(fml)
        elif key == "k":
            k = int(num)
        else:
            agents[key] = int(num)
    return name, bindings, agents, k


def check(derivation, system=None):
    """Verify every line; returns the first failure if any."""
    system = system or derivation.system
    if system not in SYSTEMS:
        return CheckResult(False, None, f"unknown system {system!r}")
    spec = SYSTEMS[system]
    proved = {}  # line number -> canon form of its formula

    def fail(line, msg):
        return CheckResult(False, line.number, msg)

    def cited(tok):
        n = int(tok)
        if n not in proved:
            raise KeyError(n)
        return proved[n]

    for line in derivation.lines:
        form = canon(line.formula)
        try:
            rule = line.rule
            if rule == "AX":
                name, bindings, agents, k = _parse_ax_args(line.args)
                if name not in spec["schemas"]:
                    return fail(line, f"schema {name} not in {system}")
                want = instantiate(name, bindings, agents, k)
                if want != line.formula:
                    return fail(line, f"axiom mismatch: expected "
                                      f"{syntax.pretty(want)}")
            elif rule == "MP":
                imp = _as_implication(cited(line.args[0]))
                minor = cited(line.args[1])
                if imp is None:
                    return fail(line, "MP major premise is not an "
                                      "implication")
                if imp[0] != minor or imp[1] != form:
                    return fail(line, "MP shape mismatch")
            elif rule == "NEC":
                kind = line.args[0]
                if kind == "box":
                    if "box" not in spec["nec"]:
                        return fail(line, f"settledness necessitation is "
                                          f"not primitive in {system}")
                    prev = cited(line.args[1])
                    if form != Box(prev):
                        return fail(line, "NEC box shape mismatch")
                elif kind == "agent":
                    if "agent" not in spec["nec"]:
                        return fail(line, f"agent necessitation is not "
                                          f"primitive in {system}")
                    a = int(line.args[1])
                    prev = cited(line.args[2])
                    if form != Cstit(a, prev):
                        return fail(line, "NEC agent shape mismatch")
                else:
                    return fail(line, f"unknown NEC kind {kind!r}")
            elif rule == "PL":
                premises = [cited(tok) for tok in line.args]
                if not _pl_entails(premises, form):
                    return fail(line, "not a propositional consequence "
                                      "of the cited lines")
            elif rule in ("RK", "RKD"):
                kind = line.args[0]
                if kind == "box":
                    if system == "GPERM-SYS":
                        return fail(line, "settledness monotony is not "
                                          "available in GPERM-SYS")
                    prev = cited(line.args[1])
                    wrap = Box if rule == "RK" else Diamond
                else:
                    a = int(line.args[1])
                    prev = cited(line.args[2])
                    if rule == "RK":
                        def wrap(g, a=a):
                            return Cstit(a, g)
                    else:
                        def wrap(g, a=a):
                            return PosCstit(a, g)
                imp = _as_implication(prev)
                if imp is None:
                    return fail(line, f"{rule} premise is not an "
                                      f"implication")
                want = Implies(wrap(imp[0]), wrap(imp[1]))
                if form != canon(want):
                    return fail(line, f"{rule} shape mismatch: expected "
                                      f"{syntax.pretty(canon(want))}")
            else:
                return fail(line, f"unknown rule {rule!r}")
        except KeyError as e:
            return fail(line, f"cites unproved line {e.args[0]}")
        except (IndexError, ValueError) as e:
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
    (none expected).
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
    report = {"schema": name, "models": models, "instances": 0,
              "counterexamples": []}
    for inst in instances:
        report["instances"] += 1
        hit = _sweep_frames(inst, max_points, frames_of)
        if hit is not None:
            frame, v, point = hit
            report["counterexamples"].append(
                {"instance": syntax.pretty(inst), "frame": frame,
                 "valuation": v, "point": point})
    return report
