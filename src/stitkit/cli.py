"""Command-line front end.

Exit codes: 0 affirmative verdict or success, 1 negative verdict,
2 usage or input error, 3 inconclusive (a search gave up before
exhausting the space it promised to cover).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import axioms, btac, kripke, solver, syntax, translate
from .solver import InconclusiveError, SolverConfig


def _report(args, payload, human):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _load_model(path):
    with open(path) as fh:
        text = fh.read()
    if next(kripke.model_lines(text), "") != "btac":
        return kripke.parse_model(text)
    return btac.parse_model(text)


def _progress(stats):
    """The cap a search hit and how far it got, for the stderr line."""
    done = ", ".join(f"{k} {stats[k]}"
                     for k in ("leaves", "types", "groups", "combos")
                     if k in stats)
    return f"cap: {stats.get('cap', '?')}; {done}"


def _report_verdict(args, res):
    """Print a SatResult with its witness; exit 0 on SAT, 1 on UNSAT."""
    witness, human = None, res.verdict
    if res.witness:
        model, world = res.witness
        text = kripke.format_model(model)
        witness = {"world": world, "model": text}
        human += f"\nworld: {world}\n{text.rstrip()}"
    _report(args, {"verdict": res.verdict, "stats": res.stats,
                   "witness": witness}, human)
    return 0 if res.verdict == "SAT" else 1


def cmd_parse(args):
    f = syntax.parse(args.formula)
    payload = {"formula": syntax.pretty(f),
               "length": syntax.length(f),
               "subformulas": len(syntax.subformulas(f)),
               "agents": sorted(syntax.agents(f)),
               "language": syntax.language_tag(f).value}
    _report(args, payload,
            f"{payload['formula']}\nlength: {payload['length']}  "
            f"sf: {payload['subformulas']}  agents: {payload['agents']}  "
            f"language: {payload['language']}")
    return 0


def cmd_check(args):
    m = _load_model(args.modelfile)
    f = syntax.parse(args.formula)
    if isinstance(m, btac.BtacModel):
        w, _, h = args.at.partition("/")
        if not h:
            raise ValueError("btac index must look like moment/history")
        value = btac.eval(m, (w, h), f)
    else:
        # refuse an agent outside the universe whatever operand holds it,
        # as sat and oracle do, not just once mc reaches it
        solver._check_agents(f, SolverConfig(agent_universe=m.agent_universe))
        value = kripke.mc(m, args.at, f)
    _report(args, {"holds": value}, "true" if value else "false")
    return 0 if value else 1


def cmd_sat(args):
    f = syntax.parse(args.formula)
    return _report_verdict(
        args, solver.sat(f, SolverConfig(agent_universe=args.agents)))


def cmd_valid(args):
    f = syntax.parse(args.formula)
    verdict = solver.valid(f, SolverConfig(agent_universe=args.agents))
    _report(args, {"valid": verdict}, "valid" if verdict else "not valid")
    return 0 if verdict else 1


def cmd_translate(args):
    f = syntax.parse(args.formula)
    out = translate.tr(f) if args.to == "cstit" else translate.tr_prime(f)
    _report(args, {"formula": syntax.pretty(out),
                   "length": syntax.length(out)},
            syntax.pretty(out))
    return 0


def cmd_filter(args):
    m = _load_model(args.modelfile)
    if isinstance(m, btac.BtacModel):
        raise ValueError("filter expects a kripke or moment model")
    f = syntax.parse(args.formula)
    out, _ = kripke.filtrate(m, f)
    text = kripke.format_model(out)
    _report(args, {"model": text, "worlds": len(out.worlds)}, text.rstrip())
    return 0


def cmd_prove(args):
    with open(args.derivationfile) as fh:
        d = axioms.parse_derivation(fh.read())
    r = axioms.check(d)
    payload = {"accepted": r.ok, "line": r.line, "message": r.message}
    human = ("accepted: " + r.message if r.ok
             else f"rejected at line {r.line}: {r.message}")
    _report(args, payload, human)
    return 0 if r.ok else 1


def cmd_axiom(args):
    bindings, agents = {}, {}
    for item in args.bind or []:
        key, _, value = item.partition("=")
        if not value:
            raise ValueError(f"--bind needs key=value, got {item!r}")
        digits = value.removeprefix("-")
        number = digits.isascii() and digits.isdigit()
        axioms.check_param("--bind", key, number)
        if number:
            agents[key] = int(value)
        else:
            bindings[key] = syntax.parse(value)
    f = axioms.instantiate(args.name, bindings, agents, args.k)
    _report(args, {"formula": syntax.pretty(f),
                   "length": syntax.length(f)}, syntax.pretty(f))
    return 0


def cmd_oracle(args):
    f = syntax.parse(args.formula)
    agents = args.agents
    if agents is None:
        agents = max(syntax.agents(f), default=0) + 1
    res = solver.oracle(f, args.max_worlds,
                        SolverConfig(agent_universe=agents))
    return _report_verdict(args, res)


def cmd_sweep(args):
    rep = axioms.semantic_audit(args.schema, args.max_k,
                                models=args.models,
                                max_points=args.max_points)
    ok = not rep["counterexamples"]
    human = (f"{rep['instances']} instances, "
             f"{len(rep['counterexamples'])} counterexamples")
    for ce in rep["counterexamples"][:5]:
        human += f"\n  {ce['instance']} fails"
    rep_json = {k: v for k, v in rep.items() if k != "counterexamples"}
    rep_json["counterexamples"] = [
        {"instance": ce["instance"], "valuation": ce["valuation"],
         "point": ce["point"]} for ce in rep["counterexamples"]]
    _report(args, rep_json, human)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="stitkit",
        description="Workbench for multi-agent STIT logics")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--json", action="store_true",
                       help="machine-readable report")
        return p

    p = add("parse", cmd_parse, help="echo canonical form and measures")
    p.add_argument("formula")

    p = add("check", cmd_check, help="evaluate a formula in a model file")
    p.add_argument("modelfile")
    p.add_argument("formula")
    p.add_argument("--at", required=True,
                   help="world id, or moment/history for btac models")

    for name, fn in (("sat", cmd_sat), ("valid", cmd_valid)):
        p = add(name, fn, help=f"decide {name}isfiability"
                if name == "sat" else "decide validity")
        p.add_argument("formula")
        p.add_argument("--agents", type=int, required=True,
                       help="size of the agent universe")

    p = add("translate", cmd_translate, help="translate between languages")
    p.add_argument("formula")
    p.add_argument("--to", choices=["cstit", "dstit"], required=True)

    p = add("filter", cmd_filter, help="filtrate a model through a formula")
    p.add_argument("modelfile")
    p.add_argument("formula")

    p = add("prove", cmd_prove, help="check a Hilbert derivation file")
    p.add_argument("derivationfile")

    p = add("axiom", cmd_axiom, help="print an axiom schema instance")
    p.add_argument("name", choices=list(axioms.SCHEMA_NAMES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--bind", action="append",
                   help="slot=FORMULA or agentparam=INDEX, repeatable")

    p = add("oracle", cmd_oracle, help="brute-force satisfiability")
    p.add_argument("formula")
    p.add_argument("--max-worlds", type=int, default=3)
    p.add_argument("--agents", type=int, default=None)

    p = add("sweep", cmd_sweep, help="validity sweep of an axiom schema")
    p.add_argument("--schema", required=True,
                   choices=list(axioms.SCHEMA_NAMES))
    p.add_argument("--models", choices=["btac", "kripke"], default="btac")
    p.add_argument("--max-k", type=int, default=1)
    p.add_argument("--max-points", type=int, default=3)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except InconclusiveError as e:
        if args.json:
            print(json.dumps({"verdict": "INCONCLUSIVE", "stats": e.stats},
                             sort_keys=True))
        print(f"inconclusive: {e} ({_progress(e.stats)})", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: formula nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
