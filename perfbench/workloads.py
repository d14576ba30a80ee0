"""The benchmark workloads.

Each workload has four parts:

* ``inputs(seed)``: the benchmark's own input generation (not timed);
  returns a context and the list of op items, which a run goes round;
* ``prepare(st, ctx)``: the program-side set-up that ``setup_s`` times,
  such as frame caches or loading model text;
* ``op(st, state, item)``: one timed operation, calling stitkit only
  through the module namespace ``st``;
* ``verify(st, state, item, out)``: the check of one answer, run
  outside the timed region; False or an exception counts as a failure.

``st`` has one attribute per measured stitkit module, so a tracer or a
test can replace an entry point on the module and the ops pick it up.
"""

from __future__ import annotations

from pathlib import Path

from . import inputs

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "stitkit" / "fixtures"


class Decide:
    """Short sat/oracle calls on the criterion-4 corpus (two agents)."""

    name = "decide"

    def inputs(self, seed):
        return None, inputs.decide_inputs(seed)

    def prepare(self, st, ctx):
        # the oracle's frame caches for up to 4 worlds and 2 agents
        for n_agents in range(3):
            for n in range(1, 5):
                st.solver.moment_frames(n, n_agents)
                st.solver.general_frames(n, n_agents)
        return st.solver.SolverConfig(agent_universe=2)

    def op(self, st, cfg, text):
        f = st.syntax.parse(text)
        res = st.solver.sat(f, cfg)
        return f, res, st.solver.oracle(f, 4, cfg).verdict

    def verify(self, st, cfg, text, out):
        f, res, oracle_verdict = out
        if res.verdict != oracle_verdict:
            return False
        if res.verdict == "SAT":
            model, world = res.witness
            return (st.kripke.mc(model, world, f) is True
                    and len(model.worlds) <= 2 ** st.syntax.length(f))
        return True


class Hard3:
    """sat under three agents on formulas the type search works hard on."""

    name = "hard3"

    def inputs(self, seed):
        return None, inputs.hard3_inputs(seed)

    def prepare(self, st, ctx):
        return {"cfg": st.solver.SolverConfig(agent_universe=3),
                "confirmed": {}}

    def op(self, st, state, text):
        f = st.syntax.parse(text)
        return f, st.solver.sat(f, state["cfg"])

    def verify(self, st, state, text, out):
        f, res = out
        if res.verdict == "SAT":
            model, world = res.witness
            return st.kripke.mc(model, world, f) is True
        # No complete decider at three agents exists besides the solver;
        # an oracle finding no model within 4 worlds is a necessary
        # condition only.
        if text not in state["confirmed"]:
            state["confirmed"][text] = (
                st.solver.oracle(f, 4, state["cfg"]).verdict == "UNSAT")
        return state["confirmed"][text]


# instances of one schema over a one-formula grid, k = 2 (see
# axioms.schema_instances): AIA and AAIA one per k, GPerm one per (k, l,
# m, n) with some agent i <= k other than n
AUDIT_INSTANCES = {"AIA": 2, "AAIA": 2, "GPerm": 18 + 27 + 27}


class Audit:
    """Exhaustive validity sweeps of the criterion-2 schema families."""

    name = "audit"

    def inputs(self, seed):
        return None, inputs.audit_inputs(seed)

    def prepare(self, st, ctx):
        for n_agents in range(1, 4):
            for n in range(1, 5):
                st.solver.moment_frames(n, n_agents)
                st.solver.general_frames(n, n_agents)
        return None

    def op(self, st, state, item):
        schema, models, phi = item
        return st.axioms.semantic_audit(schema, 2,
                                        grid=[st.syntax.parse(phi)],
                                        models=models, max_points=4)

    def verify(self, st, state, item, rep):
        return (not rep["counterexamples"]
                and rep["instances"] == AUDIT_INSTANCES[item[0]])


class Replay:
    """Derivation checking of the six fixtures and every single-line
    negation of them."""

    name = "replay"

    def inputs(self, seed):
        fixtures = {p.name: p.read_text()
                    for p in sorted(FIXTURES.glob("*.drv"))}
        if not fixtures:
            raise FileNotFoundError(f"no derivation fixtures in {FIXTURES}")
        return None, inputs.replay_inputs(seed, fixtures)

    def prepare(self, st, ctx):
        return None

    def op(self, st, state, doc):
        return st.axioms.check(st.axioms.parse_derivation(doc[1])).ok

    def verify(self, st, state, doc, accepted):
        return accepted == doc[2]


class _Check:
    """Shared part of the two model-checking workloads.

    The reference answer comes from ``kernel.eval_mask`` on the frame
    encoding of the generated model, an evaluator independent of
    ``kripke.mc`` and ``btac.eval``.  Frames are built once per model
    (per moment for BT+AC); answers are not cached, so the memory the
    check holds does not grow with the run.
    """

    def inputs(self, seed):
        models, queries = self.generate(seed)
        texts = [m.text() for m in models]
        return (models, texts), queries

    def verify(self, st, state, item, value):
        k, ftext, point = item
        key = (k, self.frame_of(point))
        if key not in state["frames"]:
            state["frames"][key] = self.frame(st, state["specs"][k], key[1])
        frame, atom_masks, index = state["frames"][key]
        atom_order = {p: i for i, p in enumerate(inputs.CHECK_ATOMS)}
        ops, args = st.kernel.compile_formula(
            st.syntax.parse(ftext), atom_order, {0: 0, 1: 1, 2: 2})
        truth = st.kernel.eval_mask(ops, args, frame, atom_masks)
        return value is bool((truth >> index[self.position(point)]) & 1)


def _masks(cells, index):
    return tuple(sum(1 << index[x] for x in c) for c in cells)


class CheckKripke(_Check):
    """kripke.mc on unions of product grids with a padded third agent."""

    name = "check_kripke"
    generate = staticmethod(inputs.check_kripke_inputs)

    def prepare(self, st, ctx):
        specs, texts = ctx
        return {"specs": specs, "frames": {},
                "models": [st.kripke.parse_model(t) for t in texts]}

    def op(self, st, state, item):
        k, ftext, world = item
        return st.kripke.mc(state["models"][k], world, st.syntax.parse(ftext))

    @staticmethod
    def frame_of(world):
        return None

    @staticmethod
    def position(world):
        return world

    @staticmethod
    def frame(st, spec, _):
        index = {w: i for i, w in enumerate(spec.worlds)}
        comps = _masks(spec.components, index)
        # agent 0 rows, agent 1 columns; padded agent 2 and settledness
        # both range over the whole grid
        frame = st.kernel.Frame(len(spec.worlds), (
            _masks(spec.rows, index), _masks(spec.cols, index), comps, comps))
        atom_masks = [_masks([spec.valuation[p]], index)[0]
                      for p in inputs.CHECK_ATOMS]
        return frame, atom_masks, index


class CheckBtac(_Check):
    """btac.eval on full trees with two histories per leaf."""

    name = "check_btac"
    generate = staticmethod(inputs.check_btac_inputs)

    def prepare(self, st, ctx):
        specs, texts = ctx
        models = []
        for t in texts:
            m = st.btac.parse_model(t)
            bad = st.btac.validate_model(m)
            if bad:
                raise ValueError("invalid generated model: " + bad[0])
            models.append(m)
        return {"specs": specs, "frames": {}, "models": models}

    def op(self, st, state, item):
        k, ftext, index = item
        return st.btac.eval(state["models"][k], index, st.syntax.parse(ftext))

    @staticmethod
    def frame_of(index):
        return index[0]

    @staticmethod
    def position(index):
        return index[1]

    @staticmethod
    def frame(st, spec, w):
        # evaluation never leaves the moment: one frame per moment, whose
        # points are the histories through it
        hw = spec.histories[w]
        index = {h: i for i, h in enumerate(hw)}
        everything = ((1 << len(hw)) - 1,)
        frame = st.kernel.Frame(len(hw), (
            _masks(spec.choice[(0, w)], index),
            _masks(spec.choice[(1, w)], index), everything, everything))
        atom_masks = [sum(1 << index[h] for u, h in spec.valuation[p]
                          if u == w)
                      for p in inputs.CHECK_ATOMS]
        return frame, atom_masks, index


WORKLOADS = {wl.name: wl for wl in (Decide(), Hard3(), Audit(), Replay(),
                                    CheckKripke(), CheckBtac())}
