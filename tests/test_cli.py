import importlib.resources
import json

import pytest

from stitkit import cli, syntax, translate

MOMENT = """
moment agents=2
worlds: a b c d
part 0: {a b} {c d}
part 1: {a c} {b d}
val p: a b
val q: a c
"""

BTAC = """
btac
moment m1 histories 4
choice 0 m1: {h1 h2} {h3 h4}
choice 1 m1: {h1 h3} {h2 h4}
val p: m1/h1 m1/h2
"""


@pytest.fixture
def moment_file(tmp_path):
    path = tmp_path / "m.model"
    path.write_text(MOMENT)
    return str(path)


@pytest.fixture
def btac_file(tmp_path):
    path = tmp_path / "b.model"
    path.write_text(BTAC)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_parse(capsys):
    code, out = run(capsys, "parse", "{0}(p & <>q)")
    assert code == 0
    assert "{0}(p & ~[]~q)" in out


def test_parse_json(capsys):
    code, out = run(capsys, "parse", "--json", "[0]p")
    payload = json.loads(out)
    assert code == 0
    assert payload["length"] == 4
    assert payload["agents"] == [0]


def test_parse_error_exit_2(capsys):
    assert cli.main(["parse", "(p &"]) == 2


def test_usage_error_exit_2(capsys):
    assert cli.main(["nosuchcommand"]) == 2


def test_check_moment(capsys, moment_file):
    code, out = run(capsys, "check", moment_file, "[0]p", "--at", "a")
    assert (code, out.strip()) == (0, "true")
    code, out = run(capsys, "check", moment_file, "[]p", "--at", "a")
    assert (code, out.strip()) == (1, "false")


def test_check_btac(capsys, btac_file, tmp_path):
    code, out = run(capsys, "check", btac_file, "{0}p", "--at", "m1/h1")
    assert code == 0
    assert cli.main(["check", btac_file, "p", "--at", "m1"]) == 2
    commented = tmp_path / "c.model"
    commented.write_text("# a leading comment\n" + BTAC)
    assert cli.main(["check", str(commented), "{0}p", "--at", "m1/h1"]) == 0


def test_sat_and_valid(capsys):
    code, out = run(capsys, "sat", "{0}p", "--agents", "2")
    assert code == 0 and out.startswith("SAT")
    assert "worlds:" in out  # witness printed
    assert cli.main(["sat", "(p & ~p)", "--agents", "2"]) == 1
    assert cli.main(["valid", "([]p -> [0]p)", "--agents", "2"]) == 0
    assert cli.main(["valid", "p", "--agents", "2"]) == 1


def test_sat_json_witness_parses(capsys):
    from stitkit import kripke, syntax
    code, out = run(capsys, "sat", "--json", "{0}p", "--agents", "2")
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "SAT"
    model = kripke.parse_model(payload["witness"]["model"])
    assert kripke.mc(model, payload["witness"]["world"],
                     syntax.parse("{0}p"))


def test_sat_oracle_engine(capsys):
    # the oracle has one route, its own subcommand
    assert cli.main(["sat", "{0}p", "--agents", "2", "--engine", "oracle",
                     "--max-worlds", "2"]) == 2


INCONCLUSIVE = {
    # 60 leaves, over the cap of 22
    "leaves": (" & ".join(f"[0]a{i}" for i in range(30)),
               "60 independent subformulas exceed the engine cap "
               "(cap: leaves; leaves 60)"),
    # 32 profiles per agent: 2**64 subset combinations in one group
    "combos": (" | ".join(f"[{a}]{p}" for a in (0, 1) for p in "pqrst"),
               "profile subset space exceeds the engine cap "
               "(cap: combos; types 3125, groups 1, combos 0)"),
}


def test_sat_inconclusive_exit_3(capsys):
    for cap, (text, message) in INCONCLUSIVE.items():
        assert cli.main(["sat", f"({text})", "--agents", "2"]) == 3
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"inconclusive: {message}\n"
        assert cli.main(["sat", "--json", f"({text})", "--agents", "2"]) == 3
        out = capsys.readouterr()
        payload = json.loads(out.out)
        assert payload["verdict"] == "INCONCLUSIVE"
        assert payload["stats"]["cap"] == cap
        assert out.err == f"inconclusive: {message}\n"


def test_translate(capsys):
    code, out = run(capsys, "translate", "{0}p", "--to", "cstit")
    assert code == 0 and "{" not in out
    assert cli.main(["translate", "[0]p", "--to", "cstit"]) == 2


def test_filter(capsys, moment_file):
    code, out = run(capsys, "filter", moment_file, "[0]p")
    assert code == 0
    assert out.startswith("kripke")


def test_prove(capsys, tmp_path):
    root = importlib.resources.files("stitkit") / "fixtures"
    code, out = run(capsys, "prove", str(root / "aia1_warmup.drv"))
    assert code == 0 and out.startswith("accepted")
    bad = tmp_path / "bad.drv"
    bad.write_text("system XU\n1: p ; PL\n")
    assert cli.main(["prove", str(bad)]) == 1


def test_axiom(capsys):
    code, out = run(capsys, "axiom", "AIA", "--k", "1",
                    "--bind", "phi0=p", "--bind", "phi1=q")
    assert code == 0
    assert "~[]~" in out  # the diamonds
    assert cli.main(["axiom", "AIA", "--k", "1", "--bind", "phi0=p"]) == 2
    # ~([-1]p & ~p) would not parse back
    assert cli.main(["axiom", "S5i-T", "--bind", "i=-1",
                     "--bind", "phi=p"]) == 2


def test_oracle(capsys):
    assert cli.main(["oracle", "{0}p", "--max-worlds", "3"]) == 0
    assert cli.main(["oracle", "(p & ~p)", "--max-worlds", "2"]) == 1
    assert cli.main(["oracle", "{0}p", "--agents", "2",
                     "--max-worlds", "2"]) == 0
    for bound in ("0", "-1"):
        assert cli.main(["oracle", "p", "--max-worlds", bound]) == 2


def test_sweep(capsys):
    code, out = run(capsys, "sweep", "--schema", "AIA", "--max-k", "1",
                    "--max-points", "3")
    assert code == 0
    assert "0 counterexamples" in out
    # sweeping no frame or no instance is no evidence
    assert cli.main(["sweep", "--schema", "S5Box-T",
                     "--max-points", "0"]) == 2
    assert cli.main(["sweep", "--schema", "AIA", "--max-k", "0"]) == 2
    # past the oracle's world cap the frame enumeration does not finish
    capsys.readouterr()
    assert cli.main(["sweep", "--schema", "S5Box-T",
                     "--max-points", "6"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: max_points 6") and err.count("\n") == 1


def test_oracle_parse_error_exit_2(capsys):
    assert cli.main(["oracle", "(("]) == 2
    assert capsys.readouterr().err.startswith("error:")


DEEP_PARSE = "~" * 3000 + "p"
DEEP_TRANSLATE = "[0]~" * 3000 + "p"
DEEP_TRANSLATE_CSTIT = "{0}~" * 3000 + "p"


def test_deep_formula_parse_exit_0(capsys):
    # the syntax layer has no recursion, so nesting depth is no error
    assert cli.main(["parse", DEEP_PARSE]) == 0
    text = capsys.readouterr().out.splitlines()[0]
    assert text == DEEP_PARSE
    assert syntax.pretty(syntax.parse(text)) == text


def test_deep_formula_translate_exit_0(capsys):
    assert cli.main(["translate", DEEP_TRANSLATE, "--to", "dstit"]) == 0
    out = capsys.readouterr().out.strip()
    want = translate.tr_prime(syntax.parse(DEEP_TRANSLATE))
    assert out == syntax.pretty(want)
    assert syntax.parse(out) == want
    assert cli.main(["translate", DEEP_TRANSLATE_CSTIT, "--to", "cstit"]) == 0
    out = capsys.readouterr().out.strip()
    want = translate.tr(syntax.parse(DEEP_TRANSLATE_CSTIT))
    assert out == syntax.pretty(want)
    assert syntax.parse(out) == want


def test_deep_formula_sat_exit_2(capsys):
    # the witness re-check in kripke.mc still recurses once per level
    assert cli.main(["sat", "~" * 600 + "p", "--agents", "2"]) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


def test_deep_btac_tree(capsys, tmp_path):
    # histories are named without recursion, so a long chain loads
    chain = "btac\nmoment m0\n" + "".join(
        f"moment m{i} parent m{i - 1}\n" for i in range(1, 1500))
    path = tmp_path / "chain.model"
    path.write_text(chain)
    assert run(capsys, "check", str(path), "p", "--at", "m0/h1") \
        == (1, "false\n")
    assert run(capsys, "check", str(path), "[]~p", "--at", "m1499/h1") \
        == (0, "true\n")


BAD_MODELS = {
    "empty": "",
    "comment-only": "\n# only a comment\n",
    "overlap": "moment agents=2\nworlds: a b\npart 0: {a b} {b}\n",
    "uncovered": "moment agents=1\nworlds: a b\npart 0: {a}\n",
    "not-rectangular": "moment agents=2\nworlds: a b\n"
                       "part 0: {a} {b}\npart 1: {a} {b}\n",
    "no-gpp": "kripke agents=2\nworlds: a b c d\nrel 0: {a b} {c d}\n"
              "rel 1: {a} {b c} {d}\n",
    "moment-agent-outside-universe": "moment agents=1\nworlds: a b\n"
                                     "part 0: {a b}\npart 1: {a} {b}\n",
    "moment-val-unknown-world": "moment agents=1\nworlds: a b\n"
                                "part 0: {a b}\nval p: a z\n",
    "btac-parent-without-value": "btac\nmoment m1 parent\n",
    "btac-zero-histories": "btac\nmoment m1 histories 0\n",
    "btac-histories-on-inner-moment": "btac\nmoment m1 histories 3\n"
                                      "moment m2 parent m1\n",
}

# files rejected for one line, which the message quotes: a key line
# without its key, an integer field that is no integer, a worlds: line
# without worlds, and a second key line that would replace the first
BAD_LINES = {
    "kripke-rel-without-agent": ("kripke agents=1\nworlds: a b\n",
                                 "rel : {a b}"),
    "kripke-val-without-atom": ("kripke agents=1\nworlds: a\n", "val : a"),
    "moment-part-without-agent": ("moment agents=1\nworlds: a b\n",
                                  "part : {a b}"),
    "moment-val-without-atom": ("moment agents=1\nworlds: a\n", "val : a"),
    "btac-val-without-atom": ("btac\nmoment m1\n", "val :m1/h1"),
    "kripke-agents-not-integer": ("", "kripke agents=x"),
    "kripke-rel-agent-not-integer": ("kripke agents=1\nworlds: a\n",
                                     "rel x: {a}"),
    "btac-histories-not-integer": ("btac\n", "moment m1 histories x"),
    "btac-choice-agent-not-integer": ("btac\nmoment m1\n",
                                      "choice x m1: {h1}"),
    "btac-choice-without-moment": ("btac\nmoment m1\n", "choice 0: {h1}"),
    "kripke-no-worlds": ("kripke agents=1\n", "worlds:"),
    "duplicate-world": ("kripke agents=1\n", "worlds: a a b"),
    "kripke-second-worlds": ("kripke agents=1\nworlds: a\n", "worlds: a b"),
    "kripke-second-rel": ("kripke agents=1\nworlds: a b\nrel 0: {a} {b}\n",
                          "rel 0: {a b}"),
    "moment-second-part": ("moment agents=1\nworlds: a b\n"
                           "part 0: {a} {b}\n", "part 0: {a b}"),
    "kripke-second-val": ("kripke agents=1\nworlds: a\nval p: a\n",
                          "val p:"),
    "btac-second-choice": ("btac\nmoment m1 histories 2\n"
                           "choice 0 m1: {h1} {h2}\n", "choice 0 m1: {h1 h2}"),
    "btac-second-val": ("btac\nmoment m1\nval p: m1/h1\n", "val p:"),
}
BAD_MODELS.update((name, head + line + "\n")
                  for name, (head, line) in BAD_LINES.items())


@pytest.mark.parametrize("name", BAD_MODELS)
def test_bad_model_file_exit_2(capsys, tmp_path, name):
    text = BAD_MODELS[name]
    path = tmp_path / "bad.model"
    path.write_text(text)
    at = "m1/h1" if text.startswith("btac") else "a"
    assert cli.main(["check", str(path), "p", "--at", at]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    if name in BAD_LINES:
        assert repr(BAD_LINES[name][1]) in err
