import importlib.resources
import json

import pytest

from stitkit import cli

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


def test_oracle_parse_error_exit_2(capsys):
    assert cli.main(["oracle", "(("]) == 2
    assert capsys.readouterr().err.startswith("error:")


DEEP_FORMULAS = {
    "parse": ["parse", "~" * 3000 + "p"],
    "translate": ["translate", "[0]~" * 300 + "p", "--to", "dstit"],
    "sat": ["sat", "~" * 600 + "p", "--agents", "2"],
}


@pytest.mark.parametrize("argv", DEEP_FORMULAS.values(),
                         ids=DEEP_FORMULAS.keys())
def test_deep_formula_exit_2(capsys, argv):
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: formula nested too deeply\n"


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
}


@pytest.mark.parametrize("text", BAD_MODELS.values(), ids=BAD_MODELS.keys())
def test_bad_model_file_exit_2(capsys, tmp_path, text):
    path = tmp_path / "bad.model"
    path.write_text(text)
    assert cli.main(["check", str(path), "p", "--at", "a"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
