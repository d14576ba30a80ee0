"""Generated argv and mutated model files through cli.main: every run
ends in exit code 0-3 and no exception escapes."""

import contextlib
import io
import json
import os
import re
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from stitkit import cli

AGENTS = st.integers(min_value=0, max_value=3)

formulas = st.recursive(
    st.sampled_from(["p", "q", "r"]),
    lambda sub: st.one_of(
        st.builds("~{}".format, sub),
        st.builds("[]{}".format, sub),
        st.builds("<>{}".format, sub),
        st.builds("[{}]{}".format, AGENTS, sub),
        st.builds("<{}>{}".format, AGENTS, sub),
        st.builds("{{{}}}{}".format, AGENTS, sub),
        st.builds("({} {} {})".format, sub,
                  st.sampled_from(["&", "|", "->", "<->"]), sub),
    ),
    max_leaves=5,
)

# formula text, possibly cut short or with junk spliced in
texts = st.one_of(
    formulas,
    st.builds(lambda f, k: f[:k], formulas, st.integers(0, 12)),
    st.builds(str.__add__, formulas, st.text(max_size=4)),
    st.text(max_size=12),
)

JSON = st.sampled_from([[], ["--json"]])

commands = st.one_of(
    st.builds(lambda f, j: ["parse", *j, f], texts, JSON),
    st.builds(lambda c, f, n, j: [c, f, "--agents", str(n), *j],
              st.sampled_from(["sat", "valid"]), texts, AGENTS, JSON),
    st.builds(lambda f, w, a, j: ["oracle", f, "--max-worlds", str(w),
                                  *a, *j],
              texts, st.integers(min_value=-1, max_value=2),
              st.one_of(st.just([]), AGENTS.map(
                  lambda n: ["--agents", str(n)])), JSON),
    st.builds(lambda f, to, j: ["translate", f, "--to", to, *j],
              texts, st.sampled_from(["cstit", "dstit", "btac"]), JSON),
    st.lists(st.text(max_size=8), max_size=4),
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(commands)
def test_cli_exit_codes(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    # a report under --json is one JSON object, unless a -h among the
    # arguments asked for help
    text = out.getvalue()
    if "--json" in argv and code != 2 and not text.startswith("usage:"):
        json.loads(text)


# valid model files of each kind, to be mutated below
MODELS = (
    "kripke agents=3\nworlds: a b c d u v\nrel 0: {a b} {c d} {u v}\n"
    "rel 1: {a c} {b d} {u} {v}\nval p: a b u\nval q: a c\n",
    "moment agents=2\nworlds: a b c d\npart 0: {a b} {c d}\n"
    "part 1: {a c} {b d}\nval p: a b\nval q: a c\n",
    "btac\nmoment m1\nmoment m2 parent m1 histories 2\n"
    "moment m3 parent m1\nchoice 0 m1: {h1 h2} {h3}\n"
    "choice 1 m2: {h1} {h2}\nval p: m1/h1 m2/h2\nval q: m3/h3\n",
)

# a word, or one other non-blank character
TOKEN = re.compile(r"\w+|[^\w\s]")
REPLACEMENTS = st.sampled_from(["x", "0", "1", "-1", "7", "a", "h1", "m1",
                                "p", "{", "}", ":", "/", "=", "# "])


@st.composite
def mutated_models(draw):
    """A valid model file with one to three of: a line dropped, repeated
    or swapped with another; a token dropped or replaced."""
    lines = draw(st.sampled_from(MODELS)).splitlines()
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(
            ["drop token", "replace token", "drop line", "repeat line",
             "swap lines"]))
        spans = [t.span() for t in TOKEN.finditer(lines[i])]
        if kind == "drop line":
            del lines[i]
        elif kind == "repeat line":
            lines.insert(i, lines[i])
        elif kind == "swap lines":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif spans:
            start, end = draw(st.sampled_from(spans))
            new = "" if kind == "drop token" else draw(REPLACEMENTS)
            lines[i] = lines[i][:start] + new + lines[i][end:]
    return "\n".join(lines) + "\n"


model_commands = st.one_of(
    st.builds(lambda f, at: ["check", f, "--at", at],
              st.sampled_from(["p", "[0]p", "{1}q", "<>[2]p"]),
              st.sampled_from(["a", "u", "m1/h1", "m2/h2", "m3"])),
    st.builds(lambda f: ["filter", f], st.sampled_from(["p", "[0]p"])),
)


@settings(derandomize=True, deadline=None, max_examples=400)
@given(mutated_models(), model_commands)
def test_model_file_mutations(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "m.model")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command[0], path, *command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2), (text, command, code)
    if code == 2:
        assert err.getvalue().count("\n") == 1, (text, err.getvalue())
        assert err.getvalue().endswith("\n")
