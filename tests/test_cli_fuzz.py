"""Generated argv through cli.main: every run ends in exit code 0-3 and no
exception escapes."""

import contextlib
import io
import json

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
