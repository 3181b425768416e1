"""Fuzz the command line with mutated input files.

Hypothesis mutates the bundled scenario JSON, a small CSV and the bundled
DAG text: keys dropped or duplicated, values swapped for ones of another
type, the text truncated, lines duplicated, tokens replaced and stray bytes
inserted, non-UTF-8 ones included.  Each command that reads the file then
runs through ``cli.main`` in this process.  Whatever the input, it must end
with exit code 0, 1 or 2 and write nothing or one ``error:`` line to
stderr, never a traceback.  The sampling command is capped at 50 rows with
``--n``, whatever sample size the mutated file asks for.

The example budget comes from the loaded hypothesis profile (see
``conftest.py``); ``--hypothesis-profile=ci`` runs a larger one.
"""

import contextlib
import io
import json
import tempfile
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from causalkit import fixtures
from causalkit.cli import main
from causalkit.scm import sample
from rows import sample_rows

pytestmark = pytest.mark.budget

DATA = resources.files("causalkit") / "data"
SCENARIO = (DATA / "case_study.json").read_bytes()
DAG = (DATA / "case_study.dag").read_bytes()
CSV = sample_rows(fixtures.confounder_model(), 60, 5).to_csv().encode()
WEIGHTED_CSV = sample(fixtures.confounder_model(), 60, 5).to_csv().encode()

# The commands run on each kind of file; FILE stands for its path.
FILE = object()
ESTIMATE = ["estimate", "--data", FILE, "--treatment", "A", "--outcome", "B"]
COMMANDS = {
    "scenario": (
        ["oracle", "--scenario", FILE],
        ["simulate", "--scenario", FILE, "--n", "50"],
    ),
    "csv": (
        [*ESTIMATE, "--method", "outcome_regression", "--adjust", "C"],
        [*ESTIMATE, "--method", "ipw", "--adjust", "C", "--replicates", "40"],
    ),
    "dag": (
        ["dag", "check", FILE],
        ["dag", "paths", FILE, "--from", fixtures.CHILDCARE, "--to", fixtures.CONDUCT_SCHOOL],
        ["dag", "adjust", FILE],
    ),
}

# Values of every JSON type, NaN and infinities included (json.loads reads them).
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=2)
    | st.dictionaries(st.text(max_size=3), children, max_size=2),
    max_leaves=4,
)
stray_bytes = st.binary(min_size=1, max_size=4) | st.sampled_from(
    [b"\xff", b"\xc3", b"\x00", b"\r", b"\n", b",", b'"', b"#", b"{", b"]"]
)
tokens = st.sampled_from(
    ["", "0", "1", "2", "-1", "0.5", "nan", "inf", "x", "edge", "node", "__weight",
     "A", "B", "C", fixtures.CHILDCARE, '"', "1e308"]
)


def _paths(value, prefix=()):
    """The path of every value inside a JSON document, the root excluded."""
    children = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _encode(value, duplicate=None) -> str:
    """JSON text of ``value``; ``duplicate = (dict, key, extra)`` writes
    that dict's ``key`` twice, the second time with the value ``extra``."""
    if isinstance(value, dict):
        items = list(value.items())
        if duplicate is not None and duplicate[0] is value:
            items.append(duplicate[1:])
        return "{" + ", ".join(
            f"{json.dumps(k)}: {_encode(v, duplicate)}" for k, v in items
        ) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_encode(v, duplicate) for v in value) + "]"
    return json.dumps(value)


@st.composite
def json_mutations(draw, text: bytes) -> bytes:
    """Drop a key or element, swap a value for another, or duplicate a key."""
    document = json.loads(text)
    path = draw(st.sampled_from(list(_paths(document))))
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    action = draw(st.sampled_from(["drop", "swap", "duplicate"]))
    if action == "drop":
        del parent[key]
    elif action == "swap":
        parent[key] = draw(json_values)
    elif isinstance(parent, dict):
        return _encode(document, (parent, key, draw(json_values))).encode()
    else:
        parent.insert(key, parent[key])
    return _encode(document).encode()


@st.composite
def text_mutations(draw, text: bytes) -> bytes:
    """Truncate, insert stray bytes, drop a slice, duplicate a line or
    replace a token."""
    action = draw(st.sampled_from(["truncate", "insert", "drop", "line", "token"]))
    at = draw(st.integers(0, len(text)))
    if action == "truncate":
        return text[:at]
    if action == "insert":
        return text[:at] + draw(stray_bytes) + text[at:]
    if action == "drop":
        return text[:at] + text[at + draw(st.integers(1, 8)):]
    if action == "line" and text:
        lines = text.splitlines(keepends=True)
        i = draw(st.integers(0, len(lines) - 1))
        return b"".join(lines[:i + 1] + lines[i:])
    pieces = text.replace(b"\n", b" \n ").replace(b",", b" , ").split(b" ")
    i = draw(st.integers(0, len(pieces) - 1))
    pieces[i] = draw(tokens).encode()
    return b" ".join(pieces).replace(b" \n ", b"\n").replace(b" , ", b",")


@st.composite
def mutated(draw, text: bytes, structured: bool = False) -> bytes:
    """One to three mutations in a row; in JSON text the first may be a
    structural one."""
    count = draw(st.integers(1, 3))
    if structured and draw(st.booleans()):
        text = draw(json_mutations(text))
        count -= 1
    for _ in range(count):
        text = draw(text_mutations(text))
    return text


INPUTS = {
    "scenario": mutated(SCENARIO, structured=True),
    "csv": st.sampled_from([CSV, WEIGHTED_CSV]).flatmap(mutated),
    "dag": mutated(DAG),
}


def _run(argv):
    """Exit code and stderr of one command; a warning counts as stderr, since
    a run outside the test prints it there."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    printed = "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, err.getvalue() + printed


@pytest.mark.parametrize("kind", sorted(COMMANDS))
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_mutated_input_ends_in_an_exit_code_and_at_most_one_error_line(kind, data):
    text = data.draw(INPUTS[kind], label="input")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input.{kind}"
        path.write_bytes(text)
        for command in COMMANDS[kind]:
            argv = [str(path) if arg is FILE else arg for arg in command]
            code, err = _run(argv)
            assert code in (0, 1, 2), (argv, code)
            assert "Traceback" not in err
            assert err == "" or (err.startswith("error: ") and err.count("\n") == 1), err
