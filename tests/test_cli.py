import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from causalkit import fixtures, scm
from causalkit.cli import EXIT_ANALYSIS, EXIT_OK, EXIT_USAGE, main
from causalkit.dag import parse_dag_text
from causalkit.scenario import parse_scenario
from causalkit.scm import enumerate_population
from rows import quote_first_cells, scenario_rows

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CASE_STUDY_10K_SEED1_SHA256 = (
    "eb9b7d4f07229da008f6aa0cc0ebe8425698b5f20f1ba9d27d554f8b63bee608"
)


@pytest.fixture()
def dag_file(tmp_path):
    text = (resources.files("causalkit") / "data" / "case_study.dag").read_text()
    path = tmp_path / "case_study.dag"
    path.write_text(text)
    return str(path)


def _small_obj():
    """A scenario file's object: the confounder triple C -> A, C -> B."""
    return {"nodes": [{"name": "C", "intercept": 0.5},
                      {"name": "A", "intercept": 0.25, "parents": {"C": 0.5}},
                      {"name": "B", "intercept": 0.25, "parents": {"C": 0.5}}],
            "sample_size": 2_000, "seed": 42,
            "analyses": [{"method": "unadjusted", "treatment": "A", "outcome": "B"}]}


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(_small_obj()))
    return str(path)


# ---------------------------------------------------------------------------
# dag subcommands


def test_dag_check_ok(dag_file, capsys):
    assert main(["dag", "check", dag_file]) == EXIT_OK
    assert "7 nodes, 11 edges" in capsys.readouterr().out


def test_dag_check_syntax_error(tmp_path, capsys):
    path = tmp_path / "bad.dag"
    path.write_text("edge A\n")
    assert main(["dag", "check", str(path)]) == EXIT_USAGE
    assert "line 1" in capsys.readouterr().err


def test_dag_check_semantic_error(tmp_path, capsys):
    path = tmp_path / "cyclic.dag"
    path.write_text("edge A B\nedge B A\n")
    assert main(["dag", "check", str(path)]) == EXIT_USAGE
    assert "cycle" in capsys.readouterr().err


def test_dag_check_missing_file(capsys):
    assert main(["dag", "check", "/nonexistent.dag"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_dag_paths_lists_status_and_kind(dag_file, capsys):
    code = main(
        [
            "dag", "paths", dag_file,
            "--from", fixtures.CHILDCARE,
            "--to", fixtures.CONDUCT_SCHOOL,
            "--given", fixtures.CONDUCT_ENTRY,
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert any(line.startswith("OPEN") for line in lines)
    assert any(line.startswith("CLOSED") for line in lines)
    assert any("back-door" in line for line in lines)
    assert any("causal" in line for line in lines)


def test_dag_paths_no_paths(tmp_path, capsys):
    path = tmp_path / "pair.dag"
    path.write_text("node A\nnode B\n")
    assert main(["dag", "paths", str(path), "--from", "A", "--to", "B"]) == EXIT_OK
    assert "no paths" in capsys.readouterr().out


def test_dag_paths_same_endpoints_exit_code(tmp_path, capsys):
    path = tmp_path / "pair.dag"
    path.write_text("edge A B\n")
    assert main(["dag", "paths", str(path), "--from", "A", "--to", "A"]) == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize("target", ["b", "c"])
def test_dag_paths_given_endpoint_exit_code(tmp_path, capsys, target):
    # Rejected up front with or without a path to list: a to b has none,
    # a to c has one.
    path = tmp_path / "three.dag"
    path.write_text("node a\nnode b\nnode c\nedge a c\n")
    argv = ["dag", "paths", str(path), "--from", "a", "--to", target, "--given", "a"]
    assert main(argv) == EXIT_USAGE
    error = "error: path endpoint 'a' may not be conditioned on\n"
    assert capsys.readouterr() == ("", error)


def test_dag_paths_on_a_chain_longer_than_the_recursion_limit(tmp_path, capsys):
    # 1,201 nodes in one path; a recursive walk would need 1,200 frames.
    path = tmp_path / "chain.dag"
    path.write_text("".join(f"edge n{i} n{i + 1}\n" for i in range(1200)))
    assert main(["dag", "paths", str(path), "--from", "n0", "--to", "n1200"]) == EXIT_OK
    chain = " -> ".join(f"n{i}" for i in range(1201))
    assert capsys.readouterr() == (f"OPEN   causal    {chain}\n", "")


def _reference_paths(dag, x, y):
    # Every simple path from x to y as (nodes, arrows), walked with fresh
    # lists at each step and sorted by node sequence.
    found = []

    def walk(trail, arrows):
        for p, c in dag.edges:
            if trail[-1] not in (p, c):
                continue
            nxt, arrow = (c, " -> ") if p == trail[-1] else (p, " <- ")
            if nxt == y:
                found.append((trail + [y], arrows + [arrow]))
            elif nxt not in trail:
                walk(trail + [nxt], arrows + [arrow])

    walk([x], [])
    return sorted(found)


def _reference_listing(dag, x, y, given):
    # The dag paths text by the path rule: a collider is open iff it or one
    # of its descendants is given, any other interior node iff it is not.
    lines = []
    for nodes, arrows in _reference_paths(dag, x, y):
        is_open = True
        for i in range(1, len(nodes) - 1):
            if (arrows[i - 1], arrows[i]) == (" -> ", " <- "):
                is_open &= nodes[i] in given or bool(dag.descendants(nodes[i]) & given)
            else:
                is_open &= nodes[i] not in given
        kind = ("back-door" if arrows[0] == " <- " else
                "causal" if set(arrows) == {" -> "} else "non-causal")
        text = nodes[0] + "".join(a + n for a, n in zip(arrows, nodes[1:]))
        lines.append(f"{'OPEN' if is_open else 'CLOSED':6s} {kind:9s} {text}\n")
    return "".join(lines) or "no paths\n"


@st.composite
def _path_queries(draw):
    # 2 to 7 nodes with names in no particular order, declared in a random
    # order, each pair joined by an edge pointing later in the draw or not,
    # two endpoints and a given set: empty, any set of the other nodes, or
    # one strict descendant of a collider (a node with two parents).
    name = st.text(alphabet="aBz_9", min_size=1, max_size=3)
    names = draw(st.lists(name, min_size=2, max_size=7, unique=True))
    edges = [(a, b) for i, a in enumerate(names) for b in names[i + 1:]
             if draw(st.booleans())]
    text = "".join(f"node {n}\n" for n in draw(st.permutations(names))) + "".join(
        f"edge {p} {c}\n" for p, c in edges
    )
    x, y = draw(st.permutations(names).map(lambda p: (p[0], p[1])))
    rest = [n for n in names if n not in (x, y)]
    dag = parse_dag_text(text)
    below_colliders = sorted(
        {d for n in names if len(dag.parents(n)) > 1 for d in dag.descendants(n)}
        & set(rest)
    )
    given = draw(st.one_of(
        st.just([]),
        st.lists(st.sampled_from(rest), unique=True) if rest else st.just([]),
        st.sampled_from(below_colliders).map(lambda d: [d]) if below_colliders
        else st.just([]),
    ))
    return text, x, y, given


@settings(max_examples=150, deadline=None)
@given(_path_queries())
def test_dag_paths_matches_reference_listing(query):
    text, x, y, given = query
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "random.dag"
        path.write_text(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            argv = ["dag", "paths", str(path), "--from", x, "--to", y]
            assert main(argv + (["--given", *given] if given else [])) == EXIT_OK
    dag = parse_dag_text(text)
    assert out.getvalue() == _reference_listing(dag, x, y, frozenset(given))


def test_dag_adjust_uses_file_roles(dag_file, capsys):
    assert main(["dag", "adjust", dag_file]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "{conduct_entry}"


def test_dag_adjust_with_forced_selection(dag_file, capsys):
    code = main(["dag", "adjust", dag_file, "--forced", fixtures.PLAYGROUP])
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "{conduct_entry, parent_education}"


def test_dag_adjust_no_valid_set(tmp_path, capsys):
    path = tmp_path / "latent.dag"
    path.write_text(
        "latent U\ntreatment A\noutcome B\nedge U A\nedge U B\nedge A B\n"
    )
    assert main(["dag", "adjust", str(path)]) == EXIT_ANALYSIS
    assert "no valid adjustment set" in capsys.readouterr().out


def test_dag_adjust_requires_roles(tmp_path, capsys):
    path = tmp_path / "bare.dag"
    path.write_text("edge A B\n")
    assert main(["dag", "adjust", str(path)]) == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: treatment/outcome not given and not annotated in the file\n")


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "query",
    [
        ["--treatment", "A", "--outcome", "B", "--forced", "A"],
        ["--treatment", "A", "--outcome", "B", "--forced", "B"],
        ["--treatment", "A", "--outcome", "A"],
        # Nodes the file lacks.
        ["--treatment", "nope", "--outcome", "B"],
        ["--treatment", "A", "--outcome", "B", "--forced", "nope"],
    ],
)
def test_dag_adjust_bad_query_exit_code(tmp_path, capsys, query):
    path = tmp_path / "pair.dag"
    path.write_text("edge A B\n")
    assert main(["dag", "adjust", str(path), *query]) == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "query",
    [["--from", "nope", "--to", "B"], ["--from", "A", "--to", "nope"],
     ["--from", "A", "--to", "B", "--given", "nope"]],
)
def test_dag_paths_unknown_node_exit_code(tmp_path, capsys, query):
    path = tmp_path / "pair.dag"
    path.write_text("edge A B\n")
    assert main(["dag", "paths", str(path), *query]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "'nope'" in err


@pytest.mark.parametrize(
    "name, text, command",
    [
        ("x.dag", b"edge A B\n\xff\n", ["dag", "check", "{}"]),
        ("x.csv", b"t,y\n1,0\n\xfe,1\n",
         ["estimate", "--data", "{}", "--method", "unadjusted", "--treatment", "t",
          "--outcome", "y"]),
        ("x.json", b'{"nodes": [], "sample_size": 1, "seed": 1, "label": "\xc3"}',
         ["oracle", "--scenario", "{}"]),
    ],
)
def test_non_utf8_input_exit_code(tmp_path, capsys, name, text, command):
    path = tmp_path / name
    path.write_bytes(text)
    assert main([arg.format(path) for arg in command]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "UTF-8" in err


def test_directory_given_as_file_exit_code(tmp_path, capsys):
    assert main(["dag", "check", str(tmp_path)]) == EXIT_USAGE
    assert _one_line_error(capsys)


ESTIMATE_T_Y = ["--method", "unadjusted", "--treatment", "t", "--outcome", "y"]


def test_estimate_reports_a_bad_byte_at_its_offset_in_the_file(tmp_path, capsys, monkeypatch):
    # The file is read a block at a time; the offset is the file's, as a
    # whole-file decode gives it.
    path = tmp_path / "x.csv"
    path.write_bytes(b"t,y\n" + b"1,0\n0,1\n" * 500 + b"1,\xc3\n")
    monkeypatch.setattr(scm, "CSV_BLOCK_CHARS", 64)
    assert main(["estimate", "--data", str(path), *ESTIMATE_T_Y]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {path}: not UTF-8 text (byte 4006)\n"
    with pytest.raises(UnicodeDecodeError, match="position 4006"):
        path.read_text(encoding="utf-8")


@pytest.mark.parametrize("make", [lambda p: p.write_bytes(b""), lambda p: p.mkdir()])
def test_estimate_empty_file_or_directory_exit_code(tmp_path, capsys, make):
    path = tmp_path / "x.csv"
    make(path)
    assert main(["estimate", "--data", str(path), *ESTIMATE_T_Y]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_estimate_ignores_a_byte_order_mark(tmp_path, capsys):
    # Excel starts a UTF-8 CSV file with the mark U+FEFF; it is not part of
    # the first column's name.
    text = "t,y\r\n" + "1,0\r\n0,1\r\n1,1\r\n0,0\r\n1,1\r\n" * 20
    outputs = []
    for name, data in [("plain.csv", text.encode()), ("bom.csv", b"\xef\xbb\xbf" + text.encode())]:
        path = tmp_path / name
        path.write_bytes(data)
        argv = ["estimate", "--data", str(path), *ESTIMATE_T_Y, "--format", "json"]
        assert main(argv) == EXIT_OK
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


def test_estimate_reads_every_line_end_convention_alike(tmp_path, capsys, monkeypatch):
    # One file with LF, CRLF, bare-CR and BOM+CRLF line ends, mapped and
    # read in blocks of a few lines, so that blocks are cut at a \n, at a
    # bare \r and never inside a \r\n: the output is the same.
    text = "t,y\n" + '1,0\n"0",1\n1,1\n0,0\n1,1\n' * 20
    crlf = text.replace("\n", "\r\n").encode()
    forms = {"lf": text.encode(), "crlf": crlf, "cr": text.replace("\n", "\r").encode(),
             "bom_crlf": b"\xef\xbb\xbf" + crlf}
    cuts = []
    block_bytes = scm._block_bytes
    monkeypatch.setattr(scm, "_block_bytes",
                        lambda data, start, stop: cuts.append(data[stop - 1:stop])
                        or block_bytes(data, start, stop))
    monkeypatch.setattr(scm, "CSV_BLOCK_CHARS", 13)
    outputs = {}
    for name, data in forms.items():
        path = tmp_path / f"{name}.csv"
        path.write_bytes(data)
        cuts.clear()
        argv = ["estimate", "--data", str(path), *ESTIMATE_T_Y, "--format", "json"]
        assert main(argv) == EXIT_OK
        outputs[name] = capsys.readouterr()
        assert len(cuts) > 20 and set(cuts) == ({b"\r"} if name == "cr" else {b"\n"})
    assert len(set(outputs.values())) == 1


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_estimate_reads_a_pipe(scenario_file, tmp_path):
    # A pipe cannot be mapped, so its bytes are read whole; the estimate is
    # the file's.
    data = tmp_path / "d.csv"
    cli = [sys.executable, "-m", "causalkit.cli"]
    env = {**os.environ, "PYTHONPATH": str(Path(scm.__file__).parents[1])}
    estimate = ["estimate", "--method", "outcome_regression", "--treatment", "A",
                "--outcome", "B", "--adjust", "C", "--format", "json"]

    def run(args, **kwargs):
        return subprocess.run([*cli, *args], env=env, check=True, stdout=subprocess.PIPE,
                              **kwargs).stdout

    run(["simulate", "--scenario", scenario_file, "--out", str(data)])
    simulate = subprocess.Popen([*cli, "simulate", "--scenario", scenario_file], env=env,
                                stdout=subprocess.PIPE)
    piped = run([*estimate, "--data", "/dev/stdin"], stdin=simulate.stdout)
    simulate.stdout.close()
    assert simulate.wait() == 0
    assert piped == run([*estimate, "--data", str(data)])
    assert json.loads(piped)["rows"][0]["risk_ratio"] > 0


def _estimate_peak(tmp_path, n, form):
    scenario = str(resources.files("causalkit") / "data" / "case_study.json")
    data = tmp_path / f"{n}.csv"
    assert main(["simulate", "--scenario", scenario, "--n", str(n), "--out", str(data)]) == EXIT_OK
    if form == "quoted":
        data.write_bytes(quote_first_cells(data.read_bytes()))
    argv = ["estimate", "--data", str(data), "--method", "unadjusted", "--treatment", "childcare",
            "--outcome", "conduct_school"]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.budget
@pytest.mark.parametrize("form", ["grid", "quoted"])
def test_estimate_peak_memory_does_not_grow_with_the_file(tmp_path, capsys, form):
    # estimate reads its file through a map, one block at a time, so four
    # times the lines take no more memory: as simulate writes them, read as
    # grids, and with quoted first cells, which the general reader takes.
    small = _estimate_peak(tmp_path, 2**18, form)
    large = _estimate_peak(tmp_path, 2**20, form)
    assert large <= 1.25 * small


# ---------------------------------------------------------------------------
# simulate / estimate / oracle


def test_simulate_writes_csv(scenario_file, tmp_path, capsys):
    out = tmp_path / "data.csv"
    code = main(["simulate", "--scenario", scenario_file, "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert text.splitlines()[0] == "C,A,B"
    assert len(text.splitlines()) == 2_001
    # Matches the library draw exactly.
    assert text == scenario_rows(parse_scenario(json.dumps(_small_obj()))).to_csv()


def test_simulate_stdout_and_n_override(scenario_file, capsys):
    code = main(["simulate", "--scenario", scenario_file, "--n", "5"])
    assert code == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 6


def test_seed_precedence_flag_env_file(scenario_file, tmp_path, monkeypatch, capsys):
    def draw(argv):
        main(["simulate", "--scenario", scenario_file, "--n", "50", *argv])
        return capsys.readouterr().out

    file_seed = draw([])
    monkeypatch.setenv("CAUSALKIT_SEED", "7")
    env_seed = draw([])
    flag_seed = draw(["--seed", "11"])
    monkeypatch.delenv("CAUSALKIT_SEED")
    assert env_seed != file_seed
    assert flag_seed != env_seed
    assert draw(["--seed", "42"]) == file_seed


def test_bad_seed_environment_exit_code(scenario_file, monkeypatch, capsys):
    monkeypatch.setenv("CAUSALKIT_SEED", "x")
    code = main(["simulate", "--scenario", scenario_file, "--n", "5"])
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)


def test_estimate_from_csv(scenario_file, tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", scenario_file, "--out", str(data)])
    capsys.readouterr()
    code = main(
        [
            "estimate", "--data", str(data),
            "--method", "outcome_regression",
            "--treatment", "A", "--outcome", "B", "--adjust", "C",
            "--format", "json",
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    row = payload["rows"][0]
    assert row["adjustment"] == ["C"]
    assert row["risk_ratio"] > 0


def test_estimate_bootstrap_methods(scenario_file, tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", scenario_file, "--out", str(data)])
    capsys.readouterr()
    code = main(
        [
            "estimate", "--data", str(data),
            "--method", "g_computation",
            "--treatment", "A", "--outcome", "B", "--adjust", "C",
            "--replicates", "40", "--bootstrap-seed", "3",
        ]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "G-computation" in out and "(" in out


def test_estimate_analysis_failure_exit_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("t,y\n1,0\n1,1\n1,0\n")  # no control arm
    code = main(
        [
            "estimate", "--data", str(data),
            "--method", "unadjusted", "--treatment", "t", "--outcome", "y",
        ]
    )
    assert code == EXIT_ANALYSIS
    assert "error" in capsys.readouterr().err


def test_estimate_poisson_means_past_the_largest_float_exit_code(tmp_path, capsys):
    # The a = 0 arm has no events, so the poisson fit has no finite maximum,
    # and its second step takes the a = 1 mean to exp(761).  The overflow
    # once reached stderr as a warning ahead of the error line.  The
    # coefficients at the overflow are (-7.65, 769.0), past the separation
    # bound, so the error names the diverging term, not the weights.
    data = tmp_path / "d.csv"
    data.write_text("a,y,__weight\n0,0,12\n1,1,0.015625\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr
        code = main(["estimate", "--data", str(data), "--method", "outcome_regression",
                     "--family", "poisson", "--treatment", "a", "--outcome", "y"])
    assert code == EXIT_ANALYSIS
    assert capsys.readouterr().err == (
        "error: coefficient for 'a' diverged to 769.0; data may be separable\n"
    )


def test_estimate_bad_csv_exit_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("t,y\n1,2\n")
    code = main(
        [
            "estimate", "--data", str(data),
            "--method", "unadjusted", "--treatment", "t", "--outcome", "y",
        ]
    )
    assert code == EXIT_USAGE


def test_estimate_weight_column_not_last_exit_code(tmp_path, capsys):
    # Read as a data column, __weight would give a counts table whose CSV
    # names it twice.
    data = tmp_path / "d.csv"
    data.write_text("t,__weight,y\n1,1,0\n0,1,1\n")
    code = main(["estimate", "--data", str(data), "--method", "unadjusted",
                 "--treatment", "t", "--outcome", "y"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: row 1, column '__weight': the weight column must be the last column\n"
    )


def test_estimate_bad_weight_exit_code(tmp_path, capsys):
    data = tmp_path / "d.csv"
    data.write_text("t,y,__weight\n1,0,1\n0,1,nan\n")
    code = main(
        [
            "estimate", "--data", str(data),
            "--method", "unadjusted", "--treatment", "t", "--outcome", "y",
        ]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


BIG_CELL = "x" * 131_073  # one past the csv module's field size limit


@pytest.mark.parametrize("text, row", [
    (f"t,{BIG_CELL}\n1,0\n", 1),
    (f"t,y\n1,{BIG_CELL}\n", 2),
    (f"t,y,__weight\n1,0,{BIG_CELL}\n", 2),
], ids=["header", "unweighted line", "weight"])
def test_estimate_cell_over_the_csv_field_limit_exit_code(tmp_path, capsys, text, row):
    data = tmp_path / "d.csv"
    data.write_text(text)
    code = main(["estimate", "--data", str(data), "--method", "unadjusted",
                 "--treatment", "t", "--outcome", "y"])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: row {row}, column '': field larger than field limit (131072)\n"
    )


@pytest.mark.parametrize("method", ["g_computation", "ipw"])
def test_estimate_bootstrap_on_probability_weights_exit_code(tmp_path, capsys, method):
    data = tmp_path / "population.csv"
    data.write_text(enumerate_population(fixtures.confounder_model()).to_csv())
    code = main(
        [
            "estimate", "--data", str(data), "--method", method,
            "--treatment", "A", "--outcome", "B", "--adjust", "C",
            "--replicates", "40",
        ]
    )
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize("method", ["unadjusted", "outcome_regression"])
def test_estimate_reports_no_wald_interval_on_probability_weights(tmp_path, capsys, method):
    data = tmp_path / "population.csv"
    data.write_text(enumerate_population(fixtures.confounder_model()).to_csv())
    argv = ["estimate", "--data", str(data), "--method", method,
            "--treatment", "A", "--outcome", "B", "--format"]
    assert main([*argv, "json"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert row["ci"] is None and row["ci_method"] == "none"
    assert row["risk_ratio"] == pytest.approx(5 / 3, abs=1e-9)
    assert main([*argv, "csv"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].endswith(",nan,nan")
    assert main([*argv, "text"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].endswith("1.6667      -")


@pytest.mark.parametrize("method", ["unadjusted", "outcome_regression"])
@pytest.mark.parametrize(
    "text, printed",
    [
        ("a,y,__weight\n0,0,100\n0,1,2\n1,0,1\n1,1,300000000\n",
         "51.0000 (12.9303, 201.1548)"),
        ("a,y,__weight\n0,0,1000\n0,1,10\n1,0,1\n1,1,1000000000\n",
         "101.0000 (54.5109, 187.1367)"),
    ],
    ids=["3e8", "1e9"],
)
def test_estimate_wald_interval_on_ill_conditioned_weights(tmp_path, capsys, text, printed, method):
    # Both fits are the saturated crude log-binomial, whose inverse information
    # is Katz's closed form, se^2 = 1/a - 1/n1 + 1/c - 1/n0 on the arms' event
    # counts a, c and totals n1, n0.  Inverting X'WX, which squares the
    # design's condition number, gives (31.2442, 83.2474) for the first table
    # and refuses the second as rank deficient.
    data = tmp_path / "d.csv"
    data.write_text(text)
    code = main(["estimate", "--data", str(data), "--method", method,
                 "--treatment", "a", "--outcome", "y"])
    assert code == EXIT_OK
    assert " ".join(capsys.readouterr().out.splitlines()[1].split()[-3:]) == printed


def test_estimate_wald_interval_past_the_largest_float_exit_code(tmp_path, capsys):
    # No finite maximum: the (A, C) = (1, 0) cell has risk 0 and the other
    # two risk 1, so the log-binomial fit stalls with a standard error of A
    # in the thousands, and exp of the interval's upper end overflows.
    data = tmp_path / "d.csv"
    data.write_text("C,A,B\n0,1,0\n1,1,1\n1,1,1\n0,0,1\n0,0,1\n1,1,1\n")
    code = main(["estimate", "--data", str(data), "--method", "outcome_regression",
                 "--treatment", "A", "--outcome", "B", "--adjust", "C"])
    assert code == EXIT_ANALYSIS
    err = capsys.readouterr().err
    assert err.startswith("error: the Wald interval for 'A' overflows") and err.count("\n") == 1


def _huge_weight_csv(weight):
    return f"A,B,__weight\n0,0,3\n0,1,{weight}\n1,0,6.0\n1,1,2.0\n"


_HUGE_WEIGHT_C = (
    "C,A,B,__weight\n0,0,0,3\n0,0,1,1e308\n0,1,0,6.0\n0,1,1,2.0\n"
    "1,0,0,5\n1,0,1,2\n1,1,0,1\n1,1,1,4\n"
)

# Weights 9, 9, 1, 1, 9, 9, 1, 1 times 2e306: a total near the largest float.
_NEAR_MAX_WEIGHT_C = (
    "C,A,B,__weight\n0,0,0,1.8e307\n0,0,1,1.8e307\n0,1,0,2e306\n0,1,1,2e306\n"
    "1,0,0,1.8e307\n1,0,1,1.8e307\n1,1,0,2e306\n1,1,1,2e306\n"
)

_INFORMATION_OVERFLOW = "A,B,__weight\n0,0,3e304\n0,1,2e298\n1,0,1\n1,1,8e298\n"
_MAX_SUM_WEIGHT = "A,B,__weight\n0,0,8e307\n0,1,8e307\n1,0,8e307\n1,1,1\n"
_MAX_CELL_WEIGHT = "A,B,__weight\n0,0,4e307\n0,1,4e307\n1,0,4e307\n1,1,4e307\n"


@pytest.mark.parametrize(
    "text, args",
    [
        # Working weights overflow in the IRLS fit.
        (_huge_weight_csv("1e300"), ["--method", "unadjusted"]),
        (_huge_weight_csv("1e300"), ["--method", "outcome_regression"]),
        (_huge_weight_csv("1e300"), ["--method", "ipw", "--replicates", "40"]),
        # Information weights overflow at the solution, after the last step.
        (_INFORMATION_OVERFLOW, ["--method", "unadjusted"]),
        (_INFORMATION_OVERFLOW, ["--method", "outcome_regression"]),
        # A total past 2^53 is no sample size to resample.
        (_huge_weight_csv("1e19"), ["--method", "ipw", "--replicates", "40"]),
        # The crude fit crosses the mean ceiling and disagrees with the arm means.
        (_huge_weight_csv("1e14"), ["--method", "unadjusted"]),
        (_huge_weight_csv("4e10"), ["--method", "unadjusted"]),
        (_HUGE_WEIGHT_C, ["--method", "unadjusted"]),
        (_HUGE_WEIGHT_C, ["--method", "outcome_regression", "--adjust", "C"]),
        (_HUGE_WEIGHT_C, ["--method", "ipw", "--adjust", "C", "--replicates", "40"]),
        # The propensity fit's deviance once overflowed here, with a warning.
        (_NEAR_MAX_WEIGHT_C, ["--method", "ipw", "--adjust", "C", "--replicates", "40"]),
        # The weights' sum overflows while the CSV is read.
        (_MAX_SUM_WEIGHT, ["--method", "unadjusted"]),
        # The deviance overflows in every IRLS step, so the fit never converges.
        (_MAX_CELL_WEIGHT, ["--method", "unadjusted"]),
        (_MAX_CELL_WEIGHT, ["--method", "outcome_regression"]),
        (_MAX_CELL_WEIGHT, ["--method", "g_computation"]),
    ],
    ids=["1e300-unadjusted", "1e300-outcome_regression", "1e300-ipw",
         "information-unadjusted", "information-outcome_regression", "1e19-ipw",
         "1e14-unadjusted", "4e10-unadjusted", "C-1e308-unadjusted",
         "C-1e308-outcome_regression", "C-1e308-ipw", "C-2e306-ipw",
         "8e307-sum-unadjusted", "4e307-unadjusted", "4e307-outcome_regression",
         "4e307-g_computation"],
)
def test_estimate_huge_weights_exit_code(tmp_path, capsys, text, args):
    data = tmp_path / "huge.csv"
    data.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr
        code = main(["estimate", "--data", str(data), "--treatment", "A",
                     "--outcome", "B", *args])
    assert code in (EXIT_ANALYSIS, EXIT_USAGE)
    assert _one_line_error(capsys)


@pytest.mark.parametrize("weight", ["4e10", "1e14"])
def test_estimate_ipw_on_huge_weights_prints_the_crude_ratio(tmp_path, capsys, weight):
    # Without adjusters IPW is the ratio of the arm means, 2/8 over W/(W + 3).
    data = tmp_path / "huge.csv"
    data.write_text(_huge_weight_csv(weight))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach stderr
        code = main(["estimate", "--data", str(data), "--treatment", "A",
                     "--outcome", "B", "--method", "ipw"])
    assert code == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].split()[2] == "0.2500"


def test_simulate_negative_row_count_exit_code(scenario_file, capsys):
    assert main(["simulate", "--scenario", scenario_file, "--n", "-3"]) == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize(
    "roles",
    [
        ["--method", "outcome_regression", "--treatment", "A", "--outcome", "A"],
        ["--method", "outcome_regression", "--treatment", "A", "--outcome", "B",
         "--adjust", "B"],
        ["--method", "outcome_regression", "--treatment", "A", "--outcome", "B",
         "--adjust", "C", "C"],
        # Options the method does not take.
        ["--method", "unadjusted", "--treatment", "A", "--outcome", "B", "--adjust", "C"],
        ["--method", "outcome_regression", "--treatment", "A", "--outcome", "B",
         "--interactions"],
        ["--method", "ipw", "--treatment", "A", "--outcome", "B", "--family", "poisson"],
        ["--method", "ipw", "--treatment", "A", "--outcome", "B", "--replicates", "0"],
        ["--method", "unadjusted", "--treatment", "A", "--outcome", "B", "--replicates", "50"],
        # Columns the CSV lacks.
        ["--method", "unadjusted", "--treatment", "nope", "--outcome", "B"],
        ["--method", "unadjusted", "--treatment", "A", "--outcome", "nope"],
        ["--method", "outcome_regression", "--treatment", "A", "--outcome", "B",
         "--adjust", "nope"],
    ],
)
def test_estimate_broken_analysis_exit_code(scenario_file, tmp_path, capsys, roles):
    data = tmp_path / "d.csv"
    main(["simulate", "--scenario", scenario_file, "--n", "50", "--out", str(data)])
    capsys.readouterr()
    code = main(["estimate", "--data", str(data), *roles])
    assert code == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_simulate_huge_sample_size_fails_on_the_output(tmp_path, capsys):
    # simulate holds one block, not 10^15 rows: nothing is allocated for
    # the whole sample, and the first block written to a full device fails.
    obj = _small_obj()
    obj["sample_size"] = 10**15
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(path), "--out", "/dev/full"]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_oracle_adjusting_for_the_outcome_exit_code(tmp_path, capsys):
    obj = _small_obj()
    obj["analyses"][0].update(method="outcome_regression", adjust=["B"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["oracle", "--scenario", str(path)]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_simulate_file_matches_recorded_digest(tmp_path, capsys):
    # sha256 recorded with the row-by-row csv.writer that to_csv replaced.
    scenario = str(resources.files("causalkit") / "data" / "case_study.json")
    out = tmp_path / "data.csv"
    argv = ["simulate", "--scenario", scenario, "--n", "10000", "--seed", "1"]
    assert main([*argv, "--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == CASE_STUDY_10K_SEED1_SHA256


@pytest.mark.parametrize("block", [1, 7, 256, scm.SAMPLE_BLOCK_ROWS])
@pytest.mark.parametrize("n", [0, 1, 999, 2_000])
@pytest.mark.parametrize("selection", [None, scm.SelectionRule("C", 1)])
def test_simulate_streams_the_library_text(tmp_path, capsys, monkeypatch, block, n, selection):
    # simulate writes each sampling block as it is drawn; the file and
    # stdout are the text of the whole selected sample, byte for byte, and
    # the message counts the rows kept after selection.
    obj = dict(_small_obj(), sample_size=n)
    if selection is not None:
        obj["selection"] = {"node": selection.node, "value": selection.value}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    scenario = parse_scenario(path.read_text())
    monkeypatch.setattr(scm, "SAMPLE_BLOCK_ROWS", block)
    expected = scenario_rows(scenario)
    out = tmp_path / "data.csv"
    assert main(["simulate", "--scenario", str(path), "--out", str(out)]) == EXIT_OK
    assert out.read_text() == expected.to_csv()
    assert capsys.readouterr().out == f"wrote {expected.n} rows to {out}\n"
    assert main(["simulate", "--scenario", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == expected.to_csv()
    if selection is not None and n > 1:
        assert 0 < expected.n < n


def _simulate_peak(tmp_path, n):
    scenario = str(resources.files("causalkit") / "data" / "case_study.json")
    argv = ["simulate", "--scenario", scenario, "--n", str(n), "--out",
            str(tmp_path / f"{n}.csv")]
    tracemalloc.start()
    try:
        assert main(argv) == EXIT_OK
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.budget
def test_simulate_peak_memory_does_not_grow_with_the_sample(tmp_path, capsys):
    # One sampling block is drawn, formatted and written at a time, so four
    # times the rows take no more memory.
    small = _simulate_peak(tmp_path, 2**18)
    large = _simulate_peak(tmp_path, 2**20)
    assert large <= 1.25 * small


def test_oracle_reports_population_values(scenario_file, capsys):
    code = main(["oracle", "--scenario", scenario_file, "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["method"] == "unadjusted"
    assert payload[0]["risk_ratio"] == pytest.approx(5 / 3, abs=1e-10)


# Ways to break the small scenario's nodes (C, A <- C, B <- C).
MODEL_FAULTS = {
    "intercept above one": lambda nodes: nodes[0].update(intercept=1.5),
    "intercept NaN": lambda nodes: nodes[0].update(intercept=float("nan")),
    "coefficient past one": lambda nodes: nodes[1].update(parents={"C": 0.9}),
    "unknown parent": lambda nodes: nodes[1].update(parents={"Z": 0.1}),
    "parent after child": lambda nodes: nodes.insert(0, nodes.pop(1)),
    "duplicate name": lambda nodes: nodes[2].update(name="A"),
    # simulate would write it as the CSV header's last name, which estimate
    # reads as row weights.
    "weight column name": lambda nodes: nodes.append({"name": scm.WEIGHT_COLUMN,
                                                      "intercept": 0.5}),
}


@pytest.mark.parametrize("command", ["oracle", "simulate"])
@pytest.mark.parametrize("fault", list(MODEL_FAULTS))
def test_malformed_model_in_scenario_file_exit_code(tmp_path, capsys, command, fault):
    obj = _small_obj()
    MODEL_FAULTS[fault](obj["nodes"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--scenario", str(path)]) == EXIT_USAGE
    assert _one_line_error(capsys)


@pytest.mark.parametrize("where", ["intercept", "coefficient"])
def test_number_too_large_for_a_float_exit_code(tmp_path, capsys, where):
    # 10**400 is a JSON number (an integer) that no float holds.
    obj = json.loads((resources.files("causalkit") / "data" / "case_study.json").read_text())
    if where == "intercept":
        node = obj["nodes"][0]
        node["intercept"] = 10**400
    else:
        node = obj["nodes"][2]
        node["parents"]["parent_education"] = 10**400
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(path), "--n", "2"]) == EXIT_USAGE
    error = f"error: node {node['name']!r}: a number too large for a float\n"
    assert capsys.readouterr() == ("", error)


@pytest.mark.parametrize("intercept, coefficient", [(0, 1), (1, -1)])
def test_integer_coefficient_simulates_as_its_float(tmp_path, capsys, intercept, coefficient):
    # A JSON integer is held as a float, so it samples as that float does;
    # as a Python int, a negative one times the uint8 parent values would
    # not fit a uint8.
    outputs = []
    for number in (coefficient, float(coefficient)):
        obj = {"nodes": [{"name": "C", "intercept": 0.5},
                         {"name": "A", "intercept": intercept, "parents": {"C": number}},
                         {"name": "B", "intercept": 0.25, "parents": {"A": 0.5}}],
               "sample_size": 1_000, "seed": 5}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(obj))
        parents = parse_scenario(path.read_text()).model.equations[1].parents
        assert parents == (("C", coefficient),) and type(parents[0][1]) is float
        assert main(["simulate", "--scenario", str(path)]) == EXIT_OK
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]


def test_oracle_over_the_width_limit_exit_code(tmp_path, capsys, monkeypatch):
    # Y's table spans Y and its three parents, one node past a limit of 3.
    obj = {"nodes": [*({"name": n, "intercept": 0.5} for n in "ABC"),
                     {"name": "Y", "intercept": 0.1, "parents": {"A": 0.2, "B": 0.2, "C": 0.2}}],
           "sample_size": 100, "seed": 1,
           "analyses": [{"method": "unadjusted", "treatment": "A", "outcome": "Y"}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    monkeypatch.setattr(scm, "ENUMERATION_NODE_LIMIT", 3)
    assert main(["oracle", "--scenario", str(path)]) == EXIT_ANALYSIS
    assert _one_line_error(capsys)


def test_scenario_with_a_40_parent_node(tmp_path, capsys):
    # Building the model checks Y's 2^40 parent configurations without
    # visiting them, so simulate runs; the oracle's table of Y spans 41 nodes.
    parents = [f"p{i:02d}" for i in range(40)]
    obj = {"nodes": [*({"name": n, "intercept": 0.5} for n in parents),
                     {"name": "Y", "intercept": 0.1, "parents": dict.fromkeys(parents, 0.02)}],
           "sample_size": 100, "seed": 1,
           "analyses": [{"method": "unadjusted", "treatment": "p00", "outcome": "Y"}]}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(path), "--n", "1000"]) == EXIT_OK
    assert capsys.readouterr().out.count("\n") == 1001
    assert main(["oracle", "--scenario", str(path)]) == EXIT_ANALYSIS
    err = capsys.readouterr().err
    assert "elimination step over 41 nodes" in err
    assert err.startswith("error: ") and err.count("\n") == 1


def _perfbench_workloads():
    """The benchmark's input generators, ``perfbench/workloads.py``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", PERFBENCH / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules.
    sys.modules.setdefault(spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_oracle_matches_benchmark_digests(tmp_path, capsys):
    # The oracle text of the benchmark's random 20-node models, seeds 0-15,
    # is pinned byte for byte in perfbench/digests.json.
    workloads = _perfbench_workloads()
    pinned = json.loads((PERFBENCH / "digests.json").read_text())["oracle_k20"]
    for seed in range(16):
        path = tmp_path / f"scm_{seed}.json"
        path.write_text(json.dumps(workloads.random_scm(seed)))
        assert main(["oracle", "--scenario", str(path)]) == EXIT_OK
        text = capsys.readouterr().out
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == pinned[str(seed)], seed


def test_usage_errors_exit_with_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["estimate", "--method", "banana"])
    assert exc_info.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate"])
    assert exc_info.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# reproduce


def test_reproduce_single_table(capsys, tmp_path):
    out = tmp_path / "report.txt"
    code = main(["reproduce", "table6", "--out", str(out)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "ALL PASS" in printed
    assert "[PASS]" in out.read_text()


def test_reproduce_rejects_unknown_target():
    with pytest.raises(SystemExit) as exc_info:
        main(["reproduce", "table99"])
    assert exc_info.value.code == EXIT_USAGE


def test_importing_the_cli_builds_no_model():
    # The reproduction table holds each target's model builder; a model is
    # built only when a target's scenario is asked for.
    code = textwrap.dedent("""
        import sys
        built = []

        def profile(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "__post_init__"
                    and type(frame.f_locals.get("self")).__name__ == "StructuralModel"):
                built.append(frame)

        sys.setprofile(profile)
        import causalkit.cli
        from causalkit.scenario import builtin_scenario
        before = len(built)
        builtin_scenario("table6")
        sys.setprofile(None)
        print(before, len(built) - before)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(scm.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    assert out.split() == ["0", "1"]
