import hashlib
import importlib.util
import json
import sys
import warnings
from importlib import resources
from pathlib import Path

import pytest

from causalkit import fixtures, scm
from causalkit.cli import EXIT_ANALYSIS, EXIT_OK, EXIT_USAGE, main
from causalkit.scenario import (
    Analysis,
    Scenario,
    scenario_dataset,
    scenario_to_dict,
)
from causalkit.scm import NodeEquation, StructuralModel, enumerate_population

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


def _small_scenario():
    return Scenario(
        model=fixtures.confounder_model(),
        sample_size=2_000,
        seed=42,
        analyses=(Analysis("unadjusted", "A", "B"),),
    )


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(_small_scenario())))
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
    assert text == scenario_dataset(_small_scenario()).to_csv()


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


@pytest.mark.parametrize(
    "text, args",
    [
        # Working weights overflow in the IRLS fit.
        (_huge_weight_csv("1e300"), ["--method", "unadjusted"]),
        (_huge_weight_csv("1e300"), ["--method", "outcome_regression"]),
        (_huge_weight_csv("1e300"), ["--method", "ipw", "--replicates", "40"]),
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
    ],
    ids=["1e300-unadjusted", "1e300-outcome_regression", "1e300-ipw", "1e19-ipw",
         "1e14-unadjusted", "4e10-unadjusted", "C-1e308-unadjusted",
         "C-1e308-outcome_regression", "C-1e308-ipw", "C-2e306-ipw"],
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


def test_simulate_unallocatable_sample_size_exit_code(tmp_path, capsys):
    # 10^15 rows cannot be allocated; the first array fails at once.
    obj = scenario_to_dict(_small_scenario())
    obj["sample_size"] = 10**15
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main(["simulate", "--scenario", str(path)]) == EXIT_ANALYSIS
    assert _one_line_error(capsys)


def test_oracle_adjusting_for_the_outcome_exit_code(tmp_path, capsys):
    obj = scenario_to_dict(_small_scenario())
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
}


@pytest.mark.parametrize("command", ["oracle", "simulate"])
@pytest.mark.parametrize("fault", list(MODEL_FAULTS))
def test_malformed_model_in_scenario_file_exit_code(tmp_path, capsys, command, fault):
    obj = scenario_to_dict(_small_scenario())
    MODEL_FAULTS[fault](obj["nodes"])
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(obj))
    assert main([command, "--scenario", str(path)]) == EXIT_USAGE
    assert _one_line_error(capsys)


def test_oracle_over_the_width_limit_exit_code(tmp_path, capsys, monkeypatch):
    # Y's table spans Y and its three parents, one node past a limit of 3.
    model = StructuralModel((
        NodeEquation("A", 0.5), NodeEquation("B", 0.5), NodeEquation("C", 0.5),
        NodeEquation("Y", 0.1, (("A", 0.2), ("B", 0.2), ("C", 0.2))),
    ))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario_to_dict(
        Scenario(model, 100, 1, (Analysis("unadjusted", "A", "Y"),))
    )))
    monkeypatch.setattr(scm, "ENUMERATION_NODE_LIMIT", 3)
    assert main(["oracle", "--scenario", str(path)]) == EXIT_ANALYSIS
    assert _one_line_error(capsys)


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
