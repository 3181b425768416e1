import json
from importlib import resources

import pytest

from causalkit import fixtures
from causalkit.cli import EXIT_ANALYSIS, EXIT_OK, EXIT_USAGE, main
from causalkit.scenario import (
    Analysis,
    Scenario,
    scenario_dataset,
    scenario_to_dict,
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


def test_oracle_reports_population_values(scenario_file, capsys):
    code = main(["oracle", "--scenario", scenario_file, "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["method"] == "unadjusted"
    assert payload[0]["risk_ratio"] == pytest.approx(5 / 3, abs=1e-10)


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
