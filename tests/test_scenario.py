import io
import json
from dataclasses import replace
from importlib import resources

import pytest

from causalkit import fixtures
from causalkit import scenario as scenario_mod
from causalkit.errors import ScenarioError, SemanticError
from causalkit.estimators import BootstrapSpec, EffectEstimate, population_estimand
from causalkit.scenario import (
    Analysis,
    REPRODUCE_TARGETS,
    Scenario,
    TARGETS,
    builtin_scenario,
    oracle_value,
    parse_scenario,
    reproduce,
    reproduce_many,
    run_analysis,
    run_scenario,
    write_csv,
)
from causalkit.scm import NodeEquation, SelectionRule, StructuralModel, sample
from rows import read_csv, scenario_rows


def _small_scenario(**overrides):
    base = dict(
        model=fixtures.confounder_model(),
        sample_size=4_000,
        seed=99,
        analyses=(
            Analysis("unadjusted", "A", "B"),
            Analysis("outcome_regression", "A", "B", ("C",)),
        ),
    )
    base.update(overrides)
    return Scenario(**base)


# The bundled scenario file: table2's scenario.
CASE_STUDY_JSON = (resources.files("causalkit") / "data" / "case_study.json").read_text()


# ---------------------------------------------------------------------------
# Parsing


def test_bundled_scenario_file_matches_table2_fixture():
    assert parse_scenario(CASE_STUDY_JSON) == builtin_scenario("table2")


def test_parse_scenario_reads_selection_interactions_and_level():
    scenario = parse_scenario("""{"nodes": [{"name": "C", "intercept": 0.5},
        {"name": "A", "intercept": 0.25, "parents": {"C": 0.5}},
        {"name": "B", "intercept": 0.25, "parents": {"C": 0.5}}],
      "sample_size": 4000, "seed": 99, "selection": {"node": "C", "value": 1},
      "analyses": [{"method": "g_computation", "treatment": "A", "outcome": "B",
        "adjust": ["C"], "interactions": true,
        "bootstrap": {"replicates": 50, "seed": 3, "level": 0.9}}]}""")
    assert scenario == _small_scenario(selection=SelectionRule("C", 1), analyses=(
        Analysis("g_computation", "A", "B", ("C",), interactions=True,
                 bootstrap=BootstrapSpec(50, 3, level=0.9)),
    ))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda obj: obj.pop("seed"),
        lambda obj: obj.pop("nodes"),
        lambda obj: obj.update(mystery=1),
        lambda obj: obj["nodes"][0].pop("intercept"),
        lambda obj: obj["nodes"][0].update(extra=1),
        lambda obj: obj["analyses"][0].update(extra=1),
        lambda obj: obj["analyses"][0].update(method="magic"),
        lambda obj: obj.update(analysis_edge=["just_one"]),
        lambda obj: obj.update(nodes=5),
        lambda obj: obj.update(sample_size="abc"),
        lambda obj: obj.update(sample_size=-5),
        lambda obj: obj.update(seed=1.5),
        lambda obj: obj["nodes"][0].update(parents=[1]),
        lambda obj: obj["analyses"][1].update(family="gamma"),
        lambda obj: obj["analyses"][2]["bootstrap"].update(replicates=0),
        lambda obj: obj["nodes"][0].update(parents=0),
        lambda obj: obj["nodes"][0].update(parents=False),
        lambda obj: obj["nodes"][0].update(parents=""),
        lambda obj: obj["nodes"][0].update(parents=[]),
    ],
)
def test_parse_scenario_rejects_malformed_objects(mutate):
    obj = json.loads(CASE_STUDY_JSON)
    mutate(obj)
    with pytest.raises(ScenarioError):
        parse_scenario(json.dumps(obj))


def test_parse_scenario_rejects_bad_json_and_non_objects():
    with pytest.raises(ScenarioError):
        parse_scenario("{not json")
    with pytest.raises(ScenarioError):
        parse_scenario("[1, 2]")


def test_parse_scenario_rejects_unknown_columns():
    obj = json.loads(CASE_STUDY_JSON)
    obj["analyses"][1]["adjust"] = ["not_a_node"]  # outcome regression
    with pytest.raises(SemanticError):
        parse_scenario(json.dumps(obj))
    obj = json.loads(CASE_STUDY_JSON)
    obj["selection"] = {"node": "not_a_node", "value": 1}
    with pytest.raises(SemanticError):
        parse_scenario(json.dumps(obj))


@pytest.mark.parametrize(
    "overrides",
    [
        {"selection": SelectionRule("Z", 1)},
        {"analysis_edge": ("A", "Z")},
        {"analyses": (Analysis("outcome_regression", "A", "B", ("Z",)),)},
    ],
)
def test_scenario_naming_a_node_outside_its_model_cannot_be_built(overrides):
    with pytest.raises(SemanticError):
        _small_scenario(**overrides)


@pytest.mark.parametrize("edge", [("A",), "AB", ("A", "B", "C")])
def test_scenario_refuses_an_analysis_edge_that_is_not_a_pair_of_names(edge):
    with pytest.raises(ScenarioError, match="^analysis_edge must be a pair of node names"):
        _small_scenario(analysis_edge=edge)


def test_parse_scenario_leaves_omitted_keys_to_the_constructors_defaults():
    scenario = parse_scenario("""{"nodes": [{"name": "C", "intercept": 0.5},
        {"name": "A", "intercept": 0.25, "parents": {"C": 0.5}},
        {"name": "B", "intercept": 0.25, "parents": {"C": 0.5}}],
      "sample_size": 4000, "seed": 99, "analysis_edge": ["A", "B"],
      "analyses": [{"method": "unadjusted", "treatment": "A", "outcome": "B"},
        {"method": "ipw", "treatment": "A", "outcome": "B",
         "bootstrap": {"replicates": 50, "seed": 3}}]}""")
    assert scenario == _small_scenario(analysis_edge=("A", "B"), analyses=(
        Analysis("unadjusted", "A", "B"),
        Analysis("ipw", "A", "B", bootstrap=BootstrapSpec(50, 3)),
    ))


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda obj: obj["nodes"][0].update(intercept="0.5"),
         "node 'C': intercept must be a number, not '0.5'"),
        (lambda obj: obj["nodes"][1]["parents"].update(C=True),
         "node 'A': coefficient of 'C' must be a number, not True"),
        (lambda obj: obj.update(selection={"node": "C", "value": 1.0}),
         "selection value must be 0 or 1, not 1.0"),
        (lambda obj: obj.update(analysis_edge="AB"),
         "analysis_edge must be a pair of node names, not 'AB'"),
        (lambda obj: obj["analyses"][1].update(bootstrap={"replicates": 50}),
         "analyses[1].bootstrap: missing key(s) ['seed']"),
        (lambda obj: obj["analyses"][1].update(adjust="C"),
         "analyses[1]: adjust must be a list of column names, not 'C'"),
    ],
)
def test_parse_scenario_reports_the_constructors_refusal(mutate, message):
    obj = {"nodes": [{"name": "C", "intercept": 0.5},
                     {"name": "A", "intercept": 0.25, "parents": {"C": 0.5}},
                     {"name": "B", "intercept": 0.25, "parents": {"C": 0.5}}],
           "sample_size": 100, "seed": 1,
           "analyses": [{"method": "unadjusted", "treatment": "A", "outcome": "B"},
                        {"method": "ipw", "treatment": "A", "outcome": "B"}]}
    mutate(obj)
    with pytest.raises(ScenarioError) as exc_info:
        parse_scenario(json.dumps(obj))
    assert str(exc_info.value) == message


def test_analysis_options_are_those_its_method_takes():
    analysis = Analysis("g_computation", "A", "B", ("C",), interactions=True)
    assert analysis.options() == {"adjust": ("C",), "interactions": True, "bootstrap": None}
    assert Analysis("unadjusted", "A", "B").options() == {}


@pytest.mark.parametrize("name", ["table4", "table8"])
def test_oracle_value_is_the_population_estimand_with_the_analysis_options(name):
    scenario = builtin_scenario(name)
    for a in scenario.analyses:
        assert oracle_value(scenario, a) == population_estimand(
            scenario.model, a.method, a.treatment, a.outcome, a.adjust,
            scenario.selection, a.interactions, a.family,
        )


def test_analysis_rejects_unknown_method():
    with pytest.raises(ScenarioError):
        Analysis("magic", "A", "B")


@pytest.mark.parametrize(
    "treatment, outcome, adjust",
    [
        ("A", "A", ()),
        ("A", "B", ("B",)),
        ("A", "B", ("A", "C")),
        ("A", "B", ("C", "C")),
        ("A", "B", "C"),
        ("A", "B", 5),
        ("A", "B", (["C"],)),
    ],
)
def test_analysis_rejects_broken_invariants(treatment, outcome, adjust):
    with pytest.raises(ScenarioError):
        Analysis("outcome_regression", treatment, outcome, adjust)


@pytest.mark.parametrize(
    "method, options",
    [
        ("unadjusted", {"adjust": ("C",)}),
        ("unadjusted", {"interactions": True}),
        ("outcome_regression", {"interactions": True}),
        ("ipw", {"interactions": True}),
        ("unadjusted", {"family": "poisson"}),
        ("g_computation", {"family": "poisson"}),
        ("ipw", {"family": "poisson"}),
        ("unadjusted", {"bootstrap": BootstrapSpec(50, 0)}),
        ("outcome_regression", {"bootstrap": BootstrapSpec(50, 0)}),
    ],
)
def test_analysis_rejects_options_its_method_ignores(method, options):
    with pytest.raises(ScenarioError, match=f"{method}' takes no"):
        Analysis(method, "A", "B", **options)


def test_analysis_accepts_the_options_its_method_takes():
    Analysis("outcome_regression", "A", "B", ("C",), family="poisson")
    Analysis("g_computation", "A", "B", ("C",), interactions=True,
             bootstrap=BootstrapSpec(50, 0))
    Analysis("ipw", "A", "B", ("C",), bootstrap=BootstrapSpec(50, 0))
    # An option at its default is no option at all.
    Analysis("unadjusted", "A", "B", (), interactions=False, family="binomial")


def test_parse_scenario_rejects_adjust_given_as_a_string():
    obj = json.loads(CASE_STUDY_JSON)
    obj["analyses"][1]["adjust"] = "conduct_entry"  # outcome regression
    with pytest.raises(ScenarioError, match="list of column names"):
        parse_scenario(json.dumps(obj))


def test_paired_dag_reflects_edge_and_selection():
    scenario = builtin_scenario("table4")
    dag = scenario.paired_dag()
    assert (fixtures.CHILDCARE, fixtures.CONDUCT_SCHOOL) in dag.edges
    assert dag.role_of(fixtures.PLAYGROUP) == "conditioned"
    assert dag.role_of(fixtures.CHILDCARE) == "treatment"
    # Without an analysis edge the first analysis names the roles.
    dag = _small_scenario(analyses=(Analysis("unadjusted", "C", "B"),)).paired_dag()
    assert dag.role_of("C") == "treatment"
    assert dag.role_of("B") == "outcome"
    assert dag.role_of("A") == "plain"


# ---------------------------------------------------------------------------
# Execution


def test_run_scenario_shares_one_dataset():
    scenario = _small_scenario()
    table = run_scenario(scenario)
    assert len(table.estimates) == 2
    # Same sample both times: identical n on every row.
    assert {e.n for e in table.estimates} == {4_000.0}
    again = run_scenario(scenario)
    assert table.estimates == again.estimates
    other = run_scenario(replace(scenario, seed=100))
    assert table.estimates[0].risk_ratio != other.estimates[0].risk_ratio


def test_run_scenario_wraps_analysis_failures():
    scenario = _small_scenario(
        analyses=(Analysis("ipw", "A", "B", bootstrap=BootstrapSpec(5, 0)),)
    )
    with pytest.raises(ScenarioError) as exc_info:
        run_scenario(scenario)
    assert "analysis 0" in str(exc_info.value)


def test_run_scenario_on_a_selection_that_keeps_no_row():
    # A node that is always 1, selected at 0: the counts table has no row.
    model = fixtures.confounder_model()
    model = StructuralModel((*model.equations, NodeEquation("always", 1.0)))
    scenario = _small_scenario(model=model, selection=SelectionRule("always", 0))
    with pytest.raises(ScenarioError) as exc_info:
        run_scenario(scenario)
    assert str(exc_info.value) == "analysis 0 (unadjusted): treatment arm A=1 is empty"


def test_write_csv_applies_selection():
    scenario = _small_scenario(selection=SelectionRule("C", 1))
    out = io.StringIO()
    rows = write_csv(scenario, out)
    d = read_csv(out.getvalue())
    assert rows == d.total_weight() < 4_000
    assert set(d.column("C")) == {1}


def test_result_table_render_formats():
    table = run_scenario(_small_scenario())
    text = table.render("text")
    assert "MODEL" in text and "RISK RATIO" in text and "No adjustment" in text
    csv_text = table.render("csv")
    assert csv_text.splitlines()[0] == "model,adjustment,risk_ratio,ci_low,ci_high"
    payload = json.loads(table.render("json"))
    assert len(payload["rows"]) == 2
    assert payload["rows"][1]["adjustment"] == ["C"]
    with pytest.raises(ValueError):
        table.render("yaml")


def test_csv_export_import_estimate_lossless():
    scenario = _small_scenario()
    # The CSV reads back as the counts table that run_scenario estimates on.
    d = scenario_rows(scenario)
    compact, back = d.aggregate(), read_csv(d.to_csv())
    for analysis in scenario.analyses:
        assert run_analysis(compact, analysis).risk_ratio == pytest.approx(
            run_analysis(back, analysis).risk_ratio, abs=0
        )


def test_weighted_population_csv_reproduces_estimand():
    from causalkit.scm import enumerate_population

    population = enumerate_population(fixtures.collider_model())
    back = read_csv(population.to_csv())
    analysis = Analysis("outcome_regression", "A", "B", ("C",), family="poisson")
    estimate = run_analysis(back, analysis)
    target = population_estimand(
        fixtures.collider_model(), "outcome_regression", "A", "B", ("C",),
        family="poisson",
    )
    assert estimate.risk_ratio == pytest.approx(target, abs=1e-8)


# ---------------------------------------------------------------------------
# Reproduction harness


def test_every_reproduce_row_has_a_band_that_can_fail():
    far_off = EffectEstimate("ipw", "A", "B", (), 10.0, (9.0, 11.0), "wald", 100.0,
                             {"se_log_rr": 0.1})
    for target in TARGETS.values():
        for _, _, band in target.rows:
            assert not band.holds(far_off, 1.0, 1.0, (10.0,) * len(target.rows)), band.text


def test_every_band_reading_a_wald_se_has_a_row_that_reports_one():
    # A band that reads se_log_rr raises on an estimate without one.
    bare = EffectEstimate("ipw", "A", "B", (), 1.0, (0.9, 1.1), "wald", 100.0)
    reading = 0
    for target in TARGETS.values():
        for analysis, _, band in target.rows:
            try:
                band.holds(bare, 1.0, 1.0, (1.0,) * len(target.rows))
            except KeyError:
                reading += 1
                estimate = run_analysis(sample(target.model(), 1_000, 1), analysis)
                assert "se_log_rr" in estimate.diagnostics, band.text
    assert reading == 6  # both rows of each appendix table


def test_builtin_scenarios_cover_all_targets():
    # Each target's scenario is built, and so checked, only when asked for.
    for name in REPRODUCE_TARGETS:
        assert builtin_scenario(name).label.startswith(f"{name}: ")
    with pytest.raises(ScenarioError):
        builtin_scenario("table99")
    with pytest.raises(ScenarioError):
        reproduce("table99")


def test_reproduce_appendix_tables_pass():
    for name in ("table6", "table7", "table8"):
        report = reproduce(name)
        assert report.passed, report.render()
        text = report.render()
        assert "[PASS]" in text and "[FAIL]" not in text


def test_reproduce_many_single_target():
    reports = reproduce_many("table6")
    assert len(reports) == 1 and reports[0].name == "table6"


def test_reproduce_many_draws_each_population_once(monkeypatch):
    draws = []

    def counted(model, n, seed):
        draws.append((n, seed))
        return sample(model, n, seed)

    monkeypatch.setattr(scenario_mod, "sample", counted)
    reports = {report.name: report for report in reproduce_many("all")}
    # The case study once for tables 2-5, and each appendix triple once.
    assert len(draws) == 4
    assert len(reproduce_many("table5")) == 1 and len(draws) == 5
    # No draw outlives the call that made it.
    draws.clear()
    reproduce_many("all")
    reproduce_many("all")
    assert len(draws) == 8
    for name in ("table3", "table5"):
        assert reports[name].render() == reproduce(name).render()
