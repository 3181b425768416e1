"""Acceptance criteria for the toolkit, one test per criterion.

Each test prints a single PASS line on success; pytest -v adds the
per-criterion pass/fail status.  The expensive full-sample scenarios are run
once in a session fixture and shared across criteria.
"""

import hashlib
import itertools
import math
import time

import numpy as np
import pytest

from causalkit import fixtures, glm
from causalkit.dag import (
    d_separated,
    d_separated_by_paths,
    d_separated_by_reachability,
)
from causalkit.estimators import (
    BootstrapSpec,
    g_computation_rr,
    ipw_rr,
    population_estimand,
)
from causalkit.glm import ModelSpec, fit
from causalkit.scenario import (
    REPRODUCE_TARGETS,
    builtin_scenario,
    reproduce,
    reproduce_many,
)
from causalkit.scm import enumerate_population, sample

T = fixtures.CHILDCARE
Y = fixtures.CONDUCT_SCHOOL

# sha256 of the `causalkit reproduce all` output, as pinned in
# perfbench/digests.json.
REPRODUCE_ALL_SHA256 = "d09873157a4e1b65ddb5397887546b96f0f86f0d3cbddd8fb92463bbf1574f1a"


@pytest.fixture(scope="session")
def full_run():
    """One timed pass over every reproduction target."""
    reports = {}
    durations = {}
    for name in REPRODUCE_TARGETS:
        start = time.monotonic()
        reports[name] = reproduce(name)
        durations[name] = time.monotonic() - start
    return reports, durations


def test_criterion_01_exact_oracles():
    start = time.monotonic()
    conf = fixtures.confounder_model()
    med = fixtures.mediator_model()
    coll = fixtures.collider_model()
    assert population_estimand(conf, "unadjusted", "A", "B") == pytest.approx(5 / 3, abs=1e-10)
    assert population_estimand(med, "unadjusted", "A", "B") == pytest.approx(5 / 3, abs=1e-10)
    assert population_estimand(coll, "unadjusted", "A", "B") == pytest.approx(1.0, abs=1e-10)
    for model in (conf, med):
        assert population_estimand(
            model, "outcome_regression", "A", "B", ("C",), family="poisson"
        ) == pytest.approx(1.0, abs=1e-8)
    assert time.monotonic() - start < 1.0
    print("PASS: criterion 1 - exact population oracles for the three triples")


def test_criterion_02_appendix_tables_within_mc_bands(full_run):
    reports, durations = full_run
    for name in ("table6", "table7", "table8"):
        report = reports[name]
        assert report.passed, report.render()
        assert durations[name] < 5.0
    adjusted_collider = reports["table8"].table.estimates[1]
    assert adjusted_collider.risk_ratio < 1.0
    assert adjusted_collider.ci[1] < 1.0
    print("PASS: criterion 2 - appendix tables inside 3-SE bands; "
          "adjusted collider RR < 1 with CI excluding 1")


def test_criterion_03_confounding_table_full_sample(full_run):
    reports, durations = full_run
    report = reports["table2"]
    assert durations["table2"] < 60.0
    estimates = report.table.estimates
    crude_oracle = population_estimand(
        fixtures.case_study_model(), "unadjusted", T, Y
    )
    assert abs(estimates[0].risk_ratio - crude_oracle) <= 0.03
    for estimate in estimates[1:]:
        assert abs(estimate.risk_ratio - 1.0) <= 0.02
        assert estimate.ci[0] <= 1.0 <= estimate.ci[1]
    assert report.passed, report.render()
    print("PASS: criterion 3 - crude RR near oracle; all adjusted methods "
          "near 1 with covering CIs in under 60 s")


def test_criterion_04_collider_adjustment_bias(full_run):
    reports, _ = full_run
    report = reports["table3"]
    scenario = builtin_scenario("table3")
    references = (1.2453, 1.2905, 1.4097)
    for estimate, analysis, reference in zip(
        report.table.estimates, scenario.analyses, references
    ):
        assert estimate.ci[0] > 1.0 or estimate.ci[1] < 1.0
        assert abs(estimate.risk_ratio - reference) <= 0.05
        oracle = population_estimand(
            scenario.model, analysis.method, T, Y, analysis.adjust,
            interactions=analysis.interactions, family=analysis.family,
        )
        assert abs(estimate.risk_ratio - oracle) <= 0.01
    assert report.passed, report.render()
    print("PASS: criterion 4 - collider adjustment biases all three methods "
          "as published, matching their own estimands")


def test_criterion_05_selection_bias_table(full_run):
    reports, _ = full_run
    report = reports["table4"]
    for estimate in report.table.estimates:
        assert 1.10 <= estimate.risk_ratio <= 1.17
        assert estimate.ci[0] > 1.0
    assert report.passed, report.render()
    print("PASS: criterion 5 - selection-biased RRs inside [1.10, 1.17] "
          "with CIs excluding 1")


def test_criterion_06_outcome_regression_residual_bias(full_run):
    reports, _ = full_run
    report = reports["table5"]
    outcome_reg, gcomp, ipw = [e.risk_ratio for e in report.table.estimates]
    assert abs(gcomp - 1.0) <= 0.02
    assert abs(ipw - 1.0) <= 0.02
    assert outcome_reg - gcomp >= 0.02
    assert outcome_reg - ipw >= 0.02
    assert report.passed, report.render()
    print("PASS: criterion 6 - outcome regression keeps >= 0.02 residual bias "
          "where G-computation and IPW recover the null")


def test_criterion_07_dsep_implementations_agree_exhaustively():
    start = time.monotonic()
    checked = 0
    for dag in (fixtures.single_edge_dag(), fixtures.disconnected_pair_dag(),
                fixtures.fork_dag(), fixtures.collider_dag(), fixtures.chain_dag(),
                fixtures.structural_quality_dag(), fixtures.case_study_dag(),
                fixtures.case_study_model().to_dag(),
                fixtures.confounder_model().to_dag(),
                fixtures.mediator_model().to_dag(),
                fixtures.collider_model().to_dag()):
        for x, y in itertools.combinations(dag.nodes, 2):
            rest = [n for n in dag.nodes if n not in (x, y)]
            for size in range(len(rest) + 1):
                for z in itertools.combinations(rest, size):
                    assert d_separated_by_paths(dag, x, y, z) == (
                        d_separated_by_reachability(dag, x, y, z)
                    )
                    checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    assert checked > 1000
    print(f"PASS: criterion 7 - both d-separation routes agree on all "
          f"{checked} conditioning sets in {elapsed:.2f} s")


def test_criterion_08_conditional_independence_bridge():
    model = fixtures.case_study_model()
    dag = model.to_dag()  # the no-effect graph the data is drawn from
    population = enumerate_population(model)
    w = population.weights
    values = {name: population.column(name) for name in population.columns}
    checked = 0
    for x, y in itertools.combinations(dag.nodes, 2):
        rest = [n for n in dag.nodes if n not in (x, y)]
        for size in range(len(rest) + 1):
            for z in itertools.combinations(rest, size):
                if not d_separated(dag, x, y, z):
                    continue
                for bits in itertools.product((0, 1), repeat=len(z)):
                    mask = np.ones(population.n, dtype=bool)
                    for node, bit in zip(z, bits):
                        mask &= values[node] == bit
                    w0 = w[mask & (values[x] == 0)].sum()
                    w1 = w[mask & (values[x] == 1)].sum()
                    if w0 <= 0 or w1 <= 0:
                        continue
                    p0 = w[mask & (values[x] == 0) & (values[y] == 1)].sum() / w0
                    p1 = w[mask & (values[x] == 1) & (values[y] == 1)].sum() / w1
                    assert abs(p1 - p0) < 1e-12
                    checked += 1
    assert checked > 0
    print(f"PASS: criterion 8 - every d-separation in the no-effect graph is "
          f"an exact conditional independence ({checked} strata checked)")


def test_criterion_09_glm_unit_oracle_and_mean_guard(full_run):
    population = enumerate_population(fixtures.confounder_model())
    result = fit(population, ModelSpec("B", ("A", "C"), (("A", "C"),)))
    assert result.coefficient("C") == pytest.approx(2 * math.log(3), abs=1e-8)
    # The session fixture ran every log-binomial fit of the reproduction
    # suite (the unadjusted rows and the binomial outcome regressions).  The
    # mark is the highest mean of any iterate on a positive-weight row, read
    # unclamped, so it stays below one only if step-halving kept every
    # fitted mean below one.
    reports, _ = full_run
    mark = max(
        e.diagnostics["max_fitted_mean"]
        for report in reports.values()
        for e in report.table.estimates
        if e.method == "unadjusted"
        or (e.method == "outcome_regression" and e.diagnostics["family"] == "binomial")
    )
    assert 0.0 < mark < 1.0
    print(f"PASS: criterion 9 - saturated logistic recovers 2 ln 3; "
          f"log-binomial fitted-mean high-water mark {mark:.6f} < 1")


def test_criterion_10_determinism(full_run, monkeypatch):
    reports, _ = full_run
    first = "\n".join(reports[name].render() for name in REPRODUCE_TARGETS)
    second = "\n".join(r.render() for r in reproduce_many("all"))
    assert first == second
    d = sample(fixtures.confounder_model(), 20_000, 11)
    spec = BootstrapSpec(replicates=200, seed=77)
    estimators = (g_computation_rr, ipw_rr)
    whole = [estimator(d, "A", "B", ("C",), bootstrap=spec) for estimator in estimators]
    # One replicate per chunk.
    monkeypatch.setattr(glm, "BATCH_ELEMENTS", 1)
    for estimator, reference in zip(estimators, whole):
        chunked = estimator(d, "A", "B", ("C",), bootstrap=spec)
        assert chunked.ci == reference.ci
        assert chunked.diagnostics == reference.diagnostics
    print("PASS: criterion 10 - reproduce-all output byte-identical across "
          "runs; whole and chunked bootstraps agree exactly")


def test_reproduce_all_matches_recorded_digest(full_run):
    reports, _ = full_run
    text = "\n".join(reports[name].render() for name in REPRODUCE_TARGETS) + "ALL PASS\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPRODUCE_ALL_SHA256
    print("PASS: reproduce-all output matches its recorded digest")
