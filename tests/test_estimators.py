import math

import numpy as np
import pytest

from causalkit import fixtures
from causalkit.errors import (
    BootstrapDegenerate,
    DegenerateArm,
    GlmError,
    InsufficientReplicates,
    SeparationSuspected,
    ZeroRiskControlArm,
)
from causalkit.estimators import (
    METHODS,
    BootstrapSpec,
    bootstrap_ci,
    g_computation_rr,
    ipw_rr,
    outcome_regression_rr,
    population_estimand,
    unadjusted_rr,
)
from causalkit.scm import (
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    enumerate_population,
    sample,
)

T = fixtures.CHILDCARE
Y = fixtures.CONDUCT_SCHOOL
CE = fixtures.CONDUCT_ENTRY


@pytest.fixture(scope="module")
def case_sample():
    return sample(fixtures.case_study_model(), 50_000, 314159)


@pytest.fixture(scope="module")
def triple_sample():
    return sample(fixtures.confounder_model(), 20_000, 2718)


# ---------------------------------------------------------------------------
# Point estimators


def test_unadjusted_matches_arm_means_and_glm(case_sample):
    estimate = unadjusted_rr(case_sample, T, Y)
    t = case_sample.column(T).astype(bool)
    y = case_sample.column(Y).astype(float)
    direct = y[t].mean() / y[~t].mean()
    assert estimate.risk_ratio == pytest.approx(direct, abs=1e-12)
    # Covariate-free log-binomial reproduces the same ratio.
    assert estimate.diagnostics["glm_rr"] == pytest.approx(direct, abs=1e-8)
    assert estimate.ci[0] < estimate.risk_ratio < estimate.ci[1]
    assert estimate.n == case_sample.n


def test_outcome_regression_families_agree_without_adjusters(triple_sample):
    binom = outcome_regression_rr(triple_sample, "A", "B")
    pois = outcome_regression_rr(triple_sample, "A", "B", family="poisson")
    crude = unadjusted_rr(triple_sample, "A", "B")
    # Saturated single-regressor fits all recover the crude ratio.
    assert binom.risk_ratio == pytest.approx(crude.risk_ratio, abs=1e-8)
    assert pois.risk_ratio == pytest.approx(crude.risk_ratio, abs=1e-8)
    assert binom.diagnostics["family"] == "binomial"
    assert "se_log_rr" in binom.diagnostics


def test_gcomp_and_ipw_reduce_to_unadjusted_with_empty_adjustment(case_sample):
    crude = unadjusted_rr(case_sample, T, Y).risk_ratio
    assert g_computation_rr(case_sample, T, Y).risk_ratio == pytest.approx(
        crude, abs=1e-8
    )
    assert ipw_rr(case_sample, T, Y).risk_ratio == pytest.approx(crude, abs=1e-8)


def test_gcomp_saturated_equals_direct_standardisation(case_sample):
    estimate = g_computation_rr(case_sample, T, Y, (CE,), interactions=True)
    t = case_sample.column(T)
    y = case_sample.column(Y).astype(float)
    c = case_sample.column(CE)
    means = {}
    for cv in (0, 1):
        share = (c == cv).mean()
        for tv in (0, 1):
            cell = (t == tv) & (c == cv)
            means[(tv, cv)] = y[cell].mean() * share
    standardised = (means[(1, 0)] + means[(1, 1)]) / (means[(0, 0)] + means[(0, 1)])
    assert estimate.risk_ratio == pytest.approx(standardised, abs=1e-8)


def test_ipw_is_invariant_to_weight_rescaling(case_sample):
    base = ipw_rr(case_sample, T, Y, (CE,)).risk_ratio
    scaled = Dataset(
        case_sample.columns,
        case_sample.values,
        np.full(case_sample.n, 7.5),
    )
    assert ipw_rr(scaled, T, Y, (CE,)).risk_ratio == pytest.approx(base, abs=1e-8)
    diag = ipw_rr(case_sample, T, Y, (CE,)).diagnostics
    assert 1.0 <= diag["min_weight"] <= diag["max_weight"]


def test_estimators_agree_on_rows_and_counts(case_sample):
    # The counts table is the form the CLI and run_scenario estimate on; it
    # must give the raw-row answer for every method.
    compact = case_sample.aggregate()
    for estimator, args in (
        (unadjusted_rr, ()),
        (outcome_regression_rr, ((CE,),)),
        (g_computation_rr, ((CE,),)),
        (ipw_rr, ((CE,),)),
    ):
        raw = estimator(case_sample, T, Y, *args)
        counts = estimator(compact, T, Y, *args)
        assert counts.risk_ratio == pytest.approx(raw.risk_ratio, abs=1e-9)
        assert counts.n == raw.n


def test_wald_interval_only_on_frequency_weights(triple_sample):
    population = enumerate_population(fixtures.confounder_model())
    for estimate in (
        unadjusted_rr(population, "A", "B"),
        outcome_regression_rr(population, "A", "B", ("C",), family="poisson"),
    ):
        assert estimate.ci is None and estimate.ci_method == "none"
    assert unadjusted_rr(population, "A", "B").risk_ratio == pytest.approx(5 / 3, abs=1e-12)
    # Whole-number weights are counts: the same rows collapsed keep their interval.
    counted = unadjusted_rr(triple_sample.aggregate(), "A", "B")
    assert counted.ci_method == "wald"
    assert counted.ci == pytest.approx(unadjusted_rr(triple_sample, "A", "B").ci, abs=1e-9)


def test_degenerate_arm_and_zero_risk_errors():
    values = np.array([[1, 0], [1, 1], [1, 0]], dtype=np.uint8)
    with pytest.raises(DegenerateArm):
        unadjusted_rr(Dataset(("t", "y"), values), "t", "y")
    values = np.array([[0, 0], [0, 0], [1, 1], [1, 0]], dtype=np.uint8)
    with pytest.raises((ZeroRiskControlArm, SeparationSuspected)):
        unadjusted_rr(Dataset(("t", "y"), values), "t", "y")


# ---------------------------------------------------------------------------
# Bootstrap


def test_bootstrap_constant_statistic_gives_point_interval(triple_sample):
    spec = BootstrapSpec(replicates=50, seed=9)
    (low, high), diag = bootstrap_ci(triple_sample, lambda rep: 1.0, spec)
    assert (low, high) == (1.0, 1.0)
    assert diag["bootstrap_failures"] == 0
    assert diag["bootstrap_se"] == 0.0


def test_bootstrap_deterministic_and_parallel_identical(triple_sample):
    spec = BootstrapSpec(replicates=80, seed=123)
    stat = lambda rep: unadjusted_rr(rep, "A", "B").risk_ratio
    serial, _ = bootstrap_ci(triple_sample, stat, spec)
    again, _ = bootstrap_ci(triple_sample, stat, spec)
    parallel, _ = bootstrap_ci(triple_sample, stat, spec, parallel=True)
    assert serial == again == parallel
    other, _ = bootstrap_ci(triple_sample, stat, BootstrapSpec(80, 124))
    assert other != serial


def test_bootstrap_interval_brackets_the_estimate(triple_sample):
    spec = BootstrapSpec(replicates=100, seed=5)
    estimate = g_computation_rr(
        triple_sample, "A", "B", ("C",), bootstrap=spec
    )
    assert estimate.ci[0] <= estimate.risk_ratio <= estimate.ci[1]
    assert estimate.ci_method == "bootstrap_percentile"
    assert estimate.diagnostics["bootstrap_replicates"] == 100


def test_bootstrap_requires_enough_replicates(triple_sample):
    with pytest.raises(InsufficientReplicates):
        bootstrap_ci(triple_sample, lambda rep: 1.0, BootstrapSpec(10, 0))
    # 40 replicates just meets the 95% minimum of ceil(2 / 0.05) = 40.
    assert BootstrapSpec(40, 0).minimum_replicates() == 40
    bootstrap_ci(triple_sample, lambda rep: 1.0, BootstrapSpec(40, 0))


def test_bootstrap_degenerate_when_replicates_fail(triple_sample):
    def flaky(rep):
        raise GlmError("always fails")

    with pytest.raises(BootstrapDegenerate):
        bootstrap_ci(triple_sample, flaky, BootstrapSpec(50, 0))


def test_bootstrap_rejects_probability_weights():
    from causalkit.scm import enumerate_population

    population = enumerate_population(fixtures.confounder_model())
    with pytest.raises(ValueError):
        bootstrap_ci(population, lambda rep: 1.0, BootstrapSpec(50, 0))


def test_bootstrap_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(replicates=0)
    with pytest.raises(ValueError):
        BootstrapSpec(level=1.0)


# ---------------------------------------------------------------------------
# Population estimands


def test_population_estimands_appendix_triples():
    conf = fixtures.confounder_model()
    med = fixtures.mediator_model()
    coll = fixtures.collider_model()
    assert population_estimand(conf, "unadjusted", "A", "B") == pytest.approx(
        5 / 3, abs=1e-10
    )
    assert population_estimand(med, "unadjusted", "A", "B") == pytest.approx(
        5 / 3, abs=1e-10
    )
    assert population_estimand(coll, "unadjusted", "A", "B") == pytest.approx(
        1.0, abs=1e-10
    )
    for model in (conf, med):
        for method in ("outcome_regression", "g_computation", "ipw"):
            assert population_estimand(
                model, method, "A", "B", ("C",), family="poisson"
            ) == pytest.approx(1.0, abs=1e-8)
    # Conditioning on the collider manufactures a spurious protective effect.
    assert population_estimand(
        coll, "outcome_regression", "A", "B", ("C",), family="poisson"
    ) == pytest.approx(0.5116781741312607, abs=1e-10)


def test_population_estimand_case_study_crude():
    value = population_estimand(fixtures.case_study_model(), "unadjusted", T, Y)
    assert value == pytest.approx(2.423191304117318, abs=1e-12)


def test_population_estimand_methods_agree_under_valid_adjustment():
    model = fixtures.case_study_model()
    for method in ("g_computation", "ipw"):
        assert population_estimand(model, method, T, Y, (CE,)) == pytest.approx(
            1.0, abs=1e-6
        )


@pytest.mark.parametrize("method", list(METHODS))
@pytest.mark.parametrize("selection", [None, SelectionRule(fixtures.PLAYGROUP, 1)])
def test_population_estimand_matches_the_uncollapsed_joint(method, selection):
    # The estimand collapses the joint onto the analysis columns first; the
    # point function on the whole enumerated joint is the reference.  Only
    # the order of the weight sums changes, so float64 rounding bounds the gap.
    model = fixtures.case_study_model()
    options = {"adjust": (CE, fixtures.EDUCATION), "interactions": True, "family": "poisson"}
    taken = {k: v for k, v in options.items() if k in METHODS[method].options}
    joint = enumerate_population(model, selection)
    reference = METHODS[method].point(joint, T, Y, **taken)[0]
    value = population_estimand(model, method, T, Y, selection=selection, **options)
    assert value == pytest.approx(reference, rel=1e-12)


def test_population_estimand_unknown_method():
    with pytest.raises(ValueError):
        population_estimand(fixtures.confounder_model(), "magic", "A", "B")
