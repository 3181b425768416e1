import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from causalkit import fixtures, glm
from causalkit.errors import (
    GlmError,
    MissingColumn,
    RankDeficient,
    SeparationSuspected,
    UnknownTerm,
    WeightOverflow,
)
from causalkit.glm import ModelSpec, build_design, fit, predict, wald_interval
from causalkit.scm import Dataset, enumerate_population, sample


def _constant_outcome_half():
    # Four rows, outcome mean exactly one half, no structure.
    values = np.array([[0], [0], [1], [1]], dtype=np.uint8)
    return Dataset(("y",), values)


def test_model_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec("y", family="gamma")
    with pytest.raises(ValueError):
        ModelSpec("y", link="identity")
    with pytest.raises(ValueError):
        ModelSpec("y", family="poisson", link="logit")
    with pytest.raises(ValueError):
        ModelSpec("y", terms=("y",))
    with pytest.raises(ValueError):
        ModelSpec("y", terms=("a",), interactions=(("a", "b"),))
    assert ModelSpec("y", ("a", "b"), (("a", "b"),)).term_names() == (
        "(intercept)", "a", "b", "a:b",
    )


def test_build_design_columns():
    d = sample(fixtures.confounder_model(), 50, 1)
    X = build_design(d, ModelSpec("B", ("A", "C"), (("A", "C"),)))
    assert X.shape == (50, 4)
    assert np.all(X[:, 0] == 1.0)
    assert np.array_equal(X[:, 3], X[:, 1] * X[:, 2])
    with pytest.raises(MissingColumn):
        build_design(d, ModelSpec("B", ("missing",)))


def test_intercept_only_logistic_at_mean_half():
    result = fit(_constant_outcome_half(), ModelSpec("y"))
    assert result.coefficient(glm.INTERCEPT) == pytest.approx(0.0, abs=1e-10)


def test_saturated_logistic_recovers_exact_logits():
    population = enumerate_population(fixtures.confounder_model())
    spec = ModelSpec("B", ("A", "C"), (("A", "C"),))
    result = fit(population, spec)
    # B ~ Bernoulli(0.25 + 0.5 C): logit jumps from -ln 3 to +ln 3 with C.
    assert result.coefficient(glm.INTERCEPT) == pytest.approx(-math.log(3), abs=1e-8)
    assert result.coefficient("C") == pytest.approx(2 * math.log(3), abs=1e-8)
    assert result.coefficient("A") == pytest.approx(0.0, abs=1e-8)
    assert result.coefficient("A:C") == pytest.approx(0.0, abs=1e-8)


def test_log_link_population_risk_ratio_exact():
    # Single-regressor log-link fits recover the exact population risk ratio
    # under both families.
    population = enumerate_population(fixtures.confounder_model())
    for family in ("binomial", "poisson"):
        result = fit(
            population, ModelSpec("B", ("A",), family=family, link="log")
        )
        assert math.exp(result.coefficient("A")) == pytest.approx(5 / 3, abs=1e-9)


def test_frequency_weight_equivalence():
    d = sample(fixtures.case_study_model(), 20_000, 77)
    spec = ModelSpec(
        fixtures.CONDUCT_SCHOOL, (fixtures.CHILDCARE, fixtures.CONDUCT_ENTRY)
    )
    raw = fit(d, spec)
    compact = fit(d.aggregate(), spec)
    for term in spec.term_names():
        assert raw.coefficient(term) == pytest.approx(
            compact.coefficient(term), abs=1e-9
        )
        assert raw.std_error(term) == pytest.approx(
            compact.std_error(term), abs=1e-9
        )
    assert raw.n_effective == pytest.approx(compact.n_effective)


def test_score_equations_hold_at_convergence():
    # Canonical logit: X' w (y - mu) = 0 at the MLE.
    d = sample(fixtures.case_study_model(), 50_000, 5)
    spec = ModelSpec(
        fixtures.CONDUCT_SCHOOL,
        (fixtures.CHILDCARE, fixtures.CONDUCT_ENTRY, fixtures.EDUCATION),
    )
    result = fit(d, spec)
    X = build_design(d, spec)
    beta = np.array([result.coefficient(t) for t in spec.term_names()])
    mu = 1.0 / (1.0 + np.exp(-(X @ beta)))
    score = X.T @ (d.column(spec.response).astype(float) - mu)
    assert np.max(np.abs(score)) / d.n < 1e-8


def test_separation_raises():
    values = np.array([[0, 0], [0, 0], [1, 1], [1, 1]], dtype=np.uint8)
    d = Dataset(("x", "y"), values)
    with pytest.raises(SeparationSuspected):
        fit(d, ModelSpec("y", ("x",)))


def test_rank_deficient_design_raises():
    values = np.array([[0, 0, 0], [1, 1, 0], [0, 0, 1], [1, 1, 1]], dtype=np.uint8)
    d = Dataset(("x1", "x2", "y"), values)  # x2 duplicates x1
    with pytest.raises(RankDeficient):
        fit(d, ModelSpec("y", ("x1", "x2")))


def test_predict_bounds_and_agreement():
    d = sample(fixtures.confounder_model(), 1_000, 8)
    result = fit(d, ModelSpec("B", ("A", "C")))
    mu = predict(result, d)
    assert np.all(mu > 0.0) and np.all(mu < 1.0)
    forced = predict(result, d.with_column_set("A", 1))
    assert mu.shape == forced.shape


def test_log_binomial_predictions_capped_below_one():
    d = sample(fixtures.confounder_model(), 5_000, 10)
    result = fit(d, ModelSpec("B", ("A", "C"), link="log"))
    assert result.max_fitted_mean < 1.0
    mu = predict(result, d.with_column_set("C", 1))
    assert np.all(mu < 1.0)


def test_log_binomial_high_water_tracking():
    glm.reset_log_binomial_mean_high_water()
    assert glm.log_binomial_mean_high_water() == 0.0
    d = sample(fixtures.confounder_model(), 2_000, 12)
    fit(d, ModelSpec("B", ("A", "C"), link="log"))
    mark = glm.log_binomial_mean_high_water()
    assert 0.0 < mark < 1.0


def _fit_on_positive_rows(d, weights, spec):
    """glm.fit on the rows of ``d`` with a positive weight, so weighted."""
    keep = weights > 0
    return fit(Dataset(d.columns, d.values[keep], weights[keep]), spec)


@pytest.mark.parametrize("spec", [
    ModelSpec("B", ("A", "C"), (("A", "C"),)),  # G-computation with interactions
    ModelSpec("B", ("A", "C")),  # G-computation on main effects
    ModelSpec("A", ("C",)),  # an IPW propensity model
])
def test_fit_batch_matches_fit_on_each_weight_row(spec):
    compact = sample(fixtures.confounder_model(), 2_000, 3).aggregate()
    share = compact.weights / compact.weights.sum()
    weights = np.random.default_rng(5).multinomial(2_000, share, size=6).astype(float)
    weights[1] *= np.linspace(0.5, 2.0, compact.n)  # not only whole counts
    batch = glm.fit_batch(compact, weights, spec)
    assert not batch.failed.any()
    mu = glm.predict_batch(batch, compact)
    for i, row in enumerate(weights):
        reference = _fit_on_positive_rows(compact, row, spec)
        np.testing.assert_allclose(
            batch.coefficients[i], list(reference.coefficients.values()), rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(mu[i], predict(reference, compact), rtol=1e-12)


def test_fit_batch_fails_exactly_where_fit_raises():
    d = Dataset(("a", "y"), np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8))
    weights = np.array([
        [3.0, 2.0, 4.0, 1.0],  # fits
        [3.0, 2.0, 0.0, 0.0],  # a is constant: rank deficient
        [3.0, 0.0, 0.0, 4.0],  # y == a: separation
        [0.0, 0.0, 0.0, 0.0],  # no weight
    ])
    spec = ModelSpec("y", ("a",))
    batch = glm.fit_batch(d, weights, spec)
    assert batch.failed.tolist() == [False, True, True, True]
    assert np.isnan(batch.coefficients[1:]).all()
    for row in weights[1:]:
        with pytest.raises(GlmError):
            _fit_on_positive_rows(d, row, spec)


def test_fit_batch_in_chunks_equals_one_batch(monkeypatch):
    compact = sample(fixtures.confounder_model(), 500, 8).aggregate()
    share = compact.weights / compact.weights.sum()
    weights = np.random.default_rng(9).multinomial(500, share, size=11).astype(float)
    spec = ModelSpec("B", ("A", "C"))
    whole = glm.fit_batch(compact, weights, spec)
    # The model's 3 parameters on at most 8 distinct rows: fits of 24
    # elements or fewer, so a budget of 50 makes chunks of 2 or more fits.
    monkeypatch.setattr(glm, "BATCH_ELEMENTS", 50)
    chunked = glm.fit_batch(compact, weights, spec)
    assert np.array_equal(chunked.coefficients, whole.coefficients, equal_nan=True)


def test_fit_batch_rejects_a_log_link():
    d = _crude_table([3.0, 5.0, 6.0, 2.0])
    for spec in (ModelSpec("B", ("A",), link="log"),
                 ModelSpec("B", ("A",), family="poisson", link="log")):
        with pytest.raises(ValueError):
            glm.fit_batch(d, d.weights[None, :], spec)


def test_log_binomial_start_stays_below_the_mean_ceiling():
    # Every weighted outcome is 1, so the fitted means are all at the ceiling.
    d = Dataset(["T", "Y"], [[0, 1], [1, 1]], [3.0, 5.0])
    spec = ModelSpec("Y", ("T",), link="log")
    glm.reset_log_binomial_mean_high_water()
    result = fit(d, spec)
    assert result.max_fitted_mean < 1.0
    assert math.exp(result.coefficient("T")) == 1.0
    assert glm.log_binomial_mean_high_water() < 1.0


def test_wald_interval_nesting_and_coverage_of_point():
    d = sample(fixtures.confounder_model(), 5_000, 4)
    result = fit(d, ModelSpec("B", ("A",), link="log"))
    point = math.exp(result.coefficient("A"))
    low95, high95 = wald_interval(result, "A")
    low99, high99 = wald_interval(result, "A", level=0.99)
    assert low99 < low95 < point < high95 < high99


def test_wald_interval_argument_checks():
    d = sample(fixtures.confounder_model(), 1_000, 4)
    result = fit(d, ModelSpec("B", ("A",)))
    with pytest.raises(UnknownTerm):
        wald_interval(result, "missing")


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_normal_quantile_inverts_the_cdf(p):
    x = glm._normal_quantile(p)
    cdf = 0.5 * math.erfc(-x / math.sqrt(2))
    assert cdf == pytest.approx(p, abs=1e-12)


def test_normal_quantile_known_values():
    assert glm._normal_quantile(0.5) == pytest.approx(0.0, abs=1e-12)
    assert glm._normal_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert glm._normal_quantile(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)
    with pytest.raises(ValueError):
        glm._normal_quantile(0.0)


def test_fit_to_dict_round_trips_json():
    import json

    d = sample(fixtures.confounder_model(), 1_000, 4)
    result = fit(d, ModelSpec("B", ("A",)))
    payload = json.loads(json.dumps(result.to_dict()))
    assert payload["coefficients"]["A"] == result.coefficient("A")


def _crude_table(weights):
    return Dataset(("A", "B"), [[0, 0], [0, 1], [1, 0], [1, 1]], weights)


def test_fit_raises_when_working_weights_overflow():
    # With one weight of 1e300 the log-binomial working weights overflow,
    # and least squares would fail inside LAPACK.
    with pytest.raises(WeightOverflow):
        fit(_crude_table([3.0, 1e300, 6.0, 2.0]), ModelSpec("B", ("A",), link="log"))
