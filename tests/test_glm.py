import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from causalkit import fixtures, glm
from causalkit.errors import (
    GlmError,
    IntervalOverflow,
    RankDeficient,
    SeparationSuspected,
    UnknownColumn,
    UnknownTerm,
    WeightOverflow,
)
from causalkit.glm import (
    INTERCEPT, GlmFit, ModelSpec, build_design, fit, predict, wald_interval,
)
from causalkit.scm import Dataset, enumerate_population, sample
from rows import reference_fit, reference_predict, sample_rows, well_posed


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
    d = sample_rows(fixtures.confounder_model(), 50, 1)
    X = build_design(d, ModelSpec("B", ("A", "C"), (("A", "C"),)))
    assert X.shape == (50, 4)
    assert np.all(X[:, 0] == 1.0)
    assert np.array_equal(X[:, 3], X[:, 1] * X[:, 2])
    with pytest.raises(UnknownColumn):
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
    d = sample_rows(fixtures.case_study_model(), 20_000, 77)
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


def test_score_equations_hold_at_convergence():
    # Canonical logit: X' w (y - mu) = 0 at the MLE.
    d = sample_rows(fixtures.case_study_model(), 50_000, 5)
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


@pytest.mark.parametrize("family", ["binomial", "poisson"])
def test_log_link_score_equations_hold_at_convergence(family):
    # X' w (y - mu) (dmu/deta) / V(mu) = 0 at the maximum-likelihood fit.  For
    # the log link dmu/deta = mu, so the log-binomial score weights y - mu by
    # 1 / (1 - mu) and the poisson score by 1.
    compact = sample(fixtures.confounder_model(), 5_000, 13)
    share = compact.weights / compact.weights.sum()
    weights = np.random.default_rng(2).multinomial(5_000, share, size=4).astype(float)
    weights[0] *= np.linspace(0.5, 2.0, compact.n)  # not only whole counts
    spec = ModelSpec("B", ("A", "C"), family=family, link="log")
    batch = glm.fit_batch(compact, weights, spec)
    assert not batch.failed.any()
    X = build_design(compact, spec)
    y = compact.column("B").astype(float)
    for beta, w in zip(batch.coefficients, weights):
        mu = np.exp(X @ beta)
        variance = mu * (1.0 - mu) if family == "binomial" else mu
        score = X.T @ (w * (y - mu) * mu / variance)
        assert np.max(np.abs(score)) / w.sum() < 1e-8


def test_saturated_log_binomial_returns_the_log_cell_means():
    # Each (A, C) cell has both outcomes, so the saturated fit's mean in each
    # cell is the cell's weighted outcome mean, 0.95 in one of them.
    d = Dataset(("A", "C", "B"), list(itertools.product((0, 1), repeat=3)))
    weights = np.array([
        [3.0, 1.0, 2.0, 2.0, 1.0, 19.0, 5.0, 4.0],
        [1.5, 0.5, 7.0, 3.0, 2.0, 2.0, 0.25, 4.75],
    ])
    batch = glm.fit_batch(d, weights, ModelSpec("B", ("A", "C"), (("A", "C"),), link="log"))
    for beta, w in zip(batch.coefficients, weights):
        cells = w.reshape(4, 2)  # (B = 0, B = 1) in cells (0, 0), (0, 1), (1, 0), (1, 1)
        m = np.log(cells[:, 1] / cells.sum(axis=1))
        expected = [m[0], m[2] - m[0], m[1] - m[0], m[3] - m[2] - m[1] + m[0]]
        np.testing.assert_allclose(beta, expected, rtol=1e-10, atol=1e-12)


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


def test_log_binomial_predictions_at_observed_patterns_stay_below_one():
    d = sample(fixtures.confounder_model(), 5_000, 10)
    result = fit(d, ModelSpec("B", ("A", "C"), link="log"))
    assert result.max_fitted_mean < 1.0
    mu = predict(result, d.with_column_set("C", 1))
    assert np.all(mu < 1.0)


def test_log_binomial_high_water_tracking():
    d = sample(fixtures.confounder_model(), 2_000, 12)
    result = fit(d, ModelSpec("B", ("A", "C"), link="log"))
    assert 0.0 < result.max_fitted_mean < 1.0
    assert result.max_fitted_mean >= predict(result, d).max()


def test_log_binomial_prediction_off_the_data_is_not_capped():
    # Risks 0.3, 0.6 and 0.6 on three of the four (a, c) cells fit exactly,
    # with risk ratios of 2 for a and for c; the unseen cell (1, 1) is then
    # predicted at 0.3 * 2 * 2, past one, as the model says.
    d = Dataset(("a", "c", "y"),
                [[0, 0, 0], [0, 0, 1], [1, 0, 0], [1, 0, 1], [0, 1, 0], [0, 1, 1]],
                [7.0, 3.0, 4.0, 6.0, 4.0, 6.0])
    result = fit(d, ModelSpec("y", ("a", "c"), link="log"))
    unseen = Dataset(("a", "c", "y"), [[1, 1, 0]])
    assert predict(result, unseen)[0] == pytest.approx(1.2, rel=1e-9)


def _fit_on_positive_rows(d, weights, spec):
    """reference_fit on the rows of ``d`` with a positive weight, so weighted."""
    keep = weights > 0
    return reference_fit(Dataset(d.columns, d.values[keep], weights[keep]), spec)


@pytest.mark.parametrize("spec", [
    ModelSpec("B", ("A", "C"), (("A", "C"),)),  # G-computation with interactions
    ModelSpec("B", ("A", "C")),  # G-computation on main effects
    ModelSpec("A", ("C",)),  # an IPW propensity model
    ModelSpec("B", ("A",), link="log"),  # the crude log-binomial fit
    ModelSpec("B", ("A",), family="poisson", link="log"),
    ModelSpec("B", ("A", "C"), link="log"),  # an adjusted log-binomial fit
])
def test_fit_batch_matches_fit_on_each_weight_row(spec):
    compact = sample(fixtures.confounder_model(), 2_000, 3)
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
        np.testing.assert_allclose(mu[i], reference_predict(reference, compact), rtol=1e-12)


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
    assert batch.errors[0] is None
    for row, error in zip(weights[1:], batch.errors[1:]):
        with pytest.raises(GlmError) as raised:
            _fit_on_positive_rows(d, row, spec)
        assert (type(error), str(error)) == (type(raised.value), str(raised.value))


_FAMILY_LINKS = (("binomial", "logit"), ("binomial", "log"), ("poisson", "log"))


@st.composite
def _weighted_tables(draw):
    """A table of up to 8 rows of three 0/1 columns, up to 4 weight rows
    over it (zero, whole and fractional weights), and a model of ``y`` on
    a subset of the other two columns in each family and link."""
    n = draw(st.integers(1, 8))
    cell = st.integers(0, 1)
    values = draw(st.lists(st.tuples(cell, cell, cell), min_size=n, max_size=n))
    weight = st.one_of(st.just(0.0), st.integers(1, 20).map(float),
                       st.floats(0.01, 50.0, allow_nan=False))
    weights = draw(st.lists(st.lists(weight, min_size=n, max_size=n), min_size=1, max_size=4))
    family, link = draw(st.sampled_from(_FAMILY_LINKS))
    terms = draw(st.sampled_from(((), ("a",), ("a", "b"))))
    return (Dataset(("a", "b", "y"), np.array(values, dtype=np.uint8)), np.array(weights),
            ModelSpec("y", terms, family=family, link=link))


@pytest.mark.budget
@settings(deadline=None)
@given(case=_weighted_tables())
def test_fit_batch_matches_reference_fit(case):
    d, weights, spec = case
    batch = glm.fit_batch(d, weights, spec)
    for i, row in enumerate(weights):
        try:
            reference = _fit_on_positive_rows(d, row, spec)
        except GlmError as exc:
            reference = exc
        error = batch.errors[i]
        if not well_posed(d, row, spec):
            # The likelihood's maximum lies at infinity, and each loop stops
            # where rounding takes it: past the separation bound on some
            # iterate, or once the log-binomial step-halving has shrunk every
            # coefficient's step below the tolerance.  Only the outcome is
            # compared.  A reference error raised while inverting the
            # information comes after its IRLS converged, and fit_batch
            # computes no covariance.
            if isinstance(reference, GlmFit) or isinstance(reference.__cause__,
                                                           np.linalg.LinAlgError):
                assert error is None
            else:
                assert type(error) is type(reference)
        elif isinstance(reference, GlmError):
            assert (type(error), str(error)) == (type(reference), str(reference))
            assert np.isnan(batch.coefficients[i]).all()
        else:
            assert error is None
            np.testing.assert_allclose(batch.coefficients[i], list(reference.coefficients.values()),
                                       rtol=1e-12, atol=1e-14)


def test_fit_batch_in_chunks_equals_one_batch(monkeypatch):
    compact = sample(fixtures.confounder_model(), 500, 8)
    share = compact.weights / compact.weights.sum()
    weights = np.random.default_rng(9).multinomial(500, share, size=11).astype(float)
    spec = ModelSpec("B", ("A", "C"))
    whole = glm.fit_batch(compact, weights, spec)
    # The model's 3 parameters on at most 8 distinct rows: fits of 24
    # elements or fewer, so a budget of 50 makes chunks of 2 or more fits.
    monkeypatch.setattr(glm, "BATCH_ELEMENTS", 50)
    chunked = glm.fit_batch(compact, weights, spec)
    assert np.array_equal(chunked.coefficients, whole.coefficients, equal_nan=True)
    assert [str(e) for e in chunked.errors] == [str(e) for e in whole.errors]


def test_log_binomial_start_stays_below_the_mean_ceiling():
    # Every weighted outcome is 1, so the fitted means are all at the ceiling.
    d = Dataset(["T", "Y"], [[0, 1], [1, 1]], [3.0, 5.0])
    spec = ModelSpec("Y", ("T",), link="log")
    result = fit(d, spec)
    assert result.max_fitted_mean < 1.0
    assert math.exp(result.coefficient("T")) == 1.0


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
    # wald_interval stops in coefficient; std_error checks the term itself.
    with pytest.raises(UnknownTerm):
        result.std_error("missing")


def test_wald_interval_past_the_largest_float_raises():
    result = GlmFit(ModelSpec("y", ("x",)), {INTERCEPT: 0.0, "x": 0.0}, np.diag([1.0, 1e6]),
                    iterations=1, max_fitted_mean=0.0)
    with pytest.raises(IntervalOverflow):
        wald_interval(result, "x")


def _wald_z(p):
    """The normal quantile at ``p`` that ``wald_interval`` uses for the level
    ``2p - 1``: the log half-width over the standard error, here 1."""
    result = GlmFit(ModelSpec("y", ("x",)), {INTERCEPT: 0.0, "x": 0.0}, np.eye(2),
                    iterations=1, max_fitted_mean=0.0)
    low, high = wald_interval(result, "x", level=2.0 * p - 1.0)
    return (math.log(high) - math.log(low)) / 2.0


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
@settings(max_examples=200, deadline=None)
def test_normal_quantile_inverts_the_cdf(p):
    x = _wald_z(p)
    cdf = 0.5 * math.erfc(-x / math.sqrt(2))
    assert cdf == pytest.approx(p, abs=1e-12)


def test_normal_quantile_known_values():
    assert _wald_z(0.5) == pytest.approx(0.0, abs=1e-12)
    assert _wald_z(0.975) == pytest.approx(1.959963984540054, abs=1e-9)
    assert _wald_z(0.995) == pytest.approx(2.5758293035489004, abs=1e-9)
    with pytest.raises(ValueError):
        _wald_z(0.0)


def _crude_table(weights):
    return Dataset(("A", "B"), [[0, 0], [0, 1], [1, 0], [1, 1]], weights)


def test_fit_raises_when_working_weights_overflow():
    # With one weight of 1e300 the log-binomial working weights overflow,
    # and least squares would fail inside LAPACK.
    with pytest.raises(WeightOverflow):
        fit(_crude_table([3.0, 1e300, 6.0, 2.0]), ModelSpec("B", ("A",), link="log"))


def test_fit_raises_when_information_weights_overflow():
    # The treated arm's risk lies past the mean ceiling.  The loop's working
    # weights stay finite, but its last step takes that arm's mean so close
    # to one that the information weight w * mu / (1 - mu) at the solution
    # overflows, and the covariance's SVD would run on inf.
    with pytest.raises(WeightOverflow):
        fit(_crude_table([3e304, 2e298, 1.0, 8e298]), ModelSpec("B", ("A",), link="log"))


@pytest.mark.budget
@settings(deadline=None)
@given(cells=st.lists(st.floats(0.0, 9.0).map(lambda e: round(10.0**e)), min_size=4, max_size=4))
@example(cells=[100, 2, 1, 300_000_000])
def test_crude_log_binomial_fit_matches_the_closed_form(cells):
    # On a 2 x 2 frequency table the fit of y ~ a is saturated: exp of the a
    # coefficient is the ratio of the arm risks, and the inverse information
    # is Katz's variance of the log ratio at the fitted means.  Inverting
    # X'WX, which squares the design's condition number, refuses some of
    # these tables as rank deficient and gives others too small an error.
    c00, c01, c10, c11 = map(float, cells)
    d = _crude_table([c00, c01, c10, c11])
    try:
        result = fit(d, ModelSpec("B", ("A",), link="log"))
    except GlmError:
        return
    n0, n1 = c00 + c01, c10 + c11
    assert math.exp(result.coefficient("A")) == pytest.approx((c11 / n1) / (c01 / n0), rel=1e-5)
    mu0, mu1 = predict(result, d)[[0, 2]]
    katz = math.sqrt((1.0 - mu1) / (n1 * mu1) + (1.0 - mu0) / (n0 * mu0))
    assert result.std_error("A") == pytest.approx(katz, rel=1e-6)
