import contextlib
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from causalkit import estimators, fixtures, glm
from causalkit.errors import (
    BootstrapDegenerate,
    BootstrapSpecError,
    CausalKitError,
    DegenerateArm,
    EstimatorError,
    GlmError,
    InconsistentFit,
    InsufficientReplicates,
    ProbabilityOutOfRange,
    PropensityAtBound,
    RankDeficient,
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
from causalkit.rng import mix
from causalkit.scm import (
    Dataset,
    NodeEquation,
    SelectionRule,
    StructuralModel,
    enumerate_population,
    sample,
)
from rows import reference_arm_ratio, reference_fit, reference_predict, sample_rows, well_posed

T = fixtures.CHILDCARE
Y = fixtures.CONDUCT_SCHOOL
CE = fixtures.CONDUCT_ENTRY


@pytest.fixture(scope="module")
def case_sample():
    # Rows: the tests compare the estimators with row-level arithmetic.
    return sample_rows(fixtures.case_study_model(), 50_000, 314159)


@pytest.fixture(scope="module")
def triple_sample():
    # The counts table, which the bootstrap resamples as it is given.
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
    rows = sample_rows(fixtures.confounder_model(), 20_000, 2718)
    counted = unadjusted_rr(triple_sample, "A", "B")
    assert counted.ci_method == "wald"
    assert counted.ci == pytest.approx(unadjusted_rr(rows, "A", "B").ci, abs=1e-9)


def test_degenerate_arm_and_zero_risk_errors():
    values = np.array([[1, 0], [1, 1], [1, 0]], dtype=np.uint8)
    with pytest.raises(DegenerateArm):
        unadjusted_rr(Dataset(("t", "y"), values), "t", "y")
    values = np.array([[0, 0], [0, 0], [1, 1], [1, 0]], dtype=np.uint8)
    with pytest.raises((ZeroRiskControlArm, SeparationSuspected)):
        unadjusted_rr(Dataset(("t", "y"), values), "t", "y")


def _table(columns, rows):
    """A weighted dataset from rows of values followed by a weight."""
    rows = np.array(rows, dtype=np.float64).reshape(-1, len(columns) + 1)
    return Dataset(columns, rows[:, :-1], rows[:, -1])


_TYC = ("t", "y", "c")
# Every configuration of t, y and c.
_SPREAD = [[0, 0, 0, 3], [0, 1, 0, 2], [1, 0, 0, 2], [1, 1, 0, 3],
           [0, 0, 1, 2], [0, 1, 1, 2], [1, 0, 1, 1], [1, 1, 1, 2]]


def _propensity_at_bound_table():
    """Five adjusters: 1 treated row to 600 untreated where exactly one
    adjuster is 1, none treated where two or more are.  The propensity fit
    converges inside the separation bound, to a propensity below 1e-12."""
    columns = ("t", "y") + tuple(f"c{i}" for i in range(5))
    rows = []
    for cells in itertools.product((0, 1), repeat=5):
        ones = sum(cells)
        weights = ((1, 1, 1, 1) if ones == 0 else (300, 300, 0, 1) if ones == 1
                   else (1, 1, 0, 0))
        rows += [[t, y, *cells, w] for (t, y), w in zip(((0, 0), (0, 1), (1, 0), (1, 1)), weights)]
    return _table(columns, [row for row in rows if row[-1]]), columns[2:]


@pytest.mark.parametrize("estimator, d, adjust, error, message", [
    (g_computation_rr, _table(_TYC, [[0, 0, 0, 3], [0, 1, 0, 2], [1, 0, 0, 2], [1, 1, 0, 3],
                                     [0, 1, 1, 2], [1, 1, 1, 2]]), ("c",),
     SeparationSuspected, "coefficient for 'c' diverged to 30.1; data may be separable"),
    (ipw_rr, _table(_TYC, [[1, 0, 0, 3], [1, 1, 0, 2], [1, 0, 1, 3], [1, 1, 1, 2]]), ("c",),
     SeparationSuspected, "coefficient for '(intercept)' diverged to 30.0; data may be separable"),
    (g_computation_rr, _table(_TYC, _SPREAD), ("c", "c"),
     RankDeficient, "design matrix has rank 3 < 4 columns"),
    (ipw_rr, _table(_TYC, _SPREAD), ("c", "c"),
     RankDeficient, "design matrix has rank 2 < 3 columns"),
    (ipw_rr, *_propensity_at_bound_table(),
     PropensityAtBound, "estimated propensity 1.28558e-14 is at the boundary of (0, 1)"),
    (ipw_rr, _table(("t", "y"), [[0, 0, 3], [1, 0, 1], [1, 1, 2]]), (),
     ZeroRiskControlArm, "control-arm risk of 'y' is zero; ratio undefined"),
    (ipw_rr, _table(_TYC, [[0, 0, 0, 3], [1, 0, 0, 1], [1, 1, 0, 2], [0, 0, 1, 1], [1, 1, 1, 2]]),
     ("c",), ZeroRiskControlArm, "control-arm risk of 'y' is zero; ratio undefined"),
    (ipw_rr, _table(("t", "y"), [[1, 0, 3], [1, 1, 2]]), (),
     DegenerateArm, "treatment arm t=0 is empty"),
    (g_computation_rr, _table(("t", "y"), [[1, 0, 3], [1, 1, 2]]), (),
     RankDeficient, "design matrix has rank 1 < 2 columns"),
    (g_computation_rr, _table(("t", "y"), []), (), GlmError, "no rows with positive weight"),
    (ipw_rr, _table(_TYC, []), ("c",), GlmError, "no rows with positive weight"),
    (ipw_rr, _table(("t", "y"), []), (), DegenerateArm, "treatment arm t=1 is empty"),
], ids=["g-separation", "ipw-separation", "g-repeated-adjuster", "ipw-repeated-adjuster",
        "ipw-propensity-at-bound", "ipw-zero-control-risk", "ipw-adjusted-zero-control-risk",
        "ipw-empty-arm", "g-empty-arm", "g-no-weight", "ipw-adjusted-no-weight",
        "ipw-no-weight"])
def test_point_estimate_failures_raise_their_one_line_error(estimator, d, adjust, error, message):
    with _warnings_raise(), pytest.raises(CausalKitError) as raised:
        estimator(d, "t", "y", adjust)
    assert (type(raised.value), str(raised.value)) == (error, message)


# ---------------------------------------------------------------------------
# Bootstrap


def _constant(compact, counts):
    return np.ones(len(counts)), np.full(len(counts), None, dtype=object)


def test_bootstrap_constant_statistic_gives_point_interval(triple_sample):
    spec = BootstrapSpec(replicates=50, seed=9)
    (low, high), diag = bootstrap_ci(triple_sample, _constant, spec)
    assert (low, high) == (1.0, 1.0)
    assert diag["bootstrap_failures"] == 0
    assert diag["bootstrap_se"] == 0.0


def test_bootstrap_draws_follow_the_pinned_numpy_stream():
    # bootstrap_ci draws replicate i as this multinomial.  NEP 19 lets numpy
    # change a Generator's stream between versions, which moves every
    # bootstrap interval, the `reproduce all` sha256 and the recorded
    # benchmark digests with no change in causalkit; this test names that
    # cause.
    weights = np.arange(1.0, 17.0) ** 2
    counts = np.random.default_rng(mix(20230101, 0)).multinomial(100_000, weights / weights.sum())
    digest = hashlib.sha256(counts.astype("<i8").tobytes()).hexdigest()
    assert digest == "40b725899bb025d350f4eedef4f14eef5685f72523ca3468093a268f2a2da5ca", (
        f"numpy {np.__version__} changed its Generator stream (NEP 19): "
        "default_rng(seed).multinomial draws other counts, so bootstrap intervals "
        "and the `reproduce all` output move with it"
    )


def test_bootstrap_deterministic_and_chunked_identical(triple_sample, monkeypatch):
    spec = BootstrapSpec(replicates=80, seed=123)

    def stat(compact, counts):
        # IPW without adjusters is the crude risk ratio of each replicate.
        return METHODS["ipw"].batch(compact, counts, "A", "B")

    whole = bootstrap_ci(triple_sample, stat, spec)
    assert bootstrap_ci(triple_sample, stat, spec) == whole
    # One replicate per chunk.
    monkeypatch.setattr(glm, "BATCH_ELEMENTS", 1)
    assert bootstrap_ci(triple_sample, stat, spec) == whole
    other, _ = bootstrap_ci(triple_sample, stat, BootstrapSpec(80, 124))
    assert other != whole[0]


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
        bootstrap_ci(triple_sample, _constant, BootstrapSpec(10, 0))
    # 40 replicates just meets the 95% minimum of ceil(2 / 0.05) = 40.
    assert BootstrapSpec(40, 0).minimum_replicates() == 40
    bootstrap_ci(triple_sample, _constant, BootstrapSpec(40, 0))


def test_bootstrap_counts_failed_replicates_by_cause():
    # Resamples that miss all three (t, y, c) = (0, 0, 1) rows leave c = 1
    # with only y = 1, so the outcome model separates on c.
    d = _table(_TYC, [[0, 0, 0, 10], [0, 1, 0, 5], [1, 0, 0, 8], [1, 1, 0, 7],
                      [0, 0, 1, 3], [0, 1, 1, 6], [1, 1, 1, 6]])
    estimate = g_computation_rr(d, "t", "y", ("c",), bootstrap=BootstrapSpec(200, 0))
    failures = estimate.diagnostics["bootstrap_failures"]
    assert 0 < failures <= 40
    assert estimate.diagnostics["bootstrap_failure_causes"] == {"SeparationSuspected": failures}


def test_bootstrap_degenerate_when_replicates_fail(triple_sample):
    def flaky(compact, counts):
        return np.full(len(counts), np.nan), np.array([GlmError("flaky")] * len(counts))

    with pytest.raises(BootstrapDegenerate, match=r"^50/50 .* \(> 20% tolerated\)$"):
        bootstrap_ci(triple_sample, flaky, BootstrapSpec(50, 0))


def test_bootstrap_degenerate_names_the_tolerated_fraction(triple_sample, monkeypatch):
    def one_failure(compact, counts):
        estimates, errors = np.ones(len(counts)), np.array([None] * len(counts))
        estimates[0], errors[0] = np.nan, GlmError("flaky")
        return estimates, errors

    monkeypatch.setattr(estimators, "BOOTSTRAP_FAILURE_FRACTION", 0.01)
    with pytest.raises(BootstrapDegenerate, match=r"^1/50 .* \(> 1% tolerated\)$"):
        bootstrap_ci(triple_sample, one_failure, BootstrapSpec(50, 0))


def test_bootstrap_rejects_probability_weights():
    from causalkit.scm import enumerate_population

    population = enumerate_population(fixtures.confounder_model())
    with pytest.raises(ValueError):
        bootstrap_ci(population, _constant, BootstrapSpec(50, 0))


def _replicate_counts(compact, replicates, seed):
    """Replicate count rows as bootstrap_ci draws them: row i from mix(seed, i)."""
    w = compact.weights
    return np.array(
        [np.random.default_rng(mix(seed, i)).multinomial(int(w.sum()), w / w.sum())
         for i in range(replicates)],
        dtype=np.float64,
    )


@st.composite
def _bootstrap_cases(draw):
    """Replicate counts of a 20-300 row sample from a random model of 3-5
    binary nodes, and an analysis of it by any method, with up to two
    adjusters where the method takes them.
    Probabilities are hundredths and reach 0 and 1 in some parent
    configurations, so arms empty, outcomes separate and replicates fail."""
    k = draw(st.integers(3, 5))
    equations = []
    for j in range(k):
        parents = draw(st.lists(st.integers(0, j - 1), unique=True, max_size=2)) if j else []
        low = high = draw(st.integers(10, 90))
        intercept = low
        coefficients = []
        for parent in parents:
            c = draw(st.integers(-low, 100 - high))
            low, high = low + min(c, 0), high + max(c, 0)
            coefficients.append((f"v{parent}", c / 100))
        equations.append(NodeEquation(f"v{j}", intercept / 100, tuple(coefficients)))
    try:
        model = StructuralModel(tuple(equations))
    except ProbabilityOutOfRange:
        # A float sum of hundredths can round past 1.
        assume(False)
    names = draw(st.permutations(model.node_names()))
    treatment, outcome = names[:2]
    method, options = draw(st.sampled_from([
        ("unadjusted", {}),
        ("outcome_regression", {"family": "binomial"}),
        ("outcome_regression", {"family": "poisson"}),
        ("g_computation", {"interactions": False}),
        ("g_computation", {"interactions": True}),
        ("ipw", {}),
    ]))
    if "adjust" in METHODS[method].options:
        options = dict(options, adjust=names[2:2 + draw(st.integers(0, 2))])
    compact = sample(model, draw(st.integers(20, 300)), draw(st.integers(0, 2**32)))
    counts = _replicate_counts(compact, 12, draw(st.integers(0, 2**32)))
    return compact, counts, method, treatment, outcome, options


@contextlib.contextmanager
def _warnings_raise():
    """Warnings as errors, since a warning would reach the CLI's stderr.
    Not a filterwarnings mark: that would also turn into an error the
    warning hypothesis's own failure report raises, and hide the report."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        yield


def _reference_point(method, d, treatment, outcome, adjust=(), interactions=False,
                     family="binomial"):
    """A method on ``d`` through reference_fit, reference_predict and
    reference_arm_ratio, one table at a time, raising the estimator's typed
    errors in its order.  The unadjusted ratio is IPW's with no adjusters."""
    w = d.weights
    if method == "outcome_regression":
        spec = glm.ModelSpec(outcome, (treatment, *adjust), family=family, link="log")
        return math.exp(reference_fit(d, spec, covariance=False).coefficient(treatment))
    if method == "g_computation":
        pairs = tuple((treatment, a) for a in adjust) if interactions else ()
        fit = reference_fit(d, glm.ModelSpec(outcome, (treatment, *adjust), pairs))
        treated, control = (
            np.dot(w / w.sum(), reference_predict(fit, d.with_column_set(treatment, value)))
            for value in (1, 0)
        )
        if control <= 0.0:
            raise ZeroRiskControlArm(outcome)
        return treated / control
    ipw = 1.0
    if adjust:
        p = reference_predict(reference_fit(d, glm.ModelSpec(treatment, tuple(adjust))), d)
        bound = estimators.PROPENSITY_EPS
        at_bound = p[(p <= bound) | (p >= 1.0 - bound)]
        if at_bound.size:
            raise PropensityAtBound(float(at_bound[0]))
        ipw = np.where(d.column(treatment) == 1, 1.0 / p, 1.0 / (1.0 - p))
    return reference_arm_ratio(Dataset(d.columns, d.values, w * ipw), treatment, outcome)


def _looped(method, compact, counts, treatment, outcome, **options):
    """The reference once per replicate, on the rows with a positive count:
    the estimates, NaN where it raised, and the class it raised or None."""
    estimates, raised = [], []
    for c in counts:
        rep = Dataset(compact.columns, compact.values[c > 0], c[c > 0])
        try:
            estimates.append(_reference_point(method, rep, treatment, outcome, **options))
            raised.append(None)
        except (GlmError, EstimatorError) as exc:
            estimates.append(np.nan)
            raised.append(type(exc))
    return np.array(estimates), raised


def _classes(errors):
    return [None if error is None else type(error) for error in errors]


def _described(errors):
    return [None if error is None else (type(error), str(error)) for error in errors]


@pytest.mark.budget
@settings(deadline=None)
@given(case=_bootstrap_cases())
def test_batched_statistic_matches_the_point_function_per_replicate(case):
    compact, counts, method, treatment, outcome, options = case
    with _warnings_raise():
        batched, errors = METHODS[method].batch(compact, counts, treatment, outcome, **options)
        looped, raised = _looped(method, compact, counts, treatment, outcome, **options)
    compared = np.ones(len(counts), dtype=bool)
    if method == "outcome_regression":
        # Where a design row has one outcome only, the log-link likelihood's
        # maximum lies on the boundary, and each loop ends where rounding
        # takes it: converged, past the separation bound or out of
        # iterations (see test_glm.py).  Only the other replicates compare.
        spec = glm.ModelSpec(outcome, (treatment, *options["adjust"]))
        compared = np.array([well_posed(compact, c, spec) for c in counts])
    assert (list(itertools.compress(_classes(errors), compared))
            == list(itertools.compress(raised, compared)))
    np.testing.assert_array_equal(np.isnan(batched[compared]), np.isnan(looped[compared]))
    np.testing.assert_allclose(batched[compared], looped[compared], rtol=1e-12, atol=0.0)


@pytest.mark.budget
@settings(deadline=None)
@given(case=_bootstrap_cases())
def test_batched_statistic_does_not_depend_on_the_batch(case):
    compact, counts, method, treatment, outcome, options = case
    batch = METHODS[method].batch
    with _warnings_raise():
        whole, errors = batch(compact, counts, treatment, outcome, **options)
    for size in (1, 7):
        with _warnings_raise():
            parts = [
                batch(compact, counts[i:i + size], treatment, outcome, **options)
                for i in range(0, len(counts), size)
            ]
        assert np.array_equal(np.concatenate([p[0] for p in parts]), whole, equal_nan=True)
        assert _described(e for p in parts for e in p[1]) == _described(errors)


def test_ipw_bootstrap_fits_no_log_binomial_model(triple_sample, monkeypatch):
    # IPW's outcome step is a ratio of weighted arm means, and its point
    # estimate and its replicates both run the batched statistic, so no
    # glm.fit runs at all.
    specs = []
    original = glm.fit

    def recording_fit(dataset, spec):
        specs.append(spec)
        return original(dataset, spec)

    monkeypatch.setattr(glm, "fit", recording_fit)
    ipw_rr(triple_sample, "A", "B", ("C",), bootstrap=BootstrapSpec(replicates=60, seed=21))
    assert specs == []


def test_ipw_ratio_is_exact_where_the_treated_arm_mean_is_one():
    # (t, y) = (0, 0) x 39, (0, 1) x 1, (1, 1) x 20: p1 = 1, p0 = 1/40.
    d = Dataset(("t", "y"), [[0, 0], [0, 1], [1, 1]], [39.0, 1.0, 20.0])
    assert ipw_rr(d, "t", "y").risk_ratio == 40.0
    counts = d.weights[None, :]
    assert METHODS["ipw"].batch(d, counts, "t", "y")[0].tolist() == [40.0]


def test_bootstrap_draws_and_estimates_within_the_element_budget(triple_sample, monkeypatch):
    spec = BootstrapSpec(replicates=60, seed=31)
    m = triple_sample.n
    sizes = []

    def stat(compact, counts):
        sizes.append(counts.size)
        return METHODS["ipw"].batch(compact, counts, "A", "B", adjust=("C",))

    whole = bootstrap_ci(triple_sample, stat, spec)
    assert sizes == [60 * m]
    sizes.clear()
    monkeypatch.setattr(glm, "BATCH_ELEMENTS", 7 * m)
    assert bootstrap_ci(triple_sample, stat, spec) == whole
    assert sizes == [7 * m] * 8 + [4 * m]


@pytest.mark.parametrize("method", list(METHODS))
def test_method_point_is_the_sample_estimators_ratio(method, case_sample, triple_sample):
    # The batched statistic on a batch of one gives, bit for bit, the ratio
    # the sample estimator reports: on rows, on counts and on probabilities,
    # unadjusted and adjusted, in both outcome-regression families.
    population = enumerate_population(fixtures.case_study_model())
    for d, treatment, outcome, adjust in (
        (case_sample, T, Y, ()),
        (case_sample, T, Y, (CE,)),
        (triple_sample, "A", "B", ("C",)),
        (population, T, Y, (CE, fixtures.EDUCATION)),
    ):
        for family in ("binomial", "poisson"):
            given = {"adjust": adjust, "family": family}
            options = {k: v for k, v in given.items() if k in METHODS[method].options}
            estimator = getattr(estimators, METHODS[method].estimator)
            ratio = estimator(d, treatment, outcome, **options).risk_ratio
            assert METHODS[method].point(d, treatment, outcome, **options) == ratio


def test_bootstrap_spec_validation():
    with pytest.raises(ValueError):
        BootstrapSpec(replicates=0)
    with pytest.raises(ValueError):
        BootstrapSpec(level=1.0)
    # The seed must be an integer; a JSON true is not one.
    for seed in (1.5, True):
        with pytest.raises(BootstrapSpecError, match="bootstrap seed must be an integer"):
            BootstrapSpec(200, seed)


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
    # point estimate on the whole enumerated joint is the reference.  Only
    # the order of the weight sums changes, so float64 rounding bounds the gap.
    model = fixtures.case_study_model()
    options = {"adjust": (CE, fixtures.EDUCATION), "interactions": True, "family": "poisson"}
    taken = {k: v for k, v in options.items() if k in METHODS[method].options}
    joint = enumerate_population(model, selection)
    reference = METHODS[method].point(joint, T, Y, **taken)
    value = population_estimand(model, method, T, Y, selection=selection, **options)
    assert value == pytest.approx(reference, rel=1e-12)


def test_population_estimand_unknown_method():
    with pytest.raises(ValueError):
        population_estimand(fixtures.confounder_model(), "magic", "A", "B")


@pytest.mark.parametrize("weights, counts", [
    ([2.0**52, 2.0**52], True),
    ([2.0**53, 2.0], False),  # past 2^53 a float no longer holds every count
    ([3.0, 1e19], False),
    ([0.5, 1.5], False),
])
def test_frequency_weights_are_whole_counts_summing_to_at_most_2_53(weights, counts):
    d = Dataset(("A", "B"), [[0, 1], [1, 0]], weights)
    assert estimators._frequency_weighted(d) is counts


@pytest.mark.parametrize("weight", [4e10, 1e14])
def test_unadjusted_refuses_a_fit_that_disagrees_with_the_arm_means(weight):
    # The crude log-binomial fit crosses the mean ceiling on these weights
    # and stops at a ratio other than the arm means' 0.25.
    d = Dataset(("A", "B"), [[0, 0], [0, 1], [1, 0], [1, 1]], [3.0, weight, 6.0, 2.0])
    with pytest.raises(InconsistentFit, match="arm means give 0.25"):
        unadjusted_rr(d, "A", "B")
