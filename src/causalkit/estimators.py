"""Average-causal-effect risk ratios: unadjusted, outcome regression,
G-computation and inverse probability weighting, plus the exact population
estimand of each method computed on the exact margin of its columns
(:func:`causalkit.scm.population_margin`).

Because every column is binary, the estimators run on the configuration-counts
table: one row per distinct configuration, weighted by its count.  Each data
source enters it once: :meth:`Dataset.from_csv` reads a file straight into
counts, and ``run_scenario`` samples straight into counts with
:func:`causalkit.scm.sample` and selects from that table.  A
frequency-weighted fit on the counts is the same fit as on the raw rows.

Every method is one batched statistic, which estimates a table once per row
of a count matrix with at most one :func:`glm.fit_batch` per model,
returning each failed row's typed error next to its NaN.  A point estimate
is that statistic on the table's own weights, a batch of one.  The unadjusted
ratio is IPW's with no adjusters, the ratio of the arm means, and outcome
regression's is exp of the treatment coefficient of one log-link fit.  Those
two report the Wald interval of a log-link fit; G-computation and IPW take a
``bootstrap`` option and report bootstrap percentile intervals.

The bootstrap resamples whole rows with replacement, drawn as a multinomial
over the rows of the counts table it is given, distributionally identical
to index resampling and fast at any sample size; replicate ``i`` is seeded
with ``mix(master_seed, i)``.  Every replicate shares the table's design and
differs only in its counts, so the statistic estimates all replicates at
once, in chunks of at most ``glm.BATCH_ELEMENTS`` counts; a replicate's
arithmetic does not depend on the others in its batch, so the chunking does
not change a bit of the interval.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import glm
from .errors import (
    BootstrapDegenerate,
    BootstrapSpecError,
    DegenerateArm,
    InconsistentFit,
    InsufficientReplicates,
    NotFrequencyWeighted,
    PropensityAtBound,
    WeightOverflow,
    ZeroRiskControlArm,
)
from .rng import mix
from .scm import Dataset, SelectionRule, StructuralModel, population_margin

PROPENSITY_EPS = 1e-12
BOOTSTRAP_FAILURE_FRACTION = 0.2


@dataclass(frozen=True)
class BootstrapSpec:
    """Bootstrap configuration: replicate count, master seed, coverage level."""

    replicates: int = 200
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        # ``type(...) is int`` also turns away a JSON true or false.
        if type(self.replicates) is not int or self.replicates < 1:
            raise BootstrapSpecError(
                f"bootstrap replicates must be a positive integer, not {self.replicates!r}"
            )
        if type(self.seed) is not int:
            raise BootstrapSpecError(f"bootstrap seed must be an integer, not {self.seed!r}")
        if type(self.level) not in (int, float) or not 0.0 < self.level < 1.0:
            raise BootstrapSpecError(f"coverage level must be in (0, 1), not {self.level!r}")

    def minimum_replicates(self) -> int:
        return math.ceil(2.0 / (1.0 - self.level))


@dataclass(frozen=True)
class EffectEstimate:
    method: str
    treatment: str
    outcome: str
    adjustment: Tuple[str, ...]
    risk_ratio: float
    ci: Optional[Tuple[float, float]]
    ci_method: str
    n: float
    diagnostics: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Batched statistics.  Each estimates a counts table once per row of a
# (replicates, rows) count matrix, with one glm.fit_batch per model:
# replicate r is the estimate on the rows with a positive count in
# row r, weighted by those counts.  Each returns the estimates and an object
# array of errors: NaN and the error of the first failed check, else None.


def _blame(errors: np.ndarray, replicates: np.ndarray, error: Callable[[int], Exception]) -> None:
    """Record ``error(r)`` for each replicate ``r`` in ``replicates`` that
    has no error yet, so that the first failed check names the failure."""
    for r in np.flatnonzero(replicates & np.equal(errors, None)):
        errors[r] = error(r)


def _outcome_regression_batch(
    compact: Dataset, counts: np.ndarray, treatment: str, outcome: str,
    adjust: Sequence[str] = (), family: str = "binomial",
) -> Tuple[np.ndarray, np.ndarray]:
    spec = glm.ModelSpec(outcome, (treatment, *adjust), family=family, link="log")
    fitted = glm.fit_batch(compact, counts, spec)
    # math.exp, as outcome_regression_rr takes it; np.exp can differ in the last bit.
    return np.array([math.exp(b) for b in fitted.coefficients[:, 1]]), fitted.errors


def _g_computation_batch(
    compact: Dataset, counts: np.ndarray, treatment: str, outcome: str,
    adjust: Sequence[str] = (), interactions: bool = False,
) -> Tuple[np.ndarray, np.ndarray]:
    pairs = tuple((treatment, a) for a in adjust) if interactions else ()
    fitted = glm.fit_batch(compact, counts, glm.ModelSpec(outcome, (treatment, *adjust), pairs))
    share = counts / counts.sum(axis=1, keepdims=True)
    treated, control = (
        (share * glm.predict_batch(fitted, compact.with_column_set(treatment, value))).sum(axis=1)
        for value in (1, 0)
    )
    errors = fitted.errors.copy()
    _blame(errors, ~(control > 0.0), lambda r: ZeroRiskControlArm(outcome))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.equal(errors, None), treated / control, np.nan), errors


def _ipw_batch(
    compact: Dataset, counts: np.ndarray, treatment: str, outcome: str,
    adjust: Sequence[str] = (),
) -> Tuple[np.ndarray, np.ndarray]:
    t = compact.column(treatment).astype(np.float64)
    y = compact.column(outcome).astype(np.float64)
    ipw = 1.0
    errors = np.full(len(counts), None, dtype=object)
    if adjust:
        propensity_fit = glm.fit_batch(compact, counts, glm.ModelSpec(treatment, tuple(adjust)))
        p = glm.predict_batch(propensity_fit, compact)
        observed = counts > 0
        at_bound = observed & ((p <= PROPENSITY_EPS) | (p >= 1.0 - PROPENSITY_EPS))
        errors = propensity_fit.errors.copy()
        _blame(errors, at_bound.any(axis=1),
               lambda r: PropensityAtBound(float(p[r][at_bound[r]][0])))
        usable = np.equal(errors, None)[:, None]
        # Rows that carry no weight get a harmless propensity, and a failed
        # replicate no weight at all.
        p = np.where(observed & usable, p, 0.5)
        ipw = np.where(usable, np.where(t == 1.0, 1.0 / p, 1.0 / (1.0 - p)), 0.0)
    # The arms are masked by multiplying, not by indexing, so that each sum
    # runs along the last axis of a C-ordered array and a replicate's
    # rounding does not depend on the batch.  Weights near the largest float
    # can overflow to inf here, which fails the replicate.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = counts * ipw
        treated, control = weights * t, weights * (1.0 - t)
        w1, w0 = treated.sum(axis=1), control.sum(axis=1)
        p1 = (treated * y).sum(axis=1) / w1
        p0 = (control * y).sum(axis=1) / w0
        _blame(errors, ~(np.isfinite(w1) & np.isfinite(w0)), lambda r: WeightOverflow())
        _blame(errors, ~(w1 > 0.0), lambda r: DegenerateArm(treatment, 1))
        _blame(errors, ~(w0 > 0.0), lambda r: DegenerateArm(treatment, 0))
        _blame(errors, ~(p0 > 0.0), lambda r: ZeroRiskControlArm(outcome))
        return np.where(np.equal(errors, None), p1 / p0, np.nan), errors


# ---------------------------------------------------------------------------
# The methods


@dataclass(frozen=True)
class Method:
    """One estimation method: its table label, the name of its sample
    estimator in this module (looked up at call time), the keyword options
    that estimator takes, and its batched statistic, which takes those
    options but ``bootstrap``.  The methods with the ``bootstrap`` option
    also run the statistic on resampled counts in :func:`bootstrap_ci`."""

    label: str
    estimator: str
    options: Tuple[str, ...]
    batch: Callable[..., Tuple[np.ndarray, np.ndarray]]

    def point(self, d: Dataset, treatment: str, outcome: str, **options) -> float:
        """The risk ratio on ``d``'s own weights: the batched statistic on a
        batch of one, raising the error it returns."""
        estimates, errors = self.batch(d, d.weights[None, :], treatment, outcome,
                                       **options)
        if errors[0] is not None:
            raise errors[0]
        return float(estimates[0])


METHODS: Dict[str, Method] = {
    "unadjusted": Method("No adjustment", "unadjusted_rr", (), _ipw_batch),
    "outcome_regression": Method("Outcome regression", "outcome_regression_rr",
                                 ("adjust", "family"), _outcome_regression_batch),
    "g_computation": Method("G-computation", "g_computation_rr",
                            ("adjust", "interactions", "bootstrap"), _g_computation_batch),
    "ipw": Method("IPW", "ipw_rr", ("adjust", "bootstrap"), _ipw_batch),
}


# ---------------------------------------------------------------------------
# Sample estimators


def _frequency_weighted(d: Dataset) -> bool:
    """Whether the weights are whole-number counts, so that the total
    weight is a sample size; probability weights are not.  Nor are weights
    summing past 2^53, where floats stop holding every whole count and a
    resample's size stops fitting a C long."""
    w = d.weights
    return bool(w.sum() <= 2.0**53 and np.allclose(w, np.round(w), rtol=0.0, atol=1e-9))


def _wald(
    method: str, d: Dataset, treatment: str, outcome: str, adjust: Sequence[str],
    ratio: float, fit: glm.GlmFit, **diagnostics,
) -> EffectEstimate:
    """The estimate with the Wald interval of ``fit``'s treatment coefficient,
    or with none on probability weights, where it would take the total
    weight for a sample size."""
    diagnostics.update(max_fitted_mean=fit.max_fitted_mean)
    ci = glm.wald_interval(fit, treatment) if _frequency_weighted(d) else None
    return EffectEstimate(
        method, treatment, outcome, tuple(adjust), ratio, ci,
        "none" if ci is None else "wald", d.total_weight(), diagnostics,
    )


def _log_link_fit(d: Dataset, treatment: str, outcome: str, adjust: Sequence[str] = (),
                  family: str = "binomial") -> glm.GlmFit:
    return glm.fit(d, glm.ModelSpec(outcome, (treatment, *adjust), family=family, link="log"))


def unadjusted_rr(d: Dataset, treatment: str, outcome: str) -> EffectEstimate:
    """Crude risk ratio: weighted outcome means by arm, Wald CI from the
    covariate-free log-binomial fit, whose exp(coefficient) equals the ratio.
    Raises :class:`InconsistentFit` where the two differ by more than a
    relative 1e-6: the fit, and so its interval, went wrong."""
    ratio = METHODS["unadjusted"].point(d, treatment, outcome)
    crude = _log_link_fit(d, treatment, outcome)
    glm_rr = math.exp(crude.coefficient(treatment))
    if not math.isclose(glm_rr, ratio, rel_tol=1e-6):
        raise InconsistentFit(glm_rr, ratio)
    return _wald("unadjusted", d, treatment, outcome, (), ratio, crude, glm_rr=glm_rr)


def outcome_regression_rr(
    d: Dataset,
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    family: str = "binomial",
) -> EffectEstimate:
    """exp(treatment coefficient) of a log-link regression on treatment + adjusters.

    ``family`` is binomial (log-binomial) by default; poisson/log mirrors the
    working-model convention some applied analyses use.  No interactions: the
    treatment coefficient itself is the effect estimate.
    """
    fit = _log_link_fit(d, treatment, outcome, adjust, family)
    return _wald(
        "outcome_regression", d, treatment, outcome, adjust,
        math.exp(fit.coefficient(treatment)), fit,
        family=family, iterations=fit.iterations, se_log_rr=fit.std_error(treatment),
    )


def _bootstrapped(
    method: str, d: Dataset, treatment: str, outcome: str,
    bootstrap: Optional[BootstrapSpec], **options,
) -> EffectEstimate:
    entry = METHODS[method]
    ratio = entry.point(d, treatment, outcome, **options)
    ci, diagnostics = None, {}
    if bootstrap is not None:
        ci, diagnostics = bootstrap_ci(
            d,
            lambda compact, counts: entry.batch(compact, counts, treatment, outcome, **options),
            bootstrap,
        )
    return EffectEstimate(
        method, treatment, outcome, options["adjust"], ratio, ci,
        "none" if ci is None else "bootstrap_percentile", d.total_weight(), diagnostics,
    )


def g_computation_rr(
    d: Dataset,
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    interactions: bool = False,
    bootstrap: Optional[BootstrapSpec] = None,
) -> EffectEstimate:
    """Standardisation: fit a logistic outcome model, predict everyone under
    treatment forced to 1 and to 0, and take the ratio of the averages."""
    return _bootstrapped(
        "g_computation", d, treatment, outcome, bootstrap,
        adjust=tuple(adjust), interactions=interactions,
    )


def ipw_rr(
    d: Dataset,
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    bootstrap: Optional[BootstrapSpec] = None,
) -> EffectEstimate:
    """Inverse probability of treatment weighting.

    Step 1 models the treatment on the adjusters by logistic regression and
    weights each row by the inverse probability of the treatment it received.
    Step 2 is the Hajek ratio of the IP-weighted arm means of the outcome:
    the maximum-likelihood estimate of the saturated marginal structural
    model, a weighted log-binomial of the outcome on the treatment alone, in
    closed form.
    """
    return _bootstrapped("ipw", d, treatment, outcome, bootstrap, adjust=tuple(adjust))


# ---------------------------------------------------------------------------
# Bootstrap


def bootstrap_ci(
    d: Dataset,
    statistic: Callable[[Dataset, np.ndarray], Tuple[np.ndarray, np.ndarray]],
    spec: BootstrapSpec,
) -> Tuple[Tuple[float, float], dict]:
    """Nonparametric percentile interval for ``statistic`` over row resampling.

    Replicate ``i`` resamples the rows as multinomial counts over the rows
    of ``d`` in proportion to their weights, drawn from ``mix(spec.seed, i)``.
    ``statistic(d, counts)`` takes that table and a (b, m) matrix of
    replicate counts, one row per replicate, and returns the b estimates and
    a length-b object array of errors: NaN and the error that stopped the
    replicate where its estimation failed, None elsewhere.  The replicates
    are drawn and estimated in chunks of at most :data:`glm.BATCH_ELEMENTS`
    counts; a replicate's estimate must not depend on the other rows of
    ``counts``, so that the interval does not depend on the chunking.

    Returns the interval and a diagnostics dict with the replicate and
    failure counts, the failures counted by error class name and the
    bootstrap standard error.  Failed replicates are dropped; more than 20%
    failures aborts.
    """
    required = spec.minimum_replicates()
    if spec.replicates < required:
        raise InsufficientReplicates(spec.replicates, required)

    if not _frequency_weighted(d):
        raise NotFrequencyWeighted()
    n = int(round(d.total_weight()))
    probabilities = d.weights / d.weights.sum()

    # Chunks of at most glm.BATCH_ELEMENTS counts, so that memory does not
    # grow with the replicates on a wide table.
    size = max(1, glm.BATCH_ELEMENTS // len(probabilities))

    def run(start: int) -> Tuple[np.ndarray, np.ndarray]:
        counts = np.array(
            [np.random.default_rng(mix(spec.seed, i)).multinomial(n, probabilities)
             for i in range(start, min(start + size, spec.replicates))],
            dtype=np.float64,
        )
        return statistic(d, counts)

    chunks = [run(start) for start in range(0, spec.replicates, size)]
    estimates, errors = map(np.concatenate, zip(*chunks))
    ordered = np.sort(estimates[~np.isnan(estimates)])
    failures = spec.replicates - ordered.size
    if failures > BOOTSTRAP_FAILURE_FRACTION * spec.replicates or not ordered.size:
        raise BootstrapDegenerate(failures, spec.replicates, BOOTSTRAP_FAILURE_FRACTION)

    alpha = 1.0 - spec.level
    low = float(ordered[_nearest_rank(alpha / 2.0, ordered.size)])
    high = float(ordered[_nearest_rank(1.0 - alpha / 2.0, ordered.size)])
    diagnostics = {
        "bootstrap_replicates": spec.replicates,
        "bootstrap_failures": failures,
        "bootstrap_failure_causes": dict(Counter(type(e).__name__ for e in errors if e is not None)),
        "bootstrap_se": float(np.std(ordered, ddof=1)) if ordered.size > 1 else 0.0,
    }
    return (low, high), diagnostics


def _nearest_rank(q: float, n: int) -> int:
    rank = math.ceil(q * n)
    return min(max(rank, 1), n) - 1


# ---------------------------------------------------------------------------
# Exact population estimands


def population_estimand(
    model: StructuralModel,
    method: str,
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    selection: Optional[SelectionRule] = None,
    interactions: bool = False,
    family: str = "binomial",
) -> float:
    """The asymptotic target of an estimator: its point estimate
    (:meth:`Method.point`) on the exact population instead of a sample.

    Every method reads only the treatment, the outcome and the adjusters, so
    the population is their exact probability-weighted margin, every
    configuration included, computed without the full joint.  Options the
    method does not take are ignored.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    given = {"adjust": tuple(adjust), "interactions": interactions, "family": family}
    options = {k: v for k, v in given.items() if k in METHODS[method].options}
    columns = (treatment, outcome, *options.get("adjust", ()))
    margin = population_margin(model, columns, selection)
    return METHODS[method].point(margin, treatment, outcome, **options)
