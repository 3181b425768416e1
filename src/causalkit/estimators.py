"""Average-causal-effect risk ratios: unadjusted, outcome regression,
G-computation and inverse probability weighting, plus the exact population
estimand of each method computed on the exact margin of its columns
(:func:`causalkit.scm.population_margin`).

Because every column is binary, the estimators run on the configuration-counts
table: one row per distinct configuration, weighted by its count.  Each data
source enters it once: :meth:`Dataset.from_csv` reads a file straight into
counts, and only ``run_scenario`` collapses rows, with
:meth:`Dataset.aggregate`.  A frequency-weighted fit on the counts is the
same fit as on the raw rows.

G-computation and IPW report bootstrap percentile intervals; the bootstrap
resamples whole rows with replacement.  Row resampling is drawn as a
multinomial over the configurations of the counts table, distributionally
identical to index resampling and fast at any sample size; replicate ``i`` is
seeded with ``mix(master_seed, i)``.  Every replicate shares the table's
design and differs only in its counts, so each method's batched statistic
estimates all replicates at once, with one :func:`glm.fit_batch` per
logistic model and weighted sums for IPW's ratio of arm means, and gives
each the answer its point function gives on that replicate's rows.
Replicates are drawn and estimated in chunks of at most
``glm.BATCH_ELEMENTS`` counts, so a wide table's bootstrap holds no more than
one chunk at a time; a replicate's arithmetic does not depend on the others
in its batch, so the chunking does not change a bit of the interval.
"""

from __future__ import annotations

import math
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
# Point estimators.  Each returns the risk ratio and its diagnostics; the
# sample estimators and the exact population estimand call them.


def _arm_means(d: Dataset, treatment: str, outcome: str) -> Tuple[float, float]:
    t = d.column(treatment).astype(bool)
    y = d.column(outcome).astype(np.float64)
    w = d.effective_weights()
    w1, w0 = w[t].sum(), w[~t].sum()
    if w1 <= 0.0:
        raise DegenerateArm(treatment, 1)
    if w0 <= 0.0:
        raise DegenerateArm(treatment, 0)
    return float(np.dot(w[t], y[t]) / w1), float(np.dot(w[~t], y[~t]) / w0)


def _unadjusted_point(d: Dataset, treatment: str, outcome: str) -> Tuple[float, dict]:
    p1, p0 = _arm_means(d, treatment, outcome)
    if p0 == 0.0:
        raise ZeroRiskControlArm(outcome)
    return p1 / p0, {}


def _outcome_regression_point(
    d: Dataset, treatment: str, outcome: str, adjust: Sequence[str] = (),
    family: str = "binomial",
) -> Tuple[float, dict]:
    spec = glm.ModelSpec(
        response=outcome, terms=(treatment,) + tuple(adjust), family=family, link="log"
    )
    fit = glm.fit(d, spec)
    return math.exp(fit.coefficient(treatment)), {"fit": fit}


def _g_computation_spec(
    treatment: str, outcome: str, adjust: Sequence[str], interactions: bool
) -> glm.ModelSpec:
    adjust = tuple(adjust)
    return glm.ModelSpec(
        response=outcome,
        terms=(treatment,) + adjust,
        interactions=tuple((treatment, a) for a in adjust) if interactions else (),
        family="binomial",
        link="logit",
    )


def _propensity_spec(treatment: str, adjust: Sequence[str]) -> glm.ModelSpec:
    return glm.ModelSpec(response=treatment, terms=tuple(adjust), link="logit")


def _g_computation_point(
    d: Dataset, treatment: str, outcome: str, adjust: Sequence[str] = (),
    interactions: bool = False,
) -> Tuple[float, dict]:
    fit = glm.fit(d, _g_computation_spec(treatment, outcome, adjust, interactions))
    w = d.effective_weights()
    w = w / w.sum()
    mean_treated = float(np.dot(w, glm.predict(fit, d.with_column_set(treatment, 1))))
    mean_control = float(np.dot(w, glm.predict(fit, d.with_column_set(treatment, 0))))
    if mean_control <= 0.0:
        raise ZeroRiskControlArm(outcome)
    diagnostics = {"iterations": fit.iterations, "interactions": interactions}
    return mean_treated / mean_control, diagnostics


def _ipw_point(
    d: Dataset, treatment: str, outcome: str, adjust: Sequence[str] = ()
) -> Tuple[float, dict]:
    t = d.column(treatment).astype(np.float64)
    if adjust:
        p = glm.predict(glm.fit(d, _propensity_spec(treatment, adjust)), d)
        if np.any(p <= PROPENSITY_EPS) or np.any(p >= 1.0 - PROPENSITY_EPS):
            bad = p[(p <= PROPENSITY_EPS) | (p >= 1.0 - PROPENSITY_EPS)][0]
            raise PropensityAtBound(float(bad))
        ipw = np.where(t == 1.0, 1.0 / p, 1.0 / (1.0 - p))
    else:
        ipw = np.ones(d.n)
    weighted = Dataset(d.columns, d.values, d.effective_weights() * ipw)
    ratio, _ = _unadjusted_point(weighted, treatment, outcome)
    diagnostics = {
        "min_weight": float(ipw.min()) if d.n else float("nan"),
        "max_weight": float(ipw.max()) if d.n else float("nan"),
    }
    return ratio, diagnostics


# ---------------------------------------------------------------------------
# Batched statistics.  Each is its point function run on a counts table once
# per row of a (replicates, rows) count matrix, all replicates fitted by one
# glm.fit_batch per model.  Replicate r is the point function on the table's
# rows with a positive count in row r, weighted by those counts; it is NaN
# where the point function raises.


def _g_computation_batch(
    compact: Dataset, counts: np.ndarray, treatment: str, outcome: str,
    adjust: Sequence[str] = (), interactions: bool = False,
) -> np.ndarray:
    spec = _g_computation_spec(treatment, outcome, adjust, interactions)
    fitted = glm.fit_batch(compact, counts, spec)
    share = counts / counts.sum(axis=1, keepdims=True)
    treated, control = (
        (share * glm.predict_batch(fitted, compact.with_column_set(treatment, value))).sum(axis=1)
        for value in (1, 0)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(control > 0.0, treated / control, np.nan)


def _ipw_batch(
    compact: Dataset, counts: np.ndarray, treatment: str, outcome: str,
    adjust: Sequence[str] = (),
) -> np.ndarray:
    t = compact.column(treatment).astype(np.float64)
    y = compact.column(outcome).astype(np.float64)
    weights = counts
    if adjust:
        propensity_fit = glm.fit_batch(compact, counts, _propensity_spec(treatment, adjust))
        p = glm.predict_batch(propensity_fit, compact)
        observed = counts > 0
        at_bound = observed & ((p <= PROPENSITY_EPS) | (p >= 1.0 - PROPENSITY_EPS))
        usable = ~propensity_fit.failed & ~at_bound.any(axis=1)
        # Rows that carry no weight get a harmless propensity, and a replicate
        # left with no weight at all has empty arms.
        p = np.where(observed & usable[:, None], p, 0.5)
        ipw = np.where(t == 1.0, 1.0 / p, 1.0 / (1.0 - p))
        weights = np.where(usable[:, None], counts * ipw, 0.0)
    # The arms are masked by multiplying, not by indexing, so that each sum
    # runs along the last axis of a C-ordered array and a replicate's
    # rounding does not depend on the batch.
    treated, control = weights * t, weights * (1.0 - t)
    w1, w0 = treated.sum(axis=1), control.sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p1 = (treated * y).sum(axis=1) / w1
        p0 = (control * y).sum(axis=1) / w0
        return np.where((w1 > 0.0) & (w0 > 0.0) & (p0 > 0.0), p1 / p0, np.nan)


# ---------------------------------------------------------------------------
# The methods


@dataclass(frozen=True)
class Method:
    """One estimation method: its table label, the name of its sample
    estimator in this module (looked up at call time), its point function
    and the keyword options that estimator takes.  The point function takes
    the same options but ``bootstrap``; a method without ``bootstrap``
    reports a Wald interval, and one with it has a batched statistic for
    :func:`bootstrap_ci`, which takes the same options as the point
    function."""

    label: str
    estimator: str
    point: Callable[..., Tuple[float, dict]]
    options: Tuple[str, ...] = ()
    batch: Optional[Callable[..., np.ndarray]] = None

    def __post_init__(self):
        if ("bootstrap" in self.options) != (self.batch is not None):
            raise ValueError(f"{self.estimator}: a batched statistic goes with the bootstrap option")


METHODS: Dict[str, Method] = {
    "unadjusted": Method("No adjustment", "unadjusted_rr", _unadjusted_point),
    "outcome_regression": Method(
        "Outcome regression", "outcome_regression_rr", _outcome_regression_point,
        ("adjust", "family"),
    ),
    "g_computation": Method(
        "G-computation", "g_computation_rr", _g_computation_point,
        ("adjust", "interactions", "bootstrap"), _g_computation_batch,
    ),
    "ipw": Method("IPW", "ipw_rr", _ipw_point, ("adjust", "bootstrap"), _ipw_batch),
}


# ---------------------------------------------------------------------------
# Sample estimators


def _frequency_weighted(d: Dataset) -> bool:
    """Whether the weights are whole-number counts (or absent), so that the
    total weight is a sample size; probability weights are not.  Nor are
    weights summing past 2^53, where floats stop holding every whole count
    and a resample's size stops fitting a C long."""
    w = d.effective_weights()
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


def unadjusted_rr(d: Dataset, treatment: str, outcome: str) -> EffectEstimate:
    """Crude risk ratio: weighted outcome means by arm, Wald CI from the
    covariate-free log-binomial fit, whose exp(coefficient) equals the ratio.
    Raises :class:`InconsistentFit` where the two differ by more than a
    relative 1e-6: the fit, and so its interval, went wrong."""
    ratio, _ = _unadjusted_point(d, treatment, outcome)
    glm_rr, crude = _outcome_regression_point(d, treatment, outcome)
    if not math.isclose(glm_rr, ratio, rel_tol=1e-6):
        raise InconsistentFit(glm_rr, ratio)
    return _wald("unadjusted", d, treatment, outcome, (), ratio, crude["fit"], glm_rr=glm_rr)


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
    ratio, point = _outcome_regression_point(d, treatment, outcome, adjust, family)
    fit = point["fit"]
    return _wald(
        "outcome_regression", d, treatment, outcome, adjust, ratio, fit,
        family=family, iterations=fit.iterations, se_log_rr=fit.std_error(treatment),
    )


def _bootstrapped(
    method: str, d: Dataset, treatment: str, outcome: str,
    bootstrap: Optional[BootstrapSpec], **options,
) -> EffectEstimate:
    entry = METHODS[method]
    ratio, diagnostics = entry.point(d, treatment, outcome, **options)
    ci = None
    if bootstrap is not None:
        ci, bs_diag = bootstrap_ci(
            d,
            lambda compact, counts: entry.batch(compact, counts, treatment, outcome, **options),
            bootstrap,
        )
        diagnostics.update(bs_diag)
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
    statistic: Callable[[Dataset, np.ndarray], np.ndarray],
    spec: BootstrapSpec,
) -> Tuple[Tuple[float, float], dict]:
    """Nonparametric percentile interval for ``statistic`` over row resampling.

    Replicate ``i`` resamples the rows as multinomial counts over the
    configurations of ``d.aggregate()``, drawn from ``mix(spec.seed, i)``.
    ``statistic(compact, counts)`` takes that table and a (b, m) matrix of
    replicate counts, one row per replicate, and returns the b estimates,
    NaN where a replicate's estimation failed.  The replicates are drawn and
    estimated in chunks of at most :data:`glm.BATCH_ELEMENTS` counts; a
    replicate's estimate must not depend on the other rows of ``counts``,
    so that the interval does not depend on the chunking.

    Returns the interval and a diagnostics dict with the replicate and
    failure counts and the bootstrap standard error.  Failed replicates are
    dropped; more than 20% failures aborts.
    """
    required = spec.minimum_replicates()
    if spec.replicates < required:
        raise InsufficientReplicates(spec.replicates, required)

    compact = d.aggregate()
    if not _frequency_weighted(compact):
        raise NotFrequencyWeighted()
    weights = compact.effective_weights()
    n = int(round(float(weights.sum())))
    probabilities = weights / weights.sum()

    # Chunks of at most glm.BATCH_ELEMENTS counts, so that memory does not
    # grow with the replicates on a wide table.
    size = max(1, glm.BATCH_ELEMENTS // len(probabilities))

    def run(start: int) -> np.ndarray:
        counts = np.array(
            [np.random.default_rng(mix(spec.seed, i)).multinomial(n, probabilities)
             for i in range(start, min(start + size, spec.replicates))],
            dtype=np.float64,
        )
        return statistic(compact, counts)

    estimates = np.concatenate([run(start) for start in range(0, spec.replicates, size)])
    ordered = np.sort(estimates[~np.isnan(estimates)])
    failures = spec.replicates - ordered.size
    if failures > BOOTSTRAP_FAILURE_FRACTION * spec.replicates or not ordered.size:
        raise BootstrapDegenerate(failures, spec.replicates)

    alpha = 1.0 - spec.level
    low = float(ordered[_nearest_rank(alpha / 2.0, ordered.size)])
    high = float(ordered[_nearest_rank(1.0 - alpha / 2.0, ordered.size)])
    diagnostics = {
        "bootstrap_replicates": spec.replicates,
        "bootstrap_failures": failures,
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
    """The asymptotic target of an estimator: its point function run on the
    exact population instead of a sample.

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
    return METHODS[method].point(margin, treatment, outcome, **options)[0]
