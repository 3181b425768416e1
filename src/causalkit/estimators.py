"""Average-causal-effect risk ratios: unadjusted, outcome regression,
G-computation and inverse probability weighting, plus the exact population
estimand of each method computed on the exact margin of its columns
(:func:`causalkit.scm.population_margin`).

Because every column is binary, the estimators run on the configuration-counts
table: one row per distinct configuration, weighted by its count.  Data are
collapsed once with :meth:`Dataset.aggregate` where they enter estimation
(``run_scenario`` and ``causalkit estimate``); a frequency-weighted fit on the
counts is the same fit as on the raw rows.

G-computation and IPW report bootstrap percentile intervals; the bootstrap
resamples whole rows with replacement and re-runs the full estimation
pipeline per replicate.  Row resampling is drawn as a multinomial over the
configurations of the counts table, distributionally identical to index
resampling and fast at any sample size.  Replicate ``i`` is seeded with
``mix(master_seed, i)``, so serial and parallel execution agree bit for bit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from . import glm
from .errors import (
    BootstrapDegenerate,
    BootstrapSpecError,
    DegenerateArm,
    EstimatorError,
    GlmError,
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
# sample estimators, every bootstrap replicate and the exact population
# estimand all call them.


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


def _g_computation_point(
    d: Dataset, treatment: str, outcome: str, adjust: Sequence[str] = (),
    interactions: bool = False,
) -> Tuple[float, dict]:
    adjust = tuple(adjust)
    spec = glm.ModelSpec(
        response=outcome,
        terms=(treatment,) + adjust,
        interactions=tuple((treatment, a) for a in adjust) if interactions else (),
        family="binomial",
        link="logit",
    )
    fit = glm.fit(d, spec)
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
    adjust = tuple(adjust)
    t = d.column(treatment).astype(np.float64)
    if adjust:
        propensity_fit = glm.fit(
            d, glm.ModelSpec(response=treatment, terms=adjust, link="logit")
        )
        p = glm.predict(propensity_fit, d)
        if np.any(p <= PROPENSITY_EPS) or np.any(p >= 1.0 - PROPENSITY_EPS):
            bad = p[(p <= PROPENSITY_EPS) | (p >= 1.0 - PROPENSITY_EPS)][0]
            raise PropensityAtBound(float(bad))
        ipw = np.where(t == 1.0, 1.0 / p, 1.0 / (1.0 - p))
    else:
        ipw = np.ones(d.n)
    weighted = Dataset(d.columns, d.values, d.effective_weights() * ipw)
    outcome_fit = glm.fit(
        weighted, glm.ModelSpec(response=outcome, terms=(treatment,), link="log")
    )
    diagnostics = {
        "min_weight": float(ipw.min()) if d.n else float("nan"),
        "max_weight": float(ipw.max()) if d.n else float("nan"),
        "max_fitted_mean": outcome_fit.max_fitted_mean,
    }
    return math.exp(outcome_fit.coefficient(treatment)), diagnostics


# ---------------------------------------------------------------------------
# The methods


@dataclass(frozen=True)
class Method:
    """One estimation method: its table label, the name of its sample
    estimator in this module (looked up at call time), its point function
    and the keyword options that estimator takes.  The point function takes
    the same options but ``bootstrap``; a method without ``bootstrap``
    reports a Wald interval."""

    label: str
    estimator: str
    point: Callable[..., Tuple[float, dict]]
    options: Tuple[str, ...] = ()


METHODS: Dict[str, Method] = {
    "unadjusted": Method("No adjustment", "unadjusted_rr", _unadjusted_point),
    "outcome_regression": Method(
        "Outcome regression", "outcome_regression_rr", _outcome_regression_point,
        ("adjust", "family"),
    ),
    "g_computation": Method(
        "G-computation", "g_computation_rr", _g_computation_point,
        ("adjust", "interactions", "bootstrap"),
    ),
    "ipw": Method("IPW", "ipw_rr", _ipw_point, ("adjust", "bootstrap")),
}


# ---------------------------------------------------------------------------
# Sample estimators


def _frequency_weighted(d: Dataset) -> bool:
    """Whether the weights are whole-number counts (or absent), so that the
    total weight is a sample size; probability weights are not."""
    w = d.effective_weights()
    return bool(np.allclose(w, np.round(w), rtol=0.0, atol=1e-9))


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
    covariate-free log-binomial fit (whose exp(coefficient) equals the ratio)."""
    ratio, _ = _unadjusted_point(d, treatment, outcome)
    glm_rr, crude = _outcome_regression_point(d, treatment, outcome)
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
    bootstrap: Optional[BootstrapSpec], parallel: bool, **options,
) -> EffectEstimate:
    point = METHODS[method].point
    ratio, diagnostics = point(d, treatment, outcome, **options)
    ci = None
    if bootstrap is not None:
        ci, bs_diag = bootstrap_ci(
            d,
            lambda rep: point(rep, treatment, outcome, **options)[0],
            bootstrap,
            parallel=parallel,
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
    parallel: bool = False,
) -> EffectEstimate:
    """Standardisation: fit a logistic outcome model, predict everyone under
    treatment forced to 1 and to 0, and take the ratio of the averages."""
    return _bootstrapped(
        "g_computation", d, treatment, outcome, bootstrap, parallel,
        adjust=tuple(adjust), interactions=interactions,
    )


def ipw_rr(
    d: Dataset,
    treatment: str,
    outcome: str,
    adjust: Sequence[str] = (),
    bootstrap: Optional[BootstrapSpec] = None,
    parallel: bool = False,
) -> EffectEstimate:
    """Inverse probability of treatment weighting.

    Step 1 models the treatment on the adjusters by logistic regression and
    weights each row by the inverse probability of the treatment it received;
    step 2 fits a weighted log-binomial of the outcome on the treatment alone.
    """
    return _bootstrapped(
        "ipw", d, treatment, outcome, bootstrap, parallel, adjust=tuple(adjust)
    )


# ---------------------------------------------------------------------------
# Bootstrap


def bootstrap_ci(
    d: Dataset,
    statistic: Callable[[Dataset], float],
    spec: BootstrapSpec,
    parallel: bool = False,
) -> Tuple[Tuple[float, float], dict]:
    """Nonparametric percentile interval for ``statistic`` over row resampling.

    Returns the interval and a diagnostics dict with the replicate failure
    count.  Replicates whose estimation fails (non-convergent model, empty
    arm) are dropped; more than 20% failures aborts.
    """
    required = spec.minimum_replicates()
    if spec.replicates < required:
        raise InsufficientReplicates(spec.replicates, required)

    compact = d.aggregate()
    if not _frequency_weighted(compact):
        raise NotFrequencyWeighted()
    counts = compact.effective_weights()
    n = int(round(float(counts.sum())))
    probabilities = counts / counts.sum()

    def replicate(i: int) -> Optional[float]:
        generator = np.random.default_rng(mix(spec.seed, i))
        resampled = generator.multinomial(n, probabilities).astype(np.float64)
        keep = resampled > 0
        rep = Dataset(compact.columns, compact.values[keep], resampled[keep])
        try:
            return float(statistic(rep))
        except (GlmError, EstimatorError):
            return None

    if parallel:
        with ThreadPoolExecutor() as pool:
            results = list(pool.map(replicate, range(spec.replicates)))
    else:
        results = [replicate(i) for i in range(spec.replicates)]

    estimates = [r for r in results if r is not None]
    failures = spec.replicates - len(estimates)
    if failures > BOOTSTRAP_FAILURE_FRACTION * spec.replicates or not estimates:
        raise BootstrapDegenerate(failures, spec.replicates)

    ordered = sorted(estimates)
    alpha = 1.0 - spec.level
    low = ordered[_nearest_rank(alpha / 2.0, len(ordered))]
    high = ordered[_nearest_rank(1.0 - alpha / 2.0, len(ordered))]
    diagnostics = {
        "bootstrap_replicates": spec.replicates,
        "bootstrap_failures": failures,
        "bootstrap_se": float(np.std(ordered, ddof=1)) if len(ordered) > 1 else 0.0,
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
