"""Average-causal-effect risk ratios: unadjusted, outcome regression,
G-computation and inverse probability weighting, plus the exact population
estimand of each method computed on the enumerated joint distribution.

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
    DegenerateArm,
    EstimatorError,
    GlmError,
    InsufficientReplicates,
    NotFrequencyWeighted,
    PropensityAtBound,
    ZeroRiskControlArm,
)
from .rng import mix
from .scm import Dataset, SelectionRule, StructuralModel, enumerate_population

METHODS = ("unadjusted", "outcome_regression", "g_computation", "ipw")

PROPENSITY_EPS = 1e-12
BOOTSTRAP_FAILURE_FRACTION = 0.2


@dataclass(frozen=True)
class BootstrapSpec:
    """Bootstrap configuration: replicate count, master seed, coverage level."""

    replicates: int = 200
    seed: int = 0
    level: float = 0.95

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("bootstrap needs at least one replicate")
        if not 0.0 < self.level < 1.0:
            raise ValueError("coverage level must be in (0, 1)")

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
# Point estimators


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


def unadjusted_rr(d: Dataset, treatment: str, outcome: str) -> EffectEstimate:
    """Crude risk ratio: weighted outcome means by arm, Wald CI from the
    covariate-free log-binomial fit (whose exp(coefficient) equals the ratio)."""
    p1, p0 = _arm_means(d, treatment, outcome)
    if p0 == 0.0:
        raise ZeroRiskControlArm(outcome)
    ratio = p1 / p0
    fit = glm.fit(
        d, glm.ModelSpec(response=outcome, terms=(treatment,), link="log")
    )
    low, high = glm.wald_interval(fit, treatment)
    return EffectEstimate(
        method="unadjusted",
        treatment=treatment,
        outcome=outcome,
        adjustment=(),
        risk_ratio=ratio,
        ci=(low, high),
        ci_method="wald",
        n=d.total_weight(),
        diagnostics={
            "glm_rr": math.exp(fit.coefficient(treatment)),
            "converged": fit.converged,
            "max_fitted_mean": fit.max_fitted_mean,
        },
    )


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
    spec = glm.ModelSpec(
        response=outcome, terms=(treatment,) + tuple(adjust), family=family, link="log"
    )
    fit = glm.fit(d, spec)
    ratio = math.exp(fit.coefficient(treatment))
    low, high = glm.wald_interval(fit, treatment)
    return EffectEstimate(
        method="outcome_regression",
        treatment=treatment,
        outcome=outcome,
        adjustment=tuple(adjust),
        risk_ratio=ratio,
        ci=(low, high),
        ci_method="wald",
        n=d.total_weight(),
        diagnostics={
            "family": family,
            "converged": fit.converged,
            "iterations": fit.iterations,
            "max_fitted_mean": fit.max_fitted_mean,
            "se_log_rr": fit.std_error(treatment),
        },
    )


def _g_computation_point(
    d: Dataset, treatment: str, outcome: str, adjust: Tuple[str, ...],
    interactions: bool,
) -> Tuple[float, dict]:
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
    diagnostics = {
        "converged": fit.converged,
        "iterations": fit.iterations,
        "interactions": interactions,
    }
    return mean_treated / mean_control, diagnostics


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
    adjust = tuple(adjust)
    ratio, diagnostics = _g_computation_point(d, treatment, outcome, adjust, interactions)
    ci = None
    ci_method = "none"
    if bootstrap is not None:
        ci, bs_diag = bootstrap_ci(
            d,
            lambda rep: _g_computation_point(rep, treatment, outcome, adjust, interactions)[0],
            bootstrap,
            parallel=parallel,
        )
        ci_method = "bootstrap_percentile"
        diagnostics.update(bs_diag)
    return EffectEstimate(
        method="g_computation",
        treatment=treatment,
        outcome=outcome,
        adjustment=adjust,
        risk_ratio=ratio,
        ci=ci,
        ci_method=ci_method,
        n=d.total_weight(),
        diagnostics=diagnostics,
    )


def _ipw_point(
    d: Dataset, treatment: str, outcome: str, adjust: Tuple[str, ...]
) -> Tuple[float, dict]:
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
    outcome_fit = glm.fit(
        d,
        glm.ModelSpec(response=outcome, terms=(treatment,), link="log"),
        weights=ipw,
    )
    diagnostics = {
        "min_weight": float(ipw.min()) if d.n else float("nan"),
        "max_weight": float(ipw.max()) if d.n else float("nan"),
        "converged": outcome_fit.converged,
        "max_fitted_mean": outcome_fit.max_fitted_mean,
    }
    return math.exp(outcome_fit.coefficient(treatment)), diagnostics


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
    adjust = tuple(adjust)
    ratio, diagnostics = _ipw_point(d, treatment, outcome, adjust)
    ci = None
    ci_method = "none"
    if bootstrap is not None:
        ci, bs_diag = bootstrap_ci(
            d,
            lambda rep: _ipw_point(rep, treatment, outcome, adjust)[0],
            bootstrap,
            parallel=parallel,
        )
        ci_method = "bootstrap_percentile"
        diagnostics.update(bs_diag)
    return EffectEstimate(
        method="ipw",
        treatment=treatment,
        outcome=outcome,
        adjustment=adjust,
        risk_ratio=ratio,
        ci=ci,
        ci_method=ci_method,
        n=d.total_weight(),
        diagnostics=diagnostics,
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
    counts = compact.effective_weights()
    if not np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-9):
        raise NotFrequencyWeighted()
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
    """The asymptotic target of an estimator: the method run on the exact,
    probability-weighted enumerated joint instead of a sample."""
    population = enumerate_population(model, selection)
    adjust = tuple(adjust)
    if method == "unadjusted":
        p1, p0 = _arm_means(population, treatment, outcome)
        if p0 == 0.0:
            raise ZeroRiskControlArm(outcome)
        return p1 / p0
    if method == "outcome_regression":
        spec = glm.ModelSpec(
            response=outcome,
            terms=(treatment,) + adjust,
            family=family,
            link="log",
        )
        return math.exp(glm.fit(population, spec).coefficient(treatment))
    if method == "g_computation":
        return _g_computation_point(population, treatment, outcome, adjust, interactions)[0]
    if method == "ipw":
        return _ipw_point(population, treatment, outcome, adjust)[0]
    raise ValueError(f"unknown method {method!r}")
