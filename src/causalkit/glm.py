"""Generalized linear models for binary data, fitted by IRLS.

Supports binomial/logit (logistic), binomial/log (log-binomial) and
poisson/log families with frequency or probability weights.  The log-binomial
fit uses step-halving to keep every fitted mean strictly below one, since the
log link is not canonical and an unguarded Newton step leaves the parameter
space.  Covariance is the inverse expected information at convergence; Wald
intervals are reported on the exponentiated scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (
    MissingColumn,
    NoConvergence,
    NotConverged,
    RankDeficient,
    SeparationSuspected,
    UnknownTerm,
)
from .scm import Dataset

MAX_ITERATIONS = 100
MAX_STEP_HALVINGS = 50
DEVIANCE_TOLERANCE = 1e-8
COEFFICIENT_TOLERANCE = 1e-8
SEPARATION_BOUND = 30.0
MEAN_CEILING = 1.0 - 1e-10

INTERCEPT = "(intercept)"

# High-water mark of fitted means across all log-binomial fits in the process;
# the acceptance suite asserts it never reaches one.
_log_binomial_mean_high_water = 0.0


def log_binomial_mean_high_water() -> float:
    return _log_binomial_mean_high_water


def reset_log_binomial_mean_high_water() -> None:
    global _log_binomial_mean_high_water
    _log_binomial_mean_high_water = 0.0


@dataclass(frozen=True)
class ModelSpec:
    """What to regress on what: response, main terms, optional interactions."""

    response: str
    terms: Tuple[str, ...] = ()
    interactions: Tuple[Tuple[str, str], ...] = ()
    family: str = "binomial"
    link: str = "logit"

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))
        object.__setattr__(
            self, "interactions", tuple(tuple(pair) for pair in self.interactions)
        )
        if self.family not in ("binomial", "poisson"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.link not in ("logit", "log"):
            raise ValueError(f"unknown link {self.link!r}")
        if self.link == "logit" and self.family != "binomial":
            raise ValueError("logit link requires the binomial family")
        if self.response in self.terms:
            raise ValueError("response may not appear among the terms")
        for a, b in self.interactions:
            if a not in self.terms or b not in self.terms:
                raise ValueError(f"interaction {a}:{b} uses a non-term column")

    def term_names(self) -> Tuple[str, ...]:
        return (
            (INTERCEPT,)
            + self.terms
            + tuple(f"{a}:{b}" for a, b in self.interactions)
        )


@dataclass(frozen=True)
class GlmFit:
    """Result of an IRLS fit."""

    spec: ModelSpec
    coefficients: Dict[str, float]
    covariance: np.ndarray
    deviance: float
    iterations: int
    converged: bool
    n_effective: float
    max_fitted_mean: float

    def coefficient(self, term: str) -> float:
        if term not in self.coefficients:
            raise UnknownTerm(term)
        return self.coefficients[term]

    def std_error(self, term: str) -> float:
        names = list(self.coefficients)
        if term not in names:
            raise UnknownTerm(term)
        j = names.index(term)
        return math.sqrt(max(self.covariance[j, j], 0.0))

    def to_dict(self) -> dict:
        return {
            "family": self.spec.family,
            "link": self.spec.link,
            "response": self.spec.response,
            "coefficients": dict(self.coefficients),
            "covariance": self.covariance.tolist(),
            "deviance": self.deviance,
            "iterations": self.iterations,
            "converged": self.converged,
            "n_effective": self.n_effective,
        }


def build_design(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """Design matrix: intercept, main-effect columns, interaction products."""
    n = dataset.n
    cols = [np.ones(n, dtype=np.float64)]
    for term in spec.terms:
        try:
            cols.append(dataset.column(term).astype(np.float64))
        except Exception:
            raise MissingColumn(term) from None
    for a, b in spec.interactions:
        cols.append(
            dataset.column(a).astype(np.float64) * dataset.column(b).astype(np.float64)
        )
    return np.column_stack(cols)


def _link_functions(link: str):
    if link == "logit":
        def inverse(eta):
            return 1.0 / (1.0 + np.exp(-eta))

        def dmu_deta(mu):
            return mu * (1.0 - mu)

        return inverse, dmu_deta

    def inverse(eta):
        return np.exp(eta)

    def dmu_deta(mu):
        return mu

    return inverse, dmu_deta


def _variance(family: str, mu: np.ndarray) -> np.ndarray:
    if family == "binomial":
        return mu * (1.0 - mu)
    return mu


def _deviance(family: str, y, mu, w) -> float:
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "binomial":
            term = np.where(y > 0, y * np.log(y / mu), 0.0) + np.where(
                y < 1, (1.0 - y) * np.log((1.0 - y) / (1.0 - mu)), 0.0
            )
        else:
            term = np.where(y > 0, y * np.log(y / mu), 0.0) - (y - mu)
    return float(2.0 * np.dot(w, term))


def fit(
    dataset: Dataset, spec: ModelSpec, weights: Optional[np.ndarray] = None
) -> GlmFit:
    """Weighted maximum-likelihood fit by iteratively reweighted least squares.

    Effective per-row weight is the product of the dataset weights and the
    ``weights`` argument (used by IPW).  Deterministic: no randomness
    anywhere in the fit.
    """
    global _log_binomial_mean_high_water
    X = build_design(dataset, spec)
    y = dataset.column(spec.response).astype(np.float64)
    w = dataset.effective_weights()
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (dataset.n,):
            raise ValueError("external weights must have one entry per row")
        w = w * weights
    support = w > 0
    if spec.family == "binomial" and not np.all(np.isin(y[support], (0.0, 1.0))):
        raise ValueError("binomial response must be binary")
    if spec.family == "poisson" and np.any(y[support] < 0):
        raise ValueError("poisson response must be non-negative")
    n_params = X.shape[1]
    if support.sum() < 1 or w.sum() <= 0:
        raise ValueError("no rows with positive weight")

    inverse, dmu_deta = _link_functions(spec.link)
    guard_mean = spec.family == "binomial" and spec.link == "log"
    eta_ceiling = math.log(MEAN_CEILING)

    ybar = float(np.dot(w, y) / w.sum())
    beta = np.zeros(n_params)
    if spec.link == "logit":
        ybar = min(max(ybar, 1e-8), 1.0 - 1e-8)
        beta[0] = math.log(ybar / (1.0 - ybar))
    else:
        beta[0] = math.log(max(ybar, 1e-8))

    eta = X @ beta
    mu = inverse(eta)
    deviance = _deviance(spec.family, y, mu, w)
    converged = False
    iterations = 0
    max_mu = float(mu[support].max()) if support.any() else 0.0

    for iterations in range(1, MAX_ITERATIONS + 1):
        d = dmu_deta(mu)
        var = _variance(spec.family, mu)
        var = np.maximum(var, 1e-12)
        d = np.maximum(d, 1e-12)
        irls_w = w * d * d / var
        z = eta + (y - mu) / d
        sw = np.sqrt(irls_w)
        solution, _, rank, _ = np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)
        if rank < n_params:
            raise RankDeficient(int(rank), n_params)
        delta = solution - beta

        halvings = 0
        while guard_mean and halvings < MAX_STEP_HALVINGS:
            eta_new = X @ (beta + delta)
            if np.all(eta_new[support] <= eta_ceiling):
                break
            delta = delta / 2.0
            halvings += 1

        beta = beta + delta
        eta = X @ beta
        if guard_mean:
            eta = np.minimum(eta, eta_ceiling)
        mu = inverse(eta)
        max_mu = max(max_mu, float(mu[support].max()))

        if spec.family == "binomial" and np.max(np.abs(beta)) > SEPARATION_BOUND:
            names = spec.term_names()
            worst = int(np.argmax(np.abs(beta)))
            raise SeparationSuspected(names[worst], float(beta[worst]))

        new_deviance = _deviance(spec.family, y, mu, w)
        rel_change = abs(new_deviance - deviance) / (abs(new_deviance) + 0.1)
        deviance = new_deviance
        if rel_change < DEVIANCE_TOLERANCE and np.max(np.abs(delta)) < COEFFICIENT_TOLERANCE:
            converged = True
            break

    if not converged:
        raise NoConvergence(MAX_ITERATIONS)

    # Expected information at the solution.
    d = dmu_deta(mu)
    var = np.maximum(_variance(spec.family, mu), 1e-12)
    info_w = w * d * d / var
    information = (X * info_w[:, None]).T @ X
    try:
        covariance = np.linalg.inv(information)
    except np.linalg.LinAlgError as exc:
        raise RankDeficient(int(np.linalg.matrix_rank(information)), n_params) from exc

    if guard_mean:
        _log_binomial_mean_high_water = max(_log_binomial_mean_high_water, max_mu)

    names = spec.term_names()
    return GlmFit(
        spec=spec,
        coefficients={name: float(b) for name, b in zip(names, beta)},
        covariance=covariance,
        deviance=deviance,
        iterations=iterations,
        converged=converged,
        n_effective=float(w.sum()),
        max_fitted_mean=max_mu,
    )


def predict(fit_result: GlmFit, rows: Dataset) -> np.ndarray:
    """Fitted means for new rows: inverse link of the linear predictor."""
    X = build_design(rows, fit_result.spec)
    beta = np.array(list(fit_result.coefficients.values()))
    inverse, _ = _link_functions(fit_result.spec.link)
    eta = X @ beta
    if fit_result.spec.family == "binomial" and fit_result.spec.link == "log":
        eta = np.minimum(eta, math.log(MEAN_CEILING))
    return inverse(eta)


def wald_interval(
    fit_result: GlmFit, term: str, level: float = 0.95
) -> Tuple[float, float]:
    """``exp(coef +/- z * se)`` for the given term."""
    if not fit_result.converged:
        raise NotConverged("cannot form a Wald interval from a non-converged fit")
    coef = fit_result.coefficient(term)
    se = fit_result.std_error(term)
    z = _normal_quantile(0.5 + level / 2.0)
    return math.exp(coef - z * se), math.exp(coef + z * se)


def _normal_quantile(p: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation, ~1e-9)."""
    if not 0.0 < p < 1.0:
        raise ValueError("quantile probability must be in (0, 1)")
    a = [-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
         1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00]
    b = [-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
         6.680131188771972e+01, -1.328068155288572e+01]
    c = [-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
         -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00]
    d = [7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
         3.754408661907416e+00]
    plow, phigh = 0.02425, 1 - 0.02425
    if p < plow:
        q = math.sqrt(-2 * math.log(p))
        x = (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    elif p <= phigh:
        q = p - 0.5
        r = q * q
        x = (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1
        )
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1
        )
    # One Halley refinement using the normal CDF.
    e = 0.5 * math.erfc(-x / math.sqrt(2)) - p
    u = e * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
    return x - u / (1 + x * u / 2)
