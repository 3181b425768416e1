"""Generalized linear models for binary data, fitted by IRLS.

Supports binomial/logit (logistic), binomial/log (log-binomial) and
poisson/log families with frequency or probability weights.  The log-binomial
fit uses step-halving to keep every fitted mean strictly below one, since the
log link is not canonical and an unguarded Newton step leaves the parameter
space.  Covariance is the inverse expected information at convergence; Wald
intervals are reported on the exponentiated scale.

:func:`fit_batch` makes many logistic fits of one model to one table that
differ only in their row weights, as bootstrap replicates do, taking the
IRLS steps of all of them at once.  Each fit starts, steps, stops and fails
as :func:`fit` does on the rows it weights, recording the error :func:`fit`
raises, and its arithmetic does not depend on the other fits in the batch.
It is also the logistic fit of the estimators' point estimates, a batch of
one.  It runs on the table's distinct (design row, response) pairs, in
chunks of at most :data:`BATCH_ELEMENTS` elements, so its memory does not
grow with the batch.  It reports coefficients, not the covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Tuple

import numpy as np

from .errors import (
    GlmError,
    MissingColumn,
    NoConvergence,
    RankDeficient,
    SeparationSuspected,
    UnknownTerm,
    WeightOverflow,
)
from .scm import Dataset, distinct_rows

MAX_ITERATIONS = 100
MAX_STEP_HALVINGS = 50
DEVIANCE_TOLERANCE = 1e-8
COEFFICIENT_TOLERANCE = 1e-8
SEPARATION_BOUND = 30.0
MEAN_CEILING = 1.0 - 1e-10

# The most weighted-design elements (fits x distinct rows x parameters) one
# batched IRLS step holds; :func:`fit_batch` runs larger batches in chunks.
BATCH_ELEMENTS = 2**20

INTERCEPT = "(intercept)"
FAMILIES = ("binomial", "poisson")

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
        if self.family not in FAMILIES:
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
            # exp overflows to inf for eta below about -709, giving the right 0.
            with np.errstate(over="ignore"):
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


def _unit_deviance(family: str, y, mu) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        if family == "binomial":
            return np.where(y > 0, y * np.log(y / mu), 0.0) + np.where(
                y < 1, (1.0 - y) * np.log((1.0 - y) / (1.0 - mu)), 0.0
            )
        return np.where(y > 0, y * np.log(y / mu), 0.0) - (y - mu)


def _deviance(family: str, y, mu, w) -> float:
    # Near the largest float the product overflows to inf, and the fit then
    # fails its convergence test.
    with np.errstate(over="ignore"):
        return float(2.0 * np.dot(w, _unit_deviance(family, y, mu)))


def _deviances(family: str, y, mu, w) -> np.ndarray:
    """:func:`_deviance` of each row of ``mu`` and ``w``; zero-weight rows
    count for nothing even where their unit deviance is infinite."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * np.where(w > 0, w * _unit_deviance(family, y, mu), 0.0).sum(axis=1)


def fit(dataset: Dataset, spec: ModelSpec) -> GlmFit:
    """Weighted maximum-likelihood fit by iteratively reweighted least squares,
    with the dataset's weights.  Deterministic: no randomness anywhere in the
    fit.
    """
    X = build_design(dataset, spec)
    y = dataset.column(spec.response).astype(np.float64)
    w = dataset.weights
    support = w > 0
    n_params = X.shape[1]
    if not support.any():
        raise GlmError("no rows with positive weight")

    inverse, dmu_deta = _link_functions(spec.link)
    guard_mean = spec.family == "binomial" and spec.link == "log"
    eta_ceiling = math.log(MEAN_CEILING)

    ybar = float(np.dot(w, y) / w.sum())
    beta = np.zeros(n_params)
    if spec.link == "logit":
        ybar = min(max(ybar, 1e-8), 1.0 - 1e-8)
        beta[0] = math.log(ybar / (1.0 - ybar))
    else:
        ybar = max(ybar, 1e-8)
        if guard_mean:  # start inside the region the steps are kept to
            ybar = min(ybar, MEAN_CEILING)
        beta[0] = math.log(ybar)

    eta = X @ beta
    mu = inverse(eta)
    deviance = _deviance(spec.family, y, mu, w)
    max_mu = float(mu[support].max())

    for iterations in range(1, MAX_ITERATIONS + 1):
        d = dmu_deta(mu)
        var = _variance(spec.family, mu)
        var = np.maximum(var, 1e-12)
        d = np.maximum(d, 1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            irls_w = w * d * d / var
        if not np.all(np.isfinite(irls_w)):
            raise WeightOverflow()
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
            break
    else:
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

    names = spec.term_names()
    return GlmFit(
        spec=spec,
        coefficients={name: float(b) for name, b in zip(names, beta)},
        covariance=covariance,
        deviance=deviance,
        iterations=iterations,
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


@dataclass(frozen=True)
class BatchFit:
    """Result of :func:`fit_batch`, one row per weight vector.  A failed
    fit's row of ``coefficients`` is NaN and its entry of the object array
    ``errors`` is the :class:`GlmError` :func:`fit` raises; else None."""

    spec: ModelSpec
    coefficients: np.ndarray
    errors: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        return np.isnan(self.coefficients[:, 0])


def _linear_predictors(X: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``X @ b`` for each row ``b`` of ``coefficients``, shape (fits, rows),
    summed one column at a time so that a fit's value does not depend on how
    many fits there are (a BLAS product's rounding does)."""
    eta = np.zeros((coefficients.shape[0], X.shape[0]))
    for j in range(X.shape[1]):
        eta += coefficients[:, j, None] * X[:, j]
    return eta


def fit_batch(dataset: Dataset, weights: np.ndarray, spec: ModelSpec) -> BatchFit:
    """:func:`fit` of the logistic model ``spec`` once per row of
    ``weights``, a (fits, rows) matrix of weights for the rows of
    ``dataset``, the fits taking their IRLS steps together.

    Fit ``r`` is :func:`fit` on ``dataset`` weighted by ``weights[r]`` with
    its zero-weight rows dropped: the same start, Newton steps and stopping
    rule.  It fails, recording the error, where :func:`fit` raises, checked
    in its order: no row with positive weight, working weights that
    overflow, rank below ``lstsq``'s ``rcond=None`` cutoff on the
    positive-weight rows, a coefficient past the separation bound, or no
    convergence.  The rank and the least-squares step come from one stacked
    SVD of the weighted design.  A fit leaves the batch when it converges or
    fails.

    A row enters a fit only through its design row and response, so the
    fits run on the distinct (design row, response) pairs, each weighted by
    the summed weights of its rows; only the rank cutoff counts the rows
    themselves.  The fits run in chunks of at most :data:`BATCH_ELEMENTS`
    weighted-design elements, so memory does not grow with the batch.
    Every kernel is elementwise, a reduction along the last axis or a
    stacked LAPACK or matmul call, so a fit's arithmetic does not depend on
    the other fits in the batch.  The covariance is not computed.
    """
    if spec.link != "logit":
        raise ValueError("fit_batch fits logistic models only")
    X = build_design(dataset, spec)
    y = dataset.column(spec.response).astype(np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    rows = (weights > 0).sum(axis=1)
    distinct, group = distinct_rows(np.column_stack([X, y]))
    # ufunc.at adds one row's weights at a time, in row order, so a fit's
    # sums do not depend on the other fits.
    summed = np.zeros((weights.shape[0], len(distinct)))
    np.add.at(summed, (slice(None), group), weights)
    X, y = distinct[:, :-1], distinct[:, -1]
    size = max(1, BATCH_ELEMENTS // max(X.size, 1))
    chunks = [_fit_chunk(X, y, summed[i:i + size], rows[i:i + size], spec.term_names())
              for i in range(0, len(summed), size)]
    return BatchFit(spec, *map(np.concatenate, zip(*chunks)))


def _fit_chunk(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray, rows: np.ndarray, names: Tuple[str, ...],
) -> Tuple[np.ndarray, np.ndarray]:
    """The logistic coefficients of :func:`fit_batch` for the fits weighted
    by the rows of ``weights`` on the distinct rows ``X`` and ``y``, and
    each fit's error; ``rows`` counts each fit's positive-weight rows before
    they were merged, and ``names`` names the coefficients."""
    n_params = X.shape[1]
    inverse, dmu_deta = _link_functions("logit")
    coefficients = np.full((weights.shape[0], n_params), np.nan)
    weighted = (weights > 0).any(axis=1)
    errors = np.array([None if ok else GlmError("no rows with positive weight")
                       for ok in weighted], dtype=object)

    def fail(fits, error):  # for each i where fits[i], fit live[i] failed with error(i)
        for i in np.flatnonzero(fits):
            errors[live[i]] = error(i)

    # The fits still iterating: ``live`` holds their rows in the batch, and
    # every other state array is indexed like it.
    live = np.flatnonzero(weighted)
    w = weights[live]
    cutoff = np.finfo(np.float64).eps * np.maximum(rows[live], n_params)
    ybar = np.clip((w * y).sum(axis=1) / w.sum(axis=1), 1e-8, 1.0 - 1e-8)
    beta = np.zeros((live.size, n_params))
    beta[:, 0] = np.log(ybar / (1.0 - ybar))
    eta = _linear_predictors(X, beta)
    mu = inverse(eta)
    deviance = _deviances("binomial", y, mu, w)

    for _ in range(MAX_ITERATIONS):
        if not live.size:
            break
        d = np.maximum(dmu_deta(mu), 1e-12)
        var = np.maximum(_variance("binomial", mu), 1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            sw = np.sqrt(w * d * d / var)
        z = eta + (y - mu) / d
        # A fit whose working weights overflow fails, as fit raises, and
        # gets zero weights so that the stacked SVD stays finite.
        finite = np.isfinite(sw).all(axis=1)
        sw = np.where(finite[:, None], sw, 0.0)
        u, s, vt = np.linalg.svd(sw[:, :, None] * X, full_matrices=False)
        rank = (s > cutoff[:, None] * s[:, :1]).sum(axis=1)
        fail(~finite, lambda i: WeightOverflow())
        fail(finite & (rank < n_params), lambda i: RankDeficient(int(rank[i]), n_params))
        keep = finite & (rank == n_params)
        live, w, cutoff, beta, deviance, sw, z, u, s, vt = (
            a[keep] for a in (live, w, cutoff, beta, deviance, sw, z, u, s, vt)
        )
        projected = (np.swapaxes(u, 1, 2) @ (sw * z)[:, :, None])[:, :, 0] / s
        delta = (np.swapaxes(vt, 1, 2) @ projected[:, :, None])[:, :, 0] - beta

        beta = beta + delta
        going = np.abs(beta).max(axis=1) <= SEPARATION_BOUND
        worst = np.abs(beta).argmax(axis=1)
        fail(~going, lambda i: SeparationSuspected(names[worst[i]], float(beta[i, worst[i]])))
        eta = _linear_predictors(X, beta)
        mu = inverse(eta)
        new_deviance = _deviances("binomial", y, mu, w)
        with np.errstate(invalid="ignore"):  # inf / inf is NaN, as in fit
            rel_change = np.abs(new_deviance - deviance) / (np.abs(new_deviance) + 0.1)
        deviance = new_deviance
        done = going & (rel_change < DEVIANCE_TOLERANCE) & (
            np.abs(delta).max(axis=1) < COEFFICIENT_TOLERANCE
        )
        coefficients[live[done]] = beta[done]
        going &= ~done
        live, w, cutoff, beta, eta, mu, deviance = (
            a[going] for a in (live, w, cutoff, beta, eta, mu, deviance)
        )
    fail(np.ones(live.size, dtype=bool), lambda i: NoConvergence(MAX_ITERATIONS))
    return coefficients, errors


def predict_batch(fitted: BatchFit, rows: Dataset) -> np.ndarray:
    """Fitted means of every fit of a batch for ``rows``, shape (fits, rows);
    NaN for a failed fit."""
    inverse, _ = _link_functions("logit")
    return inverse(_linear_predictors(build_design(rows, fitted.spec), fitted.coefficients))


def wald_interval(
    fit_result: GlmFit, term: str, level: float = 0.95
) -> Tuple[float, float]:
    """``exp(coef +/- z * se)`` for the given term."""
    coef = fit_result.coefficient(term)
    se = fit_result.std_error(term)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    return math.exp(coef - z * se), math.exp(coef + z * se)
