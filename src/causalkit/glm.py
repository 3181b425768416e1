"""Generalized linear models for binary data, fitted by IRLS.

Supports binomial/logit (logistic), binomial/log (log-binomial) and
poisson/log families with frequency or probability weights.  The log-binomial
fit halves any step that would take a positive-weight row's fitted mean over
:data:`MEAN_CEILING`, since the log link is not canonical and an unguarded
Newton step leaves the parameter space; the halving is the only guard, so a
log-binomial prediction for a pattern off the data may exceed one.
Covariance is the inverse expected information at convergence, taken from
the SVD of the weighted design with the rank cutoff the IRLS steps use, so
the information matrix is never formed; Wald intervals are reported on the
exponentiated scale.

There is one IRLS loop.  :func:`fit_batch` makes many fits of one model to
one table that differ only in their row weights, as bootstrap replicates do,
taking the IRLS steps of all of them at once; a fit's arithmetic does not
depend on the other fits in the batch.  It runs on the table's distinct
(design row, response) pairs, in chunks of at most :data:`BATCH_ELEMENTS`
elements, so its memory does not grow with the batch.  :func:`fit` is a
batch of one plus the covariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Tuple

import numpy as np

from .errors import (
    GlmError,
    IntervalOverflow,
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
    iterations: int
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
        return math.sqrt(self.covariance[j, j])


def build_design(dataset: Dataset, spec: ModelSpec) -> np.ndarray:
    """Design matrix: intercept, main-effect columns, interaction products."""
    n = dataset.n
    cols = [np.ones(n, dtype=np.float64)]
    for term in spec.terms:
        cols.append(dataset.column(term).astype(np.float64))
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
        # exp overflows to inf for eta above about 709, and the fit then
        # fails on its working weights.
        with np.errstate(over="ignore"):
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


def _deviances(family: str, y, mu, w) -> np.ndarray:
    """The deviance of each row of ``mu`` and ``w``; zero-weight rows count
    for nothing even where their unit deviance is infinite.  Near the
    largest float a sum overflows to inf, and the fit then fails its
    convergence test."""
    with np.errstate(over="ignore", invalid="ignore"):
        return 2.0 * np.where(w > 0, w * _unit_deviance(family, y, mu), 0.0).sum(axis=1)


def _linear_predictors(X: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """``X @ b`` for each row ``b`` of ``coefficients``, shape (fits, rows),
    summed one column at a time so that a fit's value does not depend on how
    many fits there are (a BLAS product's rounding does)."""
    eta = np.zeros((coefficients.shape[0], X.shape[0]))
    for j in range(X.shape[1]):
        eta += coefficients[:, j, None] * X[:, j]
    return eta


def _means(
    spec: ModelSpec, X: np.ndarray, coefficients: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The linear predictors ``eta`` of :func:`_linear_predictors` and the
    means, their inverse link: the fit's means at its start and after each
    step, and every prediction.  Nothing caps a log-binomial mean here; the
    fit's step-halving keeps its positive-weight rows below the ceiling."""
    eta = _linear_predictors(X, coefficients)
    inverse, _ = _link_functions(spec.link)
    return eta, inverse(eta)


def _rank(s: np.ndarray, rows, n_params: int):
    """The rank of a weighted design from its singular values ``s``, largest
    first along the last axis, one row per fit: the count above ``eps *
    max(rows, n_params) * s_max``, ``lstsq``'s ``rcond=None`` cutoff, where
    ``rows`` counts each fit's positive-weight rows before they were
    merged."""
    cutoff = np.finfo(np.float64).eps * np.maximum(rows, n_params)
    return (s > cutoff[..., None] * s[..., :1]).sum(axis=-1)


def _highest_means(mu: np.ndarray, support: np.ndarray) -> np.ndarray:
    """Each fit's highest fitted mean on its positive-weight rows."""
    return np.where(support, mu, -np.inf).max(axis=1, initial=-np.inf)


def fit(dataset: Dataset, spec: ModelSpec) -> GlmFit:
    """Weighted maximum-likelihood fit by iteratively reweighted least squares,
    with the dataset's weights: :func:`fit_batch` on a batch of one, raising
    the error it records, plus the covariance, the inverse expected
    information at the solution.  With ``U S Vt`` the SVD of the design
    weighted by the square roots of the information weights, that is ``V
    S^-2 Vt``.  It raises :class:`WeightOverflow` where those weights are
    not finite, and :class:`RankDeficient` where :func:`_rank` finds ``S``
    short of full rank, as a step of the fit does.  The information matrix
    ``X'WX`` is never formed, since forming it squares the design's
    condition number.  Deterministic: no randomness anywhere in the fit.
    """
    batch = fit_batch(dataset, dataset.weights[None, :], spec)
    if batch.errors[0] is not None:
        raise batch.errors[0]
    X = build_design(dataset, spec)
    w = dataset.weights
    mu = _means(spec, X, batch.coefficients)[1][0]
    d = _link_functions(spec.link)[1](mu)
    var = np.maximum(_variance(spec.family, mu), 1e-12)
    with np.errstate(over="ignore"):
        info_w = w * d * d / var
    # The loop checked its working weights at the last step's start; the
    # step can still take a mean near the ceiling close enough to overflow.
    if not np.isfinite(info_w).all():
        raise WeightOverflow()
    _, s, vt = np.linalg.svd(np.sqrt(info_w)[:, None] * X, full_matrices=False)
    rank = int(_rank(s, (w > 0).sum(), X.shape[1]))
    if rank < X.shape[1]:
        raise RankDeficient(rank, X.shape[1])
    root = vt.T / s  # V S^-1; squaring S itself could overflow
    covariance = root @ root.T
    return GlmFit(
        spec=spec,
        coefficients={name: float(b) for name, b in zip(spec.term_names(), batch.coefficients[0])},
        covariance=covariance,
        iterations=int(batch.iterations[0]),
        max_fitted_mean=float(batch.max_fitted_means[0]),
    )


def predict(fit_result: GlmFit, rows: Dataset) -> np.ndarray:
    """Fitted means for new rows, as :func:`predict_batch` gives them for
    one coefficient row: the inverse link of ``X @ beta``.  A log-binomial
    mean for a pattern the fit gave no weight may exceed one."""
    beta = np.array([list(fit_result.coefficients.values())])
    return _means(fit_result.spec, build_design(rows, fit_result.spec), beta)[1][0]


@dataclass(frozen=True)
class BatchFit:
    """Result of :func:`fit_batch`, one row or entry per weight vector.  A
    failed fit's row of ``coefficients`` is NaN, its ``iterations`` and
    ``max_fitted_means`` entries are 0 and NaN, and its entry of the object
    array ``errors`` is the :class:`GlmError` it failed with; else None.
    ``max_fitted_means`` is the highest fitted mean on the fit's
    positive-weight rows over its start and every step."""

    spec: ModelSpec
    coefficients: np.ndarray
    errors: np.ndarray
    iterations: np.ndarray
    max_fitted_means: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        return np.isnan(self.coefficients[:, 0])


def fit_batch(dataset: Dataset, weights: np.ndarray, spec: ModelSpec) -> BatchFit:
    """The IRLS fit of ``spec`` once per row of ``weights``, a (fits, rows)
    matrix of weights for the rows of ``dataset``, the fits taking their
    Newton steps together.  This is the package's one IRLS loop, for every
    family and link; :func:`fit` is a batch of one.

    Fit ``r`` is the weighted maximum-likelihood fit on ``dataset``
    weighted by ``weights[r]`` with its zero-weight rows dropped.  It
    starts at the intercept of the weighted outcome mean (for the
    log-binomial, at or below :data:`MEAN_CEILING`) and takes Newton steps
    until both the deviance's relative change and the largest coefficient
    step fall below their tolerances.  A log-binomial step is halved, at
    most :data:`MAX_STEP_HALVINGS` times, while it takes a positive-weight
    row's linear predictor over ``log(MEAN_CEILING)``; that halving alone
    holds the ceiling.  A fit fails, recording the error, checked in this
    order: no row with positive weight, working weights that overflow
    (reported as a diverged coefficient when one is already past the
    separation bound, as a diverging poisson fit's can be), rank below
    :func:`_rank`'s cutoff on the positive-weight rows, a
    binomial coefficient past the separation bound, or no convergence.  The
    rank and the least-squares step come from one stacked SVD of the
    weighted design.  A fit leaves the batch when it converges or fails.

    A row enters a fit only through its design row and response, so the
    fits run on the distinct (design row, response) pairs, each weighted by
    the summed weights of its rows; only the rank cutoff counts the rows
    themselves.  The fits run in chunks of at most :data:`BATCH_ELEMENTS`
    weighted-design elements, so memory does not grow with the batch.
    Every kernel is elementwise, a reduction along the last axis or a
    stacked LAPACK or matmul call, so a fit's arithmetic does not depend on
    the other fits in the batch.  The covariance is not computed.
    """
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
    chunks = [_fit_chunk(X, y, summed[i:i + size], rows[i:i + size], spec)
              for i in range(0, len(summed), size)]
    return BatchFit(spec, *map(np.concatenate, zip(*chunks)))


def _fit_chunk(
    X: np.ndarray, y: np.ndarray, weights: np.ndarray, rows: np.ndarray, spec: ModelSpec,
) -> Tuple[np.ndarray, ...]:
    """The coefficients of :func:`fit_batch` for the fits weighted by the
    rows of ``weights`` on the distinct rows ``X`` and ``y``, each fit's
    error, iteration count and highest fitted mean; ``rows`` counts each
    fit's positive-weight rows before they were merged.  The deviance is
    kept only for the convergence test."""
    n_params = X.shape[1]
    names = spec.term_names()
    _, dmu_deta = _link_functions(spec.link)
    guard_mean = spec.family == "binomial" and spec.link == "log"
    eta_ceiling = math.log(MEAN_CEILING)
    coefficients = np.full((weights.shape[0], n_params), np.nan)
    max_fitted_means = np.full(weights.shape[0], np.nan)
    iterations = np.zeros(weights.shape[0], dtype=np.int64)
    weighted = (weights > 0).any(axis=1)
    errors = np.array([None if ok else GlmError("no rows with positive weight")
                       for ok in weighted], dtype=object)

    def fail(fits, error):  # for each i where fits[i], fit live[i] failed with error(i)
        for i in np.flatnonzero(fits):
            errors[live[i]] = error(i)

    def diverged(i):  # fit live[i] has a coefficient past the separation bound
        worst = int(np.abs(beta[i]).argmax())
        return SeparationSuspected(names[worst], float(beta[i, worst]))

    # The fits still iterating: ``live`` holds their rows in the batch, and
    # every other state array is indexed like it.
    live = np.flatnonzero(weighted)
    w = weights[live]
    support = w > 0
    rows = rows[live]
    ybar = (w * y).sum(axis=1) / w.sum(axis=1)
    beta = np.zeros((live.size, n_params))
    if spec.link == "logit":
        ybar = np.clip(ybar, 1e-8, 1.0 - 1e-8)
        beta[:, 0] = np.log(ybar / (1.0 - ybar))
    else:
        ybar = np.maximum(ybar, 1e-8)
        if guard_mean:  # start inside the region the steps are kept to
            ybar = np.minimum(ybar, MEAN_CEILING)
        beta[:, 0] = np.log(ybar)
    eta, mu = _means(spec, X, beta)
    deviance = _deviances(spec.family, y, mu, w)
    max_mu = _highest_means(mu, support)

    for iteration in range(1, MAX_ITERATIONS + 1):
        if not live.size:
            break
        d = np.maximum(dmu_deta(mu), 1e-12)
        var = np.maximum(_variance(spec.family, mu), 1e-12)
        with np.errstate(over="ignore", invalid="ignore"):
            sw = np.sqrt(w * d * d / var)
            z = eta + (y - mu) / d
        # A fit whose working weights overflow fails, and gets zero weights
        # so that the stacked SVD stays finite.  Its coefficients past the
        # separation bound mean that the fit diverged (a poisson fit has no
        # other bound), not that its weights are too large.
        finite = np.isfinite(sw).all(axis=1)
        sw = np.where(finite[:, None], sw, 0.0)
        u, s, vt = np.linalg.svd(sw[:, :, None] * X, full_matrices=False)
        rank = _rank(s, rows, n_params)
        past = np.abs(beta).max(axis=1) > SEPARATION_BOUND
        fail(~finite & past, diverged)
        fail(~finite & ~past, lambda i: WeightOverflow())
        fail(finite & (rank < n_params), lambda i: RankDeficient(int(rank[i]), n_params))
        keep = finite & (rank == n_params)
        live, w, support, rows, beta, deviance, max_mu, sw, z, u, s, vt = (
            a[keep] for a in (live, w, support, rows, beta, deviance, max_mu, sw, z, u, s, vt)
        )
        projected = (np.swapaxes(u, 1, 2) @ (sw * z)[:, :, None])[:, :, 0] / s
        delta = (np.swapaxes(vt, 1, 2) @ projected[:, :, None])[:, :, 0] - beta

        # A log-binomial step is halved while it takes a positive-weight
        # row's linear predictor over the ceiling.
        for _ in range(MAX_STEP_HALVINGS if guard_mean else 0):
            over = (support & ~(_linear_predictors(X, beta + delta) <= eta_ceiling)).any(axis=1)
            if not over.any():
                break
            delta = np.where(over[:, None], delta / 2.0, delta)

        beta = beta + delta
        going = (np.abs(beta).max(axis=1) <= SEPARATION_BOUND) | (spec.family != "binomial")
        fail(~going, diverged)
        eta, mu = _means(spec, X, beta)
        max_mu = np.maximum(max_mu, _highest_means(mu, support))
        new_deviance = _deviances(spec.family, y, mu, w)
        with np.errstate(invalid="ignore"):  # inf / inf is NaN: no convergence
            rel_change = np.abs(new_deviance - deviance) / (np.abs(new_deviance) + 0.1)
        deviance = new_deviance
        done = going & (rel_change < DEVIANCE_TOLERANCE) & (
            np.abs(delta).max(axis=1) < COEFFICIENT_TOLERANCE
        )
        coefficients[live[done]] = beta[done]
        max_fitted_means[live[done]] = max_mu[done]
        iterations[live[done]] = iteration
        going &= ~done
        live, w, support, rows, beta, eta, mu, deviance, max_mu = (
            a[going] for a in (live, w, support, rows, beta, eta, mu, deviance, max_mu)
        )
    fail(np.ones(live.size, dtype=bool), lambda i: NoConvergence(MAX_ITERATIONS))
    return coefficients, errors, iterations, max_fitted_means


def predict_batch(fitted: BatchFit, rows: Dataset) -> np.ndarray:
    """Fitted means of every fit of a batch for ``rows``, shape (fits, rows),
    for every link: the inverse link of ``X @ beta``, NaN for a failed fit.
    A log-binomial mean for a pattern a fit gave no weight may exceed one."""
    return _means(fitted.spec, build_design(rows, fitted.spec), fitted.coefficients)[1]


def wald_interval(
    fit_result: GlmFit, term: str, level: float = 0.95
) -> Tuple[float, float]:
    """``exp(coef +/- z * se)`` for the given term; raises
    :class:`IntervalOverflow` where the upper end is past the largest float."""
    coef = fit_result.coefficient(term)
    se = fit_result.std_error(term)
    z = NormalDist().inv_cdf(0.5 + level / 2.0)
    try:
        return math.exp(coef - z * se), math.exp(coef + z * se)
    except OverflowError as exc:
        raise IntervalOverflow(term, se) from exc
