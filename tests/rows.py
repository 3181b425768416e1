"""Sampled rows held whole, for tests that need rows or unweighted CSV text,
CSV text read back, and one GLM fit in a loop of its own.

``causalkit.scm.sample`` draws straight to the configuration-counts table;
the rows it counts come one block at a time from ``sample_blocks``.  These
helpers hold those rows in one dataset, each row weighted 1, as the
reference the counts table and the ``simulate`` text are checked against.
``Dataset.from_csv`` reads a file's bytes, so CSV text is read as its UTF-8
bytes (:func:`read_csv`); :func:`quote_first_cells` turns a file of bare
0/1 cells into one that its general reader takes.

``causalkit.glm`` runs one IRLS, batched over weight vectors on a table's
distinct rows.  :func:`reference_fit` and :func:`reference_predict` are a
single fit and its predictions written out row by row, the reference the
batched fits are checked against, exactly where :func:`well_posed` finds
the maximum-likelihood fit finite.  :func:`reference_arm_ratio` is the ratio
of one table's weighted arm means, indexed arm by arm, the reference for the
masked sums of the estimators' batched statistics.
"""

import math

import numpy as np

from causalkit.errors import (
    DegenerateArm, GlmError, NoConvergence, RankDeficient, SeparationSuspected, WeightOverflow,
    ZeroRiskControlArm,
)
from causalkit.glm import (
    COEFFICIENT_TOLERANCE, DEVIANCE_TOLERANCE, MAX_ITERATIONS, MAX_STEP_HALVINGS, MEAN_CEILING,
    SEPARATION_BOUND, GlmFit, _link_functions, _unit_deviance, _variance, build_design,
)
from causalkit.scm import Dataset, apply_selection, sample_blocks


def sample_rows(model, n, seed):
    """The ``n`` rows that ``sample(model, n, seed)`` counts, in order."""
    empty = np.zeros((0, len(model.equations)), dtype=np.uint8)
    return Dataset(model.node_names(), np.concatenate([empty, *sample_blocks(model, n, seed)]))


def scenario_rows(scenario):
    """The scenario's sampled rows after its selection rule: the rows whose
    CSV text ``simulate`` writes."""
    rows = sample_rows(scenario.model, scenario.sample_size, scenario.seed)
    return rows if scenario.selection is None else apply_selection(rows, scenario.selection)


def read_csv(text):
    """``Dataset.from_csv`` of ``text`` as a file of its UTF-8 bytes."""
    return Dataset.from_csv(text.encode())


def quote_first_cells(data):
    """CSV bytes of bare 0/1 cells with each body line's first cell quoted,
    a form that ``Dataset.from_csv`` reads with its general reader, not as
    a grid."""
    return data.replace(b"\n0,", b'\n"0",').replace(b"\n1,", b'\n"1",')


def _deviance(family, y, mu, w):
    # Near the largest float the product overflows to inf, and the fit then
    # fails its convergence test.
    with np.errstate(over="ignore"):
        return float(2.0 * np.dot(w, _unit_deviance(family, y, mu)))


def reference_fit(dataset, spec, covariance=True):
    """One weighted IRLS fit on the rows of ``dataset``, in a loop of its
    own: the reference :func:`causalkit.glm.fit_batch` is checked against.
    It takes the same start and Newton steps on every row (not on the
    distinct rows), solves each step with ``lstsq``, and raises the error
    ``fit_batch`` records.  Then, unless ``covariance`` is false, as for
    ``fit_batch``, which computes none, it inverts the information, raising
    :class:`RankDeficient` where that fails."""
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
            if np.max(np.abs(beta)) > SEPARATION_BOUND:
                worst = int(np.argmax(np.abs(beta)))
                raise SeparationSuspected(spec.term_names()[worst], float(beta[worst]))
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

    if covariance:  # the inverse expected information at the solution
        d = dmu_deta(mu)
        var = np.maximum(_variance(spec.family, mu), 1e-12)
        info_w = w * d * d / var
        information = (X * info_w[:, None]).T @ X
        try:
            covariance = np.linalg.inv(information)
        except np.linalg.LinAlgError as exc:
            raise RankDeficient(int(np.linalg.matrix_rank(information)), n_params) from exc
    else:
        covariance = None

    names = spec.term_names()
    return GlmFit(
        spec=spec,
        coefficients={name: float(b) for name, b in zip(names, beta)},
        covariance=covariance,
        iterations=iterations,
        max_fitted_mean=max_mu,
    )


def well_posed(d, weights, spec):
    """Whether every design row of ``spec`` on ``d`` with a positive weight
    has both outcomes.  Then the maximum-likelihood fit is finite (Albert &
    Anderson 1984) and each cell mean lies strictly between 0 and 1."""
    positive = weights > 0
    keys = [tuple(x) for x in build_design(d, spec)[positive]]
    y = d.column(spec.response)[positive]
    return {k for k, v in zip(keys, y) if v} == {k for k, v in zip(keys, y) if not v}


def reference_predict(fit_result, rows):
    """Fitted means of ``fit_result`` for ``rows``: the inverse link of
    ``X @ beta``."""
    X = build_design(rows, fit_result.spec)
    beta = np.array(list(fit_result.coefficients.values()))
    inverse, _ = _link_functions(fit_result.spec.link)
    return inverse(X @ beta)


def reference_arm_ratio(d, treatment, outcome):
    """The ratio of the weighted outcome means by arm on ``d``, each arm's
    rows picked out by indexing.  Raises :class:`DegenerateArm` for an empty
    treated arm, then for an empty control arm, then
    :class:`ZeroRiskControlArm`."""
    t = d.column(treatment).astype(bool)
    y = d.column(outcome).astype(np.float64)
    w = d.weights
    w1, w0 = w[t].sum(), w[~t].sum()
    if w1 <= 0.0:
        raise DegenerateArm(treatment, 1)
    if w0 <= 0.0:
        raise DegenerateArm(treatment, 0)
    p0 = float(np.dot(w[~t], y[~t]) / w0)
    if p0 == 0.0:
        raise ZeroRiskControlArm(outcome)
    return float(np.dot(w[t], y[t]) / w1) / p0
