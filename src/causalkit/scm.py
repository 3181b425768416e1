"""Binary structural causal models with linear-in-parents Bernoulli nodes.

A :class:`StructuralModel` is an ordered list of node equations; each node is
Bernoulli with success probability ``intercept + sum(coef * parent_value)``.
The module supports deterministic Monte-Carlo sampling (:func:`sample`),
row filtering on a selection rule (:func:`apply_selection`) and exact
enumeration of the joint distribution (:func:`enumerate_population`), which
serves as the noise-free oracle behind the estimator test suite.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .dag import CausalDag
from .errors import (
    EmptySelection,
    CsvFormatError,
    ModelError,
    ModelInvalid,
    ParentOrderViolation,
    ProbabilityOutOfRange,
    TooManyNodes,
    UnknownColumn,
    UnknownParent,
)

ENUMERATION_NODE_LIMIT = 24
WEIGHT_COLUMN = "__weight"


@dataclass(frozen=True)
class NodeEquation:
    """One structural equation: P(node = 1 | parents) = intercept + coef . parents."""

    name: str
    intercept: float
    parents: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        # Canonical parent order, so structurally equal equations compare equal.
        object.__setattr__(self, "parents", tuple(sorted(self.parents)))

    def parent_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.parents)


@dataclass(frozen=True)
class StructuralModel:
    """An ordered collection of node equations; order must be topological."""

    equations: Tuple[NodeEquation, ...]

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))

    def node_names(self) -> Tuple[str, ...]:
        return tuple(eq.name for eq in self.equations)

    def edges(self) -> Tuple[Tuple[str, str], ...]:
        return tuple(
            (parent, eq.name) for eq in self.equations for parent in eq.parent_names()
        )

    def to_dag(
        self,
        roles: Optional[Dict[str, str]] = None,
        analysis_edge: Optional[Tuple[str, str]] = None,
    ) -> CausalDag:
        """The causal diagram this model realises.

        ``analysis_edge`` adds a declared treatment -> outcome arrow that is
        deliberately absent from the equations (no-effect data): the analysis
        graph assumes the effect may exist even though the simulation sets it
        to zero.
        """
        edges = list(self.edges())
        if analysis_edge is not None and analysis_edge not in edges:
            edges.append(tuple(analysis_edge))
        return CausalDag(self.node_names(), tuple(edges), roles or {})


@dataclass(frozen=True)
class SelectionRule:
    """Keep only rows where ``node`` equals ``value``."""

    node: str
    value: int

    def __post_init__(self):
        if self.value not in (0, 1):
            raise ValueError("selection value must be 0 or 1")


class Dataset:
    """Named binary columns with optional per-row non-negative weights.

    Estimators run on the configuration-counts table: data are collapsed
    once with :meth:`aggregate` where they enter estimation (a scenario's
    sampled rows, a CSV read by ``causalkit estimate``).  Raw rows remain
    the form of :func:`sample`, :func:`apply_selection` and the CSV file.
    Weights are frequency counts when the dataset was aggregated from rows
    and probabilities when it came from :func:`enumerate_population`; the
    caller keeps track of which interpretation applies.
    """

    def __init__(
        self,
        columns: Sequence[str],
        values: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ):
        self.columns = tuple(columns)
        values = np.asarray(values, dtype=np.uint8)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise ValueError("values must be an (n, len(columns)) array")
        if not np.all((values == 0) | (values == 1)):
            raise ValueError("dataset values must be 0 or 1")
        self.values = values
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != (values.shape[0],):
                raise ValueError("weights must have one entry per row")
            if np.any(weights < 0):
                raise ValueError("weights must be non-negative")
            if values.shape[0] and weights.sum() <= 0:
                raise ValueError("weights must not sum to zero")
        self.weights = weights

    # -- basics --------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def total_weight(self) -> float:
        if self.weights is None:
            return float(self.n)
        return float(self.weights.sum())

    def _index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise UnknownColumn(column) from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index(name)]

    def effective_weights(self) -> np.ndarray:
        if self.weights is None:
            return np.ones(self.n, dtype=np.float64)
        return self.weights

    def mean(self, column: str) -> float:
        w = self.effective_weights()
        return float(np.dot(w, self.column(column)) / w.sum())

    def with_column_set(self, column: str, value: int) -> "Dataset":
        """Copy with one column forced to a constant (do-style intervention)."""
        j = self._index(column)
        values = self.values.copy()
        values[:, j] = value
        return Dataset(self.columns, values, self.weights)

    def take(self, indices: np.ndarray) -> "Dataset":
        weights = None if self.weights is None else self.weights[indices]
        return Dataset(self.columns, self.values[indices], weights)

    def aggregate(self) -> "Dataset":
        """Collapse to one row per distinct configuration with summed weights.

        Each row's bits are packed into bytes and compared as one opaque
        scalar; ``packbits`` is big-endian, so byte order is the lexicographic
        order of the 0/1 rows and the result does not depend on input row
        order.  Memory grows with the rows, never with 2^columns.
        """
        packed = np.packbits(self.values, axis=1)
        keys = packed.view(np.dtype((np.void, packed.shape[1])))[:, 0]
        _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        weights = np.bincount(
            inverse, weights=self.effective_weights(), minlength=first.size
        )
        return Dataset(self.columns, self.values[first], weights)

    # -- CSV round trip --------------------------------------------------------

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        header = list(self.columns)
        if self.weights is not None:
            header.append(WEIGHT_COLUMN)
        writer.writerow(header)
        for i in range(self.n):
            row = [str(int(v)) for v in self.values[i]]
            if self.weights is not None:
                row.append(repr(float(self.weights[i])))
            writer.writerow(row)
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(0, "", "empty file") from None
        has_weights = header and header[-1] == WEIGHT_COLUMN
        columns = header[:-1] if has_weights else header
        if not columns:
            raise CsvFormatError(1, "", "no data columns")
        for col in columns:
            if header.count(col) > 1:
                raise CsvFormatError(1, col, "duplicate column name")
        values: list = []
        weights: list = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise CsvFormatError(row_no, "", f"expected {len(header)} cells")
            cells = row[:-1] if has_weights else row
            parsed = []
            for col, cell in zip(columns, cells):
                if cell not in ("0", "1"):
                    raise CsvFormatError(row_no, col, f"value {cell!r} is not 0 or 1")
                parsed.append(int(cell))
            values.append(parsed)
            if has_weights:
                try:
                    weight = float(row[-1])
                except ValueError:
                    weight = math.nan
                if not (math.isfinite(weight) and weight >= 0.0):
                    raise CsvFormatError(
                        row_no, WEIGHT_COLUMN,
                        f"weight {row[-1]!r} is not a finite non-negative number",
                    )
                weights.append(weight)
        array = np.array(values, dtype=np.uint8).reshape(len(values), len(columns))
        return cls(columns, array, np.array(weights) if has_weights else None)


# ---------------------------------------------------------------------------
# Model validation


def validate_model(model: StructuralModel) -> None:
    """Check declaration order and that every parent configuration is a probability.

    Raises :class:`UnknownParent`, :class:`ParentOrderViolation` or
    :class:`ProbabilityOutOfRange` naming the node and offending configuration.
    """
    declared: set = set()
    names = model.node_names()
    if len(set(names)) != len(names):
        raise ModelInvalid("duplicate node names in structural model")
    order = {name: i for i, name in enumerate(names)}
    for eq in model.equations:
        for parent in eq.parent_names():
            if parent not in order:
                raise UnknownParent(eq.name, parent)
            if parent not in declared:
                raise ParentOrderViolation(eq.name, parent)
        declared.add(eq.name)
    for eq in model.equations:
        k = len(eq.parents)
        for bits in range(2 ** k):
            config = {
                name: (bits >> (k - 1 - j)) & 1
                for j, (name, _) in enumerate(eq.parents)
            }
            p = eq.intercept + sum(
                coef * config[name] for name, coef in eq.parents
            )
            if not 0.0 <= p <= 1.0:
                raise ProbabilityOutOfRange(eq.name, config, p)


# ---------------------------------------------------------------------------
# Sampling and selection


def sample(model: StructuralModel, n: int, seed: int) -> Dataset:
    """Draw ``n`` independent rows from the model, bit-reproducibly.

    The draw for node j of row i is the uniform ``rng.mix(rng.mix(seed, i), j)``
    (see :mod:`causalkit.rng`); the node is 1 iff the uniform falls below its
    success probability.  Identical ``(model, n, seed)`` give identical data
    on every platform, and disjoint row ranges can be generated independently.
    """
    try:
        validate_model(model)
    except ModelError as exc:
        raise ModelInvalid(str(exc)) from exc
    if n < 0:
        raise ValueError("n must be non-negative")
    names = model.node_names()
    k = len(names)
    uniforms = rng.uniform_matrix(seed, n, k)
    values = np.zeros((n, k), dtype=np.uint8)
    col = {name: j for j, name in enumerate(names)}
    for j, eq in enumerate(model.equations):
        p = np.full(n, eq.intercept, dtype=np.float64)
        for parent, coef in eq.parents:
            p += coef * values[:, col[parent]]
        values[:, j] = uniforms[:, j] < p
    return Dataset(names, values)


def apply_selection(dataset: Dataset, rule: SelectionRule) -> Dataset:
    """Rows where the selection column takes the selected value, order preserved."""
    mask = dataset.column(rule.node) == rule.value
    return dataset.take(np.flatnonzero(mask))


# ---------------------------------------------------------------------------
# Exact enumeration


def enumerate_population(
    model: StructuralModel, selection: Optional[SelectionRule] = None
) -> Dataset:
    """One row per joint 0/1 configuration, weighted by its exact probability.

    Under a selection rule, rows are filtered and the weights renormalised to
    sum to one.  Limited to ``ENUMERATION_NODE_LIMIT`` nodes.
    """
    validate_model(model)
    names = model.node_names()
    k = len(names)
    if k > ENUMERATION_NODE_LIMIT:
        raise TooManyNodes(k, ENUMERATION_NODE_LIMIT)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    configs = ((np.arange(2 ** k, dtype=np.uint32)[:, None] >> shifts) & 1).astype(
        np.uint8
    )
    weights = np.ones(2 ** k, dtype=np.float64)
    col = {name: j for j, name in enumerate(names)}
    for j, eq in enumerate(model.equations):
        p = np.full(2 ** k, eq.intercept, dtype=np.float64)
        for parent, coef in eq.parents:
            p += coef * configs[:, col[parent]]
        weights *= np.where(configs[:, j] == 1, p, 1.0 - p)
    population = Dataset(names, configs, weights)
    if selection is not None:
        mask = population.column(selection.node) == selection.value
        total = float(weights[mask].sum())
        if total <= 0.0:
            raise EmptySelection(selection)
        population = Dataset(
            population.columns, configs[mask], weights[mask] / total
        )
    return population
