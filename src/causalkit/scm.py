"""Binary structural causal models with linear-in-parents Bernoulli nodes.

A :class:`StructuralModel` is an ordered list of node equations; each node is
Bernoulli with success probability ``intercept + sum(coef * parent_value)``.
Its constructor runs :func:`validate_model`, so a model that exists is
valid and nothing downstream checks it again.  The module supports
deterministic Monte-Carlo sampling in blocks of rows, either to rows
(:func:`sample`) or straight to the configuration counts of the rows a
selection rule keeps (:func:`sample_counts`), row filtering on a
selection rule (:func:`apply_selection`), exact enumeration of the joint
distribution (:func:`enumerate_population`) and the exact margin over a few
columns (:func:`population_margin`).  The margin is the noise-free oracle
behind the estimators: it is computed by variable elimination over the
queried nodes' ancestors, so its cost follows the width of the model's
structure, not its node count.  Enumeration stays as the way
to feed a whole population to an estimator and as the reference the margin
is tested against.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
import string
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import rng
from .dag import CausalDag
from .errors import (
    EmptySelection,
    CsvFormatError,
    ModelInvalid,
    ParentOrderViolation,
    ProbabilityOutOfRange,
    TooManyNodes,
    UnknownColumn,
    UnknownParent,
)

# Largest number of binary nodes one exact computation spans at once: all
# of them for enumeration, the widest elimination step for a margin.
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
    """An ordered collection of node equations; order must be topological.
    The constructor runs :func:`validate_model`."""

    equations: Tuple[NodeEquation, ...]

    def __post_init__(self):
        object.__setattr__(self, "equations", tuple(self.equations))
        validate_model(self)

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

    Estimators run on the configuration-counts table.  Each data source
    enters it once: :meth:`from_csv` reads a CSV file straight into counts,
    and :func:`sample_counts` samples a scenario straight into counts, a
    block of rows at a time.  Raw rows remain the form of :func:`sample`,
    :func:`apply_selection` and the CSV file that :meth:`to_csv` writes
    with whole-array code, no per-cell Python loop.
    Weights are frequency counts when the dataset was aggregated from rows,
    sampled to counts or read from an unweighted CSV file, and
    probabilities when it came from :func:`enumerate_population` or
    :func:`population_margin`; a ``__weight`` column may hold
    either, and the caller keeps track of which interpretation applies.
    Weights must be finite and non-negative.
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
            if not np.all(np.isfinite(weights)):
                raise ValueError("weights must be finite")
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

        The configurations come from :func:`distinct_rows`, in lexicographic
        order, so the result does not depend on input row order.  Memory
        grows with the rows, never with 2^columns.
        """
        values, group = distinct_rows(self.values)
        weights = np.bincount(group, weights=self.effective_weights(), minlength=len(values))
        return Dataset(self.columns, values, weights)

    # -- CSV round trip --------------------------------------------------------

    def to_csv(self) -> str:
        """The dataset as CSV text: a header row, then one line per row.

        The body is one byte matrix, a digit and a separator per cell,
        decoded once.  A weight follows the cells as ``repr(float(w))``,
        which reads back as the same float.
        """
        buf = io.StringIO()
        header = list(self.columns)
        if self.weights is not None:
            header.append(WEIGHT_COLUMN)
        csv.writer(buf, lineterminator="\n").writerow(header)
        n, k = self.values.shape
        # One column even when k == 0, so that a row is then a bare line break.
        body = np.full((n, max(2 * k, 1)), ord(","), dtype=np.uint8)
        body[:, 0:2 * k:2] = self.values + ord("0")
        if self.weights is None:
            body[:, -1] = ord("\n")
            return buf.getvalue() + body.tobytes().decode("ascii")
        width = 2 * k
        cells = body[:, :width].tobytes().decode("ascii")
        return buf.getvalue() + "".join(
            f"{cells[i * width:(i + 1) * width]}{weight!r}\n"
            for i, weight in enumerate(self.weights.tolist())
        )

    @classmethod
    def from_csv(cls, text: str) -> "Dataset":
        """Read CSV text into its configuration-counts table.

        The text is a header row, then one row per line; cells are ``0`` or
        ``1``, quoted or not; CRLF line ends, blank lines and a missing
        final line break are accepted.  The result is what reading the rows
        and calling :meth:`aggregate` gives, bit for bit: one row per
        distinct configuration in lexicographic order, weighted by the sum
        of its rows' weights (1 a row, or its ``__weight``), added in row
        order.  No row matrix is built.  Each distinct line is parsed once
        (binary data has at most 2^k of them), lines that spell the same
        configuration (``0,1``, ``"0",1``, ``0,1\\r``) are merged by
        :func:`distinct_rows`, and each row's weight goes to its
        configuration by one ``np.bincount``, so the cost is linear in the
        rows.  In a weighted file a line's key is its text up to the last
        comma, and the ``__weight`` text after it goes through ``float``
        row by row.  Errors name the first bad row, as a row-by-row reader
        would.
        """
        reader = csv.reader(io.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(0, "", "empty file") from None
        except csv.Error as exc:
            raise CsvFormatError(1, "", str(exc)) from None
        has_weights = bool(header) and header[-1] == WEIGHT_COLUMN
        columns = header[:-1] if has_weights else header
        if not columns:
            raise CsvFormatError(1, "", "no data columns")
        for col in columns:
            if header.count(col) > 1:
                raise CsvFormatError(1, col, "duplicate column name")
        # Line i of the body is CSV row i + 2, blank lines included.
        lines = text.split("\n")[reader.line_num:]
        if has_weights:
            cuts = [line.rfind(",") + 1 for line in lines]
            keys = [line[:cut] or line for line, cut in zip(lines, cuts)]
        else:
            keys = lines
        first_seen: dict = {}
        first = np.fromiter(
            map(first_seen.setdefault, keys, itertools.count()),
            dtype=np.intp, count=len(keys),
        )
        table, blank, error = _parse_distinct_lines(first_seen, header, columns)
        configs, group = distinct_rows(table)
        # config[i]: the configuration of the line whose first appearance is
        # line i, or -1 for a blank line.
        line_config = np.full(len(blank), -1, dtype=np.intp)
        line_config[~blank] = group
        config = np.empty(len(keys), dtype=np.intp)
        config[list(first_seen.values())[:len(blank)]] = line_config
        # Rows past the first bad line are never read, as in a row-by-row reader.
        end = len(keys) if error is None else error.row - 2
        row_configs = config[first[:end]]
        rows = np.flatnonzero(row_configs >= 0)
        weights = None
        if has_weights:
            weights = np.array(
                [_read_weight(row + 2, lines[row], cuts[row]) for row in rows.tolist()],
                dtype=np.float64,
            )
        if error is not None:
            raise error
        counts = np.bincount(row_configs[rows], weights=weights, minlength=len(configs))
        with np.errstate(over="ignore"):  # an inf total is refused below
            total = counts.sum()
        if counts.size and not 0.0 < total < math.inf:
            last_row = len(lines) + 1 - text.endswith("\n")
            raise CsvFormatError(last_row, WEIGHT_COLUMN, (
                "weights sum to zero" if total == 0.0
                else "weights sum to more than the largest float"
            ))
        return cls(columns, configs, counts)


def distinct_rows(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 0/1 matrix in lexicographic order and the
    index of each row among them: ``np.unique(table, axis=0,
    return_inverse=True)`` through integer keys, which sort many times
    faster than rows do.  Keys below 2^8 or 2^16 are sorted as uint8 or
    uint16, which numpy's stable sort orders by radix."""
    key = np.zeros(len(table), dtype=np.int64)
    bound = 1  # every key is below it
    for column in table.T:
        if bound > 2**61:  # doubling would overflow: rank the keys first
            key = np.unique(key, return_inverse=True)[1]
            bound = len(table)
        key = 2 * key + column.astype(np.int64)
        bound *= 2
    if bound <= 2**8:
        key = key.astype(np.uint8)
    elif bound <= 2**16:
        key = key.astype(np.uint16)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return table[first], group


def _parse_distinct_lines(first_seen: dict, header: list, columns: list):
    """Parse each distinct body line once, in order of first appearance.

    ``first_seen`` maps a line (a weighted line's key) to the index of its
    first appearance.  Of the lines before the first bad one, returns the
    0/1 cell table of those that are not blank and the blank-line flags of
    all, then the first bad line's error (or ``None``).  Lines are ordered
    by first appearance, so the first bad line is also the first bad row of
    the file.
    """
    parsed: list = []
    blank: list = []
    error = None
    # Each line keeps its line break, so a quote left open at the end of a
    # line shows as a line break inside a cell.
    records = csv.reader([line + "\n" for line in first_seen])
    for first in first_seen.values():
        try:
            record = next(records)
        except csv.Error as exc:
            error = CsvFormatError(first + 2, "", str(exc))
            break
        error = _record_error(first + 2, record, header, columns)
        if error is not None:
            break
        blank.append(not record)
        if record:
            parsed.append([cell == "1" for cell in record[:len(columns)]])
    table = np.array(parsed, dtype=np.uint8).reshape(len(parsed), len(columns))
    return table, np.array(blank, dtype=bool), error


def _record_error(
    row_no: int, record: list, header: list, columns: list
) -> Optional[CsvFormatError]:
    """The first rule a CSV record breaks (a blank record breaks none)."""
    if not record:
        return None
    if any("\n" in cell for cell in record):
        return CsvFormatError(row_no, "", "quoted cell runs past the end of the line")
    if len(record) != len(header):
        return CsvFormatError(row_no, "", f"expected {len(header)} cells")
    for col, cell in zip(columns, record):
        if cell not in ("0", "1"):
            return CsvFormatError(row_no, col, f"value {cell!r} is not 0 or 1")
    return None


def _weight_or_nan(text: str) -> float:
    try:
        weight = float(text)
    except ValueError:
        return math.nan
    return weight if math.isfinite(weight) and weight >= 0.0 else math.nan


def _read_weight(row_no: int, line: str, cut: int) -> float:
    """The ``__weight`` of one body line: the text after its last comma.

    Plain numbers go straight through ``float``.  Anything else (a quoted
    cell, a carriage return that does not end the line, a bad value) is
    read as a CSV cell first, so it is accepted or reported as the csv
    module reads it.
    """
    text = line[cut:]
    if "\r" not in text[:-1]:
        weight = _weight_or_nan(text)
        if not math.isnan(weight):
            return weight
    try:
        cell = next(csv.reader([line + "\n"]))[-1]
    except csv.Error as exc:
        raise CsvFormatError(row_no, WEIGHT_COLUMN, str(exc)) from None
    if "\n" in cell:
        raise CsvFormatError(
            row_no, WEIGHT_COLUMN, "quoted cell runs past the end of the line"
        )
    weight = _weight_or_nan(cell)
    if math.isnan(weight):
        raise CsvFormatError(
            row_no, WEIGHT_COLUMN,
            f"weight {cell!r} is not a finite non-negative number",
        )
    return weight


# ---------------------------------------------------------------------------
# Model validation

_BLOCK_PARENTS = 16


def validate_model(model: StructuralModel) -> None:
    """Check declaration order and that every parent configuration is a probability.

    :class:`StructuralModel` runs this when it is constructed.  Raises
    :class:`ModelInvalid` for a node name used twice, or
    :class:`UnknownParent`, :class:`ParentOrderViolation` or
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
        coefficients = [coef for _, coef in eq.parents]
        # Configurations are checked in blocks of at most 2^_BLOCK_PARENTS,
        # one per setting of the leading parents, so memory stays small
        # however many parents a node has.
        lead = max(0, len(coefficients) - _BLOCK_PARENTS)
        for prefix in itertools.product((0, 1), repeat=lead):
            start = eq.intercept
            for coef, bit in zip(coefficients, prefix):
                start = start + coef * bit
            p = _success_probabilities(start, coefficients[lead:])
            bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
            if bad.size:
                bits = prefix + np.unravel_index(bad[0], p.shape)
                config = {name: int(bit) for (name, _), bit in zip(eq.parents, bits)}
                raise ProbabilityOutOfRange(eq.name, config, float(p.flat[bad[0]]))


def _success_probabilities(start: float, coefficients: Sequence[float]) -> np.ndarray:
    """``start + sum(coef * bit)`` for every 0/1 setting of the bits: one axis
    of length 2 per coefficient, so the flat order is the lexicographic order
    of the settings.

    With a node's intercept and parent coefficients this is P(node = 1) for
    every parent configuration.  The terms are added in the order
    :func:`sample` and :func:`enumerate_population` add them, so every
    :class:`StructuralModel` gives those functions probabilities in [0, 1].
    """
    k = len(coefficients)
    p = np.full((2,) * k, start, dtype=np.float64)
    for axis, coef in enumerate(coefficients):
        p = p + coef * np.arange(2.0).reshape([2 if j == axis else 1 for j in range(k)])
    return p


# ---------------------------------------------------------------------------
# Sampling and selection


# Rows drawn at once.  Both samplers work block by block, so a block's
# uniforms and values are the largest arrays they build besides the
# result.  Of 2^12 to 2^16, 2^14 sampled the case study to counts fastest
# on a 2-vCPU x86-64 host.
SAMPLE_BLOCK_ROWS = 2**14


def _sample_block(model: StructuralModel, seed: int, start: int, stop: int) -> np.ndarray:
    """The (stop - start, k) 0/1 values of rows ``start`` to ``stop - 1``:
    node j of row i is 1 iff the uniform ``rng.mix(rng.mix(seed, i), j)``
    falls below its success probability."""
    n = stop - start
    uniforms = rng.uniform_matrix(seed, n, len(model.equations), start).T
    values = np.empty((len(model.equations), n), dtype=np.uint8)
    row = {eq.name: j for j, eq in enumerate(model.equations)}
    p = np.empty(n, dtype=np.float64)
    term = np.empty(n, dtype=np.float64)
    for j, eq in enumerate(model.equations):
        p.fill(eq.intercept)
        for parent, coef in eq.parents:
            p += np.multiply(values[row[parent]], coef, out=term)
        np.less(uniforms[j], p, out=values[j], casting="unsafe")
    return values.T


def _blocks(n: int):
    """The ``(start, stop)`` row ranges of ``n`` rows in sampling blocks."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return ((start, min(start + SAMPLE_BLOCK_ROWS, n))
            for start in range(0, n, SAMPLE_BLOCK_ROWS))


def sample(model: StructuralModel, n: int, seed: int) -> Dataset:
    """Draw ``n`` independent rows from the model, bit-reproducibly.

    The draw for node j of row i is the uniform ``rng.mix(rng.mix(seed, i), j)``
    (see :mod:`causalkit.rng`); the node is 1 iff the uniform falls below its
    success probability.  Identical ``(model, n, seed)`` give identical data
    on every platform, and disjoint row ranges can be generated independently.
    The (n, k) result is allocated first, so a size that cannot be held
    fails before any draw, and is then filled in blocks of
    ``SAMPLE_BLOCK_ROWS`` rows.
    """
    blocks = _blocks(n)
    values = np.empty((n, len(model.equations)), dtype=np.uint8)
    for start, stop in blocks:
        values[start:stop] = _sample_block(model, seed, start, stop)
    return Dataset(model.node_names(), values)


def sample_counts(
    model: StructuralModel,
    n: int,
    seed: int,
    selection: Optional[SelectionRule] = None,
) -> Dataset:
    """The configuration-counts table of ``sample(model, n, seed)`` under
    an optional selection rule, without building the rows.

    Equal, bit for bit, to ``apply_selection`` then :meth:`Dataset.aggregate`
    on the sampled rows: the same configurations in the same lexicographic
    order, with float64 counts.  Each block of ``SAMPLE_BLOCK_ROWS`` rows is
    masked by the selection and collapsed by :func:`distinct_rows`, and a
    last :func:`distinct_rows` merges the blocks' tables.  Counts are whole
    numbers below 2^53, so summing them by block is exact.
    """
    names = model.node_names()
    keep = None
    if selection is not None:
        if selection.node not in names:
            raise UnknownColumn(selection.node)
        keep = names.index(selection.node)
    tables = [np.zeros((0, len(names)), dtype=np.uint8)]
    counts = [np.zeros(0, dtype=np.intp)]
    for start, stop in _blocks(n):
        block = _sample_block(model, seed, start, stop)
        if keep is not None:
            block = block[block[:, keep] == selection.value]
        table, group = distinct_rows(block)
        tables.append(table)
        counts.append(np.bincount(group, minlength=len(table)))
    values, group = distinct_rows(np.concatenate(tables))
    weights = np.bincount(group, weights=np.concatenate(counts), minlength=len(values))
    return Dataset(names, values, weights)


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


# ---------------------------------------------------------------------------
# Exact margins by variable elimination

# einsum names each axis with one letter.
_EINSUM_LABELS = string.ascii_letters


def population_margin(
    model: StructuralModel,
    columns: Sequence[str],
    selection: Optional[SelectionRule] = None,
) -> Dataset:
    """The exact joint distribution of ``columns``: one row per 0/1
    configuration in lexicographic order, zero-probability rows included,
    weighted by its probability.

    This is the table that projecting :func:`enumerate_population` onto
    ``columns`` and collapsing it with :meth:`Dataset.aggregate` gives, up to
    the rounding of the sums, computed without the joint.  Only the queried
    nodes, the selection node and their ancestors are kept; every other node
    sums out to one.  Each kept node contributes its table
    P(node | parents), and ``np.einsum`` contracts the tables pairwise
    (variable elimination; Zhang & Poole 1994).  Under a selection rule only
    the selected value of its node remains and the weights are renormalised
    to sum to one.  A column named twice is computed once and copied.

    Raises :class:`TooManyNodes` when one elimination step would span more
    than ``ENUMERATION_NODE_LIMIT`` nodes, a limit on the model's width
    rather than its size, or when more than 52 nodes are kept.
    """
    if not columns:
        raise ValueError("a margin needs at least one column")
    free = list(dict.fromkeys(columns))
    if selection is not None and selection.node not in free:
        free.append(selection.node)
    names = set(model.node_names())
    for column in free:
        if column not in names:
            raise UnknownColumn(column)
    kept = set(free)
    for eq in reversed(model.equations):
        if eq.name in kept:
            kept.update(eq.parent_names())
    equations = [eq for eq in model.equations if eq.name in kept]
    if len(equations) > len(_EINSUM_LABELS):
        raise TooManyNodes(len(equations), len(_EINSUM_LABELS), (
            f"the exact margin of {free} involves {len(equations)} nodes; "
            f"einsum labels at most {len(_EINSUM_LABELS)}"
        ))
    label = dict(zip((eq.name for eq in equations), _EINSUM_LABELS))
    inputs = ["".join(label[name] for name in (*eq.parent_names(), eq.name))
              for eq in equations]
    output = "".join(label[name] for name in free)
    expression = ",".join(inputs) + "->" + output
    # einsum_path reads only the operands' shapes, so the path is planned and
    # checked on empty stand-ins before any table is built.
    path, _ = np.einsum_path(
        expression, *(np.broadcast_to(0.0, (2,) * len(term)) for term in inputs),
        optimize=("greedy", 2 ** ENUMERATION_NODE_LIMIT),
    )
    width = _widest_step(path[1:], inputs, output)
    if width > ENUMERATION_NODE_LIMIT:
        raise TooManyNodes(width, ENUMERATION_NODE_LIMIT, (
            f"the exact margin of {free} needs an elimination step over "
            f"{width} nodes (2^{width} configurations); limit is "
            f"{ENUMERATION_NODE_LIMIT} nodes"
        ))
    factors = []
    for eq in equations:
        p = _success_probabilities(eq.intercept, [coef for _, coef in eq.parents])
        factors.append(np.stack([1.0 - p, p], axis=-1))
    margin = np.einsum(expression, *factors, optimize=path)
    configs = np.indices(margin.shape, dtype=np.uint8).reshape(len(free), -1).T
    weights = margin.reshape(-1)
    if selection is not None:
        keep = configs[:, free.index(selection.node)] == selection.value
        configs, weights = configs[keep], weights[keep]
        total = float(weights.sum())
        if total <= 0.0:
            raise EmptySelection(selection)
        weights = weights / total
    return Dataset(columns, configs[:, [free.index(c) for c in columns]], weights)


def _widest_step(path, inputs: Sequence[str], output: str) -> int:
    """The most labels any step of an einsum contraction ``path`` spans.

    A step replaces the operands it names with their contraction, appended
    last, which keeps the labels that the output or a remaining operand
    still uses; this is how ``np.einsum`` runs a path.  With every label of
    length 2, a step spanning w labels loops over 2^w configurations.
    """
    operands = [set(term) for term in inputs]
    widest = 0
    for step in path:
        spanned = set().union(*(operands[i] for i in step))
        widest = max(widest, len(spanned))
        for i in sorted(step, reverse=True):
            del operands[i]
        operands.append(spanned & set(output).union(*operands))
    return widest
