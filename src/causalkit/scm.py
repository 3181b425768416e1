"""Binary structural causal models with linear-in-parents Bernoulli nodes.

A :class:`StructuralModel` is an ordered list of node equations; each node is
Bernoulli with success probability ``intercept + sum(coef * parent_value)``,
over floats fixed when the equation is built.  That sum is written once, in
:meth:`NodeEquation.probability`, which sampling, enumeration, the exact
margin and validation all call.  The model's constructor runs
:func:`validate_model`, so a model that exists is valid and nothing
downstream checks it again.  The module supports
deterministic Monte-Carlo sampling in blocks of rows straight to their
configuration counts (:func:`sample`; the rows themselves come one block at
a time from :func:`sample_blocks`), filtering configurations on a selection
rule (:func:`apply_selection`), exact enumeration of the joint
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
import mmap
import numbers
import re
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
    NotUtf8Text,
    ParentOrderViolation,
    ProbabilityOutOfRange,
    SelectionInvalid,
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
        if not isinstance(self.name, str):
            raise ModelInvalid(f"node name must be a string, not {self.name!r}")
        for what, number in (("intercept", self.intercept),
                             *((f"coefficient of {name!r}", coef) for name, coef in self.parents)):
            # A bool is a numbers.Real too, but no probability is true or false.
            if not isinstance(number, numbers.Real) or isinstance(number, bool):
                raise ModelInvalid(f"node {self.name!r}: {what} must be a number, not {number!r}")
        # Floats, so that every use of the equation rounds the same sums;
        # canonical parent order, so structurally equal equations compare equal.
        try:
            intercept = float(self.intercept)
            parents = tuple(sorted((name, float(coef)) for name, coef in self.parents))
        except OverflowError:
            raise ModelInvalid(f"node {self.name!r}: a number too large for a float") from None
        object.__setattr__(self, "intercept", intercept)
        object.__setattr__(self, "parents", parents)

    def parent_names(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self.parents)

    def probability(self, parents):
        """P(node = 1) at the parent values ``parents``, one per parent in
        parent order, numbers or arrays that broadcast together:
        ``intercept + coef * value``, the terms added in parent order."""
        p = self.intercept
        for (_, coef), value in zip(self.parents, parents, strict=True):
            p = p + coef * value
        return p


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
        if not isinstance(self.node, str):
            raise SelectionInvalid(f"selection node must be a string, not {self.node!r}")
        # ``type(...) is int`` also turns away True, False and 1.0.
        if type(self.value) is not int or self.value not in (0, 1):
            raise SelectionInvalid(f"selection value must be 0 or 1, not {self.value!r}")


class Dataset:
    """A configurations table: named binary columns and one non-negative
    weight per row, the one form of data in causalkit.

    :meth:`from_csv` reads a CSV file's bytes and :func:`sample` samples a
    model straight into it, each a block of rows at a time, and
    :func:`apply_selection` filters it.  Weights are counts when the table
    was sampled or read from an unweighted CSV file, and probabilities when
    it came from :func:`enumerate_population` or
    :func:`population_margin`; a ``__weight`` column may hold either, and
    the estimators tell them apart by whether the weights are whole
    numbers.  Weights left out are all 1, so rows passed without weights
    form a table with a count of one each, which :meth:`aggregate`
    collapses.  Weights must be finite and non-negative, with a finite sum.
    """

    def __init__(
        self,
        columns: Sequence[str],
        values: np.ndarray,
        weights: Optional[np.ndarray] = None,
    ):
        self.columns = tuple(columns)
        values = np.asarray(values)
        if values.ndim != 2 or values.shape[1] != len(self.columns):
            raise ValueError("values must be an (n, len(columns)) array")
        # Checked before the cast, which would wrap 256 to 0 and cut 0.5 to 0.
        if not np.all((values == 0) | (values == 1)):
            raise ValueError("dataset values must be 0 or 1")
        self.values = values.astype(np.uint8, copy=False)
        if weights is None:
            weights = np.ones(len(values))
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(values),):
            raise ValueError("weights must have one entry per row")
        if not np.all(np.isfinite(weights)):
            raise ValueError("weights must be finite")
        if np.any(weights < 0):
            raise ValueError("weights must be non-negative")
        with np.errstate(over="ignore"):
            total = weights.sum()
        if not math.isfinite(total):
            raise ValueError("weights sum to more than the largest float")
        if len(values) and total <= 0:
            raise ValueError("weights must not sum to zero")
        self.weights = weights

    # -- basics --------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def _index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise UnknownColumn(column) from None

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self._index(name)]

    def mean(self, column: str) -> float:
        return float(np.dot(self.weights, self.column(column)) / self.weights.sum())

    def with_column_set(self, column: str, value: int) -> "Dataset":
        """Copy with one column forced to a constant (do-style intervention)."""
        j = self._index(column)
        values = self.values.copy()
        values[:, j] = value
        return Dataset(self.columns, values, self.weights)

    def aggregate(self) -> "Dataset":
        """Collapse to one row per distinct configuration with summed weights.

        The configurations come from :func:`distinct_rows`, in lexicographic
        order, so the result does not depend on input row order.  Memory
        grows with the rows, never with 2^columns.
        """
        values, group = distinct_rows(self.values)
        weights = np.bincount(group, weights=self.weights, minlength=len(values))
        return Dataset(self.columns, values, weights)

    # -- CSV round trip --------------------------------------------------------

    def to_csv(self) -> str:
        """The dataset as CSV text: a header row (:func:`csv_header`), then
        one line per row (:func:`csv_body`).  The ``__weight`` column is
        written unless every weight is 1, the weight :meth:`from_csv` gives
        a line without one.  ``simulate`` writes its file with the same two
        functions, one sampling block at a time."""
        if np.all(self.weights == 1.0):
            return csv_header(self.columns) + csv_body(self.values)
        return csv_header([*self.columns, WEIGHT_COLUMN]) + csv_body(self.values, self.weights)

    @classmethod
    def from_csv(cls, data) -> "Dataset":
        """Read CSV into its configuration-counts table.

        ``data`` is a file's bytes: ``bytes``, or a read-only ``mmap.mmap``,
        which is how ``causalkit estimate`` passes its file.  It is read as
        ``Path.read_text(encoding="utf-8")`` reads a file: strict UTF-8,
        with ``\\r\\n`` and a bare ``\\r`` read as ``\\n`` (universal
        newlines), and one leading byte-order mark, which Excel writes,
        dropped.  Anything else, a ``str`` included, raises ``TypeError``;
        text is read as ``text.encode()``.

        The text is a header row, then one row per line; cells are ``0`` or
        ``1``, quoted or not; blank lines and a missing final line break
        are accepted.  A ``__weight`` column, if any, is the last one.  The
        result is what reading the rows and calling :meth:`aggregate`
        gives, bit for bit: one row per distinct configuration in
        lexicographic order, weighted by the sum of its rows' weights (1 a
        row, or its ``__weight``), added in row order.
        Errors name the first bad row, as a row-by-row reader would.

        The header goes through the csv module.  The body is read in blocks
        of about ``CSV_BLOCK_CHARS`` bytes, each cut just after a line end
        (:func:`_line_blocks`), checked as UTF-8 and given ``\\n`` line
        ends (so no block holds a ``\\r``).  A block of an unweighted file
        whose every line is k bare ``0``/``1`` cells, as ``simulate`` and
        :meth:`to_csv` write them, is a grid: :func:`_read_grid` checks and
        counts it as one byte matrix, with no search for line breaks or
        distinct lines.  Every other block, one with a quoted cell, a blank
        line, a weight or a bad row, is read by :func:`_read_block`, which
        splits it into lines, finds its distinct lines with one dict pass
        and parses each with the csv module.  Blocks pass each other nothing
        but the configurations found so far and their running totals, so a
        line is parsed once in each block that holds it, and the reader
        holds one block's bytes and lines however long the input is and
        whatever its line ends.  Once a block is read the whole pages of a
        map up to its end are released (``madvise`` with ``MADV_DONTNEED``,
        where the platform has it): a map's file pages count in the
        process's memory until then.  Each row's weight is added to its
        configuration's total with ``np.add.at``, in row order, so the
        totals are those of one pass over the rows, bit for bit; a grid
        block adds each configuration's count of lines, a whole number,
        which is the same sum.

        Reading stops at the first block that holds a bad row.  A bad byte
        raises :class:`NotUtf8Text` with its offset in the buffer.  Blocks
        are checked one at a time, so a bad row in an earlier block is
        reported ahead of a bad byte in a later one, where decoding the
        whole file first would report the byte.
        """
        if not isinstance(data, (bytes, mmap.mmap)):
            raise TypeError(f"from_csv reads a file's bytes (bytes or mmap.mmap), not "
                            f"{type(data).__name__}: pass text.encode()")
        ends: list = []  # the offset just past each header line read
        bom_size = 3 if data[:3] == b"\xef\xbb\xbf" else 0
        reader = csv.reader(_header_lines(data, bom_size, ends))
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
        if WEIGHT_COLUMN in columns:
            raise CsvFormatError(1, WEIGHT_COLUMN, "the weight column must be the last column")
        for col in columns:
            if header.count(col) > 1:
                raise CsvFormatError(1, col, "duplicate column name")
        # All that one block passes to the next: every configuration so far,
        # as its k cell bytes, numbered in order of first appearance, and
        # the running total of each one's weights.
        configs: dict = {}
        counts = np.zeros(0)
        row = 2  # the CSV row of the next block's first line
        released = 0  # the map's pages before this offset are released
        for start, stop in _line_blocks(data, ends[reader.line_num - 1]):
            raw = _block_bytes(data, start, stop)
            grid = None if has_weights else _read_grid(raw, len(columns), configs)
            row_configs, weights, lines = grid or _read_block(raw, row, header, columns, configs)
            counts = np.concatenate((counts, np.zeros(len(configs) - len(counts))))
            with np.errstate(over="ignore"):  # an inf total is refused below
                np.add.at(counts, row_configs, weights)
            row += lines
            released = _release_pages(data, released, stop)
        table = np.frombuffer(b"".join(configs), dtype=np.uint8)
        values, order = distinct_rows(table.reshape(len(configs), len(columns)))
        with np.errstate(over="ignore"):
            total = counts.sum()
        if counts.size and not 0.0 < total < math.inf:
            raise CsvFormatError(row - 1, WEIGHT_COLUMN, (
                "weights sum to zero" if total == 0.0
                else "weights sum to more than the largest float"
            ))
        weights = np.empty_like(counts)
        weights[order] = counts
        return cls(columns, values, weights)


def csv_header(names: Sequence[str]) -> str:
    """The CSV header line of ``names``, quoted as the csv module quotes."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(names)
    return buf.getvalue()


def csv_body(values: np.ndarray, weights: Optional[np.ndarray] = None) -> str:
    """The CSV lines of the 0/1 rows of ``values``, each followed by its
    weight when ``weights`` is given.

    The body is one byte matrix, a digit and a separator per cell, decoded
    once.  A weight follows the cells as ``repr(float(w))``, which reads
    back as the same float.
    """
    n, k = values.shape
    # One column even when k == 0, so that a row is then a bare line break.
    body = np.full((n, max(2 * k, 1)), ord(","), dtype=np.uint8)
    body[:, 0:2 * k:2] = values + ord("0")
    if weights is None:
        body[:, -1] = ord("\n")
        return body.tobytes().decode("ascii")
    width = 2 * k
    cells = body[:, :width].tobytes().decode("ascii")
    return "".join(
        f"{cells[i * width:(i + 1) * width]}{weight!r}\n"
        for i, weight in enumerate(weights.tolist())
    )


def distinct_rows(table: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a matrix of small integers in lexicographic
    order and the index of each row among them: ``np.unique(table, axis=0,
    return_inverse=True)`` through one integer key per row, which groups
    many times faster than rows do.

    The entries may be 0/1 values, bytes or any integer-valued floats.
    The key is a mixed-radix number with one digit per column, ``column -
    min`` in radix ``max - min + 1``; a constant column adds no digit.
    When the key would pass 2^62 it is replaced by its rank among the keys
    so far, which keeps their order.  Keys below 2^16 are
    grouped by ``np.bincount`` and a cumulative sum, larger ones by
    ``np.unique``.
    """
    n = len(table)
    if n == 0:
        return table[:0], np.zeros(0, dtype=np.intp)
    columns = np.ascontiguousarray(table.T)
    low, high = columns.min(axis=1), columns.max(axis=1)
    key = np.zeros(n, dtype=np.int64)
    bound = 1  # every key is below it
    for j in np.flatnonzero(high > low):
        radix = int(high[j] - low[j]) + 1
        if bound * radix > 2**62:
            ranked, key = np.unique(key, return_inverse=True)
            bound = len(ranked)
        key *= radix
        key += (columns[j] - low[j]).astype(np.int64, copy=False)
        bound *= radix
    del columns  # the grouping below needs only the keys
    if bound <= 2**16:
        rank = np.cumsum(np.bincount(key, minlength=bound) > 0) - 1
        group = rank[key]
        first = np.full(rank[-1] + 1, n)
        np.minimum.at(first, group, np.arange(n))
    else:
        _, first, group = np.unique(key, return_index=True, return_inverse=True)
    return table[first], group


# Bytes of CSV body that Dataset.from_csv reads at once: about 2^16
# case-study lines.  A block's bytes and its lines are the largest things
# the reader builds besides its table of configurations.
CSV_BLOCK_CHARS = 2**20

# Line ends as a file read in text mode has them (universal newlines).
_LINE_END = re.compile(rb"\r\n?|\n")
_MADV_DONTNEED = getattr(mmap, "MADV_DONTNEED", None)


def _utf8(raw: bytes, offset: int) -> str:
    """``raw`` decoded as strict UTF-8; ``offset`` is where it starts in
    its buffer, so that a bad byte is reported at its place there."""
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise NotUtf8Text(offset + exc.start) from None


def _header_lines(data, start: int, ends: list):
    """The text lines of ``data`` from offset ``start``, for the csv module:
    each split at ``\\r\\n``, ``\\r`` or ``\\n``, decoded, and ending in
    ``\\n``, except a last line without a line break.  Appends the offset
    just past each line to ``ends``."""
    while start < len(data):
        match = _LINE_END.search(data, start)
        stop, end = (match.start(), match.end()) if match else (len(data), len(data))
        ends.append(end)
        line = _utf8(bytes(data[start:stop]), start)
        yield line + "\n" if match else line
        start = end


def _line_blocks(data, start: int):
    """The ``(start, stop)`` spans of ``data[start:]`` in blocks of about
    ``CSV_BLOCK_CHARS`` bytes (the last ends where the data does).  Each is
    cut just after the last line end in its window of ``CSV_BLOCK_CHARS``
    bytes: the window's last ``\\n``; else its last ``\\r`` before its
    final byte, since a final ``\\r`` may be half of a ``\\r\\n``; else
    the first line end from that final byte on.  So no ``\\r\\n`` and no
    multi-byte character is split, a file with any line ends is read a
    block at a time, and a line longer than a block is one block."""
    while start < len(data):
        stop = len(data)
        if stop - start > CSV_BLOCK_CHARS:
            end = start + CSV_BLOCK_CHARS
            cut = data.rfind(b"\n", start, end) + 1 or data.rfind(b"\r", start, end - 1) + 1
            if not cut:
                match = _LINE_END.search(data, end - 1)
                cut = match.end() if match else stop
            stop = cut
        yield start, stop
        start = stop


def _block_bytes(data, start: int, stop: int) -> bytes:
    """The block ``data[start:stop]`` checked as UTF-8 (at once when it is
    ASCII), with its ``\\r\\n`` and bare ``\\r`` turned into ``\\n``, as a
    file read in text mode has them: the block holds no ``\\r``."""
    raw = bytes(data[start:stop])
    if not raw.isascii():
        _utf8(raw, start)
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw


def _release_pages(data, released: int, stop: int) -> int:
    """Release the whole pages of a map from offset ``released`` up to
    ``stop``, which have been read, and return the new start of the pages
    kept.  Data without ``madvise``, or a platform without
    ``MADV_DONTNEED``, keeps its pages."""
    end = stop - stop % mmap.PAGESIZE
    if end <= released or _MADV_DONTNEED is None or not hasattr(data, "madvise"):
        return released
    data.madvise(_MADV_DONTNEED, released, end - released)
    return end


def _read_grid(raw: bytes, k: int, configs: dict):
    """Read a block of an unweighted file's body lines, bytes with ``\\n``
    line ends (:func:`_block_bytes`), if every line is k bare ``0``/``1``
    cells; otherwise return ``None``.

    Such a block is an (m, k) matrix of two-byte cells, each a digit and
    then a comma, or ``\\n`` after the last, so one comparison with the
    template ``1,1,...,1\\n`` after setting each digit's low bit checks it
    all.  The digit bits are collapsed to their configurations, through
    one integer code per line and ``np.bincount`` for k <= 16, by
    :func:`distinct_rows` above that; each configuration is numbered in
    ``configs`` as :func:`_read_block` numbers it.  Returns what
    :func:`_read_block` does, with one row per distinct configuration
    weighted by its count of lines, which adds the same whole numbers to
    the totals.
    """
    if len(raw) % (2 * k):
        return None
    cells = np.frombuffer(raw, dtype="<u2").reshape(-1, k)
    template = np.frombuffer(b"1," * (k - 1) + b"1\n", dtype="<u2")
    if not np.all((cells | 1) == template):
        return None
    bits = (cells & 1).astype(np.uint8)
    if k <= 16:
        tally = np.bincount(bits @ (1 << np.arange(k, dtype=np.uint16)))
        codes = np.flatnonzero(tally)
        table = (codes[:, None] >> np.arange(k)).astype(np.uint8) & 1
        tally = tally[codes]
    else:
        table, group = distinct_rows(bits)
        tally = np.bincount(group)
    keys = table.view(np.dtype((np.void, k))).ravel().tolist()
    numbers = [configs.setdefault(key, len(configs)) for key in keys]
    return np.array(numbers, dtype=np.intp), tally.astype(np.float64), len(cells)


def _read_block(raw: bytes, row: int, header: list, columns: list, configs: dict):
    """Read a block of CSV body lines, UTF-8 bytes with ``\\n`` line ends
    and no ``\\r`` (:func:`_block_bytes`) whose first line is CSV row
    ``row``: the configuration number and weight of each row (blank lines
    skipped), and the number of lines.  Raises the first bad row's error.

    ``configs`` numbers each configuration (its k cell bytes) in order of
    first appearance, and gains the block's new configurations.  Nothing
    else is kept from one block to the next: a line is parsed once in each
    block that holds it, so the reader holds one block's lines however
    many distinct lines the file has.

    One dict pass gives each line the index of the first line that reads
    as it does, and leaves the distinct lines in order of first
    appearance, so a bad line's row needs no search.  They are parsed by
    :func:`_parse_lines`.
    """
    lines = raw.decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()  # the empty piece after the final line break
    seen: dict = {}
    first = np.fromiter(
        map(seen.setdefault, lines, itertools.count()), dtype=np.intp, count=len(lines)
    )
    del lines  # only the distinct ones, in seen, are needed from here on
    distinct = list(seen)
    parsed = _parse_lines(distinct, header, columns, configs)
    if len(parsed) < len(distinct):
        line = distinct[len(parsed)]
        raise _line_error(row + seen[line], line, header, columns)
    # Each distinct line's configuration and weight at its first line,
    # then at every line.
    at = np.empty((len(first), 2))
    at[list(seen.values())] = parsed
    config, weight = at[first].T
    rows = config >= 0
    return config[rows].astype(np.intp), weight[rows], len(first)


# The cells of a configuration, and their bytes as ``configs`` keys them.
_BIT_CELLS = frozenset({"0", "1"})
_CELL_BITS = bytes.maketrans(b"01", b"\0\1")


def _parse_lines(lines: list, header: list, columns: list, configs: dict) -> list:
    """The configuration number (-1 for a blank line) and weight of each
    of ``lines``, distinct body lines in order, up to the first bad one.

    The lines are parsed by one ``csv.reader``.  A record is good when it
    is blank, or has a cell per header name, ``0`` or ``1`` in each data
    cell and, in a weighted file, a ``__weight`` that
    :func:`_weight_or_nan` reads; its configuration is numbered in
    ``configs``.  A line after the first bad one is never parsed.
    """
    k, weighted = len(columns), len(header) > len(columns)
    parsed: list = []
    try:
        # Each line keeps its line break, so a quote left open at the end
        # of a line shows as a line break inside a cell.
        for record in csv.reader(line + "\n" for line in lines):
            if not record:
                parsed.append((-1, 0.0))
                continue
            cells = record[:k]
            weight = _weight_or_nan(record[-1]) if weighted else 1.0
            if (len(record) != len(header) or not _BIT_CELLS.issuperset(cells)
                    or math.isnan(weight)):
                break
            key = "".join(cells).encode().translate(_CELL_BITS)
            parsed.append((configs.setdefault(key, len(configs)), weight))
    except csv.Error:
        pass  # raised by the first bad line
    return parsed


def _weight_or_nan(text: str) -> float:
    """The weight a ``__weight`` cell holds, or NaN if it is no finite
    non-negative number, or holds a line break (a quote left open)."""
    try:
        weight = float(text)
    except ValueError:
        return math.nan
    return weight if "\n" not in text and math.isfinite(weight) and weight >= 0.0 else math.nan


def _line_error(row_no: int, line: str, header: list, columns: list) -> CsvFormatError:
    """The error of a bad body line, CSV row ``row_no``, read alone as a
    row-by-row reader reads it.

    A line break in a cell (a quote left open) is reported first, at
    column ``''``; then a wrong count of cells, then the first data cell
    that is not ``0`` or ``1``, then the weight.  A quote left open in a
    weight after good data cells is the weight's fault, unless the weight
    holds a comma: a weighted line is read as if cut at its last comma
    first, and that cut falls inside such a weight.
    """
    try:
        record = next(csv.reader([line + "\n"]))
    except csv.Error as exc:
        return CsvFormatError(row_no, "", str(exc))
    cells, weight = record[:len(columns)], record[-1]
    weight_at_fault = (len(header) > len(columns) and len(record) == len(header)
                       and _BIT_CELLS.issuperset(cells) and "," not in weight)
    if any("\n" in cell for cell in record) and not weight_at_fault:
        return CsvFormatError(row_no, "", "quoted cell runs past the end of the line")
    if len(record) != len(header):
        return CsvFormatError(row_no, "", f"expected {len(header)} cells")
    for col, cell in zip(columns, cells):
        if cell not in _BIT_CELLS:
            return CsvFormatError(row_no, col, f"value {cell!r} is not 0 or 1")
    if "\n" in weight:
        return CsvFormatError(row_no, WEIGHT_COLUMN, "quoted cell runs past the end of the line")
    return CsvFormatError(
        row_no, WEIGHT_COLUMN, f"weight {weight!r} is not a finite non-negative number"
    )


# ---------------------------------------------------------------------------
# Model validation


def validate_model(model: StructuralModel) -> None:
    """Check declaration order and that every parent configuration is a probability.

    :class:`StructuralModel` runs this when it is constructed.  Raises
    :class:`ModelInvalid` for a node name used twice or named ``__weight``
    (a CSV file's weight column), or :class:`UnknownParent`,
    :class:`ParentOrderViolation` or :class:`ProbabilityOutOfRange` naming
    the node and offending configuration.

    Each node's success probability is checked at two parent
    configurations, however many parents it has: the parents with a
    positive coefficient at one, then those with a negative coefficient at
    one, the rest at zero.  The terms are added in parent order, through
    :meth:`NodeEquation.probability`, and rounded addition never falls
    when a term grows (IEEE 754), so every other
    configuration lies between those two; a NaN or infinite intercept or
    coefficient makes every configuration NaN or infinite.  The error names
    the first of the two outside [0, 1] or NaN, and its value.
    """
    declared: set = set()
    names = model.node_names()
    if len(set(names)) != len(names):
        raise ModelInvalid("duplicate node names in structural model")
    if WEIGHT_COLUMN in names:
        raise ModelInvalid(f"node name {WEIGHT_COLUMN!r} is reserved for the CSV weight column")
    order = {name: i for i, name in enumerate(names)}
    for eq in model.equations:
        for parent in eq.parent_names():
            if parent not in order:
                raise UnknownParent(eq.name, parent)
            if parent not in declared:
                raise ParentOrderViolation(eq.name, parent)
        declared.add(eq.name)
    for eq in model.equations:
        for sign in (1.0, -1.0):
            bits = [int(sign * coef > 0.0) for _, coef in eq.parents]
            p = eq.probability(bits)
            if not 0.0 <= p <= 1.0:
                raise ProbabilityOutOfRange(eq.name, dict(zip(eq.parent_names(), bits)), p)


# ---------------------------------------------------------------------------
# Sampling and selection


# Rows drawn at once.  Sampling works block by block, so a block's
# uniforms and values are the largest arrays it builds besides the
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
    for j, eq in enumerate(model.equations):
        p = eq.probability([values[row[parent]] for parent in eq.parent_names()])
        np.less(uniforms[j], p, out=values[j], casting="unsafe")
    return values.T


def sample_blocks(model: StructuralModel, n: int, seed: int):
    """The rows that ``sample(model, n, seed)`` counts, in order, as
    consecutive (m, k) 0/1 arrays of at most ``SAMPLE_BLOCK_ROWS`` rows,
    each drawn when it is asked for."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return (_sample_block(model, seed, start, min(start + SAMPLE_BLOCK_ROWS, n))
            for start in range(0, n, SAMPLE_BLOCK_ROWS))


def sample(model: StructuralModel, n: int, seed: int) -> Dataset:
    """The configuration-counts table of ``n`` independent rows drawn from
    the model, bit-reproducibly, without building the rows.

    The draw for node j of row i is the uniform ``rng.mix(rng.mix(seed, i), j)``
    (see :mod:`causalkit.rng`); the node is 1 iff the uniform falls below its
    success probability.  Identical ``(model, n, seed)`` give identical data
    on every platform, and disjoint row ranges can be generated independently.
    The result equals, bit for bit, :meth:`Dataset.aggregate` on the rows of
    :func:`sample_blocks`: the configurations in lexicographic order, with
    float64 counts.  Each block of ``SAMPLE_BLOCK_ROWS`` rows is collapsed
    by :func:`distinct_rows`, and a last one merges the blocks' tables;
    counts are whole numbers below 2^53, so summing them by block is exact.
    :func:`apply_selection` on the table equals selecting rows first.
    """
    names = model.node_names()
    tables = [np.zeros((0, len(names)), dtype=np.uint8)]
    counts = [np.zeros(0, dtype=np.intp)]
    for block in sample_blocks(model, n, seed):
        table, group = distinct_rows(block)
        tables.append(table)
        counts.append(np.bincount(group, minlength=len(table)))
    values, group = distinct_rows(np.concatenate(tables))
    weights = np.bincount(group, weights=np.concatenate(counts), minlength=len(values))
    return Dataset(names, values, weights)


def apply_selection(dataset: Dataset, rule: SelectionRule) -> Dataset:
    """The rows whose selection column takes the selected value, with their
    weights, order preserved."""
    keep = dataset.column(rule.node) == rule.value
    return Dataset(dataset.columns, dataset.values[keep], dataset.weights[keep])


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
        p = eq.probability([configs[:, col[parent]] for parent in eq.parent_names()])
        weights *= np.where(configs[:, j] == 1, p, 1.0 - p)
    population = Dataset(names, configs, weights)
    return population if selection is None else _condition(population, selection)


def _condition(dataset: Dataset, selection: SelectionRule) -> Dataset:
    """The rows that ``selection`` keeps, their weights renormalised to sum
    to one; raises :class:`EmptySelection` when they weigh nothing."""
    keep = dataset.column(selection.node) == selection.value
    weights = dataset.weights[keep]
    total = float(weights.sum())
    if total <= 0.0:
        raise EmptySelection(selection)
    return Dataset(dataset.columns, dataset.values[keep], weights / total)


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
        p = eq.probability(np.indices((2,) * len(eq.parents), sparse=True))
        factors.append(np.stack([1.0 - p, p], axis=-1))
    margin = np.einsum(expression, *factors, optimize=path)
    configs = np.indices(margin.shape, dtype=np.uint8).reshape(len(free), -1).T
    joint = Dataset(free, configs, margin.reshape(-1))
    if selection is not None:
        joint = _condition(joint, selection)
    return Dataset(columns, joint.values[:, [free.index(c) for c in columns]], joint.weights)


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
