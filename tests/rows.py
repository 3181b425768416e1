"""Sampled rows held whole, for tests that need rows or unweighted CSV text,
and CSV text read back.

``causalkit.scm.sample`` draws straight to the configuration-counts table;
the rows it counts come one block at a time from ``sample_blocks``.  These
helpers hold those rows in one dataset, each row weighted 1, as the
reference the counts table and the ``simulate`` text are checked against.
``Dataset.from_csv`` reads a file's bytes, so CSV text is read as its UTF-8
bytes (:func:`read_csv`).
"""

import numpy as np

from causalkit.scm import Dataset, apply_selection, sample_blocks


def sample_rows(model, n, seed):
    """The ``n`` rows that ``sample(model, n, seed)`` counts, in order."""
    empty = np.zeros((0, len(model.equations)), dtype=np.uint8)
    return Dataset(model.node_names(), np.concatenate([empty, *sample_blocks(model, n, seed)]))


def scenario_rows(scenario, seed=None):
    """The scenario's sampled rows after its selection rule: the rows whose
    CSV text ``simulate`` writes."""
    rows = sample_rows(scenario.model, scenario.sample_size,
                       scenario.seed if seed is None else seed)
    return rows if scenario.selection is None else apply_selection(rows, scenario.selection)


def read_csv(text):
    """``Dataset.from_csv`` of ``text`` as a file of its UTF-8 bytes."""
    return Dataset.from_csv(text.encode())
