"""The sparse path's pair values laid out as a matrix, kept as a test oracle.

:func:`repro.geometry.sparse._split` evaluates each candidate (query,
bucket) pair of a sparse row with the dense path's own kernel, and the
prediction dots reduce those values per query.  :func:`sparse_pairs`
forces every routed row sparse and scatters the pair values into a zero
matrix, so a bitwise comparison with the dense matrix checks both the
pairs the sparse path evaluated and the zeros it pruned.
"""

from __future__ import annotations

import numpy as np

import repro.geometry.sparse as sparse_mod


def sparse_pairs(queries, index, b_volumes=None, contains=False):
    """The rows ``_split`` sends sparse when the rule is forced, and their values.

    Returns the workload positions of those rows and a ``(rows, m)``
    matrix of their intersection volumes (membership when ``contains``),
    pruned pairs being exact zeros.
    """
    queries = list(queries)
    rule = sparse_mod._sparse_rows
    sparse_mod._sparse_rows = lambda n, dense_ns, sparse_ns: np.ones(n, dtype=bool)
    try:
        _, _, pairs = sparse_mod._split(queries, index, b_volumes, contains)
    finally:
        sparse_mod._sparse_rows = rule
    out = np.zeros((len(queries), index.m))
    went = np.zeros(len(queries), dtype=bool)
    for idx, rows, cols, values in pairs:
        out[idx[rows], cols] = values
        went[idx] = True
    rows = np.flatnonzero(went)
    return rows, out[rows]
