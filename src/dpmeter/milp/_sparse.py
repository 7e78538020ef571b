"""Minimal compressed sparse row matrix for the simplex solver.

The operations the solver needs: COO assembly, the product ``A @ x`` and a
column-major dense copy.  A matrix holds each (row, col) entry once.
"""

from __future__ import annotations

import numpy as np


class SparseMatrix:
    """CSR storage: row i's column indices and values are
    ``indices[indptr[i]:indptr[i + 1]]`` and ``data[indptr[i]:indptr[i + 1]]``."""

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._row_of = np.repeat(np.arange(self.n_rows), np.diff(indptr))

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        """The matrix with ``vals[k]`` at ``(rows[k], cols[k])``; a repeated
        (row, col) raises ``ValueError``."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        same = np.flatnonzero((rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1]))
        if same.size:
            k = same[0]
            raise ValueError(f"entry ({rows[k]}, {cols[k]}) is given more than once")
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_rows, n_cols, indptr, cols, vals)

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        if self.data.size == 0:
            return np.zeros(self.n_rows)
        return np.bincount(
            self._row_of, weights=self.data * x[self.indices], minlength=self.n_rows
        )

    def toarray(self) -> np.ndarray:
        """The dense n_rows × n_cols matrix, column-major."""
        out = np.zeros((self.n_rows, self.n_cols), order="F")
        out[self._row_of, self.indices] = self.data
        return out
