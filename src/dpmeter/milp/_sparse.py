"""Minimal compressed sparse matrix support for the simplex solver.

Only the operations the solver needs: COO assembly, the product ``A @ x``, a
dense copy, and column extraction.
"""

from __future__ import annotations

import numpy as np


class SparseMatrix:
    """CSR storage with a cached CSC shadow for fast column access."""

    def __init__(self, n_rows, n_cols, indptr, indices, data):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._row_of = np.repeat(np.arange(self.n_rows), np.diff(indptr))
        self._csc: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_coo(cls, n_rows, n_cols, rows, cols, vals) -> "SparseMatrix":
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=float)
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if rows.size:
            same = np.zeros(rows.size, dtype=bool)
            same[1:] = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
            if same.any():
                keep = ~same
                group = np.cumsum(keep) - 1
                merged = np.zeros(int(keep.sum()))
                np.add.at(merged, group, vals)
                rows, cols, vals = rows[keep], cols[keep], merged
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n_rows, n_cols, indptr, cols.copy(), vals.copy())

    def _ensure_csc(self):
        if self._csc is None:
            col_ptr = np.zeros(self.n_cols + 1, dtype=np.int64)
            np.add.at(col_ptr, self.indices + 1, 1)
            np.cumsum(col_ptr, out=col_ptr)
            order = np.argsort(self.indices, kind="stable")
            self._csc = (col_ptr, self._row_of[order], self.data[order])
        return self._csc

    def dot(self, x: np.ndarray) -> np.ndarray:
        """A @ x."""
        if self.data.size == 0:
            return np.zeros(self.n_rows)
        return np.bincount(
            self._row_of, weights=self.data * x[self.indices], minlength=self.n_rows
        )

    def toarray(self) -> np.ndarray:
        """The dense n_rows × n_cols matrix."""
        out = np.zeros((self.n_rows, self.n_cols))
        out[self._row_of, self.indices] = self.data
        return out

    def column(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        """(row indices, values) of column j."""
        col_ptr, row_idx, col_data = self._ensure_csc()
        lo, hi = col_ptr[j], col_ptr[j + 1]
        return row_idx[lo:hi], col_data[lo:hi]

    def column_entries(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row indices, positions in ``cols``, values) of every entry of
        ``A[:, cols]``, gathered in one pass over the column-major copy."""
        col_ptr, row_idx, col_data = self._ensure_csc()
        start = col_ptr[cols]
        count = col_ptr[cols + 1] - start
        pos = np.repeat(np.arange(cols.size), count)
        first = np.cumsum(count) - count  # where each column's entries begin
        idx = np.arange(int(count.sum())) + np.repeat(start - first, count)
        return row_idx[idx], pos, col_data[idx]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]
