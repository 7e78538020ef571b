"""Container for bounded-variable MILPs.

Rows are ranges ``row_lower <= A x <= row_upper`` (equalities have equal
bounds); columns carry bounds and an integrality flag.  The objective is
``obj @ x + obj_offset``, always minimized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._sparse import SparseMatrix

INF = float("inf")


@dataclass
class LinearMip:
    """A bounded-variable MILP in arrays."""

    col_lower: np.ndarray
    col_upper: np.ndarray
    obj: np.ndarray
    is_integer: np.ndarray  # bool per column
    row_matrix: SparseMatrix
    row_lower: np.ndarray
    row_upper: np.ndarray
    obj_offset: float = 0.0

    @property
    def n_cols(self) -> int:
        return self.col_lower.size

    @property
    def n_rows(self) -> int:
        return self.row_lower.size

    def integer_columns(self) -> np.ndarray:
        return np.flatnonzero(self.is_integer)


def check_feasibility(lp: LinearMip, x: np.ndarray) -> float:
    """Maximum bound/row/integrality violation of a candidate point; ``inf``
    for a point with a non-finite entry or row activity, which no bound
    comparison would catch (``max(v, nan)`` keeps ``v``)."""
    if not np.isfinite(x).all():
        return INF
    ax = lp.row_matrix.dot(x)
    if not np.isfinite(ax).all():
        return INF
    viol = 0.0
    finite_lo = np.isfinite(lp.col_lower)
    finite_up = np.isfinite(lp.col_upper)
    if finite_lo.any():
        viol = max(viol, float(np.max(lp.col_lower[finite_lo] - x[finite_lo], initial=0.0)))
    if finite_up.any():
        viol = max(viol, float(np.max(x[finite_up] - lp.col_upper[finite_up], initial=0.0)))
    lo_ok = np.isfinite(lp.row_lower)
    up_ok = np.isfinite(lp.row_upper)
    if lo_ok.any():
        viol = max(viol, float(np.max(lp.row_lower[lo_ok] - ax[lo_ok], initial=0.0)))
    if up_ok.any():
        viol = max(viol, float(np.max(ax[up_ok] - lp.row_upper[up_ok], initial=0.0)))
    ints = lp.integer_columns()
    if ints.size:
        frac = np.abs(x[ints] - np.round(x[ints]))
        viol = max(viol, float(frac.max(initial=0.0)))
    return viol
