"""Container and incremental builder for bounded-variable MILPs.

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

    def objective_value(self, x: np.ndarray) -> float:
        return float(self.obj @ x + self.obj_offset)


class MipBuilder:
    """Accumulates columns and sparse rows, then freezes to ``LinearMip``."""

    def __init__(self):
        self._lb: list[float] = []
        self._ub: list[float] = []
        self._obj: list[float] = []
        self._int: list[bool] = []
        self._row_lb: list[float] = []
        self._row_ub: list[float] = []
        self._entries_row: list[int] = []
        self._entries_col: list[int] = []
        self._entries_val: list[float] = []
        self.obj_offset = 0.0

    @property
    def n_cols(self) -> int:
        return len(self._lb)

    @property
    def n_rows(self) -> int:
        return len(self._row_lb)

    def add_col(
        self,
        name: str,
        lower: float,
        upper: float,
        obj: float = 0.0,
        integer: bool = False,
    ) -> int:
        if lower > upper:
            raise ValueError(f"column {name}: lower {lower} > upper {upper}")
        self._lb.append(float(lower))
        self._ub.append(float(upper))
        self._obj.append(float(obj))
        self._int.append(bool(integer))
        return len(self._lb) - 1

    def add_obj(self, col: int, coef: float) -> None:
        self._obj[col] += float(coef)

    def add_row(self, name: str, coeffs: dict[int, float], lower: float, upper: float) -> int:
        if lower > upper:
            raise ValueError(f"row {name}: lower {lower} > upper {upper}")
        idx = len(self._row_lb)
        self._row_lb.append(float(lower))
        self._row_ub.append(float(upper))
        for col, val in coeffs.items():
            if val != 0.0:
                self._entries_row.append(idx)
                self._entries_col.append(col)
                self._entries_val.append(float(val))
        return idx

    def build(self) -> LinearMip:
        matrix = SparseMatrix.from_coo(
            self.n_rows,
            self.n_cols,
            np.asarray(self._entries_row, dtype=np.int64),
            np.asarray(self._entries_col, dtype=np.int64),
            np.asarray(self._entries_val, dtype=float),
        )
        return LinearMip(
            col_lower=np.asarray(self._lb, dtype=float),
            col_upper=np.asarray(self._ub, dtype=float),
            obj=np.asarray(self._obj, dtype=float),
            is_integer=np.asarray(self._int, dtype=bool),
            row_matrix=matrix,
            row_lower=np.asarray(self._row_lb, dtype=float),
            row_upper=np.asarray(self._row_ub, dtype=float),
            obj_offset=self.obj_offset,
        )


def check_feasibility(lp: LinearMip, x: np.ndarray, *, integer_tol: float = 1e-7) -> float:
    """Maximum bound/row/integrality violation of a candidate point."""
    viol = 0.0
    finite_lo = np.isfinite(lp.col_lower)
    finite_up = np.isfinite(lp.col_upper)
    if finite_lo.any():
        viol = max(viol, float(np.max(lp.col_lower[finite_lo] - x[finite_lo], initial=0.0)))
    if finite_up.any():
        viol = max(viol, float(np.max(x[finite_up] - lp.col_upper[finite_up], initial=0.0)))
    ax = lp.row_matrix.dot(x)
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
