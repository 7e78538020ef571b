"""Depth-first branch and bound over the integer columns of a LinearMip.

A node is the box ``lower <= x[int_cols] <= upper`` with the LP bound of
its parent and, for a far child, the basis snapshot it restarts from.  The
integer bounds are rounded inward once at the root; a crossed pair has no
integer point and is infeasible without an LP solve.  Every node, the root
included, runs one path: install its bounds, re-activate its snapshot if it
has one, solve the relaxation, then keep the point, prune or branch.  The
root goes on from the solver's start basis: the caller's, or all slacks.

Branching picks the most fractional integer column with lowest-index
tie-breaking, so the search path is deterministic, and splits the node's
own box: the down child takes ``upper = floor(x)``, the up child
``lower = ceil(x)`` (for a binary, the two fixes).  The near child (the
branch agreeing with the rounded LP value) is searched first and goes on
from the live solver state; the far sibling waits with a snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import INF, LinearMip
from .simplex import SimplexSolver

# an LP value this close to an integer counts as integral
_INT_TOL = 1e-7


@dataclass
class MilpResult:
    status: str  # "optimal" | "infeasible"
    objective: float
    x: np.ndarray | None
    gap: float
    n_nodes: int
    lp_iterations: int = 0  # simplex pivots and bound flips over all nodes
    refactorizations: int = 0  # basis inversions over all nodes
    infeasible_row: int = -1  # a row the root relaxation could not satisfy
    phase1_iterations: int = 0  # of ``lp_iterations``, those taken in phase 1
    bland_switches: int = 0  # node solves that switched to Bland's rule
    root_iterations: int = 0  # of ``lp_iterations``, those of the root node


class _Node(NamedTuple):
    lower: np.ndarray  # bounds of the integer columns
    upper: np.ndarray
    bound: float  # the parent's LP objective
    state: tuple[np.ndarray, np.ndarray] | None  # None: go on from the live solver


def solve_milp(
    lp: LinearMip,
    *,
    gap_tol: float = 1e-6,
    max_nodes: int = 500_000,
    basis: np.ndarray | None = None,
) -> MilpResult:
    """Branch and bound to absolute gap ``gap_tol``; the root LP starts from
    ``basis`` (m column indices, the slack of row i being ``n + i``; all
    slacks when None).  A negative or non-finite ``gap_tol`` raises
    ``ValueError``: a NaN one would turn off every prune."""
    if not (np.isfinite(gap_tol) and gap_tol >= 0.0):
        raise ValueError(f"gap tolerance must be finite and >= 0, got {gap_tol}")
    int_cols = lp.integer_columns()
    solver = SimplexSolver(lp, basis)
    lower = np.ceil(lp.col_lower[int_cols])
    upper = np.floor(lp.col_upper[int_cols])
    stack = [] if (lower > upper).any() else [_Node(lower, upper, -INF, None)]

    best_obj = INF
    best_x: np.ndarray | None = None
    worst_pruned = INF
    n_nodes = lp_iterations = phase1_iterations = bland_switches = root_iterations = 0
    root_row = -1

    while stack:
        node = stack.pop()
        if node.bound >= best_obj - gap_tol:
            worst_pruned = min(worst_pruned, node.bound)
            continue
        if n_nodes >= max_nodes:
            raise RuntimeError(f"branch and bound exceeded {max_nodes} nodes")
        solver.set_col_bounds(int_cols, node.lower, node.upper)
        if node.state is not None:
            solver.load_state(*node.state)
        res = solver.solve()
        n_nodes += 1
        lp_iterations += res.iterations
        phase1_iterations += res.phase1_iterations
        bland_switches += res.bland
        if n_nodes == 1:
            root_iterations, root_row = res.iterations, res.infeasible_row
        if res.status == "unbounded":
            raise ValueError("relaxation is unbounded; the model is missing finite bounds")
        if res.status == "infeasible":
            continue
        bound, x = res.objective, res.x
        if bound >= best_obj - gap_tol:
            worst_pruned = min(worst_pruned, bound)
            continue
        xi = x[int_cols]
        frac = np.abs(xi - np.round(xi))
        if frac.max(initial=0.0) <= _INT_TOL:
            x[int_cols] = np.round(xi)
            best_obj, best_x = bound, x
            continue
        # children a new incumbent prunes are dropped when popped
        k = int(np.argmax(frac))
        split_upper, split_lower = node.upper.copy(), node.lower.copy()
        split_upper[k], split_lower[k] = np.floor(xi[k]), np.ceil(xi[k])
        down, up = (node.lower, split_upper), (split_lower, node.upper)
        far, near = (down, up) if np.round(xi[k]) > xi[k] else (up, down)
        stack.append(_Node(*far, bound, solver.snapshot()))
        stack.append(_Node(*near, bound, None))

    counts = (n_nodes, lp_iterations, solver.refactorizations)
    telemetry = (phase1_iterations, bland_switches, root_iterations)
    if best_x is None:
        return MilpResult("infeasible", INF, None, INF, *counts, root_row, *telemetry)
    gap = max(0.0, best_obj - worst_pruned) if np.isfinite(worst_pruned) else 0.0
    return MilpResult("optimal", best_obj, best_x, gap, *counts, -1, *telemetry)
