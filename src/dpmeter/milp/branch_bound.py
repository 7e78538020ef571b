"""Depth-first branch and bound over the integer columns of a LinearMip.

Each node's LP relaxation is solved by the bounded-variable simplex; the
near child (the branch agreeing with the rounded LP value) continues from
the live solver state, the far sibling is re-activated from a basis
snapshot when popped.  Branching picks the most fractional integer column
with lowest-index tie-breaking, so the search path is deterministic.

An optional ``heuristic`` callback may propose a feasible point for any
node's LP solution; verified candidates tighten the incumbent early, which
is what makes depth-first search affordable on bracket-selection models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import INF, LinearMip, check_feasibility
from .simplex import SimplexSolver

Heuristic = Callable[[np.ndarray], "tuple[float, np.ndarray] | None"]


@dataclass
class MilpResult:
    status: str  # "optimal" | "infeasible"
    objective: float
    x: np.ndarray | None
    gap: float
    n_nodes: int
    lp_iterations: int = 0  # simplex pivots and bound flips over all nodes
    refactorizations: int = 0  # basis inversions over all nodes
    infeasible_row: int = -1


@dataclass
class _Pending:
    fixes: list[tuple[int, float, float]]
    basis: np.ndarray
    vstat: np.ndarray
    parent_bound: float


def solve_milp(
    lp: LinearMip,
    *,
    gap_tol: float = 1e-6,
    int_tol: float = 1e-7,
    heuristic: Heuristic | None = None,
    max_nodes: int = 500_000,
    feas_tol: float = 1e-9,
) -> MilpResult:
    int_cols = lp.integer_columns()
    solver = SimplexSolver(lp, feas_tol=feas_tol)
    orig_lb = lp.col_lower.copy()
    orig_ub = lp.col_upper.copy()

    best_obj = INF
    best_x: np.ndarray | None = None
    worst_pruned = INF
    n_nodes = 0

    def note_pruned(bound: float) -> None:
        nonlocal worst_pruned
        worst_pruned = min(worst_pruned, bound)

    def try_candidate(obj_hint: float, x_c: np.ndarray) -> None:
        # the objective is recomputed from the model; the hint only gates work
        nonlocal best_obj, best_x
        if obj_hint >= best_obj - 1e-12:
            return
        obj_c = lp.objective_value(x_c)
        if obj_c < best_obj - 1e-12 and check_feasibility(lp, x_c, integer_tol=int_tol) <= 1e-6:
            best_obj = obj_c
            best_x = x_c.copy()

    def reset_bounds(fixes) -> None:
        for c in int_cols:
            solver.set_col_bounds(int(c), orig_lb[c], orig_ub[c])
        for c, lo, hi in fixes:
            solver.set_col_bounds(c, lo, hi)

    stack: list[_Pending] = []
    fixes: list[tuple[int, float, float]] = []
    res = solver.solve()
    n_nodes = 1
    lp_iterations = res.iterations
    if res.status == "infeasible":
        return MilpResult(
            "infeasible", INF, None, INF, n_nodes, lp_iterations, solver.refactorizations,
            res.infeasible_row,
        )
    if res.status == "unbounded":
        raise ValueError("relaxation is unbounded; the model is missing finite bounds")

    while True:
        if res is not None:
            bound = res.objective
            x = res.x
            frac = np.abs(x[int_cols] - np.round(x[int_cols])) if int_cols.size else np.zeros(0)
            if bound >= best_obj - gap_tol:
                note_pruned(bound)
                res = None
            elif int_cols.size == 0 or frac.max(initial=0.0) <= int_tol:
                cand = x.copy()
                if int_cols.size:
                    cand[int_cols] = np.round(cand[int_cols])
                if bound < best_obj:
                    best_obj = bound
                    best_x = cand
                res = None
            else:
                if heuristic is not None:
                    proposal = heuristic(x)
                    if proposal is not None:
                        try_candidate(*proposal)
                if bound >= best_obj - gap_tol:
                    note_pruned(bound)
                    res = None
                else:
                    # branch on the most fractional column, ties to lowest index
                    dist = np.minimum(frac, 1.0 - frac)
                    j = int(int_cols[np.argmax(dist)])
                    near = float(np.round(x[j]))
                    if orig_ub[j] - orig_lb[j] == 1.0 and orig_lb[j] == 0.0:
                        near_fix = (j, near, near)
                        far_fix = (j, 1.0 - near, 1.0 - near)
                    else:
                        lo_child = (j, orig_lb[j], float(np.floor(x[j])))
                        hi_child = (j, float(np.ceil(x[j])), orig_ub[j])
                        near_fix, far_fix = (
                            (hi_child, lo_child) if near >= x[j] else (lo_child, hi_child)
                        )
                    basis, vstat = solver.snapshot()
                    stack.append(_Pending(fixes + [far_fix], basis, vstat, bound))
                    fixes = fixes + [near_fix]
                    solver.set_col_bounds(*near_fix)
                    if n_nodes >= max_nodes:
                        raise RuntimeError(f"branch and bound exceeded {max_nodes} nodes")
                    res = solver.solve()
                    n_nodes += 1
                    lp_iterations += res.iterations
                    if res.status == "unbounded":  # pragma: no cover - defensive
                        raise ValueError("child relaxation unbounded")
                    if res.status == "infeasible":
                        res = None
                    continue

        # current branch exhausted: pop the next promising pending sibling
        while res is None and stack:
            node = stack.pop()
            if node.parent_bound >= best_obj - gap_tol:
                note_pruned(node.parent_bound)
                continue
            fixes = node.fixes
            reset_bounds(fixes)
            solver.load_state(node.basis, node.vstat)
            if n_nodes >= max_nodes:
                raise RuntimeError(f"branch and bound exceeded {max_nodes} nodes")
            res = solver.solve()
            n_nodes += 1
            lp_iterations += res.iterations
            if res.status == "unbounded":  # pragma: no cover - defensive
                raise ValueError("sibling relaxation unbounded")
            if res.status == "infeasible":
                res = None
        if res is None and not stack:
            break

    counts = (n_nodes, lp_iterations, solver.refactorizations)
    if best_x is None:
        return MilpResult("infeasible", INF, None, INF, *counts)
    gap = max(0.0, best_obj - worst_pruned) if np.isfinite(worst_pruned) else 0.0
    return MilpResult("optimal", best_obj, best_x, gap, *counts)
