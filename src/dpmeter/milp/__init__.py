"""Self-contained mixed-integer linear programming machinery.

``LinearMip`` holds a minimization problem with bounded columns, range
rows, and an integrality mask.  ``solve_lp`` is a bounded-variable primal
simplex that prices by reduced cost per unit column length (frozen
steepest-edge weights of the all-slack basis); ``solve_milp`` wraps it
in depth-first branch and bound, whose nodes carry the bounds of the
integer columns as arrays.  ``SimplexSolver`` and ``solve_milp`` take
an optional start basis (m column indices, the slack of row i being
``n + i``); without one the root starts from the all-slack basis.  A
primal-feasible start basis, such as the one the procurement cell model
builds, lets the root LP skip phase 1.  The results count simplex
iterations, those of phase 1 and those of the root node among them,
refactorizations and switches to Bland's rule.
"""

from .model import LinearMip, check_feasibility
from .simplex import LpResult, SimplexSolver, solve_lp
from .branch_bound import MilpResult, solve_milp

__all__ = [
    "LinearMip",
    "LpResult",
    "MilpResult",
    "SimplexSolver",
    "check_feasibility",
    "solve_lp",
    "solve_milp",
]
