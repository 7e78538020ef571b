"""Self-contained mixed-integer linear programming machinery.

``LinearMip`` holds a minimization problem with bounded columns, range
rows, and an integrality mask.  ``solve_lp`` is a bounded-variable primal
simplex; ``solve_milp`` wraps it in depth-first branch and bound, whose
nodes carry the bounds of the integer columns as arrays.
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
