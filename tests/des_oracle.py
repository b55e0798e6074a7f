"""Test-side DES oracle: every solver family with compiled plans off.

Non-resilient solvers execute every warm factorization and warm solve
through a compiled plan.  The plan-identity, service and allocation
suites need the path plans replace as their reference: a solver that
replays its task graph through the discrete-event simulator on every
run.  :func:`des_oracle` derives that solver from any family by pinning
``_plan_enabled`` to ``False``.  The oracle lives in the test tree only;
the library has one warm path.
"""

from functools import cache

from repro.baselines.pastix_like import PastixLikeSolver, PastixOptions
from repro.core.solver import SolverOptions, SymPackSolver
from repro.variants import (
    FanBothOptions,
    FanBothSolver,
    FanInOptions,
    FanInSolver,
    MultifrontalOptions,
    MultifrontalSolver,
)

__all__ = ["FAMILIES", "des_oracle"]

FAMILIES = [
    (SymPackSolver, SolverOptions),
    (FanInSolver, FanInOptions),
    (FanBothSolver, FanBothOptions),
    (MultifrontalSolver, MultifrontalOptions),
    (PastixLikeSolver, PastixOptions),
]


@cache
def des_oracle(cls: type) -> type:
    """``cls`` replaying every run through the DES (no plans compiled)."""
    return type("Des" + cls.__name__, (cls,), {"_plan_enabled": False})
