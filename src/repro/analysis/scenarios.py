"""Checked execution scenarios: the determinism property-suite matrix.

The determinism property tests (``tests/property/``) pin *bit-identity*
of the flush modes across all five solver families; this module runs the
same family × matrix grid with the PGAS happens-before checker attached
to every simulated world, turning "the runs agree" into a per-run
mechanical check that no remote access is unordered.  The CI
``static-analysis`` job runs :func:`run_scenarios` (via ``python -m
repro.analysis races``) and fails on any finding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..sparse import SymmetricCSC, grid_laplacian_2d, random_spd
from .report import Finding

__all__ = ["ScenarioResult", "run_scenarios"]


@dataclass
class ScenarioResult:
    """One checked family × matrix execution (factorize + solve)."""

    family: str
    matrix: str
    tasks: int
    findings: list[Finding] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def _coalesced_batch(sizes: list[int], seed: int = 0) -> SymmetricCSC:
    """Block-diagonal union of small dense SPD tenants (service pattern)."""
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        m = rng.standard_normal((n, n)) * 0.1
        blocks.append(m @ m.T + n * np.eye(n))
    return SymmetricCSC.from_any(sp.block_diag(blocks, format="csc"))


def _families() -> list[tuple[type, type]]:
    # Local import: the solver families import the core stack, which this
    # analysis package must stay importable without.
    from ..baselines.pastix_like import PastixLikeSolver, PastixOptions
    from ..core.solver import SolverOptions, SymPackSolver
    from ..variants import (
        FanBothOptions,
        FanBothSolver,
        FanInOptions,
        FanInSolver,
        MultifrontalOptions,
        MultifrontalSolver,
    )

    return [
        (SymPackSolver, SolverOptions),
        (FanInSolver, FanInOptions),
        (FanBothSolver, FanBothOptions),
        (MultifrontalSolver, MultifrontalOptions),
        (PastixLikeSolver, PastixOptions),
    ]


_MATRICES = {
    "sparse": lambda: random_spd(60, density=0.15, seed=3),
    "grid": lambda: grid_laplacian_2d(9, 9),
    "coalesced": lambda: _coalesced_batch([6, 8, 8, 10, 12]),
}


def run_scenarios() -> list[ScenarioResult]:
    """Run every family × matrix scenario with ``check_races`` enabled.

    Each scenario factorizes and solves with a vector-clock tracer on
    every world.  Returns per-scenario results; a scenario with findings
    is a correctness bug in the engine or runtime, not in the workload.
    """
    results: list[ScenarioResult] = []
    for solver_cls, options_cls in _families():
        for key in sorted(_MATRICES):
            a = _MATRICES[key]()
            nranks = 2 if key == "sparse" else 1
            solver = solver_cls(a, options_cls(nranks=nranks,
                                               check_races=True))
            info = solver.factorize()
            rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
            solver.solve(rhs)
            results.append(ScenarioResult(
                family=solver_cls.__name__,
                matrix=key,
                tasks=info.tasks,
                findings=list(solver.session.race_findings),
            ))
    return results
