"""Plan replay == DES replay, to the last bit, for every solver family.

The compiled-plan promise: a warm refactorization (``update_values`` +
``factorize``) and a warm solve of a seen rhs width execute the recorded
kernel stream directly — no task-graph traversal, no event queue, no
simulated RPC — and produce **bit-identical** factors, solutions,
simulated seconds and communication counters (``np.array_equal`` and
``==``, never ``allclose``) to a full DES-driven replay of the same
inputs.  The reference is the test-side DES oracle
(:func:`tests.des_oracle.des_oracle`), which replays every run through
the simulator.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.solver import SolverOptions, SymPackSolver
from repro.resilience import ResilienceOptions
from repro.sparse import SymmetricCSC, grid_laplacian_2d, random_spd
from tests.des_oracle import FAMILIES, des_oracle


def _coalesced_batch(sizes, seed=0):
    rng = np.random.default_rng(seed)
    blocks = []
    for n in sizes:
        m = rng.standard_normal((n, n)) * 0.1
        blocks.append(m @ m.T + n * np.eye(n))
    return SymmetricCSC.from_any(sp.block_diag(blocks, format="csc"))


MATRICES = {
    "sparse": lambda: random_spd(60, density=0.15, seed=3),
    "grid": lambda: grid_laplacian_2d(9, 9),
    "coalesced": lambda: _coalesced_batch([6, 8, 8, 10, 12]),
}


def _shifted(a: SymmetricCSC, shift: float) -> SymmetricCSC:
    """Same pattern, diagonal shifted — the refactorization workload."""
    eye = sp.identity(a.n, format="csc")
    return SymmetricCSC.from_any(
        a.lower + a.lower.T - sp.diags(a.lower.diagonal()) + shift * eye)


def _run(solver_cls, options, a, shifts):
    """Factorize, then refactorize per shift, solving after each.

    Returns one ``(factor, x, factor sim s, solve sim s, factor comm,
    solve comm)`` tuple per factorization, plus the solver's plan stats.
    """
    solver = solver_cls(a, options)
    rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
    out = []
    for shift in (None,) + tuple(shifts):
        if shift is not None:
            solver.update_values(_shifted(a, shift))
        finfo = solver.factorize()
        x, sinfo = solver.solve(rhs)
        out.append((solver.storage.to_sparse_factor().toarray(), x,
                    finfo.simulated_seconds, sinfo.simulated_seconds,
                    finfo.comm, sinfo.comm))
    stats = solver.plan_stats
    solver.close()
    return out, stats


def _assert_same_runs(ref, got):
    assert len(ref) == len(got)
    for r, g in zip(ref, got):
        assert np.array_equal(r[0], g[0])      # factor
        assert np.array_equal(r[1], g[1])      # solution
        assert r[2:] == g[2:]                  # simulated s, CommStats


@pytest.mark.parametrize("matrix_key", sorted(MATRICES))
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_plan_replay_bit_identical_to_des(solver_cls, options_cls,
                                          matrix_key):
    """Warm plan refactorize + solve == DES graph replay, bit for bit."""
    a = MATRICES[matrix_key]()
    nranks = 2 if matrix_key == "sparse" else 1
    options = options_cls(nranks=nranks)
    shifts = (0.3, 0.7)
    des, des_stats = _run(des_oracle(solver_cls), options, a, shifts)
    plan, stats = _run(solver_cls, options, a, shifts)
    _assert_same_runs(des, plan)
    # The oracle never compiles; the default solver's warm runs rode the
    # plans: 3 compiles (factor + two solve sweeps), replays for 2
    # refactorizations + 2 warm solves.
    assert (des_stats.compiles, des_stats.hits) == (0, 0)
    assert stats.compiles == 3
    assert stats.hits == 2 + 2 * 2


def test_resilient_solver_compiles_no_plans():
    """Resilient runs keep DES replay and match the default bit for bit.

    Without hardened delivery or canonical flush the resilient runner
    reproduces the lossless simulator exactly.
    """
    a = MATRICES["sparse"]()
    shifts = (0.3,)
    default, _ = _run(SymPackSolver, SolverOptions(nranks=2), a, shifts)
    policy = ResilienceOptions(hardened=False, canonical_flush=False)
    runs, stats = _run(SymPackSolver,
                       SolverOptions(nranks=2, resilience=policy), a, shifts)
    assert (stats.compiles, stats.hits) == (0, 0)
    _assert_same_runs(default, runs)


def test_cold_run_compiles_three_plans_without_copying_calls():
    """Unfused plan entries are the graph tasks' own ``KernelCall``s."""
    a = MATRICES["grid"]()
    solver = SymPackSolver(a, SolverOptions(nranks=1))
    solver.factorize()
    solver.solve(np.ones(a.n))
    assert solver.plan_stats.compiles == 3
    assert solver.plan_stats.hits == 0
    fwd, bwd, _rhs = solver._solve_graphs[1]
    graphs = ((solver._factor_plan, solver._factor_graph),
              (solver._solve_plans[1][0], fwd),
              (solver._solve_plans[1][1], bwd))
    for plan, graph in graphs:
        kernels = {id(t.kernel): t.kernel for t in graph.tasks}
        own = sum(kernels.get(id(c)) is c for c, _w in plan.stream)
        assert own == len(plan.stream) - plan.fused_groups > 0
    solver.close()


def test_multi_rhs_solve_plans_keyed_by_width():
    """Each rhs width compiles its own solve plan pair; both replay."""
    a = MATRICES["grid"]()
    options = SolverOptions(nranks=1)
    solver = SymPackSolver(a, options)
    ref = des_oracle(SymPackSolver)(a, options)
    solver.factorize()
    ref.factorize()
    for nrhs in (1, 3, 1, 3):
        rhs = np.linspace(-1.0, 1.0, a.n * nrhs).reshape(a.n, nrhs)
        x, _ = solver.solve(rhs)
        x_ref, _ = ref.solve(rhs)
        assert np.array_equal(x, x_ref)
    assert sorted(solver._solve_plans) == [1, 3]
    assert solver.plan_stats.hits == 2 * 2  # second 1- and 3-rhs solves
    solver.close()
    ref.close()


def test_close_drops_plans_and_drains_arena():
    """close() retires the plan arena; the ledger returns to zero."""
    a = MATRICES["coalesced"]()
    solver = SymPackSolver(a, SolverOptions(nranks=1))
    solver.factorize()
    solver.update_values(_shifted(a, 0.5))
    solver.factorize()
    assert solver._factor_plan is not None
    solver.close()
    assert solver._factor_plan is None
    assert solver._plan_arena is None
    assert solver.session.ledger.live() == 0


def test_session_counts_plan_replays():
    """Plan replays land in the session's run accounting."""
    a = MATRICES["grid"]()
    solver = SymPackSolver(a, SolverOptions(nranks=1))
    solver.factorize()
    assert solver.session.plan_runs == 0
    solver.update_values(_shifted(a, 0.5))
    info_des_runs = solver.session.runs
    solver.factorize()
    assert solver.session.plan_runs == 1
    assert solver.session.runs == info_des_runs + 1
    solver.close()
