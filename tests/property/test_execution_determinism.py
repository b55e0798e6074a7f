"""Bit-identity of the flush execution modes, across all families.

The deferred executor promises that serial one-at-a-time execution
(``batching=False``) and the batched submission-order flush (the default)
produce **bit-identical** factors and solutions (``np.array_equal``, not
``allclose``).  These tests pin that promise for every solver family,
together with the warm compiled-plan replay of the batched solver, which
executes the same recorded stream without the simulator.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.solver import SolverOptions, SymPackSolver
from repro.kernels.dispatch import ExecContext, KernelExecutor
from repro.sparse import SymmetricCSC, grid_laplacian_2d, random_spd
from tests.des_oracle import FAMILIES


def _coalesced_batch(sizes, seed=0):
    """Block-diagonal union of small dense SPD tenants (service pattern)."""
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


def _factor_and_solve(solver, a):
    solver.factorize()
    factor = solver.storage.to_sparse_factor().toarray()
    rhs = np.linspace(-1.0, 1.0, a.n * 2).reshape(a.n, 2)
    x, _ = solver.solve(rhs)
    return factor, x


@pytest.mark.parametrize("matrix_key", sorted(MATRICES))
@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_three_modes_bit_identical(solver_cls, options_cls, matrix_key):
    """serial == batched == warm plan replay, to the last bit, per family."""
    a = MATRICES[matrix_key]()
    nranks = 2 if matrix_key == "sparse" else 1
    serial = solver_cls(a, options_cls(nranks=nranks, batching=False))
    f_serial, x_serial = _factor_and_solve(serial, a)
    batched = solver_cls(a, options_cls(nranks=nranks))
    f_batched, x_batched = _factor_and_solve(batched, a)
    # Second factorize + same-width solve replay the compiled plans
    # (one factor plan, forward and backward solve plans).
    f_plan, x_plan = _factor_and_solve(batched, a)
    assert batched.plan_stats.hits == 3
    assert np.array_equal(f_serial, f_batched)
    assert np.array_equal(x_serial, x_batched)
    assert np.array_equal(f_serial, f_plan)
    assert np.array_equal(x_serial, x_plan)


def test_run_one_matches_flush_modes():
    """One-at-a-time run_one over the stream equals both flush modes."""
    a = _coalesced_batch([8, 10, 12], seed=11)
    solver = SymPackSolver(a, SolverOptions(nranks=1))
    captured = []
    orig = KernelExecutor.flush

    def capture(self):
        if self._pending and not captured:
            captured.append((list(self._pending), self))
        orig(self)

    KernelExecutor.flush = capture
    try:
        solver.factorize()
    finally:
        KernelExecutor.flush = orig
    pending, ex = captured[0]
    storage = ex.context.storage

    storage.reset()
    ex.context.fresh_run()
    runner = KernelExecutor(ex.context)
    for call, _wave in pending:
        runner.run_one(call)
    one_at_a_time = storage.to_sparse_factor().toarray()

    for batching in (False, True):
        storage.reset()
        ex.context.fresh_run()
        KernelExecutor(ex.context, batching=batching).execute_stream(pending)
        flushed = storage.to_sparse_factor().toarray()
        assert np.array_equal(one_at_a_time, flushed)


def test_scratch_array_shape_mismatch_raises():
    """Aliased aggregate buffers with conflicting shapes fail loudly."""
    ctx = ExecContext()
    ctx.scratch_array(("agg", 1), (3, 4))
    with pytest.raises(ValueError, match="shape"):
        ctx.scratch_array(("agg", 1), (4, 4))
