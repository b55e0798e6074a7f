"""Plan execution: run a compiled stream straight through the executor.

No task-graph traversal, no event queue, no simulated RPC — a fresh
:class:`~repro.kernels.dispatch.KernelExecutor` configured exactly like
the recording run's (same ``batching``) executes the plan's frozen
``(call, wave)`` stream as one flush.  Because the DES would re-derive
the identical stream, the replay is bit-identical to a full DES graph
replay by construction (pinned by the property suite in
``tests/plans/``).
"""

from __future__ import annotations

from ..kernels.dispatch import ExecContext, ExecutorStats, KernelExecutor
from .plan import NumericPlan

__all__ = ["execute_plan"]


def execute_plan(plan: NumericPlan, context: ExecContext, *,
                 batching: bool = True) -> ExecutorStats:
    """Execute ``plan`` against ``context``; returns the flush counters."""
    executor = KernelExecutor(context=context, batching=batching)
    executor.execute_stream(plan.stream)
    return executor.stats
