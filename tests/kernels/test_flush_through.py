"""What wave numbering still guarantees, for every solver family.

The engine records each task's dependency wave (its DAG depth) at
submission.  Two features read it: the canonical ``(wave, tid)`` flush
order of resilient runs, and :meth:`KernelExecutor.flush_through`, the
wave-frontier cut that checkpoints flush early.  These tests pin both
promises on a real factorization stream:

* every consumer is submitted with a strictly larger wave than each of
  its producers, so sorting by ``(wave, tid)`` is a topological order;
* executing the canonical stream as ``flush_through(cut)`` followed by
  ``flush()`` is bit-identical to one uncut flush, for every cut.
"""

import numpy as np
import pytest

from repro.kernels.dispatch import KernelExecutor
from repro.resilience import ResilienceOptions
from repro.sparse import random_spd
from tests.des_oracle import FAMILIES

# A resilient solver without hardened delivery: the engine's executor
# runs in canonical order, and the lossless simulator schedules it.
POLICY = ResilienceOptions(hardened=False)


def _capture_factor_submissions(solver_cls, options_cls, monkeypatch):
    """Factorize once; return the solver and every ``submit`` it made."""
    a = random_spd(60, density=0.15, seed=3)
    solver = solver_cls(a, options_cls(nranks=2, resilience=POLICY))
    submits = []
    orig = KernelExecutor.submit

    def record(self, task, rank, device, wave=None, order_key=None):
        submits.append((task, rank, device, wave, order_key))
        orig(self, task, rank, device, wave=wave, order_key=order_key)

    monkeypatch.setattr(KernelExecutor, "submit", record)
    solver.factorize()
    monkeypatch.undo()
    return solver, submits


def _replay(solver, submits, cut=None):
    """Re-execute the captured stream canonically; return the factor."""
    ctx = solver._factor_graph.context
    solver.storage.reset()
    ctx.fresh_run()
    executor = KernelExecutor(ctx, canonical=True)
    for task, rank, device, wave, key in submits:
        executor.submit(task, rank, device, wave=wave, order_key=key)
    executed = 0
    if cut is not None:
        executed = executor.flush_through(cut)
        assert executed == sum(w <= cut for *_rest, w, _k in submits)
    executor.flush()
    ctx.end_run()  # no kernel buffer may stay held across the cut
    assert executor.stats.calls == len(submits)
    return solver.storage.to_sparse_factor().toarray()


@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_consumer_waves_exceed_producer_waves(solver_cls, options_cls,
                                              monkeypatch):
    """The ``(wave, tid)`` sort of the submitted stream is topological."""
    solver, submits = _capture_factor_submissions(solver_cls, options_cls,
                                                  monkeypatch)
    wave_of = {key: wave for _t, _r, _d, wave, key in submits}
    graph = solver._factor_graph
    assert sorted(wave_of) == [t.tid for t in graph.tasks]
    edges = 0
    for task in graph.tasks:
        consumers = list(task.local_consumers)
        for msg in task.messages:
            consumers.extend(msg.consumers)
        for child in consumers:
            assert wave_of[child] > wave_of[task.tid], (task.label, child)
            edges += 1
    assert edges > 0
    solver.close()


@pytest.mark.parametrize("solver_cls,options_cls", FAMILIES,
                         ids=lambda v: getattr(v, "__name__", None))
def test_flush_through_every_cut_matches_single_flush(solver_cls,
                                                      options_cls,
                                                      monkeypatch):
    """``flush_through(cut)`` + ``flush()`` == one flush, bit for bit."""
    solver, submits = _capture_factor_submissions(solver_cls, options_cls,
                                                  monkeypatch)
    engine_factor = solver.storage.to_sparse_factor().toarray()
    whole = _replay(solver, submits)
    # The resilient engine flushed the same canonical stream.
    assert np.array_equal(whole, engine_factor)
    top = max(wave for *_rest, wave, _k in submits)
    assert top > 1
    for cut in range(-1, top + 1):
        assert np.array_equal(_replay(solver, submits, cut), whole), cut
    solver.close()
