"""Concurrency-correctness analysis suite.

Three layers, one goal: turn the invariants the simulated PGAS runtime,
the kernel layer and the pooled-memory/service layers *rely on* into
properties that are mechanically checked on every commit instead of
merely sampled by property tests.

* :mod:`repro.analysis.hb` — the **PGAS happens-before checker**.  A
  vector-clock tracer attached to a :class:`~repro.pgas.runtime.World`
  that flags rget/rput/RPC pairs with no ordering edge (unfenced remote
  access), signals that reference payloads written later
  (signal-before-put) and ranks that end a run with undrained RPC inboxes
  (progress-loop starvation).  Enabled on any session via the
  ``check_races`` option (CLI ``--check-races``).

* :mod:`repro.analysis.lint` — a **custom AST lint pass** encoding repo
  invariants generic linters cannot express (kernel handlers mutating
  undeclared operands, unseeded randomness, stray ``threading`` use,
  ``assert``-based input validation, dict-iteration-order dependence in
  scheduling paths).

* :mod:`repro.analysis.ownership` / :mod:`repro.analysis.locks` — the
  **flow-sensitive** buffer-ownership and lock-discipline passes over
  the pooled-memory and service layers.

All of them run from one entry point (``python -m repro.analysis``) and are
self-tested by mutation (:mod:`repro.analysis.mutation`): seeded defect
injections must be flagged and the clean tree must produce zero findings.
"""

from .hb import PgasTracer
from .report import Finding, format_findings

__all__ = ["Finding", "format_findings", "PgasTracer"]
