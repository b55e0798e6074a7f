"""Compiled numeric plans: DES-free warm refactorization and solves.

See :mod:`repro.plans.plan` for the design.  Public surface:

* :class:`NumericPlan` / :class:`PlanStats` — the immutable compiled
  stream and per-solver plan telemetry;
* :func:`compile_plan` — the compile pass (fusion);
* :class:`StreamRecorder` — flush-stream capture during a DES run;
* :func:`execute_plan` — run a plan through the kernel executor;
* :class:`PlanArena` — retained kernel-buffer cache making every run
  after the first allocation-free.
"""

from .arena import PlanArena
from .executor import execute_plan
from .plan import NumericPlan, PlanStats, compile_plan
from .recorder import StreamRecorder

__all__ = ["NumericPlan", "PlanStats", "PlanArena", "StreamRecorder",
           "compile_plan", "execute_plan"]
