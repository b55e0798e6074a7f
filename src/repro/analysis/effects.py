"""Declared writable operands of every kernel op.

Lint rule ``REP105`` (:mod:`repro.analysis.lint`) checks every ``_op_*``
handler in ``kernels/dispatch.py`` against :data:`HANDLER_WRITE_SPEC`: a
handler may mutate only the operands its entry declares writable, and a
handler without an entry is itself a finding.
"""

from __future__ import annotations

__all__ = ["HANDLER_WRITE_SPEC"]


# Which operands each handler in ``kernels/dispatch.py`` may mutate,
# keyed by op.  ``resolve`` lists the *variable names* whose
# ``ctx.resolve(<name>)`` result is writable; ``accessors`` lists the
# writable ``ctx``/``ctx.storage`` access paths.  The lint pass enforces
# that handler bodies mutate nothing else.
HANDLER_WRITE_SPEC: dict[str, dict[str, frozenset[str]]] = {
    "noop": {"resolve": frozenset(), "accessors": frozenset()},
    "potrf_diag": {"resolve": frozenset(),
                   "accessors": frozenset({"diag_block"})},
    "trsm_block": {"resolve": frozenset(),
                   "accessors": frozenset({"off_block"})},
    "panel_factor": {"resolve": frozenset(),
                     "accessors": frozenset({"diag_block", "panels"})},
    "syrk_sub": {"resolve": frozenset({"tgt_ref"}),
                 "accessors": frozenset()},
    "gemm_sub": {"resolve": frozenset({"tgt_ref"}),
                 "accessors": frozenset()},
    "multi_update": {"resolve": frozenset({"tgt_ref"}),
                     "accessors": frozenset()},
    "apply_panel": {"resolve": frozenset(),
                    "accessors": frozenset({"diag_block", "panels"})},
    "axpy_sub": {"resolve": frozenset({"tgt_ref"}),
                 "accessors": frozenset()},
    "frontal": {"resolve": frozenset(),
                "accessors": frozenset({"diag_block", "panels",
                                        "transient"})},
    "trsv": {"resolve": frozenset(), "accessors": frozenset({"rhs"})},
    "gemv_fwd": {"resolve": frozenset(), "accessors": frozenset({"rhs"})},
    "gemv_bwd": {"resolve": frozenset(), "accessors": frozenset({"rhs"})},
}
