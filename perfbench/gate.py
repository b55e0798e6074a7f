"""Correctness gate applied to every benchmark op.

Two checks, both independent of the library's own verification:

* the relative residual ``||A x - b|| / ||b||`` computed here with SciPy
  from the generated input (never through ``residual_norm``) must be at
  most :data:`RESIDUAL_TOL`;
* the simulated makespans (``sim.*``) and PGAS message counts
  (``pgas.*``) of each op must equal the values recorded in
  ``expected.json`` bit for bit.  Wall-clock work never changes them,
  so a faster run that moves them computed something else.

Any mismatch marks the run incorrect; the run itself continues so every
mismatch is reported.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import scipy.sparse as sp

__all__ = ["RESIDUAL_TOL", "EXPECTED_PATH", "Gate", "full_matrix",
           "load_expected", "relative_residual"]

RESIDUAL_TOL = 1e-10
EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """Recorded ``sim.*`` / ``pgas.*`` values per workload input."""
    return json.loads(path.read_text())


def full_matrix(a) -> sp.csr_matrix:
    """The full symmetric matrix from a ``SymmetricCSC``'s lower triangle."""
    low = sp.csc_matrix(a.lower)
    return (low + low.T - sp.diags(low.diagonal())).tocsr()


def relative_residual(full: sp.spmatrix, x: np.ndarray, b: np.ndarray) -> float:
    """``||A x - b|| / ||b||`` in the 2-norm (Frobenius for several rhs)."""
    r = full @ x - b
    return float(np.linalg.norm(r) / np.linalg.norm(b))


class Gate:
    """Collects every failed check of one run."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self.checked = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def residual(self, op: int, full: sp.spmatrix, x: np.ndarray,
                 b: np.ndarray) -> None:
        self.checked += 1
        res = relative_residual(full, x, b)
        if not res <= RESIDUAL_TOL:  # also catches NaN
            self.mismatches.append(
                f"op {op}: residual {res:.3e} > {RESIDUAL_TOL:.0e}")

    def fail(self, op: int, message: str) -> None:
        self.checked += 1
        self.mismatches.append(f"op {op}: {message}")

    def values(self, op: int, got: dict, want: dict) -> None:
        """Require ``got[k] == want[k]`` exactly for every recorded key."""
        self.checked += 1
        for key, value in want.items():
            if got.get(key) != value:
                self.mismatches.append(
                    f"op {op}: {key} = {got.get(key)!r}, recorded {value!r}")
