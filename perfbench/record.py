"""Record the simulated values the benchmark's correctness gate requires.

From the repository root::

    python3 perfbench/record.py

writes ``perfbench/expected.json``: for every input a workload can draw,
the simulated factor and solve seconds and (for the multi-rank
workloads) the PGAS message counts of one op.  These values depend only
on the sparsity pattern and the machine model, never on wall-clock
work, so the file is rewritten only when the simulated model itself is
meant to change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy as np

    from repro import SolverOptions, SymPackSolver
    from repro.service import ServiceConfig
    from perfbench.gate import EXPECTED_PATH
    from perfbench.workloads import (ColdOneshot, PexsiRefactor, ServiceMix,
                                     gate_values, pgas_counts, with_diag_shift)

    out: dict = {}
    cold = ColdOneshot()
    out[cold.name] = {}
    for index in range(cold.pool):
        a = cold.matrix(index)
        _, _, finfo, sinfo = cold.op(SymPackSolver, a, np.ones(a.n))
        out[cold.name][str(index)] = gate_values(finfo, sinfo)

    pexsi = PexsiRefactor()
    a0 = pexsi.matrix()
    solver = SymPackSolver(a0, pexsi.options)
    rows = []
    for shift in (0.0, 0.5):   # cold run, then one op as the run does it
        _, finfo, sinfo = pexsi.op(solver, with_diag_shift(a0, shift),
                                   np.ones(a0.n))
        rows.append(gate_values(finfo, sinfo))
    solver.close()
    if rows[0] != rows[1]:
        raise RuntimeError(f"refactorization moved simulated values: {rows}")
    out[pexsi.name] = {a0.name: rows[1]}

    mix = ServiceMix()
    widths = range(1, ServiceConfig().max_coalesce + 1)
    table: dict = {}
    comm = pgas_counts()

    def record(key: str, a, ws) -> None:
        solver = SymPackSolver(a, SolverOptions())
        finfo = solver.factorize()
        solves = [solver.solve(np.ones((a.n, w)))[1] for w in ws]
        solver.close()
        table[key] = {"factor_s": finfo.simulated_seconds,
                      "solve_s": [s.simulated_seconds for s in solves]}
        for k, v in pgas_counts(finfo.comm, *(s.comm for s in solves)).items():
            comm[k] += v

    for name, a in mix.tenants().items():
        record(name, a, widths)
    # A brand-new pattern arrives once per run, so it is never coalesced.
    for index in range(mix.thermal_pool):
        record(f"thermal/{index}", mix.thermal(index), [1])
    if any(comm.values()):
        raise RuntimeError(f"single-rank service solves sent messages: {comm}")
    table["comm"] = comm
    out[mix.name] = table
    EXPECTED_PATH.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED_PATH.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
