"""End-to-end solve-service macro benchmark: serial vs batched flush.

The numeric-flush benchmark isolates the executor; this one measures the
same knob through the **whole service stack** — request queue, symbolic
cache, compiled-plan replay, triangular solves, residual checks.

Workload: one sparsity pattern (a block-diagonal union of small dense
SPD tenants, the stream a coalescing front-end produces) with a new
diagonal shift per request.  The first request pays the symbolic build;
every later one replays the cached factorization, so wall-clock is
dominated by the numeric phase flush batching accelerates.

The service runs twice with identical requests — once in serial
reference mode (``batching=False``) and once with the default batched
flush — with a single worker so request processing order is
deterministic.  Every solution must be **bit-identical** between the two
runs; wall-clock and requests/sec are merged into
``benchmarks/perf/BENCH_numeric.json`` under ``"service_macro"``.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro import ServiceConfig, SolveService, SolverOptions
from repro.sparse import SymmetricCSC

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS_PATH = Path(__file__).parent / "BENCH_numeric.json"
N_REQUESTS = 8 if QUICK else 16


def _tenant_union():
    per_width = 16 if QUICK else 48
    sizes = [8] * per_width + [12] * per_width + [16] * per_width
    rng = np.random.default_rng(1)
    blocks = []
    for n in sizes:
        m = rng.standard_normal((n, n)) * 0.1
        blocks.append(m @ m.T + n * np.eye(n))
    return sp.block_diag(blocks, format="csc"), len(sizes)


def _requests():
    base, tenants = _tenant_union()
    eye = sp.identity(base.shape[0], format="csc")
    matrices = [SymmetricCSC.from_any(base + (0.1 + 0.05 * i) * eye)
                for i in range(N_REQUESTS)]
    rng = np.random.default_rng(2)
    rhs = [rng.standard_normal(base.shape[0]) for _ in range(N_REQUESTS)]
    return matrices, rhs, tenants


def _run_service(matrices, rhs, *, batching):
    opts = SolverOptions(nranks=1, batching=batching, ordering="natural")
    config = ServiceConfig(workers=1, queue_depth=N_REQUESTS, coalesce=False)
    with SolveService(opts, config) as svc:
        start = time.perf_counter()
        futures = [svc.submit(a, b) for a, b in zip(matrices, rhs)]
        results = [f.result(timeout=600.0) for f in futures]
        elapsed = time.perf_counter() - start
    counts = svc.counters()
    assert counts.requests_failed == 0
    assert counts.symbolic_builds == 1
    assert all(stats.residual < 1e-8 for _, stats in results)
    return elapsed, [x for x, _ in results]


def test_service_macro():
    matrices, rhs, tenants = _requests()
    serial_s, serial_x = _run_service(matrices, rhs, batching=False)
    batched_s, batched_x = _run_service(matrices, rhs, batching=True)

    divergent = [i for i, (xs, xb) in enumerate(zip(serial_x, batched_x))
                 if not np.array_equal(xs, xb)]

    record = {
        "quick_mode": QUICK,
        "tenants": tenants,
        "n": matrices[0].n,
        "requests": N_REQUESTS,
        "serial_seconds": round(serial_s, 4),
        "batched_seconds": round(batched_s, 4),
        "serial_requests_per_second": round(N_REQUESTS / serial_s, 2),
        "batched_requests_per_second": round(N_REQUESTS / batched_s, 2),
        "speedup_batched_vs_serial": round(serial_s / batched_s, 3),
        "bit_identical": not divergent,
    }
    results = json.loads(RESULTS_PATH.read_text()) if RESULTS_PATH.exists() \
        else {}
    results["service_macro"] = record
    RESULTS_PATH.write_text(json.dumps(results, indent=2) + "\n")

    print(f"\nservice macro: {record['speedup_batched_vs_serial']:.2f}x "
          f"end-to-end ({serial_s:.3f}s -> {batched_s:.3f}s, "
          f"{N_REQUESTS} requests)")
    assert not divergent, f"service solutions diverged: {divergent}"
    # End-to-end includes untouched phases (queueing, solves, residuals),
    # so the hard >=2x claim lives in the flush benchmark; here we only
    # require the batched service not to regress materially.
    assert record["speedup_batched_vs_serial"] > 0.8
