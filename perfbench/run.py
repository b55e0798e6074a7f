"""Run one benchmark workload, check every op, print its metrics.

From the root of a checkout::

    python3 perfbench/run.py --workload cold-oneshot --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics named in ``BENCHMARK.json``
(``end_to_end``).  ``--trace 1`` is a separate run: it measures half the
time untraced and half with spans around every public layer call, prints
the per-layer table with self times, reports the ``per_layer`` metrics
(including ``trace.overhead_frac``, the traced p50 latency against the
untraced one) and writes the spans as Chrome trace-event JSON under
``perfbench/out/`` (open it in Perfetto).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it is the host block (usable CPUs, BLAS and its thread count, library
versions, git sha, seed), which is also written with the result file.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
# A failed op counts as infinitely late; JSON has no infinity, so a
# percentile that lands on a failure reports this many milliseconds.
FAILED_MS = 1e9


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS NumPy loaded, if it can be asked."""
    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def host_block(seed: int) -> dict:
    import numpy
    import scipy

    try:
        b = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{b['name']} {b.get('version', '')}".strip()
    except (AttributeError, KeyError):
        blas = "unknown"
    return {"usable_cpus": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "machine": platform.machine(),
            "blas": blas,
            "blas_threads": blas_threads(),
            "blas_env": {k: os.environ[k] for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS") if k in os.environ},
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "git_sha": git_sha(),
            "seed": seed}


def measure(wl, seed: int, seconds: float, rec, gate, expected: dict,
            reps: int):
    """Set the workload up ``reps`` times (median timed), then run it once."""
    setups = []
    for i in range(reps):
        t = time.perf_counter()
        state = wl.setup(seed, seconds, rec)
        setups.append(time.perf_counter() - t)
        if i < reps - 1:
            wl.close(state)
    rec.clear()                      # the trace covers the timed phase
    try:
        outcome = wl.run(state, seconds, rec, gate, expected)
    finally:
        wl.close(state)
    return statistics.median(setups), outcome


def _ms(seconds: float) -> float:
    return min(seconds * 1e3, FAILED_MS)


def end_to_end(outcome, setup_s: float, percentile) -> tuple[dict, dict]:
    """End-to-end values and their sample counts."""
    lat = outcome.latencies
    ok = len(lat) - outcome.failed
    values = {"latency_ms_p50": _ms(percentile(lat, 50)),
              "latency_ms_p90": _ms(percentile(lat, 90)),
              "throughput_ops_s": ok / outcome.busy_s if outcome.busy_s else 0.0,
              "setup_s": setup_s,
              "rss_peak_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    counts = {"latency_ms_p50": len(lat), "latency_ms_p90": len(lat),
              "throughput_ops_s": ok, "setup_s": None, "rss_peak_mb": 1}
    return values, counts


def per_layer(names: list[str], outcome, base, percentile) -> tuple[dict, dict]:
    """Per-layer values: run-level values, else the p50 over the records."""
    values, counts = {}, {}
    attempted = len(outcome.latencies) + len(base.latencies)
    for name in names:
        if name == "trace.overhead_frac":
            untraced = percentile(base.latencies, 50)
            values[name] = (percentile(outcome.latencies, 50) / untraced - 1.0
                            if untraced else 0.0)
            counts[name] = len(outcome.latencies)
        elif name == "ops.failed_frac":
            values[name] = (outcome.failed + base.failed) / max(1, attempted)
            counts[name] = attempted
        elif name in outcome.layer:
            values[name] = outcome.layer[name]
            counts[name] = 1
        else:
            vals = [r[name] for r in outcome.records if name in r]
            values[name] = float(statistics.median(vals)) if vals else 0.0
            counts[name] = len(vals)
    return values, counts


def parse_args(argv: list[str] | None, workloads: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str] | None = None) -> dict:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library source at {ROOT / 'src'}; "
                         "run from the root of a full checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT))
                    if p not in sys.path]
    from perfbench.gate import Gate, load_expected
    from perfbench.spans import NULL_RECORDER, SpanRecorder
    from perfbench.workloads import WORKLOADS, percentile

    wl = WORKLOADS[args.workload]
    expected = load_expected()
    gate = Gate()
    host = host_block(args.seed)
    tag = f"{args.workload}-seed{args.seed}"
    if args.trace:
        half = args.seconds / 2
        _, base = measure(wl, args.seed, half, NULL_RECORDER, gate, expected, 1)
        rec = SpanRecorder()
        _, outcome = measure(wl, args.seed, half, rec, gate, expected, 1)
        spec = bench["per_layer"]
        values, counts = per_layer([m["name"] for m in spec], outcome, base,
                                   percentile)
        attempted = len(outcome.latencies) + len(base.latencies)
        failed = outcome.failed + base.failed
        print(f"{'span':<24}{'calls':>7}{'p50 ms':>11}"
              f"{'self p50 ms':>13}{'self total ms':>15}")
        for row in rec.table():
            print(f"{row['name']:<24}{row['calls']:>7}{row['p50_ms']:>11.3f}"
                  f"{row['self_p50_ms']:>13.3f}{row['self_total_ms']:>15.1f}")
        trace_path = OUT_DIR / f"{tag}-trace.json"
        rec.write_chrome(trace_path, {"host": host, "workload": args.workload})
        print(f"spans: {trace_path.relative_to(ROOT)} ({len(rec.spans)} spans)")
    else:
        setup_s, outcome = measure(wl, args.seed, args.seconds, NULL_RECORDER,
                                   gate, expected, wl.setup_reps)
        spec = bench["end_to_end"]
        values, counts = end_to_end(outcome, setup_s, percentile)
        attempted, failed = len(outcome.latencies), outcome.failed

    units = {m["name"]: m["unit"] for m in spec}
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    for name, m in metrics.items():
        n = counts[name]
        print(f"{name:<34}{m['value']:>14.6g} {m['unit']:<6}"
              + (f" (n={n})" if n is not None else ""))
    for line in gate.mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    result = {"correct": gate.ok and gate.checked > 0,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{tag}-{'layers' if args.trace else 'e2e'}.json").write_text(
        json.dumps({"host": host, "counts": counts,
                    "mismatches": gate.mismatches, **result}, indent=1))
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return result


if __name__ == "__main__":
    main()
