"""The benchmark's three workloads.

Each workload loads a different set of layers (see ``README.md`` for the
per-layer predictions):

* ``cold-oneshot`` — one-shot solves, a new sparsity pattern every op:
  ordering, symbolic analysis, graph build and the first DES run do the
  work; nothing can be reused between ops.
* ``pexsi-refactor`` — one pattern analysed in set-up, then new values,
  refactorize and solve per op: the DES replay, kernel flush and
  triangular solve do the work; ordering does none.
* ``service-mix`` — an open-loop Poisson stream into ``SolveService``
  over a few tenants: key hashing, the queue, the caches, eviction and
  coalescing.

Every execution knob keeps its library default (``parallelism``,
``batching``, ``plan_mode``, ``scheduling``, ``offload``, ``coalesce``,
``workers``), so flipping a default shows up here as a measured change.
A workload's inputs depend only on the seed it is given.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future, wait
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp

from repro import SolverOptions, SymPackSolver
from repro.service import ServiceConfig, SolveService
from repro.sparse import bone_like, flan_like, thermal_like
from repro.sparse.csc import SymmetricCSC

from .gate import Gate, full_matrix
from .spans import SpanRecorder

__all__ = ["OP_ERRORS", "Outcome", "ColdOneshot", "PexsiRefactor",
           "ServiceMix", "WORKLOADS", "percentile", "with_diag_shift"]

# Failures an op may legitimately end in: bad numerics, malformed input,
# a refused or failed service request (ServiceOverloaded is a
# RuntimeError).  They count in ``failed`` and the run goes on; any other
# exception is a defect of the program or the benchmark and stops it.
OP_ERRORS = (ValueError, np.linalg.LinAlgError, RuntimeError)

MB = float(2 ** 20)
PGAS_FIELDS = (("pgas.rpcs", "rpcs_sent"), ("pgas.gets", "gets_issued"),
               ("pgas.bytes_get", "bytes_get"),
               ("pgas.bytes_device_direct", "bytes_device_direct"))


@dataclass
class Outcome:
    """What one timed phase of a workload measured."""

    latencies: list[float] = field(default_factory=list)  # s; inf = failed
    busy_s: float = 0.0        # wall seconds the program worked on the ops
    records: list[dict] = field(default_factory=list)  # per call / per op
    layer: dict = field(default_factory=dict)          # run-level values

    @property
    def failed(self) -> int:
        return sum(1 for v in self.latencies if v == float("inf"))


def with_diag_shift(a: SymmetricCSC, shift: float) -> SymmetricCSC:
    """``A + shift * I`` with ``A``'s sparsity pattern (diagonal stored)."""
    low = a.lower.copy()
    first = low.indptr[:-1]
    if not np.array_equal(low.indices[first], np.arange(a.n)):
        raise ValueError(f"{a.name}: a column has no stored diagonal")
    low.data[first] += shift
    return SymmetricCSC(low, name=a.name)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``; 0 when empty."""
    if not values:
        return 0.0
    s = sorted(values)
    return s[max(0, math.ceil(len(s) * q / 100) - 1)]


def pgas_counts(*comms) -> dict:
    """Summed PGAS message counters of the given ``CommStats``."""
    return {name: sum(getattr(c, attr) for c in comms)
            for name, attr in PGAS_FIELDS}


def gate_values(finfo, sinfo) -> dict:
    """What the gate compares for one factorize + solve op."""
    return {"sim.factor_s": finfo.simulated_seconds,
            "sim.solve_s": sinfo.simulated_seconds,
            **pgas_counts(finfo.comm, sinfo.comm)}


def solver_counters(solver) -> dict:
    """Cumulative counters of one solver, for per-op differences."""
    ps = solver.plan_stats
    return {"gpu_flops": solver.trace.ops.total_flops("gpu"),
            "flops": solver.trace.ops.total_flops(),
            "allocs": solver.session.ledger.allocs(),
            "hits": ps.hits, "compiles": ps.compiles,
            "compile_s": ps.compile_seconds}


def op_record(solver, finfo, sinfo, before: dict | None = None) -> dict:
    """Per-op layer values; ``before`` is ``solver_counters`` at op start."""
    now = solver_counters(solver)
    d = {k: v - (before or {}).get(k, 0) for k, v in now.items()}
    return {**pgas_counts(finfo.comm, sinfo.comm),
            "kernels.gpu_flop_frac":
                d["gpu_flops"] / d["flops"] if d["flops"] else 0.0,
            "memory.ledger_peak_mb": solver.session.ledger.peak() / MB,
            "memory.allocs": d["allocs"],
            "plans.hits": d["hits"], "plans.compiles": d["compiles"],
            "plans.compile_ms": d["compile_s"] * 1e3}


def timed_op(out: Outcome, rec: SpanRecorder, op: int, fn):
    """Run ``fn()`` as op ``op``; its result, or ``None`` if it failed."""
    t0 = time.perf_counter()
    try:
        with rec.span("op", op):
            result = fn()
    except OP_ERRORS:
        result = None
    dt = time.perf_counter() - t0
    out.busy_s += dt
    out.latencies.append(dt if result is not None else float("inf"))
    return result


def traced_solver(rec: SpanRecorder, records: list[dict]) -> type:
    """``SymPackSolver`` whose public calls record spans and layer values.

    Only used by traced runs; untraced runs call ``SymPackSolver``
    itself.  Breakdown fields the calls already return become derived
    child spans: the analysis phases inside construction and the kernel
    flush inside a factorization.
    """

    class TracedSymPackSolver(SymPackSolver):
        def __init__(self, a, options=None, **kwargs):
            with rec.span("core.init") as span:
                super().__init__(a, options, **kwargs)
            self._bench_cold = True
            row = {"core.init_ms": span.dur * 1e3}
            if kwargs.get("analysis") is None:
                ph = self.analysis.phase_seconds
                at = span.start
                for name, key in (("ordering", "ordering"),
                                  ("symbolic.structure", "symbolic"),
                                  ("symbolic.blocks", "blocks")):
                    at = rec.derived(span, name, at, ph.get(key, 0.0))
                row.update({"ordering.ms": ph.get("ordering", 0.0) * 1e3,
                            "symbolic.structure_ms":
                                ph.get("symbolic", 0.0) * 1e3,
                            "symbolic.blocks_ms": ph.get("blocks", 0.0) * 1e3})
            records.append(row)

        def update_values(self, a):
            with rec.span("core.update_values") as span:
                super().update_values(a)
            records.append({"core.update_values_ms": span.dur * 1e3})

        def factorize(self):
            with rec.span("core.factorize") as span:
                info = super().factorize()
            st = info.exec_stats
            flush = st.flush_seconds if st is not None else 0.0
            calls = st.calls if st is not None else 0
            rec.derived(span, "kernels.flush", span.end - flush, flush,
                        calls=calls)
            span.counters.update(tasks=info.tasks, sim_s=info.simulated_seconds)
            row = {"core.factorize_ms": span.dur * 1e3,
                   "core.engine_ms": (span.dur - flush) * 1e3,
                   "core.tasks": info.tasks,
                   "kernels.flush_ms": flush * 1e3,
                   "kernels.calls": calls,
                   "kernels.batches": st.batches if st is not None else 0,
                   "kernels.stacked_frac":
                       st.stacked / calls if calls else 0.0,
                   "sim.factor_s": info.simulated_seconds}
            if self._bench_cold:
                row["core.first_des_ms"] = info.first_des_ms
                self._bench_cold = False
            records.append(row)
            return info

        def solve(self, b):
            with rec.span("core.solve") as span:
                x, info = super().solve(b)
            span.counters.update(tasks=info.tasks, sim_s=info.simulated_seconds)
            records.append({"core.solve_ms": span.dur * 1e3,
                            "sim.solve_s": info.simulated_seconds})
            return x, info

    return TracedSymPackSolver


def solver_class(rec: SpanRecorder, records: list[dict]) -> type:
    return traced_solver(rec, records) if rec.enabled else SymPackSolver


# --------------------------------------------------------------- one-shot


class ColdOneshot:
    """Construct, factorize, solve one rhs, close — a new pattern per op."""

    name = "cold-oneshot"
    setup_reps = 5
    options = SolverOptions(nranks=4, ranks_per_node=4)
    scale = 7               # bone grid edge: n ~ 240 after porosity
    porosity = 0.3
    # Ops draw porosity seeds from a recorded pool (expected.json holds
    # each pattern's simulated values); a run permutes the pool, so no
    # pattern repeats unless a run does more ops than the pool holds.
    pool = 512
    pool_base = 1000
    setup_inputs = 48        # inputs generated (and timed) in set-up

    def matrix(self, index: int) -> SymmetricCSC:
        return bone_like(self.scale, self.porosity,
                         seed=self.pool_base + index)

    def _input(self, state: dict) -> tuple[int, SymmetricCSC, np.ndarray]:
        k = len(state["inputs"])
        index = int(state["order"][k % self.pool])
        a = self.matrix(index)
        state["inputs"].append((index, a, state["rng"].standard_normal(a.n)))
        return state["inputs"][-1]

    def setup(self, seed: int, seconds: float, rec: SpanRecorder) -> dict:
        rng = np.random.default_rng(seed)
        state = {"rng": rng, "order": rng.permutation(self.pool),
                 "inputs": []}
        for _ in range(self.setup_inputs):
            self._input(state)
        return state

    def op(self, cls: type, a: SymmetricCSC, b: np.ndarray):
        """The measured op; returns ``(x, solver, factor info, solve info)``."""
        solver = cls(a, self.options)
        try:
            finfo = solver.factorize()
            x, sinfo = solver.solve(b)
        finally:
            solver.close()
        return x, solver, finfo, sinfo

    def run(self, state: dict, seconds: float, rec: SpanRecorder,
            gate: Gate, expected: dict) -> Outcome:
        out = Outcome()
        cls = solver_class(rec, out.records)
        table = expected[self.name]
        deadline = time.perf_counter() + seconds
        op = 0
        while time.perf_counter() < deadline:
            index, a, b = (state["inputs"][op] if op < len(state["inputs"])
                           else self._input(state))
            result = timed_op(out, rec, op, partial(self.op, cls, a, b))
            if result is not None:
                x, solver, finfo, sinfo = result
                with rec.span("bench.check", op):
                    gate.residual(op, full_matrix(a), x, b)
                    gate.values(op, gate_values(finfo, sinfo),
                                table[str(index)])
                if rec.enabled:
                    out.records.append(op_record(solver, finfo, sinfo))
            op += 1
        return out

    def close(self, state: dict) -> None:
        state["inputs"].clear()


# ---------------------------------------------------- repeated factorization


class PexsiRefactor:
    """New values on one analysed pattern: update, refactorize, solve."""

    name = "pexsi-refactor"
    setup_reps = 3
    options = SolverOptions(nranks=4, ranks_per_node=4)
    scale = 8                # flan grid edge: n = 512, 27-point stencil

    def matrix(self) -> SymmetricCSC:
        return flan_like(self.scale)

    def setup(self, seed: int, seconds: float, rec: SpanRecorder) -> dict:
        rng = np.random.default_rng(seed)
        a0 = self.matrix()
        records: list[dict] = []
        solver = solver_class(rec, records)(a0, self.options)
        solver.factorize()
        solver.solve(rng.standard_normal(a0.n))
        return {"rng": rng, "a0": a0, "solver": solver, "records": records}

    def op(self, solver, a: SymmetricCSC, b: np.ndarray):
        """The measured op; returns ``(x, factor info, solve info)``."""
        solver.update_values(a)
        finfo = solver.factorize()
        x, sinfo = solver.solve(b)
        return x, finfo, sinfo

    def run(self, state: dict, seconds: float, rec: SpanRecorder,
            gate: Gate, expected: dict) -> Outcome:
        out = Outcome()
        solver, a0, rng = state["solver"], state["a0"], state["rng"]
        records = state["records"]
        records.clear()          # drop the set-up's cold calls
        want = expected[self.name][a0.name]
        full0 = full_matrix(a0)
        n = a0.n
        deadline = time.perf_counter() + seconds
        op = 0
        while time.perf_counter() < deadline:
            shift = float(rng.uniform(0.0, 1.0))
            a = with_diag_shift(a0, shift)
            b = rng.standard_normal(n)
            before = solver_counters(solver) if rec.enabled else None
            result = timed_op(out, rec, op, partial(self.op, solver, a, b))
            if result is not None:
                x, finfo, sinfo = result
                with rec.span("bench.check", op):
                    gate.residual(op, full0 + shift * sp.identity(n), x, b)
                    gate.values(op, gate_values(finfo, sinfo), want)
                if rec.enabled:
                    out.records.append(op_record(solver, finfo, sinfo, before))
            op += 1
        out.records.extend(records)
        return out

    def close(self, state: dict) -> None:
        state["solver"].close()


# ------------------------------------------------------------ solve service


@dataclass
class Request:
    """One generated service request."""

    kind: str                  # factor / refactor / cold (what was sent)
    key: str                   # expected.json entry of the pattern
    a: SymmetricCSC
    b: np.ndarray
    at: float                  # scheduled send time, s after the start


class ServiceMix:
    """Open-loop Poisson requests into a default ``SolveService``."""

    name = "service-mix"
    setup_reps = 3
    # On a 2-CPU x86 host a burst of this mix drains at 55-59 req/s (most
    # requests coalesced) and an open loop keeps up with 20 req/s.  At
    # 7 req/s queueing is rare, so the percentiles move with the
    # service's own work rather than with arrival bursts.  Below saturation throughput equals the
    # offered rate; a backlog shows as throughput below it.
    rate = 7.0
    # Shares of the mix: repeat known values with a new rhs (factor
    # tier, coalescible), new values on a known pattern (refactor tier),
    # a brand-new thermal pattern (cold tier).
    mix = (("factor", 0.80), ("refactor", 0.05), ("cold", 0.15))
    # Below the tenants' total factor bytes (77.6 KB) but above the three
    # popular tenants' (47.6 KB): the rare tenants are evicted between
    # their requests and come back through the symbolic tier, while the
    # popular ones stay cached.  This keeps each tier's share steady
    # from seed to seed, so p50 falls inside the factor tier and p90
    # inside the cold and symbolic tiers rather than between tiers.
    factor_budget_bytes = 72_000
    queue_depth = 1 << 16     # never blocks the generator
    thermal_n = 100
    thermal_pool = 512
    thermal_base = 5000
    # Share of the known-pattern requests each tenant receives, in the
    # order of ``tenants()``: three popular tenants, three rare ones.
    # (With uniform popularity and a cache one tenant short, LRU misses
    # on a seed-dependent share of the requests.)
    popularity = (0.45, 0.30, 0.15, 0.04, 0.03, 0.03)

    def tenants(self) -> dict[str, SymmetricCSC]:
        return {"flan5": flan_like(5), "bone5": bone_like(5, 0.3, seed=11),
                "thermal100": thermal_like(100, seed=21),
                "flan4": flan_like(4),
                "thermal150": thermal_like(150, seed=22),
                "bone6": bone_like(6, 0.3, seed=12)}

    def thermal(self, index: int) -> SymmetricCSC:
        return thermal_like(self.thermal_n, seed=self.thermal_base + index)

    def requests(self, rng: np.random.Generator, seconds: float,
                 tenants: dict[str, SymmetricCSC]) -> list[Request]:
        """The request stream: fixed shares, seeded order and contents.

        Arrival times are a Poisson process conditioned on its count:
        ``round(rate * seconds)`` sorted uniform times.
        """
        n = max(1, round(self.rate * seconds))
        counts = [round(share * n) for _, share in self.mix[1:]]
        kinds = np.array(["factor"] * (n - sum(counts))
                         + [k for (k, _), c in zip(self.mix[1:], counts)
                            for _ in range(c)])
        rng.shuffle(kinds)
        names = list(tenants)
        shares = np.cumsum(self.popularity)
        owner = rng.permutation(
            np.searchsorted(shares, (np.arange(n) + 0.5) / n * shares[-1]))
        thermal_order = rng.permutation(self.thermal_pool)
        at = np.sort(rng.uniform(0.0, seconds, n))
        current = dict(tenants)
        out = []
        cold = 0
        for i, kind in enumerate(kinds):
            if kind == "cold":
                index = int(thermal_order[cold % self.thermal_pool])
                cold += 1
                key, a = f"thermal/{index}", self.thermal(index)
            else:
                key = names[owner[i]]
                if kind == "refactor":
                    current[key] = with_diag_shift(
                        tenants[key], float(rng.uniform(0.0, 1.0)))
                a = current[key]
            out.append(Request(str(kind), key, a, rng.standard_normal(a.n),
                               float(at[i])))
        return out

    def config(self) -> ServiceConfig:
        return ServiceConfig(factor_budget_bytes=self.factor_budget_bytes,
                             queue_depth=self.queue_depth)

    def setup(self, seed: int, seconds: float, rec: SpanRecorder) -> dict:
        rng = np.random.default_rng(seed)
        tenants = self.tenants()
        requests = self.requests(rng, seconds, tenants)
        records: list[dict] = []
        svc = SolveService(config=self.config(),
                           solver_cls=solver_class(rec, records))
        svc.start()
        for a in tenants.values():          # every tenant seen once
            svc.solve(a, np.ones(a.n))
        return {"svc": svc, "requests": requests, "records": records}

    def run(self, state: dict, seconds: float, rec: SpanRecorder,
            gate: Gate, expected: dict) -> Outcome:
        svc, requests = state["svc"], state["requests"]
        records = state["records"]
        records.clear()                      # drop the warm-up calls
        want = expected[self.name]
        c0 = svc.counters()
        allocs0 = svc.ledger.allocs()
        g0, f0 = svc.trace.ops.total_flops("gpu"), svc.trace.ops.total_flops()
        n = len(requests)
        done = [0.0] * n
        lag = [0.0] * n
        submit_s = [0.0] * n
        futures: list[Future | None] = [None] * n

        start = time.perf_counter()
        for i, r in enumerate(requests):
            due = start + r.at
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            t = time.perf_counter()
            lag[i] = t - due
            try:
                with rec.span("service.submit", i):
                    fut = svc.submit(r.a, r.b)
            except OP_ERRORS:
                continue
            submit_s[i] = time.perf_counter() - t
            fut.add_done_callback(partial(_stamp, done, i))
            futures[i] = fut
        pending = [f for f in futures if f is not None]
        wait(pending, timeout=max(60.0, 2 * seconds))
        end = max([start] + done)

        out = Outcome(busy_s=end - start)
        fulls: dict[int, object] = {}
        tiers: dict[str, list[float]] = {}
        queue_waits = []
        for i, (r, fut) in enumerate(zip(requests, futures)):
            if fut is None or not fut.done() or fut.exception() is not None:
                out.latencies.append(float("inf"))
                continue
            x, stats = fut.result()
            lat = done[i] - (start + r.at)
            out.latencies.append(lat)
            rec.interval("service.request", start + r.at, done[i], i,
                         tier=stats.tier, width=stats.coalesced_width)
            tiers.setdefault(stats.tier, []).append(lat)
            queue_waits.append(stats.queue_wait)
            full = fulls.get(id(r.a))
            if full is None:
                full = fulls[id(r.a)] = full_matrix(r.a)
            gate.residual(i, full, x, r.b)
            exp = want[r.key]
            w = stats.coalesced_width
            if w > len(exp["solve_s"]):
                gate.fail(i, f"{r.key}: no recorded solve at width {w}")
                continue
            gate.values(i, {"sim.factor_s": stats.factor_seconds,
                            "sim.solve_s": stats.solve_seconds},
                        {"sim.factor_s": (0.0 if stats.tier == "factor"
                                          else exp["factor_s"]),
                         "sim.solve_s": exp["solve_s"][w - 1]})
        c1 = svc.counters()
        comm = pgas_counts(c1.comm)
        gate.values(-1, comm, want["comm"])   # nranks=1: no messages

        if rec.enabled:
            ok = n - out.failed
            g1, f1 = svc.trace.ops.total_flops("gpu"), svc.trace.ops.total_flops()
            out.records.extend({"service.submit_ms": submit_s[i] * 1e3}
                               for i, f in enumerate(futures) if f is not None)
            out.records.extend(records)
            for tier, lats in tiers.items():
                out.records.extend({f"service.latency_ms_p50.{tier}": v * 1e3}
                                   for v in lats)
            out.layer.update({
                **{k: v / max(1, ok) for k, v in comm.items()},
                "kernels.gpu_flop_frac":
                    (g1 - g0) / (f1 - f0) if f1 > f0 else 0.0,
                "memory.ledger_peak_mb": svc.ledger.peak() / MB,
                "memory.allocs": (svc.ledger.allocs() - allocs0) / max(1, ok),
                "plans.hits": c1.plan_hits - c0.plan_hits,
                "plans.compiles": c1.plan_compiles - c0.plan_compiles,
                "plans.compile_ms": c1.plan_compile_ms - c0.plan_compile_ms,
                "service.queue_wait_ms_p50": percentile(queue_waits, 50) * 1e3,
                "service.queue_wait_ms_p90": percentile(queue_waits, 90) * 1e3,
                "service.hit_rate": _hit_rate(c0, c1),
                "service.coalesced_frac":
                    (c1.coalesced_requests - c0.coalesced_requests)
                    / max(1, ok),
                "service.evictions": c1.evictions - c0.evictions,
                "service.bytes_peak_mb": c1.bytes_peak / MB,
                "service.gen_lag_ms_p90": percentile(lag, 90) * 1e3,
                **{f"service.tier_frac.{t}": len(tiers.get(t, ())) / max(1, ok)
                   for t in ("cold", "symbolic", "refactor", "factor")},
            })
        return out

    def close(self, state: dict) -> None:
        # Requests still queued (a hung run) are cancelled, not drained.
        state["svc"].stop(drain=False)
        state["svc"].close()


def _stamp(done: list[float], i: int, fut: Future) -> None:
    done[i] = time.perf_counter()


def _hit_rate(c0, c1) -> float:
    """Share of the window's completed requests that skipped symbolic work."""
    done = {t: c1.tiers.get(t, 0) - c0.tiers.get(t, 0)
            for t in c1.tiers if t != "failed"}
    total = sum(done.values())
    return 1.0 - done.get("cold", 0) / total if total else 0.0


WORKLOADS = {w.name: w for w in (ColdOneshot(), PexsiRefactor(), ServiceMix())}
