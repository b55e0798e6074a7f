"""Tests of the benchmark itself: every metric is emitted, and planted
defects are caught by the correctness gate or the failure accounting.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [p for p in (str(ROOT / "src"), str(ROOT)) if p not in sys.path]

from perfbench import run  # noqa: E402
from perfbench.gate import Gate, load_expected  # noqa: E402
from perfbench.spans import NULL_RECORDER, SpanRecorder  # noqa: E402
from perfbench.workloads import WORKLOADS, ServiceMix, with_diag_shift  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in BENCH["workloads"]]
# Seed 1 was used while the benchmark was written; 1009 never was, so a
# claim can be re-checked on it.
DEV_SEED, HELD_OUT_SEED = 1, 1009


def _short(workload, seed, rec=NULL_RECORDER, gate=None, expected=None):
    gate = gate if gate is not None else Gate()
    expected = expected if expected is not None else load_expected()
    _, outcome = run.measure(WORKLOADS[workload], seed, 1.0, rec, gate,
                             expected, 1)
    return gate, outcome


@pytest.mark.parametrize("seed", [DEV_SEED, HELD_OUT_SEED])
@pytest.mark.parametrize("workload", NAMES)
def test_short_run_emits_every_end_to_end_metric(workload, seed, capsys):
    result = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "1", "--trace", "0"])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(last) == result
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_emits_every_layer_metric_and_spans(workload, capsys):
    result = run.main(["--workload", workload, "--seed", str(DEV_SEED),
                       "--seconds", "2", "--trace", "1"])
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in BENCH["per_layer"]}
    out = capsys.readouterr().out
    assert "core.factorize" in out and "self p50 ms" in out
    trace = json.loads(
        (run.OUT_DIR / f"{workload}-seed{DEV_SEED}-trace.json").read_text())
    names = {ev["name"] for ev in trace["traceEvents"]}
    assert {"core.factorize", "core.solve", "kernels.flush"} <= names
    assert trace["metadata"]["host"]["seed"] == DEV_SEED


def test_inputs_depend_only_on_seed():
    mix = ServiceMix()
    a = mix.requests(np.random.default_rng(7), 3.0, mix.tenants())
    b = mix.requests(np.random.default_rng(7), 3.0, mix.tenants())
    assert [(r.kind, r.key, r.at) for r in a] == [(r.kind, r.key, r.at)
                                                  for r in b]
    assert all(np.array_equal(x.b, y.b) for x, y in zip(a, b))


def test_perturbed_solution_fails_gate(monkeypatch):
    wl = WORKLOADS["cold-oneshot"]
    real = type(wl).op

    def perturbed(self, cls, a, b):
        x, solver, finfo, sinfo = real(self, cls, a, b)
        x = x.copy()
        x[0] += 1e-6 * max(1.0, abs(x[0]))
        return x, solver, finfo, sinfo

    monkeypatch.setattr(type(wl), "op", perturbed)
    gate, outcome = _short("cold-oneshot", DEV_SEED)
    assert not gate.ok
    assert all("residual" in m for m in gate.mismatches)
    assert outcome.failed == 0


@pytest.mark.parametrize("workload,key", [("pexsi-refactor", "pgas.rpcs"),
                                          ("cold-oneshot", "sim.factor_s")])
def test_altered_simulated_value_fails_gate(workload, key):
    expected = copy.deepcopy(load_expected())
    for row in expected[workload].values():
        row[key] += 1
    gate, _ = _short(workload, DEV_SEED, expected=expected)
    assert not gate.ok
    assert all(key in m for m in gate.mismatches)


def test_service_simulated_values_are_gated():
    expected = copy.deepcopy(load_expected())
    for row in expected["service-mix"].values():
        if "solve_s" in row:
            row["solve_s"] = [v * 2 for v in row["solve_s"]]
    gate, _ = _short("service-mix", DEV_SEED, expected=expected)
    assert not gate.ok


def test_raising_op_counts_as_failed_and_run_continues(monkeypatch):
    wl = WORKLOADS["pexsi-refactor"]
    real = type(wl).op
    calls = []

    def flaky(self, solver, a, b):
        calls.append(1)
        if len(calls) % 2:
            raise np.linalg.LinAlgError("planted failure")
        return real(self, solver, a, b)

    monkeypatch.setattr(type(wl), "op", flaky)
    gate, outcome = _short("pexsi-refactor", DEV_SEED)
    assert outcome.failed == (len(calls) + 1) // 2
    assert len(outcome.latencies) == len(calls) > outcome.failed
    assert gate.ok


def test_failed_service_request_counts_as_failed(monkeypatch):
    real = ServiceMix.requests

    def with_bad_request(self, rng, seconds, tenants):
        reqs = real(self, rng, seconds, tenants)
        # A negative diagonal shift makes the matrix non-SPD: the
        # request's future ends in ValueError.
        reqs[0].a = with_diag_shift(reqs[0].a, -1e3)
        return reqs

    monkeypatch.setattr(ServiceMix, "requests", with_bad_request)
    gate, outcome = _short("service-mix", DEV_SEED)
    assert outcome.failed == 1
    assert outcome.latencies[0] == float("inf")
    assert gate.ok


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    with rec.span("op", 0) as root:
        with rec.span("child"):
            pass
    rec.derived(root, "derived", root.start, root.dur / 2)
    selfs = rec.self_times()
    assert selfs[0] <= root.dur / 2 + 1e-12
    assert rec.spans[1].op == 0 and rec.spans[2].parent == 0
