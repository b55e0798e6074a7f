"""Unit tests of the plan compile pass: fusion and stats."""

import numpy as np

from repro.kernels.dispatch import KernelCall
from repro.plans import PlanStats, compile_plan


def _syrk(tgt, s, lo=0, sign=-1.0):
    return KernelCall("syrk_sub", (tgt, ("diag", s),
                                   np.arange(lo, lo + 4), sign))


def _gemm(tgt, s, bi, lo=0, sign=-1.0):
    return KernelCall("gemm_sub", (tgt, ("blk", s, 0), ("blk", s, bi),
                                   np.arange(lo, lo + 4), sign))


def test_adjacent_same_target_runs_fuse():
    tgt = ("panel", 7)
    raw = [(_syrk(tgt, 0), 2), (_gemm(tgt, 0, 1, lo=4), 2),
           (_syrk(tgt, 1, lo=8), 2)]
    plan = compile_plan(raw)
    assert plan.fused_groups == 1
    assert plan.fused_calls == 3
    assert len(plan.stream) == 1
    call, wave = plan.stream[0]
    assert call.op == "multi_update" and wave == 2
    actions = call.args[0]
    assert [a[0] for a in actions] == ["syrk", "gemm", "syrk"]
    # Action tuples carry the source calls' operands in submission order.
    assert actions[0][1] == tgt and actions[0][3] is None
    assert actions[1][3] == ("blk", 0, 1)
    assert np.array_equal(actions[2][4], np.arange(8, 12))


def test_wave_boundary_breaks_fusion():
    tgt = ("panel", 7)
    raw = [(_syrk(tgt, 0), 1), (_syrk(tgt, 1), 2)]
    plan = compile_plan(raw)
    assert plan.fused_groups == 0
    assert [c.op for c, _w in plan.stream] == ["syrk_sub", "syrk_sub"]


def test_target_change_breaks_fusion():
    raw = [(_syrk(("panel", 7), 0), 1), (_syrk(("panel", 8), 1), 1)]
    plan = compile_plan(raw)
    assert plan.fused_groups == 0


def test_intervening_op_breaks_fusion():
    tgt = ("panel", 7)
    raw = [(_syrk(tgt, 0), 1),
           (KernelCall("trsm_block", (7, 0)), 1),
           (_syrk(tgt, 1), 1)]
    plan = compile_plan(raw)
    assert plan.fused_groups == 0
    assert len(plan.stream) == 3
    # Unfused entries are the recorded calls themselves, never copies.
    assert all(c is r for (c, _), (r, _) in zip(plan.stream, raw))


def test_singleton_run_not_fused():
    plan = compile_plan([(_syrk(("panel", 7), 0), 1)])
    assert plan.fused_groups == 0
    assert plan.stream[0][0].op == "syrk_sub"


def test_compile_plan_accumulates_stats():
    stats = PlanStats()
    tgt = ("panel", 1)
    raw = [(_syrk(tgt, 0), 0), (_syrk(tgt, 1), 0)]
    plan = compile_plan(raw, kind="factor", makespan=1.5, tasks=9,
                        rank_busy=(0.5, 1.0), stats=stats)
    assert plan.kind == "factor" and plan.calls == 2
    assert plan.makespan == 1.5 and plan.tasks == 9
    assert stats.compiles == 1 and stats.recorded_calls == 2
    assert stats.fused_groups == 1 and stats.fused_calls == 2
    assert stats.compile_seconds >= 0.0
    compile_plan(raw, stats=stats)
    assert stats.compiles == 2 and stats.recorded_calls == 4

