"""Tests of the benchmark itself, on tiny workloads.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts the repository's src on sys.path)
import checks  # noqa: E402
from tracer import self_times  # noqa: E402
from cubesec import bounds, optimizer, polytope  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = {
    "optimize": run.Optimize("optimize-planar", ((3, 2),)),
    "certify": run.Certify("certify", ((3, 2), (7, 3))),
}


@pytest.fixture(scope="module")
def traced():
    return {name: run.run_workload(w, seed=0, rounds=1, trace=1) for name, w in TINY.items()}


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_printed_with_units(name, capsys):
    setup = [(0.5, 0.45), (0.4, 0.42), (0.6, 0.5)]
    result = run.run_workload(TINY[name], seed=0, rounds=1, trace=0, setup_samples=setup)
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {key: m["unit"] for key, m in result.metrics.items()} == declared
    assert all(m["value"] > 0 for m in result.metrics.values())
    run.print_report(name, result)
    lines = capsys.readouterr().out.splitlines()
    for key, unit in declared.items():
        assert any(line.split()[:1] == [key] and f" {unit}" in line for line in lines), key


def test_per_layer_metrics_printed_with_units(traced, capsys):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name, result in traced.items():
        assert {key: m["unit"] for key, m in result.metrics.items()} == declared
        assert all(math.isfinite(m["value"]) for m in result.metrics.values())
        run.print_report(name, result)
    out = capsys.readouterr().out
    for key, unit in declared.items():
        assert f"{key} " in out and f" {unit}" in out


def test_spans_nest_inside_their_parents(traced):
    for result in traced.values():
        spans = result.tracer.spans
        assert spans
        for span in spans:
            assert span.start <= span.end
            if span.parent >= 0:
                parent = spans[span.parent]
                assert parent.start <= span.start <= span.end <= parent.end
                # an operation's own span may sit inside a span that is in no operation
                assert span.op == parent.op or parent.op == -1
        assert min(self_times(spans)) >= 0.0


def test_optimizer_metrics_stay_zero_without_an_optimizer(traced):
    metrics = traced["certify"].metrics
    assert all(m["value"] == 0 for key, m in metrics.items() if key.startswith("optimizer."))
    assert traced["optimize"].metrics["optimizer.restarts"]["value"] == 2


def test_spans_cover_the_layers(traced):
    names = {s.name for s in traced["optimize"].tracer.spans}
    assert {"optimizer.maximize", "optimizer.ascend", "polytope.section_volume_fast",
            "frame_core.whiten", "polytope.build_section", "conditions.verify_frame"} <= names
    names = {s.name for s in traced["certify"].tracer.spans}
    assert {"polytope.build_section", "polytope.volume_by_triangulation",
            "bounds.for_dimensions", "bounds.planar_angles"} <= names


def test_tracing_changes_no_result_and_restores_bindings():
    originals = {attr: getattr(optimizer, attr) for attr, _ in run.OPTIMIZER_SITES}
    for workload in TINY.values():
        inputs = workload.prepare(0, 1)
        plain, _ = workload.execute(inputs, run.Tracer(spans=False))
        traced, _ = workload.execute(inputs, run.Tracer(spans=True))
        assert [op.volume for op in plain] == [op.volume for op in traced]
    assert {attr: getattr(optimizer, attr) for attr in originals} == originals
    assert run.conditions.build_section is polytope.build_section


def test_checker_flags_volume_above_bound():
    # the pyramid volume of a near-parallel (12, 4) box frame, against Ball's bound 144
    assert bounds.ball_upper(12, 4) == 144
    found = checks.failures(12, 4, {"volume": 144.028, "triangulation": 144.0, "fast": 144.0})
    assert "above_bound" in found
    assert checks.failures(12, 4, {"volume": 143.0, "triangulation": 143.0, "fast": 143.0}) == []


def test_checker_flags_disagreeing_routes():
    found = checks.failures(10, 2, {"volume": 9.99999, "triangulation": 19.99999, "fast": 9.99999})
    assert found == ["route_disagree"]
    assert checks.failures(10, 2, {"volume": 1.0, "triangulation": math.nan, "fast": 1.0}) == [
        "above_bound", "route_disagree"]


def test_checker_flags_wrong_box_and_planar_overcount():
    box = checks.box_volume(7, 3)
    exact = {"volume": box, "triangulation": box, "fast": box}
    assert checks.failures(7, 3, exact, box=True, conditions_passed=True) == []
    assert checks.failures(7, 3, exact, box=True, conditions_passed=False) == ["box"]
    # a restart that reports more than the proven planar optimum 4 sqrt(2)
    frame = bounds.extremal_frame(3, 2)
    bad = optimizer.RestartResult(index=7, start="random", final_volume=5.6815,
                                  iterations=1, accepted=0, frame=frame, trace=[])
    found, _ = checks.check_restart(3, 2, bad)
    assert found == ["above_bound", "route_disagree"]


def test_vetted_inputs_pass_and_the_probe_sees_the_known_defects():
    for workload in TINY.values():
        result = run.run_workload(workload, seed=0, rounds=1, trace=0, setup_samples=[(0.5, 0.5)])
        assert result.ops and not any(op.failures for op in result.ops)
        assert any(op.failures for op in result.probe)


def test_pick_is_seeded_and_distinct():
    pool = list(range(50))
    a = run.pick(pool, 7, (3, 2), 10)
    assert a == run.pick(pool, 7, (3, 2), 10) and len(set(a)) == 10
    assert a != run.pick(pool, 8, (3, 2), 10)
    with pytest.raises(ValueError):
        run.pick(pool, 7, (3, 2), 51)


def test_tail_latency_keeps_ten_samples_beyond():
    samples = [float(i) for i in range(1, 101)]
    assert run.tail_latency(samples) == (90, 90.0, 10)
    pct, value, beyond = run.tail_latency(samples[:57])
    assert pct == 82 and sum(x > value for x in samples[:57]) == beyond >= 10
    assert run.tail_latency(samples[:14]) == (100, 14.0, 0)


def test_median_latency_does_not_sit_between_cells():
    samples = [((7, 3), 1.0 + i / 100) for i in range(3)] + [((7, 4), 4.0 + i / 100) for i in range(3)]
    assert run.median_latency(samples) == pytest.approx((1.01 * 4.01) ** 0.5)


def test_scaling_follows_the_gauge_around_each_operation():
    tracer = run.Tracer(spans=False, gauge=iter([0.01, 0.02, 0.03]).__next__, gauge_every=0.0)
    timed = tracer.operation("op", lambda: None)
    timed()
    timed()
    tracer.read_gauge()
    ops = [run.Op((3, 2), "random", 1.0), run.Op((3, 2), "random", None), run.Op((3, 2), "random", 2.0)]
    run.scale_to_reference(ops, tracer)
    assert ops[0].scaled == pytest.approx(1.0 * 2 * run.REF_SECONDS / (0.01 + 0.02))
    assert ops[1].scaled is None
    assert ops[2].scaled == pytest.approx(2.0 * 2 * run.REF_SECONDS / (0.02 + 0.03))


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
