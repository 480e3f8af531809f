"""Tests for the acceptance battery's reporting, without the full optimizer runs."""

import pytest

from cubesec.conditions import verify_frame
from cubesec.frame_core import Frame, whiten
from cubesec.optimizer import OptimizeResult, OptimizerConfig, maximize
from cubesec.reproduce import (
    CRITERIA,
    BatteryContext,
    CriterionResult,
    criterion_planar_optimum,
    run_battery,
)

# a (3, 2) restart whose reported volume once exceeded the planar optimum
# 4 sqrt 2; its section is not cyclic, so the planar angle checks raise
NEAR_PARALLEL_ROWS = [
    [-0.8973883043189166, -0.4412416925808554],
    [0.31200500746585086, -0.634549329210331],
    [0.3120049784664557, -0.6345493814724752],
]
OVER_COUNTED_VOLUME = 5.681461042283242


@pytest.fixture
def seeded_ctx():
    ctx = BatteryContext(n_max=4)
    _, s = whiten(Frame(NEAR_PARALLEL_ROWS))
    ctx.winners[(3, 2)] = OptimizeResult(
        config=OptimizerConfig(n=3, k=2),
        best_frame=s,
        best_volume=OVER_COUNTED_VOLUME,
        restarts=[],
        conditions=verify_frame(s),
    )
    ctx.winners[(4, 2)] = maximize(OptimizerConfig(n=4, k=2, restarts=0, max_iterations=1))
    return ctx


class TestPlanarOptimum:
    def test_failing_cell_does_not_hide_the_others(self, seeded_ctx):
        result = criterion_planar_optimum(seeded_ctx)
        assert not result.passed
        assert any(
            line.startswith("n=3: error: ValueError") and "not cyclic" in line
            for line in result.details
        )
        assert any(line.startswith("n=4: volume 8.000000000") for line in result.details)

    def test_cell_names_its_winner(self, seeded_ctx):
        # (4, 2) ran only the warm start: it wins, no random restart ran, and
        # it read only the start's volume, as the balanced box has no move
        result = criterion_planar_optimum(seeded_ctx)
        line = next(line for line in result.details if line.startswith("n=4: volume"))
        assert line.endswith(
            "winner restart 0 (warm), random restarts at target 0 of 0, 1 evaluation")

    def test_volume_above_planar_optimum_is_loud(self, seeded_ctx):
        result = criterion_planar_optimum(seeded_ctx)
        assert len(result.loud) == 1
        assert result.loud[0].startswith("(n=3, k=2)")
        assert repr(OVER_COUNTED_VOLUME) in result.loud[0]


def test_optimizer_seconds_per_criterion(monkeypatch):
    # a criterion is charged the optimizer time spent while it ran, also
    # when it raises
    def spends(ctx):
        ctx.optimizer_seconds += 2.5
        return CriterionResult("spends-time", True)

    def raises(ctx):
        ctx.optimizer_seconds += 1.0
        raise RuntimeError("optimizer aborted")

    monkeypatch.setitem(CRITERIA, "spends-time", spends)
    monkeypatch.setitem(CRITERIA, "raises-midway", raises)
    results = run_battery(BatteryContext(optimizer_seconds=4.0), only=["spends-time", "raises-midway"])
    assert [r.optimizer_s for r in results] == [2.5, 1.0]
    assert [r.to_dict()["optimizer_s"] for r in results] == [2.5, 1.0]
    assert not results[1].passed
