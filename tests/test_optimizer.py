"""Tests for the multi-start ascent over tight frames."""

import math

import numpy as np
import pytest

from cubesec.frame_core import Frame, TightFrame, frame_operator, random_tight_frame, whiten
from cubesec import optimizer
from cubesec.polytope import DegeneratePolytopeError, build_section, section_volume_fast, volume
from cubesec.bounds import c_cube, extremal_frame
from cubesec.optimizer import (
    OptimizerConfig,
    ascend,
    criterion_gap,
    maximize,
    resolve_threads,
    write_trace_csv,
)


def small_config(n, k, **kw):
    defaults = dict(restarts=3, seed=11, max_iterations=600, fails_per_level=12)
    defaults.update(kw)
    return OptimizerConfig(n=n, k=k, **defaults)


class TestConfig:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=2, k=2)
        with pytest.raises(ValueError):
            OptimizerConfig(n=5, k=1)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=5, k=2, initial_step=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(n=5, k=2, max_iterations=0)

    def test_threads_resolution(self, monkeypatch):
        monkeypatch.delenv("CUBESEC_THREADS", raising=False)
        assert resolve_threads(None) == 1
        assert resolve_threads(3) == 3
        monkeypatch.setenv("CUBESEC_THREADS", "2")
        assert resolve_threads(None) == 2


class TestAscend:
    def test_optimal_box_is_a_fixed_point(self):
        s0 = extremal_frame(5, 2)
        start_vol = volume(build_section(s0))
        res = ascend(s0, small_config(5, 2), np.random.default_rng(0))
        assert res.final_volume == pytest.approx(start_vol, rel=1e-12)
        assert res.accepted == 0

    def test_improves_from_coordinate_section(self):
        # projections of the standard basis onto the coordinate plane:
        # volume exactly 4, strictly below the optimum for n = 5
        s0 = TightFrame([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
        res = ascend(s0, small_config(5, 2), np.random.default_rng(1))
        assert res.final_volume > 4.0 + 0.5

    def test_trace_is_nondecreasing(self):
        rng = np.random.default_rng(2)
        s0 = random_tight_frame(6, 2, rng)
        res = ascend(s0, small_config(6, 2), rng)
        vols = [v for _, v in res.trace]
        assert all(a <= b for a, b in zip(vols, vols[1:]))
        assert res.iterations <= 600

    def test_final_volume_is_the_ranked_volume(self):
        # a frame whose pyramid sum once over-counted a shared edge strip
        # (5.681461 > 4 sqrt 2); the restart must report the volume it
        # climbed on, never above the proven planar optimum
        _, s0 = whiten(Frame([
            [-0.8973883043189166, -0.4412416925808554],
            [0.31200500746585086, -0.634549329210331],
            [0.3120049784664557, -0.6345493814724752],
        ]))
        res = ascend(s0, small_config(3, 2, max_iterations=1), np.random.default_rng(0))
        assert res.final_volume == section_volume_fast(res.frame.vectors)
        assert res.final_volume <= 4 * math.sqrt(2)

    def test_degenerate_proposal_is_rejected_not_raised(self, monkeypatch):
        # a Qhull failure on one proposal must not abort the restart
        calls = []

        def fails_once(vectors):
            calls.append(1)
            if len(calls) == 2:  # the first proposal; call 1 is the start
                raise DegeneratePolytopeError("degenerate polytope")
            return section_volume_fast(vectors)

        monkeypatch.setattr(optimizer, "section_volume_fast", fails_once)
        rng = np.random.default_rng(5)
        s0 = random_tight_frame(6, 3, rng)
        res = ascend(s0, small_config(6, 3, max_iterations=50), rng)
        assert res.degenerate == 1
        assert res.iterations == 50
        assert res.final_volume == section_volume_fast(res.frame.vectors)

    def test_rank_loss_is_counted(self):
        # the box frame at (3, 2) has an axis held by one vector; a proposal
        # that zeroes it loses rank and is rejected, the same ones every run
        counts = [
            ascend(extremal_frame(3, 2), small_config(3, 2), np.random.default_rng(0)).rank_loss
            for _ in range(2)
        ]
        assert counts[0] > 0
        assert counts[0] == counts[1]

    def test_stop_reasons(self):
        # the optimal box accepts nothing, so the step schedule runs out
        # after 36 levels of 12 failures, before the 600-iteration cap
        res = ascend(extremal_frame(5, 2), small_config(5, 2), np.random.default_rng(0))
        assert res.stop == "schedule"
        assert res.iterations == 36 * 12
        rng = np.random.default_rng(2)
        res = ascend(random_tight_frame(6, 2, rng), small_config(6, 2, max_iterations=40), rng)
        assert res.stop == "cap"
        assert res.iterations == 40

    def test_iterates_stay_tight(self):
        rng = np.random.default_rng(3)
        s0 = random_tight_frame(5, 3, rng)
        res = ascend(s0, small_config(5, 3), rng)
        op = frame_operator(res.frame)
        assert np.max(np.abs(op - np.eye(3))) <= 1e-10


class TestMaximize:
    def test_reaches_planar_optimum(self):
        res = maximize(small_config(5, 2, restarts=2))
        assert res.best_volume == pytest.approx(4 * math.sqrt(6), rel=1e-6)
        assert res.conditions.passed

    def test_divisible_case_reaches_ball_bound(self):
        res = maximize(small_config(4, 2, restarts=2))
        assert res.best_volume == pytest.approx(8.0, rel=1e-9)

    def test_three_dim_ambient(self):
        res = maximize(small_config(3, 2, restarts=2))
        assert res.best_volume == pytest.approx(4 * math.sqrt(2), rel=1e-6)

    def test_conjectured_floor_for_k3(self):
        res = maximize(small_config(5, 3, restarts=1, max_iterations=300))
        assert res.best_volume >= 2**3 * c_cube(5, 3) - 1e-9

    def test_deterministic_and_parallel_invariant(self):
        cfg = small_config(5, 2, restarts=2, max_iterations=200)
        a = maximize(cfg)
        b = maximize(cfg)
        c = maximize(cfg, threads=2)
        assert a.best_volume == b.best_volume == c.best_volume
        np.testing.assert_array_equal(a.best_frame.vectors, b.best_frame.vectors)
        np.testing.assert_array_equal(a.best_frame.vectors, c.best_frame.vectors)
        assert [r.final_volume for r in a.restarts] == [r.final_volume for r in c.restarts]

    def test_warm_start_recorded(self):
        res = maximize(small_config(5, 2, restarts=1, max_iterations=100))
        assert [r.start for r in res.restarts] == ["random", "warm"]

    def test_no_warm_start(self):
        res = maximize(small_config(5, 2, restarts=1, max_iterations=100, warm_start=False))
        assert [r.start for r in res.restarts] == ["random"]

    def test_result_serialization(self):
        import json

        res = maximize(small_config(4, 2, restarts=1, max_iterations=100))
        data = json.loads(res.to_json())
        assert set(data) == {"config", "best", "restarts"}
        assert [r["degenerate"] for r in data["restarts"]] == [0, 0]
        assert [r["rank_loss"] for r in data["restarts"]] == [r.rank_loss for r in res.restarts]
        assert [r["stop"] for r in data["restarts"]] == [r.stop for r in res.restarts]
        assert {r["stop"] for r in data["restarts"]} <= {"schedule", "cap"}
        again = json.loads(maximize(small_config(4, 2, restarts=1, max_iterations=100)).to_json())
        assert again["restarts"] == data["restarts"]
        assert data["best"]["conditions"]["passed"] in (True, False)
        # the winner is named by its restart index and start
        winner = res.restarts[res.best_index]
        assert winner.final_volume == res.best_volume
        assert (data["best"]["index"], data["best"]["start"]) == (winner.index, winner.start)
        assert again["best"]["index"] == data["best"]["index"]
        back = Frame.from_dict(data["best"]["frame"])
        np.testing.assert_array_equal(back.vectors, res.best_frame.vectors)


class TestPinnedRestarts:
    """Whole restarts at (7, 3) and (7, 4) pinned to recorded outcomes.

    The values were recorded with the earlier flag sum, which split every
    ridge term by the first corner of its flags.  A change to the volume
    kernel, whitening or the proposals that moves any accept or reject
    decision changes a count here; a change of rounding alone moves
    ``final_volume`` by about 1e-16.
    """

    PINNED = {
        (7, 3): [(400, 39, 0, 0, "cap", 25.15802155862503),
                 (400, 0, 0, 0, "cap", 27.71281292110204)],
        (7, 4): [(400, 44, 0, 0, "cap", 39.82257977324494),
                 (400, 0, 2, 0, "cap", 45.254833995939045)],
    }

    @pytest.mark.parametrize("n, k", sorted(PINNED))
    def test_random_and_warm_restart(self, n, k):
        res = maximize(OptimizerConfig(n=n, k=k, restarts=1, seed=7, max_iterations=400))
        assert [r.start for r in res.restarts] == ["random", "warm"]
        for r, (iterations, accepted, rank_loss, degenerate, stop, final) in zip(
                res.restarts, self.PINNED[n, k]):
            assert (r.iterations, r.accepted, r.rank_loss, r.degenerate, r.stop) == (
                iterations, accepted, rank_loss, degenerate, stop)
            assert r.final_volume == pytest.approx(final, rel=1e-13)


class TestCriterionGap:
    def test_zero_on_itself(self):
        s = extremal_frame(5, 2)
        assert criterion_gap(s, s) == pytest.approx(0.0, abs=1e-12)

    def test_negative_certifies_non_maximality(self):
        coordinate = TightFrame([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
        competitor = Frame(extremal_frame(5, 2).vectors)
        assert criterion_gap(coordinate, competitor) < -0.1

    def test_nonnegative_against_planar_optimum(self):
        s = extremal_frame(6, 2)
        rng = np.random.default_rng(4)
        for _ in range(100):
            competitor = Frame(rng.standard_normal((6, 2)))
            assert criterion_gap(s, competitor) >= -1e-9


class TestTraceExport:
    def test_csv_layout(self, tmp_path):
        res = maximize(small_config(4, 2, restarts=1, max_iterations=100))
        path = tmp_path / "trace.csv"
        write_trace_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "restart,iteration,volume"
        assert len(lines) == 1 + sum(len(r.trace) for r in res.restarts)
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0"
        assert float(first[2]) > 0
