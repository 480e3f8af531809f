"""Tests for the multi-start ascent over tight frames."""

import math

import numpy as np
import pytest

from cubesec.frame_core import Frame, TightFrame, frame_operator, random_tight_frame, whiten
from cubesec import optimizer, polytope
from cubesec.polytope import (
    DegeneratePolytopeError,
    _volume_and_gradient,
    build_section,
    section_volume_fast,
    volume,
)
from cubesec.bounds import c_cube, extremal_frame
from cubesec.optimizer import (
    GRADIENT_TRIES,
    VOL_TOL,
    OptimizerConfig,
    ascend,
    maximize,
    resolve_threads,
    write_trace_csv,
)


def small_config(n, k, **kw):
    defaults = dict(restarts=3, seed=11, max_iterations=600)
    defaults.update(kw)
    return OptimizerConfig(n=n, k=k, **defaults)


def zero_last(V, label, first, k):
    """A move list of one candidate that zeroes the last vector, which
    holds an axis alone in the (3, 2) box frame."""
    out = V.copy()
    out[-1] = 0.0
    yield out


class TestConfig:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            OptimizerConfig(n=2, k=2)
        with pytest.raises(ValueError):
            OptimizerConfig(n=5, k=1)

    def test_budget_validation(self):
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
        # a Qhull failure on one candidate must not abort the restart
        calls = []

        def fails_once(vectors):
            calls.append(1)
            if len(calls) == 2:  # the first gradient step; call 1 is the start
                raise DegeneratePolytopeError("degenerate polytope")
            return _volume_and_gradient(vectors)

        monkeypatch.setattr(optimizer, "_volume_and_gradient", fails_once)
        rng = np.random.default_rng(5)
        s0 = random_tight_frame(6, 3, rng)
        res = ascend(s0, small_config(6, 3, max_iterations=50), rng)
        assert res.degenerate == 1
        assert res.iterations == 50
        assert res.final_volume == section_volume_fast(res.frame.vectors)

    def test_rank_loss_is_counted(self, monkeypatch):
        # the box frame at (3, 2) has an axis held by one vector; a move
        # that zeroes it loses rank and is rejected, the same ones every run
        monkeypatch.setattr(optimizer, "_reassigns", zero_last)
        counts = [
            ascend(extremal_frame(3, 2), small_config(3, 2), np.random.default_rng(0)).rank_loss
            for _ in range(2)
        ]
        assert counts[0] > 0
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("n, k", [(6, 2), (7, 3)])
    def test_one_evaluation_per_candidate(self, n, k, monkeypatch):
        # every volume the ascent reads is one _volume_and_gradient call:
        # the start's and one per candidate.  The reported volume is the one
        # read for the final frame, with no further call to rank it, and the
        # trace ends at it: a snap kept after the last gain is recorded
        read = []

        def counted(vectors):
            vol, G = _volume_and_gradient(vectors)
            read.append((vectors.tobytes(), vol))
            return vol, G

        monkeypatch.setattr(optimizer, "_volume_and_gradient", counted)
        for seed in range(3):
            rng = np.random.default_rng([seed, n, k])
            read.clear()
            r = ascend(random_tight_frame(n, k, rng), OptimizerConfig(n=n, k=k, seed=seed), rng)
            assert r.rank_loss == 0
            assert len(read) == r.evaluations == r.iterations + 1
            assert (r.frame.vectors.tobytes(), r.final_volume) in read
            assert r.final_volume == r.trace[-1][1]

    def test_one_hull_per_evaluation(self, monkeypatch):
        # each evaluation builds one hull, which gives the candidate's volume
        # and the gradient it carries: Qhull's for k >= 3, the planar scan
        # for k = 2.  Its volume is section_volume_fast's, bitwise
        rng = np.random.default_rng(60)
        for k in (2, 3, 4, 5):
            for n in (k + 1, 2 * k + 1):
                box = extremal_frame(n, k).vectors
                noisy = whiten(Frame(box + 5e-8 * rng.standard_normal(box.shape)))[1].vectors
                for v in (random_tight_frame(n, k, rng).vectors, box, noisy):
                    assert section_volume_fast(v) == _volume_and_gradient(v)[0]

        hulls = []

        def counted(build):
            def wrapper(*args, **kwargs):
                hulls.append(1)
                return build(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(polytope, "ConvexHull", counted(polytope.ConvexHull))
        monkeypatch.setattr(polytope, "_planar_hull", counted(polytope._planar_hull))
        for n, k in ((7, 3), (7, 4), (6, 2), (10, 2)):
            rng = np.random.default_rng([0, n, k])
            for s0 in (random_tight_frame(n, k, rng), extremal_frame(n, k)):
                hulls.clear()
                res = ascend(s0, OptimizerConfig(n=n, k=k), rng)
                assert res.rank_loss == 0
                assert len(hulls) == res.evaluations

    @pytest.mark.parametrize("n, k", [(3, 2), (7, 4)])
    def test_warm_restart_loses_no_rank(self, n, k):
        # no move of the ascent drops the one vector that holds an axis
        res = maximize(OptimizerConfig(n=n, k=k, restarts=0, seed=0))
        assert [r.start for r in res.restarts] == ["warm"]
        assert res.restarts[0].rank_loss == 0

    @pytest.mark.parametrize("n, k, iterations", [(7, 4, 17), (10, 2, 2)], ids=["7-4", "10-2"])
    def test_warm_restart_stops_critical(self, n, k, iterations):
        # the box frame is critical on its stratum, so the warm restart ends
        # once its gradient trials and reassigns have failed; at (10, 2) its
        # xi is exactly zero, so no gradient step is tried, and its two
        # clusters give two reassigns
        res = maximize(OptimizerConfig(n=n, k=k, restarts=0, seed=0))
        warm = res.restarts[0]
        assert warm.stop == "critical"
        assert warm.residual <= 1e-12
        assert warm.iterations == iterations
        assert warm.evaluations == iterations + 1
        assert warm.final_volume == pytest.approx(2**k * c_cube(n, k), rel=1e-12)

    @pytest.mark.parametrize("sizes, k", [((4, 3, 2, 1), 2), ((2, 2, 1, 1, 1), 4)],
                             ids=["10-2", "7-4"])
    def test_gradient_step_climbs_at_unequal_ties(self, sizes, k, monkeypatch):
        # at a frame tied exactly into clusters of unequal sizes the snap
        # changes nothing, so the first candidate whitened is the gradient
        # step; the volume rises along its direction, to first order
        seen = []

        def recorded(frame):
            seen.append(frame.vectors)
            return whiten(frame)

        monkeypatch.setattr(optimizer, "whiten", recorded)
        for seed in range(6):
            rng = np.random.default_rng(seed)
            w = random_tight_frame(len(sizes), k, rng).vectors
            s0 = TightFrame([sign * u / math.sqrt(d) for u, d in zip(w, sizes)
                             for sign in rng.choice([-1.0, 1.0], d)])
            seen.clear()
            ascend(s0, OptimizerConfig(n=sum(sizes), k=k, max_iterations=1), rng)
            assert len(seen) == 1
            step = seen[0] - s0.vectors
            t = 1e-6 / np.linalg.norm(step)
            vol = section_volume_fast(s0.vectors)
            moved = whiten(Frame(s0.vectors + t * step))[1]
            assert section_volume_fast(moved.vectors) > vol * (1 + VOL_TOL)

    def test_stop_reasons(self):
        # the optimal box accepts nothing: its GRADIENT_TRIES gradient steps
        # fail, and so do the two reassigns of its two clusters
        res = ascend(extremal_frame(5, 2), small_config(5, 2, max_iterations=1000),
                     np.random.default_rng(0))
        assert res.stop == "critical"
        assert res.iterations == GRADIENT_TRIES + 2
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


class TestMoveList:
    """The moves tried where no gradient step gains: one reassign per
    ordered pair of clusters, and no random draw."""

    def test_ascent_is_deterministic(self):
        # the unbalanced (6, 2) box is critical on its stratum but not
        # optimal; a reassign leaves it, and the generator passed changes
        # nothing
        s0 = extremal_frame(6, 2, partition=[[0, 1], [2, 3, 4, 5]])
        runs = [ascend(s0, OptimizerConfig(n=6, k=2), np.random.default_rng(seed))
                for seed in (0, 1)]
        for r in runs:
            assert r.final_volume == pytest.approx(12.0, rel=1e-12)
        assert runs[0].iterations == runs[1].iterations
        assert runs[0].frame.vectors.tobytes() == runs[1].frame.vectors.tobytes()

    def test_box_reassigns(self):
        # the (7, 4) box has clusters of sizes 2, 2, 2 and 1; with only
        # m = k = 4 clusters the lone generator stays, so 3 x 3 moves (that
        # none of them loses rank is test_warm_restart_loses_no_rank[7-4])
        V = extremal_frame(7, 4).vectors
        label, _, first = optimizer._clusters(V)
        assert len(list(optimizer._reassigns(V, label, first, 4))) == 9

    @pytest.mark.parametrize("n, k, partition", [
        (6, 2, [[0, 1], [2, 3, 4, 5]]), (7, 3, None), (7, 4, None), (10, 2, None)],
        ids=["6-2-unbalanced", "7-3", "7-4", "10-2"])
    def test_moving_one_tied_member_loses(self, n, k, partition):
        """Why no release, a move of one member of a cluster, is in the list.

        Let v be a member of a cluster of d >= 2 at a tight frame, F the
        facet on <x, v> = 1, of content mu, and move v alone by delta.
        Whitening multiplies the volume by det(V^T V)^(1/2), which is
        1 + <v, delta> to first order.  The other members still hold F, so
        the moved one can only cut it: F and -F lose a slab of thickness
        max(0, <x, delta>) / |v|, a volume (2 / |v|) int_F max(0, <x, delta>)
        >= (2 mu / |v|) max(0, <c, delta>), with c the centroid of F.  At a
        critical frame c = v / |v|^2, and the balance identity 2 mu / |v| =
        d |v|^2 vol turns the change, relative, into at most <v, delta> -
        d max(0, <v, delta>): below zero when <v, delta> is not 0, and when
        it is the cut alone is below zero unless delta = 0.  So every
        release loses to first order, at a rate bounded away from zero over
        the directions; a lone generator (d = 1) loses nothing to first
        order, since its cut is two-sided.
        """
        V = extremal_frame(n, k, partition=partition).vectors
        vol = section_volume_fast(V)
        label, _, _ = optimizer._clusters(V)
        tied = np.flatnonzero(np.bincount(label)[label] > 1)
        assert len(tied)
        rng = np.random.default_rng(0)
        for i in tied:
            for u in rng.standard_normal((200, k)):
                u /= np.linalg.norm(u)
                for t in (1e-4, 1e-6):
                    moved = V.copy()
                    moved[i] += t * u
                    tight = whiten(Frame(moved))[1]
                    assert (section_volume_fast(tight.vectors) / vol - 1) / t <= -0.2


class TestPlanarStepGuard:
    """The k = 2 ascent step makes no LAPACK eigh call and no Qhull call:
    it whitens in closed form, and one scan once round the hull of +-V
    gives each candidate's volume and gradient."""

    @pytest.fixture(autouse=True)
    def no_eigh_no_qhull(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the planar step called eigh or Qhull")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        monkeypatch.setattr(polytope, "ConvexHull", refuse)

    def test_whiten_and_volume(self):
        rng = np.random.default_rng(40)
        _, tight = whiten(Frame(rng.standard_normal((6, 2))))
        assert section_volume_fast(tight.vectors) > 4.0
        assert _volume_and_gradient(tight.vectors)[1].shape == (6, 2)

    def test_ascend(self):
        rng = np.random.default_rng(41)
        res = ascend(random_tight_frame(5, 2, rng), small_config(5, 2, max_iterations=200), rng)
        assert (res.iterations, res.stop) == (110, "critical")
        assert res.accepted > 0

    def test_warm_start_with_rank_loss(self, monkeypatch):
        # zeroing the vector that holds an axis of the (3, 2) box frame
        # leaves two parallel vectors, which the closed form rejects
        monkeypatch.setattr(optimizer, "_reassigns", zero_last)
        res = ascend(extremal_frame(3, 2), small_config(3, 2), np.random.default_rng(0))
        assert res.rank_loss > 0


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

    def test_result_serialization(self):
        import json

        res = maximize(small_config(4, 2, restarts=1, max_iterations=100))
        data = json.loads(json.dumps(res.to_dict()))
        assert set(data) == {"config", "best", "restarts"}
        assert [r["degenerate"] for r in data["restarts"]] == [0, 0]
        assert [r["rank_loss"] for r in data["restarts"]] == [r.rank_loss for r in res.restarts]
        assert [r["stop"] for r in data["restarts"]] == [r.stop for r in res.restarts]
        assert {r["stop"] for r in data["restarts"]} <= {"critical", "cap"}
        assert [r["residual"] for r in data["restarts"]] == [r.residual for r in res.restarts]
        # every evaluation the restart made: the start's and one per iteration
        assert [r["evaluations"] for r in data["restarts"]] == [
            r.iterations + 1 for r in res.restarts]
        assert [r["tied"] for r in data["restarts"]] == [r.tied for r in res.restarts]
        again = json.loads(json.dumps(
            maximize(small_config(4, 2, restarts=1, max_iterations=100)).to_dict()))
        assert again["restarts"] == data["restarts"]
        assert data["best"]["conditions"]["passed"] in (True, False)
        # the winner is named by its restart index and start
        winner = res.restarts[res.best_index]
        assert winner.final_volume == res.best_volume
        assert (data["best"]["index"], data["best"]["start"]) == (winner.index, winner.start)
        assert again["best"]["index"] == data["best"]["index"]
        back = Frame.from_dict(data["best"]["frame"])
        np.testing.assert_array_equal(back.vectors, res.best_frame.vectors)


class TestHitRate:
    """Random restarts reach the optimum on their own, with the battery's
    seed, at a planar and a spatial cell."""

    @pytest.mark.parametrize("n, k", [(6, 2), (7, 3)])
    def test_half_the_random_restarts_reach_the_optimum(self, n, k):
        res = maximize(OptimizerConfig(n=n, k=k, restarts=12, seed=0))
        optimum = 4 * math.sqrt(math.ceil(n / 2) * math.floor(n / 2)) if k == 2 else 2**k * c_cube(n, k)
        hits, randoms = res.random_hits(optimum)
        assert randoms == 12
        assert hits >= 6

    def test_every_random_restart_reaches_the_optimum_at_unequal_ties(self):
        # at this seed random restarts end on frames tied into clusters of
        # unequal sizes; the stratum gradient climbs on from each of them
        res = maximize(OptimizerConfig(n=10, k=2, restarts=32, seed=1))
        assert res.random_hits(20.0) == (32, 32)


class TestPinnedRestarts:
    """Whole restarts at (3, 2), (10, 2), (7, 3) and (7, 4) pinned to
    recorded outcomes.

    Recorded with the deterministic ascent: gradient trials, then
    reassigns.  The random restarts reach the optimum within the 400
    iterations and stop at a critical frame there, and the warm restarts
    accept nothing and stop at the critical box frame once its gradient
    trials and reassigns have failed.  At (3, 2) the warm start holds two
    parallel generators, so its points of +-V coincide, and the random
    restart climbs to such a frame.  A change to the volume kernel, its
    gradient, whitening, the ties or the move list that moves any accept
    or reject decision changes a count here; a change of rounding alone
    moves ``final_volume`` by about 1e-16.
    """

    PINNED = {
        (3, 2): [(63, 26, 0, 0, "critical", 5.656854249492378),
                 (9, 0, 0, 0, "critical", 5.656854249492381)],
        (10, 2): [(328, 183, 0, 0, "critical", 20.000000000000004),
                  (2, 0, 0, 0, "critical", 20.000000000000004)],
        (7, 3): [(171, 89, 0, 0, "critical", 27.71281292110203),
                 (14, 0, 0, 0, "critical", 27.712812921102046)],
        (7, 4): [(149, 75, 0, 0, "critical", 45.25483399593901),
                 (17, 0, 0, 0, "critical", 45.254833995939045)],
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
    """The paper's global-maximality criterion: a tight frame s is a global
    maximizer iff vol(c) / vol(s) <= det(A)^(-1/2) for every frame c, with
    A = c^T c.  The section of c is A^(-1/2) times the section of whiten(c),
    so the criterion reads vol(whiten(c)) <= vol(s)."""

    def test_volume_scales_with_whitening(self):
        rng = np.random.default_rng(43)
        for k in (2, 3, 4):
            for n in (k + 1, k + 3):
                for _ in range(5):
                    c = Frame(rng.standard_normal((n, k)))
                    a = c.vectors.T @ c.vectors
                    whitened = section_volume_fast(whiten(c)[1].vectors)
                    assert section_volume_fast(c.vectors) == pytest.approx(
                        np.linalg.det(a) ** -0.5 * whitened, rel=1e-12)

    def test_negative_certifies_non_maximality(self):
        coordinate = TightFrame([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
        competitor = extremal_frame(5, 2)
        vol = section_volume_fast(coordinate.vectors)
        assert section_volume_fast(competitor.vectors) > vol * 1.1

    def test_nonnegative_against_planar_optimum(self):
        s = extremal_frame(6, 2)
        vol = section_volume_fast(s.vectors)
        rng = np.random.default_rng(4)
        for _ in range(100):
            competitor = whiten(Frame(rng.standard_normal((6, 2))))[1]
            assert section_volume_fast(competitor.vectors) <= vol * (1 + 1e-9)


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
