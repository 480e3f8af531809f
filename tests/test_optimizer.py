"""Tests for the multi-start ascent over tight frames."""

import math
from itertools import combinations, combinations_with_replacement, product
from types import SimpleNamespace

import numpy as np
import pytest

from cubesec.frame_core import (
    Frame, FrameError, TightFrame, frame_operator, random_tight_frame, whiten)
from cubesec import optimizer, polytope
from cubesec.polytope import (
    DegeneratePolytopeError,
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
from oracles import reference_clusters, reference_merge
from restart_digest import restart_records
from volume_digest import volume_and_gradient


def small_config(n, k, **kw):
    defaults = dict(restarts=3, seed=11, max_iterations=600)
    defaults.update(kw)
    return OptimizerConfig(n=n, k=k, **defaults)


def zero_last(U, size, k):
    """A move list of one candidate that zeroes the last row of the
    weighted frame, the cluster that holds an axis alone in the (3, 2) box
    frame, with the sizes it had, as _reassigns gives a move; it loses
    rank, so they are never read."""
    out = U.copy()
    out[-1] = 0.0
    yield out, size


def assert_same_ties(carried, exact):
    """The tie records, tuples of arrays such as (label, sign, first), are
    equal bitwise, dtypes and shapes included."""
    for a, b in zip(carried, exact, strict=True):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def weighted(V):
    """The weighted frame (U, d) of the frame V as the ascent starts from
    it: the least member of each cluster of exact ties (_clusters), with
    sign +1, and the cluster sizes."""
    label, _, first = optimizer._clusters(V)
    return V[first], np.bincount(label)


def regrouped(V):
    """The weighted frame of V grouped afresh, as a set: its (row bytes,
    size) pairs, sorted, so that two weighted frames compare equal
    bitwise up to a permutation of their rows."""
    U, size = weighted(V)
    return sorted(zip((u.tobytes() for u in U), size.tolist()))


def assert_tight_weighted(U, size):
    """(U, size) is a weighted frame whose ties are its rows: the frame
    expanded from it, each row repeated d_c times, is grouped by _clusters
    into the runs of its rows, in order, each with sign +1, so its sizes
    are the counts and no two rows of U coincide up to sign."""
    m = len(U)
    assert size.min() >= 1
    assert_same_ties(optimizer._clusters(np.repeat(U, size, axis=0)),
                     (np.repeat(np.arange(m), size), np.ones(size.sum()),
                      np.cumsum(size) - size))


def section_of(U):
    """The _Section of +-U as the ascent builds it, each row its own
    cluster."""
    return polytope._Section(np.concatenate((U, -U)), np.arange(len(U)))


def reference_reassigns(V, k):
    """The reassign moves of the n-row frame V, in the order _reassigns
    lists them: for each ordered pair of clusters (c, e) of V's exact ties,
    kept at a box (k clusters) only when d_c >= d_e + 2, the frame of n
    rows with the last member of c set to the row of e, with whether c was
    a lone generator and whether the moved generator is the least member
    of its new cluster, so that the clusters are numbered again."""
    label, sign, first = optimizer._clusters(V)
    size = np.bincount(label)
    m = len(first)
    for c in range(m):
        for e in range(m):
            if e != c and (m > k or size[c] >= size[e] + 2):
                i = np.flatnonzero(label == c)[-1]
                moved = V.copy()
                moved[i] = V[first[e]]
                yield moved, size[c] == 1, i < first[e]


def tied_frame(sizes, k, rng):
    """A tight frame tied exactly into clusters of the given sizes, with
    random signs, its rows shuffled so that clusters interleave."""
    w = random_tight_frame(len(sizes), k, rng).vectors
    rows = np.repeat(w / np.sqrt(sizes)[:, None], sizes, axis=0)
    signs = rng.choice([-1.0, 1.0], len(rows))
    return TightFrame((signs[:, None] * rows)[rng.permutation(len(rows))]).vectors


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
        for text in ("two", "1.5"):
            monkeypatch.setenv("CUBESEC_THREADS", text)
            with pytest.raises(optimizer.SettingError, match=f"CUBESEC_THREADS .*'{text}'"):
                resolve_threads(None)
            assert resolve_threads(3) == 3


class TestAscend:
    def test_optimal_box_is_a_fixed_point(self):
        s0 = extremal_frame(5, 2)
        start_vol = volume(build_section(s0))
        res = ascend(s0, small_config(5, 2), np.random.default_rng(0))
        assert res.final_volume == pytest.approx(start_vol, rel=1e-12)
        assert res.accepted == 0
        # expanded from its clusters' rows, the frame is the start, bitwise
        assert res.frame.vectors.tobytes() == s0.vectors.tobytes()

    def test_improves_from_coordinate_section(self):
        # projections of the standard basis onto the coordinate plane:
        # volume exactly 4, strictly below the optimum for n = 5
        s0 = TightFrame([[1, 0], [0, 1], [0, 0], [0, 0], [0, 0]])
        res = ascend(s0, small_config(5, 2), np.random.default_rng(1))
        assert res.final_volume > 4.0 + 0.5

    def test_trace_is_nondecreasing(self):
        # the trace is the start and every accepted volume: nothing else
        # changes the frame, so it rises strictly and ends at final_volume
        rng = np.random.default_rng(2)
        s0 = random_tight_frame(6, 2, rng)
        res = ascend(s0, small_config(6, 2), rng)
        vols = [v for _, v in res.trace]
        assert all(a < b for a, b in zip(vols, vols[1:]))
        assert vols[-1] == res.final_volume
        assert len(vols) == res.accepted + 1
        assert res.iterations <= 600

    def test_final_volume_is_the_ranked_volume(self):
        # a frame whose pyramid sum once over-counted a shared edge strip
        # (5.681461 > 4 sqrt 2); the restart must report the volume it
        # climbed on, never above the proven planar optimum.  Its last two
        # rows are 5.2e-8 apart, so its one candidate is the merge, which
        # ties them and gains
        _, s0 = whiten(Frame([
            [-0.8973883043189166, -0.4412416925808554],
            [0.31200500746585086, -0.634549329210331],
            [0.3120049784664557, -0.6345493814724752],
        ]))
        res = ascend(s0, small_config(3, 2, max_iterations=1), np.random.default_rng(0))
        assert res.final_volume == section_volume_fast(res.frame.vectors)
        assert res.final_volume <= 4 * math.sqrt(2)
        assert (res.accepted, res.merged) == (1, 1)
        # at the battery configs every restart stops critical, and reports
        # the ranked volume of its frame, bitwise, though the ascent read
        # it from the section of one row per cluster
        for n, k in ((6, 2), (7, 3), (7, 4)):
            for r in maximize(OptimizerConfig(
                    n=n, k=k, restarts=32 if k == 2 else 12, seed=0), threads=1).restarts:
                assert r.stop == "critical"
                assert r.final_volume == section_volume_fast(r.frame.vectors)

    def test_degenerate_proposal_is_rejected_not_raised(self, monkeypatch):
        # a Qhull failure on one candidate must not abort the restart
        calls = []

        class FailsOnce(polytope._Section):
            def volume(self):
                calls.append(1)
                if len(calls) == 2:  # the first merge; call 1 is the start
                    raise DegeneratePolytopeError("degenerate polytope")
                return super().volume()

        monkeypatch.setattr(optimizer, "_Section", FailsOnce)
        rng = np.random.default_rng(5)
        s0 = random_tight_frame(6, 3, rng)
        res = ascend(s0, small_config(6, 3, max_iterations=50), rng)
        assert res.degenerate == 1
        assert (res.iterations, res.stop) == (6, "critical")
        assert res.accepted > 0
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
        # every volume the ascent reads is the volume of one _Section of
        # +-U, U the clusters' rows: the start's and one per candidate.  The
        # reported volume is the one read for the final frame, whose rows
        # are its clusters' least members, with no further call to rank
        # it, and the trace ends at it
        read = []

        class Counted(polytope._Section):
            def volume(self):
                vol = super().volume()
                read.append((self.P[:len(self.P) // 2].tobytes(), vol))
                return vol

        monkeypatch.setattr(optimizer, "_Section", Counted)
        for seed in range(3):
            rng = np.random.default_rng([seed, n, k])
            read.clear()
            r = ascend(random_tight_frame(n, k, rng), OptimizerConfig(n=n, k=k, seed=seed), rng)
            assert r.rank_loss == 0
            assert len(read) == r.evaluations == r.iterations + 1
            V = r.frame.vectors
            assert (V[optimizer._clusters(V)[2]].tobytes(), r.final_volume) in read
            assert r.final_volume == r.trace[-1][1]

    def test_one_hull_per_evaluation(self, monkeypatch):
        # an evaluation of a frame of more than k clusters builds one hull,
        # which gives the candidate's volume and, when asked, the gradient:
        # Qhull's for k >= 3, the planar scan for k = 2, where a box frame
        # builds one too.  At k >= 3 a box candidate, of k clusters, builds
        # none: its volume and gradient are read from det U with the ties
        # the ascent carries, so the warm start, a box, builds no hull at
        # all.  Its volume is section_volume_fast's, bitwise.  The gradient
        # is lazy: every evaluation off a box at k >= 3 runs one volume-only
        # flag sum, and a sum with moments runs only where xi is formed, at
        # most once per frame
        rng = np.random.default_rng(60)
        for k in (2, 3, 4, 5):
            for n in (k + 1, 2 * k + 1):
                box = extremal_frame(n, k).vectors
                noisy = whiten(Frame(box + 5e-8 * rng.standard_normal(box.shape)))[1].vectors
                for v in (random_tight_frame(n, k, rng).vectors, box, noisy):
                    vol = section_volume_fast(v)
                    assert vol == volume_and_gradient(v)[0]

        hulls, sums, calls, reads, xis = [], [], [], [], []

        def counted(build):
            def wrapper(*args, **kwargs):
                hulls.append(1)
                return build(*args, **kwargs)
            return wrapper

        def summed(P, Y, tables, moments=True):
            sums.append(moments)
            return flag_sum(P, Y, tables, moments)

        def stratum_gradient(*args):
            xis.append(1)
            return stratum(*args)

        class Recorded(polytope._Section):
            def volume(self):
                before = len(hulls), len(sums)
                try:
                    return super().volume()
                finally:
                    calls.append((len(self.first), len(hulls) - before[0], sums[before[1]:]))

            def gradient(self):
                before = len(hulls), len(sums)
                try:
                    return super().gradient()
                finally:
                    reads.append((self, len(hulls) - before[0], sums[before[1]:]))

        flag_sum, stratum = polytope._flag_sum, optimizer._stratum_gradient
        monkeypatch.setattr(polytope, "ConvexHull", counted(polytope.ConvexHull))
        monkeypatch.setattr(polytope, "_planar_hull", counted(polytope._planar_hull))
        monkeypatch.setattr(polytope, "_flag_sum", summed)
        monkeypatch.setattr(optimizer, "_stratum_gradient", stratum_gradient)
        monkeypatch.setattr(optimizer, "_Section", Recorded)
        for n, k in ((7, 3), (7, 4), (6, 2), (10, 2)):
            rng = np.random.default_rng([0, n, k])
            for s0, start in ((random_tight_frame(n, k, rng), "random"),
                              (extremal_frame(n, k), "warm")):
                for record in (hulls, sums, calls, reads, xis):
                    record.clear()
                res = ascend(s0, OptimizerConfig(n=n, k=k), rng)
                assert res.rank_loss == 0
                assert len(calls) == res.evaluations
                assert [built for _, built, _ in calls] == [
                    1 if k == 2 or m > k else 0 for m, _, _ in calls]
                assert len(hulls) == sum(built for _, built, _ in calls)
                assert [ran for *_, ran in calls] == [
                    [False] if k > 2 and m > k else [] for m, *_ in calls]
                # one gradient read per xi, building no hull; each frame's
                # reads run one sum with moments between them off a box at
                # k >= 3, and none at a box or in the plane
                assert len(reads) == len(xis)
                ran = {}
                for section, built, moments in reads:
                    assert built == 0
                    ran.setdefault(section, []).extend(moments)
                assert all(moments == ([True] if k > 2 and len(section.first) > k else [])
                           for section, moments in ran.items())
                assert len(sums) == sum(len(r) for *_, r in calls) + sum(map(len, ran.values()))
                if k > 2:
                    # the random restart ends on a box, and the warm one starts there
                    assert calls[-1][0] == k
                    if start == "warm":
                        assert hulls == []

    @pytest.mark.parametrize("n, k", [(3, 2), (7, 4)])
    def test_warm_restart_loses_no_rank(self, n, k):
        # no move of the ascent drops the one vector that holds an axis
        res = maximize(OptimizerConfig(n=n, k=k, restarts=0, seed=0))
        assert [r.start for r in res.restarts] == ["warm"]
        assert res.restarts[0].rank_loss == 0

    @pytest.mark.parametrize("n, k", [(7, 4), (10, 2)], ids=["7-4", "10-2"])
    def test_warm_restart_stops_critical(self, n, k):
        # the box frame is critical on its stratum: with m = k clusters its
        # stratum is the box's orbit under O(k), so no merge and no gradient
        # step is tried, and its reported residual is rounding noise (at
        # (10, 2) xi is exactly zero); the box is balanced, so it has no
        # reassign that gains and none is tried: the warm restart reads its
        # start's volume and stops
        res = maximize(OptimizerConfig(n=n, k=k, restarts=0, seed=0))
        warm = res.restarts[0]
        assert warm.stop == "critical"
        assert warm.residual <= 1e-12
        assert warm.iterations == 0
        assert warm.evaluations == 1
        assert warm.final_volume == pytest.approx(2**k * c_cube(n, k), rel=1e-12)

    @pytest.mark.parametrize("sizes, k", [((4, 3, 2, 1), 2), ((2, 2, 1, 1, 1), 4)],
                             ids=["10-2", "7-4"])
    def test_gradient_step_climbs_at_unequal_ties(self, sizes, k, monkeypatch):
        # at a frame tied exactly into clusters of unequal sizes, with the
        # merge left out, the first candidate whitened is the gradient step,
        # W = sqrt(d) U moved by xi; the volume rises along its direction,
        # each generator moved with its cluster, to first order
        seen = []

        def recorded(frame):
            seen.append(frame.vectors)
            return whiten(frame)

        moves = optimizer._moves
        monkeypatch.setattr(optimizer, "whiten", recorded)
        monkeypatch.setattr(optimizer, "_moves", lambda *args: (
            move for move in moves(*args) if move[-1] == "gradient"))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            w = random_tight_frame(len(sizes), k, rng).vectors
            s0 = TightFrame([sign * u / math.sqrt(d) for u, d in zip(w, sizes)
                             for sign in rng.choice([-1.0, 1.0], d)])
            seen.clear()
            ascend(s0, OptimizerConfig(n=sum(sizes), k=k, max_iterations=1), rng)
            assert len(seen) == 1
            label, sign, first = optimizer._clusters(s0.vectors)
            U, root = s0.vectors[first], np.sqrt(np.bincount(label))[:, None]
            # each generator moves with its cluster's row, times its sign
            step = sign[:, None] * ((seen[0] - root * U) / root)[label]
            t = 1e-6 / np.linalg.norm(step)
            vol = section_volume_fast(s0.vectors)
            moved = whiten(Frame(s0.vectors + t * step))[1]
            assert section_volume_fast(moved.vectors) > vol * (1 + VOL_TOL)

    def test_stop_reasons(self):
        # the optimal box accepts nothing: it is critical on its stratum, so
        # it tries no gradient step, and its clusters of sizes 3 and 2 are
        # balanced, so it has no reassign either
        res = ascend(extremal_frame(5, 2), small_config(5, 2, max_iterations=1000),
                     np.random.default_rng(0))
        assert res.stop == "critical"
        assert res.iterations == 0
        rng = np.random.default_rng(2)
        res = ascend(random_tight_frame(6, 2, rng), small_config(6, 2, max_iterations=5), rng)
        assert res.stop == "cap"
        assert res.iterations == 5

    @pytest.mark.parametrize("n, k", [(3, 2), (10, 2), (7, 3), (7, 4), (6, 5)])
    def test_ties_stay_exact(self, n, k, monkeypatch):
        # the ascent carries one row per cluster of exact ties and the
        # cluster sizes, so no tie can be broken: at every frame no two rows
        # of U coincide up to sign, or come near it (the rows of +-U group
        # the same at 1e-4 max|u| as at 0), and the frame expanded to n
        # rows, each row repeated d_c times, is grouped by _clusters into
        # the runs of those rows, so the sizes carried are its ties' counts.
        # _moves is called once per frame, so every frame is observed
        frames = []
        moves = optimizer._moves

        def observed(U, size, section, step, k):
            frames.append((U, size))
            return moves(U, size, section, step, k)

        monkeypatch.setattr(optimizer, "_moves", observed)
        restarts = []
        for seed in (0, 1):
            restarts += maximize(OptimizerConfig(
                n=n, k=k, restarts=32 if k == 2 else 12, seed=seed), threads=1).restarts
        assert len(frames) > 2 * n
        assert len(frames) == sum(r.accepted + 1 for r in restarts)
        for U, size in frames:
            assert size.sum() == n
            W = np.concatenate((U, -U))
            np.testing.assert_array_equal(
                polytope._coincident_row_groups(W, 1e-4 * np.abs(U).max()),
                polytope._coincident_row_groups(W, 0.0))
            assert_tight_weighted(U, size)

    @pytest.mark.parametrize("n, k", [(10, 2), (7, 3)], ids=["10-2", "7-3"])
    def test_xi_only_where_read(self, n, k, monkeypatch):
        # xi is formed only where a gradient trial is about to be yielded,
        # after the merge, and once more per restart for its residual at
        # the frame it stops on: a frame whose merge gains forms none
        calls, reached = [], []
        stratum_gradient, moves = optimizer._stratum_gradient, optimizer._moves

        def counted(*args):
            calls.append(1)
            return stratum_gradient(*args)

        def watched(*args):
            reached.append(False)
            for move in moves(*args):
                if move[-1] == "gradient":
                    reached[-1] = True
                yield move

        monkeypatch.setattr(optimizer, "_stratum_gradient", counted)
        monkeypatch.setattr(optimizer, "_moves", watched)
        res = maximize(OptimizerConfig(n=n, k=k, restarts=32 if k == 2 else 12, seed=0),
                       threads=1)
        assert sum(r.merged for r in res.restarts) > 0
        assert len(calls) == len(res.restarts) + sum(reached)
        assert len(calls) < len(reached)

    @pytest.mark.parametrize("n, k", [(10, 2), (7, 3)])
    def test_one_grouping_per_restart(self, n, k, monkeypatch):
        # the ties are grouped from scratch exactly once per restart, at its
        # start; every move, reassigns included, maps the rows and sizes to
        # the next frame's and groups nothing
        calls, yielded = [], []
        clusters, reassigns = optimizer._clusters, optimizer._reassigns

        def counted(V):
            calls.append(1)
            return clusters(V)

        def listed(*args):
            for move in reassigns(*args):
                yielded.append(1)
                yield move

        monkeypatch.setattr(optimizer, "_clusters", counted)
        monkeypatch.setattr(optimizer, "_reassigns", listed)
        res = maximize(OptimizerConfig(n=n, k=k, restarts=12, seed=0), threads=1)
        assert sum(r.accepted for r in res.restarts) > len(res.restarts)
        assert sum(r.merged for r in res.restarts) > 0
        assert len(yielded) > 0
        assert len(calls) == len(res.restarts)

    @pytest.mark.parametrize("n, k", [(6, 2), (10, 2), (7, 3), (7, 4), (8, 5)])
    def test_returned_frame(self, n, k, monkeypatch):
        # from a balanced box whose ties are out of order and carry negative
        # signs, no candidate is accepted, and the frame returned is the
        # start, bitwise
        rng = np.random.default_rng([n, k, 5])
        parts = [sorted(p.tolist()) for p in np.array_split(rng.permutation(n), k)]
        signs = [1] * n
        for p in parts:
            signs[p[-1]] = -1 if len(p) > 1 else 1
        s0 = extremal_frame(n, k, partition=parts, signs=signs)
        label, sign, _ = optimizer._clusters(s0.vectors)
        assert np.any(np.diff(label) < 0) and np.any(sign < 0)
        res = ascend(s0, OptimizerConfig(n=n, k=k), rng)
        assert res.accepted == 0
        assert res.frame.vectors.tobytes() == s0.vectors.tobytes()
        # after accepted moves the frame is tight and expanded from the
        # weighted frame the ascent ended on: _clusters groups it into runs
        # of equal rows, in order, each with sign +1, of the sizes carried
        # (the sizes of the last _stratum_gradient call, the residual's),
        # and those rows are U, the rows of the last section read
        carried = []
        stratum_gradient = optimizer._stratum_gradient

        def recorded(U, size, G):
            carried.append((U, size))
            return stratum_gradient(U, size, G)

        monkeypatch.setattr(optimizer, "_stratum_gradient", recorded)
        for cap in (3, 2000):
            rng = np.random.default_rng([n, k, cap])
            res = ascend(random_tight_frame(n, k, rng),
                         OptimizerConfig(n=n, k=k, max_iterations=cap), rng)
            assert res.accepted > 0
            V = res.frame.vectors
            assert np.max(np.abs(frame_operator(res.frame) - np.eye(k))) <= 1e-10
            U, size = carried[-1]
            assert_tight_weighted(U, size)
            np.testing.assert_array_equal(V, np.repeat(U, size, axis=0))
            assert res.tied == int((size > 1).sum())

    def test_iterates_stay_tight(self):
        rng = np.random.default_rng(3)
        s0 = random_tight_frame(5, 3, rng)
        res = ascend(s0, small_config(5, 3), rng)
        op = frame_operator(res.frame)
        assert np.max(np.abs(op - np.eye(3))) <= 1e-10


class TestClusters:
    """The signed clusters of exact ties, from one pass over the rows."""

    def test_signed_zeros(self):
        # rows are compared by value: (-0.0, -1.0) is the negation of
        # (0.0, 1.0), and (-0.0, 1.0) is (0.0, 1.0) itself; a zero vector
        # is its own negation and keeps sign +1
        V = np.array([[0.0, 1.0], [-0.0, -1.0], [-0.0, 1.0], [0.0, -0.0],
                      [-0.0, -0.0], [1.0, 0.0], [-1.0, -0.0]])
        label, sign, first = optimizer._clusters(V)
        assert label.tolist() == [0, 0, 0, 1, 1, 2, 2]
        assert sign.tolist() == [1.0, -1.0, 1.0, 1.0, 1.0, 1.0, -1.0]
        assert first.tolist() == [0, 3, 5]
        assert_same_ties((label, sign, first), reference_clusters(V))

    def test_matches_the_pairwise_grouping(self):
        # bitwise, dtypes included, the clusters of the pairwise table
        # (reference_clusters): rows drawn from a few small vectors with
        # random signs, so that they hold exact duplicates, v beside -v,
        # zero vectors and entries of either sign of 0.0; random tight
        # frames; and frames tied exactly into clusters
        rng = np.random.default_rng(31)
        entries = np.array([-1.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        kinds = dict(small=0, random=0, tied=0)
        for k in (1, 2, 3, 4):
            for n in range(1, 13):
                for _ in range(6):
                    base = rng.choice(entries, (int(rng.integers(1, 5)), k))
                    signs = rng.choice([-1.0, 1.0], (n, 1))
                    frames = [("small", signs * base[rng.integers(0, len(base), n)])]
                    if n > k >= 2:
                        sizes = 1 + rng.multinomial(n - k - 1, np.ones(k + 1) / (k + 1))
                        frames += [("random", random_tight_frame(n, k, rng).vectors),
                                   ("tied", tied_frame(sizes, k, rng))]
                    for kind, V in frames:
                        assert_same_ties(optimizer._clusters(V), reference_clusters(V))
                        kinds[kind] += 1
        assert kinds == dict(small=288, random=162, tied=162)


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

    def test_merge_is_tried_first(self):
        # at a frame of m > k clusters the first candidate puts the two
        # nearest clusters, up to sign and weighted by size, onto their
        # size-weighted mean; the gradient trials and the reassigns follow
        rng = np.random.default_rng(70)
        for n, k, sizes in ((7, 3, (1,) * 7), (7, 3, (3, 2, 1, 1)), (10, 2, (4, 3, 2, 1))):
            w = random_tight_frame(len(sizes), k, rng).vectors
            signs = rng.choice([-1.0, 1.0], n)
            rows = np.repeat(w / np.sqrt(sizes)[:, None], sizes, axis=0)
            V = TightFrame(signs[:, None] * rows).vectors
            U, size = weighted(V)
            assert size.tolist() == list(sizes)
            pairs = [(sizes[c] * sizes[e] / (sizes[c] + sizes[e]) * np.sum((U[c] - s * U[e]) ** 2),
                      c, e, s) for c in range(len(sizes)) for e in range(c + 1, len(sizes))
                     for s in (1.0, -1.0)]
            _, c, e, s = min(pairs)
            mean = (sizes[c] * U[c] + s * sizes[e] * U[e]) / (sizes[c] + sizes[e])
            moves = list(optimizer._moves(U, size, section_of(U), 0.3, k))
            assert [kind for *_, kind in moves[:GRADIENT_TRIES + 2]] == (
                ["merge"] + ["gradient"] * GRADIENT_TRIES + ["reassign"])
            out, out_size, step, _ = moves[0]
            assert step == 0.3
            # one row fewer, the pair's on row c, of the summed size; the
            # other rows and sizes as they were
            assert len(out) == len(U) - 1
            np.testing.assert_allclose(out[c], mean, rtol=0, atol=1e-15)
            np.testing.assert_array_equal(np.delete(out, c, axis=0), np.delete(U, [c, e], axis=0))
            want = np.delete(size, e)
            want[c] = sizes[c] + sizes[e]
            assert_same_ties((out_size,), (want,))
        # a box frame holds m = k clusters: no merge
        for n, k in ((7, 4), (10, 2)):
            U, size = weighted(extremal_frame(n, k).vectors)
            assert "merge" not in [kind for *_, kind in optimizer._moves(
                U, size, section_of(U), 0.3, k)]

    def test_merge_matches_the_reference(self):
        # the merge over the cached pair table, on the weighted frame, is
        # the dense-table merge (reference_merge) on the n rows, grouped
        # afresh: its rows are the least members of the clusters _clusters
        # finds on the reference's frame, and its sizes their counts,
        # bitwise.  Half the frames are random tight frames tied into
        # clusters; the other half put clusters of one size, one or two
        # generators, on small integer directions, so that costs tie
        # exactly and the first least pair in row-major order must win
        rng = np.random.default_rng(90)
        lines = {k: [u for u in product(range(-2, 3) if k == 2 else range(-1, 2), repeat=k)
                     if math.gcd(*u) == 1 and next(x for x in u if x) > 0]
                 for k in (2, 3, 4, 5)}
        frames = tied_costs = 0
        for k in (2, 3, 4, 5):
            for m in range(k + 1, k + 5):
                for _ in range(10):
                    sizes = 1 + rng.multinomial(int(rng.integers(0, 6)), np.ones(m) / m)
                    chosen = rng.choice(len(lines[k]), m, replace=False)
                    dirs = np.array([lines[k][i] for i in chosen], dtype=float)
                    rows = np.repeat(dirs, rng.integers(1, 3), axis=0)
                    signs = rng.choice([-1.0, 1.0], len(rows))
                    symmetric = (signs[:, None] * rows)[rng.permutation(len(rows))]
                    for V in (tied_frame(sizes, k, rng), symmetric):
                        label, sign, first = optimizer._clusters(V)
                        assert len(first) == m
                        U, size = weighted(V)
                        out, out_size = optimizer._merge(U, size)
                        ref_out, _ = reference_merge(V, label, sign, first)
                        assert_same_ties((out, out_size), weighted(ref_out))
                        cost = [size[c] * size[e] / (size[c] + size[e]) * (
                            (U[c] @ U[c] + U[e] @ U[e]) - 2 * abs(U[c] @ U[e]))
                            for c, e in zip(*optimizer._pairs(m))]
                        frames += 1
                        tied_costs += cost.count(min(cost)) > 1
        assert frames >= 300
        assert tied_costs >= 100, tied_costs

    def test_pair_tables_are_read_only(self):
        # the pair tables are cached per m and shared by every merge at that
        # m, so none of them can be written
        for m in (2, 5, 9):
            c, e = optimizer._pairs(m)
            assert optimizer._pairs(m)[0] is c
            assert list(zip(c.tolist(), e.tolist())) == list(combinations(range(m), 2))
            for table in (c, e):
                with pytest.raises(ValueError):
                    table[0] = 1

    def test_box_reassigns(self):
        # at a box frame only a cluster of d_c >= d_e + 2 moves a member to
        # cluster e: the balanced (7, 4) box, of sizes 2, 2, 2 and 1, has no
        # move, and the (6, 2) box of sizes 2 and 4 has one, from the
        # cluster of 4 to the cluster of 2, on the same rows
        assert list(optimizer._reassigns(*weighted(extremal_frame(7, 4).vectors), 4)) == []
        V = extremal_frame(6, 2, partition=[[0, 1], [2, 3, 4, 5]]).vectors
        U, size = weighted(V)
        moves = list(optimizer._reassigns(U, size, 2))
        assert len(moves) == 1
        moved = V.copy()
        moved[5] = V[0]
        assert_same_ties(moves[0], weighted(moved))
        assert_same_ties(moves[0], (U, np.array([3, 3])))

    def test_each_move_carries_its_ties(self):
        # at exactly tied frames of m >= k clusters, every candidate of the
        # move list is a weighted frame whose ties are its rows: the frame
        # expanded from it is grouped by _clusters into the runs of its
        # rows, each with sign +1, and again after whitening as the ascent
        # whitens, W = sqrt(d) U.  Each reassign is the one of the n-row
        # frame (reference_reassigns: the last member of c set to the row
        # of e, grouped afresh), bitwise up to the order of the rows.
        # Covered: merges, gradient trials, reassigns of a lone generator
        # (m > k), and reassigns whose generator becomes the least member
        # of its new cluster, so that the n-row frame numbers its clusters
        # again
        rng = np.random.default_rng(80)
        met = dict.fromkeys(("merge", "gradient", "reassign", "lone", "renumbered"), 0)
        for _ in range(100):
            for k in (2, 3, 4):
                m = k + int(rng.integers(0, 4))
                sizes = 1 + rng.multinomial(int(rng.integers(0, 6)), np.ones(m) / m)
                V = tied_frame(sizes, k, rng)
                U, size = weighted(V)
                references = reference_reassigns(V, k)
                for out, out_size, _, kind in optimizer._moves(U, size, section_of(U), 0.3, k):
                    assert_tight_weighted(out, out_size)
                    b = whiten(Frame(np.sqrt(out_size)[:, None] * out))[0]
                    assert_tight_weighted(out @ b, out_size)
                    met[kind] += 1
                    if kind == "reassign":
                        moved, lone, renumbered = next(references)
                        assert regrouped(np.repeat(out, out_size, axis=0)) == regrouped(moved)
                        met["lone"] += lone
                        met["renumbered"] += renumbered
                assert next(references, None) is None
        assert min(met.values()) > 0, met

    @pytest.mark.parametrize("n, k", [(6, 2), (10, 2), (7, 3), (9, 3), (7, 4), (8, 5)])
    def test_box_reassigns_are_the_gaining_ones(self, n, k):
        """Why the box rule of _reassigns leaves out no move that gains.

        At a box frame of clusters of sizes d_c the sqrt(d_c) u_c are
        orthonormal and the volume is 2^k sqrt(prod_c d_c).  Moving one
        member of c onto e gives, whitened, the box of sizes d_c - 1 and
        d_e + 1, so the volume ratio is sqrt((d_c - 1)(d_e + 1) / (d_c d_e)),
        and 0 when d_c = 1, as the frame left does not span.  Checked here
        with the volume the ascent reads, on every partition of n into k
        parts, its generators shuffled and their signs drawn.
        """
        rng = np.random.default_rng([n, k])
        for sizes in combinations_with_replacement(range(1, n), k):
            if sum(sizes) != n:
                continue
            order = rng.permutation(n)
            parts = np.split(order, np.cumsum(sizes)[:-1])
            V = extremal_frame(n, k, partition=[sorted(p.tolist()) for p in parts],
                               signs=rng.choice([-1, 1], n).tolist()).vectors
            vol = section_volume_fast(V)
            label, sign, first = optimizer._clusters(V)
            U, size = weighted(V)
            assert len(size) == k
            gaining = []
            for c in range(k):
                for e in range(k):
                    if e == c:
                        continue
                    moved = V.copy()
                    moved[np.flatnonzero(label == c)[-1]] = V[first[e]]
                    if size[c] == 1:
                        with pytest.raises(FrameError):
                            whiten(Frame(moved))
                        continue
                    ratio = section_volume_fast(whiten(Frame(moved))[1].vectors) / vol
                    assert ratio == pytest.approx(
                        math.sqrt((size[c] - 1) * (size[e] + 1) / (size[c] * size[e])),
                        rel=1e-12)
                    gains = ratio > 1 + VOL_TOL
                    assert gains == (size[c] >= size[e] + 2)
                    if gains:
                        gaining.append(regrouped(moved))
            # each move is the n-row frame's, grouped afresh, bitwise up to
            # the order of the rows
            moves = list(optimizer._reassigns(U, size, k))
            assert [regrouped(np.repeat(*move, axis=0)) for move in moves] == gaining
            # with m = k clusters the move list is these reassigns alone,
            # whatever G holds: no merge and no gradient trial
            G = rng.standard_normal(U.shape)
            listed = list(optimizer._moves(U, size, SimpleNamespace(gradient=lambda: G), 0.3, k))
            assert [kind for *_, kind in listed] == ["reassign"] * len(gaining)
            assert [regrouped(np.repeat(move, move_size, axis=0))
                    for move, move_size, *_ in listed] == gaining

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
        assert volume_and_gradient(tight.vectors)[1].shape == (6, 2)

    def test_ascend(self):
        rng = np.random.default_rng(41)
        res = ascend(random_tight_frame(5, 2, rng), small_config(5, 2, max_iterations=200), rng)
        assert (res.iterations, res.stop) == (5, "critical")
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
        # every field of every restart, frames and traces included, bitwise
        assert restart_records(a) == restart_records(b) == restart_records(c)

    def test_structure_records_read_the_tie_pattern(self):
        # a structure record takes each frame by its tie pattern, the sizes
        # of its clusters in descending order: a signed row permutation of
        # a frame is the same section and the same path, so replacing every
        # frame by one leaves the records as they are, while the full
        # records, which take the frame's bytes, change; moving one member
        # of the least cluster onto the largest changes the record
        res = maximize(OptimizerConfig(n=7, k=3, restarts=4, seed=0), threads=1)
        structure, full = restart_records(res, structure=True), restart_records(res)
        rng = np.random.default_rng(3)
        for r in res.restarts:
            V = r.frame.vectors
            r.frame = TightFrame(rng.choice([-1.0, 1.0], (len(V), 1)) * V[rng.permutation(len(V))])
        assert restart_records(res, structure=True) == structure
        assert restart_records(res) != full
        V = res.restarts[0].frame.vectors
        label, _, first = optimizer._clusters(V)
        size = np.bincount(label)
        assert size.min() >= 2
        moved = V.copy()
        moved[np.flatnonzero(label == np.argmin(size))[0]] = V[first[np.argmax(size)]]
        res.restarts[0].frame = Frame(moved)
        changed = restart_records(res, structure=True)
        assert changed[0] != structure[0] and changed[1:] == structure[1:]

    def test_pool_capped_at_the_job_count(self, monkeypatch):
        # a forked pool starts every worker at the first submit, so no more
        # are asked for than there are restarts; the fake pool maps
        # serially and starts no process
        asked = []

        class SerialPool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(optimizer, "ProcessPoolExecutor", SerialPool)
        cfg = small_config(5, 2, restarts=2, max_iterations=200)
        serial = restart_records(maximize(cfg, threads=1))
        assert asked == []
        assert restart_records(maximize(cfg, threads=500)) == serial
        monkeypatch.setenv("CUBESEC_THREADS", "500")
        assert restart_records(maximize(cfg)) == serial
        assert len(asked) == 2 and max(asked) <= cfg.restarts + 1

    def test_ties_break_by_gram_then_index(self):
        # equal volumes go to the lexicographically least Gram matrix, and
        # equal Gram matrices (-0.0 == 0.0) to the lower index, in either
        # argument order
        def result(index, gram, volume=1.0):
            frame = SimpleNamespace(gram=lambda: np.array(gram))
            return SimpleNamespace(index=index, final_volume=volume, frame=frame)

        low, high = result(0, [[1.0, -0.5], [-0.5, 1.0]]), result(1, [[1.0, 0.5], [0.5, 1.0]])
        zero, signed = result(2, [[1.0, 0.0], [0.0, 1.0]]), result(3, [[1.0, -0.0], [-0.0, 1.0]])
        bigger = result(4, [[2.0, 0.0], [0.0, 2.0]], volume=2.0)
        for a, b, want in ((low, high, low), (zero, signed, zero), (low, bigger, bigger)):
            assert optimizer._better(a, b) is want and optimizer._better(b, a) is want

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
        assert [r["merged"] for r in data["restarts"]] == [r.merged for r in res.restarts]
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

    def test_merge_cuts_the_evaluations(self):
        # every random restart still reaches the optimum, in at most half
        # the 2126 evaluations the ascent made without the merge
        res = maximize(OptimizerConfig(n=7, k=4, restarts=12, seed=0))
        assert res.random_hits(2**4 * c_cube(7, 4)) == (12, 12)
        assert sum(r.evaluations for r in res.restarts) <= 2126 // 2

    def test_every_random_restart_reaches_the_optimum_at_unequal_ties(self):
        # at this seed random restarts end on frames tied into clusters of
        # unequal sizes; the stratum gradient climbs on from each of them
        res = maximize(OptimizerConfig(n=10, k=2, restarts=32, seed=1))
        assert res.random_hits(20.0) == (32, 32)


class TestPinnedRestarts:
    """Whole restarts at (3, 2), (10, 2), (7, 3) and (7, 4) pinned to
    recorded outcomes.

    Recorded with the deterministic ascent: the merge, gradient trials,
    then reassigns.  The random restarts reach the optimum within the 400
    iterations and stop at a critical frame there, and the warm restarts
    accept nothing and stop at once: the balanced box frame is critical
    and has no reassign that gains.  At (3, 2) the warm start holds two
    parallel generators, so its points of +-V coincide, and the random
    restart climbs to such a frame.  A change to the volume kernel, its
    gradient, whitening, the ties or the move list that moves any accept
    or reject decision changes a count here; a change of rounding alone
    moves ``final_volume`` by about 1e-16.
    """

    PINNED = {
        (3, 2): [(1, 1, 0, 0, "critical", 5.65685424949238),
                 (0, 0, 0, 0, "critical", 5.656854249492381)],
        (10, 2): [(19, 13, 0, 0, "critical", 20.000000000000004),
                  (0, 0, 0, 0, "critical", 20.0)],
        (7, 3): [(8, 6, 0, 0, "critical", 27.712812921102017),
                 (0, 0, 0, 0, "critical", 27.71281292110204)],
        (7, 4): [(6, 5, 0, 0, "critical", 45.25483399593906),
                 (0, 0, 0, 0, "critical", 45.25483399593905)],
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
