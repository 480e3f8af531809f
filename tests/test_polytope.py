"""Tests for section construction, volumes, facets, and facet transformations."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from cubesec.frame_core import (
    RANK_FLOOR,
    Frame,
    NotAFrameError,
    TightFrame,
    random_tight_frame,
    whiten,
)
from cubesec.polytope import (
    EPS_GEOM,
    _coincident_row_groups,
    _face_slots,
    _flag_plan,
    _flag_sum,
    _hull_plan,
    _polar_hull,
    build_section,
    convex_volume,
    rotate_facet_predict,
    rotated_section_volume,
    section_volume_fast,
    shift_facet_predict,
    shifted_section_volume,
    volume,
    volume_by_triangulation,
)
from cubesec import polytope
from cubesec.bounds import ball_upper, c_cube, default_partition, extremal_frame
from cubesec.conditions import verify_frame
from cubesec.optimizer import OptimizerConfig, maximize
from oracles import (
    _face_holders,
    exact_cone_volumes,
    exact_volume,
    halfspace_vertices,
    reference_facets,
    reference_row_groups,
    section_rows,
    unmerged_simplices,
)
import volume_digest
from volume_digest import FAMILIES, digests, records, volume_and_gradient


def square_frame():
    return Frame([[1.0, 0.0], [0.0, 1.0]])


def hexagonal_frame():
    r = math.sqrt(2 / 3)
    return TightFrame(
        [(r * math.cos(j * math.pi / 3), r * math.sin(j * math.pi / 3)) for j in range(3)]
    )


def sorted_rows(a):
    a = np.asarray(a)
    return a[np.lexsort(a.T[::-1])]


def enumerated_volume(vectors):
    """Hull volume of the feasible crossings of the bounding planes +-v_i."""
    W = section_rows(vectors)
    return convex_volume(halfspace_vertices(W, np.ones(len(W))), W.shape[1])


def signed_box_frame(n, k, rng):
    """The balanced box frame with random signs: exact duplicate planes."""
    return extremal_frame(n, k, signs=[int(x) for x in rng.choice([-1, 1], n)])


def near_parallel_frame(n, k, rng, noise=5e-8):
    """A box frame with every generator moved by ``noise``, re-whitened."""
    v = signed_box_frame(n, k, rng).vectors
    return whiten(Frame(v + noise * rng.standard_normal(v.shape)))[1]


def nearly_paired_frame(n, k, pairs, rel, rng):
    """A random tight frame in which generator 2i+1 sits at relative distance
    ``rel`` from generator 2i (i < pairs), moved along the sphere, re-whitened."""
    v = random_tight_frame(n, k, rng).vectors.copy()
    for a in range(0, 2 * pairs, 2):
        t = rng.standard_normal(k)
        t -= (t @ v[a]) / (v[a] @ v[a]) * v[a]
        v[a + 1] = v[a] + rel * np.linalg.norm(v[a]) / np.linalg.norm(t) * t
    return whiten(Frame(v))[1].vectors


def pool_near_parallel(n, k, j):
    """Near-parallel frame j of the benchmark's certify pool at (n, k): a box
    frame with random members and signs, moved by 5e-8, re-whitened."""
    rng = np.random.default_rng([n, k, j])
    members = rng.permutation(n)
    parts = [members[part] for part in default_partition(n, k)]
    box = extremal_frame(n, k, partition=parts, signs=list(rng.choice([-1, 1], n)))
    return whiten(Frame(box.vectors + 5e-8 * rng.standard_normal((n, k))))[1]


def duplicated_frame(k, delta, rng):
    """A random tight frame with one vector repeated at relative distance
    ``delta``, moved along the sphere, re-whitened."""
    v = random_tight_frame(k + 1, k, rng).vectors
    t = rng.standard_normal(k)
    t -= (t @ v[0]) / (v[0] @ v[0]) * v[0]
    near = v[0] + delta * np.linalg.norm(v[0]) / np.linalg.norm(t) * t
    return whiten(Frame(np.vstack([v, near])))[1]


def exact_errors(s):
    """Relative errors of the fast volume, of every facet's cone volume
    (distance * measure / k) and of every facet's centroid (relative to
    its norm) against the exact rational oracle.

    A facet record of a group of coincident rows is held to the summed
    exact cones of those rows, and to the centroid of their exact facets
    weighted by measure, k * cone * |w_r|; every exact facet must have a
    record.
    """
    W = section_rows(s.vectors)
    cones, centroids = exact_cone_volumes(W)
    exact = float(sum(cones.values()))
    p = build_section(s)
    errors = [abs(section_volume_fast(s.vectors) - exact) / exact]
    covered = set()
    for f in p.facets:
        mine = [rows for rows in cones if rows <= set(f.row_ids)]
        covered.update(mine)
        want = float(sum(cones[rows] for rows in mine))
        errors.append(abs(f.distance * f.measure / s.k - want) / want)
        weights = [float(cones[rows]) * np.linalg.norm(W[min(rows)]) for rows in mine]
        centroid = np.average([np.array(centroids[rows], dtype=float) for rows in mine],
                              axis=0, weights=weights)
        errors.append(np.linalg.norm(f.centroid - centroid) / np.linalg.norm(centroid))
    assert covered == set(cones)
    return errors


def nearest_relative_distance(v):
    """Least distance between two different points of +-V, relative to the longer."""
    P = np.vstack([v, -v])
    d = np.linalg.norm(P[:, None] - P[None], axis=2)
    r = np.linalg.norm(P, axis=1)
    rel = d / np.maximum(r[:, None], r[None])
    return rel[d > 0].min()


def cube_vertex_frame(k):
    """The 2^(k-1) frame vectors whose +-V are the vertices of the cube
    [-1, 1]^k / sqrt(2^(k-1)): a tight frame whose hull of +-V has only
    merged, non-simplicial facets."""
    signs = np.array(list(itertools.product((1.0, -1.0), repeat=k - 1)))
    return np.column_stack([signs, np.ones(len(signs))]) / math.sqrt(2 ** (k - 1))


def is_box(v):
    """Whether the frame vectors v, k >= 3, lie on exactly k lines."""
    return v.shape[1] >= 3 and polytope._box_first(v) is not None


def hull_section(v):
    """build_section's hull assembly, called directly on a section of +-v
    given no ties, on any frame, a box too, whose hull no route builds; the
    section slot is not read."""
    section = polytope._Section(np.concatenate((v, -v)))
    label = _coincident_row_groups(section.P, EPS_GEOM)
    return polytope._assemble(section, label,
                              *polytope._hull_facets(section, label, int(label.max()) + 1))


def halfspace_volume(P):
    """The volume of the polar body {x : P x <= 1}, as the rebuilds read it."""
    return polytope._Section(P).volume()


class TestBuildSection:
    def test_square(self):
        p = build_section(square_frame())
        assert len(p.vertices) == 4 and len(p.facets) == 4
        expected = [[-1, -1], [-1, 1], [1, -1], [1, 1]]
        np.testing.assert_allclose(sorted_rows(p.vertices), expected, atol=1e-12)
        assert volume(p) == pytest.approx(4.0)

    def test_regular_hexagon(self):
        p = build_section(hexagonal_frame())
        assert len(p.vertices) == 6 and len(p.facets) == 6
        apothem = math.sqrt(3 / 2)
        for f in p.facets:
            assert f.distance == pytest.approx(apothem, rel=1e-12)
        assert volume(p) == pytest.approx(3 * math.sqrt(3), rel=1e-12)
        radii = np.linalg.norm(p.vertices, axis=1)
        np.testing.assert_allclose(radii, math.sqrt(2), rtol=1e-12)

    def test_extremal_rectangle(self):
        p = build_section(extremal_frame(5, 2))
        a, b = math.sqrt(3), math.sqrt(2)
        expected = [[-a, -b], [-a, b], [a, -b], [a, b]]
        np.testing.assert_allclose(sorted_rows(p.vertices), expected, atol=1e-12)
        assert volume(p) == pytest.approx(4 * math.sqrt(6), rel=1e-12)

    def test_one_dimensional_section(self):
        p = build_section(Frame([[0.5], [1.0]]))
        np.testing.assert_allclose(sorted_rows(p.vertices), [[-1.0], [1.0]])
        assert volume(p) == pytest.approx(2.0)
        assert all(f.measure == 1.0 for f in p.facets)
        # the interval |x| <= 1 / max |v_i|; zero vectors contribute nothing
        assert section_volume_fast(np.array([[0.5], [-2.0], [0.0], [1.0]])) == 1.0

    # one raise contract on every volume route: on each frame either every
    # route raises the same class, or every route returns one volume,
    # bitwise, the section's, at every k
    ROUTES = (
        section_volume_fast,
        lambda v: volume(build_section(Frame(v, require_span=False))),
        lambda v: volume_and_gradient(v)[0],
    )

    @classmethod
    def outcomes(cls, v, routes=ROUTES):
        got = []
        for route in routes:
            try:
                got.append(route(v))
            except Exception as exc:  # its class is the outcome
                got.append(exc)
        return got

    @classmethod
    def assert_one_volume(cls, name, v, monkeypatch):
        # on a fresh slot, the fast route first and then the build route,
        # and the other way round
        got = []
        for routes in (cls.ROUTES, cls.ROUTES[1::-1] + cls.ROUTES[2:]):
            monkeypatch.setattr(polytope, "_last_section", (None, None))
            got += cls.outcomes(v, routes)
        assert all(type(x) is float for x in got), (name, got)
        assert len(set(got)) == 1, (name, got)
        return got[0]

    def test_raise_contract(self, monkeypatch):
        cells = ((6, 2), (7, 3), (7, 4), (8, 5))
        rows = [(f"{family} {n, k} #{i}", volume_digest.make_frame(n, k, family, i).vectors)
                for n, k in cells for family in FAMILIES for i in range(3)]
        rng = np.random.default_rng(38)
        for n, k in cells:
            v = random_tight_frame(n - 1, k, rng).vectors
            rows.append((f"duplicated {n, k}",
                         np.insert(v, 1, v[0] + 1e-13 * rng.standard_normal(k), axis=0)))
        # the digests' families off a box at k = 3..5, where build_section
        # solves its own vertices for the facets
        rows += [(f"{family} {n, k} #{i}", volume_digest.make_frame(n, k, family, i).vectors)
                 for n, k in volume_digest.CELLS if 3 <= k <= 5
                 for family in ("random", "near_parallel", "zero_vector") for i in range(3)]
        for name, v in rows:
            self.assert_one_volume(name, v, monkeypatch)

    def test_rank_deficient_rejected(self):
        flat = [
            np.array([[1.0, 0.0], [2.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
            # spans only in rounding: Qhull builds a hull 1e-13 thick
            np.array([[1.0, 0.0], [1.0, 1e-13], [0.5, 0.0]]),
            np.zeros((2, 2)),
            np.zeros((3, 3)),
            np.zeros((5, 4)),
            # box patterns, k = 3 and exactly k lines: three in a plane,
            # and the third 1e-14 out of it
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1e-14]]),
        ]
        for i, v in enumerate(flat):
            got = self.outcomes(v)
            assert all(type(x) is NotAFrameError and str(x) == "not a frame"
                       for x in got), (i, got)
        assert build_section(Frame([[1.0, 0.0], [0.0, 1.0]], require_span=False)) is not None

    def test_nearly_flat_split(self, monkeypatch):
        # no split left: random tight frames with the last column scaled by
        # 3e-7, so that the least eigenvalue of the frame operator is about
        # 9e-14.  Frame's span test rejects them, and every route, build_section
        # too, reads one volume, far above Ball's bound, which holds for tight
        # frames only; the first of (7, 2) and (7, 3) is pinned
        pins = {(7, 2): 2.6e7, (7, 3): 5.1e7}
        for n, k in ((6, 2), (7, 2), (7, 3), (7, 4), (8, 5)):
            rng = np.random.default_rng([n, k])
            for i in range(5):
                v = random_tight_frame(n, k, rng).vectors.copy()
                v[:, -1] *= 3e-7
                assert np.linalg.eigvalsh(v.T @ v)[0] < RANK_FLOOR
                with pytest.raises(NotAFrameError, match="not a frame"):
                    Frame(v)
                vol = self.assert_one_volume(f"nearly flat {n, k} #{i}", v, monkeypatch)
                assert vol > ball_upper(n, k)
                if i == 0 and (n, k) in pins:
                    assert vol == pytest.approx(pins[n, k], rel=0.01)

    def test_tangent_slab_yields_no_facet(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        p = build_section(s)
        assert len(p.facets) == 4
        assert 2 not in p.generator_facets
        assert 0 in p.generator_facets

    def test_zero_vector_contributes_nothing(self):
        p_with = build_section(Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        p_without = build_section(square_frame())
        np.testing.assert_allclose(
            sorted_rows(p_with.vertices), sorted_rows(p_without.vertices)
        )
        # build_section takes the rows +-V of every generator, as
        # section_volume_fast does, so in the plane the two volumes are one
        # sum in one order, bitwise, with zero vectors among the rows too
        rng = np.random.default_rng(21)
        for n in range(3, 13):
            for _ in range(30):
                v = random_tight_frame(n, 2, rng).vectors
                at = rng.integers(0, n + 1, int(rng.integers(1, 3)))
                z = np.insert(v, at, 0.0, axis=0)
                assert volume(build_section(Frame(z))) == section_volume_fast(z)

    def test_parallel_generators_share_facet(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        p = build_section(s)
        f = p.generator_facets[0][0]
        assert f.multiplicity == 2
        assert {i for i, _ in f.normals} == {0, 2}

    def test_central_symmetry_random(self):
        rng = np.random.default_rng(20)
        for _ in range(40):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k + 1, 9))
            p = build_section(random_tight_frame(n, k, rng))
            v = np.asarray(p.vertices)
            np.testing.assert_allclose(
                sorted_rows(v), sorted_rows(-v), atol=1e-9
            )

    def test_dump_format(self):
        d = build_section(square_frame()).to_dict()
        assert set(d) == {"k", "volume", "vertices", "facets"}
        assert set(d["facets"][0]) == {"normals", "vertex_indices", "measure", "centroid"}


class TestVolume:
    def test_matches_triangulation_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(60):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k + 1, 9))
            p = build_section(random_tight_frame(n, k, rng))
            assert volume(p) == pytest.approx(volume_by_triangulation(p), rel=1e-9)

    def test_pyramid_additivity(self):
        # every facet's cone and centroid against the exact ones, whose
        # cones sum to the exact volume
        rng = np.random.default_rng(22)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 8))
            assert max(exact_errors(random_tight_frame(n, k, rng))) <= 1e-13

    def test_removing_a_vector_never_shrinks(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 2, 9))
            s = random_tight_frame(n, k, rng)
            before = volume(build_section(s))
            i = int(rng.integers(n))
            try:
                after = volume(build_section(Frame(np.delete(s.vectors, i, axis=0))))
            except NotAFrameError:
                continue
            assert after >= before - 1e-9 * before

    def test_duplicate_append_leaves_section_unchanged(self):
        rng = np.random.default_rng(24)
        s = random_tight_frame(6, 3, rng)
        dup = Frame(np.vstack([s.vectors, s.vectors[2]]))
        p, q = build_section(s), build_section(dup)
        assert volume(q) == pytest.approx(volume(p), rel=1e-12)
        np.testing.assert_allclose(
            sorted_rows(p.vertices), sorted_rows(q.vertices), atol=1e-9
        )

    def test_near_coincident_planes_not_double_counted(self):
        # two constraint planes at a small angle cross inside a common
        # facet band; facet contents must tile the band, not overlap
        spatial = [
            [1 / math.sqrt(2), 0.0, 0.0],
            [1 / math.sqrt(2), 1e-6, -3e-7],
            [0.0, 1 / math.sqrt(2), 0.0],
            [0.0, 1 / math.sqrt(2), 4e-7],
            [0.0, 0.0, 1.0],
        ]
        # an optimizer restart at (n, k) = (3, 2): generators 1 and 2 differ
        # by 5e-8 and cross at a vertex that bends the edge by ~1e-7 rad
        planar = [
            [-0.8973883043189166, -0.4412416925808554],
            [0.31200500746585086, -0.634549329210331],
            [0.3120049784664557, -0.6345493814724752],
        ]
        for base, bound in ((spatial, 16.0), (planar, 4 * math.sqrt(2))):
            _, s = whiten(Frame(base))
            p = build_section(s)
            assert volume(p) == pytest.approx(volume_by_triangulation(p), rel=1e-9)
            assert volume(p) <= bound + 1e-9
            assert max(exact_errors(s)) <= 1e-13
            if s.k == 2:
                # the polar route has no slack: it matches the exact edges,
                # and both routes sum one cone table in one order
                assert section_volume_fast(s.vectors) == volume(p)

    def test_fast_path_agrees(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k + 1, 9))
            s = random_tight_frame(n, k, rng)
            fast, vol = section_volume_fast(s.vectors), volume(build_section(s))
            assert fast == pytest.approx(vol, rel=1e-9)
            if k == 2:
                assert fast == vol

    def test_fast_path_matches_enumeration(self):
        rng = np.random.default_rng(31)
        cells = [(int(n), k) for k in range(1, 6) for n in rng.integers(k + 1, 9, size=6)]
        for n, k in cells + [(16, 5)]:
            v = random_tight_frame(n, k, rng).vectors
            fast = section_volume_fast(v)
            assert fast == pytest.approx(enumerated_volume(v), rel=1e-12)
            # zero vectors contribute no constraint
            padded = np.vstack([v[:1], np.zeros((2, k)), v[1:]])
            assert section_volume_fast(padded) == pytest.approx(fast, rel=1e-12)
        # pairs of points of +-V at relative distance about ``rel``: at 3e-5
        # against the enumeration without slack; at 4e-10, inside EPS_GEOM,
        # build_section takes the rows of a pair, of unequal norm, as one
        # facet, and both volumes are held to the exact one
        paired = [(3, 6, 3, 2, 3e-5), (9, 7, 3, 3, 3e-5), (130, 7, 4, 2, 3e-5), (72, 8, 4, 3, 3e-5),
                  (169, 9, 4, 4, 3e-5)]
        paired += [(seed, n, k, 2, 4e-10) for n, k in ((6, 2), (7, 3), (7, 4)) for seed in range(10)]
        for seed, n, k, pairs, rel in paired:
            v = nearly_paired_frame(n, k, pairs, rel, np.random.default_rng([seed, n, pairs]))
            W = np.vstack([v, -v])
            if rel > EPS_GEOM:
                assert 2e-5 <= nearest_relative_distance(v) <= 5e-5
                exact = convex_volume(halfspace_vertices(W, np.ones(len(W)), 1e-13), k)
            else:
                assert _coincident_row_groups(W, EPS_GEOM).max() + 1 < len(W)
                exact = float(exact_volume(W))
                assert volume(build_section(Frame(v))) == pytest.approx(exact, rel=1e-13)
            assert section_volume_fast(v) == pytest.approx(exact, rel=1e-13)

    def test_tiny_vector_changes_nothing(self):
        # a 1e-15 vector is a point of +-V deep inside the hull
        rng = np.random.default_rng(38)
        for k in (2, 3):
            for n in (k + 1, k + 3, 10):
                v = random_tight_frame(n, k, rng).vectors
                tiny = 1e-15 * rng.standard_normal(k)
                for at in (0, n // 2, n):
                    padded = np.insert(v, at, tiny, axis=0)
                    assert section_volume_fast(padded) == pytest.approx(
                        section_volume_fast(v), rel=1e-15)

    def test_fast_path_on_box_frames(self):
        rng = np.random.default_rng(32)
        for n, k in ((3, 2), (6, 2), (10, 2), (7, 3), (7, 4), (12, 4), (8, 5), (6, 1)):
            for _ in range(3):
                v = signed_box_frame(n, k, rng).vectors
                box = 2**k * c_cube(n, k)
                assert section_volume_fast(v) == pytest.approx(box, rel=1e-12)
                assert section_volume_fast(v) == pytest.approx(enumerated_volume(v), rel=1e-12)

    def test_fast_path_on_cube_vertex_frames(self):
        # +-V are the vertices of a cube, so conv(+-V) has non-simplicial
        # facets that Qhull triangulates, with flat simplices for k >= 4;
        # the section is the polar cross-polytope |x|_1 <= sqrt(2^(k-1))
        rng = np.random.default_rng(33)
        for k in (3, 4, 5):
            v = cube_vertex_frame(k)
            exact = (2 * math.sqrt(2 ** (k - 1))) ** k / math.factorial(k)
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            for frame in (v, v @ q):
                assert section_volume_fast(frame) == pytest.approx(exact, rel=1e-14)
                # every point of +-V is a facet, each with an equal cone
                facets = build_section(Frame(frame)).facets
                assert len(facets) == 2**k
                for f in facets:
                    assert f.distance * f.measure / k == pytest.approx(exact / 2**k, rel=1e-13)

    def test_halfspace_volume_of_moved_facets(self):
        # the rebuilt sections of the facet transformations are not
        # centrally symmetric: {W x <= c} with some rows shifted or tilted
        rng = np.random.default_rng(34)
        for k in (2, 3, 4, 5):
            for n in (k + 1, k + 3):
                v = random_tight_frame(n, k, rng).vectors
                W = np.vstack([v, -v])
                c = np.ones(len(W))
                rows = rng.choice(len(W), size=2, replace=False)
                shifted = c.copy()
                shifted[rows] += rng.uniform(0.05, 0.3, size=2) * np.linalg.norm(W[rows], axis=1)
                tilted = W.copy()
                tilted[rows] += 0.2 * rng.standard_normal((2, k))
                for A, b in ((W, shifted), (tilted, c)):
                    exact = convex_volume(halfspace_vertices(A, b), k)
                    assert halfspace_volume(A / b[:, None]) == pytest.approx(exact, rel=1e-12)


class TestExactVolume:
    """The fast volume, every facet's cone and every facet's centroid against
    exact rational ones."""

    def test_exact_centroids(self):
        # the oracle's own centroids: the square's facets are pierced at
        # (+-1, 0) and (0, +-1); the (5, 2) box's x-block facet at
        # (1 / |v|, 0) = (sqrt 3, 0), v = (1 / sqrt 3, 0) in floats
        _, centroids = exact_cone_volumes(section_rows(square_frame().vectors))
        assert sorted(centroids.values()) == [
            (Fraction(-1), Fraction(0)), (Fraction(0), Fraction(-1)),
            (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0)),
        ]
        assert all(isinstance(x, Fraction) for c in centroids.values() for x in c)
        _, centroids = exact_cone_volumes(section_rows(extremal_frame(5, 2).vectors))
        x, y = centroids[frozenset({0, 1, 2})]
        assert float(x) == pytest.approx(math.sqrt(3), rel=1e-15)
        assert y == 0

    def test_moved_facets(self):
        # the planar scan and the flag sum on bodies that are not centrally
        # symmetric: {W x <= c} with two rows of a section shifted or tilted
        rng = np.random.default_rng(37)
        for k in (2, 3, 4, 5):
            for n in (k + 1, k + 2):
                v = random_tight_frame(n, k, rng).vectors
                W = np.vstack([v, -v])
                c = np.ones(len(W))
                rows = rng.choice(len(W), size=2, replace=False)
                shifted = c.copy()
                shifted[rows] += rng.uniform(0.05, 0.3, size=2) * np.linalg.norm(W[rows], axis=1)
                tilted = W.copy()
                tilted[rows] += 0.2 * rng.standard_normal((2, k))
                for A, b in ((W, shifted), (tilted, c)):
                    exact = float(exact_volume(A, b))
                    assert halfspace_volume(A / b[:, None]) == pytest.approx(exact, rel=1e-13)

    def test_near_parallel_pool_frames(self):
        # pool index 182 at (7, 4) made Qhull raise a wide merge in an
        # earlier two-hull route
        cells = [(n, 2, j) for n in (3, 6, 10) for j in range(10)]
        cells += [(7, 3, j) for j in range(10)] + [(7, 4, j) for j in (0, 1, 2, 3, 4, 182)]
        for n, k, j in cells:
            assert max(exact_errors(pool_near_parallel(n, k, j))) <= 1e-13

    def test_triangulation_of_nearly_coincident_vertices(self):
        s = pool_near_parallel(12, 4, 674)
        assert max(exact_errors(s)) <= 1e-13
        fast = section_volume_fast(s.vectors)
        assert volume_by_triangulation(build_section(s)) == pytest.approx(fast, rel=1e-13)
        # the polar vertices of Qhull's own facet equations, up to 4e-9 off
        # here: their hull under Qhull's default options raises a wide
        # merge (QH6271)
        W = np.vstack([s.vectors, -s.vectors])
        _, Y = _polar_hull(W)
        assert convex_volume(Y, 4) == pytest.approx(fast, rel=1e-13)

    def test_both_routes_against_the_exact_volume(self):
        # both k >= 3 routes on random and near-parallel frames, relative
        # to the exact volume: at most 2.7e-16 on these frames
        rng = np.random.default_rng(70)
        for n, k, count in ((7, 3, 5), (7, 4, 3)):
            for make in (random_tight_frame, near_parallel_frame):
                for _ in range(count):
                    s = make(n, k, rng)
                    exact = exact_volume(section_rows(s.vectors))
                    for vol in (section_volume_fast(s.vectors), volume(build_section(s))):
                        assert abs(Fraction(vol) - exact) <= 2e-15 * exact

    def test_duplicated_vector(self):
        rng = np.random.default_rng(35)
        for k in (2, 3, 4, 5):
            for delta in (1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
                assert max(exact_errors(duplicated_frame(k, delta, rng))) <= 1e-13

    def test_box_frames(self):
        rng = np.random.default_rng(36)
        for n, k in ((6, 2), (10, 2), (7, 3), (7, 4), (6, 5)):
            assert max(exact_errors(signed_box_frame(n, k, rng))) <= 1e-13

    def test_planar_scan_edge_cases(self):
        # the planar scan starts at the point p of +-V of largest norm and
        # goes once round the origin, back to p; these frames put points
        # twice, tied for the start, on the line through p and collinear
        rng = np.random.default_rng(39)
        v = random_tight_frame(5, 2, rng).vectors
        p = v[np.argmax(np.linalg.norm(v, axis=1))]
        frames = [
            # both v and -v, so +-V holds each of their points twice
            whiten(Frame(np.vstack([v, -v[2]])))[1].vectors,
            np.vstack([v, -p]),
            # two vectors tied for the largest norm, one of them negated
            np.array([[0.8, 0.3], [0.3, 0.8], [0.1, -0.2]]),
            np.array([[0.8, 0.3], [-0.3, -0.8], [0.1, -0.2], [0.2, 0.1]]),
            # vectors exactly along the start direction, and against it
            np.vstack([v, 0.5 * p, -0.25 * p]),
            np.array([[1.0, 0.5], [0.5, 0.25], [-0.25, -0.125], [0.2, -0.9]]),
            # three collinear points of +-V on an edge, through the start
            # (1, 0.5) and its negation, and on an edge away from them
            np.array([[1.0, 0.5], [1.0, 0.0], [1.0, -0.25], [0.0, 0.5]]),
            np.array([[0.3, 1.0], [0.5, 1.0], [0.7, 1.0], [1.5, 0.2]]),
        ]
        for vectors in frames:
            assert max(exact_errors(Frame(vectors))) <= 1e-13


class TestFacetAssembly:
    """build_section's records against the one-facet-at-a-time reference."""

    @staticmethod
    def frames():
        rng = np.random.default_rng(40)
        for k in (1, 2, 3, 4, 5):
            cells = {1: (2, 4), 2: (3, 6, 10), 3: (4, 7), 4: (5, 7, 12), 5: (6, 8)}[k]
            for n in cells:
                v = rng.standard_normal((n, 1)) if k == 1 else random_tight_frame(n, k, rng).vectors
                yield v
                yield np.vstack([v[:1], np.zeros((1, k)), v[1:]])  # a zero vector
                yield np.vstack([v, v[-1:]])  # a duplicated vector
                # a vector just outside the longest, one EPS_GEOM group
                # whose outermost row is not its least
                j = np.linalg.norm(v, axis=1).argmax()
                yield np.vstack([v, v[j:j + 1] * (1 + 1e-10)])
                if k > 1:
                    yield signed_box_frame(n, k, rng).vectors
                    yield near_parallel_frame(n, k, rng).vectors
            if k > 1:
                yield duplicated_frame(k, 1e-9, rng).vectors

    def test_matches_reference(self):
        # a box frame of k >= 3 reads its section from U^-1 (TestBoxRoute);
        # its records here come from the hull assembly, called directly
        for v in self.frames():
            p = hull_section(v) if is_box(v) else build_section(Frame(v))
            verts, facets = reference_facets(v)
            np.testing.assert_array_equal(p.vertices, verts)
            assert len(p.facets) == len(facets)
            for f, g in zip(p.facets, facets):
                assert (f.normals, f.vertex_indices, f.row_ids) == (g.normals, g.vertex_indices, g.row_ids)
                np.testing.assert_array_equal(f.normal_vector, g.normal_vector)
                assert f.measure == pytest.approx(g.measure, rel=1e-14)
                assert f.distance == pytest.approx(g.distance, rel=1e-14)
                assert np.linalg.norm(f.centroid - g.centroid) <= 1e-14 * np.linalg.norm(g.centroid)
                assert not (f.centroid.flags.writeable or f.normal_vector.flags.writeable)
            for i in range(len(v)):
                first = next(((f, s) for f in p.facets for j, s in f.normals if j == i), None)
                assert p.generator_facets.get(i) == first


    def test_one_merged_facet_rule(self, monkeypatch):
        # _hull_facets solves a simplex alone exactly when no other simplex
        # repeats its equation bitwise, and that is the reference's rule,
        # that no neighbour shares it: the cube-vertex frames have only
        # merged facets, and at k = 3 with a point over two opposite square
        # facets, some of each (the pyramids' sides are triangles there);
        # boxes repeat their points but, a cross-polytope being simplicial,
        # merge no facet, nor do random and near-parallel frames
        solved = []
        solve = polytope._solved_vertices

        def spy(P, hull, Y, alone):
            solved.append((hull, alone))
            return solve(P, hull, Y, alone)

        monkeypatch.setattr(polytope, "_solved_vertices", spy)
        rng = np.random.default_rng(44)
        for k in (3, 4, 5):
            q, _ = np.linalg.qr(rng.standard_normal((k, k)))
            v = cube_vertex_frame(k)
            frames = [(v, "merged"), (v @ q, "merged")]
            if k == 3:
                frames.append((np.vstack([v, 1.2 * v.max() * np.eye(k)[:1]]) @ q, "mixed"))
            for n in (k + 1, 2 * k + 1):
                frames += [(signed_box_frame(n, k, rng).vectors, "alone"),
                           (random_tight_frame(n, k, rng).vectors, "alone"),
                           (near_parallel_frame(n, k, rng).vectors, "alone")]
            for v, kind in frames:
                solved.clear()
                hull_section(v)
                (hull, alone), = solved
                eq = hull.equations
                repeats = (eq[:, None, :] == eq[None, :, :]).all(axis=2).sum(axis=1)
                np.testing.assert_array_equal(alone, repeats == 1)
                np.testing.assert_array_equal(alone, unmerged_simplices(hull))
                assert kind == {(True, True): "alone", (False, False): "merged"}.get(
                    (alone.any(), alone.all()), "mixed")

    def test_cones_do_not_depend_on_corner_order(self):
        # a face's terms are computed once and used in every simplex that
        # holds it, so they must not depend on the order a simplex lists
        # its corners in.  At k > 3 the plan sorts the corners, so shuffled
        # corners give the same plan, table by table, and the same cones,
        # bitwise; (12, 6) keys faces of two, three and four corners.  At
        # k = 3 the ridge owners follow Qhull's corner order, and the cones
        # agree to rounding
        rng = np.random.default_rng(42)
        for n, k in ((7, 3), (7, 4), (12, 4), (8, 5), (12, 6)):
            for s in (random_tight_frame(n, k, rng), near_parallel_frame(n, k, rng)):
                P = np.vstack([s.vectors, -s.vectors])
                hull, Y = _polar_hull(P)
                plan = _hull_plan(hull.simplices, hull.neighbors, len(P))
                order = rng.permuted(np.tile(np.arange(k), (len(hull.simplices), 1)), axis=1)
                shuffled = _hull_plan(np.take_along_axis(hull.simplices, order, axis=1),
                                      np.take_along_axis(hull.neighbors, order, axis=1), len(P))
                want, got = _flag_sum(P, Y, plan), _flag_sum(P, Y, shuffled)
                if k == 3:
                    np.testing.assert_allclose(got, want, rtol=0,
                                               atol=1e-15 * np.abs(want).max())
                    continue
                tables = [[*p[:-1], *itertools.chain(*p.steps)] for p in (plan, shuffled)]
                assert len(tables[0]) == len(tables[1]) == 6 + 4 * (k - 3)
                for a, b in zip(*tables):
                    assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert got.tobytes() == want.tobytes()


class TestVolumeAndGradient:
    """The gradient of the volume from one hull: the gradient of v_i is
    -2 mu_i c_i / |v_i|, from the facet on <x, v_i> = 1."""

    @staticmethod
    def facet_errors(s, tol):
        """Largest error, relative to max |G|, of the signed sum of G over
        the generators of each facet against -2 mu c distance, facets
        whose normals are within ``tol`` taken together; and max |G| over
        the generators that hold no facet."""
        G = volume_and_gradient(s.vectors)[1]
        p = build_section(s)
        label = _coincident_row_groups(np.array([f.normal_vector for f in p.facets]), tol)
        got = np.zeros((label.max() + 1, s.k))
        want = np.zeros_like(got)
        held = set()
        for f, g in zip(p.facets, label):
            got[g] += sum(sign * G[i] for i, sign in f.normals)
            want[g] -= 2 * f.measure * f.distance * f.centroid
            held.update(i for i, _ in f.normals)
        free = [i for i in range(s.n) if i not in held]
        return np.abs(got - want).max() / np.abs(G).max(), np.abs(G[free]).max(initial=0.0)

    def test_volume_is_the_fast_volume(self):
        # section_volume_fast reads the volume column alone, and the
        # gradient the whole table; the volume is the same bitwise, on
        # random, box, near-parallel and zero-vector frames
        rng = np.random.default_rng(64)
        frames = 0
        for k in (2, 3, 4, 5, 6):
            for n in range(k + 1, k + 4):
                z = random_tight_frame(n, k, rng).vectors
                for V in (random_tight_frame(n, k, rng).vectors,
                          signed_box_frame(n, k, rng).vectors,
                          near_parallel_frame(n, k, rng).vectors,
                          np.insert(z, int(rng.integers(0, n + 1)), 0.0, axis=0)):
                    section = polytope._Section(np.concatenate((V, -V)), polytope._clusters(V)[2])
                    whole = (section.volume() if section.box is not None
                             else float(section.table()[:, -1].sum()))
                    assert section_volume_fast(V) == volume_and_gradient(V)[0] == whole
                    frames += 1
        assert frames == 60

    def test_volume_only_cones(self):
        # the flag sum without moments is the volume column of the whole
        # table, cone by cone and bitwise, also on bodies that are not
        # centrally symmetric (the shift and tilt rebuilds)
        rng = np.random.default_rng(65)
        for k in (3, 4, 5, 6):
            for n in (k + 1, k + 3):
                V = random_tight_frame(n, k, rng).vectors
                for P in (np.concatenate((V, -V)),
                          np.concatenate((V, -V)) / (1 + 0.3 * rng.random(2 * n))[:, None]):
                    hull, Y = _polar_hull(P)
                    plan = _hull_plan(hull.simplices, hull.neighbors, len(P))
                    whole = _flag_sum(P, Y, plan)
                    alone = _flag_sum(P, Y, plan, moments=False)
                    assert alone.shape == (2 * n, 1)
                    assert alone[:, 0].tobytes() == whole[:, k].tobytes()
                    assert halfspace_volume(P) == float(whole[:, k].sum())

    def test_central_differences(self):
        # generic frames, every facet of multiplicity 1; the error of the
        # central difference at h = 1e-6 is below 1e-9 of max |G|
        rng = np.random.default_rng(51)
        h = 1e-6
        for n, k in ((3, 2), (6, 2), (10, 2), (5, 3), (7, 3), (7, 4), (12, 4), (8, 5)):
            for _ in range(3):
                v = random_tight_frame(n, k, rng).vectors
                G = volume_and_gradient(v)[1]
                fd = np.zeros_like(v)
                for i, j in itertools.product(range(n), range(k)):
                    e = np.zeros_like(v)
                    e[i, j] = h
                    fd[i, j] = (section_volume_fast(v + e) - section_volume_fast(v - e)) / (2 * h)
                assert np.abs(G - fd).max() <= 1e-9 * np.abs(fd).max()

    def test_facet_formula(self):
        # per facet on random, box (coincident generators share a facet)
        # and zero-vector frames; near-parallel frames per group of nearly
        # coincident facets, between which the hull's section vertices and
        # build_section's solved ones pass up to 1e-9 of the content
        rng = np.random.default_rng(52)
        for k in (2, 3, 4, 5):
            for n in (k + 1, k + 3, 2 * k + 2):
                zero = np.vstack([random_tight_frame(n, k, rng).vectors, np.zeros((1, k))])
                for s, tol in ((random_tight_frame(n, k, rng), 0.0),
                               (signed_box_frame(n, k, rng), 0.0),
                               (Frame(zero), 0.0),
                               (near_parallel_frame(n, k, rng), 1e-6)):
                    err, free = self.facet_errors(s, tol)
                    assert err <= 1e-13
                    assert free == 0.0


def rotated_box_frame(sizes, rng, rotate=True):
    """A tight box frame with clusters of the given sizes: each cluster's
    rows are copies of one row of a random rotation (of the identity, when
    not ``rotate``) over the square root of its size, with random signs,
    the rows shuffled so that clusters interleave."""
    k = len(sizes)
    Q = np.linalg.qr(rng.standard_normal((k, k)))[0] if rotate else np.eye(k)
    label = rng.permutation(np.repeat(np.arange(k), sizes))
    sign = rng.choice([-1.0, 1.0], len(label))
    return sign[:, None] * (Q / np.sqrt(sizes)[:, None])[label]


def box_frames(rng):
    """(V, sizes) for signed, rotated and unbalanced box frames, k = 3..6."""
    for k in (3, 4, 5, 6):
        for n in (k + 1, k + 2, 2 * k + 1):
            balanced = [len(part) for part in default_partition(n, k)]
            yield signed_box_frame(n, k, rng).vectors, balanced
            yield rotated_box_frame(balanced, rng), balanced
            sizes = [1] * k
            for c in rng.integers(0, k, n - k):
                sizes[c] += 1
            yield rotated_box_frame(sizes, rng), sizes


def flag_sum(V):
    """(volume, G) from the flag sum on the hull of +-V, the route of every
    frame that is not a box."""
    n, k = V.shape
    S = polytope._Section(np.concatenate((V, -V))).table()
    return float(S[:, -1].sum()), S[n:, :k] - S[:n, :k]


class TestBoxRoute:
    """At a box frame, k >= 3, the volume is 2^k / |det U| and the gradient
    -vol U^-T on the clusters' first rows, with no flag sum."""

    def test_volume_and_gradient(self):
        rng = np.random.default_rng(71)
        frames = 0
        for V, sizes in box_frames(rng):
            n, k = V.shape
            label, sign, first = polytope._clusters(V)
            assert len(first) == k
            vol, G = volume_and_gradient(V)
            assert section_volume_fast(V) == vol
            # section_volume_fast and build_section take the same box test,
            # the ties of _clusters, before any hull, and read the same lines
            assert polytope._box_first(V).tolist() == first.tolist()
            assert len(_polar_hull(np.concatenate((V, -V)))[0].simplices) == 2**k
            assert not G[np.setdiff1d(np.arange(n), first)].any()
            want, H = flag_sum(V)
            assert vol == pytest.approx(want, rel=1e-15)
            assert vol == pytest.approx(2**k * math.sqrt(math.prod(sizes)), rel=1e-15)
            # the gradient of each line, the signed sum over its cluster
            got, ref = (polytope._sums_by(label, sign[:, None] * g, k) for g in (G, H))
            assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()
            frames += 1
        assert frames == 36

    def test_box_takes_no_hull(self, hulls):
        # given its ties a box reads no hull
        rng = np.random.default_rng(72)
        for V, _ in box_frames(rng):
            volume_and_gradient(V)
            assert hulls == []

    def test_engine_where_not_a_box(self):
        # frames whose hull has 2^k facets but k + 1 clusters (a short
        # generator inside the cross-polytope of the others, or a zero
        # vector), and k = 2 boxes, read the flag sum or the planar scan,
        # bitwise
        rng = np.random.default_rng(73)
        frames = []
        for k in (3, 4, 5):
            V = signed_box_frame(k + 2, k, rng).vectors
            short = np.vstack([np.linalg.qr(rng.standard_normal((k, k)))[0],
                               0.1 * rng.standard_normal(k) / math.sqrt(k)])
            frames += [np.insert(V, int(rng.integers(0, k + 3)), 0.0, axis=0),
                       whiten(Frame(short))[1].vectors]
        for V in frames:
            n, k = V.shape
            first = polytope._clusters(V)[2]
            assert len(first) == k + 1
            assert polytope._box_first(V) is None
            assert len(_polar_hull(np.concatenate((V, -V)))[0].simplices) == 2**k
            vol, G = flag_sum(V)
            got = volume_and_gradient(V)
            assert got[0] == vol
            assert got[1].tobytes() == G.tobytes()
            assert section_volume_fast(V) == vol
        for n in (3, 6, 10):
            V = signed_box_frame(n, 2, rng).vectors
            S = polytope._planar_hull(np.concatenate((V, -V)))[2]
            vol = float(S[:, -1].sum())
            assert section_volume_fast(V) == vol == volume(build_section(Frame(V)))
            got = volume_and_gradient(V)
            assert got[0] == vol
            assert got[1].tobytes() == (S[n:, :2] - S[:n, :2]).tobytes()

    def test_box_section(self):
        # build_section reads a box from U^-1, with no hull: the same facets
        # in the same order as the hull assembly, its vertices in another
        # order, and the volume of section_volume_fast, bitwise
        rng = np.random.default_rng(75)
        frames = [V for V, _ in box_frames(rng)]
        frames += [v for v in TestFacetAssembly.frames() if is_box(v)]
        assert len(frames) == 36 + 7
        for V in frames:
            p, q = build_section(Frame(V)), hull_section(V)
            assert volume(p) == section_volume_fast(V)
            assert volume(p) == pytest.approx(volume(q), rel=1e-14)
            # each vertex of p within 1e-15 max |vertex| of its own of q
            scale = np.abs(q.vertices).max()
            d = np.linalg.norm(p.vertices[:, None] - q.vertices[None], axis=2)
            match = d.argmin(axis=1)
            assert sorted(match.tolist()) == list(range(len(q.vertices))) == list(range(2**V.shape[1]))
            assert d.min(axis=1).max() <= 1e-15 * scale
            assert len(p.facets) == len(q.facets)
            for f, g in zip(p.facets, q.facets):
                assert (f.normals, f.row_ids) == (g.normals, g.row_ids)
                assert f.normal_vector.tobytes() == g.normal_vector.tobytes()
                assert sorted(match[list(f.vertex_indices)].tolist()) == list(g.vertex_indices)
                assert f.measure == pytest.approx(g.measure, rel=1e-14)
                assert np.linalg.norm(f.centroid - g.centroid) <= 1e-14 * np.linalg.norm(g.centroid)
                assert not (f.centroid.flags.writeable or f.normal_vector.flags.writeable)
            assert p.generator_facets.keys() == q.generator_facets.keys()
            for i, (f, sign) in p.generator_facets.items():
                assert (f.row_ids, sign) == (q.generator_facets[i][0].row_ids, q.generator_facets[i][1])

    def test_rebuilds_of_a_box_section(self):
        # a shifted or tilted box section is not a centred parallelepiped:
        # the rebuilds read the flag sum of their own points, bitwise, and a
        # shift by h of the facet of u widens its slab from 2 to 2 + h |u|
        rng = np.random.default_rng(74)
        for V, _ in box_frames(rng):
            k = V.shape[1]
            p = build_section(Frame(V))
            vol = section_volume_fast(V)
            for f in p.facets[:2]:
                W = p._section.P
                c = np.ones(len(W))
                c[list(f.row_ids)] += 0.1 * np.linalg.norm(W[list(f.row_ids)], axis=1)
                shifted = shifted_section_volume(p, f, 0.1)
                assert shifted == float(
                    polytope._Section(W / c[:, None]).table(moments=False)[:, -1].sum())
                u = 1 / f.distance
                assert shifted == pytest.approx(vol * (2 + 0.1 * u) / 2, rel=1e-14)
                t = rng.standard_normal(k)
                t -= (t @ f.normal_vector) / (f.normal_vector @ f.normal_vector) * f.normal_vector
                t /= np.linalg.norm(t)
                W = W.copy()
                W[list(f.row_ids)] += 0.05 * t
                assert rotated_section_volume(p, f, t, 0.05) == float(
                    polytope._Section(W).table(moments=False)[:, -1].sum())


@pytest.fixture
def hulls(monkeypatch):
    """The hulls built from here on, by kind: Qhull's and the planar scan's."""
    built = []

    def counted(kind, build):
        def run(*args, **kwargs):
            built.append(kind)
            return build(*args, **kwargs)
        return run

    monkeypatch.setattr(polytope, "ConvexHull", counted("qhull", ConvexHull))
    monkeypatch.setattr(polytope, "_planar_hull", counted("planar", polytope._planar_hull))
    return built


class TestQhullCalls:
    def test_one_hull_per_section(self, hulls, monkeypatch):
        # build_section and section_volume_fast share the hull of +-V: on a
        # fresh frame the first of them builds one, the second none, in
        # either order; a _Section given the ties, the ascent's, builds
        # its own.  One decision on every route: at k >= 3 none of the three
        # builds a hull exactly when _clusters finds k clusters, a box,
        # which here are the signed box frames and the digests' box family.
        # They share one volume too: build_section, volume of it and two
        # section_volume_fast calls run one volume-only flag sum off a box
        # at k >= 3, in either order, and a box runs none
        sums = []

        def summed(P, Y, tables, moments=True):
            sums.append(moments)
            return flag_sum(P, Y, tables, moments)

        flag_sum = polytope._flag_sum
        monkeypatch.setattr(polytope, "_flag_sum", summed)

        def build(s):
            return volume(build_section(s))

        def fast(s):
            return section_volume_fast(s.vectors)

        def gradient(s):
            return volume_and_gradient(s.vectors)

        rng = np.random.default_rng(41)
        frames = []
        for n, k in ((3, 2), (10, 2), (7, 3), (7, 4), (12, 4), (8, 5)):
            frames += [(random_tight_frame(n, k, rng), "random"),
                       (signed_box_frame(n, k, rng), "box")]
        frames += [(volume_digest.make_frame(n, k, family, 0), family)
                   for n, k in volume_digest.CELLS if 3 <= k <= 5 for family in FAMILIES]
        for s, family in frames:
            k = s.k
            one = ["planar" if k == 2 else "qhull"]
            box = k >= 3 and len(polytope._clusters(s.vectors)[2]) == k
            assert box == (k >= 3 and family == "box")
            for first, second in ((build, fast), (fast, build)):
                # a fresh frame: forget the last section hull
                monkeypatch.setattr(polytope, "_last_section", (None, None), raising=False)
                sums.clear()
                for run, want in ((first, [] if box else one), (second, []), (fast, [])):
                    hulls.clear()
                    run(s)
                    assert hulls == want
                    assert sums.count(False) == int(k >= 3 and not box)
                hulls.clear()
                gradient(s)
                assert hulls == ([] if box else one)
            p = build_section(s)
            hulls.clear()
            verify_frame(s, p)
            assert hulls == []

    def test_maximize_at_a_box_builds_no_hull(self, hulls):
        # the warm start, a box, reads one volume from det U and stops;
        # maximize's final verify_frame reads its section from U^-1
        result = maximize(OptimizerConfig(7, 4, restarts=0))
        assert [r.start for r in result.restarts] == ["warm"]
        assert result.conditions.passed
        assert hulls == []


class TestSectionHull:
    """The one slot that build_section and section_volume_fast share: it
    serves a section only for vectors of the same dtype, shape and bytes."""

    def test_changed_in_place(self, hulls):
        rng = np.random.default_rng(66)
        for n, k in ((6, 2), (7, 3), (7, 4)):
            V = random_tight_frame(n, k, rng).vectors.copy()
            section_volume_fast(V)
            V[0] *= 1.5
            hulls.clear()
            vol = section_volume_fast(V)
            assert len(hulls) == 1
            assert vol == volume_and_gradient(V.copy())[0]
            hulls.clear()
            assert volume(build_section(Frame(V))) == pytest.approx(vol, rel=1e-13)
            assert hulls == []

    def test_same_bytes_other_shape(self, hulls):
        # V and V.reshape(m, j) give +-V the same bytes in another shape
        rng = np.random.default_rng(67)
        for (n, k), (m, j) in (((6, 2), (4, 3)), ((12, 2), (6, 4)), ((6, 4), (8, 3))):
            V = random_tight_frame(n, k, rng).vectors
            for a, b in ((V, V.reshape(m, j)), (V.reshape(m, j), V)):
                section_volume_fast(a)
                hulls.clear()
                assert section_volume_fast(b) == volume_and_gradient(b)[0]
                assert hulls[0] == ("planar" if b.shape[1] == 2 else "qhull")

    def test_a_failed_build_stores_nothing(self, hulls, monkeypatch):
        rng = np.random.default_rng(68)
        good = random_tight_frame(7, 3, rng).vectors
        flat = np.column_stack([random_tight_frame(7, 2, rng).vectors, np.zeros(7)])
        vol = section_volume_fast(good)
        for _ in range(2):
            with pytest.raises(NotAFrameError):
                section_volume_fast(flat)
        hulls.clear()
        assert section_volume_fast(good) == vol
        assert hulls == []

        def refuse(*args, **kwargs):
            raise polytope.QhullError("refused")

        other = random_tight_frame(7, 3, rng).vectors
        monkeypatch.setattr(polytope, "ConvexHull", refuse)
        for _ in range(2):
            with pytest.raises(polytope.DegeneratePolytopeError):
                section_volume_fast(other)
        assert section_volume_fast(good) == vol

    def test_read_only(self):
        rng = np.random.default_rng(69)
        for n, k in ((6, 2), (7, 3), (8, 5)):
            V = random_tight_frame(n, k, rng).vectors
            section = polytope._section(V)
            hull, Y, rest = section.hull()
            if k == 2:
                assert isinstance(hull, tuple) and isinstance(Y, tuple)
                arrays = [section.P, rest]
            else:
                plan = rest
                arrays = [section.P, hull.simplices, hull.neighbors, hull.equations, Y,
                          *plan[:-1], *itertools.chain(*plan.steps)]
            assert arrays and not any(a.flags.writeable for a in arrays)
            assert polytope._section(V.copy()).hull()[1] is Y


class TestVolumeDigest:
    def test_call_order_does_not_matter(self, capsys):
        # which of build_section and section_volume_fast builds the hull
        # they share changes no number of either, nor of the gradient
        for n, k in ((6, 2), (7, 3), (7, 4), (8, 5)):
            for family in FAMILIES:
                assert records(n, k, family, 2, "fast") == records(n, k, family, 2, "build")
        # a line is the cell, the family, the frame count and one digest
        # per route: fast, build, gradient
        assert volume_digest.main(["--frames", "2", "--cells", "7:3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[:4] for line in lines] == [["7", "3", f, "2"] for f in FAMILIES]
        for line, family in zip(lines, FAMILIES):
            assert line.split()[4:] == digests(records(7, 3, family, 2))
        assert volume_digest.ROUTES == ("fast", "build", "gradient")

    def test_closure_lines(self, capsys):
        # --closure follows each digest line, unchanged, with the worst
        # facet closure of the build route over the same frames
        assert volume_digest.main(["--frames", "2", "--cells", "7:3"]) == 0
        plain = capsys.readouterr().out.splitlines()
        assert volume_digest.main(["--frames", "2", "--cells", "7:3", "--closure"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[::2] == plain
        for line, family in zip(lines[1::2], FAMILIES):
            head, worst = line.rsplit(" ", 1)
            assert head == f"closure 7 3 {family} 2"
            assert 0 <= float(worst) <= 1e-15
            assert worst == f"{volume_digest.worst_closure(7, 3, family, 2):.3g}"

    def test_k1_lines(self, capsys):
        # a k = 1 cell digests the fast and build routes; its section has
        # no hull, so the gradient route prints "-", and a closure line
        # follows as at any k
        assert {(5, 1), (9, 1)} <= set(volume_digest.CELLS)
        with pytest.raises(ValueError, match="2-D"):
            volume_and_gradient(volume_digest.make_frame(9, 1, "near_parallel", 0).vectors)
        assert volume_digest.main(["--frames", "2", "--cells", "9:1", "--closure"]) == 0
        lines = capsys.readouterr().out.splitlines()
        line, closure = lines[2 * FAMILIES.index("near_parallel"):][:2]
        fast, build, gradient = digests(records(9, 1, "near_parallel", 2))
        assert line.split() == ["9", "1", "near_parallel", "2", fast, build, "-"]
        assert gradient == "-"
        head, worst = closure.rsplit(" ", 1)
        assert head == "closure 9 1 near_parallel 2"
        assert 0 <= float(worst) <= 1e-15


class TestFaceHolders:
    def test_holders_do_not_depend_on_memory_layout(self):
        # the same sorted simplices (as _hull_plan hands them over at k > 3)
        # in C order, in Fortran order and as a view with negative strides
        # must give _face_slots the same keys and slots, so the same holder
        # of every face; the holders of Qhull's own simplices hold their faces
        rng = np.random.default_rng(38)
        for k in (3, 4, 5, 6):
            plan = _flag_plan(k)
            for _ in range(5):
                v = random_tight_frame(int(rng.integers(k + 1, k + 4)), k, rng).vectors
                P = np.vstack([v, -v])
                simplices = np.ascontiguousarray(ConvexHull(P).simplices)
                ordered = np.sort(simplices, axis=1)
                layouts = (ordered, np.asfortranarray(ordered),
                           np.ascontiguousarray(ordered[::-1])[::-1])
                for sub in plan.subsets:
                    (key, slot), *others = [_face_slots(s, sub, len(P)) for s in layouts]
                    for other_key, other_slot in others:
                        np.testing.assert_array_equal(other_key, key)
                        np.testing.assert_array_equal(other_slot, slot)
                holders = _face_holders(simplices, plan.subsets, len(P))
                for sub, holder in zip(plan.subsets, holders):
                    for f, g in itertools.product(range(len(simplices)), range(len(sub))):
                        assert set(simplices[f, sub[g]]) <= set(simplices[holder[f, g]])


def groups_of(label):
    """Rows by group, groups in the order of their labels."""
    groups = [[] for _ in range(max(label) + 1)]
    for r, g in enumerate(label):
        groups[g].append(r)
    return groups


class TestRowGroups:
    def test_matches_reference(self):
        rng = np.random.default_rng(33)
        for n, k in ((3, 2), (10, 2), (7, 3), (7, 4), (12, 4)):
            for make in (signed_box_frame, near_parallel_frame, random_tight_frame):
                v = make(n, k, rng).vectors
                W = np.vstack([v, -v])
                for tol in (1e-9, 1e-6):
                    assert groups_of(_coincident_row_groups(W, tol)) == reference_row_groups(W, tol)

    def test_box_frame_groups_are_its_parts(self):
        s = extremal_frame(7, 3, signs=[1, -1, 1, 1, -1, 1, -1])
        W = np.vstack([s.vectors, -s.vectors])
        groups = groups_of(_coincident_row_groups(W, 1e-9))
        assert len(groups) == 6
        assert groups[0] == [0, 2, 8]


class TestFacetGeometry:
    def test_square_centroids(self):
        p = build_section(square_frame())
        cents = sorted_rows([f.centroid for f in p.facets])
        np.testing.assert_allclose(
            cents, [[-1, 0], [0, -1], [0, 1], [1, 0]], atol=1e-12
        )

    def test_rectangle_centroid_on_axis(self):
        p = build_section(extremal_frame(5, 2))
        f = p.generator_facets[0][0]  # x-block generator
        np.testing.assert_allclose(np.abs(f.centroid), [math.sqrt(3), 0.0], atol=1e-12)

    def test_triangle_facet_barycenter(self):
        # corner of the cube cut by a diagonal slab: triangular facet
        s = Frame([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.4, 0.4, 0.4]])
        p = build_section(s)
        f = p.generator_facets[3][0]
        tri = np.asarray(p.vertices)[list(f.vertex_indices)]
        assert len(tri) == 3
        np.testing.assert_allclose(f.centroid, tri.mean(axis=0), atol=1e-12)
        assert max(exact_errors(s)) <= 1e-13

    def test_recomputed_centroid_matches_stored(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 8))
            assert max(exact_errors(random_tight_frame(n, k, rng))) <= 1e-13

    def test_recomputed_centroid_matches_stored_k5(self):
        rng = np.random.default_rng(28)
        for n in (6, 7, 9):
            for _ in range(2):
                assert max(exact_errors(random_tight_frame(n, 5, rng))) <= 1e-13

    def test_facet_vertices_on_hyperplane(self):
        rng = np.random.default_rng(27)
        p = build_section(random_tight_frame(7, 3, rng))
        for f in p.facets:
            pts = np.asarray(p.vertices)[list(f.vertex_indices)]
            np.testing.assert_allclose(pts @ f.normal_vector, 1.0, atol=1e-9)


class TestShiftPredictor:
    def test_square_facet(self):
        p = build_section(square_frame())
        f = p.generator_facets[0][0]
        assert shift_facet_predict(p, f, 0.1) == pytest.approx(0.2)
        # exact rebuild: moving one side of the square is exactly linear
        assert shifted_section_volume(p, f, 0.1) - volume(p) == pytest.approx(0.2)

    def test_rectangle_facet(self):
        p = build_section(extremal_frame(5, 2))
        f = p.generator_facets[0][0]
        h = 0.05
        assert shift_facet_predict(p, f, h) == pytest.approx(h * 2 * math.sqrt(2))

    def test_zero_shift(self):
        p = build_section(square_frame())
        assert shift_facet_predict(p, p.facets[0], 0.0) == 0.0

    @staticmethod
    def assert_converges(p, f, sign):
        """The predictor's error against the rebuild falls faster than h,
        unless it is at rounding already."""
        base = volume(p)
        errs = []
        for h in (1e-3, 1e-4, 1e-5):
            delta = shifted_section_volume(p, f, sign * h) - base
            errs.append(abs(delta - shift_facet_predict(p, f, sign * h)))
        if errs[0] >= 1e-11:
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] <= 0.1 * errs[0]

    def test_finite_difference_convergence(self):
        rng = np.random.default_rng(28)
        for _ in range(15):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 1, 8))
            p = build_section(random_tight_frame(n, k, rng))
            f = p.facets[int(rng.integers(len(p.facets)))]
            self.assert_converges(p, f, 1.0 if rng.random() < 0.5 else -1.0)

    def test_finite_difference_convergence_k4(self):
        rng = np.random.default_rng(44)
        for n in (5, 6, 8):
            for _ in range(3):
                p = build_section(random_tight_frame(n, 4, rng))
                f = p.facets[int(rng.integers(len(p.facets)))]
                self.assert_converges(p, f, 1.0 if rng.random() < 0.5 else -1.0)

    def test_interval_shift_is_linear(self):
        # k = 1: a facet is an end of the interval, a point of content 1,
        # and the shift moves it out by exactly h
        rng = np.random.default_rng(45)
        for n in (2, 3, 5, 8):
            p = build_section(random_tight_frame(n, 1, rng))
            base = volume(p)
            for f in p.facets:
                for h in (1e-3, -1e-4, 1e-6, -0.25):
                    assert shift_facet_predict(p, f, h) == h
                    assert abs(shifted_section_volume(p, f, h) - base - h) <= 1e-12 * base


class TestRotatePredictor:
    def test_centered_facet_has_zero_slope(self):
        p = build_section(square_frame())
        f = p.generator_facets[0][0]
        w = f.normal_vector
        u = np.array([0.0, 1.0])
        assert rotate_facet_predict(p, f, w, u, 0.3) == pytest.approx(0.0, abs=1e-14)

    def test_zero_t(self):
        p = build_section(hexagonal_frame())
        f = p.facets[0]
        w = f.normal_vector
        u = np.array([-w[1], w[0]]) / np.linalg.norm(w)
        assert rotate_facet_predict(p, f, w, u, 0.0) == 0.0

    def test_orthogonality_enforced(self):
        p = build_section(square_frame())
        f = p.generator_facets[0][0]
        with pytest.raises(ValueError, match="orthogonal"):
            rotate_facet_predict(p, f, f.normal_vector, np.array([1.0, 0.0]), 0.1)
        with pytest.raises(ValueError, match="unit"):
            rotate_facet_predict(p, f, f.normal_vector, np.array([0.0, 2.0]), 0.1)

    def test_off_center_facet_nonzero_slope(self):
        # square corner clipped asymmetrically: the cut facet's centroid
        # does not lie on the axis of its normal
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.7, 0.4]])
        p = build_section(s)
        f = p.generator_facets[2][0]
        w = f.normal_vector
        u = np.array([-w[1], w[0]]) / np.linalg.norm(w)
        pred = rotate_facet_predict(p, f, w, u, 1.0)
        assert abs(pred) > 1e-3
        base = volume(p)
        t = 1e-5
        fd = (rotated_section_volume(p, f, u, t) - base) / t
        assert fd == pytest.approx(pred, rel=1e-3)

    def test_finite_difference_convergence(self):
        rng = np.random.default_rng(29)
        for _ in range(15):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 1, 8))
            p = build_section(random_tight_frame(n, k, rng))
            f = p.facets[int(rng.integers(len(p.facets)))]
            w = f.normal_vector
            u = rng.standard_normal(k)
            u -= np.dot(u, w) / np.dot(w, w) * w
            u /= np.linalg.norm(u)
            base = volume(p)
            errs = []
            for t in (1e-3, 1e-4, 1e-5):
                delta = rotated_section_volume(p, f, u, t) - base
                errs.append(abs(delta - rotate_facet_predict(p, f, w, u, t)))
            if errs[0] < 1e-11:
                continue
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] <= 0.1 * errs[0]
