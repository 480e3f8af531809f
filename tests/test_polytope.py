"""Tests for section construction, volumes, facets, and facet transformations."""

import itertools
import math

import numpy as np
import pytest

from cubesec.frame_core import (
    Frame,
    NotAFrameError,
    TightFrame,
    frame_edit,
    random_tight_frame,
    whiten,
)
from cubesec.polytope import (
    DegenerateFacetError,
    FacetRecord,
    _coincident_row_groups,
    _halfspace_volume,
    _polar_hull,
    build_section,
    convex_volume,
    facet_centroid,
    pyramid_volume,
    rotate_facet_predict,
    rotated_section_volume,
    section_volume_fast,
    shift_facet_predict,
    shifted_section_volume,
    volume,
    volume_by_triangulation,
)
from cubesec.bounds import c_cube, default_partition, extremal_frame
from oracles import exact_cone_volumes, exact_volume, halfspace_vertices


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
    v = np.asarray(vectors, dtype=float)
    v = v[np.linalg.norm(v, axis=1) > 1e-14]
    W = np.vstack([v, -v])
    return convex_volume(halfspace_vertices(W, np.ones(len(W))), v.shape[1])


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
    """Relative errors of the fast volume and of every facet's cone volume
    (distance * measure / k) against the exact rational oracle.

    A facet record of a group of coincident rows is held to the summed
    exact cones of those rows; every exact facet must have a record.
    """
    v = s.vectors[np.linalg.norm(s.vectors, axis=1) > 1e-14]
    W = np.vstack([v, -v])
    cones = exact_cone_volumes(W)
    exact = float(sum(cones.values()))
    p = build_section(s)
    errors = [abs(section_volume_fast(s.vectors) - exact) / exact]
    covered = set()
    for f in p.facets:
        mine = [rows for rows in cones if rows <= set(f.row_ids)]
        covered.update(mine)
        want = float(sum(cones[rows] for rows in mine))
        errors.append(abs(f.distance * f.measure / s.k - want) / want)
    assert covered == set(cones)
    return errors


def nearest_relative_distance(v):
    """Least distance between two different points of +-V, relative to the longer."""
    P = np.vstack([v, -v])
    d = np.linalg.norm(P[:, None] - P[None], axis=2)
    r = np.linalg.norm(P, axis=1)
    rel = d / np.maximum(r[:, None], r[None])
    return rel[d > 0].min()


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

    def test_rank_deficient_rejected(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0]], require_span=False)
        flat = [
            np.array([[1.0, 0.0], [2.0, 0.0]]),
            np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
            # spans only in rounding: Qhull builds a hull 1e-13 thick
            np.array([[1.0, 0.0], [1.0, 1e-13], [0.5, 0.0]]),
        ]
        assert build_section(s) is not None
        for v in flat:
            bad = Frame(v, require_span=False)
            with pytest.raises(NotAFrameError, match="not a frame"):
                build_section(bad)
            with pytest.raises(NotAFrameError, match="not a frame"):
                section_volume_fast(bad.vectors)

    def test_tangent_slab_yields_no_facet(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        p = build_section(s)
        assert len(p.facets) == 4
        assert p.facet_of_generator(2) is None
        assert p.facet_of_generator(0) is not None

    def test_zero_vector_contributes_nothing(self):
        p_with = build_section(Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        p_without = build_section(square_frame())
        np.testing.assert_allclose(
            sorted_rows(p_with.vertices), sorted_rows(p_without.vertices)
        )

    def test_parallel_generators_share_facet(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        p = build_section(s)
        f = p.facet_of_generator(0)
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
        rng = np.random.default_rng(22)
        for _ in range(30):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 8))
            p = build_section(random_tight_frame(n, k, rng))
            total = sum(pyramid_volume(p, f) for f in p.facets)
            assert total == pytest.approx(volume(p), rel=1e-9)

    def test_removing_a_vector_never_shrinks(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 2, 9))
            s = random_tight_frame(n, k, rng)
            before = volume(build_section(s))
            i = int(rng.integers(n))
            try:
                after = volume(build_section(frame_edit(s, remove=i)))
            except NotAFrameError:
                continue
            assert after >= before - 1e-9 * before

    def test_duplicate_append_leaves_section_unchanged(self):
        rng = np.random.default_rng(24)
        s = random_tight_frame(6, 3, rng)
        dup = frame_edit(s, append=s.vectors[2])
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
            total = sum(pyramid_volume(p, f) for f in p.facets)
            assert total == pytest.approx(volume(p), rel=1e-9)
            assert volume(p) <= bound + 1e-9
            if s.k == 2:
                # the polar route has no slack: it matches the exact edges
                assert section_volume_fast(s.vectors) == pytest.approx(volume(p), rel=1e-15)
            else:
                assert max(exact_errors(s)) <= 1e-13

    def test_fast_path_agrees(self):
        rng = np.random.default_rng(25)
        for _ in range(30):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(k + 1, 9))
            s = random_tight_frame(n, k, rng)
            assert section_volume_fast(s.vectors) == pytest.approx(
                volume(build_section(s)), rel=1e-9
            )

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
        # two points of +-V at relative distance 3e-5, against the
        # enumeration without slack
        for seed, n, k, pairs in ((3, 6, 3, 2), (9, 7, 3, 3), (130, 7, 4, 2), (72, 8, 4, 3),
                                  (169, 9, 4, 4)):
            v = nearly_paired_frame(n, k, pairs, 3e-5, np.random.default_rng([seed, n, pairs]))
            assert 2e-5 <= nearest_relative_distance(v) <= 5e-5
            W = np.vstack([v, -v])
            exact = convex_volume(halfspace_vertices(W, np.ones(len(W)), 1e-13), k)
            assert section_volume_fast(v) == pytest.approx(exact, rel=1e-13)

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
            signs = np.array(list(itertools.product((1.0, -1.0), repeat=k - 1)))
            v = np.column_stack([signs, np.ones(len(signs))]) / math.sqrt(2 ** (k - 1))
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
                    assert _halfspace_volume(A, b) == pytest.approx(exact, rel=1e-12)


class TestExactVolume:
    """The fast volume and every facet's cone against exact rational volumes."""

    def test_moved_facets(self):
        # the flag sum on bodies that are not centrally symmetric: {W x <= c}
        # with two rows of a section shifted or tilted
        rng = np.random.default_rng(37)
        for k in (3, 4, 5):
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
                    assert _halfspace_volume(A, b) == pytest.approx(exact, rel=1e-13)

    def test_near_parallel_pool_frames(self):
        # pool index 182 at (7, 4) made Qhull raise a wide merge in an
        # earlier two-hull route
        cells = [(7, 3, j) for j in range(10)] + [(7, 4, j) for j in (0, 1, 2, 3, 4, 182)]
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
        _, _, Y = _polar_hull(W, np.ones(len(W)))
        assert convex_volume(Y, 4) == pytest.approx(fast, rel=1e-13)

    def test_duplicated_vector(self):
        rng = np.random.default_rng(35)
        for k in (3, 4, 5):
            for delta in (1e-5, 1e-7, 1e-9, 1e-11, 1e-13):
                assert max(exact_errors(duplicated_frame(k, delta, rng))) <= 1e-13

    def test_box_frames(self):
        rng = np.random.default_rng(36)
        for n, k in ((7, 3), (7, 4), (6, 5)):
            assert max(exact_errors(signed_box_frame(n, k, rng))) <= 1e-13


def reference_row_groups(W, tol):
    """Union-find over every pair of rows within ``tol`` in every coordinate."""
    m = len(W)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if np.max(np.abs(W[i] - W[j])) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


class TestRowGroups:
    def test_matches_reference(self):
        rng = np.random.default_rng(33)
        for n, k in ((3, 2), (10, 2), (7, 3), (7, 4), (12, 4)):
            for make in (signed_box_frame, near_parallel_frame, random_tight_frame):
                v = make(n, k, rng).vectors
                W = np.vstack([v, -v])
                for tol in (1e-9, 1e-6):
                    assert _coincident_row_groups(W, tol) == reference_row_groups(W, tol)

    def test_box_frame_groups_are_its_parts(self):
        s = extremal_frame(7, 3, signs=[1, -1, 1, 1, -1, 1, -1])
        W = np.vstack([s.vectors, -s.vectors])
        groups = _coincident_row_groups(W, 1e-9)
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
        f = p.facet_of_generator(0)  # x-block generator
        np.testing.assert_allclose(np.abs(f.centroid), [math.sqrt(3), 0.0], atol=1e-12)

    def test_triangle_facet_barycenter(self):
        # corner of the cube cut by a diagonal slab: triangular facet
        s = Frame([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [0.4, 0.4, 0.4]])
        p = build_section(s)
        f = p.facet_of_generator(3)
        tri = np.asarray(p.vertices)[list(f.vertex_indices)]
        assert len(tri) == 3
        np.testing.assert_allclose(f.centroid, tri.mean(axis=0), atol=1e-12)
        np.testing.assert_allclose(facet_centroid(p, f), f.centroid, atol=1e-12)

    def test_recomputed_centroid_matches_stored(self):
        rng = np.random.default_rng(26)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 8))
            p = build_section(random_tight_frame(n, k, rng))
            for f in p.facets:
                np.testing.assert_allclose(
                    facet_centroid(p, f), f.centroid, atol=1e-10
                )

    def test_recomputed_centroid_matches_stored_k5(self):
        # each simplex of the facet is weighted by |det e|; a Gram
        # determinant det(e e^T) squares the simplex's condition and put
        # the recomputed centroids up to 5.5e-9 off at k = 5
        rng = np.random.default_rng(28)
        for n in (6, 7, 9):
            for _ in range(2):
                p = build_section(random_tight_frame(n, 5, rng))
                for f in p.facets:
                    np.testing.assert_allclose(facet_centroid(p, f), f.centroid, rtol=0, atol=1e-12)

    def test_facet_vertices_on_hyperplane(self):
        rng = np.random.default_rng(27)
        p = build_section(random_tight_frame(7, 3, rng))
        for f in p.facets:
            pts = np.asarray(p.vertices)[list(f.vertex_indices)]
            np.testing.assert_allclose(pts @ f.normal_vector, 1.0, atol=1e-9)

    def test_degenerate_facet_raises(self):
        p = build_section(square_frame())
        fake = FacetRecord(
            normals=((0, 1),),
            vertex_indices=(0, 0),
            measure=0.0,
            centroid=np.zeros(2),
            normal_vector=np.array([1.0, 0.0]),
            distance=1.0,
        )
        with pytest.raises(DegenerateFacetError, match="degenerate facet"):
            facet_centroid(p, fake)


class TestShiftPredictor:
    def test_square_facet(self):
        p = build_section(square_frame())
        f = p.facet_of_generator(0)
        assert shift_facet_predict(p, f, 0.1) == pytest.approx(0.2)
        # exact rebuild: moving one side of the square is exactly linear
        assert shifted_section_volume(p, f, 0.1) - volume(p) == pytest.approx(0.2)

    def test_rectangle_facet(self):
        p = build_section(extremal_frame(5, 2))
        f = p.facet_of_generator(0)
        h = 0.05
        assert shift_facet_predict(p, f, h) == pytest.approx(h * 2 * math.sqrt(2))

    def test_zero_shift(self):
        p = build_section(square_frame())
        assert shift_facet_predict(p, p.facets[0], 0.0) == 0.0

    def test_finite_difference_convergence(self):
        rng = np.random.default_rng(28)
        for _ in range(15):
            k = int(rng.integers(2, 4))
            n = int(rng.integers(k + 1, 8))
            p = build_section(random_tight_frame(n, k, rng))
            f = p.facets[int(rng.integers(len(p.facets)))]
            sign = 1.0 if rng.random() < 0.5 else -1.0
            base = volume(p)
            errs = []
            for h in (1e-3, 1e-4, 1e-5):
                delta = shifted_section_volume(p, f, sign * h) - base
                errs.append(abs(delta - shift_facet_predict(p, f, sign * h)))
            if errs[0] < 1e-11:
                continue
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] <= 0.1 * errs[0]


class TestRotatePredictor:
    def test_centered_facet_has_zero_slope(self):
        p = build_section(square_frame())
        f = p.facet_of_generator(0)
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
        f = p.facet_of_generator(0)
        with pytest.raises(ValueError, match="orthogonal"):
            rotate_facet_predict(p, f, f.normal_vector, np.array([1.0, 0.0]), 0.1)
        with pytest.raises(ValueError, match="unit"):
            rotate_facet_predict(p, f, f.normal_vector, np.array([0.0, 2.0]), 0.1)

    def test_off_center_facet_nonzero_slope(self):
        # square corner clipped asymmetrically: the cut facet's centroid
        # does not lie on the axis of its normal
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.7, 0.4]])
        p = build_section(s)
        f = p.facet_of_generator(2)
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
