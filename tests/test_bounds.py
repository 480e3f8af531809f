"""Tests for closed-form bounds, extremal constructions, and planar machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cubesec.frame_core import Frame, TightFrame, frame_operator
from cubesec.polytope import build_section, volume
from cubesec.bounds import (
    BoundsReport,
    PlanarAngles,
    ball_ratio,
    ball_upper,
    c_cube,
    c_cube_squared,
    claim_bounds,
    default_partition,
    extremal_frame,
    extremal_squared_volume_exact,
    g,
    h,
    planar_angles,
    planar_area,
    q,
    vaaler_lower,
)
from test_conditions import turned_box_frame


def cyclic_polygon_frame(rng, f=None):
    """Random centrally symmetric cyclic polygon, returned as its frame.

    Draw f half-angles summing to pi/2 and a circumradius, then place one
    generator per facet pair: direction at the edge's mid-angle, length the
    reciprocal of the edge distance R cos(phi).
    """
    if f is None:
        f = int(rng.integers(2, 7))
    w = rng.uniform(0.3, 1.0, size=f)
    phi = w / w.sum() * (math.pi / 2)
    r = rng.uniform(0.5, 3.0)
    start = rng.uniform(0, 2 * math.pi)
    vertex_angles = start + 2 * np.concatenate([[0.0], np.cumsum(phi)])
    vectors = []
    for i in range(f):
        mid = (vertex_angles[i] + vertex_angles[i + 1]) / 2
        dist = r * math.cos(phi[i])
        vectors.append([math.cos(mid) / dist, math.sin(mid) / dist])
    return Frame(vectors), phi, r


class TestClosedForms:
    def test_optimal_ratio_examples(self):
        assert c_cube(5, 2) == pytest.approx(math.sqrt(6), rel=1e-15)
        assert c_cube(7, 2) == pytest.approx(2 * math.sqrt(3), rel=1e-15)
        assert c_cube(6, 3) == pytest.approx(2 * math.sqrt(2), rel=1e-15)

    def test_divisible_case(self):
        for n, k in [(4, 2), (6, 2), (6, 3), (8, 4), (12, 3)]:
            assert c_cube(n, k) == pytest.approx((n / k) ** (k / 2), rel=1e-14)

    def test_squared_value_is_integer(self):
        assert c_cube_squared(5, 2) == 6
        assert c_cube_squared(7, 3) == 12
        assert c_cube_squared(11, 4) == 3**3 * 2

    def test_ball_examples(self):
        assert ball_upper(4, 2) == pytest.approx(8.0)
        assert ball_upper(3, 2) == pytest.approx(4 * math.sqrt(2), rel=1e-15)
        # planar sections one dimension down: bounded by 2(n-1), with
        # equality once the dimension-ratio factor is the smaller one
        for n in range(4, 12):
            assert ball_upper(n - 1, 2) <= 2 * (n - 1) + 1e-12
        for n in range(5, 12):
            assert ball_upper(n - 1, 2) == pytest.approx(2 * (n - 1))

    def test_vaaler(self):
        assert vaaler_lower(2) == 4.0 and vaaler_lower(3) == 8.0

    def test_bound_ordering_grid(self):
        for n in range(2, 21):
            for k in range(1, n):
                lo = vaaler_lower(k)
                mid = c_cube(n, k) * 2**k
                hi = ball_upper(n, k)
                assert lo <= mid * (1 + 1e-14)
                assert mid <= hi * (1 + 1e-14)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(ValueError):
            c_cube_squared(2, 3)
        with pytest.raises(ValueError):
            ball_ratio(0, 0)


class TestExtremalFrame:
    def test_default_partition_balanced(self):
        parts = default_partition(7, 3)
        assert [len(p) for p in parts] == [3, 2, 2]
        assert sorted(i for p in parts for i in p) == list(range(7))

    def test_frame_is_tight_with_block_lengths(self):
        for n, k in [(5, 2), (7, 3), (9, 4), (4, 1)]:
            s = extremal_frame(n, k)
            np.testing.assert_allclose(frame_operator(s), np.eye(k), atol=1e-12)
            sizes = [len(p) for p in default_partition(n, k)]
            expected = sorted(1 / d for d in sizes for _ in range(d))
            np.testing.assert_allclose(
                np.sort(s.squared_lengths()), expected, rtol=1e-12
            )

    def test_box_volume_closed_form(self):
        for n in range(2, 10):
            for k in range(1, min(n, 5)):
                s = extremal_frame(n, k)
                sizes = [len(p) for p in default_partition(n, k)]
                expected = 2**k * math.sqrt(float(np.prod(sizes)))
                assert volume(build_section(s)) == pytest.approx(expected, rel=1e-12)
                assert expected == pytest.approx(2**k * c_cube(n, k), rel=1e-12)

    def test_unbalanced_partition_smaller_box(self):
        s = extremal_frame(5, 2, partition=[[0], [1, 2, 3, 4]])
        assert volume(build_section(s)) == pytest.approx(4 * math.sqrt(4), rel=1e-12)
        assert 8.0 < 4 * math.sqrt(6)

    def test_signs_do_not_change_volume(self):
        signs = [1, -1, 1, -1, 1]
        s = extremal_frame(5, 2, signs=signs)
        assert volume(build_section(s)) == pytest.approx(4 * math.sqrt(6), rel=1e-12)

    def test_invalid_partition_rejected(self):
        with pytest.raises(ValueError):
            extremal_frame(5, 2, partition=[[0, 1], [2, 3]])
        with pytest.raises(ValueError):
            extremal_frame(5, 2, partition=[[0, 1], [2, 3], [4]])
        with pytest.raises(ValueError):
            extremal_frame(5, 2, signs=[1, 1, 1, 1, 0])

    def test_exact_squared_volume(self):
        for n in range(2, 13):
            for k in range(1, min(n, 5)):
                sizes = [len(p) for p in default_partition(n, k)]
                expected = Fraction(4**k) * Fraction(int(np.prod(sizes)))
                assert extremal_squared_volume_exact(n, k) == expected
                assert expected == Fraction(4**k) * c_cube_squared(n, k)


class TestPlanarAngles:
    def test_rectangle(self):
        p = build_section(extremal_frame(5, 2))
        a = planar_angles(p)
        assert a.f == 2
        assert a.r == pytest.approx(math.sqrt(5), rel=1e-12)
        expected = sorted([math.atan(math.sqrt(2 / 3)), math.atan(math.sqrt(3 / 2))])
        np.testing.assert_allclose(np.sort(a.phi), expected, rtol=1e-12)
        assert a.phi.sum() == pytest.approx(math.pi / 2, rel=1e-12)
        assert planar_area(a) == pytest.approx(4 * math.sqrt(6), rel=1e-12)

    def test_regular_hexagon(self):
        r = math.sqrt(2 / 3)
        s = Frame(
            [(r * math.cos(j * math.pi / 3), r * math.sin(j * math.pi / 3)) for j in range(3)]
        )
        a = planar_angles(build_section(s))
        assert a.f == 3
        np.testing.assert_allclose(a.phi, math.pi / 6, rtol=1e-12)
        assert planar_area(a) == pytest.approx(a.r**2 * 3 * math.sqrt(3) / 2, rel=1e-12)

    def test_square(self):
        a = planar_angles(build_section(Frame(np.eye(2))))
        assert a.f == 2
        np.testing.assert_allclose(a.phi, math.pi / 4, rtol=1e-12)
        assert planar_area(a) == pytest.approx(2 * a.r**2, rel=1e-12)
        # a square one of whose facets holds a crossing point of its two rows
        p = build_section(turned_box_frame(4, 1e-11))
        assert len(p.vertices) > len(p.facets)
        a = planar_angles(p)
        assert a.f == 2
        np.testing.assert_allclose(a.phi, math.pi / 4, rtol=1e-9)
        assert planar_area(a) == pytest.approx(volume(p), rel=1e-9)

    def test_non_cyclic_rejected(self):
        th = math.pi / 3
        p = build_section(Frame([[1.0, 0.0], [math.cos(th), math.sin(th)]]))
        with pytest.raises(ValueError, match="cyclic"):
            planar_angles(p)

    def test_planar_only(self):
        with pytest.raises(ValueError, match="planar"):
            planar_angles(build_section(Frame(np.eye(3))))

    def test_area_identity_on_random_cyclic_polygons(self):
        rng = np.random.default_rng(50)
        for _ in range(100):
            frame, phi, r = cyclic_polygon_frame(rng)
            p = build_section(frame)
            a = planar_angles(p)
            assert a.f == len(phi)
            assert a.r == pytest.approx(r, rel=1e-9)
            np.testing.assert_allclose(np.sort(a.phi), np.sort(phi), rtol=1e-8)
            assert planar_area(a) == pytest.approx(volume(p), rel=1e-8)

    def test_angle_validation(self):
        with pytest.raises(ValueError):
            PlanarAngles(f=2, phi=[0.1, 0.2], r=1.0)  # does not sum to pi/2
        with pytest.raises(ValueError):
            PlanarAngles(f=2, phi=[math.pi / 2, 0.0], r=1.0)
        with pytest.raises(ValueError):
            PlanarAngles(f=2, phi=[math.pi / 4, math.pi / 4], r=-1.0)


class TestFacetCountFunctions:
    def test_table_values(self):
        assert g(2) == pytest.approx(2.0, abs=1e-12)
        assert g(3) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert g(4) == pytest.approx(4 * (math.sqrt(2) - 1), abs=1e-12)
        assert g(5) == pytest.approx(math.sqrt(5 * (5 - 2 * math.sqrt(5))), abs=1e-12)
        assert h(5) == pytest.approx(2 * math.sqrt(6) / 3, abs=1e-12)
        assert h(6) == pytest.approx(12 / 7, abs=1e-12)
        assert h(7) == pytest.approx(math.sqrt(3), abs=1e-12)
        assert g(3) == pytest.approx(h(7), abs=1e-12)

    def test_monotonicity(self):
        gs = [g(f) for f in range(2, 65)]
        assert all(a > b for a, b in zip(gs, gs[1:]))
        hs = [h(n) for n in range(2, 65)]
        assert all(a <= b for a, b in zip(hs, hs[1:]))

    def test_claim_bounds(self):
        assert claim_bounds(5) == 4
        assert claim_bounds(6) == 3
        assert claim_bounds(7) == 3
        for n in range(8, 30):
            assert claim_bounds(n) == 2

    def test_domain(self):
        with pytest.raises(ValueError):
            g(1)
        with pytest.raises(ValueError):
            h(1)


class TestIsoperimetric:
    def test_regular_polygon_equality(self):
        for f in (2, 3, 4, 5):
            a = PlanarAngles(f=f, phi=[math.pi / (2 * f)] * f, r=1.3)
            regular = a.r**2 * f * math.sin(math.pi / f)
            assert planar_area(a) == pytest.approx(regular, rel=1e-12)

    def test_rectangle_strict(self):
        a = PlanarAngles(f=2, phi=[0.3, math.pi / 2 - 0.3], r=1.0)
        regular = a.r**2 * 2 * math.sin(math.pi / 2)
        assert planar_area(a) < regular - 1e-3

    def test_random_polygons(self):
        # the regular polygon with the same f and r has the largest area
        rng = np.random.default_rng(51)
        for _ in range(50):
            _, phi, r = cyclic_polygon_frame(rng)
            a = PlanarAngles(f=len(phi), phi=phi, r=r)
            assert planar_area(a) <= r**2 * a.f * math.sin(math.pi / a.f) * (1 + 1e-12)


class TestAngleWeight:
    def test_stated_values(self):
        assert q(math.pi / 6) == pytest.approx(3 * math.sqrt(3) / 8, abs=1e-12)
        assert q(math.pi / 4) == pytest.approx(0.5, abs=1e-12)
        assert q(math.pi / 2 - 1e-9) == pytest.approx(0.0, abs=1e-8)

    def test_extrema_on_window(self):
        grid = np.linspace(math.pi / 10, math.pi / 4, 20001)
        vals = np.array([q(x) for x in grid])
        assert vals.max() == pytest.approx(3 * math.sqrt(3) / 8, abs=1e-9)
        assert abs(grid[vals.argmax()] - math.pi / 6) < 1e-3
        assert vals.min() == pytest.approx(0.5, abs=1e-9)
        assert vals.max() / vals.min() == pytest.approx(3 * math.sqrt(3) / 4, abs=1e-8)
        assert vals.max() / vals.min() < 2.0

    def test_domain(self):
        with pytest.raises(ValueError):
            q(0.0)


class TestCircumradiusBound:
    def test_known_maximizers_obey_the_cap(self):
        # r^2 <= (n+1)/2 / cos^2(pi / 2f) on optimal rectangles
        for n in range(3, 11):
            p = build_section(extremal_frame(n, 2))
            a = planar_angles(p)
            cap = (n + 1) / 2 / math.cos(math.pi / (2 * a.f)) ** 2
            assert a.r**2 <= cap + 1e-12
            # squared circumradius of the optimal rectangle is exactly n,
            # inside the cap (n+1)/2 / cos^2(pi/4) = n + 1
            assert a.r**2 == pytest.approx(n, rel=1e-9)


class TestSevenDimHexagon:
    def test_candidate_is_strictly_suboptimal(self):
        # the only surviving 3-pair candidate at n=7: equal generators of
        # squared length 2/7 on a circle of squared radius 14/3
        v_sq = 2 / 7
        r = math.sqrt(1 / (v_sq * math.cos(math.pi / 6) ** 2))
        assert r**2 == pytest.approx(14 / 3, rel=1e-12)
        a = PlanarAngles(f=3, phi=[math.pi / 6] * 3, r=r)
        area = planar_area(a)
        assert area == pytest.approx(7 * math.sqrt(3), rel=1e-12)
        assert area < 4 * c_cube(7, 2) - 1.0


class TestBoundsReport:
    def test_dict_fields(self):
        rep = BoundsReport.for_dimensions(5, 2, achieved_volume=9.0)
        d = rep.to_dict()
        assert d["vaaler_volume"] == 4.0
        assert d["ball_volume"] == pytest.approx(10.0)
        assert d["optimal_box_volume"] == pytest.approx(4 * math.sqrt(6), rel=1e-12)
        assert d["within_bounds"] is True
        assert 0.9 < d["fraction_of_optimal_box"] < 1.0

    def test_without_frame(self):
        d = BoundsReport.for_dimensions(4, 2).to_dict()
        assert "achieved_volume" not in d

    def test_rotated_coordinate_sections_are_within_bounds(self):
        # k orthonormal rows and n - k zero rows: a rotated coordinate
        # section, of volume exactly 2^k, which rounding puts on either side
        for k in (2, 3, 4):
            n = k + 1
            below = 0
            for seed in range(50):
                rng = np.random.default_rng([k, seed])
                rot = np.linalg.qr(rng.standard_normal((k, k)))[0]
                s = TightFrame(np.vstack([rot, np.zeros((n - k, k))]))
                vol = volume(build_section(s))
                assert vol == pytest.approx(2**k, rel=1e-14)
                below += vol < 2**k
                d = BoundsReport.for_dimensions(n, k, achieved_volume=vol).to_dict()
                assert d["within_bounds"] is True, (n, k, seed, vol)
            assert below > 0  # the draws reach the rounding this test is about
