"""Tests for the first-order criticality checks."""

import math
from fractions import Fraction

import numpy as np
import pytest

from cubesec.frame_core import Frame, TightFrame, random_tight_frame, whiten
from cubesec.polytope import build_section, volume
from cubesec.conditions import (
    check_cyclic,
    check_facet_correspondence,
    check_length_bounds,
    verify_frame,
)
from cubesec.bounds import extremal_frame
from oracles import exact_cone_volumes, section_rows


def hexagonal_frame():
    r = math.sqrt(2 / 3)
    return TightFrame(
        [(r * math.cos(j * math.pi / 3), r * math.sin(j * math.pi / 3)) for j in range(3)]
    )


def turned_box_frame(n, turn):
    """The (n, 2) box frame turned by 0.3 rad, with its first vector turned
    on by ``turn``, whitened.  The rows of the first vector's part are
    within ``EPS_GEOM`` of each other, so they share a facet, but they are
    not equal, so their lines cross at a vertex inside that facet's edge."""
    def rotation(t):
        return np.array([[math.cos(t), math.sin(t)], [-math.sin(t), math.cos(t)]])

    v = extremal_frame(n, 2).vectors @ rotation(0.3)
    v[0] = v[0] @ rotation(turn)
    return whiten(Frame(v))[1]


class TestFacetCorrespondence:
    def test_square_passes(self):
        s = Frame(np.eye(2))
        assert check_facet_correspondence(s, build_section(s)) == 0.0

    def test_tangent_slab_fails(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
        assert check_facet_correspondence(s, build_section(s)) == 1.0

    def test_zero_vector_fails(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert check_facet_correspondence(s, build_section(s)) == 1.0


def residual(s, check, p=None):
    return verify_frame(s, p).checks[check].residual


class TestCentroid:
    def test_square_exact(self):
        s = Frame(np.eye(2))
        assert residual(s, "centroid") == pytest.approx(0.0, abs=1e-12)

    def test_extremal_rectangle_exact(self):
        s = extremal_frame(5, 2)
        assert residual(s, "centroid") == pytest.approx(0.0, abs=1e-12)

    def test_rotated_constraint_off_centroid(self):
        th = math.pi / 2 + 0.2
        s = Frame([[1.0, 0.0], [math.cos(th), math.sin(th)]])
        assert residual(s, "centroid") > 1e-2


class TestFacetBalance:
    def test_extremal_rectangle(self):
        s = extremal_frame(5, 2)
        p = build_section(s)
        assert residual(s, "facet_balance", p) == pytest.approx(0.0, abs=1e-12)
        # pyramid share of the triple-multiplicity facet is (1/2)(3 * 1/3)/2
        f = p.generator_facets[0][0]
        assert f.multiplicity == 3
        # the oracle's facets are keyed by rows of +-V, row n + i being -v_i
        cones, _ = exact_cone_volumes(section_rows(s.vectors))
        rows = frozenset(i if sign > 0 else s.n + i for i, sign in f.normals)
        assert cones[rows] / sum(cones.values()) == Fraction(1, 4)

    def test_orthonormal_cube(self):
        for k in (2, 3):
            s = Frame(np.eye(k))
            p = build_section(s)
            assert residual(s, "facet_balance", p) == pytest.approx(0.0, abs=1e-12)
            for f in p.facets:
                assert 2.0 * f.measure == pytest.approx(volume(p), rel=1e-12)

    def test_hexagon_critical_but_not_optimal(self):
        s = hexagonal_frame()
        assert residual(s, "facet_balance") == pytest.approx(0.0, abs=1e-12)

    def test_summed_balance_consistency(self):
        # summing the balance identity over facets reproduces both the
        # pyramid decomposition of the volume and the trace identity
        s = random_tight_frame(6, 3, np.random.default_rng(40))
        p = build_section(s)
        cones, _ = exact_cone_volumes(section_rows(s.vectors))
        assert float(sum(cones.values())) == pytest.approx(volume(p), rel=1e-9)
        assert s.squared_lengths().sum() == pytest.approx(s.k, rel=1e-10)


class TestCyclic:
    def test_rectangle(self):
        assert check_cyclic(build_section(extremal_frame(7, 2))) == pytest.approx(
            0.0, abs=1e-12
        )
        # the crossing point inside a shared facet is no corner
        for n, turn in ((4, 1e-11), (5, 1e-11), (6, 4e-10)):
            p = build_section(turned_box_frame(n, turn))
            assert len(p.vertices) > len(p.facets)
            assert check_cyclic(p) <= 1e-9

    def test_regular_hexagon(self):
        assert check_cyclic(build_section(hexagonal_frame())) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_sheared_parallelogram(self):
        th = math.pi / 3
        s = Frame([[1.0, 0.0], [math.cos(th), math.sin(th)]])
        assert check_cyclic(build_section(s)) > 0.1

    def test_planar_only(self):
        p = build_section(Frame(np.eye(3)))
        with pytest.raises(ValueError, match="planar only"):
            check_cyclic(p)


class TestLengthBounds:
    def test_extremal_attains_planar_endpoints(self):
        s = extremal_frame(5, 2)
        assert check_length_bounds(s) == pytest.approx(0.0, abs=1e-12)
        sq = np.sort(s.squared_lengths())
        assert sq[0] == pytest.approx(2 / 6, rel=1e-12)
        assert sq[-1] == pytest.approx(2 / 4, rel=1e-12)

    def test_affine_square_inside_window(self):
        s = extremal_frame(4, 2)
        np.testing.assert_allclose(s.squared_lengths(), 0.5, rtol=1e-12)
        assert check_length_bounds(s) == 0.0

    def test_zero_vector_violates_lower_bound(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert check_length_bounds(s) == pytest.approx(2 / 4, rel=1e-12)

    def test_general_window_for_higher_k(self):
        s = extremal_frame(7, 3)
        assert check_length_bounds(s) == pytest.approx(0.0, abs=1e-12)
        # the short vector undercuts the lower endpoint k/(n+k) = 3/7
        short = Frame(np.vstack([np.eye(3), [[0.1, 0.0, 0.0]]]))
        assert check_length_bounds(short) == pytest.approx(3 / 7 - 0.01, rel=1e-12)

    def test_vacuous_when_n_equals_k(self):
        with pytest.raises(ValueError, match="n > k"):
            check_length_bounds(Frame(np.eye(3)))


class TestReport:
    def test_extremal_full_pass(self):
        rep = verify_frame(extremal_frame(5, 2))
        assert rep.passed
        assert set(rep.checks) == {
            "facet_correspondence",
            "centroid",
            "facet_balance",
            "cyclic",
            "length_bounds",
        }
        d = rep.to_dict()
        assert d["passed"] is True
        assert d["holds_by_construction"]

    def test_failed_correspondence_gates_rest(self):
        rep = verify_frame(Frame([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
        assert not rep.passed
        assert not rep.checks["facet_correspondence"].passed
        for name in ("centroid", "facet_balance"):
            assert not rep.checks[name].passed
            assert rep.checks[name].residual == math.inf

    def test_no_cyclic_check_for_k3(self):
        rep = verify_frame(extremal_frame(5, 3))
        assert "cyclic" not in rep.checks
        assert rep.passed

    def test_no_length_check_when_n_equals_k(self):
        rep = verify_frame(Frame(np.eye(2)))
        assert "length_bounds" not in rep.checks

    def test_scaling_invariance_under_rotation(self):
        rng = np.random.default_rng(41)
        s = random_tight_frame(6, 2, rng)
        th = 1.234
        u = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotated = TightFrame(s.vectors @ u.T)
        r1 = verify_frame(s)
        r2 = verify_frame(rotated)
        for name in r1.checks:
            a, b = r1.checks[name].residual, r2.checks[name].residual
            if math.isinf(a) or math.isinf(b):
                assert a == b
            else:
                assert abs(a - b) <= 1e-10 * max(1.0, abs(a))

    def test_residuals_match_generator_loop(self):
        # the centroid and balance residuals, one generator at a time
        def loop(s, p):
            cen = bal = 0.0
            for i in range(s.n):
                f, sign = p.generator_facets[i]
                v = s.vectors[i]
                cen = max(cen, float(np.linalg.norm(sign * f.centroid - v / np.dot(v, v))))
                norm = float(np.linalg.norm(v))
                lhs, rhs = 2.0 * f.measure / norm, f.multiplicity * norm**2 * volume(p)
                bal = max(bal, abs(lhs - rhs) / max(lhs, rhs))
            return cen, bal

        rng = np.random.default_rng(42)
        frames = [hexagonal_frame()]
        for k in (2, 3, 4, 5):
            for n in (k + 1, k + 3):
                box = extremal_frame(n, k)
                noisy = Frame(box.vectors + 1e-4 * rng.standard_normal((n, k)))
                frames += [random_tight_frame(n, k, rng), box, whiten(noisy)[1]]
        checked = 0
        for s in frames:
            p = build_section(s)
            if check_facet_correspondence(s, p):
                continue
            checked += 1
            rep = verify_frame(s, p)
            got = (rep.checks["centroid"].residual, rep.checks["facet_balance"].residual)
            for a, b in zip(got, loop(s, p)):
                assert abs(a - b) <= 1e-13 * max(a, b) + 1e-15
        assert checked >= 12

    def test_json_round_trip(self):
        import json

        rep = verify_frame(extremal_frame(4, 2))
        data = json.loads(json.dumps(rep.to_dict()))
        assert data["n"] == 4 and data["k"] == 2 and data["passed"]
