"""Tests for frames, whitening, and the determinant calculus."""

import json
import math
import warnings

import numpy as np
import pytest

from cubesec.frame_core import (
    EPS_TIGHT,
    RANK_FLOOR,
    Frame,
    FrameError,
    NotAFrameError,
    TightFrame,
    TightnessError,
    cross_product_frame,
    det_rank_one,
    frame_operator,
    random_tight_frame,
    sqrt_det_first_order,
    whiten,
    _inv_sqrt,
)
from cubesec.bounds import extremal_frame


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def planar_frame(n, eigenvalues, rng):
    """A random (n, 2) frame whose operator has the given eigenvalues, along
    random directions."""
    q, _ = np.linalg.qr(rng.standard_normal((n, 2)))
    return Frame(q @ np.diag(np.sqrt(eigenvalues)) @ rotation(rng.uniform(0, math.pi)).T,
                 require_span=False)


def hexagonal_frame():
    r = math.sqrt(2 / 3)
    return TightFrame(
        [
            (r * math.cos(j * math.pi / 3), r * math.sin(j * math.pi / 3))
            for j in range(3)
        ]
    )


class TestFrameOperator:
    def test_orthonormal_basis(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(frame_operator(s), np.eye(2))

    def test_direct_two_by_two_sum(self):
        s = Frame([[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(frame_operator(s), [[2.0, 1.0], [1.0, 1.0]])

    def test_hexagonal_tight(self):
        s = hexagonal_frame()
        # oracle: explicit summation of outer products
        direct = sum(np.outer(v, v) for v in s.vectors)
        np.testing.assert_allclose(frame_operator(s), direct, atol=1e-15)
        np.testing.assert_allclose(direct, np.eye(2), atol=1e-12)

    def test_rank_deficient_rejected(self):
        with pytest.raises(NotAFrameError, match="not a frame"):
            Frame([[1.0, 0.0], [2.0, 0.0]])

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("big", [1e200, 1e160])
    def test_overflowing_operator_rejected(self, k, big):
        # finite entries whose squares overflow give a frame operator of
        # inf, whose eigenvalues are NaN, and NaN fails every comparison:
        # the span test and the tightness test reject the frame, with no
        # overflow warning, and whitening rejects it too, with no NaN frame
        v = np.vstack([np.eye(k), np.ones(k)])
        v[0, 0] = big
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotAFrameError, match="not a frame"):
                Frame(v)
            with pytest.raises(TightnessError):
                TightFrame(v)
        with np.errstate(over="ignore"):
            with pytest.raises(FrameError):
                whiten(Frame(v, require_span=False))

    def test_positive_definite_on_random(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n, k = int(rng.integers(2, 9)), int(rng.integers(1, 5))
            n = max(n, k)
            s = Frame(rng.standard_normal((n, k)))
            assert np.linalg.eigvalsh(frame_operator(s))[0] > 0


class TestWhiten:
    def test_diagonal_inverse_square_root(self):
        s = Frame([[2.0, 0.0], [0.0, 1.0]])  # operator diag(4, 1)
        b, tight = whiten(s)
        np.testing.assert_allclose(b, np.diag([0.5, 1.0]), atol=1e-12)
        np.testing.assert_allclose(frame_operator(tight), np.eye(2), atol=1e-12)

    def test_identity_on_tight_input(self):
        s = hexagonal_frame()
        b, tight = whiten(s)
        np.testing.assert_allclose(b, np.eye(2), atol=1e-10)
        np.testing.assert_allclose(tight.vectors, s.vectors, atol=1e-10)
        # frames tight to rounding give the identity to rounding
        rng = np.random.default_rng(5)
        for n in (2, 3, 6, 10):
            b, _ = whiten(random_tight_frame(n, 2, rng))
            np.testing.assert_allclose(b, np.eye(2), rtol=0, atol=1e-15)

    def test_stretch_after_removing_short_vector(self):
        # tight frame containing v = (a, 0); dropping v stretches along e1
        a = 0.6
        s = TightFrame([[a, 0.0], [math.sqrt(1 - a * a), 0.0], [0.0, 1.0]])
        reduced = Frame(np.delete(s.vectors, 0, axis=0))
        b, _ = whiten(reduced)
        expected = np.diag([(1 - a * a) ** -0.5, 1.0])
        np.testing.assert_allclose(b, expected, atol=1e-12)

    def test_planar_closed_form_across_conditioning(self):
        # the k = 2 root is a closed form, not eigh.  Rounding the Gram
        # matrix moves its least eigenvalue by about eps * l_max, so any two
        # routes agree only to about eps times the condition number; the
        # refinement pass (from 1e6 on) then makes the result tight
        rng = np.random.default_rng(3)
        for cond in (1e2, 1e3, 1e4, 1e5, 1e6):
            for n in (2, 3, 6, 10):
                s = planar_frame(n, [1.0, 1.0 / cond], rng)
                b, tight = whiten(s)
                by_eigh = _inv_sqrt(frame_operator(s))
                rel = np.abs(b - by_eigh).max() / np.abs(by_eigh).max()
                assert rel <= max(1e-12, 1e-15 * cond)
                assert np.abs(frame_operator(tight) - np.eye(2)).max() <= EPS_TIGHT

    def test_planar_parallel_vectors_rejected(self):
        for v in ([[1.0, 2.0], [2.0, 4.0]],
                  [[0.3, 0.7], [0.6, 1.4], [-0.9, -2.1]],
                  [[0.0, 0.0], [0.0, 0.0]]):
            with pytest.raises(NotAFrameError, match="not a frame"):
                whiten(Frame(v, require_span=False))

    def test_planar_rank_floor(self):
        # the least eigenvalue just above RANK_FLOOR whitens, just below it
        # raises, as frame_operator's eigenvalue test decides
        rng = np.random.default_rng(4)
        for _ in range(20):
            s = planar_frame(4, [1.0, 1.1 * RANK_FLOOR], rng)
            frame_operator(s)
            _, tight = whiten(s)
            assert np.abs(frame_operator(tight) - np.eye(2)).max() <= EPS_TIGHT
            s = planar_frame(4, [1.0, 0.9 * RANK_FLOOR], rng)
            for check in (frame_operator, whiten):
                with pytest.raises(NotAFrameError, match="not a frame"):
                    check(s)

    def test_closure_on_random_frames(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 11))
            _, tight = whiten(Frame(rng.standard_normal((n, k))))
            assert np.max(np.abs(frame_operator(tight) - np.eye(k))) <= 1e-10

    def test_stretch_never_shrinks(self):
        # removing a short vector from a tight frame cannot shrink any image,
        # with equality exactly on the orthogonal complement
        rng = np.random.default_rng(2)
        for _ in range(100):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k + 1, 10))
            s = random_tight_frame(n, k, rng)
            i = int(np.argmin(s.squared_lengths()))
            v = s.vectors[i]
            if np.dot(v, v) >= 1.0 - 1e-9 or np.dot(v, v) < 1e-12:
                continue
            b, _ = whiten(Frame(np.delete(s.vectors, i, axis=0)))
            u = rng.standard_normal(k)
            assert np.linalg.norm(b @ u) >= np.linalg.norm(u) - 1e-12
            u_perp = u - (np.dot(u, v) / np.dot(v, v)) * v
            np.testing.assert_allclose(
                np.linalg.norm(b @ u_perp), np.linalg.norm(u_perp), rtol=1e-10
            )
            along = v / np.linalg.norm(v)
            assert np.linalg.norm(b @ along) > 1.0 + 1e-12


class TestDetRankOne:
    def test_identity_plus_basis_vector(self):
        assert det_rank_one(np.eye(2), [1.0, 0.0], 1) == pytest.approx(2.0)

    def test_diagonal_update(self):
        val = det_rank_one(np.diag([4.0, 1.0]), [1.0, 0.0], 1)
        assert val == pytest.approx(np.linalg.det([[5.0, 0.0], [0.0, 1.0]]))

    def test_singular_limit_warns(self):
        with pytest.warns(UserWarning, match="not positive definite"):
            val = det_rank_one(np.eye(2), [1.0, 0.0], -1)
        assert val == pytest.approx(0.0, abs=1e-14)

    def test_not_positive_definite_rejected(self):
        with pytest.raises(ValueError):
            det_rank_one(-np.eye(2), [1.0, 0.0], 1)

    def test_matches_direct_determinant(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            k = int(rng.integers(1, 6))
            g = rng.standard_normal((k + 2, k))
            a = g.T @ g + 0.1 * np.eye(k)
            u = rng.standard_normal(k)
            sign = 1 if rng.random() < 0.5 else -1
            if sign == -1:
                u = u * 0.2  # keep the update inside the cone
            direct = np.linalg.det(a + sign * np.outer(u, u))
            assert det_rank_one(a, u, sign) == pytest.approx(direct, rel=1e-10)


class TestSqrtDetFirstOrder:
    def test_perturbation_along_frame(self):
        s = random_tight_frame(6, 3, np.random.default_rng(4))
        assert sqrt_det_first_order(s, s.vectors) == pytest.approx(3.0, rel=1e-12)

    def test_orthogonal_perturbation_vanishes(self):
        rng = np.random.default_rng(5)
        s = random_tight_frame(5, 2, rng)
        x = np.stack([[-v[1], v[0]] for v in s.vectors])
        assert sqrt_det_first_order(s, x) == pytest.approx(0.0, abs=1e-12)

    def test_single_direction_orthonormal(self):
        s = TightFrame(np.eye(2))
        x = np.zeros((2, 2))
        x[0] = s.vectors[0]
        assert sqrt_det_first_order(s, x) == pytest.approx(1.0)

    def test_length_mismatch_rejected(self):
        s = TightFrame(np.eye(2))
        with pytest.raises(ValueError, match="shape"):
            sqrt_det_first_order(s, np.zeros((3, 2)))

    def test_finite_difference_convergence(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            n = int(rng.integers(k, 9))
            s = random_tight_frame(n, k, rng)
            x = rng.standard_normal((n, k))
            coeff = sqrt_det_first_order(s, x)
            errs = []
            for t in (1e-3, 1e-4, 1e-5):
                a = (s.vectors + t * x).T @ (s.vectors + t * x)
                slope = (math.sqrt(np.linalg.det(a)) - 1.0) / t
                errs.append(abs(slope - coeff))
            if errs[0] < 1e-10:  # second-order term accidentally tiny
                continue
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] <= 0.05 * errs[0]


class TestFrameEdit:
    def test_append_grows_operator(self):
        s = hexagonal_frame()
        w = np.array([0.3, -0.4])
        out = Frame(np.vstack([s.vectors, w]))
        np.testing.assert_allclose(
            frame_operator(out), frame_operator(s) + np.outer(w, w), atol=1e-14
        )

    def test_substitution_on_tight_frame(self):
        s = random_tight_frame(5, 2, np.random.default_rng(7))
        w = np.array([0.2, 0.9])
        u = s.vectors[3]
        v = np.array(s.vectors)
        v[3] = w
        expected = np.eye(2) - np.outer(u, u) + np.outer(w, w)
        np.testing.assert_allclose(frame_operator(Frame(v)), expected, atol=1e-10)

    def test_rank_loss_rejected(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(NotAFrameError):
            Frame(np.delete(s.vectors, 1, axis=0))


class TestSubspaceConversion:
    """A tight frame is the orthogonal projection of the standard basis of
    R^n onto the span of its k columns, which are orthonormal."""

    def test_gram_is_projection(self):
        s = random_tight_frame(6, 3, np.random.default_rng(9))
        gamma = s.gram()
        np.testing.assert_allclose(gamma, gamma.T, atol=1e-14)
        np.testing.assert_allclose(gamma @ gamma, gamma, atol=1e-12)
        assert np.trace(gamma) == pytest.approx(3, rel=1e-12)

    def test_extremal_block_subspace(self):
        s = extremal_frame(5, 2)
        # membership pattern x1 = x2 = x3, x4 = x5 for every basis vector
        for x in s.vectors.T:
            assert abs(x[0] - x[1]) < 1e-12 and abs(x[1] - x[2]) < 1e-12
            assert abs(x[3] - x[4]) < 1e-12
        sq = np.sort(s.squared_lengths())
        np.testing.assert_allclose(sq, [1 / 3, 1 / 3, 1 / 3, 1 / 2, 1 / 2], atol=1e-12)

    def test_not_tight_rejected(self):
        with pytest.raises(TightnessError, match="frame operator deviates from identity"):
            TightFrame([[1.0, 0.0], [1.0, 1.0]])

    def test_squared_lengths_sum_to_dimension(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            k = int(rng.integers(1, 5))
            n = int(rng.integers(k, 10))
            s = random_tight_frame(n, k, rng)
            assert s.squared_lengths().sum() == pytest.approx(k, rel=1e-10)


class TestCrossProductFrame:
    def test_planar_rotations(self):
        s = random_tight_frame(5, 2, np.random.default_rng(11))
        out = cross_product_frame(s)
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        np.testing.assert_allclose(out, s.vectors @ rot.T, atol=1e-14)

    def test_orthonormal_three_dim(self):
        s = TightFrame(np.eye(3))
        out = cross_product_frame(s)
        # pairs (0,1), (0,2), (1,2) -> e3, -e2, e1
        np.testing.assert_allclose(
            out, [[0, 0, 1], [0, -1, 0], [1, 0, 0]], atol=1e-14
        )

    def test_output_is_tight(self):
        rng = np.random.default_rng(12)
        for n, k in [(4, 3), (6, 3), (5, 4), (7, 2)]:
            s = random_tight_frame(n, k, rng)
            out = cross_product_frame(s)
            op = out.T @ out
            assert np.max(np.abs(op - np.eye(k))) <= 1e-10

    def test_combinatorial_cap(self):
        # C(30, 4) = 27405 subsets exceed the cap of 20000
        s = random_tight_frame(30, 5, np.random.default_rng(13))
        with pytest.raises(ValueError, match="27405 subsets exceed the cap of 20000"):
            cross_product_frame(s)

    def test_needs_k_at_least_two(self):
        s = TightFrame([[1.0]])
        with pytest.raises(ValueError):
            cross_product_frame(s)


class TestSerialization:
    def test_json_round_trip_lossless(self):
        s = random_tight_frame(7, 3, np.random.default_rng(14))
        back = Frame.from_dict(json.loads(json.dumps(s.to_dict())))
        np.testing.assert_array_equal(back.vectors, s.vectors)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Frame.from_dict({"n": 3, "k": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]})

    def test_non_finite_and_non_numeric_rejected(self):
        # a NaN entry would pass the span test at k = 2 (NaN < RANK_FLOOR
        # is false), and build_section would never return on it
        for bad in (math.nan, math.inf, -math.inf, None):
            rows = [[bad, 0.0], [0.0, 1.0], [1.0, 1.0]]
            for make in (Frame, lambda v: Frame(v, require_span=False), TightFrame):
                with pytest.raises(ValueError, match="vectors must be finite"):
                    make(rows)
        with pytest.raises(ValueError, match="vectors must be numbers"):
            Frame([[{}, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="must be an object"):
            Frame.from_dict([1, 2])

    def test_zero_vectors_allowed_when_spanning(self):
        s = Frame([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        assert s.n == 3

    def test_gram_comparison_modulo_rotation(self):
        rng = np.random.default_rng(15)
        s = random_tight_frame(6, 2, rng)
        th = 0.83
        u = np.array([[math.cos(th), -math.sin(th)], [math.sin(th), math.cos(th)]])
        rotated = TightFrame(s.vectors @ u.T)
        assert np.max(np.abs(s.gram() - rotated.gram())) <= 1e-12
        other = random_tight_frame(6, 2, rng)
        assert np.max(np.abs(s.gram() - other.gram())) > 1e-6
