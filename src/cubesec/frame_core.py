"""Frames of R^k, tight frames, whitening, and rank-one determinant calculus.

A frame is an ordered n-tuple of vectors spanning R^k, stored as the rows
of an (n, k) array.  A tight frame additionally satisfies
sum_i v_i (x) v_i = I_k, which makes it exactly the projection of an
orthonormal basis of R^n onto a k-dimensional subspace.
"""

from __future__ import annotations

import itertools
import json
import warnings

import numpy as np

# Default tolerances.  The identities involved are exact; the thresholds
# below are floating-point plumbing and can be overridden per call.
EPS_TIGHT = 1e-10
EPS_ORTH = 1e-12
RANK_FLOOR = 1e-12


class FrameError(ValueError):
    """Base class for frame domain errors."""


class NotAFrameError(FrameError):
    """The vector tuple does not span R^k."""


class TightnessError(FrameError):
    """The frame operator deviates from the identity beyond tolerance."""


def symmetrize(a):
    """Return (a + a.T)/2 so symmetry holds exactly in storage."""
    return (a + a.T) / 2.0


def _tightness_error(a) -> float:
    """Largest entry of |a - I| for a frame operator a."""
    return float(np.abs(a - np.eye(len(a))).max())


class Frame:
    """Ordered tuple of n vectors spanning R^k.

    Vectors are stored as rows of a read-only (n, k) float array.  Zero
    vectors are allowed as long as the tuple still spans; criticality
    checks reject them separately.
    """

    def __init__(self, vectors, *, require_span: bool = True):
        v = np.array(vectors, dtype=float)
        if v.ndim != 2:
            raise ValueError("vectors must form an (n, k) array")
        n, k = v.shape
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
        if n < k:
            raise NotAFrameError("not a frame")
        v.setflags(write=False)
        self.vectors = v
        if require_span:
            # Rank test = eigenvalue floor on the frame operator.
            a = symmetrize(v.T @ v)
            if np.linalg.eigvalsh(a)[0] < RANK_FLOOR:
                raise NotAFrameError("not a frame")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return self.vectors.shape[1]

    def gram(self):
        """Gram matrix of the vectors; the O(k)-invariant fingerprint."""
        return symmetrize(self.vectors @ self.vectors.T)

    def squared_lengths(self):
        return np.einsum("ij,ij->i", self.vectors, self.vectors)

    def to_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "vectors": self.vectors.tolist()}

    @classmethod
    def from_dict(cls, data: dict) -> "Frame":
        v = np.array(data["vectors"], dtype=float)
        if v.shape != (data["n"], data["k"]):
            raise ValueError("vectors shape disagrees with declared n, k")
        return cls(v)

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "Frame":
        return cls.from_dict(json.loads(text))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, k={self.k})"

    def close_to(self, other: "Frame", tol: float = 1e-12) -> bool:
        """Equality modulo O(k): compare Gram matrices, not coordinates."""
        if self.n != other.n or self.k != other.k:
            return False
        return np.max(np.abs(self.gram() - other.gram())) <= tol


class TightFrame(Frame):
    """Frame whose frame operator equals the identity within ``eps_tight``."""

    def __init__(self, vectors, *, eps_tight: float = EPS_TIGHT):
        super().__init__(vectors, require_span=False)
        self._accept(_tightness_error(frame_operator(self, check=False)), eps_tight)

    def _accept(self, err: float, eps_tight: float) -> None:
        if err > eps_tight:
            raise TightnessError(
                f"frame operator deviates from identity by {err:.3e} "
                f"(eps_tight={eps_tight:.1e})"
            )
        self.eps_tight = eps_tight


class Subspace:
    """k-dimensional linear subspace of R^n with an orthonormal basis.

    The basis is stored as rows of a (k, n) array.
    """

    def __init__(self, basis, *, eps_orth: float = EPS_ORTH):
        b = np.array(basis, dtype=float)
        if b.ndim != 2:
            raise ValueError("basis must be a (k, n) array")
        k, n = b.shape
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        gram = b @ b.T
        if np.max(np.abs(gram - np.eye(k))) > eps_orth:
            raise ValueError("basis is not orthonormal within tolerance")
        b.setflags(write=False)
        self.basis = b

    @property
    def n(self) -> int:
        return self.basis.shape[1]

    @property
    def k(self) -> int:
        return self.basis.shape[0]

    def projection_matrix(self):
        """n x n orthogonal projection onto the subspace."""
        return symmetrize(self.basis.T @ self.basis)

    def __repr__(self):
        return f"Subspace(n={self.n}, k={self.k})"


def frame_operator(s: Frame, *, check: bool = True):
    """Sum of outer products of the frame vectors, a k x k matrix.

    Positive definite exactly when the vectors span R^k.  Raises
    :class:`NotAFrameError` for rank-deficient input when ``check`` is set.
    """
    a = symmetrize(s.vectors.T @ s.vectors)
    if check and np.linalg.eigvalsh(a)[0] < RANK_FLOOR:
        raise NotAFrameError("not a frame")
    return a


def _inv_sqrt(a, *, floor: float = RANK_FLOOR):
    """Inverse square root of a symmetric positive definite matrix."""
    w, u = np.linalg.eigh(a)
    if w[0] < floor:
        raise NotAFrameError("not a frame")
    return symmetrize((u / np.sqrt(w)) @ u.T)


def whiten(s: Frame, *, eps_tight: float = EPS_TIGHT):
    """Map a frame to a tight one by the inverse square root of its operator.

    Returns ``(b, tight)`` where ``b`` is the symmetric transformation that
    was applied and ``tight`` is the resulting :class:`TightFrame`.  One
    refinement pass is applied when conditioning pushes the first result
    past ``eps_tight``.
    """
    b = _inv_sqrt(frame_operator(s, check=False))
    v = s.vectors @ b
    a = symmetrize(v.T @ v)
    err = _tightness_error(a)
    if err > eps_tight / 10 and err < 1e-2:
        b2 = _inv_sqrt(a)
        v = v @ b2
        b = symmetrize(b @ b2)
        err = _tightness_error(symmetrize(v.T @ v))
    # the error of v is measured once, here, not again by TightFrame()
    tight = TightFrame.__new__(TightFrame)
    Frame.__init__(tight, v, require_span=False)
    tight._accept(err, eps_tight)
    return b, tight


def det_rank_one(a, u, sign: int = 1) -> float:
    """det(a +/- u (x) u) through the rank-one update identity.

    ``a`` must be symmetric positive definite.  With ``sign=-1`` and
    |a^{-1/2} u| >= 1 the updated matrix is not positive definite; a
    warning is emitted and the (possibly nonpositive) value returned.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    a = np.asarray(a, dtype=float)
    w, q = np.linalg.eigh(symmetrize(a))
    if w[0] <= RANK_FLOOR:
        raise ValueError("matrix is not positive definite")
    u = np.asarray(u, dtype=float)
    # |a^{-1/2} u|^2 without forming the root explicitly
    t = q.T @ u
    stretch = float(np.sum(t * t / w))
    if sign == -1 and stretch >= 1.0:
        warnings.warn("resulting matrix not positive definite")
    return float((1.0 + sign * stretch) * np.prod(w))


def sqrt_det_first_order(s: TightFrame, x) -> float:
    """First-order growth rate of sqrt(det) of the frame operator.

    For a tight frame perturbed along directions ``x`` (one vector per
    frame vector, scaled by t), sqrt(det A) = 1 + t * coefficient + o(t);
    the coefficient is the sum of the pairings <x_i, v_i>.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != s.vectors.shape:
        raise ValueError(
            f"perturbation shape {x.shape} does not match frame {s.vectors.shape}"
        )
    return float(np.einsum("ij,ij->", x, s.vectors))


def frame_edit(s: Frame, *, remove=None, substitute=None, append=None) -> Frame:
    """Return a new frame with exactly one edit applied.

    remove:     an index, or a vector whose first occurrence is dropped.
    substitute: a pair (index, new_vector).
    append:     a vector added at the end.

    The result must still span R^k, otherwise :class:`NotAFrameError`.
    """
    given = [e is not None for e in (remove, substitute, append)]
    if sum(given) != 1:
        raise ValueError("specify exactly one of remove, substitute, append")
    v = np.array(s.vectors)
    if remove is not None:
        if np.isscalar(remove) and isinstance(remove, (int, np.integer)):
            idx = int(remove)
            if not 0 <= idx < s.n:
                raise IndexError(f"index {idx} out of range for n={s.n}")
        else:
            target = np.asarray(remove, dtype=float)
            hits = np.nonzero(np.all(v == target, axis=1))[0]
            if hits.size == 0:
                raise ValueError("vector to remove not present in frame")
            idx = int(hits[0])
        v = np.delete(v, idx, axis=0)
    elif substitute is not None:
        idx, new = substitute
        idx = int(idx)
        if not 0 <= idx < s.n:
            raise IndexError(f"index {idx} out of range for n={s.n}")
        v[idx] = np.asarray(new, dtype=float)
    else:
        v = np.vstack([v, np.asarray(append, dtype=float)])
    return Frame(v)


def subspace_from_frame(s: TightFrame, *, eps_tight: float = EPS_TIGHT) -> Subspace:
    """Row span of the k x n frame matrix, as a subspace of R^n.

    For a tight frame the rows of the frame matrix are orthonormal in R^n,
    so they serve directly as the basis.
    """
    a = frame_operator(s, check=False)
    if np.max(np.abs(a - np.eye(s.k))) > eps_tight:
        raise TightnessError("frame is not tight within tolerance")
    return Subspace(s.vectors.T.copy())


def frame_from_subspace(h: Subspace, *, eps_tight: float = EPS_TIGHT) -> TightFrame:
    """Project the standard basis of R^n onto the subspace.

    Coordinates are taken in the subspace basis; the resulting n vectors in
    R^k always form a tight frame.
    """
    return TightFrame(h.basis.T.copy(), eps_tight=eps_tight)


def cross_product_frame(s: TightFrame, *, max_subsets: int = 20000):
    """Generalized cross products over all (k-1)-subsets, lexicographic.

    The cross product of vectors w_1 ... w_{k-1} in R^k is the vector x
    with <x, y> = det(w_1, ..., w_{k-1}, y) for all y.  For a tight frame
    the collection over all (k-1)-subsets is again a tight frame, which the
    caller can check with the TightFrame invariant.
    """
    if s.k < 2:
        raise ValueError("cross products need k >= 2")
    from math import comb

    count = comb(s.n, s.k - 1)
    if count > max_subsets:
        raise ValueError(
            f"{count} subsets exceed the configured cap of {max_subsets}"
        )
    k = s.k
    eye = np.eye(k)
    out = np.empty((count, k))
    for row, subset in enumerate(itertools.combinations(range(s.n), k - 1)):
        cols = s.vectors[list(subset)].T  # k x (k-1)
        for j in range(k):
            out[row, j] = np.linalg.det(np.column_stack([cols, eye[:, j]]))
    return out


def random_tight_frame(n: int, k: int, rng=None, *, eps_tight: float = EPS_TIGHT) -> TightFrame:
    """Whitened Gaussian frame; the workhorse for sampling and restarts."""
    if rng is None:
        rng = np.random.default_rng()
    while True:
        g = rng.standard_normal((n, k))
        try:
            return whiten(Frame(g, require_span=False), eps_tight=eps_tight)[1]
        except NotAFrameError:  # pragma: no cover - measure-zero resample
            continue
