"""Frames of R^k, tight frames, whitening, and rank-one determinant calculus.

A frame is an ordered n-tuple of vectors spanning R^k, stored as the rows
of an (n, k) array.  A tight frame additionally satisfies
sum_i v_i (x) v_i = I_k, which makes it exactly the projection of an
orthonormal basis of R^n onto a k-dimensional subspace.

Whitening maps a frame to a tight one by the inverse square root of its
frame operator.  In the plane that root has a closed form in the three
floats of the 2 x 2 operator (:func:`_planar_inv_sqrt`), so a planar
whitening makes no LAPACK call.  ``eigh`` still runs for k != 2, and in
the refinement pass of an ill-conditioned frame (:func:`whiten`).
"""

from __future__ import annotations

import itertools
import math
import warnings
from functools import lru_cache

import numpy as np

# Tolerances.  The identities involved are exact; the thresholds below are
# floating-point plumbing.
EPS_TIGHT = 1e-10  # largest entry of |frame operator - I| of a tight frame
RANK_FLOOR = 1e-12  # least eigenvalue of the frame operator of a frame
MAX_SUBSETS = 20000  # most (k-1)-subsets cross_product_frame enumerates


class FrameError(ValueError):
    """Base class for frame domain errors."""


class NotAFrameError(FrameError):
    """The vector tuple does not span R^k."""


class TightnessError(FrameError):
    """The frame operator deviates from the identity beyond tolerance."""


def symmetrize(a):
    """Return (a + a.T)/2 so symmetry holds exactly in storage."""
    return (a + a.T) / 2.0


@lru_cache(maxsize=None)
def _identity(k: int):
    eye = np.eye(k)
    eye.setflags(write=False)
    return eye


def _tightness_error(a) -> float:
    """Largest entry of |a - I| for a frame operator a."""
    return float(np.abs(a - _identity(len(a))).max())


def _accept_tight(err: float) -> None:
    """Raise :class:`TightnessError` unless a frame operator's tightness
    error ``err`` is at most ``EPS_TIGHT``, so a NaN error raises too."""
    if not err <= EPS_TIGHT:
        raise TightnessError(
            f"frame operator deviates from identity by {err:.3e} "
            f"(EPS_TIGHT={EPS_TIGHT:.1e})"
        )


class Frame:
    """Ordered tuple of n vectors spanning R^k.

    Vectors are stored as rows of a read-only (n, k) float array.  Zero
    vectors are allowed as long as the tuple still spans; criticality
    checks reject them separately.

    Every entry must be a finite number, whatever ``require_span`` says,
    so a :class:`TightFrame`'s too.  The span test, :func:`frame_operator`
    with its check, is taken here; the volume routes of ``polytope`` test
    depth instead and do not repeat it.  Entries so large that the frame
    operator overflows fail it, with no warning.
    """

    def __init__(self, vectors, *, require_span: bool = True):
        try:
            v = np.array(vectors, dtype=float)
        except TypeError as exc:  # an entry such as a dict
            raise ValueError(f"vectors must be numbers: {exc}") from None
        if v.ndim != 2:
            raise ValueError("vectors must form an (n, k) array")
        if not np.isfinite(v).all():
            raise ValueError("vectors must be finite")
        n, k = v.shape
        if k < 1:
            raise ValueError(f"need k >= 1, got k={k}")
        if n < k:
            raise NotAFrameError("not a frame")
        v.setflags(write=False)
        self.vectors = v
        if require_span:
            # raises NotAFrameError unless the vectors span R^k; an operator
            # that overflows has a NaN eigenvalue, which fails the test
            with np.errstate(over="ignore"):
                frame_operator(self)

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
        """The frame of a ``to_dict`` object; anything else raises
        ``KeyError`` or ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("a frame must be an object with n, k and vectors")
        s = cls(data["vectors"])
        if s.vectors.shape != (data["n"], data["k"]):
            raise ValueError("vectors shape disagrees with declared n, k")
        return s

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n}, k={self.k})"


class TightFrame(Frame):
    """Frame whose frame operator equals the identity within ``EPS_TIGHT``;
    an operator that overflows fails the test, with no warning."""

    def __init__(self, vectors):
        super().__init__(vectors, require_span=False)
        with np.errstate(over="ignore"):  # an overflow's error is inf or NaN
            _accept_tight(_tightness_error(frame_operator(self, check=False)))


def frame_operator(s: Frame, *, check: bool = True):
    """Sum of outer products of the frame vectors, a k x k matrix.

    Positive definite exactly when the vectors span R^k.  With ``check``
    set it is the span test: :class:`NotAFrameError` when the least
    eigenvalue is below ``RANK_FLOOR`` or is NaN.  :class:`Frame` takes it
    when a frame is built, on entries it has checked to be finite.
    """
    a = symmetrize(s.vectors.T @ s.vectors)
    if check and not np.linalg.eigvalsh(a)[0] >= RANK_FLOOR:
        raise NotAFrameError("not a frame")
    return a


def _inv_sqrt(a):
    """Inverse square root of a symmetric positive definite matrix;
    :class:`NotAFrameError` when its least eigenvalue is below
    ``RANK_FLOOR`` or is NaN."""
    w, u = np.linalg.eigh(a)
    if not w[0] >= RANK_FLOOR:
        raise NotAFrameError("not a frame")
    return symmetrize((u / np.sqrt(w)) @ u.T)


def _planar_gram(v):
    """The entries a, b, c of the Gram matrix [[a, b], [b, c]] of the two
    columns of an (n, 2) array, as floats."""
    (a, b), (_, c) = (v.T @ v).tolist()
    return a, b, c


def _planar_inv_sqrt(a: float, b: float, c: float):
    """Inverse square root of A = [[a, b], [b, c]] in closed form.

    With s = sqrt(det A) and t = sqrt(a + c + 2s) = sqrt(l_1) + sqrt(l_2),
    A^{1/2} = (A + s I) / t, whose inverse is [[c + s, -b], [-b, a + s]]
    / (s t).  Raises :class:`NotAFrameError` when the least eigenvalue
    det A / l_max is below ``RANK_FLOOR`` or is NaN, as :func:`_inv_sqrt`
    does.
    """
    top = (a + c) / 2 + math.hypot((a - c) / 2, b)
    det = a * c - b * b
    if not (top > 0 and det / top >= RANK_FLOOR):
        raise NotAFrameError("not a frame")
    s = math.sqrt(det)
    st = s * math.sqrt(a + c + 2 * s)
    return np.array([[(c + s) / st, -b / st], [-b / st, (a + s) / st]])


def whiten(s: Frame):
    """Map a frame to a tight one by the inverse square root of its operator.

    Returns ``(b, tight)`` where ``b`` is the symmetric transformation that
    was applied and ``tight`` is the resulting :class:`TightFrame`.  For
    k = 2 the root is the closed form of :func:`_planar_inv_sqrt`, and the
    tightness error is read off the three floats of the result's Gram
    matrix, with no LAPACK call; other k take ``eigh`` (:func:`_inv_sqrt`).
    One refinement pass, by ``eigh`` for every k, is applied when
    conditioning pushes the first result past ``EPS_TIGHT / 10``.
    """
    V = s.vectors
    if V.shape[1] == 2:
        b = _planar_inv_sqrt(*_planar_gram(V))
        v = V @ b
        g00, g01, g11 = _planar_gram(v)
        err = max(abs(g00 - 1.0), abs(g01), abs(g11 - 1.0))
    else:
        b = _inv_sqrt(frame_operator(s, check=False))
        v = V @ b
        err = _tightness_error(symmetrize(v.T @ v))
    if err > EPS_TIGHT / 10 and err < 1e-2:
        b2 = _inv_sqrt(symmetrize(v.T @ v))
        v = v @ b2
        b = symmetrize(b @ b2)
        err = _tightness_error(symmetrize(v.T @ v))
    _accept_tight(err)
    # v is a new array of this call, so it is stored without a copy, and
    # its error is measured once, here, not again by TightFrame()
    v.setflags(write=False)
    tight = TightFrame.__new__(TightFrame)
    tight.vectors = v
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


def cross_product_frame(s: TightFrame):
    """Generalized cross products over all (k-1)-subsets, lexicographic.

    The cross product of vectors w_1 ... w_{k-1} in R^k is the vector x
    with <x, y> = det(w_1, ..., w_{k-1}, y) for all y.  For a tight frame
    the collection over all (k-1)-subsets is again a tight frame, which the
    caller can check with the TightFrame invariant.  More than
    ``MAX_SUBSETS`` subsets raise ``ValueError`` before any is computed.
    """
    if s.k < 2:
        raise ValueError("cross products need k >= 2")
    count = math.comb(s.n, s.k - 1)
    if count > MAX_SUBSETS:
        raise ValueError(f"{count} subsets exceed the cap of {MAX_SUBSETS}")
    k = s.k
    eye = np.eye(k)
    out = np.empty((count, k))
    for row, subset in enumerate(itertools.combinations(range(s.n), k - 1)):
        cols = s.vectors[list(subset)].T  # k x (k-1)
        for j in range(k):
            out[row, j] = np.linalg.det(np.column_stack([cols, eye[:, j]]))
    return out


def random_tight_frame(n: int, k: int, rng=None) -> TightFrame:
    """Whitened Gaussian frame; the workhorse for sampling and restarts."""
    if rng is None:
        rng = np.random.default_rng()
    while True:
        g = rng.standard_normal((n, k))
        try:
            return whiten(Frame(g, require_span=False))[1]
        except NotAFrameError:  # pragma: no cover - measure-zero resample
            continue
