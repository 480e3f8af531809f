"""Closed-form volume bounds and extremal section constructions.

Covers the classical lower bound 2^k, the two Brascamp-Lieb-type upper
bounds, the optimal affine-cube constant, the subspaces attaining it
(coordinate-block frames), and the planar machinery of circumscribed
angles used to pin down the optimal two-dimensional sections.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .conditions import _facet_corners, check_cyclic
from .frame_core import TightFrame
from .polytope import SectionPolytope

F_MAX = 64  # most facet pairs claim_bounds tries
VOLUME_SLACK = 1e-12  # rounding allowed outside [2^k, ball volume] by within_bounds


def c_cube(n: int, k: int) -> float:
    """Optimal affine-cube section ratio for dimensions (n, k).

    Squared value is ceil(n/k)^(n - k*floor(n/k)) * floor(n/k)^(k - (n - k*floor(n/k))).
    Equals (n/k)^(k/2) when k divides n.
    """
    return math.sqrt(float(c_cube_squared(n, k)))


def c_cube_squared(n: int, k: int) -> int:
    """Exact integer square of the affine-cube ratio."""
    if not 1 <= k <= n:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    lo, hi = n // k, -(-n // k)
    r = n - k * lo
    return hi**r * lo ** (k - r)


def vaaler_lower(k: int) -> float:
    """Tight lower bound on section volume: the coordinate section 2^k."""
    return float(2**k)


def ball_ratio(n: int, k: int) -> float:
    """Smaller of the two classical upper-bound factors on volume / 2^k."""
    if not 1 <= k <= n:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    return min((n / k) ** (k / 2), 2 ** ((n - k) / 2))


def ball_upper(n: int, k: int) -> float:
    """Upper bound on the section volume itself."""
    return ball_ratio(n, k) * 2**k


def default_partition(n: int, k: int) -> list:
    """Balanced partition of range(n): first n % k parts get the extra index."""
    sizes = [-(-n // k)] * (n % k) + [n // k] * (k - n % k)
    parts, start = [], 0
    for size in sizes:
        parts.append(list(range(start, start + size)))
        start += size
    return parts


def _check_partition(n: int, k: int, partition) -> list:
    parts = [list(map(int, part)) for part in partition]
    if len(parts) != k or any(len(p) == 0 for p in parts):
        raise ValueError(f"partition must have exactly {k} nonempty parts")
    flat = sorted(i for part in parts for i in part)
    if flat != list(range(n)):
        raise ValueError(f"partition must cover range({n}) exactly once")
    return parts


def extremal_frame(n: int, k: int, partition=None, signs=None) -> TightFrame:
    """Tight frame whose section is an affine cube (a box).

    Each part of the partition contributes one axis direction; an index in
    a part of size d gets the vector e_axis / sqrt(d), times its sign.  The
    balanced default partition attains the optimal box volume
    2^k * c_cube(n, k); unbalanced partitions give smaller boxes.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need n >= k >= 1, got n={n}, k={k}")
    parts = default_partition(n, k) if partition is None else _check_partition(n, k, partition)
    if signs is None:
        signs = [1] * n
    if len(signs) != n or any(s not in (1, -1) for s in signs):
        raise ValueError("signs must be a length-n sequence of +/-1")
    v = np.zeros((n, k))
    for axis, part in enumerate(parts):
        scale = 1.0 / math.sqrt(len(part))
        for i in part:
            v[i, axis] = signs[i] * scale
    return TightFrame(v)


def extremal_squared_volume_exact(n: int, k: int) -> Fraction:
    """Exact squared volume of the box section of the balanced axis-block
    frame (:func:`extremal_frame` with the default partition).

    Rational route: every vector lies on a coordinate axis with rational
    squared length 1/d, so each slab clips the axis at squared half-width
    d; the squared box volume is the product of 4 * (squared half-width).
    """
    total = Fraction(1)
    for part in default_partition(n, k):
        sq = Fraction(1, len(part))  # squared length of each vector on this axis
        total *= 4 / sq
    return total


@dataclass
class PlanarAngles:
    """Central half-angles of a cyclic, centrally symmetric polygon.

    f is the number of opposite facet pairs; phi holds one half-angle per
    pair, summing to pi/2; r is the circumradius.
    """

    f: int
    phi: np.ndarray
    r: float

    def __post_init__(self):
        self.phi = np.asarray(self.phi, dtype=float)
        if self.f != len(self.phi) or self.f < 1:
            raise ValueError("need one half-angle per facet pair")
        if np.any(self.phi <= 0) or np.any(self.phi >= np.pi / 2):
            raise ValueError("half-angles must lie in (0, pi/2)")
        if abs(self.phi.sum() - np.pi / 2) > 1e-8:
            raise ValueError("half-angles must sum to pi/2")
        if self.r <= 0:
            raise ValueError("circumradius must be positive")


def planar_angles(p: SectionPolytope, tol_cyclic: float = 1e-6) -> PlanarAngles:
    """Extract circumradius and the half-angle per facet pair of a polygon.

    Requires a cyclic section; raises otherwise.  Opposite facets share an
    angle, so only one representative per pair is returned, in rotational
    order.
    """
    if check_cyclic(p) > tol_cyclic:  # raises for k != 2
        raise ValueError("section is not cyclic within tolerance")
    corners = _facet_corners(p)
    norms = np.linalg.norm(p.vertices, axis=1)
    r = float(norms[corners].mean())
    if len(p.facets) % 2 != 0:
        raise ValueError("centrally symmetric polygon needs an even facet count")
    f = len(p.facets) // 2

    def centroid_angle(pair):
        return math.atan2(pair[0].centroid[1], pair[0].centroid[0])

    half_turn = sorted(zip(p.facets, corners), key=centroid_angle)[:f]
    phi = []
    for _, (i, j) in half_turn:
        cos = np.dot(p.vertices[i], p.vertices[j]) / (norms[i] * norms[j])
        phi.append(math.acos(np.clip(cos, -1, 1)) / 2)
    return PlanarAngles(f=f, phi=np.array(phi), r=r)


def planar_area(a: PlanarAngles) -> float:
    """Area of a cyclic symmetric polygon from its half-angles: r^2 sum sin 2phi."""
    return float(a.r**2 * np.sum(np.sin(2 * a.phi)))


def g(f: float) -> float:
    """Facet-count side of the planar facet-pair inequality: f tan(pi / 2f)."""
    if f < 2:
        raise ValueError("need f >= 2")
    return float(f * math.tan(math.pi / (2 * f)))


def h(n: float) -> float:
    """Dimension side of the planar facet-pair inequality."""
    if n < 2:
        raise ValueError("need n >= 2")
    return float(4.0 / (n + 1) * math.sqrt(math.floor(n / 2) * math.ceil(n / 2)))


def claim_bounds(n: int) -> int:
    """Largest facet-pair count f compatible with g(f) >= h(n).

    g decreases in f and h increases in n, so planar maximizers in high
    dimension cannot have many facet pairs; for n >= 8 only f = 2 survives.
    The search stops at ``F_MAX``.
    """
    best = 2
    for f in range(2, F_MAX + 1):
        if g(f) >= h(n):
            best = f
        else:
            break
    return best


def q(phi: float) -> float:
    """Angle weight cos^2(phi) sin(2phi) coupling multiplicity to half-angle."""
    if not 0 < phi < math.pi / 2:
        raise ValueError("need phi in (0, pi/2)")
    return float(math.cos(phi) ** 2 * math.sin(2 * phi))


@dataclass
class BoundsReport:
    """Bounds for a dimension pair, optionally with an achieved volume."""

    n: int
    k: int
    vaaler: float
    ball_ratio: float
    c_cube: float
    achieved_volume: float | None = None

    @classmethod
    def for_dimensions(cls, n: int, k: int, achieved_volume: float | None = None):
        return cls(
            n=n,
            k=k,
            vaaler=vaaler_lower(k),
            ball_ratio=ball_ratio(n, k),
            c_cube=c_cube(n, k),
            achieved_volume=achieved_volume,
        )

    @property
    def ball_volume(self) -> float:
        return self.ball_ratio * 2**self.k

    @property
    def conjectured_volume(self) -> float:
        return self.c_cube * 2**self.k

    def to_dict(self) -> dict:
        d = {
            "n": self.n,
            "k": self.k,
            "vaaler_volume": self.vaaler,
            "ball_ratio": self.ball_ratio,
            "ball_volume": self.ball_volume,
            "optimal_box_ratio": self.c_cube,
            "optimal_box_volume": self.conjectured_volume,
        }
        if self.achieved_volume is not None:
            d["achieved_volume"] = self.achieved_volume
            # every coordinate section attains 2^k, so a correct volume may
            # round below it as well as above the upper bound
            d["within_bounds"] = bool(
                self.vaaler - VOLUME_SLACK
                <= self.achieved_volume
                <= self.ball_volume + VOLUME_SLACK
            )
            d["fraction_of_optimal_box"] = self.achieved_volume / self.conjectured_volume
        return d
