"""First-order necessary conditions for volume-maximizing frames.

A local maximizer of the section volume must satisfy, for every frame
vector v: the slab of v supports the section in a facet; span{v} pierces
that facet in its centroid; the facet content balances against the vector
lengths; and (in the plane) all vertices lie on one circle.  Global
maximizers additionally obey two-sided bounds on the squared lengths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame_core import Frame
from .polytope import SectionPolytope, build_section, volume

TOL_CENTROID = 1e-6
TOL_BALANCE = 1e-6
TOL_CYCLIC = 1e-6
TOL_LENGTH = 1e-8


@dataclass
class CheckResult:
    passed: bool
    residual: float
    tolerance: float

    def to_dict(self) -> dict:
        return {
            "passed": bool(self.passed),
            "residual": float(self.residual),
            "tolerance": float(self.tolerance),
        }


@dataclass
class ConditionsReport:
    """Pass/fail plus residuals for the criticality checks."""

    n: int
    k: int
    checks: dict
    holds_by_construction = ("section equals the intersection of its generating slabs",)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks.values())

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "passed": self.passed,
            "holds_by_construction": list(self.holds_by_construction),
            "checks": {name: c.to_dict() for name, c in self.checks.items()},
        }


def check_facet_correspondence(s: Frame, p: SectionPolytope) -> float:
    """Count generators that are zero or support no facet of the section.

    A zero vector's rows are the origin, inside the hull of +-V: no facet.
    """
    return float(sum(i not in p.generator_facets for i in range(s.n)))


def _first_order_residuals(s: Frame, p: SectionPolytope) -> tuple:
    """The centroid and facet balance residuals, from one pass over the
    generators' facets and array operations on the frame.

    The centroid residual is the largest distance from a facet centroid to
    the point where span{v} meets the facet's hyperplane <x, v> = 1; at a
    critical frame the two coincide.  The balance residual is the largest
    relative residual of the identity, for every facet of multiplicity d
    supported by a vector v: twice the facet content over |v| equals
    d |v|^2 times the volume.  Every generator must support a facet
    (:func:`check_facet_correspondence` is 0).
    """
    held = [p.generator_facets[i] for i in range(s.n)]
    centroid = np.array([sign * f.centroid for f, sign in held])
    measure = np.array([f.measure for f, _ in held])
    multiplicity = np.array([f.multiplicity for f, _ in held])
    V = s.vectors
    sq = np.einsum("ij,ij->i", V, V)
    norm = np.sqrt(sq)
    cen = np.linalg.norm(centroid - V / sq[:, None], axis=1).max()
    lhs = 2.0 * measure / norm
    rhs = multiplicity * norm**2 * volume(p)
    bal = (np.abs(lhs - rhs) / np.maximum(lhs, rhs)).max()
    return float(cen), float(bal)


def _facet_corners(p: SectionPolytope) -> list:
    """The vertex indices of each polygon edge's two ends, the vertices two
    facet records hold; one record alone holds where its grouped rows cross."""
    held = [0] * len(p.vertices)
    for f in p.facets:
        for i in f.vertex_indices:
            held[i] += 1
    return [[i for i in f.vertex_indices if held[i] > 1] for f in p.facets]


def check_cyclic(p: SectionPolytope) -> float:
    """Corner-norm spread relative to the mean radius (planar only)."""
    if p.k != 2:
        raise ValueError("planar only")
    # every corner ends two edges, so each is counted twice: the mean holds
    r = np.linalg.norm(p.vertices, axis=1)[_facet_corners(p)]
    return float((r.max() - r.min()) / r.mean())


def check_length_bounds(s: Frame) -> float:
    """Largest violation of the squared-length window for maximizers.

    General window is [k/(n+k), k/(n-k)]; in the plane the sharper window
    [2/(n+1), 2/(n-1)] applies.
    """
    n, k = s.n, s.k
    if n <= k:
        raise ValueError("length bounds require n > k")
    if k == 2:
        lo, hi = 2.0 / (n + 1), 2.0 / (n - 1)
    else:
        lo, hi = k / (n + k), k / (n - k)
    sq = s.squared_lengths()
    return float(max(0.0, lo - sq.min(), sq.max() - hi))


def verify_frame(
    s: Frame,
    p: SectionPolytope | None = None,
    *,
    tol_centroid: float = TOL_CENTROID,
    tol_balance: float = TOL_BALANCE,
    tol_cyclic: float = TOL_CYCLIC,
    tol_length: float = TOL_LENGTH,
) -> ConditionsReport:
    """Run all applicable criticality checks and collect a report.

    Facet correspondence gates the centroid and balance checks; when it
    fails they are reported as failed with infinite residual rather than
    raising.
    """
    if p is None:
        p = build_section(s)
    checks: dict[str, CheckResult] = {}
    corr = check_facet_correspondence(s, p)
    checks["facet_correspondence"] = CheckResult(corr == 0.0, corr, 0.0)
    if corr == 0.0:
        cen, bal = _first_order_residuals(s, p)
    else:
        cen = bal = float("inf")
    checks["centroid"] = CheckResult(cen <= tol_centroid, cen, tol_centroid)
    checks["facet_balance"] = CheckResult(bal <= tol_balance, bal, tol_balance)
    if s.k == 2:
        cyc = check_cyclic(p)
        checks["cyclic"] = CheckResult(cyc <= tol_cyclic, cyc, tol_cyclic)
    if s.n > s.k:
        ln = check_length_bounds(s)
        checks["length_bounds"] = CheckResult(ln <= tol_length, ln, tol_length)
    return ConditionsReport(n=s.n, k=s.k, checks=checks)
