"""Section polytopes of the cube generated by a frame.

The section generated by a frame S is the intersection of the symmetric
slabs |<x, v>| <= 1 over the frame vectors.  It is the polar body of
P = conv{+-v}: a facet a.x + b <= 0 of P is the vertex a / (-b) of the
section, and a vertex of P is the normal of a facet.

Two constructions live here.

- The volume alone (:func:`section_volume_fast`, and the rebuilt sections
  of the facet transformations) comes from one Qhull call on the points
  +-v.  For k >= 3 it is a signed sum over the flags of that hull's
  triangulation (:func:`_flag_volume`); in the plane, the area of the
  section vertices it gives.  For k >= 3, frames with two nearly
  coincident bounding planes take the enumeration below instead, because
  Qhull merges facets of P there (see :func:`section_volume_fast`).
- The facet records of :func:`build_section` come from brute force at
  desk scale: solve every k-subset of the 2n bounding hyperplanes, keep
  the feasible solutions, and group vertices into facets by their active
  constraints.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import factorial
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull, cKDTree
from scipy.spatial import QhullError

from .frame_core import Frame, NotAFrameError, RANK_FLOOR, symmetrize

EPS_GEOM = 1e-9

# Polar points closer than this, relative to the longer of the two, are
# nearly coincident bounding planes; for k >= 3 their volume is taken by
# enumeration (see section_volume_fast).
NEAR_COINCIDENT_REL = 1e-5


class DegenerateFacetError(ValueError):
    """Facet has no (k-1)-dimensional content within tolerance."""


class DegeneratePolytopeError(ValueError):
    """Qhull could not build the hull of a nearly degenerate point set."""


@dataclass
class FacetRecord:
    """One facet of a section polytope.

    normals holds (generator_index, sign) pairs for every frame vector
    whose hyperplane (after the sign flip) supports this facet; the pair
    count is the facet multiplicity d.
    """

    normals: tuple
    vertex_indices: tuple
    measure: float
    centroid: np.ndarray
    normal_vector: np.ndarray
    distance: float
    row_ids: tuple = field(default=(), repr=False)

    def __post_init__(self):
        self.centroid = np.asarray(self.centroid, dtype=float)
        self.centroid.setflags(write=False)
        self.normal_vector = np.asarray(self.normal_vector, dtype=float)
        self.normal_vector.setflags(write=False)

    @property
    def multiplicity(self) -> int:
        return len(self.normals)

    def to_dict(self) -> dict:
        return {
            "normals": [[int(i), int(s)] for i, s in self.normals],
            "vertex_indices": [int(i) for i in self.vertex_indices],
            "measure": float(self.measure),
            "centroid": self.centroid.tolist(),
        }


@dataclass
class SectionPolytope:
    """V-representation plus facet data of a cube section."""

    k: int
    vertices: np.ndarray
    facets: tuple
    generator: Frame | None
    eps_geom: float = EPS_GEOM
    _W: np.ndarray | None = field(default=None, repr=False)
    _c: np.ndarray | None = field(default=None, repr=False)
    _volume: float | None = field(default=None, repr=False)

    def facet_of_generator(self, index: int):
        """Facet supported by generator ``index`` (either sign), or None."""
        for f in self.facets:
            for i, _ in f.normals:
                if i == index:
                    return f
        return None

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "volume": volume(self),
            "vertices": self.vertices.tolist(),
            "facets": [f.to_dict() for f in self.facets],
        }


@lru_cache(maxsize=64)
def _combos(m: int, k: int) -> np.ndarray:
    a = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
    a.setflags(write=False)
    return a


def _dedup(points: np.ndarray, eps: float) -> np.ndarray:
    """Merge points closer than ``eps`` per coordinate, order-stable.

    Rows that agree after rounding to the digits of ``eps`` collapse to
    their first occurrence; points still within ``2 eps`` of each other
    are then merged into the lowest index.
    """
    if len(points) == 0:
        return points
    decimals = max(0, int(round(-np.log10(eps))))
    rounded = np.round(points, decimals)
    order = np.lexsort(rounded.T[::-1])  # stable, so each run starts at its first occurrence
    ranked = rounded[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    pts = points[np.sort(order[first])]
    # two points within 2 eps have leading rounded coordinates this close
    near = np.diff(ranked[first, 0]) <= 4 * eps + 10.0**-decimals
    if np.any(near):
        pairs = cKDTree(pts).query_pairs(r=2 * eps, output_type="ndarray")
        if len(pairs):
            parent = np.arange(len(pts))

            def find(i):
                while parent[i] != i:
                    parent[i] = parent[parent[i]]
                    i = parent[i]
                return i

            for a, b in pairs:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
            keep = np.array([find(i) == i for i in range(len(pts))])
            pts = pts[keep]
    return pts


def halfspace_vertices(W: np.ndarray, c: np.ndarray, eps: float = EPS_GEOM) -> np.ndarray:
    """Feasible intersection points of the system W x <= c, deduplicated.

    Brute force over all k-subsets of rows; near-singular subsets are
    skipped.  The caller is responsible for boundedness.
    """
    m, k = W.shape
    combos = _combos(m, k)
    A = W[combos]
    norms = np.linalg.norm(W, axis=1)
    scale = np.prod(norms[combos], axis=1)
    with np.errstate(all="ignore"):
        dets = np.linalg.det(A)
    good = np.abs(dets) > 1e-10 * np.maximum(scale, 1e-300)
    if not np.any(good):
        return np.empty((0, k))
    X = np.linalg.solve(A[good], c[combos[good]][..., None])[..., 0]
    slack = eps * (1.0 + np.abs(c))
    feas = np.all(X @ W.T <= c + slack, axis=1)
    return _dedup(X[feas], eps)


def convex_volume(points: np.ndarray, k: int) -> float:
    """Volume of the convex hull of ``points`` by triangulation."""
    if len(points) <= k:
        return 0.0
    if k == 1:
        return float(points.max() - points.min())
    if k == 2:
        center = points.mean(axis=0)
        d = points - center
        order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
        p = points[order]
        x, y = p[:, 0], p[:, 1]
        x1, y1 = np.concatenate((x[1:], x[:1])), np.concatenate((y[1:], y[:1]))
        return float(abs(np.dot(x, y1) - np.dot(y, x1)) / 2)
    try:
        return float(ConvexHull(points).volume)
    except QhullError as exc:
        raise DegeneratePolytopeError("degenerate polytope") from exc


def _extreme_points(points: np.ndarray, k: int) -> np.ndarray:
    """Restrict to actual vertices (tangency points are not extreme)."""
    if len(points) <= k + 1:
        return points
    try:
        keep = np.sort(ConvexHull(points).vertices)
    except QhullError as exc:
        raise DegeneratePolytopeError("degenerate polytope") from exc
    return points[keep]


def _hyperplane_basis(w: np.ndarray) -> np.ndarray:
    """Orthonormal basis (k x (k-1)) of the hyperplane orthogonal to w."""
    k = len(w)
    q, _ = np.linalg.qr(np.column_stack([w / np.linalg.norm(w), np.eye(k)]))
    return q[:, 1:k]


def _poly_geometry(coords: np.ndarray, dim: int):
    """Measure, centroid, and a triangulation of a convex polytope.

    ``coords`` are corner points in R^dim, dim in {0, 1, 2, 3}.  Each
    returned simplex is a (dim+1, dim) array of corner points.  Raises
    :class:`DegenerateFacetError` when the points have no dim-dimensional
    content.
    """
    if dim == 0:
        return 1.0, coords[0].copy(), [coords[:1].copy()]
    if len(coords) <= dim:
        raise DegenerateFacetError("degenerate facet")
    if dim == 1:
        t = coords[:, 0]
        lo, hi = int(t.argmin()), int(t.argmax())
        simplices = [np.vstack([coords[lo], coords[hi]])]
    else:
        try:
            hull = ConvexHull(coords)
        except QhullError as exc:
            raise DegenerateFacetError("degenerate facet") from exc
        if dim == 2:
            order = hull.vertices  # counterclockwise cycle
            apex = coords[order[0]]
            simplices = [
                np.vstack([apex, coords[order[i]], coords[order[i + 1]]])
                for i in range(1, len(order) - 1)
            ]
        else:
            interior = coords[hull.vertices].mean(axis=0)
            simplices = [
                np.vstack([interior] + [coords[i] for i in simplex])
                for simplex in hull.simplices
            ]
    fct = factorial(dim)
    measure = 0.0
    centroid = np.zeros(dim)
    for s in simplices:
        e = s[1:] - s[0]
        g = max(float(np.linalg.det(e @ e.T)), 0.0)
        m = np.sqrt(g) / fct
        measure += m
        centroid += m * s.mean(axis=0)
    if measure <= 0.0:
        raise DegenerateFacetError("degenerate facet")
    return measure, centroid / measure, simplices


def _facet_geometry(pts: np.ndarray, k: int, w: np.ndarray):
    """Triangulate a facet given its corner points in ambient coordinates.

    Returns (measure, centroid, simplices) with simplices as (k, k) arrays
    of (k-1)-simplex corners in R^k.
    """
    if k == 1:
        return 1.0, pts[0].copy(), [pts[:1].copy()]
    basis = _hyperplane_basis(w)
    origin = pts[0]
    measure, centroid, simplices = _poly_geometry((pts - origin) @ basis, k - 1)
    to_ambient = lambda c: origin + c @ basis.T  # noqa: E731
    return measure, to_ambient(centroid), [to_ambient(s) for s in simplices]


def _pairwise_row_distances(X: np.ndarray, ord=2) -> np.ndarray:
    """Distances between every two rows of ``X`` in the vector norm ``ord``."""
    return np.linalg.norm(X[:, None, :] - X[None, :, :], ord=ord, axis=2)


def _coincident_row_groups(W: np.ndarray, tol: float):
    """Group constraint rows describing the same oriented hyperplane.

    Rows within ``tol`` of each other in every coordinate are joined, and
    the joining is transitive.  Groups come ordered by their first row,
    with their rows ascending.
    """
    reach = _pairwise_row_distances(W, np.inf) <= tol
    while True:  # transitive closure by repeated squaring
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    groups: dict[int, list[int]] = {}
    for i, first in enumerate(reach.argmax(axis=1)):  # least row of i's group
        groups.setdefault(int(first), []).append(i)
    return list(groups.values())


def _facet_slice(W, c, rep, others, k, eps):
    """Exact facet of the polytope {W x <= c} on the hyperplane of row ``rep``.

    The facet is the hyperplane's slice through the halfspaces of the rows
    ``others``; each enters the hyperplane as its trace.  Rows describing
    the same hyperplane as one another are passed once, so that every facet
    sees a group of coincident rows as the one plane its own facet uses.

    Tiling rule.  For k = 2 the slice is the exact interval cut out by the
    traces, with no slack: a nearly coincident neighbour ends the edge
    where it actually becomes binding, and its own edge starts at the same
    crossing, so the edges tile the boundary.  (A slack of ``eps`` in
    constraint units would hide a crossing at angle a over a length of
    about eps / a, and both edges would claim that strip.)  The traces are
    formed from the row differences W_j - W_rep, which keeps such a
    crossing well conditioned.  A trace parallel to the line empties the
    slice when strictly tighter and is ignored otherwise.

    For k >= 3 the slice comes from a (k-1)-dimensional vertex enumeration
    inside the plane that accepts corners within ``eps (1 + |offset|)`` in
    constraint units, so two nearly coincident planes can still both claim
    a strip along their crossing.

    Returns (measure, centroid, ambient corner points) or None when the
    slice has no (k-1)-dimensional content (tangent or inactive slabs).
    """
    w = W[rep]
    p0 = w * (c[rep] / np.dot(w, w))
    if k == 1:
        if np.all(W[others] @ p0 <= c[others] + eps * (1.0 + np.abs(c[others]))):
            return 1.0, p0, p0[None, :]
        return None
    basis = _hyperplane_basis(w)
    if k == 2:
        D = W[others] - w
        a = D @ basis[:, 0]
        b = (c[others] - c[rep]) - D @ p0
        flat = np.abs(a) <= 1e-12 * np.linalg.norm(D, axis=1)
        if np.any(b[flat] < 0.0):
            return None
        t = b[~flat] / a[~flat]
        lo = np.max(t[a[~flat] < 0], initial=-np.inf)
        hi = np.min(t[a[~flat] > 0], initial=np.inf)
        if not hi > lo:
            return None
        corners = p0 + np.outer([lo, hi], basis[:, 0])
        return float(hi - lo), corners.mean(axis=0), corners
    A2 = W[others] @ basis
    b2 = c[others] - W[others] @ p0
    corners = halfspace_vertices(A2, b2, eps)
    try:
        measure, centroid, _ = _poly_geometry(corners, k - 1)
    except DegenerateFacetError:
        return None
    return measure, p0 + centroid @ basis.T, p0 + corners @ basis.T


def build_section(s: Frame, eps_geom: float = EPS_GEOM) -> SectionPolytope:
    """Construct the section of the cube generated by the frame ``s``.

    Zero vectors contribute no constraint.  Generators whose slab only
    touches the section in a face of dimension below k-1 produce no facet
    record; the criticality checks flag them downstream.
    """
    V = s.vectors
    a = symmetrize(V.T @ V)
    if np.linalg.eigvalsh(a)[0] < RANK_FLOOR:
        raise NotAFrameError("not a frame")
    nz = np.linalg.norm(V, axis=1) > 1e-14
    gens = np.nonzero(nz)[0]
    Vnz = V[nz]
    W = np.vstack([Vnz, -Vnz])
    c = np.ones(len(W))
    row_gen = [(int(i), 1) for i in gens] + [(int(i), -1) for i in gens]

    verts = halfspace_vertices(W, c, eps_geom)
    if len(verts) <= s.k:
        raise NotAFrameError("not a frame")
    # In the plane every feasible crossing is a vertex; a hull pass would
    # drop the nearly straight ones where near-parallel edges meet, and the
    # exact edges of _facet_slice end there.
    if s.k > 2:
        verts = _extreme_points(verts, s.k)
    lookup = cKDTree(verts) if len(verts) else None

    facets = []
    groups = _coincident_row_groups(W, eps_geom)
    reps = [rows[0] for rows in groups]
    for rows in groups:
        others = [r for r in reps if r != rows[0]]
        sliced = _facet_slice(W, c, rows[0], others, s.k, eps_geom)
        if sliced is None:
            continue
        measure, centroid, corners = sliced
        # facet corners are polytope vertices; map them to stored indices
        dist, idx = lookup.query(corners, distance_upper_bound=1e-6)
        matched = tuple(sorted(set(int(i) for d, i in zip(dist, idx) if np.isfinite(d))))
        if len(matched) < s.k:
            continue
        w = W[rows[0]]
        facets.append(
            FacetRecord(
                normals=tuple(row_gen[r] for r in rows),
                vertex_indices=matched,
                measure=measure,
                centroid=centroid,
                normal_vector=w.copy(),
                distance=float(c[rows[0]] / np.linalg.norm(w)),
                row_ids=tuple(rows),
            )
        )

    verts.setflags(write=False)
    return SectionPolytope(
        k=s.k,
        vertices=verts,
        facets=tuple(facets),
        generator=s,
        eps_geom=eps_geom,
        _W=W,
        _c=c,
    )


def volume(p: SectionPolytope) -> float:
    """Volume by the pyramid decomposition over facets.

    Each facet contributes distance-to-origin times its content over k.
    The sum is the volume only if the facet records tile the boundary; the
    rule that makes them do so (exact edges in the plane) is stated in
    ``_facet_slice``.  Cross-check against :func:`volume_by_triangulation`
    where independence matters.
    """
    if p._volume is None:
        p._volume = float(
            sum(f.distance * f.measure for f in p.facets) / p.k
        )
    return p._volume


def volume_by_triangulation(p: SectionPolytope) -> float:
    """Independent volume oracle: triangulate the vertex hull."""
    return convex_volume(np.asarray(p.vertices), p.k)


def _parity(perm) -> int:
    """Sign of a permutation given as a sequence of 0..m-1."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


class _FlagPlan(NamedTuple):
    """Index tables of the flag sum in R^k, k >= 3 (see :func:`_flag_volume`).

    - ``subsets[s - 1]``: the s-subsets of a simplex's k corner positions,
      s = 1..k-2, whose foot points the chains use; a foot point is named
      by its place in the concatenation of these arrays.
    - ``ridge_rows[j]``: the corner positions other than j, ascending.
    - ``chains[j, t]``: for the ridge opposite corner j and the t-th
      ordering tau of its k-1 corners, the foot points of
      {tau_0}, {tau_0, tau_1}, ..., {tau_0 .. tau_(k-3)}.
    - ``chain_signs[t]``: the sign of ordering t.
    - Levi-Civita rows, to expand a k x k determinant along the 2 x 2
      minors of its last two columns: ``pairs`` holds the (2, C(k, 2))
      coordinate pairs l < m, and each permutation pi with
      pi_(k-2) < pi_(k-1) gives a column of ``lc_lead`` (pi_0 ..
      pi_(k-3)), an entry of ``lc_pair`` (pi_(k-2), pi_(k-1) as an index
      into ``pairs``) and its sign in ``lc_sign``.
    """

    subsets: tuple
    ridge_rows: np.ndarray
    chains: np.ndarray
    chain_signs: np.ndarray
    pairs: np.ndarray
    lc_lead: np.ndarray
    lc_pair: np.ndarray
    lc_sign: np.ndarray


@lru_cache(maxsize=16)
def _flag_plan(k: int) -> _FlagPlan:
    subsets = [list(itertools.combinations(range(k), s)) for s in range(1, k - 1)]
    name = {sub: i for i, sub in enumerate(itertools.chain(*subsets))}
    ridge_rows = [[i for i in range(k) if i != j] for j in range(k)]
    orders = list(itertools.permutations(range(k - 1)))
    chains = [
        [[name[tuple(sorted(rows[t] for t in tau[:s]))] for s in range(1, k - 1)]
         for tau in orders]
        for rows in ridge_rows
    ]
    pairs = list(itertools.combinations(range(k), 2))
    rows = [pi for pi in itertools.permutations(range(k)) if pi[-2] < pi[-1]]
    plan = _FlagPlan(
        subsets=tuple(np.array(s, dtype=np.intp) for s in subsets),
        ridge_rows=np.array(ridge_rows, dtype=np.intp),
        chains=np.array(chains, dtype=np.intp),
        chain_signs=np.array([_parity(tau) for tau in orders], dtype=float),
        pairs=np.array(pairs, dtype=np.intp).T,
        lc_lead=np.array([pi[:-2] for pi in rows], dtype=np.intp).T,
        lc_pair=np.array([pairs.index(pi[-2:]) for pi in rows], dtype=np.intp),
        lc_sign=np.array([_parity(pi) for pi in rows], dtype=float),
    )
    for a in (*plan.subsets, *plan[1:]):
        a.setflags(write=False)
    return plan


def _leading_products(plan: _FlagPlan, cols: np.ndarray) -> np.ndarray:
    """c_0[pi_0] * ... * c_(k-3)[pi_(k-3)] over the Levi-Civita rows pi.

    ``cols`` stacks the first k-2 columns of determinants, (..., k-2, k).
    """
    out = cols[..., 0, plan.lc_lead[0]]
    for i in range(1, len(plan.lc_lead)):
        out = out * cols[..., i, plan.lc_lead[i]]
    return out


def _det_by_minors(plan: _FlagPlan, lead: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked determinants det(c_0, ..., c_(k-3), a, b).

    ``lead`` is :func:`_leading_products` of the first k-2 columns, or a
    sum of such (the determinant is linear in it).  The 2 x 2 minors of
    (a, b) are exact differences, so equal a and b give exactly 0.
    """
    outer = a[:, :, None] * b[:, None, :]
    l, m = plan.pairs
    minors = outer[:, l, m] - outer[:, m, l]
    return (lead * minors[:, plan.lc_pair]) @ plan.lc_sign


def _foot_points(corners: np.ndarray, subsets) -> np.ndarray:
    """Foot points x_G of every listed corner subset G of every simplex.

    ``corners`` is (F, k, k), one simplex's points per row block.  x_G is
    the min-norm point of {x : <x, p> = 1 for p in G}: with D the span of
    the differences p - p_0 (p in G), it is u / <p_0, u> for u the part of
    p_0 orthogonal to D.  D gets an orthonormal basis by modified
    Gram-Schmidt on the differences, a QR that never forms a Gram matrix,
    so two nearly coincident points of G keep their foot point accurate.
    Returns (F, number of subsets, k), in the order of ``subsets``.
    """
    feet = corners / np.einsum("fij,fij->fi", corners, corners)[..., None]
    if len(subsets) == 1:
        return feet
    dot = lambda a, b: np.einsum("...i,...i->...", a, b)[..., None]  # noqa: E731
    parts = [feet]
    for sub in subsets[1:]:
        G = corners[:, sub]  # (F, subsets of this size, s, k)
        p0 = G[:, :, 0]
        u = p0
        basis = []
        for i in range(1, sub.shape[1]):
            d = G[:, :, i] - p0
            for e in basis:
                d = d - dot(d, e) * e
            e = d / np.sqrt(dot(d, d))
            basis.append(e)
            u = u - dot(u, e) * e
        parts.append(u / dot(p0, u))
    return np.concatenate(parts, axis=1)


def _flag_volume(P: np.ndarray, simplices: np.ndarray, neighbors: np.ndarray,
                 Y: np.ndarray) -> float:
    """Volume of the polar body of conv(P) from its triangulated hull, k >= 3.

    ``simplices`` and ``neighbors`` are Qhull's facets of conv(P) and their
    adjacency (the neighbor opposite each corner), and Y[f] the polar
    vertex of facet f.  The polar body Q = {x : <x, p> <= 1} is the sum
    of the cones from the origin over its facets, one per point p, and
    each facet is in turn the sum of cones from its own foot point over
    its faces, down to the edges.  A flag of simplex f, an ordering of its
    corners, thus contributes the signed simplex
    det(x_{tau_0}, x_{tau_0 tau_1}, ..., Y_f) / k!, with x_G the foot point
    of the face of Q dual to G (:func:`_foot_points`); any point of that
    face's affine hull would do, and the foot point is the canonical one.
    The flags of the two simplices f, g across a ridge R share every term
    but the last two, and because x_R, Y_f and Y_g lie on one line the
    pair sums to

        sigma_R * sgn(tau) * det(x_{tau_0}, ..., x_{tau_0..tau_(k-3)}, Y_g, Y_f)

    over the orderings tau of R's k-1 corners, where sigma_R is the sign of
    det(R's corners, Y_f - Y_g).  So each ridge is visited once, and
    coplanar simplices of one facet of conv(P) (equal Y) add exactly 0.
    The orientation is read off the ridge, not off the simplex f, because
    Qhull's triangulation of a non-simplicial facet can leave flat
    simplices, and the sign of their determinant is noise.
    """
    k = P.shape[1]
    plan = _flag_plan(k)
    corners = P[simplices]
    f, j = np.nonzero(neighbors > np.arange(len(simplices))[:, None])  # each ridge once
    Yf, Yg = Y[f], Y[neighbors[f, j]]
    ridge = corners[f[:, None], plan.ridge_rows[j]]  # (ridges, k - 1, k)
    lead = _leading_products(plan, ridge[:, :-1])
    sigma = np.sign(_det_by_minors(plan, lead, ridge[:, -1], Yf - Yg))
    chain = _foot_points(corners, plan.subsets)[f[:, None, None], plan.chains[j]]
    wedge = plan.chain_signs @ _leading_products(plan, chain)  # sum over orderings
    return float(sigma @ _det_by_minors(plan, wedge, Yg, Yf) / factorial(k))


def _has_near_coincident_rows(P: np.ndarray) -> bool:
    """True when two rows of ``P`` differ by a nonzero distance within
    ``NEAR_COINCIDENT_REL`` times the longer of the two.

    The distances are taken directly: through the Gram identity, exact
    duplicates would come out at about 1e-16 instead of 0.
    """
    d = _pairwise_row_distances(P)
    r = np.linalg.norm(P, axis=1)
    near = d <= NEAR_COINCIDENT_REL * np.maximum(r[:, None], r[None, :])
    return bool(np.any(near & (d > 0.0)))


def _halfspace_volume(W: np.ndarray, c: np.ndarray, eps_geom: float = EPS_GEOM) -> float:
    """Volume of the bounded polytope {x : W x <= c}, with every c > 0.

    The polytope is the polar body of conv{W_r / c_r}; see
    :func:`section_volume_fast` for the routes and their accuracy.  Raises
    :class:`NotAFrameError` when the rows do not span R^k, and
    :class:`DegeneratePolytopeError` when Qhull fails on rows that do.
    """
    k = W.shape[1]
    if k == 1:
        w = W[:, 0]
        up, down = w > 0, w < 0
        if not (np.any(up) and np.any(down)):
            raise NotAFrameError("not a frame")
        return float(np.min(c[up] / w[up]) - np.max(c[down] / w[down]))
    P = W / c[:, None]
    if k >= 3 and _has_near_coincident_rows(P):
        verts = halfspace_vertices(W, c, eps_geom)
        if len(verts) <= k:
            raise NotAFrameError("not a frame")
        return convex_volume(verts, k)
    try:
        hull = ConvexHull(P)
    except QhullError as exc:
        if len(P) <= k or np.linalg.matrix_rank(P) < k:
            raise NotAFrameError("not a frame") from exc
        raise DegeneratePolytopeError("degenerate polytope") from exc
    eq = hull.equations
    depth = -eq[:, k]
    # a facet of P this close to the origin puts a section vertex out at
    # 1 / depth, past the enumeration's determinant floor: the rows span
    # only in rounding
    if depth.min() <= 1e-10 * np.abs(P).max():
        raise NotAFrameError("not a frame")
    Y = eq[:, :k] / depth[:, None]
    if k == 2:
        return convex_volume(Y, k)
    return _flag_volume(P, hull.simplices, hull.neighbors, Y)


def section_volume_fast(vectors: np.ndarray, eps_geom: float = EPS_GEOM) -> float:
    """Volume of the generated section without facet bookkeeping.

    Fast path for optimizer inner loops, and the volume optimizer restarts
    are ranked by.  Zero vectors contribute no constraint.  Routes:

    - k = 1: the section is the interval |x| <= 1 / max |v_i|, of length
      2 / max |v_i|.
    - k = 2, polar hull: Qhull's facets a.x + b <= 0 of P = conv{+-v_i}
      give the section vertices a / (-b), and the volume is their area by
      angle sort and shoelace (:func:`convex_volume`).  It has no
      feasibility slack: on the near-parallel planar frames checked it
      matched the exact pyramid sum to 7e-16, where the enumeration is up
      to 1e-9 high.  This route is taken for every planar frame.
    - k >= 3, flag sum over the same hull: signed simplices over the
      flags of Qhull's triangulation of P, one term per ridge and ordering
      of its corners (:func:`_flag_volume`), with no second Qhull call.
      The foot points of the faces come from a QR (modified Gram-Schmidt)
      of the face's point differences, never from normal equations.
      It agreed with the hull volume of the section vertices it replaced
      to 3.2e-15 on random frames up to (16, 5), and to 1.7e-15 on the
      random and box frames of the benchmark's certify cells.  Frames
      whose +-v are the vertices of a cube (non-simplicial facets of P,
      triangulated with flat simplices) come out within 1e-14 of the
      exact cross-polytope.  Two points of +-V at relative distance 2e-5
      to 5e-5, just outside the guard below, stay within 1e-13 of a
      slack-free enumeration; normal-equation foot points were up to
      2.8e-13 off there.
    - k >= 3 with two points of +-V that differ but lie within
      ``NEAR_COINCIDENT_REL`` of each other (relative to the longer):
      the enumeration, the hull volume of every crossing of k bounding
      hyperplanes that satisfies all constraints up to
      ``eps_geom (1 + |c|)``.  There Qhull merges nearly coplanar facets
      of P, and the polar volume came out up to 3.1e-9 high against a
      slack-free enumeration (or Qhull raised a wide-merge error); the
      enumeration is up to about 1e-9 high from its slack.  Exact
      duplicates, as in box frames, are not near-coincident and take the
      polar route.

    Raises :class:`NotAFrameError` when the vectors do not span, and
    :class:`DegeneratePolytopeError` when Qhull fails on vectors that do.
    """
    nz = np.linalg.norm(vectors, axis=1) > 1e-14
    Vnz = vectors[nz]
    W = np.vstack([Vnz, -Vnz])
    return _halfspace_volume(W, np.ones(len(W)), eps_geom)


def facet_centroid(p: SectionPolytope, f: FacetRecord) -> np.ndarray:
    """Recompute the centroid of a facet from its vertices by triangulation."""
    pts = np.asarray(p.vertices)[list(f.vertex_indices)]
    _, centroid, _ = _facet_geometry(pts, p.k, f.normal_vector)
    return centroid


def pyramid_volume(p: SectionPolytope, f: FacetRecord) -> float:
    """Volume of the cone from the origin over a facet.

    Computed by full k-dimensional determinants over a facet triangulation,
    independently of the distance-times-measure formula.
    """
    pts = np.asarray(p.vertices)[list(f.vertex_indices)]
    _, _, simplices = _facet_geometry(pts, p.k, f.normal_vector)
    fct = factorial(p.k)
    return float(sum(abs(np.linalg.det(s)) for s in simplices) / fct)


def shift_facet_predict(p: SectionPolytope, f: FacetRecord, h: float) -> float:
    """First-order volume change when a facet is shifted outward by ``h``."""
    return float(h * f.measure)


def shifted_section_volume(p: SectionPolytope, f: FacetRecord, h: float) -> float:
    """Rebuild the section with facet ``f`` shifted outward by ``h``.

    All constraint rows supporting the facet move together (they describe
    the same hyperplane); the opposite facet stays put, so the rebuilt body
    is generally not centrally symmetric.
    """
    c = p._c.copy()
    for r in f.row_ids:
        c[r] += h * np.linalg.norm(p._W[r])
    return _halfspace_volume(p._W, c, p.eps_geom)


def rotate_facet_predict(
    p: SectionPolytope, f: FacetRecord, w: np.ndarray, u: np.ndarray, t: float
) -> float:
    """First-order volume change when ``w`` is tilted to ``w + t u``.

    ``w`` is the scaled outer normal of the facet and ``u`` a unit vector
    orthogonal to it.  The hyperplane pivots around the point c_w where
    span{w} pierces it; the halfspace tightens on the side of the facet
    along +u and loosens on the other, so the net change is minus the
    facet's first moment about the pivot:

        vol' - vol = -(measure / |w|) <centroid - c_w, u> t + o(t).
    """
    w = np.asarray(w, dtype=float)
    u = np.asarray(u, dtype=float)
    if abs(np.dot(u, w)) > 1e-12:
        raise ValueError("u must be orthogonal to w")
    if abs(np.linalg.norm(u) - 1.0) > 1e-12:
        raise ValueError("u must be a unit vector")
    c_w = w / np.dot(w, w)
    return float(-f.measure / np.linalg.norm(w) * np.dot(f.centroid - c_w, u) * t)


def rotated_section_volume(
    p: SectionPolytope, f: FacetRecord, u: np.ndarray, t: float
) -> float:
    """Rebuild the section with the facet's normal tilted by ``t u``."""
    W = p._W.copy()
    for r in f.row_ids:
        W[r] = W[r] + t * np.asarray(u, dtype=float)
    return _halfspace_volume(W, p._c, p.eps_geom)
