"""Section polytopes of the cube generated by a frame.

The section generated by a frame S is the intersection of the symmetric
slabs |<x, v>| <= 1 over the frame vectors.  It is the polar body of
P = conv{+-v}: a facet a.x + b <= 0 of P is the vertex a / (-b) of the
section, and a vertex p of P is the normal of the facet <x, p> = 1.

One construction serves everything here: the Qhull hull of the polar
points W_r / c_r of a system {W x <= c} (+-v for a section,
:func:`_polar_hull`).  Its distinct facet equations are the section's
vertices, its vertices the section's facets.  For k >= 3 the volume is a
signed sum over the flags of its triangulation, one determinant per ridge
(:func:`_flag_volume`).  :func:`_flag_cones` splits the same sum by the
first corner p of each flag: the terms of p are the cone from the origin
over the facet of p, which gives that facet's content and centroid.  In
the plane a facet is the edge between the polar vertices of p's two hull
edges, and for k = 1 the section is an interval in closed form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import comb, factorial
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from .frame_core import Frame, NotAFrameError, RANK_FLOOR, symmetrize

# Constraint rows this close in every coordinate describe one hyperplane.
EPS_GEOM = 1e-9


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


def convex_volume(points: np.ndarray, k: int) -> float:
    """Volume of the convex hull of ``points`` by triangulation.

    For k >= 3 Qhull runs with option Q12, which accepts the wide merges
    that nearly coincident section vertices cause; its default raises
    QH6271 on such vertex sets.
    """
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
        return float(ConvexHull(points, qhull_options="Q12").volume)
    except QhullError as exc:
        raise DegeneratePolytopeError("degenerate polytope") from exc


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
        # e is square (the facet in its own dim coordinates), so the
        # simplex content is |det e| / dim!, with no Gram determinant
        m = abs(float(np.linalg.det(s[1:] - s[0]))) / fct
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


def _coincident_row_groups(W: np.ndarray, tol: float):
    """Group constraint rows describing the same oriented hyperplane.

    Rows within ``tol`` of each other in every coordinate are joined, and
    the joining is transitive.  Groups come ordered by their first row,
    with their rows ascending.
    """
    reach = np.abs(W[:, None, :] - W[None, :, :]).max(axis=2) <= tol
    while True:  # transitive closure by repeated squaring
        wider = reach @ reach
        if np.array_equal(wider, reach):
            break
        reach = wider
    groups: dict[int, list[int]] = {}
    for i, first in enumerate(reach.argmax(axis=1)):  # least row of i's group
        groups.setdefault(int(first), []).append(i)
    return list(groups.values())


def _interval(W: np.ndarray, c: np.ndarray):
    """Rows that bound {x : W x <= c} in R^1 from below and from above."""
    w = W[:, 0]
    up, down = np.flatnonzero(w > 0), np.flatnonzero(w < 0)
    if not (len(up) and len(down)):
        raise NotAFrameError("not a frame")
    return int(down[np.argmax(c[down] / w[down])]), int(up[np.argmin(c[up] / w[up])])


def _polar_hull(W: np.ndarray, c: np.ndarray | None):
    """Hull of the polar points P = W_r / c_r, k >= 2, and the section vertices.

    Returns (P, hull, Y), Y[f] = a / (-b) for hull facet f: a.x + b <= 0.
    ``c`` None means every c_r is 1, so P is W.  Raises
    :class:`NotAFrameError` when the rows do not span R^k, and
    :class:`DegeneratePolytopeError` when Qhull fails on rows that do.
    """
    k = W.shape[1]
    P = W if c is None else W / c[:, None]
    try:
        hull = ConvexHull(P)
    except QhullError as exc:
        if len(P) <= k or np.linalg.matrix_rank(P) < k:
            raise NotAFrameError("not a frame") from exc
        raise DegeneratePolytopeError("degenerate polytope") from exc
    eq = hull.equations
    depth = -eq[:, k]
    # a facet of P this close to the origin puts a section vertex out at
    # 1 / depth: the rows span only in rounding
    if depth.min() <= 1e-10 * np.abs(P).max():
        raise NotAFrameError("not a frame")
    return P, hull, eq[:, :k] / depth[:, None]


def _differences(G: np.ndarray) -> np.ndarray:
    """Each point of the stacked sets G, (F, s, k), but the first, minus
    its nearest earlier point: (F, s - 1, k).

    Two nearly coincident points thus give a short difference that
    floating point forms exactly, where a difference from a far point
    would lose the digits that tell them apart.
    """
    out = [G[:, 1] - G[:, 0]]
    for i in range(2, G.shape[1]):
        D = G[:, i : i + 1] - G[:, :i]
        near = np.einsum("fjl,fjl->fj", D, D).argmin(axis=1)
        out.append(D[np.arange(len(G)), near])
    return np.stack(out, axis=1)


def _solved_vertices(P: np.ndarray, hull, Y: np.ndarray) -> np.ndarray:
    """Section vertices of the unmerged hull facets, solved from their corners.

    Qhull's normal of a simplex with two nearly coincident corners is off
    in the direction that their difference fixes.  That moves the section
    vertex along the crossing of the two nearly parallel planes, which
    passes content from one of their facets to the other while the volume
    barely changes.  Solving <x, p_0> = 1 and <x, d> = 0 for the unit
    :func:`_differences` d of the corners keeps the split exact.  The
    simplices of a merged facet share Qhull's equation and may be flat, so
    they keep it.
    """
    eq = hull.equations
    alone = ~np.all(eq[hull.neighbors] == eq[:, None, :], axis=2).any(axis=1)
    G = P[hull.simplices[alone]]
    D = _differences(G)
    A = np.concatenate([G[:, :1], D / np.linalg.norm(D, axis=2, keepdims=True)], axis=1)
    Y = Y.copy()
    Y[alone] = np.linalg.solve(A, np.eye(P.shape[1])[None, :, :1])[..., 0]
    return Y


def _point_facets(W: np.ndarray, c: np.ndarray):
    """Vertices of {W x <= c}, and the facet of every row that has one.

    Returns (vertices, facets) with facets[r] = (measure, centroid, sorted
    vertex indices) for each row r whose polar point is a hull vertex.
    """
    k = W.shape[1]
    if k == 1:
        ends = _interval(W, c)
        verts = np.array([[c[r] / W[r, 0]] for r in ends])
        return verts, {r: (1.0, verts[i], (i,)) for i, r in enumerate(ends)}
    P, hull, Y = _polar_hull(W, c)
    Y = _solved_vertices(P, hull, Y)
    # the simplices of a merged facet of P share one equation
    _, first, inverse = np.unique(hull.equations, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    vid = rank[inverse.ravel()]
    verts = Y[np.sort(first)]
    # each hull vertex p with the section vertices of the simplices around it
    codes = np.unique(hull.simplices.ravel() * len(verts) + np.repeat(vid, k))
    point, ids = np.divmod(codes, len(verts))
    starts = np.flatnonzero(np.r_[True, point[1:] != point[:-1]])
    around = zip(point[starts].tolist(), np.split(ids, starts[1:]))
    if k == 2:
        facets = {}
        for p, ends in around:
            a, b = verts[ends]
            facets[p] = (float(np.linalg.norm(b - a)), (a + b) / 2, tuple(ends.tolist()))
        return verts, facets
    owner, cone, moment = _flag_cones(P, hull.simplices, hull.neighbors, Y)
    cone = np.bincount(owner.ravel(), cone.ravel(), minlength=len(P))
    moment = np.stack([np.bincount(owner.ravel(), m.ravel(), minlength=len(P))
                       for m in np.moveaxis(moment, -1, 0)], axis=1)
    facets = {
        p: (k * cone[p] * float(np.linalg.norm(P[p])), moment[p] / (k * cone[p]), tuple(ends.tolist()))
        for p, ends in around
    }
    return verts, facets


def build_section(s: Frame) -> SectionPolytope:
    """Construct the section of the cube generated by the frame ``s``.

    Zero vectors contribute no constraint.  A generator has a facet when
    its point of +-V is a vertex of the hull; one whose slab only touches
    the section in a face of dimension below k-1 produces no facet record,
    and the criticality checks flag it downstream.  Rows within
    ``EPS_GEOM`` of each other share one facet, whose content and first
    moment are summed over the group's hull vertices.
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

    verts, point_facets = _point_facets(W, c)
    facets = []
    for rows in _coincident_row_groups(W, EPS_GEOM):
        own = [point_facets[r] for r in rows if r in point_facets]
        if not own:
            continue
        measures = np.array([m for m, _, _ in own])
        w = W[rows[0]]
        facets.append(
            FacetRecord(
                normals=tuple(row_gen[r] for r in rows),
                vertex_indices=tuple(sorted(set().union(*(ids for _, _, ids in own)))),
                measure=float(measures.sum()),
                centroid=np.average([x for _, x, _ in own], axis=0, weights=measures),
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
        _W=W,
        _c=c,
    )


def volume(p: SectionPolytope) -> float:
    """Volume by the pyramid decomposition over facets.

    Each facet contributes distance-to-origin times its content over k,
    which is the cone from the origin over it.  For k >= 3 the contents
    come from those cones in the flag sum (:func:`_flag_cones`), so this
    is the volume of :func:`section_volume_fast` up to rounding.  Cross-
    check against :func:`volume_by_triangulation` where independence
    matters.
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
    """Index tables of the flag sums in R^k, k >= 3 (:func:`_flag_volume`
    and :func:`_flag_cones`).

    An s-vector (an element of the s-th exterior power of R^k) is an array
    over the s-subsets of the k coordinates, in ``itertools.combinations``
    order; a 1-vector is a plain vector.

    - ``subsets[s - 1]``: the s-subsets of a simplex's k corner positions,
      s = 1..k-2, the faces whose apexes the chains use.
    - ``wedges[s - 1]``: (index, coordinate, sign) of the wedge a ^ x of an
      s-vector a with a vector x, s = 1..k-1 (:func:`_wedge`).
    - ``hodge``: (index, sign) pairing a (k-2)-vector with a 2-vector into
      the determinant of the k columns.
    - ``ridge_det``: (component, coordinate, coordinate, sign) of the terms
      a[c] x[i] e[j] of det(a ^ x ^ e), for a (k-2)-vector a and vectors
      x, e.
    - ``peels[s - 2]``, s = 2..k-2: row m holds, for each s-subset G in
      the order of ``subsets[s - 1]``, the (s-1)-subset G without its m-th
      corner (:func:`_peel`).
    - ``ridge_rows[j]``: the corner positions other than j, ascending, the
      ridge opposite corner j; ``ridge_peel`` is its ``peels`` table, over
      the (k-2)-subsets.
    - ``steps[s - 2]``, s = 2..k-2: for each flagged subset (p, G), p in G
      and |G| = s, in the order of G then p: the flagged subsets
      (p, G - l) for the l in G other than p, the sign (-1)^#{g in G: g > l}
      of each, p, and the apex of G, which is named by its place in the
      concatenation of ``subsets``.  Flagged 1-subsets (p, {p}) are
      numbered by p, as are their apexes.  ``ridge_prev[j]`` and
      ``ridge_eps[j]`` list the same for the ridge opposite j and each p
      in it.
    """

    subsets: tuple
    wedges: tuple
    hodge: tuple
    ridge_det: tuple
    peels: tuple
    ridge_rows: np.ndarray
    ridge_peel: np.ndarray
    steps: tuple
    ridge_prev: np.ndarray
    ridge_eps: np.ndarray


@lru_cache(maxsize=16)
def _flag_plan(k: int) -> _FlagPlan:
    coords = [list(itertools.combinations(range(k), s)) for s in range(k + 1)]
    name = [{sub: i for i, sub in enumerate(subs)} for subs in coords]
    subsets = coords[1:k - 1]
    face = {sub: i for i, sub in enumerate(itertools.chain(*subsets))}
    wedges = tuple(
        (np.array([[name[s][t[:m] + t[m + 1:]] for m in range(s + 1)] for t in coords[s + 1]]),
         np.array(coords[s + 1]),
         np.array([(-1.0) ** (s - m) for m in range(s + 1)]))
        for s in range(1, k)
    )
    rest = [tuple(i for i in range(k) if i not in sub) for sub in coords[k - 2]]
    hodge = (np.array([name[2][r] for r in rest]),
             np.array([float(_parity(sub + r)) for sub, r in zip(coords[k - 2], rest)]))
    terms = [(c, i, j, float(_parity(sub + (i, j))))
             for c, (sub, r) in enumerate(zip(coords[k - 2], rest)) for i, j in (r, r[::-1])]
    ridge_rows = [tuple(i for i in range(k) if i != j) for j in range(k)]

    def drops(subs):
        s = len(subs[0])
        return np.array([[name[s - 1][t[:m] + t[m + 1:]] for t in subs] for m in range(s)],
                        dtype=np.intp)

    def flagged(s):
        return [(p, sub) for sub in coords[s] for p in sub]

    def peel(p, sub, index):
        """The flagged subsets (p, sub - l) for l != p, and their signs."""
        drop = [l for l in sub if l != p]
        return ([index[p, tuple(g for g in sub if g != l)] for l in drop],
                [(-1.0) ** sum(g > l for g in sub) for l in drop])

    steps = []
    for s in range(2, k - 1):
        index = {pg: i for i, pg in enumerate(flagged(s - 1))}
        peeled = [peel(p, sub, index) for p, sub in flagged(s)]
        steps.append((np.array([i for i, _ in peeled]), np.array([e for _, e in peeled]),
                      np.array([p for p, _ in flagged(s)]),
                      np.array([face[sub] for _, sub in flagged(s)])))
    index = {pg: i for i, pg in enumerate(flagged(k - 2))}
    ridges = [[peel(p, rows, index) for p in rows] for rows in ridge_rows]
    plan = _FlagPlan(
        subsets=tuple(np.array(s, dtype=np.intp) for s in subsets),
        wedges=wedges,
        hodge=hodge,
        ridge_det=tuple(np.array(t) for t in zip(*terms)),
        peels=tuple(drops(coords[s]) for s in range(2, k - 1)),
        ridge_rows=np.array(ridge_rows, dtype=np.intp),
        ridge_peel=drops(ridge_rows),
        steps=tuple(steps),
        ridge_prev=np.array([[i for i, _ in r] for r in ridges], dtype=np.intp),
        ridge_eps=np.array([[e for _, e in r] for r in ridges]),
    )
    tables = (*plan.subsets, *itertools.chain(*plan.wedges), *plan.hodge, *plan.ridge_det, *plan.peels,
              plan.ridge_rows, plan.ridge_peel, *itertools.chain(*plan.steps),
              plan.ridge_prev, plan.ridge_eps)
    for a in tables:
        a.setflags(write=False)
    return plan


def _wedge(table, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Stacked wedge a ^ x of s-vectors a with vectors x (a ``wedges`` table).

    A component of a ^ x on the coordinates t_0 < ... < t_s is
    sum_m (-1)^(s-m) a[t without t_m] x[t_m].  For s = 1 it is the 2 x 2
    minor of (a, x), an exact difference, so equal a and x give exactly 0.
    """
    index, coord, sign = table
    return _weighted_sum(a[..., index] * x[..., coord], sign)


def _weighted_sum(a: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """a @ weights over the last axis, as one matrix-vector product (a
    stacked matmul loops over the stack in Python-sized steps)."""
    return (a.reshape(-1, a.shape[-1]) @ weights).reshape(a.shape[:-1])


def _wedge_first(table, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """:func:`_wedge` with the components on the first axis.

    Every gather then copies whole rows of the stack, and the signed sum is
    one matrix-vector product over the terms.
    """
    index, coord, sign = table
    terms = a.take(index.T, axis=0) * x.take(coord.T, axis=0)
    return (sign @ terms.reshape(len(sign), -1)).reshape(terms.shape[1:])


def _peel(b: np.ndarray, drop: np.ndarray) -> np.ndarray:
    """Sum over l in G of (-1)^#{g in G: g > l} b[G - l], for each s-subset
    G: ``b`` holds the (s-1)-subsets on its second axis, and ``drop`` is a
    ``peels`` table.  Dropping the m-th corner of G has sign (-1)^(s-1-m).
    """
    out = b.take(drop[-1], axis=1)
    for m in range(len(drop) - 2, -1, -1):
        if (len(drop) - m) % 2:
            out += b.take(drop[m], axis=1)
        else:
            out -= b.take(drop[m], axis=1)
    return out


def _face_holders(simplices: np.ndarray, subsets, points: int) -> list:
    """One simplex that holds each listed corner subset G of each simplex,
    the same one wherever G occurs: an (F, number of subsets) array per
    entry of ``subsets``.  The points are numbered below ``points``.
    """
    holds = np.arange(len(simplices))[:, None]
    out = []
    for sub in subsets:
        # a set is named by its rank among the sets of its size, the sum of
        # C(c_i, i + 1) over its sorted corners c_0 < c_1 < ...
        key = simplices
        if sub.shape[1] > 1:
            corners = simplices[:, sub]
            if sub.shape[1] == 2:  # the common case, k = 4, without a sort
                corners = (np.minimum(corners[..., 0], corners[..., 1]),
                           np.maximum(corners[..., 0], corners[..., 1]))
            else:
                corners = np.moveaxis(np.sort(corners, axis=2), 2, 0)
            key = corners[0]
            for i in range(1, sub.shape[1]):
                c = corners[i]
                term = c
                for t in range(1, i + 1):
                    term = term * (c - t)
                key = key + term // factorial(i + 1)
        holder = np.empty(comb(points, sub.shape[1]), dtype=np.intp)
        holder[key] = holds
        out.append(holder.take(key))
    return out


def _flag_volume(P: np.ndarray, simplices: np.ndarray, neighbors: np.ndarray,
                 Y: np.ndarray) -> float:
    """Volume of the polar body of conv(P), k >= 3, by a signed sum over
    the flags of Qhull's triangulation, one determinant per ridge.

    ``simplices`` and ``neighbors`` are Qhull's facets of conv(P) and their
    adjacency (the neighbor opposite each corner), and Y[f] the polar
    vertex of facet f.  The polar body Q = {x : <x, p> <= 1} is the sum
    of the cones from the origin over its facets F_p, one per vertex p,
    and each facet is in turn the sum of cones from a point of it over
    its faces, down to the edges.  A flag of simplex f, an ordering tau
    of its corners, thus contributes the signed simplex
    (0, x_{tau_0}, x_{tau_0 tau_1}, ..., Y_f), with x_G a point of the
    face of Q dual to G: the polar vertex of one simplex that holds G, the
    same one wherever G occurs (:func:`_face_holders`).  Any point of that
    face's affine hull would do; one on the face keeps every cone as small
    as its face.  The flags of the two simplices f, g across a ridge R
    share every vertex but the last two, and because x_R, Y_f and Y_g lie
    on one line the pair is the signed simplex

        sigma_R * sgn(tau) * (0, x_{tau_0}, ..., x_{tau_0..tau_(k-3)}, Y_g, Y_f)

    over the orderings tau of R's k-1 corners, where sigma_R is the sign of
    det(R's corners, Y_f - Y_g).  So each ridge is visited once.  The
    orientation is read off the ridge, not off the simplex f, because
    Qhull's triangulation of a non-simplicial facet can leave flat
    simplices, and the sign of their determinant is noise.

    The orderings are summed by exterior products over the faces, before
    any split by first corner: with B(G) the sum over the orderings tau of
    G of sgn(tau) x_{tau_0} ^ x_{tau_0 tau_1} ^ ... ^ x_G,

        B({p}) = x_p,
        B(G) = (sum over l in G of (-1)^#{g in G: g > l} B(G - l)) ^ x_G,

    so each face of a simplex carries one |G|-vector, and the ridge term
    is sigma_R det(C_R ^ Y_g ^ Y_f), with the chain C_R = sum over l in R
    of (-1)^#{g in R: g > l} B(R - l).  Both determinants of a ridge end
    in the column Y_f - Y_g (Y_g ^ Y_f = Y_g ^ (Y_f - Y_g)), so they are
    summed together term by term (``ridge_det``), as det(a ^ x ^ (Y_f -
    Y_g)) with a the wedge of R's first k-2 corners or C_R, and x R's last
    corner or Y_g.  Coplanar simplices of one facet of conv(P) share Y
    exactly, so their ridges add exactly 0.

    sigma_R stays: the ridge terms are not all of one sign.  On 100 random
    frames and 10 rotated frames whose +-v are the vertices of a cube, per
    k, no term fell below -1.4e-17 of the volume at k = 3 and 4, but at
    k = 5 terms reached -0.077 of the volume and the sum of their
    magnitudes was up to 23 % off.

    The arrays hold components first and the stack last (``_wedge_first``),
    so each numpy call works on whole rows: at (n, k) = (7, 3) and (7, 4)
    a call handles a few dozen simplices, and the count of calls, not the
    arithmetic, sets the time.
    """
    k = P.shape[1]
    plan = _flag_plan(k)
    F = len(simplices)
    # each ridge once, from its lower-numbered simplex f, as j * F + f for
    # the corner j of f opposite it
    ridge = (neighbors.T > np.arange(F)).ravel().nonzero()[0]
    Z = np.concatenate((Y.T, P.T), axis=1)  # columns: polar vertices, then points
    holders = _face_holders(simplices, plan.subsets, len(P))
    b = Z.take(holders[0].T, axis=1)  # B({p}) = x_p, (components, faces, F)
    for drop, table, holder in zip(plan.peels, plan.wedges, holders[1:]):
        b = _wedge_first(table, _peel(b, drop), Z.take(holder.T, axis=1))
    chain = _peel(b, plan.ridge_peel).reshape(len(b), -1).take(ridge, axis=1)
    cols = np.empty((k + 1, len(ridge)), dtype=np.intp)
    corners = simplices.T.take(plan.ridge_rows.T, axis=0).reshape(k - 1, -1)
    np.add(corners.take(ridge, axis=1), F, out=cols[:k - 1])
    cols[k - 1] = neighbors.T.take(ridge)
    cols[k] = ridge % F
    V = Z.take(cols, axis=1)  # R's corners, Y_g, Y_f: (components, k + 1, ridges)
    top = V[:, 0]
    for i in range(1, k - 2):
        top = _wedge_first(plan.wedges[i - 1], top, V[:, i])
    # det(R's corners, Y_f - Y_g) and det(C_R ^ Y_g ^ (Y_f - Y_g)), together
    comp, col, edge_col, sign = plan.ridge_det
    terms = (np.concatenate((top[:, None], chain[:, None]), axis=1).take(comp, axis=0)
             * V[:, k - 2:k].take(col, axis=0)
             * np.subtract(V[:, k:], V[:, k - 1:k]).take(edge_col, axis=0))
    sigma, det = (sign @ terms.reshape(len(sign), -1)).reshape(2, -1)
    return float(np.sign(sigma) @ det) / factorial(k)


def _flag_cones(P: np.ndarray, simplices: np.ndarray, neighbors: np.ndarray, Y: np.ndarray):
    """The flag sum of :func:`_flag_volume` split by the first corner of
    each flag, k >= 3: the cones over the facets of the polar body, with
    their first moments, for :func:`build_section`.

    Returns (owner, cone, moment) per ridge and corner of it:
    ``cone[r, i]`` is a signed volume, and ``moment[r, i]`` that volume
    times the sum of its simplex's vertices, both belonging to the point
    ``owner[r, i]``.

    The terms with tau_0 = p make up the cone over F_p, of volume
    |F_p| / (k |p|) and first moment k / (k + 1) |cone| centroid(F_p).
    With A_p(G) the sum over the orderings tau of G that start at p of
    sgn(tau) x_{tau_0} ^ x_{tau_0 tau_1} ^ ... ^ x_G,

        A_p(G) = (sum over l in G - p of (-1)^#{g in G: g > l} A_p(G - l)) ^ x_G,

    and the ridge term of p is the same sum over R with Y_g ^ Y_f in place
    of x_G, a determinant expanded along the 2 x 2 minors of its last two
    columns.  The first moments follow the same recursion, B_p(G) =
    (sum ...B_p(G - l)) ^ x_G + A_p(G) (x) x_G, with B_p({p}) = x_p (x) x_p.
    The points after x_p enter the wedges as differences from x_p, and
    Y_g ^ Y_f as (Y_g - x_p) ^ (Y_f - Y_g), which leaves every determinant
    unchanged: the wedges of a tiny facet then stay as small as the facet,
    so its own cone is exact to rounding.
    """
    k = P.shape[1]
    plan = _flag_plan(k)
    corners = P[simplices]
    f, j = np.nonzero(neighbors > np.arange(len(simplices))[:, None])  # each ridge once
    g = neighbors[f, j]
    Yf, Yg = Y[f], Y[g]
    rows = plan.ridge_rows[j]
    ridge = corners[f[:, None], rows]  # (ridges, k - 1, k)
    top = ridge[:, 0]
    for i in range(1, k - 1):
        top = _wedge(plan.wedges[i - 1], top, ridge[:, i])
    edge = Yf - Yg
    sigma = np.sign(_wedge(plan.wedges[k - 2], top, edge)[:, 0])

    apex = Y[np.concatenate(_face_holders(simplices, plan.subsets, len(P)), axis=1)]
    a = apex[:, :k]  # A_p({p}) = x_p, (F, flagged subsets, components)
    b = a[..., :, None] * a[..., None, :]  # (..., moment axis, components)
    for (prev, eps, lead, face), table in zip(plan.steps, plan.wedges):
        x = apex[:, face]
        step = x - apex[:, lead]
        a_next = _wedge(table, np.einsum("fqlc,ql->fqc", a[:, prev], eps), step)
        b = (_wedge(table, np.einsum("fqlmc,ql->fqmc", b[:, prev], eps), step[:, :, None, :])
             + x[..., :, None] * a_next[..., None, :])
        a = a_next

    prev, eps = plan.ridge_prev[j], plan.ridge_eps[j]  # (ridges, k - 1, k - 2)
    yy = _wedge(plan.wedges[0], Yg[:, None] - apex[f[:, None], rows], edge[:, None])
    index, sign = plan.hodge
    chain = np.einsum("rplc,rpl->rpc", a[f[:, None, None], prev], eps)
    det = _weighted_sum(chain * yy[..., index], sign)  # (ridges, k - 1)
    scale = sigma / factorial(k)
    chain = np.einsum("rplmc,rpl->rpmc", b[f[:, None, None], prev], eps)
    moment = scale[:, None, None] * (
        _weighted_sum(chain * yy[:, :, None, index], sign) + det[..., None] * (Yg + Yf)[:, None, :]
    )
    return simplices[f[:, None], rows], scale[:, None] * det, moment


def _halfspace_volume(W: np.ndarray, c: np.ndarray | None = None) -> float:
    """Volume of the bounded polytope {x : W x <= c}, with every c > 0.

    ``c`` None means every c_r is 1.  The polytope is the polar body of
    conv{W_r / c_r}; see :func:`section_volume_fast` for the routes.
    Raises :class:`NotAFrameError` when the rows do not span R^k, and
    :class:`DegeneratePolytopeError` when Qhull fails on rows that do.
    """
    k = W.shape[1]
    if k == 1:
        c = np.ones(len(W)) if c is None else c
        lo, hi = _interval(W, c)
        return float(c[hi] / W[hi, 0] - c[lo] / W[lo, 0])
    P, hull, Y = _polar_hull(W, c)
    if k == 2:
        return convex_volume(Y, k)
    return _flag_volume(P, hull.simplices, hull.neighbors, Y)


def section_volume_fast(vectors: np.ndarray) -> float:
    """Volume of the generated section without facet bookkeeping.

    Fast path for optimizer inner loops, and the volume optimizer restarts
    are ranked by.  Zero vectors contribute no constraint.  Routes:

    - k = 1: the section is the interval |x| <= 1 / max |v_i|, of length
      2 / max |v_i|.
    - k = 2, polar hull: Qhull's facets a.x + b <= 0 of P = conv{+-v_i}
      give the section vertices a / (-b), and the volume is their area by
      angle sort and shoelace (:func:`convex_volume`).  It has no
      feasibility slack: on near-parallel planar frames it matched exact
      edge intervals to 7e-16.
    - k >= 3, flag sum over the same hull: signed simplices over the
      flags of Qhull's triangulation of P, summed face by face into one
      determinant per ridge (:func:`_flag_volume`), with no second Qhull
      call; the cones of a face start from one of its own vertices, so no
      foot point is solved for.  It is within 1e-13 of an exact rational
      volume on near-parallel frames (points of +-V down to 1e-13 apart),
      on box frames, on frames whose +-v are the vertices of a cube, and
      on sections with facets shifted or tilted.  Qhull merges only
      facets of P that are coplanar within its own roundoff, and the
      simplices of a merged facet share one polar vertex, so their ridges
      add exactly 0.

    Frames without zero vectors go to Qhull as they are, and with every
    c_r = 1 no division forms P.

    Raises :class:`NotAFrameError` when the vectors do not span, and
    :class:`DegeneratePolytopeError` when Qhull fails on vectors that do.
    """
    nz = np.linalg.norm(vectors, axis=1) > 1e-14
    V = vectors if nz.all() else vectors[nz]
    return _halfspace_volume(np.concatenate((V, -V)))


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
    return _halfspace_volume(p._W, c)


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
    return _halfspace_volume(W, p._c)
