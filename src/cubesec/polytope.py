"""Section polytopes of the cube generated by a frame.

The section generated by a frame S is the intersection of the symmetric
slabs |<x, v>| <= 1 over the frame vectors.  It is the polar body of
P = conv{+-v}: a facet a.x + b <= 0 of P is the vertex a / (-b) of the
section, and a vertex p of P is the normal of the facet <x, p> = 1.

One construction serves everything here: the hull of a set of polar
points P, whose polar body {x : <x, p> <= 1 for every p in P} is the
section when P is +-V.  Its facets are the body's vertices, its vertices
the body's facets.  The hull functions take P and nothing else; the
shifted rebuild of a facet forms its points W_r / c_r itself
(:func:`shifted_section_volume`).  In the plane the hull is a Graham scan
of the points sorted by angle, once round the origin (:func:`_scan`,
:func:`_planar_hull`), with no Qhull call: it gives the section vertices
in order, and the facet of a hull vertex is the edge between the section
vertices of its two hull edges.  For k >= 3 it is Qhull's hull
(:func:`_polar_hull`), whose distinct facet equations are the section's
vertices.  For k = 1 the section is an interval in closed form.

Every volume and every facet is read from one cone table per hull: row p
holds the cone from the origin over the facet of the point p, its volume
and first moment.  :func:`_flag_cones` sums it over the flags of Qhull's
triangulation, one determinant per ridge and corner; :func:`_planar_cones`
is its twin in the plane, one triangle per section edge.  The volume is
the sum of the cones (:func:`_halfspace_volume`, and
:func:`section_volume_fast` for a section), and the same table gives the
Euclidean gradient (:func:`_volume_and_gradient`).

:func:`build_section` takes each row's cone from that table, as arrays,
and assembles the records in one pass: a group label per row (coincident
rows share a facet), contents and first moments summed by label, and the
vertex indices of each group from one incidence matrix.  The section's
volume is the sum of the cones.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import atan2, comb, factorial
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from .frame_core import Frame, NotAFrameError, frame_operator

# Constraint rows this close in every coordinate describe one hyperplane.
EPS_GEOM = 1e-9
# A facet of the polar hull nearer the origin than DEPTH_FLOOR * max|P| puts
# a section vertex out at 1 / depth: the rows span R^k only in rounding.
DEPTH_FLOOR = 1e-10


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
    row_ids: tuple = field(default=(), repr=False)

    @property
    def multiplicity(self) -> int:
        return len(self.normals)

    @property
    def distance(self) -> float:
        """Distance from the origin to the facet's hyperplane <x, normal_vector> = 1."""
        return float(1 / np.linalg.norm(self.normal_vector))

    def to_dict(self) -> dict:
        return {
            "normals": [[int(i), int(s)] for i, s in self.normals],
            "vertex_indices": [int(i) for i in self.vertex_indices],
            "measure": float(self.measure),
            "centroid": self.centroid.tolist(),
        }


@dataclass
class SectionPolytope:
    """V-representation, facet data and volume of a cube section;
    ``generator_facets`` maps a generator to (facet, sign) for the first
    facet whose ``normals`` hold it, and its sign there."""

    k: int
    vertices: np.ndarray
    facets: tuple
    generator_facets: dict = field(repr=False)
    _W: np.ndarray = field(repr=False)
    _volume: float = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "volume": volume(self),
            "vertices": self.vertices.tolist(),
            "facets": [f.to_dict() for f in self.facets],
        }


def convex_volume(points: np.ndarray, k: int) -> float:
    """Volume of the convex hull of ``points`` by triangulation.

    The independent oracle behind :func:`volume_by_triangulation`; no
    section volume is computed with it.  For k = 2 the points must be the
    vertices of a convex polygon: they are sorted by angle about their
    mean, and the area is their shoelace.  For k >= 3 Qhull runs with
    option Q12, which accepts the wide merges that nearly coincident
    section vertices cause; its default raises QH6271 on such vertex sets.
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


def _coincident_row_groups(W: np.ndarray, tol: float) -> np.ndarray:
    """The group of each constraint row, a group's rows describing one
    oriented hyperplane: rows within ``tol`` of each other in every
    coordinate are joined, transitively.  Groups are numbered in the order
    of their least rows."""
    reach = (np.abs(W[:, None, :] - W[None, :, :]) <= tol).all(axis=2)
    first = reach.argmax(axis=1)  # least row each row reaches
    # transitive closure by repeated squaring, until it is an equivalence
    while not np.array_equal(reach, first[:, None] == first):
        reach = reach @ reach
        first = reach.argmax(axis=1)
    return (np.cumsum(first == np.arange(len(W))) - 1)[first]


def _sums_by(label: np.ndarray, values: np.ndarray, count: int) -> np.ndarray:
    """Rows of ``values`` summed by ``label`` in 0..count-1: (count, columns)."""
    d = values.shape[1]
    codes = (label[:, None] * d + np.arange(d)).ravel()
    return np.bincount(codes, values.ravel(), minlength=count * d).reshape(count, d)


def _interval(P: np.ndarray):
    """Rows that bound the polar body {x : P x <= 1} in R^1 from below and
    from above."""
    p = P[:, 0]
    up, down = np.flatnonzero(p > 0), np.flatnonzero(p < 0)
    if not (len(up) and len(down)):
        raise NotAFrameError("not a frame")
    return int(down[np.argmax(1 / p[down])]), int(up[np.argmin(1 / p[up])])


def _scan(P: list, order: list) -> list:
    """Graham's scan (Graham, 1972) of the points P[r], r in ``order``.

    ``order`` runs by angle about a point inside their hull, or on an edge
    of it, from a hull vertex to a hull vertex.  Returns the hull chain
    between those two, counterclockwise.  A point is popped while the turn
    into the next one is not strictly counterclockwise, so exact duplicates
    and collinear points are dropped, as Qhull drops them.
    """
    hull = [order[0]]
    bx, by = P[hull[0]]  # the top of the stack
    for r in order[1:]:
        qx, qy = P[r]
        while len(hull) > 1:
            ax, ay = P[hull[-2]]
            if (bx - ax) * (qy - by) - (by - ay) * (qx - bx) > 0:
                break
            hull.pop()
            bx, by = ax, ay
        hull.append(r)
        bx, by = qx, qy
    return hull


def _edge_vertices(P: list, chain: list, floor: float) -> list:
    """Section vertex of each hull edge (P[chain[j]], P[chain[j + 1]]).

    An edge (p, q) is the line <x, p> = <x, q> = 1, so its section vertex
    J(q - p) / (p x (q - p)), with J(dx, dy) = (dy, -dx), is formed from
    the short difference q - p (see :func:`_solved_vertices`).  Raises
    :class:`NotAFrameError` when an edge lies within ``floor`` of the
    origin, or on the wrong side of it.
    """
    Y = []
    px, py = P[chain[0]]
    for r in chain[1:]:
        qx, qy = P[r]
        dx, dy = qx - px, qy - py
        cross = px * dy - py * dx
        # an edge this close to the origin puts a section vertex out at
        # 1 / distance, as a shallow facet does in _polar_hull
        if cross <= 0 or cross * cross <= floor * floor * (dx * dx + dy * dy):
            raise NotAFrameError("not a frame")
        Y.append((dy / cross, -dx / cross))
        px, py = qx, qy
    return Y


def _planar_hull(P: np.ndarray):
    """Hull of the polar points P in the plane, and the vertices of their
    polar body, by one Graham scan (:func:`_scan`) once round the origin.

    Returns (P, hull, Y): the points as a list of pairs, the rows whose
    points are the hull's vertices, in counterclockwise order, and Y[j] the
    polar vertex of the hull edge from hull[j] to hull[j + 1], cyclically
    (:func:`_edge_vertices`).  The facet of row hull[j] is thus the edge
    from Y[j - 1] to Y[j].

    The points are sorted by their angle about the origin, and the scan
    starts and ends at the point of largest norm, always a hull vertex.
    The body need not be centrally symmetric, as the shifted and tilted
    rebuilds are not.

    Raises :class:`NotAFrameError` when fewer than 3 vertices remain, or an
    edge lies within ``DEPTH_FLOOR`` max|P| of the origin, as :func:`_polar_hull`
    does for a facet: the rows then span R^2 only in rounding, if at all.
    """
    if len(P) < 3:
        raise NotAFrameError("not a frame")
    floor = DEPTH_FLOOR * float(np.abs(P).max())
    P = P.tolist()
    angle = [atan2(y, x) for x, y in P]
    order = sorted(range(len(P)), key=angle.__getitem__)
    norms = [x * x + y * y for x, y in P]
    at = order.index(norms.index(max(norms)))
    hull = _scan(P, order[at:] + order[:at + 1])  # once round, back to the start
    hull.pop()  # the start, met again
    if len(hull) < 3:
        raise NotAFrameError("not a frame")
    return P, hull, _edge_vertices(P, hull + hull[:1], floor)


def _planar_cones(P: list, hull: list, Y: list) -> np.ndarray:
    """The cones from the origin over the edges of the polar body, k = 2,
    in the layout of :func:`_flag_cones`: row p of the (len(P), 3) result
    holds 3 times the first moment of the cone over the facet of the point
    P[p], then its area; a point off the hull has a row of zeros.

    ``P``, ``hull`` and ``Y`` are :func:`_planar_hull`'s.  The facet of the
    hull vertex q_j = P[hull[j]] runs from Y[j - 1] to Y[j], so its cone is
    the triangle (0, Y[j - 1], Y[j]), of area t_j / (2 x_j x_(j+1)), t_j
    the turn (q_j - q_(j-1)) x (q_(j+1) - q_j) and x_j = q_(j-1) x q_j;
    3 times its first moment is its area times Y[j - 1] + Y[j].  The turn
    and the crossings are formed from the short differences, so a cone is
    exact to rounding however short its facet.
    """
    S = [(0.0, 0.0, 0.0)] * len(P)
    m = len(hull)
    for j in range(m):
        (ax, ay), (bx, by), (cx, cy) = P[hull[j - 1]], P[hull[j]], P[hull[j + 1 - m]]
        ix, iy, ox, oy = bx - ax, by - ay, cx - bx, cy - by
        w = (ix * oy - iy * ox) / (2 * (ax * iy - ay * ix) * (bx * oy - by * ox))
        (ux, uy), (vx, vy) = Y[j - 1], Y[j]
        S[hull[j]] = (w * (ux + vx), w * (uy + vy), w)
    return np.array(S)


def _polar_hull(P: np.ndarray):
    """Qhull's hull of the polar points P, k >= 3 (the plane has
    :func:`_planar_hull`), and the vertices of their polar body.

    Returns (P, hull, Y), Y[f] = a / (-b) for hull facet f: a.x + b <= 0.
    Raises :class:`NotAFrameError` when the points do not span R^k, and
    :class:`DegeneratePolytopeError` when Qhull fails on points that do.
    """
    k = P.shape[1]
    try:
        hull = ConvexHull(P)
    except QhullError as exc:
        if len(P) <= k or np.linalg.matrix_rank(P) < k:
            raise NotAFrameError("not a frame") from exc
        raise DegeneratePolytopeError("degenerate polytope") from exc
    eq = hull.equations
    depth = -eq[:, k]
    if depth.min() <= DEPTH_FLOOR * np.abs(P).max():
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


def _solved_vertices(P: np.ndarray, hull, Y: np.ndarray, alone: np.ndarray) -> np.ndarray:
    """Section vertices of the unmerged hull facets, solved from their corners.

    Qhull's normal of a simplex with two nearly coincident corners is off
    in the direction that their difference fixes.  That moves the section
    vertex along the crossing of the two nearly parallel planes, which
    passes content from one of their facets to the other while the volume
    barely changes.  Solving <x, p_0> = 1 and <x, d> = 0 for the unit
    :func:`_differences` d of the corners keeps the split exact.  The
    simplices of a merged facet share Qhull's equation and may be flat, so
    they keep it: only the simplices marked ``alone`` are solved.
    """
    G = P[hull.simplices[alone]]
    D = _differences(G)
    A = np.concatenate([G[:, :1], D / np.linalg.norm(D, axis=2, keepdims=True)], axis=1)
    Y = Y.copy()
    Y[alone] = np.linalg.solve(A, np.eye(P.shape[1])[None, :, :1])[..., 0]
    return Y


def _distinct_equations(eq: np.ndarray):
    """The first simplex of each distinct row of Qhull's facet equations,
    ascending, and the rank among them of each simplex's row.  The
    simplices of a merged facet share one equation bitwise, so a stable
    lexicographic sort puts them in one run, led by the first.
    """
    order = np.lexsort(eq.T)
    run = eq[order]
    starts = np.ones(len(eq), dtype=bool)
    starts[1:] = (run[1:] != run[:-1]).any(axis=1)
    first = order[starts]
    rank = np.empty(len(first), dtype=np.intp)
    rank[first.argsort()] = np.arange(len(first))
    vid = np.empty(len(eq), dtype=np.intp)
    vid[order] = rank[np.cumsum(starts) - 1]
    return np.sort(first), vid


def _point_facets(W: np.ndarray):
    """Vertices of {W x <= 1}, and the cone from the origin over the facet
    of every row that has one, from the hull's cone table
    (:func:`_planar_cones`, :func:`_flag_cones`).

    Returns (vertices, rows, cone, centroid, point, vid): the facet of row
    rows[i] has centroid centroid[i] and content k cone[i] |W[rows[i]]|,
    and (point[j], vid[j]) are its rows and vertices, paired, with repeats.
    For k = 1 a facet is the vertex 1 / p, its cone of length 1 / |p|.
    """
    k = W.shape[1]
    if k == 1:
        rows = np.array(_interval(W))
        verts = (1 / W[rows, 0])[:, None]
        return verts, rows, np.abs(verts[:, 0]), verts, rows, np.arange(2)
    if k == 2:
        P, hull, Y = _planar_hull(W)
        sums = _planar_cones(P, hull, Y)
        verts, rows = np.array(Y), np.array(hull)
        ends = np.arange(len(hull))
        point, vid = np.concatenate((rows, rows)), np.concatenate(((ends - 1) % len(hull), ends))
    else:
        P, hull, Y = _polar_hull(W)
        eq = hull.equations
        # a simplex of a merged facet shares its equation with a neighbor
        alone = ~np.all(eq[hull.neighbors] == eq[:, None, :], axis=2).any(axis=1)
        Y = _solved_vertices(P, hull, Y, alone)
        first, vid = (np.arange(len(eq)),) * 2 if alone.all() else _distinct_equations(eq)
        sums = _flag_cones(P, hull.simplices, hull.neighbors, Y)
        verts = Y[first]
        rows = np.flatnonzero(np.bincount(hull.simplices.ravel(), minlength=len(P)))
        point, vid = hull.simplices.ravel(), np.repeat(vid, k)
    cone = sums[rows, k]
    return verts, rows, cone, sums[rows, :k] / (k * cone)[:, None], point, vid


def build_section(s: Frame) -> SectionPolytope:
    """Construct the section of the cube generated by the frame ``s``.

    Zero vectors contribute no constraint.  A generator has a facet when
    its point of +-V is a vertex of the hull; one whose slab only touches
    the section in a face of dimension below k-1 produces no facet record,
    and the criticality checks flag it downstream.  Rows within
    ``EPS_GEOM`` of each other share one facet, whose content and first
    moment are summed over the group's hull vertices, in one array pass.
    The volume is the sum of the rows' cones (:func:`_point_facets`).
    """
    frame_operator(s)  # raises NotAFrameError unless the vectors span R^k
    V = s.vectors
    gens = np.flatnonzero(np.linalg.norm(V, axis=1) > 1e-14)
    W = np.vstack([V[gens], -V[gens]])
    row_gen = [(i, 1) for i in gens.tolist()] + [(i, -1) for i in gens.tolist()]

    verts, rows, cone, centroid, point, vid = _point_facets(W)
    measure = s.k * cone * np.linalg.norm(W[rows], axis=1)
    label = _coincident_row_groups(W, EPS_GEOM)
    members = [[] for _ in range(int(label.max()) + 1)]
    for r, g in enumerate(label.tolist()):
        members[g].append(r)
    # the sorted union of each group's vertex indices
    held = np.zeros((len(members), len(verts)), dtype=bool)
    held[label[point], vid] = True
    group, ids = held.nonzero()
    ends = np.searchsorted(group, np.arange(len(members) + 1)).tolist()
    own = [g for g in range(len(members)) if ends[g] < ends[g + 1]]
    sums = _sums_by(label[rows], np.column_stack((measure, measure[:, None] * centroid)), len(members))[own]
    normal = W[[members[g][0] for g in own]]
    centroid = sums[:, 1:] / sums[:, :1]
    for x in (verts, normal, centroid):
        x.setflags(write=False)
    measure, ids = sums[:, 0].tolist(), ids.tolist()
    facets, generator_facets = [], {}
    for i, g in enumerate(own):
        normals = tuple([row_gen[r] for r in members[g]])
        f = FacetRecord(normals=normals, vertex_indices=tuple(ids[ends[g]:ends[g + 1]]),
                        measure=measure[i], centroid=centroid[i], normal_vector=normal[i],
                        row_ids=tuple(members[g]))
        facets.append(f)
        for gen, sign in normals:
            generator_facets.setdefault(gen, (f, sign))
    return SectionPolytope(k=s.k, vertices=verts, facets=tuple(facets),
                           generator_facets=generator_facets, _W=W, _volume=float(cone.sum()))


def volume(p: SectionPolytope) -> float:
    """Volume of the section: the sum of the cones from the origin over its
    facets, which :func:`build_section` takes from the hull that
    :func:`section_volume_fast` uses, so it is that volume up to rounding.
    Cross-check against :func:`volume_by_triangulation` where independence
    matters.
    """
    return p._volume


def volume_by_triangulation(p: SectionPolytope) -> float:
    """Independent volume oracle: triangulate the vertex hull."""
    return convex_volume(np.asarray(p.vertices), p.k)


def _parity(perm) -> int:
    """Sign of a permutation given as a sequence of 0..m-1."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


class _FlagPlan(NamedTuple):
    """Index tables of the flag sum in R^k, k >= 3 (:func:`_flag_cones`).

    An s-vector (an element of the s-th exterior power of R^k) is an array
    over the s-subsets of the k coordinates, in ``itertools.combinations``
    order; a 1-vector is a plain vector.

    - ``subsets[s - 1]``: the s-subsets of a simplex's k corner positions,
      s = 1..k-2, the faces whose apexes the chains use.
    - ``wedges[s - 1]``: (index, coordinate, sign) of the wedge a ^ x of an
      s-vector a with a vector x, s = 1..k-1 (:func:`_wedge_first`).
    - ``hodge``: (index, sign) pairing a (k-2)-vector with a 2-vector into
      the determinant of the k columns.
    - ``ridge_rows[j]``: the corner positions other than j, ascending, the
      ridge opposite corner j.
    - ``steps[s - 2]``, s = 2..k-2: for each flagged subset (p, G), p in G
      and |G| = s, in the order of G then p: the flagged subsets
      (p, G - l) for the l in G other than p, the sign (-1)^#{g in G: g > l}
      of each, and p.  Flagged 1-subsets (p, {p}) are numbered by p.
      ``ridge_prev[j]`` and
      ``ridge_eps[j]`` list the same for the ridge opposite j and each p
      in it.
    """

    subsets: tuple
    wedges: tuple
    hodge: tuple
    ridge_rows: np.ndarray
    steps: tuple
    ridge_prev: np.ndarray
    ridge_eps: np.ndarray


@lru_cache(maxsize=16)
def _flag_plan(k: int) -> _FlagPlan:
    coords = [list(itertools.combinations(range(k), s)) for s in range(k + 1)]
    name = [{sub: i for i, sub in enumerate(subs)} for subs in coords]
    subsets = coords[1:k - 1]
    wedges = tuple(
        (np.array([[name[s][t[:m] + t[m + 1:]] for m in range(s + 1)] for t in coords[s + 1]]),
         np.array(coords[s + 1]),
         np.array([(-1.0) ** (s - m) for m in range(s + 1)]))
        for s in range(1, k)
    )
    rest = [tuple(i for i in range(k) if i not in sub) for sub in coords[k - 2]]
    hodge = (np.array([name[2][r] for r in rest]),
             np.array([float(_parity(sub + r)) for sub, r in zip(coords[k - 2], rest)]))
    ridge_rows = [tuple(i for i in range(k) if i != j) for j in range(k)]

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
                      np.array([p for p, _ in flagged(s)])))
    index = {pg: i for i, pg in enumerate(flagged(k - 2))}
    ridges = [[peel(p, rows, index) for p in rows] for rows in ridge_rows]
    plan = _FlagPlan(
        subsets=tuple(np.array(s, dtype=np.intp) for s in subsets),
        wedges=wedges,
        hodge=hodge,
        ridge_rows=np.array(ridge_rows, dtype=np.intp),
        steps=tuple(steps),
        ridge_prev=np.array([[i for i, _ in r] for r in ridges], dtype=np.intp),
        ridge_eps=np.array([[e for _, e in r] for r in ridges]),
    )
    tables = (*plan.subsets, *itertools.chain(*plan.wedges), *plan.hodge, plan.ridge_rows,
              *itertools.chain(*plan.steps), plan.ridge_prev, plan.ridge_eps)
    for a in tables:
        a.setflags(write=False)
    return plan


def _wedge_first(table, a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The wedges a ^ x of a stack of s-vectors a with a stack of vectors
    x, by a ``wedges`` table, with the components on the first axis.

    Every gather then copies whole rows of the stack, and the signed sum is
    one matrix-vector product over the terms.
    """
    index, coord, sign = table
    terms = a.take(index.T, axis=0) * x.take(coord.T, axis=0)
    return (sign @ terms.reshape(len(sign), -1)).reshape(terms.shape[1:])


def _face_slots(simplices: np.ndarray, sub: np.ndarray, points: int):
    """(key, slot) for the corner subsets ``sub`` (an entry of a plan's
    ``subsets``): key[f, g] names the point set G of subset g of simplex f,
    and slot[key] is the highest f * len(sub) + g with that set, -1 for a
    set no simplex holds; its f is the highest simplex that holds G, the
    same wherever G occurs.  The points are numbered below ``points``.
    """
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
    # a plain fancy-index assignment would keep whichever write numpy
    # makes last, in an order that follows the memory layout of ``key``
    slot = np.full(comb(points, sub.shape[1]), -1)
    np.maximum.at(slot, key, np.arange(key.size).reshape(key.shape))
    return key, slot


def _flag_cones(P: np.ndarray, simplices: np.ndarray, neighbors: np.ndarray, Y: np.ndarray):
    """The cone table of the polar body of conv(P), k >= 3: the cones from
    the origin over its facets, with their first moments, by a signed sum
    over the flags of Qhull's triangulation, split by first corner.  Row p
    of the (len(P), k + 1) result holds k + 1 times the first moment of the
    cone over the facet F_p (each simplex's volume times the sum of its
    vertices), then that cone's volume; a point off the hull has a row of
    zeros, and the volume of the body is the sum of the last column.

    ``simplices`` and ``neighbors`` are Qhull's facets of conv(P) and their
    adjacency (the neighbor opposite each corner), and Y[f] the polar
    vertex of facet f.  The polar body Q = {x : <x, p> <= 1} is the sum
    of the cones from the origin over its facets F_p, one per vertex p,
    and each facet is in turn the sum of cones from a point of it over
    its faces, down to the edges.  A flag of simplex f, an ordering tau
    of its corners, thus contributes the signed simplex
    (0, x_{tau_0}, x_{tau_0 tau_1}, ..., Y_f), with x_G a point of the
    face of Q dual to G: the polar vertex of one simplex that holds G, the
    same one wherever G occurs (:func:`_face_slots`).  Any point of that
    face's affine hull would do; one on the face keeps every cone as small
    as its face.  The flags of the two simplices f, g across a ridge R
    share every vertex but the last two, and because x_R, Y_f and Y_g lie
    on one line the pair is the signed simplex

        sigma_R * sgn(tau) * (0, x_{tau_0}, ..., x_{tau_0..tau_(k-3)}, Y_g, Y_f)

    over the orderings tau of R's k-1 corners, where sigma_R is the sign of
    det(R's corners, Y_f - Y_g).  So each ridge is visited once.  The
    orientation is read off the ridge, not off the simplex f, because
    Qhull's triangulation of a non-simplicial facet can leave flat
    simplices, and the sign of their determinant is noise.  Qhull merges
    only facets of conv(P) that are coplanar within its own roundoff, and
    the simplices of a merged facet share one polar vertex, so their ridges
    add exactly 0.

    sigma_R stays: the ridge terms are not all of one sign.  On 100 random
    frames and 10 rotated frames whose +-v are the vertices of a cube, per
    k, no term fell below -1.4e-17 of the volume at k = 3 and 4, but at
    k = 5 terms reached -0.077 of the volume and the sum of their
    magnitudes was up to 23 % off.

    The terms with tau_0 = p make up the cone over F_p, of volume
    |F_p| / (k |p|) and first moment k / (k + 1) |cone| centroid(F_p).
    With A_p(G) the sum over the orderings tau of G that start at p of
    sgn(tau) x_{tau_0} ^ x_{tau_0 tau_1} ^ ... ^ x_G,

        A_p(G) = (sum over l in G - p of (-1)^#{g in G: g > l} A_p(G - l)) ^ x_G,

    and the ridge term of p is the same sum over R with Y_g ^ Y_f in place
    of x_G.  The first moments follow the same recursion, B_p(G) =
    (sum ...B_p(G - l)) ^ x_G + A_p(G) (x) x_G, with B_p({p}) = x_p (x) x_p;
    A_p rides along as one more moment coordinate, B_p taken against
    (x_G, 0) from (x_p, 1).  The points after x_p enter the wedges as
    differences from x_p, and Y_g ^ Y_f as (Y_g - x_p) ^ (Y_f - Y_g): the
    wedges of a tiny facet stay as small as the facet, so its own cone is
    exact to rounding.

    x_G is the same wherever G occurs, so A_p(G) is a function of the face
    G and p: with the corners of every simplex in ascending order, it is
    computed once per face, at the slot that names its holder
    (:func:`_face_slots`).  The arrays hold components first and the stack
    last (:func:`_wedge_first`), so each numpy call works on whole rows: at
    (n, k) = (7, 3) and (7, 4) a call handles a few dozen simplices, and
    the count of calls, not the arithmetic, sets the time.
    """
    k = P.shape[1]
    plan = _flag_plan(k)
    F, N = len(simplices), len(P)
    if k > 3:  # corners ascending, so every simplex that holds a face lists it alike
        order = simplices.argsort(axis=1) + np.arange(0, F * k, k)[:, None]
        simplices, neighbors = simplices.take(order), neighbors.take(order)
    ridge = (neighbors.T > np.arange(F)).ravel().nonzero()[0]  # j * F + f, each ridge once
    f, j = ridge % F, ridge // F
    Yf, Yg = Y.T.take(f, axis=1), Y.T.take(neighbors.T.take(ridge), axis=1)
    edge = Yf - Yg
    owner = simplices.take(f * k + plan.ridge_rows.T.take(j, axis=1))  # (k - 1, ridges)
    corners = P.T.take(owner, axis=1)
    top = corners[:, 0]
    for i in range(1, k - 1):
        top = _wedge_first(plan.wedges[i - 1], top, corners[:, i])
    sigma = np.sign(_wedge_first(plan.wedges[k - 2], top, edge)[0])

    # A_p and B_p of each face G once, at its highest slot, on the flags
    # (p, G) numbered face by face; the faces of size 1 are the points
    x1 = Y.T.take(_face_slots(simplices, plan.subsets[0], N)[1] // k, axis=1)
    b = x1[:, None] * np.concatenate((x1, np.ones((1, N))))[None]  # (components, k + 1, flags)
    face = simplices  # the face of each corner subset of each simplex
    for s, (sub, (prev, eps, lead), table) in enumerate(
            zip(plan.subsets[1:], plan.steps, plan.wedges), start=2):
        key, slot = _face_slots(simplices, sub, N)
        held = slot >= 0
        at, g = np.divmod(slot[held], len(sub))
        q = (g[:, None] * s + np.arange(s)).ravel()  # its flags in the simplex ``at``
        at = at.repeat(s)
        g, i = np.divmod(prev.take(q, axis=0), s - 1)
        peeled = b.take(face.take(at[:, None] * face.shape[1] + g).T * (s - 1) + i.T, axis=2)
        x = Y.T.take(at, axis=1)
        b = _wedge_first(table, np.einsum("cmlq,lq->cmq", peeled, eps.take(q, axis=0).T),
                         (x - x1.take(simplices.take(at * k + lead.take(q)), axis=1))[:, None])
        b[:, :k] += b[:, k:] * x
        face = (np.cumsum(held) - 1).take(key)

    g, i = np.divmod(plan.ridge_prev.T.take(j, axis=2), k - 2)  # (k - 2, k - 1, ridges)
    chain = b.take(face.take(f * face.shape[1] + g) * (k - 2) + i, axis=2)
    # (components, k + 1, k - 1, ridges)
    chain = np.einsum("cmlpr,lpr->cmpr", chain, plan.ridge_eps.T.take(j, axis=2))
    yy = _wedge_first(plan.wedges[0], Yg[:, None] - x1.take(owner, axis=1), edge[:, None])
    index, sign = plan.hodge
    det = np.einsum("c,cmpr,cpr->mpr", sign, chain, yy.take(index, axis=0))
    det[:k] += det[k] * (Yg + Yf)[:, None]
    det *= sigma / factorial(k)
    return _sums_by(owner.ravel(), det.reshape(k + 1, -1).T, N)


def _cone_table(P: np.ndarray) -> np.ndarray:
    """The cone table of the polar body {x : P x <= 1}, k >= 2, from one
    hull of P: :func:`_planar_cones` on :func:`_planar_hull` in the plane,
    :func:`_flag_cones` on :func:`_polar_hull` for k >= 3."""
    if P.shape[1] == 2:
        return _planar_cones(*_planar_hull(P))
    P, hull, Y = _polar_hull(P)
    return _flag_cones(P, hull.simplices, hull.neighbors, Y)


def _halfspace_volume(P: np.ndarray) -> float:
    """Volume of the polar body {x : P x <= 1} of the points P, whose hull
    holds the origin inside: the sum of the cones of its cone table
    (:func:`_cone_table`), or for k = 1 the length of the interval.

    A system {W x <= c}, every c > 0, is the polar body of P_r = W_r / c_r.
    The body need not be centrally symmetric; the hull goes once round the
    origin.  Raises :class:`NotAFrameError` when the points do not span
    R^k, and, for k >= 3, :class:`DegeneratePolytopeError` when Qhull fails
    on points that do.
    """
    if P.shape[1] == 1:
        lo, hi = _interval(P)
        return float(1 / P[hi, 0] - 1 / P[lo, 0])
    return float(_cone_table(P)[:, -1].sum())


def section_volume_fast(vectors: np.ndarray) -> float:
    """Volume of the generated section without facet bookkeeping: the
    polar body of the points +-V (:func:`_halfspace_volume`).

    The volume optimizer restarts are ranked by.  Zero and tiny vectors are
    points deep inside the hull of +-V, so they contribute no constraint
    and need no filter; a frame that spans only through them fails the
    ``DEPTH_FLOOR`` of the scan or of :func:`_polar_hull`.  Routes:

    - k = 1: the section is the interval |x| <= 1 / max |v_i|, of length
      2 / max |v_i|.
    - k = 2: one Graham scan once round the hull of +-V
      (:func:`_planar_hull`), with no Qhull call, and the sum of its
      triangles from the origin over the section's edges
      (:func:`_planar_cones`).
    - k >= 3: Qhull's triangulation of the same hull, and the sum of the
      cones over the section's facets, one determinant per ridge and corner
      (:func:`_flag_cones`).

    Neither has a feasibility slack.  Both are within 1e-13 of an exact
    rational volume on near-parallel frames (points of +-V down to 1e-13
    apart), duplicated-vector and box frames, and in the plane on frames
    that hold v and -v, ties for the largest norm and collinear points of
    +-V; for k >= 3 also on frames whose +-v are the vertices of a cube,
    and on sections with facets shifted or tilted.  It is bitwise the
    volume of :func:`_volume_and_gradient`, which reads the same table.

    It tests depth, not span: :class:`NotAFrameError` is raised when the
    points +-V are flat, or a facet of their hull (an edge, in the plane)
    lies within ``DEPTH_FLOOR`` max |v_i| of the origin; and, for k >= 3,
    :class:`DegeneratePolytopeError` when Qhull fails on points that pass.
    Nearly flat vectors pass that test.  Where the least eigenvalue of the
    frame operator is below ``RANK_FLOOR``, so that :class:`Frame` and
    :func:`build_section` raise, this returns a huge volume: 2.6e7 at
    (7, 2) and 5.1e7 at (7, 3) for random tight frames whose last column
    is scaled by 3e-7 (eigenvalue 9e-14).  The precondition is the span
    test of :class:`Frame`, which the vectors of every ``Frame`` built
    with it, and of every tight frame, pass.  It is not repeated here,
    where it would cost an eigenvalue solve per call.
    """
    return _halfspace_volume(np.concatenate((vectors, -vectors)))


def _volume_and_gradient(V: np.ndarray):
    """(volume, G): the section volume of the frame vectors V, k >= 2, and
    its Euclidean gradient with respect to V, both from one cone table of
    the hull of +-V (:func:`_cone_table`); the volume is bitwise that of
    :func:`section_volume_fast`.

    The gradient of v_i is -2 mu_i c_i / |v_i|, with mu_i the content and
    c_i the centroid of the facet on <x, v_i> = 1 (the facet on
    <x, -v_i> = 1 is its negation); a generator that supports no facet gets
    0.  The first moment of the cone from the origin over the facet of a
    point p, times k + 1, is mu_p c_p / |p|, the first k columns of the
    table's row p.  In the plane there is no Qhull or ``eigh`` call.  Of
    coincident points only the one the hull keeps gets the facet.  Raises
    as :func:`section_volume_fast` does.
    """
    n, k = V.shape
    S = _cone_table(np.concatenate((V, -V)))
    return float(S[:, -1].sum()), S[n:, :k] - S[:n, :k]


def shift_facet_predict(p: SectionPolytope, f: FacetRecord, h: float) -> float:
    """First-order volume change when a facet is shifted outward by ``h``."""
    return float(h * f.measure)


def shifted_section_volume(p: SectionPolytope, f: FacetRecord, h: float) -> float:
    """Rebuild the section with facet ``f`` shifted outward by ``h``.

    All constraint rows supporting the facet move together (they describe
    the same hyperplane); the opposite facet stays put, so the rebuilt body
    is generally not centrally symmetric.
    """
    c = np.ones(len(p._W))
    for r in f.row_ids:
        c[r] += h * np.linalg.norm(p._W[r])
    return _halfspace_volume(p._W / c[:, None])


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
    return _halfspace_volume(W)
