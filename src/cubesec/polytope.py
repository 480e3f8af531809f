"""Section polytopes of the cube generated by a frame.

The section generated by a frame S is the intersection of the symmetric
slabs |<x, v>| <= 1 over the frame vectors.  It is the polar body of
P = conv{+-v}: a facet a.x + b <= 0 of P is the vertex a / (-b) of the
section, and a vertex p of P is the normal of the facet <x, p> = 1.

One construction serves everything here: the hull of a set of polar
points P, whose polar body {x : <x, p> <= 1 for every p in P} is the
section when P is +-V, or +-U for the rows U of V's clusters of exact
ties, the same points without their repeats.  Its facets are the body's
vertices, its vertices the body's facets.  The hull functions take P and nothing else; the
shifted rebuild of a facet forms its points W_r / c_r itself
(:func:`shifted_section_volume`).  In the plane the hull is a Graham scan
of the points sorted by angle, once round the origin (:func:`_scan`,
:func:`_planar_hull`), with no Qhull call: it gives the section vertices
in order, and the facet of a hull vertex is the edge between the section
vertices of its two hull edges.  For k >= 3 it is Qhull's hull
(:func:`_polar_hull`), whose distinct facet equations are the section's
vertices.  For k = 1 the section is an interval in closed form.

One object holds the section of a set of polar points (:class:`_Section`):
it decides box or hull once, when it is built, builds the hull at most
once, and reads each quantity only when asked.  Its hull is in the plane
the scan, which gives the cone table with the vertices, one triangle per
section edge; for k >= 3 Qhull's hull and the index plan of its flag sum,
read off the triangulation alone (:func:`_hull_plan`).  The plan fixes the
corner order once: at k > 3 it sorts the corners of each simplex, and it
names the faces level by level on the corners in that order, with no sort
of their own: a point by itself, and a face G of two or more points by
the name of G minus its largest point times the count of points, plus
that point.  A name is below the count of faces one level down times the
count of points, so it fits ``np.intp`` for any hull that fits in memory.
Every volume and every facet is read from the cone table of one such
hull, but at a box frame (below): row p holds the cone from the origin
over the facet of the point p, its volume and first moment.  For
k >= 3 :func:`_flag_sum` sums it over the flags of Qhull's triangulation,
one determinant per ridge and corner, from the plan, the points and the
polar vertices.  The volume is the sum of the table's volume column, in
row order, read without the moment columns; the same table with them
gives the Euclidean gradient, one sum with moments per section, taken
only when the gradient is asked for.

:func:`build_section` reads the facets from the section, point by point
(:meth:`_Section.facets`): for each point that has a facet, its content,
its first moment and the section vertices it holds, from the interval,
the scan, the cone table over the solved vertices or, at a box, U^-1.  It
assembles the records in one pass (:func:`_assemble`): a group label per
point (points within ``EPS_GEOM`` share a facet), contents and first
moments summed by label, and the vertex indices of each group from one
incidence matrix, the same code on every route.  Each fact of a facet
has one rule: Qhull's merged facets are the equations that more than one
simplex repeats (:func:`_distinct_equations`), and a group's normal is
its outermost row.  It sums no volume: the polytope holds its
:class:`_Section`, and :func:`volume` reads that section's one volume, so
:func:`volume` of :func:`build_section` and :func:`section_volume_fast`
are one number, bitwise, at every k.  For k >= 3 the facets' table runs
over the vertices solved from Qhull's corners and the volume over Qhull's
own, so the facet closure sum_F dist_F mu_F / k meets the volume to
rounding only; ``cubesec report`` prints how far apart they are.

One section per frame, of one row per cluster: every route builds the
section of the rows U of the frame's clusters of exact ties
(:func:`_clusters`), each a cluster's least member, with sign +1, and its
points are +-U (:meth:`_Section.of_rows`).  The ascent builds it on the
rows it carries, and :func:`build_section` and :func:`section_volume_fast`
read it, with V's labels and signs, from one slot, :func:`_section`,
keyed by the bytes of V, so a restart's volume is the fast volume of its
frame, bitwise.  Whichever of the two runs second on a frame builds no
hull and no plan, and takes no box test, and the volume is summed once,
on its first read, and kept.  perfbench's certify and
``checks.check_restart`` run both routes on a frame, and
``verify_frame(s)`` and a ``build_section(s)`` on its frame share one
section, as ``maximize`` checks its winner and the battery then reads
that winner's section; ``cubesec report`` runs :func:`build_section`
alone.  The ascent and the shifted and tilted rebuilds build their own
sections.

Box frames in closed form, with no hull on any route: for k >= 3 a frame
whose generators lie on exactly k lines, the k clusters of the exact ties
(:func:`_clusters`) led by the rows U, has the parallelepiped
{|U x| <= 1} for its section.  The box test is taken in one place,
:meth:`_Section.of_rows`, as ``len(U) == k >= 3`` on the rows it is
given, and :meth:`_Section.volume`, :meth:`_Section.gradient` and
:meth:`_Section.facets` only read its outcome.  A box reads everything
from :func:`_box`: its volume 2^k / |det U|, U^-1 and its vertices
U^-1 s for the signs s in {-1, 1}^k, with the depth test of the hull
route.  The gradient is -vol U^-T, one row per line, and the facets are
the lines': point c of +-U is the line c, the facet of s u_c holds the
vertices with s_c = s, its centroid is s U^-1 e_c and its content
vol |u_c| / 2.  A box two of whose lines lie within ``EPS_GEOM`` is read
the same way, and :func:`_assemble` groups their facets as it groups
any points.  The rebuilds, whose bodies are no longer centred
parallelepipeds, and the plane keep the cone table.

One raise contract on every volume route (:func:`section_volume_fast`,
:func:`volume` of :func:`build_section`, and a :class:`_Section` of a
frame's rows, as the ascent builds it, or of the rebuilds' points) tests the
depth of the hull of the polar points P, not their span.
:class:`NotAFrameError` is raised when P is flat, or a facet of its hull
(an edge in the plane, the facet of a vertex U^-1 s at a box) lies within
``DEPTH_FLOOR`` max |P| of the origin or on the wrong side of it; for
k = 1, when P does not lie on both sides of the origin.  For k >= 3
:class:`DegeneratePolytopeError` is raised when Qhull fails on points that
pass.  The span test, against ``RANK_FLOOR``, is :class:`Frame`'s, and no
route repeats it: a nearly flat ``Frame(v, require_span=False)`` that
passes the depth test reads one volume on every route, one to which
Ball's bound does not apply, as the frame is not tight.  The points must
be finite, as a :class:`Frame`'s are.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache
from math import atan2, factorial
from typing import NamedTuple

import numpy as np
from scipy.spatial import ConvexHull
from scipy.spatial import QhullError

from .frame_core import Frame, NotAFrameError

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
    count is the facet multiplicity d.  ``row_ids`` index the rows of the
    section's points +-U (``SectionPolytope._section.P``), the rows U of the
    frame's clusters of exact ties and then their negations, that lie on
    its plane: exact ties are one row there, so a facet of d pairs may have
    fewer rows.  Its rows are one ``EPS_GEOM`` group, and ``normal_vector``
    is the group's outermost row of +-V, the one of largest norm, the least
    of them on a tie.  Of parallel rows that is the
    one whose hyperplane is nearest the origin, the one that supports the
    facet, so ``distance`` is the facet's own; where nearly parallel rows
    each carry a part of the facet, it is exact to ``EPS_GEOM``.  Where the
    group's rows are exact ties it is the least row.
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
    """V-representation and facet data of a cube section, and the
    :class:`_Section` of its points +-U, one row per cluster of exact ties,
    whose one volume :func:`volume` reads; ``generator_facets`` maps a
    generator to (facet, sign) for the first facet whose ``normals`` hold
    it, and its sign there."""

    k: int
    vertices: np.ndarray
    facets: tuple
    generator_facets: dict = field(repr=False)
    _section: _Section = field(repr=False)

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "volume": volume(self),
            "vertices": self.vertices.tolist(),
            "facets": [f.to_dict() for f in self.facets],
        }


def convex_volume(points: np.ndarray, k: int) -> float:
    """Volume of the convex hull of ``points`` by triangulation.

    The cross-check behind :func:`volume_by_triangulation`; no section
    volume is computed with it.  It is not independent of the volume
    routes: for k >= 3 it runs Qhull, as they do, and it was the least
    accurate of the three against the exact volume
    (``tests/oracles.exact_volume``, in rational arithmetic) where the
    three were compared.  For k = 2 the points must be the vertices of a
    convex polygon: they are sorted by angle about their mean, and
    the area is their shoelace.  For k >= 3 Qhull runs with
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


def _clusters(V: np.ndarray):
    """Signed clusters of the generators: (label, sign, first).

    Generators that coincide exactly up to sign are one cluster: v_i =
    sign[i] sign[j] v_j for i, j of one label.  Labels run from 0 in the
    order of their least members, ``first[c]`` is the least member of
    cluster c, and its sign is +1.  Rows that coincide up to sign share
    |v_1|, so when the n values |v_i1| are distinct there is no tie, and
    the clusters are the generators, returned at once.  Otherwise one pass
    over the rows keys each new cluster's least member, as a tuple, and its
    negation in a dict, so rows are compared by value: -0.0 equals and
    hashes as 0.0, and a zero vector, its own negation, has sign +1.  No
    other function computes ties.  Every section is built on the rows
    ``V[first]`` (:meth:`_Section.of_rows`), a box when there are exactly k
    of them: :func:`_section` groups the frame here for the public routes,
    and ``optimizer.ascend`` its start frame, once per restart, carrying
    the weighted frame alone: those rows and the sizes
    ``np.bincount(label)``.  Its moves map those to the next frame's rows
    and sizes, so no candidate is grouped again.
    """
    if len({abs(x) for x in V[:, 0].tolist()}) == len(V):  # no tie
        first = np.arange(len(V), dtype=np.intp)
        return first.copy(), np.ones(len(V)), first
    label, sign, first, ties = [], [], [], {}
    for i, row in enumerate(V.tolist()):
        key = tuple(row)
        if key not in ties:
            ties[tuple([-x for x in row])] = (len(first), -1.0)
            ties[key] = (len(first), 1.0)
            first.append(i)
        c, s = ties[key]
        label.append(c)
        sign.append(s)
    return np.array(label, dtype=np.intp), np.array(sign), np.array(first, dtype=np.intp)


def _coincident_row_groups(W: np.ndarray, tol: float) -> np.ndarray:
    """The group of each constraint row, a group's rows describing one
    oriented hyperplane: rows within ``tol`` of each other in every
    coordinate are joined, transitively.  Groups are numbered in the order
    of their least rows.  Its one caller is :func:`build_section`, which
    groups its rows at ``EPS_GEOM``; exact ties, at tolerance 0, are
    hashed instead (:func:`_clusters`).  The rows must be finite, as a
    :class:`Frame`'s are: a NaN or infinite row reaches no row, not even
    itself, so the closure would never become an equivalence."""
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
    from above.  Raises as the module's raise contract says."""
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


def _planar_hull(P: np.ndarray):
    """Hull of the polar points P in the plane, the vertices of their polar
    body and its cone table, by one Graham scan (:func:`_scan`) once round
    the origin.

    Returns (hull, Y, S), the first two as tuples: the rows whose points
    are the hull's vertices, in counterclockwise order; Y[j] the polar vertex of the hull edge from
    hull[j] to hull[j + 1], cyclically, so that the facet of row hull[j] is
    the edge from Y[j - 1] to Y[j]; and the cone table S in the layout of
    :func:`_flag_sum`: row p of the (len(P), 3) array holds 3 times the
    first moment of the cone from the origin over the facet of the point
    P[p], then its area, and a point off the hull has a row of zeros.

    The points are sorted by their angle about the origin, and the scan
    starts and ends at the point of largest norm, always a hull vertex.
    The body need not be centrally symmetric, as the shifted and tilted
    rebuilds are not.  An edge (p, q) is the line <x, p> = <x, q> = 1, so
    its polar vertex is J(q - p) / (p x (q - p)), with J(dx, dy) = (dy, -dx).
    The cone over the facet of q_j = P[hull[j]] is the triangle
    (0, Y[j - 1], Y[j]), of area t_j / (2 x_j x_(j+1)), t_j the turn
    (q_j - q_(j-1)) x (q_(j+1) - q_j) and x_j = q_(j-1) x q_j; 3 times its
    first moment is its area times Y[j - 1] + Y[j].  The difference and
    the crossing of each edge are formed once, from the short difference
    q - p (see :func:`_solved_vertices`), so a vertex and a cone are exact
    to rounding however short the facet.

    Raises as the module's raise contract says, for fewer than 3 hull
    vertices too.
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
    edges, Y = [], []  # (dx, dy, cross) and the polar vertex of edge j
    px, py = P[hull[0]]
    for r in hull[1:] + hull[:1]:
        qx, qy = P[r]
        dx, dy = qx - px, qy - py
        cross = px * dy - py * dx
        # an edge this close to the origin puts a section vertex out at
        # 1 / distance, as a shallow facet does in _polar_hull
        if cross <= 0 or cross * cross <= floor * floor * (dx * dx + dy * dy):
            raise NotAFrameError("not a frame")
        edges.append((dx, dy, cross))
        Y.append((dy / cross, -dx / cross))
        px, py = qx, qy
    S = [(0.0, 0.0, 0.0)] * len(P)
    for j, r in enumerate(hull):
        (ix, iy, a), (ox, oy, b) = edges[j - 1], edges[j]
        w = (ix * oy - iy * ox) / (2 * a * b)
        (ux, uy), (vx, vy) = Y[j - 1], Y[j]
        S[r] = (w * (ux + vx), w * (uy + vy), w)
    return tuple(hull), tuple(Y), np.array(S)


def _polar_hull(P: np.ndarray):
    """Qhull's hull of the polar points P, k >= 3 (the plane has
    :func:`_planar_hull`), and the vertices of their polar body.

    Returns (hull, Y), Y[f] = a / (-b) for hull facet f: a.x + b <= 0.
    Raises as the module's raise contract says.
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
    return hull, eq[:, :k] / depth[:, None]


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

    This is the one merged-facet rule of :meth:`_Section.facets`: a hull facet
    is a distinct equation, a section vertex, and it is merged exactly when
    more than one simplex repeats its equation; a simplex no other repeats
    is solved alone (:func:`_solved_vertices`).
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


def build_section(s: Frame) -> SectionPolytope:
    """Construct the section of the cube generated by the frame ``s``.

    Its constraint rows are +-V over every generator: row i is (i, +1), row
    n + i is (i, -1).  They are the points +-U of the section's one
    :class:`_Section` (:func:`_section`), which :func:`section_volume_fast`
    shares on the same vectors, U the rows of the clusters of exact ties,
    and V's labels and signs map each row of +-V to its point
    (:func:`_assemble`).  A generator has a facet when its point is a
    vertex of the hull: a zero vector, the origin, has none, nor has one
    whose slab only touches the section in a face of dimension below k-1,
    and the criticality checks flag both downstream.  The section gives
    the facet of each point (:meth:`_Section.facets`), and points within
    ``EPS_GEOM`` of each other share one facet record; the facets come in
    the order of their least rows of +-V, whichever route gives them:

    - k = 1: the interval's two ends;
    - k = 2: the edges of the planar scan;
    - a box, k >= 3, its two lines within ``EPS_GEOM`` or not: the
      parallelepiped {|U x| <= 1} from U^-1, with no hull; its vertices
      come in sign order;
    - any other frame: the cone table of Qhull's hull over the vertices
      solved from its corners.

    It sums no volume: :func:`volume` reads the section's, on its first
    read, so the two routes on a frame run one volume sum between them.
    It raises as the module's raise contract says; the span test is
    ``s``'s own, taken when it was built.
    """
    return _assemble(s.vectors, *_section(s.vectors))


def _assemble(V: np.ndarray, section: _Section, label: np.ndarray,
              sign: np.ndarray) -> SectionPolytope:
    """The section polytope of the frame vectors V whose clusters of exact
    ties (:func:`_clusters`) have the labels ``label`` and the signs
    ``sign``, from ``section``, the :class:`_Section` of the rows W = +-U
    of those clusters.

    The section gives the facet of each of its points that has one
    (:meth:`_Section.facets`), on every route alike.  The points are
    grouped at ``EPS_GEOM`` (:func:`_coincident_row_groups`), in one pass:
    ``held[g, j]`` whether group g's facet holds vertex j, each group that
    holds one a facet, and ``sums[g]`` the content of that facet and then
    its first moment, the content times the centroid, summed over the
    group's points.  Each row of +-V is mapped to its row of W, so
    a facet lists the (generator, sign) of every row of +-V on its plane,
    row i of +-V being (i, +1) and row n + i (i, -1), and the facets come in
    the order of their groups' least rows of +-V.  A facet's
    ``normal_vector`` is its group's outermost row of +-V, the one of
    largest norm, the least of them on a tie (:class:`FacetRecord`); for
    k = 1 it is the row :func:`_interval` finds.  The polytope holds
    ``section``, whose volume is the polytope's (:func:`volume`)."""
    W, k = section.P, section.P.shape[1]
    verts, points, sums, point, vid = section.facets()
    group = _coincident_row_groups(W, EPS_GEOM)
    count = int(group.max()) + 1
    held = np.zeros((count, len(verts)), dtype=bool)
    held[group[point], vid] = True
    sums = _sums_by(group[points], sums, count)
    n, m = len(V), len(W) // 2
    row = np.concatenate((label, label)) + m * (np.concatenate((sign, -sign)) < 0)
    grouped = group[row].tolist()
    # the rows of +-V and of W in each group
    members, rows = [[] for _ in range(count)], [[] for _ in range(count)]
    for r, g in enumerate(grouped):
        members[g].append(r)
    for j, g in enumerate(group.tolist()):
        rows[g].append(j)
    # the sorted union of each group's vertex indices; the facets in the
    # order of their least rows of +-V
    holder, ids = held.nonzero()
    ends = np.searchsorted(holder, np.arange(count + 1)).tolist()
    own = [g for g in dict.fromkeys(grouped) if ends[g] < ends[g + 1]]
    sums = sums[own]
    # the outermost row of +-V of each group, the least of them on a tie
    norm = np.linalg.norm(W, axis=1)[row].tolist()
    normal = np.concatenate((V, -V))[[max(members[g], key=norm.__getitem__) for g in own]]
    centroid = sums[:, 1:] / sums[:, :1]
    for x in (verts, normal, centroid):
        x.setflags(write=False)
    measure, ids = sums[:, 0].tolist(), ids.tolist()
    row_gen = [(i, 1) for i in range(n)] + [(i, -1) for i in range(n)]
    facets, generator_facets = [], {}
    for i, g in enumerate(own):
        normals = tuple([row_gen[r] for r in members[g]])
        f = FacetRecord(normals=normals, vertex_indices=tuple(ids[ends[g]:ends[g + 1]]),
                        measure=measure[i], centroid=centroid[i], normal_vector=normal[i],
                        row_ids=tuple(rows[g]))
        facets.append(f)
        for gen, s in normals:
            generator_facets.setdefault(gen, (f, s))
    return SectionPolytope(k=k, vertices=verts, facets=tuple(facets),
                           generator_facets=generator_facets, _section=section)


def volume(p: SectionPolytope) -> float:
    """Volume of the section: :meth:`_Section.volume` of the polytope's
    section, the one volume of the frame, so it is
    :func:`section_volume_fast` of the same vectors, bitwise, at every k
    and whichever of the two runs first.  The independent reference is the
    exact volume in rational arithmetic, ``tests/oracles.exact_volume``,
    to which the tests hold it.
    """
    return p._section.volume()


def volume_by_triangulation(p: SectionPolytope) -> float:
    """Volume of the vertex hull by triangulation (:func:`convex_volume`),
    a cross-check, not an independent oracle."""
    return convex_volume(np.asarray(p.vertices), p.k)


def _parity(perm) -> int:
    """Sign of a permutation given as a sequence of 0..m-1."""
    inversions = sum(a > b for a, b in itertools.combinations(perm, 2))
    return -1 if inversions % 2 else 1


class _FlagPlan(NamedTuple):
    """Index tables of the flag sum in R^k, k >= 3 (:func:`_flag_sum`).

    An s-vector (an element of the s-th exterior power of R^k) is an array
    over the s-subsets of the k coordinates, in ``itertools.combinations``
    order; a 1-vector is a plain vector.

    - ``subsets[s - 1]``: the s-subsets of a simplex's k corner positions,
      s = 1..k-2, the faces whose apexes the chains use.
    - ``parents[s - 2]``, s = 2..k-2: for each row of ``subsets[s - 1]``,
      the row of ``subsets[s - 2]`` with the same positions but the last.
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
    parents: tuple
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
        parents=tuple(np.array([name[s - 1][t[:-1]] for t in coords[s]]) for s in range(2, k - 1)),
        wedges=wedges,
        hodge=hodge,
        ridge_rows=np.array(ridge_rows, dtype=np.intp),
        steps=tuple(steps),
        ridge_prev=np.array([[i for i, _ in r] for r in ridges], dtype=np.intp),
        ridge_eps=np.array([[e for _, e in r] for r in ridges]),
    )
    tables = (*plan.subsets, *plan.parents, *itertools.chain(*plan.wedges), *plan.hodge,
              plan.ridge_rows, *itertools.chain(*plan.steps), plan.ridge_prev, plan.ridge_eps)
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


class _HullPlan(NamedTuple):
    """Index tables of the flag sum over one triangulation in R^k, k >= 3
    (:func:`_hull_plan`): everything :func:`_flag_sum` reads of the hull
    but its polar vertices.

    - ``simplex`` and ``neighbor``: the two simplices f < g across each
      ridge, each ridge once.
    - ``owner``: (k - 1, ridges), the points of each ridge's corners, in
      the order of the plan's ``ridge_rows``.
    - ``first``: for each point, the simplex whose polar vertex is its
      x_p, the highest simplex that holds the point; -1 for a point off
      the hull, which no flag reads.
    - ``chain`` and ``chain_sign``: for each ridge R and corner p of it,
      the places of the flags (p, R - l) in the stack of the flags of
      size k - 2, and their signs.
    - ``steps``: per face size s = 2..k-2, (holder, gather, sign, lead),
      one entry per flag (p, G) with |G| = s, numbered face by face: the
      simplex whose polar vertex is x_G, the highest that holds G, the
      places of the flags (p, G - l) in the stack of size s - 1, their
      signs, and the point p.  The faces of a size are numbered in the
      order of their names (:func:`_hull_plan`).

    Every index array is ``np.intp``.
    """

    simplex: np.ndarray
    neighbor: np.ndarray
    owner: np.ndarray
    first: np.ndarray
    chain: np.ndarray
    chain_sign: np.ndarray
    steps: tuple


def _hull_plan(simplices: np.ndarray, neighbors: np.ndarray, points: int) -> _HullPlan:
    """The index tables of the flag sum over Qhull's triangulation of the
    hull of ``points`` points, k >= 3: its ``simplices`` and their
    ``neighbors`` (the neighbor opposite each corner), and nothing else.

    At k > 3 the corners of every simplex are sorted first, so that every
    simplex that holds a face lists it alike.  That sort is the plan's
    only one.  The faces are then named level by level, on the corners as
    they stand: a point by itself, and a face G of s >= 2 points by
    name(G - max(G)) * ``points`` + max(G), where G - max(G) is the face
    of size s - 1 that the plan's ``parents`` table finds in the same
    simplex, named at the level below.  A name is thus below (faces of
    size s - 1) * ``points``, which bounds each level's slot table and
    fits ``np.intp`` for any hull that fits in memory; the simplices and
    neighbors, Qhull's ``int32``, are cast to ``np.intp`` before any
    arithmetic.  Each face is held by the highest simplex that holds it,
    and the faces of a size are numbered in the order of their names.  At
    k = 3 only the points are named, and they need no order.  The tables
    serve any points with this triangulation and any polar vertices, so
    one hull's plan serves both section routes, on Qhull's vertices and
    on the solved ones (:meth:`_Section.hull`); see :func:`_flag_sum` for
    the sum.
    """
    k = simplices.shape[1]
    plan = _flag_plan(k)
    F = len(simplices)
    simplices, neighbors = simplices.astype(np.intp), neighbors.astype(np.intp)
    if k > 3:
        order = simplices.argsort(axis=1) + np.arange(0, F * k, k)[:, None]
        simplices, neighbors = simplices.take(order), neighbors.take(order)
    ridge = (neighbors.T > np.arange(F)).ravel().nonzero()[0]  # j * F + f, each ridge once
    f, j = ridge % F, ridge // F
    owner = simplices.take(f * k + plan.ridge_rows.T.take(j, axis=1))  # (k - 1, ridges)
    # a plain fancy-index assignment would keep whichever write numpy
    # makes last, in an order that follows the memory layout of the keys
    first = np.full(points, -1)
    np.maximum.at(first, simplices, np.arange(F * k).reshape(F, k))
    first //= k

    # the faces of size s, each once, at its highest slot: G is keyed by
    # the face G - max(G) and the point max(G); the flags (p, G) numbered
    # face by face, the faces of size 1 the points
    steps = []
    face = simplices  # the face of each corner subset of each simplex
    for s, (sub, parent, (prev, eps, lead)) in enumerate(
            zip(plan.subsets[1:], plan.parents, plan.steps), start=2):
        key = face.take(parent, axis=1) * points + simplices.take(sub[:, -1], axis=1)
        slot = np.full((face.max() + 1) * points, -1)
        np.maximum.at(slot, key, np.arange(key.size).reshape(key.shape))
        held = slot >= 0
        at, g = np.divmod(slot[held], len(sub))
        q = (g[:, None] * s + np.arange(s)).ravel()  # its flags in the simplex ``at``
        at = at.repeat(s)
        g, i = np.divmod(prev.take(q, axis=0), s - 1)
        steps.append((at, face.take(at[:, None] * face.shape[1] + g).T * (s - 1) + i.T,
                      eps.take(q, axis=0).T, simplices.take(at * k + lead.take(q))))
        face = (np.cumsum(held) - 1).take(key)

    g, i = np.divmod(plan.ridge_prev.T.take(j, axis=2), k - 2)  # (k - 2, k - 1, ridges)
    return _HullPlan(f, neighbors.T.take(ridge), owner, first,
                     face.take(f * face.shape[1] + g) * (k - 2) + i,
                     plan.ridge_eps.T.take(j, axis=2), tuple(steps))


def _flag_sum(P: np.ndarray, Y: np.ndarray, tables: _HullPlan, moments: bool = True):
    """The cone table of the polar body of conv(P), k >= 3: the cones from
    the origin over its facets, with their first moments, by a signed sum
    over the flags of Qhull's triangulation, split by first corner.  Row p
    of the (len(P), k + 1) result holds k + 1 times the first moment of the
    cone over the facet F_p (each simplex's volume times the sum of its
    vertices), then that cone's volume; a point off the hull has a row of
    zeros, and the volume of the body is the sum of the last column.
    Without ``moments`` the table has that last column alone, (len(P), 1),
    for callers that read only the volume.

    ``tables`` is the index plan (:func:`_hull_plan`) of Qhull's facets of
    conv(P), its simplices, and their adjacency (the neighbor opposite each
    corner), and Y[f] the polar vertex of facet f.  The polar body
    Q = {x : <x, p> <= 1} is the sum of the cones from the origin over its
    facets F_p, one per vertex p, and each facet is in turn the sum of
    cones from a point of it over its faces, down to the edges.  A flag of
    simplex f, an ordering tau of its corners, thus contributes the signed
    simplex (0, x_{tau_0}, x_{tau_0 tau_1}, ..., Y_f), with x_G a point of
    the face of Q dual to G: the polar vertex of one simplex that holds G,
    the same one wherever G occurs (:func:`_hull_plan`).  Any point of
    that face's affine hull would do; one on the face keeps every cone as
    small as its face.  The flags of the two simplices f, g across a ridge R
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

    sigma_R stays: the ridge terms are not all of one sign (at k = 5 on
    random frames some are far below 0).

    The terms with tau_0 = p make up the cone over F_p, of volume
    |F_p| / (k |p|) and first moment k / (k + 1) |cone| centroid(F_p).
    With A_p(G) the sum over the orderings tau of G that start at p of
    sgn(tau) x_{tau_0} ^ x_{tau_0 tau_1} ^ ... ^ x_G,

        A_p(G) = (sum over l in G - p of (-1)^#{g in G: g > l} A_p(G - l)) ^ x_G,

    and the ridge term of p is the same sum over R with Y_g ^ Y_f in place
    of x_G.  The first moments follow the same recursion, B_p(G) =
    (sum ...B_p(G - l)) ^ x_G + A_p(G) (x) x_G, with B_p({p}) = x_p (x) x_p;
    A_p rides along as one more moment coordinate, B_p taken against
    (x_G, 0) from (x_p, 1).  The recursion is linear in that moment axis
    and the A_p column never reads the others, so the same code with the
    axis cut to the A_p column alone (``moments`` false, one column in
    place of k + 1) computes the volumes and nothing else; the tests hold
    them bitwise to the volume column of the whole table.  The points after
    x_p enter the wedges as differences from x_p, and Y_g ^ Y_f as
    (Y_g - x_p) ^ (Y_f - Y_g): the wedges of a tiny facet stay as small as
    the facet, so its own cone is exact to rounding.

    x_G is the same wherever G occurs, so A_p(G) is a function of the face
    G and p: with the corners of every simplex in ascending order, it is
    computed once per face, in the simplex that holds it, the highest
    (:func:`_hull_plan`).  The arrays hold components first and the stack
    last (:func:`_wedge_first`), so each numpy call works on whole rows: a
    call handles one row per simplex, and at small n the count of calls,
    not the arithmetic, sets the time.

    The work is in two parts.  :func:`_hull_plan` reads the simplices and
    their neighbors alone: the corner sort, the ridges and their owners,
    the face holders, and each step's gather indices and signs.  This
    function does the sum over P and Y.  :meth:`_Section.hull` builds the
    plan with the hull and keeps it, and the slot keeps the section
    (:func:`_section`), so the second of :func:`build_section` and
    :func:`section_volume_fast` on a frame builds no plan.
    """
    k, N = P.shape[1], len(P)
    columns = k + 1 if moments else 1
    plan = _flag_plan(k)
    Yf, Yg = Y.T.take(tables.simplex, axis=1), Y.T.take(tables.neighbor, axis=1)
    edge = Yf - Yg
    corners = P.T.take(tables.owner, axis=1)
    top = corners[:, 0]
    for i in range(1, k - 1):
        top = _wedge_first(plan.wedges[i - 1], top, corners[:, i])
    sigma = np.sign(_wedge_first(plan.wedges[k - 2], top, edge)[0])

    # A_p and B_p of each face G once, on the flags (p, G) numbered face by face
    x1 = Y.T.take(tables.first, axis=1)
    lift = np.concatenate((x1, np.ones((1, N))))[k + 1 - columns:]
    b = x1[:, None] * lift[None]  # (components, columns, flags)
    for (at, gather, eps, lead), table in zip(tables.steps, plan.wedges):
        x = Y.T.take(at, axis=1)
        b = _wedge_first(table, np.einsum("cmlq,lq->cmq", b.take(gather, axis=2), eps),
                         (x - x1.take(lead, axis=1))[:, None])
        if moments:
            b[:, :k] += b[:, k:] * x

    # (components, columns, k - 1, ridges)
    chain = np.einsum("cmlpr,lpr->cmpr", b.take(tables.chain, axis=2), tables.chain_sign)
    yy = _wedge_first(plan.wedges[0], Yg[:, None] - x1.take(tables.owner, axis=1), edge[:, None])
    index, sign = plan.hodge
    det = np.einsum("c,cmpr,cpr->mpr", sign, chain, yy.take(index, axis=0))
    if moments:
        det[:k] += det[k] * (Yg + Yf)[:, None]
    det *= sigma / factorial(k)
    return _sums_by(tables.owner.ravel(), det.reshape(columns, -1).T, N)


class _Section:
    """The section of one set of polar points P, the polar body
    {x : P x <= 1}, whose hull holds the origin inside: P = +-U for the
    section of a frame, or the moved points of the shifted and tilted
    rebuilds, which ``_Section(P)`` builds with no box.

    A frame's section has one constructor, :meth:`_Section.of_rows`, which
    takes the rows U of its clusters of exact ties (:func:`_clusters`), one
    per cluster and no two alike up to sign, so the frame's m clusters are
    the 2m points +-U.  It takes the box test, once: k >= 3 and
    ``len(U) == k`` make a box, and ``box`` is :func:`_box` of U, which
    raises as the module's raise contract says; else ``box`` is None.  The
    ascent builds it on the rows it carries and :func:`_section` on
    ``V[first]``.  Each method reads its quantity only when called:

    - :meth:`_Section.hull`, k >= 2, built on the first call and kept: in
      the plane :func:`_planar_hull`'s (hull, Y, S); for k >= 3
      :func:`_polar_hull`'s (hull, Y) and the plan of its flag sum
      (:func:`_hull_plan`).  No route asks a box for it.
    - :meth:`_Section.table`, k >= 2: the cone table of the hull, the
      scan's own in the plane, and for k >= 3 :func:`_flag_sum` over the
      plan, with the k first-moment columns only when ``moments`` is set.
    - :meth:`_Section.volume`, kept: 2^k / |det U| at a box, the
      interval's length for k = 1 (:func:`_interval`), and otherwise the
      sum of the table's volume column, in row order, taken without
      moments, which is bitwise the volume column of the whole table.  It
      is the section's one volume: :func:`volume` and
      :func:`section_volume_fast` read it, and no other function sums a
      volume for them.
    - :meth:`_Section.gradient`, kept, k >= 2 (a k = 1 section has no
      hull): the Euclidean gradient G of the volume in U, one row per
      cluster, the gradient of the whole cluster, the signed sum of its
      members'.  At a box the gradient of log |det U| in U is U^-T, so G
      is -vol U^-T, built C-ordered as the hull route's G is.  Elsewhere it
      is one sum with moments: the gradient of u_c is -2 mu_c c_c / |u_c|,
      with mu_c the content and c_c the centroid of the facet on
      <x, u_c> = 1 (the facet on <x, -u_c> = 1 is its negation), and k + 1
      times the first moment of the cone over the facet of a point p is
      mu_p c_p / |p|, the first k columns of row p of the whole table S,
      so G = S[m:, :k] - S[:m, :k].  A row that supports no facet gets 0.
    - :meth:`_Section.facets`, not kept (:func:`build_section` reads it):
      the facet of each point that has one, as arrays (Y, points, sums,
      point, vid).  Y holds the section's vertices; ``sums[i]`` the
      content of the facet of the point ``points[i]`` and then its first
      moment, the content times the centroid; and each pair
      (``point[j]``, ``vid[j]``) a point and a vertex its facet holds, a
      pair perhaps more than once.  The facet of a point p has content
      k cone |p|, for cone the volume of the cone from the origin over it.
      At a box it is read from U^-1, with no hull, as the module docstring
      says, Y the box's vertices, in sign order.  For k = 1 the facets
      are the interval's ends 1 / p, each of content 1 to rounding; in the
      plane the scan's edges, the facet of ``hull[j]`` running from
      Y[j - 1] to Y[j], with the scan's table.  For k >= 3 Y holds one
      vertex per distinct equation of Qhull's hull
      (:func:`_distinct_equations`), solved from its corners
      (:func:`_solved_vertices`) exactly when no other simplex repeats
      it, and the cone table with first moments is :func:`_flag_sum` over
      those vertices.  No volume is summed here.
    """

    def __init__(self, P: np.ndarray):
        self.P, self.box, self._hull, self._volume, self._gradient = P, None, None, None, None

    @classmethod
    def of_rows(cls, U: np.ndarray) -> _Section:
        section = cls(np.concatenate((U, -U)))
        # the box test: k >= 3 and exactly k clusters
        section.box = _box(U) if len(U) == U.shape[1] >= 3 else None
        return section

    def hull(self):
        if self._hull is None:
            if self.P.shape[1] == 2:
                self._hull = _planar_hull(self.P)
            else:
                hull, Y = _polar_hull(self.P)
                self._hull = hull, Y, _hull_plan(hull.simplices, hull.neighbors, len(self.P))
        return self._hull

    def table(self, moments: bool = True) -> np.ndarray:
        _, Y, rest = self.hull()  # the planar table, or the plan of the flag sum
        return rest if self.P.shape[1] == 2 else _flag_sum(self.P, Y, rest, moments)

    def volume(self) -> float:
        if self._volume is None:
            if self.box is not None:
                self._volume = self.box[0]
            elif self.P.shape[1] == 1:
                lo, hi = _interval(self.P)
                self._volume = float(1 / self.P[hi, 0] - 1 / self.P[lo, 0])
            else:
                self._volume = float(self.table(moments=False)[:, -1].sum())
        return self._volume

    def facets(self):
        W, k = self.P, self.P.shape[1]
        if self.box is not None:
            vol, inv, verts = self.box
            line, sign = np.arange(2 * k) % k, np.repeat([1.0, -1.0], k)
            points, scale = np.arange(2 * k), vol / 2
            point, vid = (_signs(k).T[line] == sign[:, None]).nonzero()
            centroid = sign[:, None] * inv.T[line]
        elif k == 1:
            points = np.array(_interval(W))
            verts = centroid = (1 / W[points, 0])[:, None]
            scale = np.abs(verts[:, 0])
            point, vid = points, np.arange(2)
        else:
            if k == 2:
                hull, Y, table = self.hull()
                verts, points = np.array(Y), np.array(hull)
                ends = np.arange(len(hull))
                point, vid = np.tile(points, 2), np.concatenate(((ends - 1) % len(hull), ends))
            else:
                hull, Y, plan = self.hull()
                first, vid = _distinct_equations(hull.equations)
                # a simplex whose equation no other simplex repeats is solved alone
                Y = _solved_vertices(W, hull, Y, np.bincount(vid)[vid] == 1)
                table = _flag_sum(W, Y, plan)
                verts = Y[first]
                points = np.flatnonzero(np.bincount(hull.simplices.ravel(), minlength=len(W)))
                point, vid = hull.simplices.ravel(), np.repeat(vid, k)
            scale = k * table[points, k]
            centroid = table[points, :k] / scale[:, None]
        measure = scale * np.linalg.norm(W[points], axis=1)
        return verts, points, np.column_stack((measure, measure[:, None] * centroid)), point, vid

    def gradient(self) -> np.ndarray:
        if self._gradient is None:
            if self.box is None:
                S, m, k = self.table(), len(self.P) // 2, self.P.shape[1]
                self._gradient = S[m:, :k] - S[:m, :k]
            else:
                # C-ordered, as the hull route's difference is, so that what
                # is summed over it sums in the same order
                self._gradient = (-self.box[0] * self.box[1].T).copy()
        return self._gradient


# The last section of the frame vectors V (:func:`_section`): its key, the
# dtype, shape and bytes of V, and the section.
_last_section = (None, None)


def _section(V: np.ndarray) -> _Section:
    """(section, label, sign): the :class:`_Section` of the frame vectors
    V, built once per frame on the rows of their clusters of exact ties,
    and V's labels and signs (:func:`_clusters`), which map each row of
    +-V to its point (:func:`_assemble`).  Off a box, at k >= 2, its hull
    is built here, and the points +-U, the labels, the signs and every
    array of the hull are read-only.

    The last section is kept in one slot, keyed by the dtype, shape and
    bytes of V, so :func:`build_section` and :func:`section_volume_fast` on
    one frame, in either order, build one hull or, at a box, take one
    :func:`_box` between them, and off a box at k >= 3 run one volume-only
    sum, the section's kept volume: perfbench's certify and
    ``checks.check_restart`` call both, and ``verify_frame(s)`` and a
    ``build_section(s)`` on its frame share one, as ``maximize`` and the
    battery call them.  A section
    depends on its points alone (Qhull and the scan are deterministic), so
    a hit returns what a fresh build would; a build that raises stores
    nothing.  This is the slot's only reader.  The ascent, which evaluates
    no frame twice in a row, and the shifted and tilted rebuilds, which
    move the points, build their own sections.
    """
    global _last_section
    key = (V.dtype, V.shape, V.tobytes())
    held, entry = _last_section
    if held == key:
        return entry
    label, sign, first = _clusters(V)
    section = _Section.of_rows(V[first])
    arrays = [section.P, label, sign]
    if section.box is None and V.shape[1] == 2:
        arrays.append(section.hull()[2])
    elif section.box is None and V.shape[1] >= 3:
        hull, Y, plan = section.hull()
        arrays += (hull.simplices, hull.neighbors, hull.equations, Y,
                   *plan[:-1], *itertools.chain(*plan.steps))
    for a in arrays:
        a.setflags(write=False)
    _last_section = (key, (section, label, sign))
    return section, label, sign


def section_volume_fast(vectors: np.ndarray) -> float:
    """Volume of the section generated by the frame vectors V, without
    facet bookkeeping: :meth:`_Section.volume` of the section's one
    :class:`_Section` (:func:`_section`).

    The volume optimizer restarts are ranked by.  Zero and tiny vectors are
    points deep inside the hull of +-V, so they contribute no constraint
    and need no filter; a frame that spans only through them fails the
    depth test.  Routes:

    - k = 1: the section is the interval |x| <= 1 / max |v_i|, of length
      2 / max |v_i|.
    - k = 2: one Graham scan once round the hull of +-U, with no Qhull
      call, and the sum of the triangles from the origin over the section's
      edges that the same pass gives (:func:`_planar_hull`).
    - k >= 3, a box frame (:meth:`_Section.of_rows`, taken before any
      hull): the section is a parallelepiped, of volume 2^k / |det U| for
      U the lines' first rows (:func:`_box`), and no hull is built.
    - k >= 3, any other frame: Qhull's triangulation of the hull of +-U,
      and the sum of the cones over the section's facets, one determinant
      per ridge and corner (:func:`_flag_sum`), its recursion carrying the
      volume column alone, without the k first-moment columns the gradient
      and the facets read.

    Called after :func:`build_section` on the same vectors, as perfbench's
    certify and ``checks.check_restart`` call it, this builds no hull and
    takes no :func:`_box`; it
    sums the volume only if :func:`volume` has not read it yet, and is
    :func:`volume` of that :func:`build_section`, bitwise.  Its section is
    built on the rows U of V's clusters of exact ties, as the ascent
    builds each of its own, so a restart's ``final_volume`` is this volume
    of its frame, bitwise.  It raises as the module's raise contract says.
    """
    return _section(vectors)[0].volume()


@lru_cache(maxsize=16)
def _signs(k: int) -> np.ndarray:
    """The signs {-1, 1}^k as the rows of a read-only (2^k, k) array, in
    sign order: lexicographic, from all -1 to all +1."""
    s = np.array(list(itertools.product((-1.0, 1.0), repeat=k)))
    s.setflags(write=False)
    return s


def _box(U: np.ndarray):
    """(volume, U^-1, Y) of the parallelepiped {x : |U x| <= 1}, the rows
    of U a basis of R^k: the cube [-1, 1]^k under U^-1, of volume
    2^k / |det U| (for a tight box frame of clusters of sizes d_c,
    2^k sqrt(prod d_c)), and its vertices Y, U^-1 s for the signs s of
    :func:`_signs`, in their order.

    Y[j] is also the polar vertex of the facet {s_c u_c} of conv(+-U), at
    depth 1 / |Y[j]|, so the depth test of the module's raise contract
    reads off Y, and a singular U fails it.  Every box route reads its
    volume here, so every route keeps that contract at a box.
    """
    try:
        inv = np.linalg.inv(U)
    except np.linalg.LinAlgError:
        raise NotAFrameError("not a frame") from None
    Y = _signs(len(U)) @ inv.T
    if 1 / np.sqrt(np.einsum("ij,ij->i", Y, Y).max()) <= DEPTH_FLOOR * np.abs(U).max():
        raise NotAFrameError("not a frame")
    return float(2 ** len(U) / abs(np.linalg.det(U))), inv, Y


def shift_facet_predict(p: SectionPolytope, f: FacetRecord, h: float) -> float:
    """First-order volume change when a facet is shifted outward by ``h``."""
    return float(h * f.measure)


def shifted_section_volume(p: SectionPolytope, f: FacetRecord, h: float) -> float:
    """Rebuild the section with facet ``f`` shifted outward by ``h``.

    All constraint rows supporting the facet move together (they describe
    the same hyperplane); the opposite facet stays put, so the rebuilt body
    is generally not centrally symmetric.
    """
    c = np.ones(len(p._section.P))
    for r in f.row_ids:
        c[r] += h * np.linalg.norm(p._section.P[r])
    return _Section(p._section.P / c[:, None]).volume()


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
    W = p._section.P.copy()
    for r in f.row_ids:
        W[r] = W[r] + t * np.asarray(u, dtype=float)
    return _Section(W).volume()
