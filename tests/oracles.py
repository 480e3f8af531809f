"""Reference section volumes for the tests: an exact one and a float one.

- :func:`exact_cone_volumes`, in rational arithmetic (stdlib ``fractions``,
  and fraction-free integer solves, ranks and determinants): every k-subset
  of the bounding planes is solved exactly, the feasible crossings (no
  slack) are the vertices, each plane's facet is the set of vertices on
  it, and each facet is cut into simplices by a pulling triangulation.  The
  volume of the cone from the origin over a facet is a sum of exact
  determinants, and its first moment gives the facet's centroid.  On random
  frames it costs about 0.015 s per frame at (n, k) = (7, 3), 0.08 s at
  (7, 4), 0.6 s at (12, 4) (mostly the solves) and 0.65 s at (7, 5).
- :func:`halfspace_vertices`, in floats: the same enumeration with a
  feasibility slack, near-singular subsets skipped, and a plain dedup.
- :func:`reference_facets`, in floats: the facet records of a section
  assembled one facet at a time, from a dict of per-row facets whose cones
  are split by first corner simplex by simplex, with the stack first
  (:func:`stacked_flag_cones`), and rows grouped by a union-find
  (:func:`reference_row_groups`).  It shares the hull, the solved section
  vertices and the plan tables with ``build_section``.
- :func:`reference_merge`, the optimizer's merge move on dense m x m
  tables: the cost of every ordered pair, the lower triangle masked, and
  the two clusters written one after the other.
- :func:`reference_clusters`, the signed clusters of exact ties from a
  pairwise comparison table of the rows of [V; -V].
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, lcm, prod

import numpy as np

from cubesec.polytope import (
    EPS_GEOM,
    FacetRecord,
    _coincident_row_groups,
    _face_slots,
    _flag_plan,
    _interval,
    _planar_hull,
    _polar_hull,
    _solved_vertices,
)


def _solve(A, b):
    """Integer solution (numerators, determinant > 0) of A x = b, or None when
    A is singular: fraction-free Gauss-Jordan elimination on integers."""
    m = [list(row) + [y] for row, y in zip(A, b)]
    k = len(m)
    last = 1
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        p = m[col][col]
        for r in range(k):
            if r != col:
                t = m[r][col]
                m[r] = [(p * x - t * y) // last for x, y in zip(m[r], m[col])]
        last = p
    sign = 1 if last > 0 else -1
    return tuple(sign * m[i][k] for i in range(k)), sign * last


def _rank(rows):
    """Rank of an integer matrix: elimination by integer row combinations."""
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        p = m[rank][col]
        for r in range(rank + 1, len(m)):
            t = m[r][col]
            m[r] = [p * x - t * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _det(rows):
    """Determinant of an integer matrix: fraction-free (Bareiss) elimination."""
    m = [list(r) for r in rows]
    k = len(m)
    sign, last = 1, 1
    for col in range(k):
        piv = next((r for r in range(col, k) if m[r][col] != 0), None)
        if piv is None:
            return 0
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        for r in range(col + 1, k):
            t = m[r][col]
            m[r] = [(p * x - t * y) // last for x, y in zip(m[r], m[col])]
        last = p
    return sign * last


def exact_cone_volumes(W, c=None):
    """Cone volumes from the origin over the facets of {W x <= c}, and the
    facets' centroids, exactly.

    The origin must lie inside the bounded polytope.  Returns two dicts
    keyed by each facet's frozenset of rows (the rows whose plane holds
    it): its cone volume as a Fraction, the values summing to the volume,
    and its centroid as a tuple of Fractions.  Each simplex s of a facet's
    triangulation adds |det s| / k! to the cone and that times the sum of
    its corners to the first moment; the centroid is the moment over
    k * cone.
    """
    W = [[Fraction(float(x)) for x in row] for row in np.asarray(W, dtype=float)]
    c = [Fraction(1)] * len(W) if c is None else [Fraction(float(x)) for x in c]
    k = len(W[0])
    # each row scaled to integers (floats are dyadic), for integer solves
    scale = [max(x.denominator for x in w + [y]) for w, y in zip(W, c)]
    Wi = [[int(x * d) for x in w] for w, d in zip(W, scale)]
    ci = [int(y * d) for y, d in zip(c, scale)]
    verts = set()
    for rows in itertools.combinations(range(len(W)), k):
        solved = _solve([Wi[r] for r in rows], [ci[r] for r in rows])
        if solved is None:
            continue
        num, det = solved
        if all(sum(a * b for a, b in zip(w, num)) <= y * det for w, y in zip(Wi, ci)):
            verts.add(tuple(Fraction(x, det) for x in num))
    verts = sorted(verts)
    # each vertex as integers over one denominator, for integer determinants
    dens = [lcm(*(x.denominator for x in v)) for v in verts]
    nums = [[x.numerator * (d // x.denominator) for x in v] for v, d in zip(verts, dens)]
    tight = [frozenset(i for i, (x, d) in enumerate(zip(nums, dens))
                       if sum(a * b for a, b in zip(w, x)) == y * d)
             for w, y in zip(Wi, ci)]

    def dim(face):
        # v_i - v_0 scaled by dens[i] * dens[0] > 0, which keeps the rank
        i0 = min(face)
        x0, d0 = nums[i0], dens[i0]
        return _rank([[a * d0 - b * dens[i] for a, b in zip(nums[i], x0)] for i in face])

    def pull(face, d):
        """Simplices of a pulling triangulation of a d-face, as vertex lists."""
        if d == 0:
            return [[min(face)]]
        apex = min(face)
        subfaces = {face & t for t in tight if apex not in t and len(face & t) >= d}
        return [[apex] + s for sub in subfaces if dim(sub) == d - 1 for s in pull(sub, d - 1)]

    cones, centroids = {}, {}
    for face in set(tight):
        if len(face) >= k and dim(face) == k - 1:
            rows = frozenset(r for r, t in enumerate(tight) if t == face)
            # the first moment is sum over corners i of weight[i] * v_i:
            # each simplex's cone, |det s| / k!, once at each of its corners
            cone, weight = Fraction(0), {}
            for s in pull(face, k - 1):
                part = Fraction(abs(_det([nums[i] for i in s])),
                                prod(dens[i] for i in s) * factorial(k))
                cone += part
                for i in s:
                    weight[i] = weight.get(i, 0) + part
            cones[rows] = cone
            centroids[rows] = tuple(sum(w * verts[i][j] for i, w in weight.items()) / (k * cone)
                                    for j in range(k))
    return cones, centroids


def section_rows(vectors) -> np.ndarray:
    """The constraint rows +-v of the section of ``vectors``, zero vectors
    left out; every right-hand side is 1."""
    v = np.asarray(vectors, dtype=float)
    v = v[np.linalg.norm(v, axis=1) > 1e-14]
    return np.vstack([v, -v])


def exact_volume(W, c=None) -> Fraction:
    """Volume of {W x <= c} (origin inside), exactly."""
    return sum(exact_cone_volumes(W, c)[0].values())


def reference_dedup(points, eps):
    """First occurrences of rounded rows, then union of points within 2 eps."""
    decimals = max(0, int(round(-np.log10(eps))))
    _, idx = np.unique(np.round(points, decimals), axis=0, return_index=True)
    pts = points[np.sort(idx)]
    root = list(range(len(pts)))
    for i in range(len(pts)):
        for j in range(i):
            if np.linalg.norm(pts[i] - pts[j]) <= 2 * eps:
                lo, hi = sorted((root[i], root[j]))
                root = [lo if r == hi else r for r in root]
    return pts[[root[i] == i for i in range(len(pts))]]


def halfspace_vertices(W: np.ndarray, c: np.ndarray, eps: float = 1e-9) -> np.ndarray:
    """Feasible intersection points of the system W x <= c, deduplicated.

    Brute force over all k-subsets of rows; near-singular subsets are
    skipped, and crossings that break a constraint by at most
    ``eps (1 + |c|)`` count as feasible.
    """
    m, k = W.shape
    combos = np.array(list(itertools.combinations(range(m), k)), dtype=np.intp)
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
    return reference_dedup(X[feas], eps)


def reference_row_groups(W, tol):
    """Union-find over every pair of rows within ``tol`` in every coordinate."""
    m = len(W)
    parent = list(range(m))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(m):
        for j in range(i + 1, m):
            if np.max(np.abs(W[i] - W[j])) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(m):
        groups.setdefault(find(i), []).append(i)
    return [groups[r] for r in sorted(groups)]


def _wedge(table, a, x):
    """Stacked wedge a ^ x of s-vectors a with vectors x, components last."""
    index, coord, sign = table
    return _weighted_sum(a[..., index] * x[..., coord], sign)


def _weighted_sum(a, weights):
    return (a.reshape(-1, a.shape[-1]) @ weights).reshape(a.shape[:-1])


def _face_holders(simplices, subsets, points):
    """The highest-numbered simplex that holds each listed corner subset G
    of each simplex (``_face_slots``): an (F, len(sub)) array per entry
    ``sub`` of ``subsets``.  ``_face_slots`` keys ascending corners, so
    each subset is keyed here as its own row, its corners sorted: the
    simplices may list their corners in any order, as Qhull's do."""
    holders = []
    for sub in subsets:
        faces = np.sort(simplices[:, sub], axis=2).reshape(-1, sub.shape[1])
        key, slot = _face_slots(faces, np.arange(sub.shape[1])[None], points)
        holders.append((slot // len(sub)).take(key).reshape(len(simplices), len(sub)))
    return holders


def stacked_flag_cones(P, simplices, neighbors, Y):
    """The cones over the facets of the polar body of conv(P), k >= 3, and
    their first moments, summed flag by flag in every simplex: (owner,
    cone, moment) per ridge and corner of it, the stack first."""
    k = P.shape[1]
    plan = _flag_plan(k)
    corners = P[simplices]
    f, j = np.nonzero(neighbors > np.arange(len(simplices))[:, None])  # each ridge once
    g = neighbors[f, j]
    Yf, Yg = Y[f], Y[g]
    rows = plan.ridge_rows[j]
    ridge = corners[f[:, None], rows]
    top = ridge[:, 0]
    for i in range(1, k - 1):
        top = _wedge(plan.wedges[i - 1], top, ridge[:, i])
    edge = Yf - Yg
    sigma = np.sign(_wedge(plan.wedges[k - 2], top, edge)[:, 0])
    apex = Y[np.concatenate(_face_holders(simplices, plan.subsets, len(P)), axis=1)]
    a = apex[:, :k]
    b = a[..., :, None] * a[..., None, :]
    for s, ((prev, eps, lead), table) in enumerate(zip(plan.steps, plan.wedges), start=2):
        # the apex of G, by its place in the concatenation of the subsets
        face = sum(len(sub) for sub in plan.subsets[:s - 1]) + np.arange(len(prev)) // s
        x = apex[:, face]
        step = x - apex[:, lead]
        a_next = _wedge(table, np.einsum("fqlc,ql->fqc", a[:, prev], eps), step)
        b = (_wedge(table, np.einsum("fqlmc,ql->fqmc", b[:, prev], eps), step[:, :, None, :])
             + x[..., :, None] * a_next[..., None, :])
        a = a_next
    prev, eps = plan.ridge_prev[j], plan.ridge_eps[j]
    yy = _wedge(plan.wedges[0], Yg[:, None] - apex[f[:, None], rows], edge[:, None])
    index, sign = plan.hodge
    chain = np.einsum("rplc,rpl->rpc", a[f[:, None, None], prev], eps)
    det = _weighted_sum(chain * yy[..., index], sign)
    scale = sigma / factorial(k)
    chain = np.einsum("rplmc,rpl->rpmc", b[f[:, None, None], prev], eps)
    moment = scale[:, None, None] * (
        _weighted_sum(chain * yy[:, :, None, index], sign) + det[..., None] * (Yg + Yf)[:, None, :]
    )
    return simplices[f[:, None], rows], scale[:, None] * det, moment


def unmerged_simplices(hull):
    """Whether each simplex of Qhull's ``hull`` is a facet of its own: no
    neighbour shares its equation bitwise.  The simplices of a merged facet
    triangulate it, so each of them has a neighbour in it."""
    eq = hull.equations
    return ~np.all(eq[hull.neighbors] == eq[:, None, :], axis=2).any(axis=1)


def reference_point_facets(W, c):
    """Vertices of {W x <= c}, and a dict from each row that has a facet to
    (measure, centroid, sorted vertex indices)."""
    k = W.shape[1]
    P = W / c[:, None]  # the polar points
    if k == 1:
        ends = _interval(P)
        verts = np.array([[c[r] / W[r, 0]] for r in ends])
        return verts, {r: (1.0, verts[i], (i,)) for i, r in enumerate(ends)}
    if k == 2:
        hull, Y, _ = _planar_hull(P)
        verts = np.array(Y)
        Q = P[list(hull)]
        prev = np.roll(Q, 1, axis=0)
        into = Q - prev
        out = np.roll(into, -1, axis=0)
        cross = prev[:, 0] * into[:, 1] - prev[:, 1] * into[:, 0]
        turn = into[:, 0] * out[:, 1] - into[:, 1] * out[:, 0]
        length = (np.linalg.norm(Q, axis=1) * turn / (cross * np.roll(cross, -1))).tolist()
        middle = (np.roll(verts, 1, axis=0) + verts) / 2
        m = len(hull)
        return verts, {r: (length[j], middle[j], tuple(sorted(((j - 1) % m, j))))
                       for j, r in enumerate(hull)}
    hull, Y = _polar_hull(P)
    Y = _solved_vertices(P, hull, Y, unmerged_simplices(hull))
    _, first, inverse = np.unique(hull.equations, axis=0, return_index=True, return_inverse=True)
    rank = np.empty(len(first), dtype=np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    vid = rank[inverse.ravel()]
    verts = Y[np.sort(first)]
    codes = np.unique(hull.simplices.ravel() * len(verts) + np.repeat(vid, k))
    point, ids = np.divmod(codes, len(verts))
    starts = np.flatnonzero(np.r_[True, point[1:] != point[:-1]])
    around = zip(point[starts].tolist(), np.split(ids, starts[1:]))
    owner, cone, moment = stacked_flag_cones(P, hull.simplices, hull.neighbors, Y)
    cone = np.bincount(owner.ravel(), cone.ravel(), minlength=len(P))
    moment = np.stack([np.bincount(owner.ravel(), m.ravel(), minlength=len(P))
                       for m in np.moveaxis(moment, -1, 0)], axis=1)
    return verts, {
        p: (k * cone[p] * float(np.linalg.norm(P[p])), moment[p] / (k * cone[p]), tuple(ends.tolist()))
        for p, ends in around
    }


def reference_facets(vectors):
    """Section vertices and facet records of the frame ``vectors``, one
    facet at a time: each group of coincident rows that owns a facet gets
    the summed content and the content-weighted centroid of its rows'.
    The rows are +-v of every generator, a zero one too: row i is (i, +1)
    and row n + i is (i, -1)."""
    V = np.asarray(vectors, dtype=float)
    W = np.vstack([V, -V])
    c = np.ones(len(W))
    row_gen = [(i, 1) for i in range(len(V))] + [(i, -1) for i in range(len(V))]
    verts, point_facets = reference_point_facets(W, c)
    facets = []
    for rows in reference_row_groups(W, EPS_GEOM):
        own = [point_facets[r] for r in rows if r in point_facets]
        if not own:
            continue
        measures = np.array([m for m, _, _ in own])
        # the outermost row, the least of them on a tie
        w = W[rows[int(np.argmax([np.linalg.norm(W[r]) for r in rows]))]]
        facets.append(
            FacetRecord(
                normals=tuple(row_gen[r] for r in rows),
                vertex_indices=tuple(sorted(set().union(*(ids for _, _, ids in own)))),
                measure=float(measures.sum()),
                centroid=np.average([x for _, x, _ in own], axis=0, weights=measures),
                normal_vector=w.copy(),
                row_ids=tuple(rows),
            )
        )
    return verts, facets


def reference_merge(V, label, sign, first):
    """The merge move of ``cubesec.optimizer._merge`` on dense tables: V
    with the two clusters c < e of least cost d_c d_e / (d_c + d_e)
    |u_c - s u_e|^2 put onto their size-weighted mean, and the ties
    (label, sign, first) of that frame.  The cost of every pair (c, e) is
    one entry of an m x m table whose diagonal and lower triangle are
    masked, and the first least entry in row-major order wins."""
    size = np.bincount(label)
    U = V[first]
    dot = U @ U.T
    sq = np.diag(dot)
    cost = np.outer(size, size) / np.add.outer(size, size) * (
        np.add.outer(sq, sq) - 2 * np.abs(dot))
    cost[np.tri(len(first), dtype=bool)] = np.inf
    c, e = np.unravel_index(np.argmin(cost), cost.shape)
    s = 1.0 if dot[c, e] >= 0 else -1.0
    w = (size[c] * U[c] + s * size[e] * U[e]) / (size[c] + size[e])
    out = V.copy()
    joined = label == e
    for members, to in ((label == c, w), (joined, s * w)):
        out[members] = sign[members, None] * to
    label = np.where(joined, c, label - (label > e))
    sign = np.where(joined, s * sign, sign)
    return out, (label, sign, np.concatenate((first[:e], first[e + 1:])))


def reference_clusters(V):
    """The signed clusters (label, sign, first) of ``cubesec.polytope._clusters``
    from the (2n, 2n) table that compares every pair of rows of [V; -V]
    by value (``_coincident_row_groups`` at tolerance 0): each generator
    takes the lower of its row's and its negation's group, with sign -1
    when that is its negation's, and ``np.unique`` numbers those groups
    and names each one's least member."""
    n = len(V)
    group = _coincident_row_groups(np.concatenate((V, -V)), 0.0)
    low = np.minimum(group[:n], group[n:])
    sign = np.where(group[:n] == low, 1.0, -1.0)
    first, label = np.unique(low, return_index=True, return_inverse=True)[1:]
    return label, sign, first
