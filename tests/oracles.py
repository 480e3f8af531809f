"""Reference section volumes for the tests: an exact one and a float one.

- :func:`exact_cone_volumes`, in rational arithmetic (stdlib ``fractions``,
  and fraction-free integer solves): every k-subset of the bounding planes
  is solved exactly, the feasible crossings (no slack) are the vertices,
  each plane's facet is the set of vertices on it, and each facet is cut
  into simplices by a pulling triangulation.  The volume of the cone from
  the origin over a facet is a sum of exact determinants.  It costs about
  0.05 s per frame at (n, k) = (7, 3), 0.3 s at (7, 4) and 1.3 s at (12, 4).
- :func:`halfspace_vertices`, in floats: the same enumeration with a
  feasibility slack, near-singular subsets skipped, and a plain dedup.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial

import numpy as np


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
    m = [list(r) for r in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for r in range(rank + 1, len(m)):
            t = m[r][col] / m[rank][col]
            m[r] = [x - t * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def _det(rows):
    m = [list(r) for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((r for r in range(col, len(m)) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, len(m)):
            t = m[r][col] / m[col][col]
            m[r] = [x - t * y for x, y in zip(m[r], m[col])]
    return det


def exact_cone_volumes(W, c=None):
    """Cone volumes from the origin over the facets of {W x <= c}, exactly.

    The origin must lie inside the bounded polytope.  Returns a dict from
    each facet's frozenset of rows (the rows whose plane holds it) to its
    cone volume as a Fraction; the values sum to the volume.
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
    tight = [frozenset(i for i, x in enumerate(verts) if sum(a * b for a, b in zip(w, x)) == y)
             for w, y in zip(W, c)]

    def dim(face):
        x0 = verts[min(face)]
        return _rank([[a - b for a, b in zip(verts[i], x0)] for i in face]) if len(face) > 1 else 0

    def pull(face, d):
        """Simplices of a pulling triangulation of a d-face, as vertex lists."""
        if d == 0:
            return [[min(face)]]
        apex = min(face)
        subfaces = {face & t for t in tight if apex not in t and len(face & t) >= d}
        return [[apex] + s for sub in subfaces if dim(sub) == d - 1 for s in pull(sub, d - 1)]

    cones = {}
    for face in set(tight):
        if len(face) >= k and dim(face) == k - 1:
            rows = frozenset(r for r, t in enumerate(tight) if t == face)
            simplices = pull(face, k - 1)
            cones[rows] = sum(abs(_det([verts[i] for i in s])) for s in simplices) / factorial(k)
    return cones


def exact_volume(W, c=None) -> Fraction:
    """Volume of {W x <= c} (origin inside), exactly."""
    return sum(exact_cone_volumes(W, c).values())


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
