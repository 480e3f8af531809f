"""Volume digests: one SHA-256 per cell, frame family and section route.

Each route has its own digest over every frame of the cell and family,
in order, so a change that moves one route's numbers shows which:

- ``section_volume_fast``: the volume;
- ``build_section``: the volume, the vertices, and for every facet its
  measure, centroid, normal and rows (of the section's points, +-U);
- ``gradient``: the volume and the gradient G of one ``_Section`` of
  the rows of the frame's clusters of exact ties (``_clusters``), one row
  of G per cluster (:func:`volume_and_gradient`), the section every route
  builds.  A k = 1 section has no hull and no gradient route (scipy's
  ``ConvexHull`` needs 2-D data), so its cells print ``-`` in place of
  that digest.

Floats are taken by their hex form and arrays as dtype, shape and bytes,
so two trees that give a cell the same digest computed the same numbers,
bitwise.  ``--order`` says which of the first two routes runs first on
each frame: ``build_section`` and ``section_volume_fast`` share one
section per frame, its hull and its one volume, so the second of them
reads the first one's, and the digest must not depend on the order.  The
build route's volume is that section's, so it is the fast route's,
bitwise.

The frames are drawn from (n, k, family, index) on ``CELLS``, k = 1..6,
in five families: random tight frames, balanced box frames with random
signs (exact duplicate planes), box frames with every generator moved by
5e-8 and re-whitened (near-parallel), random tight frames with one
zero vector inserted, and nearly flat boxes: box frames whose last line
is moved to 3e-10 from the line before it, along its own axis, so that
the two lines are one ``EPS_GEOM`` group of their planes.  A nearly flat
box is not tight, and at k >= 2 the least eigenvalue of its frame
operator is below 1e-18, far below ``RANK_FLOOR``, so it is built with
``Frame(v, require_span=False)``.  At k >= 3 it is still a box, k lines
of exact ties, and every route reads it from U^-1 with no hull; at k = 1,
with one line, it is the box frame with that line 3e-10 longer.

Compare two checkouts by running the same command against each source
tree and diffing the output::

    PYTHONPATH=src python tests/volume_digest.py --frames 10
    PYTHONPATH=src python tests/volume_digest.py --frames 10 --order build

Each output line is ``n k family frames fast build gradient``, the last
three the routes' digests.  With ``--closure`` each is followed by a line
``closure n k family frames worst``: the largest facet closure of the
build route over those frames, |sum_F dist_F mu_F / k - vol| / vol as
``cubesec report`` prints it, so a change to the facet records can show
how well they meet the volume beside its digests::

    PYTHONPATH=src python tests/volume_digest.py --frames 10 --closure
"""

from __future__ import annotations

import argparse
import hashlib
import sys

import numpy as np

from cubesec.bounds import extremal_frame
from cubesec.frame_core import Frame, random_tight_frame, whiten
from cubesec.polytope import (_Section, _clusters, build_section, section_volume_fast,
                              volume)

CELLS = [(5, 1), (9, 1), (3, 2), (6, 2), (10, 2), (5, 3), (7, 3), (12, 3), (5, 4), (7, 4),
         (12, 4), (6, 5), (8, 5), (7, 6), (10, 6)]
FAMILIES = ("random", "box", "near_parallel", "zero_vector", "nearly_flat_box")
ORDERS = ("fast", "build")
ROUTES = ("fast", "build", "gradient")


def make_frame(n: int, k: int, family: str, index: int) -> Frame:
    """Frame ``index`` of ``family`` at (n, k), drawn from its own seed."""
    rng = np.random.default_rng([n, k, FAMILIES.index(family), index])
    if family == "random":
        return random_tight_frame(n, k, rng)
    box = extremal_frame(n, k, signs=[int(x) for x in rng.choice([-1, 1], n)])
    if family == "box":
        return box
    if family == "near_parallel":
        return whiten(Frame(box.vectors + 5e-8 * rng.standard_normal((n, k))))[1]
    if family == "nearly_flat_box":
        # the members of the last line, on the line before it, 3e-10 off
        label, sign, first = _clusters(box.vectors)
        u = box.vectors[first[max(k - 2, 0)]].copy()
        u[k - 1] += 3e-10
        v = box.vectors.copy()
        v[label == k - 1] = sign[label == k - 1, None] * u
        return Frame(v, require_span=False)
    v = random_tight_frame(n, k, rng).vectors
    return Frame(np.insert(v, int(rng.integers(0, n + 1)), 0.0, axis=0))


def volume_and_gradient(V: np.ndarray) -> tuple:
    """(volume, G) of the section of the frame vectors V, from one
    ``_Section`` of the rows of V's clusters of exact ties, G one row per
    cluster."""
    section = _Section.of_rows(V[_clusters(V)[2]])
    return section.volume(), section.gradient()


def _encode(x) -> bytes:
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}".encode() + x.tobytes()
    if isinstance(x, float):
        return x.hex().encode()
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(_encode(y) for y in x) + b"]"
    return repr(x).encode()


def frame_record(s: Frame, order: str = "fast") -> tuple:
    """The three routes on one frame, ``build_section`` and
    ``section_volume_fast`` in the given order: one bytes record per
    route, in the order of ``ROUTES``, and None for the gradient at
    k = 1."""
    if order == "fast":
        fast = section_volume_fast(s.vectors)
        p = build_section(s)
    else:
        p = build_section(s)
        fast = section_volume_fast(s.vectors)
    facets = [(f.measure, f.centroid, f.normal_vector, f.row_ids) for f in p.facets]
    build = _encode([volume(p), p.vertices, facets])
    if s.k == 1:
        return _encode(fast), build, None
    return _encode(fast), build, _encode(volume_and_gradient(s.vectors))


def facet_closure(p) -> float:
    """|sum_F dist_F mu_F / k - vol| / vol of the section polytope p."""
    vol = volume(p)
    return abs(sum(f.distance * f.measure for f in p.facets) / p.k - vol) / vol


def worst_closure(n: int, k: int, family: str, frames: int) -> float:
    """The largest facet closure of ``build_section`` over frames
    0..frames-1 of ``family`` at (n, k)."""
    return max(facet_closure(build_section(make_frame(n, k, family, i))) for i in range(frames))


def records(n: int, k: int, family: str, frames: int, order: str = "fast") -> list:
    """The records of frames 0..frames-1 of ``family`` at (n, k)."""
    return [frame_record(make_frame(n, k, family, i), order) for i in range(frames)]


def digests(recs: list) -> list:
    """One SHA-256 per route over the records ``recs``, in the order of
    ``ROUTES``; ``-`` for a route the records do not have (k = 1)."""
    out = []
    for route in range(len(ROUTES)):
        if any(record[route] is None for record in recs):
            out.append("-")
            continue
        h = hashlib.sha256()
        for record in recs:
            h.update(record[route] + b"\n")
        out.append(h.hexdigest())
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--frames", type=int, default=10, help="frames per cell and family")
    parser.add_argument("--order", choices=ORDERS, default="fast",
                        help="which of section_volume_fast and build_section runs first")
    parser.add_argument("--cells", default=None,
                        help="n:k pairs, e.g. 6:2,7:3; CELLS when omitted")
    parser.add_argument("--closure", action="store_true",
                        help="after each line, the worst facet closure of the build route")
    args = parser.parse_args(argv)
    cells = CELLS if args.cells is None else [
        tuple(int(x) for x in c.split(":")) for c in args.cells.split(",")]
    for n, k in cells:
        for family in FAMILIES:
            recs = records(n, k, family, args.frames, args.order)
            print(n, k, family, args.frames, *digests(recs), flush=True)
            if args.closure:
                worst = worst_closure(n, k, family, args.frames)
                print("closure", n, k, family, args.frames, f"{worst:.3g}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
