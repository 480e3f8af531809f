"""Restart digests: one SHA-256 per optimizer run over everything it returns.

A digest covers, for every restart in order, each field of its
``RestartResult`` (the frame as dtype, shape and bytes, floats by their
hex form, the trace entry by entry), then the winner: its index, its
volume and its frame.  Two trees that give a cell the same digest ran the
same ascent, bitwise.  The runs are the battery configs,
``OptimizerConfig(n, k, restarts=32 if k == 2 else 12, seed=s)``, on
``CELLS``, optionally capped at ``max_iterations``.

With ``--structure`` a digest covers the path of each restart and not
its volumes: every field but ``final_volume`` and ``residual``, the frame
by its tie pattern (the sizes of the clusters of exact ties that
``_clusters`` finds, in descending order) rather than its bytes, and of
the trace its iteration numbers alone; the winner is left out, as it may
move among restarts whose volumes agree to rounding.  The pattern, not the
per-generator labels and signs, because a signed row permutation of a
frame is the same section and the same path: it reorders or negates
generators, which the labels and signs record and the volume, the moves
and their outcomes do not see.  Two trees that give a cell the same
structure digest took the same path, with the same iterations, stops,
final tie pattern, merges, rank losses and degenerate counts, while their
frames and volumes may differ in the last bits and their frames in the
order and signs of their rows.

Compare two checkouts by running the same command against each source
tree and diffing the output::

    PYTHONPATH=src python tests/restart_digest.py --seeds 0-9
    PYTHONPATH=src python tests/restart_digest.py --seeds 0-9 --structure
    PYTHONPATH=src python tests/restart_digest.py --seeds 0-2 --max-iterations 1-55

Each output line is ``n k seed max_iterations sha256``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys

import numpy as np

from cubesec.frame_core import Frame
from cubesec.optimizer import OptimizerConfig, maximize
from cubesec.polytope import _clusters

# k = 2 with n = 3..12, k = 3 with n = 4..11, k = 4 with n = 5..10 and
# k = 5 with n = 6..8
CELLS = ([(n, 2) for n in range(3, 13)] + [(n, 3) for n in range(4, 12)]
         + [(n, 4) for n in range(5, 11)] + [(n, 5) for n in range(6, 9)])


def battery_config(n: int, k: int, seed: int, max_iterations: int | None = None):
    """The config ``BatteryContext.winner`` runs, capped when asked."""
    cap = {} if max_iterations is None else {"max_iterations": max_iterations}
    return OptimizerConfig(n=n, k=k, restarts=32 if k == 2 else 12, seed=seed, **cap)


def _encode(x) -> bytes:
    if isinstance(x, Frame):
        return _encode(x.vectors)
    if isinstance(x, np.ndarray):
        return f"{x.dtype}{x.shape}".encode() + x.tobytes()
    if isinstance(x, float):
        return x.hex().encode()
    if isinstance(x, (list, tuple)):
        return b"[" + b",".join(_encode(y) for y in x) + b"]"
    return repr(x).encode()


# The fields a structure digest leaves out: the volumes, and the residual
# read from the gradient there.
VOLUME_FIELDS = ("final_volume", "residual")


def _field(r, name: str, structure: bool):
    value = getattr(r, name)
    if structure and name == "trace":
        return [it for it, _ in value]
    if structure and name == "frame":
        return sorted(np.bincount(_clusters(value.vectors)[0]).tolist(), reverse=True)
    return value


def restart_records(result, structure: bool = False) -> list:
    """One bytes record per restart of an ``OptimizeResult``: every field
    of its ``RestartResult``, by name, in declaration order; with
    ``structure``, all but ``VOLUME_FIELDS``, the frame's tie pattern in
    place of its bytes, and the trace's iteration numbers without its
    volumes."""
    return [b";".join(f.name.encode() + b"=" + _encode(_field(r, f.name, structure))
                      for f in dataclasses.fields(r)
                      if not (structure and f.name in VOLUME_FIELDS))
            for r in result.restarts]


def digest(result, structure: bool = False) -> str:
    """SHA-256 over the restart records and, unless ``structure``, the
    winner."""
    h = hashlib.sha256()
    for record in restart_records(result, structure):
        h.update(record + b"\n")
    if not structure:
        h.update(_encode([result.best_index, result.best_volume, result.best_frame]))
    return h.hexdigest()


def _span(text: str) -> list:
    """'0-9' or '3' or '1,5,40-42' as a list of ints."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9", help="seeds, e.g. 0-9 or 0,3")
    parser.add_argument("--max-iterations", default=None,
                        help="caps, e.g. 1-55; the config's default when omitted")
    parser.add_argument("--cells", default=None,
                        help="n:k pairs, e.g. 3:2,7:3; the 27 cells when omitted")
    parser.add_argument("--structure", action="store_true",
                        help="digest each restart's path without its volumes or the winner")
    args = parser.parse_args(argv)
    cells = CELLS if args.cells is None else [
        tuple(int(x) for x in c.split(":")) for c in args.cells.split(",")]
    caps = [None] if args.max_iterations is None else _span(args.max_iterations)
    for n, k in cells:
        for seed in _span(args.seeds):
            for cap in caps:
                result = maximize(battery_config(n, k, seed, cap), threads=1)
                print(n, k, seed, "-" if cap is None else cap, digest(result, args.structure),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
