"""First-order maximization of section volume over tight frames.

The paper's first-order condition for a local maximizer is that the
Riemannian gradient xi = G - V sym(V^T G) of the volume on the tight
manifold V^T V = I vanishes, G being its Euclidean gradient.  Each restart
climbs along xi, retracting by whitening (the polar retraction; Absil,
Mahony & Sepulchre, 2008).  The volume has a kink wherever two generators
coincide up to sign, and the maximizers known lie on such ties (the box
frames), so generators that coincide up to sign are tied into clusters that
move as one vector.  The ascent's state is the weighted frame (U, d) alone:
one row u_c per cluster, its least member with sign +1, and the cluster
sizes d_c, so that W = sqrt(d) U is tight.  The first-order condition sees
a cluster only through its row and its size (a facet of multiplicity d
balances d |v|^2 vol), so no move carries a label or a sign.  A tie is one
row, so no step and no retraction can break it: ties are found by exact
comparison (:func:`_clusters`, one pass that hashes each row and its
negation) once per restart, at its start frame, and every move maps (U, d)
to (U, d): a gradient step keeps d, a merge joins two rows, and a reassign
moves one unit of weight from one row to another.  The n generators are
expanded from (U, d), each row repeated d_c times, only for the frame a
restart returns.  On the stratum of the ties the volume is smooth (it is
partly smooth; Lewis, 2002), and its metric sum_c d_c |delta u_c|^2 is
Euclidean in W, so the ascent steps along the Riemannian gradient of W on
the tight manifold: each cluster's gradient divided by sqrt(d_c).
Rather than creep toward the next kink along that gradient, each frame
first tries to jump onto it: the merge puts the two nearest clusters onto
their nearest common point in the same metric (the identification step of
Hare & Lewis, 2004); the stratum gradient is formed only where that merge
fails and the gradient trials are reached.  At a frame critical on its
stratum the paper's balance identity leaves no split of a cluster that
gains to first order, so where neither the merge nor a gradient step gains
the ascent tries one fixed list of non-local moves, the reassigns, each
putting a generator onto another cluster.  A box frame, of k clusters, is
critical on its stratum by its structure, the box's orbit under O(k), so it
tries neither a merge nor a gradient step, and its reassigns' volumes are
known in closed form: a reassign gains exactly when it moves a generator
from a cluster at least two larger than the other, so only those are
tried, and a balanced box, the warm start among them, reads one volume and
stops.  A restart ends where no candidate gains; it draws no random number,
so it is deterministic given its start.  The gradient gives only a
direction: every candidate is compared by the volume of one
:class:`_Section` of its rows U (:meth:`_Section.of_rows`), which is the
section of the expanded frame and the one :func:`section_volume_fast`
builds on it, and asked for G, one row per cluster, only where xi is
formed (:func:`ascend`).  A box candidate
(every warm start, every merge onto k clusters, every reassign at a box)
builds no hull: its section reads the volume 2^k / |det U| and G from
U^-T.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .frame_core import (
    Frame,
    FrameError,
    TightFrame,
    random_tight_frame,
    symmetrize,
    whiten,
)
# build_section, section_volume_fast and volume are unused here but stay
# bound in this module: perfbench/run.py wraps them at these names to trace
# the optimize workloads.
from .polytope import (  # noqa: F401
    DegeneratePolytopeError,
    _Section,
    _clusters,
    build_section,
    section_volume_fast,
    volume,
)
from .bounds import extremal_frame
from .conditions import ConditionsReport, verify_frame

# The step: a restart starts at INITIAL_STEP, and a gradient step that
# gains sets it to its own length times STEP_GROWTH.  The gradient step is
# tried at most GRADIENT_TRIES times per frame, from the step down, halved
# on each failure.  A candidate is accepted when it raises the volume by
# more than VOL_TOL, relative.
INITIAL_STEP = 0.3
VOL_TOL = 1e-9
GRADIENT_TRIES = 8
STEP_GROWTH = 1.5
# A restart reaches a volume when it ends within HIT_TOL of it, relative.
HIT_TOL = 1e-6


@dataclass
class OptimizerConfig:
    n: int
    k: int
    restarts: int = 32
    seed: int = 0
    max_iterations: int = 2000

    def __post_init__(self):
        if not self.n > self.k >= 2:
            raise ValueError(f"need n > k >= 2, got n={self.n}, k={self.k}")
        if self.restarts < 0 or self.max_iterations < 1:
            raise ValueError("invalid budget configuration")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class RestartResult:
    """One restart's outcome.

    ``frame`` is the weighted frame (U, d) the ascent ended on, expanded:
    ``np.repeat(U, d, axis=0)``, each cluster's row repeated d_c times, so
    its clusters are runs of equal rows in the order of U; it is the start
    frame itself when no candidate was accepted.
    ``final_volume`` is the volume the ascent climbed on and restarts are
    ranked by, read from the section of one row per cluster of ``frame``.
    :func:`section_volume_fast` builds the same section on ``frame``, so
    ``final_volume`` is :func:`section_volume_fast` of ``frame``, bitwise,
    at every stop, a box or not.
    ``iterations`` counts
    the candidates, one :class:`_Section` volume each, charged to
    ``max_iterations``; ``evaluations`` adds the start's.  ``stop``
    says why the ascent ended: ``"critical"`` when no candidate (merge,
    gradient trial or reassign) gained at ``frame``, ``"cap"`` when
    ``max_iterations`` ran out.  A restart from a balanced box frame, of k
    clusters, tries no candidate: its ``iterations`` is 0 and its one
    evaluation is the start's.  ``residual`` is |xi| / |D| of
    :func:`_stratum_gradient` at ``frame``, on the ties the ascent held there,
    the stratum's first-order residual, computed once, when the ascent
    stops, and reported only.  ``merged`` counts the accepted merges
    (:func:`_merge`).  ``rank_loss`` counts the candidates rejected because
    whitening found no frame (a :class:`FrameError`), and ``degenerate``
    those rejected because Qhull could not build their
    section.  ``tied`` is the number of clusters of several generators, the
    sizes d_c > 1 the ascent carried to ``frame``.
    """

    index: int
    start: str
    final_volume: float
    iterations: int
    accepted: int
    frame: TightFrame = field(repr=False)
    trace: list = field(repr=False)
    degenerate: int = 0
    rank_loss: int = 0
    stop: str = "cap"
    tied: int = 0
    residual: float = float("nan")
    merged: int = 0

    @property
    def evaluations(self) -> int:
        return self.iterations + 1


@dataclass
class OptimizeResult:
    """A multi-start run: ``best_index`` is the ``RestartResult.index`` of
    the restart that won, and ``best_start`` its start."""

    config: OptimizerConfig
    best_frame: TightFrame
    best_volume: float
    restarts: list
    conditions: ConditionsReport
    best_index: int | None = None

    @property
    def best_start(self) -> str | None:
        return next((r.start for r in self.restarts if r.index == self.best_index), None)

    def random_hits(self, target: float) -> tuple[int, int]:
        """(random restarts that ended within ``HIT_TOL`` of ``target``,
        relative, random restarts)."""
        randoms = [r for r in self.restarts if r.start == "random"]
        hits = sum(abs(r.final_volume / target - 1) <= HIT_TOL for r in randoms)
        return hits, len(randoms)

    def to_dict(self) -> dict:
        return {
            "config": self.config.to_dict(),
            "best": {
                "index": self.best_index,
                "start": self.best_start,
                "volume": self.best_volume,
                "frame": self.best_frame.to_dict(),
                "conditions": self.conditions.to_dict(),
            },
            "restarts": [
                {
                    "index": r.index,
                    "start": r.start,
                    "final_volume": r.final_volume,
                    "iterations": r.iterations,
                    "accepted": r.accepted,
                    "degenerate": r.degenerate,
                    "rank_loss": r.rank_loss,
                    "stop": r.stop,
                    "evaluations": r.evaluations,
                    "tied": r.tied,
                    "residual": r.residual,
                    "merged": r.merged,
                }
                for r in self.restarts
            ],
        }


def _stratum_gradient(U: np.ndarray, size: np.ndarray, G: np.ndarray):
    """(xi, |xi| / |D|): the gradient of the volume on the tie stratum at
    the weighted frame (U, ``size``), and its residual, both in the
    coordinates W = sqrt(d) U.

    G is the Euclidean gradient of the volume in the representatives U
    (:meth:`_Section.gradient` of the section of U, given with U so that
    no hull is built here): row c is the gradient of the whole cluster c,
    the signed sum of its members' gradients.  In W the stratum metric
    sum_c d_c |delta u_c|^2 is Euclidean and W is tight, W^T W = I, so the
    gradient there is D = G / sqrt(d) and xi = D - W sym(W^T D) is its
    tangent part.  Its slope is |xi|^2, so it is never negative.  A step
    of xi in W moves each u_c by xi_c / sqrt(d_c), each member with its
    sign.
    """
    root = np.sqrt(size)[:, None]
    D = G / root
    W = U * root
    xi = D - W @ symmetrize(W.T @ D)
    return xi, float(np.linalg.norm(xi) / np.linalg.norm(D))


def _reassigns(U: np.ndarray, size: np.ndarray, k: int):
    """The reassign moves at the weighted frame (U, ``size``), generated
    lazily: for each ordered pair of clusters (c, e), one unit of weight
    moved from c to e, the sizes d_c - 1 and d_e + 1 on the same rows, and
    row c dropped when d_c reaches 0.  A move of one generator of c onto
    u_e changes no row, as the members of a cluster coincide up to sign and
    +-v is one line, so neither the member moved nor its sign changes the
    volume: there are at most m (m - 1) moves for m clusters.

    At a box frame, m = k clusters of sizes d_c, the pair is kept only when
    d_c >= d_e + 2.  There the sqrt(d_c) u_c are orthonormal, the section is
    the box prod_c [-sqrt(d_c), sqrt(d_c)] and the volume is
    2^k sqrt(prod_c d_c), so the move, whitened, is the box of sizes
    d_c - 1 and d_e + 1, and its volume ratio is
    sqrt(1 + (d_c - d_e - 1) / (d_c d_e)): above 1, by far more than
    ``VOL_TOL``, exactly when d_c >= d_e + 2, and at most 1 otherwise.  So
    every pair left out would fail, every pair kept gains, and a balanced
    box has no move.  A cluster of one generator is never moved there, as
    the k - 1 lines left could not span.
    """
    m, sizes = len(U), size.tolist()
    for c in range(m):
        for e in range(m):
            if e != c and (m > k or sizes[c] >= sizes[e] + 2):
                moved = size.copy()
                moved[c] -= 1
                moved[e] += 1
                keep = moved > 0
                yield U[keep], moved[keep]


def _merge(U: np.ndarray, size: np.ndarray):
    """The merge move at the weighted frame (U, ``size``): U with the two
    clusters nearest each other put onto one row, and the sizes of that
    frame.

    With u_c = U[c] the row of cluster c and d_c its size, the pair c < e
    and the sign s minimize d_c d_e / (d_c + d_e) |u_c - s u_e|^2, and row
    c becomes the size-weighted mean w = (d_c u_c + s d_e u_e) / (d_c + d_e),
    of size d_c + d_e, while row e is dropped.  In the metric
    sum_c d_c |delta_c|^2 of :func:`_stratum_gradient` that cost is the
    squared distance from U to the stratum where c and e coincide up to sign
    s, and w is its nearest point.  The costs are read off one Gram product
    U U^T in one pass over the pairs c < e in row-major order, and a pair is
    kept only when its cost is strictly below the best so far, so among
    equal costs the first pair wins.
    """
    dot, d, best = (U @ U.T).tolist(), size.tolist(), None
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            cost = d[i] * d[j] / (d[i] + d[j]) * ((dot[i][i] + dot[j][j]) - 2 * abs(dot[i][j]))
            if best is None or cost < best:
                best, c, e = cost, i, j
    s = 1.0 if dot[c][e] >= 0 else -1.0
    dc, de = size[c], size[e]
    out = np.concatenate((U[:e], U[e + 1:]))
    out[c] = (dc * U[c] + s * de * U[e]) / (dc + de)
    size = np.concatenate((size[:e], size[e + 1:]))
    size[c] = dc + de
    return out, size


def _moves(U: np.ndarray, size: np.ndarray, section: _Section, step: float, k: int):
    """The candidates tried at the weighted frame (U, ``size``), in order,
    each as its rows, its sizes, the step a gain sets and its kind.  Where
    more than k clusters are left, the merge (:func:`_merge`), then the
    gradient trials U + (t / |xi|) xi / sqrt(d) for t = ``step``,
    ``step`` / 2, ..., ``GRADIENT_TRIES`` lengths, which keep the sizes and
    set ``STEP_GROWTH`` t; then, at every frame, the reassigns
    (:func:`_reassigns`).  The merge and the reassigns keep ``step``.
    ``section`` is the :class:`_Section` of U, and it is asked for the
    Euclidean gradient G, and xi (:func:`_stratum_gradient`) formed from
    it, only once the merge has been yielded, so a frame whose merge gains
    pays for neither.  A box frame, of k clusters, is critical on its
    stratum, so its list is its gaining reassigns only."""
    if len(U) > k:
        yield *_merge(U, size), step, "merge"
        xi = _stratum_gradient(U, size, section.gradient())[0]
        norm = float(np.linalg.norm(xi))
        xi /= np.sqrt(size)[:, None]
        trial = step
        for _ in range(GRADIENT_TRIES if norm > 0 else 0):
            yield U + (trial / norm) * xi, size, trial * STEP_GROWTH, "gradient"
            trial /= 2
    for moved in _reassigns(U, size, k):
        yield *moved, step, "reassign"


def ascend(s0: TightFrame, config: OptimizerConfig, rng=None, *, index: int = 0,
           start: str = "given") -> RestartResult:
    """Single-restart first-order ascent from a tight frame; deterministic
    given ``s0``, so ``rng`` is not used.

    The ascent's state is the weighted frame (U, d) alone: the start's
    generators are grouped into signed clusters of exact ties
    (:func:`_clusters`, called once per restart, here), U holds each
    cluster's least member, with sign +1, and d the cluster sizes, so that
    W = sqrt(d) U is tight.  Each candidate of :func:`_moves` is a weighted
    frame too, so the accepted one hands its rows and sizes to the next
    frame: a gradient trial keeps d, a merge joins two rows and a reassign
    moves one unit of weight.  At each frame the candidates are tried in order,
    and the first that raises the volume by more than ``VOL_TOL``,
    relative, is the next frame: where more than k clusters are left, the
    merge (:func:`_merge`), then the gradient trials along xi
    (:func:`_stratum_gradient`), formed from the frame's G only when the
    merge has failed, and a gain sets ``step`` to ``STEP_GROWTH`` times its
    length; then the reassigns (:func:`_reassigns`).  A box frame, of k
    clusters, is critical on its stratum and tries only the reassigns that
    gain, so a balanced box reads one volume, its own, and stops.

    Each candidate is retracted by :func:`whiten` of W = sqrt(d) U, and U
    is taken by the transform b it returns, U b.  Every volume read is the
    volume of one :class:`_Section` of U (:meth:`_Section.of_rows`), the
    start's and one per candidate: a frame of more than k clusters builds
    one hull and a box frame, at k >= 3, none, its volume and G read from
    the determinant of U.  The start and an accepted candidate
    keep their section, which gives G of the same frame when xi is formed,
    and G is summed, with the moment columns, only at the frames that read
    it.  ``residual`` is read from xi once, at the frame the run stops on.
    Each candidate is one iteration.  ``trace`` records the start and every
    accepted volume, so it is strictly increasing and ends at
    ``final_volume``.  Iterates stay tight: rank losses and candidates
    whose section Qhull cannot build are rejected, not raised, and counted.
    The run stops (``stop``) at a frame where no candidate gains,
    ``"critical"``, or when the iterations reach ``max_iterations``,
    ``"cap"``.  ``frame`` is U expanded by d, each row repeated d_c times;
    it is ``s0`` when no candidate was accepted.
    """
    k = s0.vectors.shape[1]
    label, _, first = _clusters(s0.vectors)
    U, size = s0.vectors[first], np.bincount(label)
    section = _Section.of_rows(U)
    vol = section.volume()
    trace = [(0, vol)]
    step = INITIAL_STEP
    accepted = merged = degenerate = rank_loss = 0
    it = 0
    cap = config.max_iterations

    def evaluate(U, size):
        """(U b, volume, section) of the representatives U of clusters of
        ``size``, b the transform that whitens W = sqrt(d) U; volume -inf
        and section None when they are rejected."""
        nonlocal it, degenerate, rank_loss
        it += 1
        # W is a new (m, k) array of this step, so it is wrapped without
        # the copy and checks of Frame()
        candidate = Frame.__new__(Frame)
        candidate.vectors = U * np.sqrt(size)[:, None]
        candidate.vectors.setflags(write=False)
        try:
            U = U @ whiten(candidate)[0]
            section = _Section.of_rows(U)
            return U, section.volume(), section
        except FrameError:
            rank_loss += 1
        except DegeneratePolytopeError:
            degenerate += 1
        return None, -np.inf, None

    stop = "cap"
    while it < cap:
        for moved, moved_size, next_step, kind in _moves(U, size, section, step, k):
            if it >= cap:
                break
            new_U, new_vol, new_section = evaluate(moved, moved_size)
            if new_vol > vol * (1.0 + VOL_TOL):
                U, size, vol, section, step = new_U, moved_size, new_vol, new_section, next_step
                trace.append((it, vol))
                accepted += 1
                merged += kind == "merge"
                break
        else:
            stop = "critical"
            break
    return RestartResult(
        index=index,
        start=start,
        final_volume=vol,
        iterations=it,
        accepted=accepted,
        frame=TightFrame(np.repeat(U, size, axis=0)) if accepted else s0,
        trace=trace,
        degenerate=degenerate,
        rank_loss=rank_loss,
        stop=stop,
        tied=int((size > 1).sum()),
        residual=_stratum_gradient(U, size, section.gradient())[1],
        merged=merged,
    )


def _starts(config: OptimizerConfig):
    for r in range(config.restarts):
        yield r, "random"
    yield config.restarts, "warm"


def _run_restart(args) -> RestartResult:
    config, index, start = args
    rng = np.random.default_rng([config.seed, index])
    if start == "warm":
        s0 = extremal_frame(config.n, config.k)
    else:
        s0 = random_tight_frame(config.n, config.k, rng)
    return ascend(s0, config, rng, index=index, start=start)


def _better(a: RestartResult, b: RestartResult) -> RestartResult:
    """Associative merge: larger volume wins, ties by lexicographic Gram."""
    if a.final_volume != b.final_volume:
        return a if a.final_volume > b.final_volume else b
    ga, gb = a.frame.gram().ravel().tolist(), b.frame.gram().ravel().tolist()
    if ga != gb:
        return a if ga < gb else b
    return a if a.index <= b.index else b


class SettingError(ValueError):
    """An environment variable whose value does not parse."""


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else CUBESEC_THREADS, else 1.
    Raises :class:`SettingError`, naming the variable and its value, when
    CUBESEC_THREADS is set to something other than an integer."""
    if threads is None:
        text = os.environ.get("CUBESEC_THREADS", "1") or "1"
        try:
            threads = int(text)
        except ValueError:
            raise SettingError(f"CUBESEC_THREADS must be an integer, got {text!r}") from None
    return max(1, threads)


def maximize(config: OptimizerConfig, threads: int | None = None) -> OptimizeResult:
    """Multi-start ascent: random tight starts plus one warm start.

    Deterministic for a fixed config and seed regardless of the worker
    count: every restart derives its generator from (seed, index) and the
    merge is associative.  The pool has at most one worker per restart: a
    forked pool starts all of its workers at the first submit.
    """
    jobs = [(config, index, start) for index, start in _starts(config)]
    threads = resolve_threads(threads)
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            results = list(pool.map(_run_restart, jobs))
    else:
        results = [_run_restart(j) for j in jobs]
    best = results[0]
    for r in results[1:]:
        best = _better(best, r)
    report = verify_frame(best.frame)
    return OptimizeResult(
        config=config,
        best_frame=best.frame,
        best_volume=best.final_volume,
        restarts=results,
        conditions=report,
        best_index=best.index,
    )


def write_trace_csv(result: OptimizeResult, path) -> None:
    """Dump per-restart (iteration, volume) traces as CSV."""
    with open(path, "w") as fh:
        fh.write("restart,iteration,volume\n")
        for r in result.restarts:
            for it, vol in r.trace:
                fh.write(f"{r.index},{it},{vol!r}\n")
