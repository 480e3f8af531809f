"""First-order maximization of section volume over tight frames.

The paper's first-order condition for a local maximizer is that the
Riemannian gradient xi = G - V sym(V^T G) of the volume on the tight
manifold V^T V = I vanishes, G being its Euclidean gradient.  Each restart
climbs along xi, retracting by whitening (the polar retraction; Absil,
Mahony & Sepulchre, 2008).  The volume has a kink wherever two generators
coincide up to sign, and the maximizers known lie on such ties (the box
frames), so generators that nearly coincide are tied into clusters that
move as one vector.  On the stratum of those ties the volume is smooth
(it is partly smooth; Lewis, 2002), and the ascent steps along its
gradient there: each cluster's gradient sum divided by the cluster size,
the gradient in the metric the tied rows induce.  At a frame critical on
its stratum the paper's balance identity (a facet of multiplicity d
balances d |v|^2 vol) leaves no split of a cluster that gains to first
order, so where no gradient step gains the ascent tries one fixed list of
non-local moves, the reassigns, each putting a generator onto another
cluster.  A restart ends where none of them gains either; it draws no
random number, so it is deterministic given its start.  The gradient
gives only a direction: every candidate is compared by the volume
restarts are ranked by, :func:`section_volume_fast`.  Each candidate, and
the start, is one :func:`_volume_and_gradient` call, which reads that
volume and G from one cone table, so the gradient at the next frame comes
with its volume and the ascent builds no other hull.
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
    _coincident_row_groups,
    _sums_by,
    _volume_and_gradient,
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
# Generators within TIE_TOL max|v| of each other, up to sign, in every
# coordinate are tied into one cluster, and a snap of every cluster onto
# one vector is kept when it lowers the volume by no more than SNAP_TOL,
# relative.
TIE_TOL = 1e-4
SNAP_TOL = 1e-12
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

    ``final_volume`` is :func:`section_volume_fast` of ``frame``, the volume
    the ascent climbed on and restarts are ranked by.  ``iterations`` counts
    the candidates, one :func:`_volume_and_gradient` call each, charged to
    ``max_iterations``; ``evaluations`` adds the start's call.  ``stop``
    says why the ascent ended: ``"critical"`` when no gradient trial and
    no reassign gained at ``frame``, ``"cap"`` when ``max_iterations`` ran
    out.  ``residual`` is |xi| / |D| of :func:`_stratum_gradient` at
    ``frame``, on the ties the ascent held there, the stratum's
    first-order residual.  ``rank_loss``
    counts the candidates rejected because whitening found no frame (a
    :class:`FrameError`), and ``degenerate`` those rejected because Qhull
    could not build their section.  ``tied`` is the number of clusters of
    several generators (:func:`_clusters`) in ``frame``.
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
                }
                for r in self.restarts
            ],
        }


def _clusters(V: np.ndarray):
    """Signed clusters of the generators: (label, sign, first).

    Generators whose points of +-V lie within ``TIE_TOL`` max|v| of each
    other in every coordinate are one cluster (:func:`_coincident_row_groups`
    on [V; -V]): v_i = sign[i] sign[j] v_j for i, j of one label.  Labels
    run from 0 in the order of their least members, and ``first[c]`` is
    the least member of cluster c.
    """
    n = len(V)
    group = _coincident_row_groups(np.concatenate((V, -V)), TIE_TOL * float(np.abs(V).max()))
    low = np.minimum(group[:n], group[n:])
    sign = np.where(group[:n] == low, 1.0, -1.0)
    first, label = np.unique(low, return_index=True, return_inverse=True)[1:]
    return label, sign, first


def _stratum_gradient(V: np.ndarray, G: np.ndarray, label: np.ndarray, sign: np.ndarray):
    """(xi, |xi| / |D|): the gradient of the volume on the tie stratum of
    ``label`` and ``sign`` at the tight V, and its residual.

    The Euclidean gradient G at V (:func:`_volume_and_gradient`), given
    with V so that no hull is built here, is summed over each cluster c,
    with signs, and divided by its size d_c, which is the gradient in the
    metric sum_c d_c |delta_c|^2 that the tied rows induce; D puts it on
    every member, with its sign, and xi = D - V sym(V^T D) is its tangent
    part.  Its slope is its squared norm in that metric, so it is never
    negative.
    """
    size = np.bincount(label)
    D = (_sums_by(label, sign[:, None] * G, len(size)) / size[:, None])[label]
    D *= sign[:, None]
    xi = D - V @ symmetrize(V.T @ D)
    return xi, float(np.linalg.norm(xi) / np.linalg.norm(D))


def _reassigns(V: np.ndarray, label: np.ndarray, first: np.ndarray, k: int):
    """The reassign moves at the frame V tied by ``label``, generated
    lazily: for each ordered pair of clusters (c, d), V with the last
    member of c set to V[first[d]].

    The members of a cluster coincide up to sign and +-v is one line, so
    neither the member moved nor its sign changes the volume: there are at
    most m (m - 1) moves for m clusters.  A cluster of one generator is not
    moved when only m <= k clusters are left, since the k - 1 lines left
    could not span.
    """
    m = len(first)
    size = np.bincount(label)
    last = len(label) - 1 - np.unique(label[::-1], return_index=True)[1]
    for c in range(m):
        if size[c] == 1 and m <= k:
            continue
        for d in range(m):
            if d != c:
                out = V.copy()
                out[last[c]] = V[first[d]]
                yield out


def _moves(V: np.ndarray, xi: np.ndarray, step: float, label: np.ndarray,
           first: np.ndarray, k: int):
    """The candidates tried at a frame, in order, each with the step a gain
    sets: the gradient trials V + (t / |xi|) xi for t = ``step``, ``step`` /
    2, ..., ``GRADIENT_TRIES`` lengths, which set ``STEP_GROWTH`` t, then
    the reassigns (:func:`_reassigns`), which keep ``step``."""
    norm = float(np.linalg.norm(xi))
    trial = step
    for _ in range(GRADIENT_TRIES if norm > 0 else 0):
        yield V + (trial / norm) * xi, trial * STEP_GROWTH
        trial /= 2
    for out in _reassigns(V, label, first, k):
        yield out, step


def ascend(s0: TightFrame, config: OptimizerConfig, rng=None, *, index: int = 0,
           start: str = "given") -> RestartResult:
    """Single-restart first-order ascent from a tight frame; deterministic
    given ``s0``, so ``rng`` is not used.

    At each new frame the generators are grouped into signed clusters
    (:func:`_clusters`), and every cluster is snapped onto its least member;
    the snap is kept when the volume falls by no more than ``SNAP_TOL``,
    relative, and otherwise the frame is taken as untied.  The candidates
    of :func:`_moves` are then tried in order, and the first that raises
    the volume by more than ``VOL_TOL``, relative, is the next frame.  The
    first are the gradient trials along xi, the gradient on the stratum of
    those ties (:func:`_stratum_gradient`: each cluster's summed Euclidean
    gradient, divided by its size, on every member), taken once per frame
    and retracted by :func:`whiten`; a gain sets ``step`` to
    ``STEP_GROWTH`` times its length.  Ties stay exact under the step and
    the retraction.  Where the stratum is critical no split of a cluster
    gains to first order, so the only moves left are the reassigns
    (:func:`_reassigns`), which put a generator onto another cluster.

    Every volume read is one :func:`_volume_and_gradient` call, the
    start's and one per candidate (snap, gradient trial or reassign) after
    :func:`whiten`, bitwise the volume of :func:`section_volume_fast`, and
    it brings the Euclidean gradient G of the same frame: the start, a kept
    snap and an accepted candidate carry theirs, so xi needs no hull of
    its own.  Each candidate is one iteration.  The accepted volumes that
    ``trace`` records are strictly increasing; a kept snap is recorded
    when it raises the volume, so ``trace`` ends at ``final_volume``
    unless the last snap lowered it, by no more than ``SNAP_TOL``.
    Iterates stay tight: rank losses and candidates whose section Qhull
    cannot build are rejected, not raised, and counted.  The run stops
    (``stop``) at a frame where no candidate gains, ``"critical"``, or when
    the iterations reach ``max_iterations``, ``"cap"``.
    """
    n, k = s0.vectors.shape
    current = s0
    vol, G = _volume_and_gradient(current.vectors)
    trace = [(0, vol)]
    step = INITIAL_STEP
    accepted = degenerate = rank_loss = 0
    it = 0
    cap = config.max_iterations

    def evaluate(vectors):
        """(tight, volume, G) of the whitened ``vectors``, volume -inf and
        G None when they are rejected."""
        nonlocal it, degenerate, rank_loss
        it += 1
        # the candidate is a new (n, k) array of this step, so it is
        # wrapped without the copy and checks of Frame()
        candidate = Frame.__new__(Frame)
        candidate.vectors = vectors
        vectors.setflags(write=False)
        try:
            _, tight = whiten(candidate)
            return (tight, *_volume_and_gradient(tight.vectors))
        except FrameError:
            rank_loss += 1
        except DegeneratePolytopeError:
            degenerate += 1
        return None, -np.inf, None

    residual = None  # the residual at ``current``, None until it is taken
    stop = "cap"
    while it < cap:
        V = current.vectors
        label, sign, first = _clusters(V)
        snap = sign[:, None] * (sign[:, None] * V)[first][label]
        if not np.array_equal(snap, V):
            tight, new_vol, new_G = evaluate(snap)
            if new_vol >= vol * (1.0 - SNAP_TOL):
                if new_vol > vol:
                    trace.append((it, new_vol))
                current, vol, G = tight, new_vol, new_G
                V = current.vectors
            else:  # the snap is refused: no ties at this frame
                label, sign, first = np.arange(n), np.ones(n), np.arange(n)
        xi, residual = _stratum_gradient(V, G, label, sign)
        for vectors, next_step in _moves(V, xi, step, label, first, k):
            if it >= cap:
                break
            tight, new_vol, new_G = evaluate(vectors)
            if new_vol > vol * (1.0 + VOL_TOL):
                current, vol, G, step = tight, new_vol, new_G, next_step
                trace.append((it, vol))
                accepted += 1
                residual = None
                break
        else:
            stop = "critical"
            break
    label, sign, _ = _clusters(current.vectors)
    if residual is None:  # the cap fell on a new frame, whose xi is not taken
        residual = _stratum_gradient(current.vectors, G, label, sign)[1]
    return RestartResult(
        index=index,
        start=start,
        final_volume=vol,
        iterations=it,
        accepted=accepted,
        frame=current,
        trace=trace,
        degenerate=degenerate,
        rank_loss=rank_loss,
        stop=stop,
        tied=int((np.bincount(label) > 1).sum()),
        residual=residual,
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
    ga, gb = a.frame.gram().ravel(), b.frame.gram().ravel()
    for x, y in zip(ga, gb):
        if x != y:
            return a if x < y else b
    return a if a.index <= b.index else b


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else CUBESEC_THREADS, else 1."""
    if threads is None:
        threads = int(os.environ.get("CUBESEC_THREADS", "1") or "1")
    return max(1, threads)


def maximize(config: OptimizerConfig, threads: int | None = None) -> OptimizeResult:
    """Multi-start ascent: random tight starts plus one warm start.

    Deterministic for a fixed config and seed regardless of the worker
    count: every restart derives its generator from (seed, index) and the
    merge is associative.
    """
    jobs = [(config, index, start) for index, start in _starts(config)]
    threads = resolve_threads(threads)
    if threads > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
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
