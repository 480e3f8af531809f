"""First-order maximization of section volume over tight frames.

The paper's first-order condition for a local maximizer is that the
Riemannian gradient xi = G - V sym(V^T G) of the volume on the tight
manifold V^T V = I vanishes, G being its Euclidean gradient.  Each restart
climbs along xi, retracting by whitening (the polar retraction; Absil,
Mahony & Sepulchre, 2008).  The volume has a kink wherever two generators
coincide up to sign, and the maximizers known lie on such ties (the box
frames), so generators that coincide up to sign are tied into clusters that
move as one vector.  Every tie is made exactly, by the merge, a reassign or
the box start, and a gradient step and the retraction keep it bitwise, so
ties are found by exact comparison (:func:`_clusters`, one pass that
hashes each row and its negation) at the start frame of each restart and
at each reassign candidate; the other moves hand their frame its ties: a
gradient step keeps them, and a merge joins two clusters in one pass over
the generators.  On the stratum of those
ties the volume is smooth (it is partly smooth; Lewis, 2002), and the
ascent steps along its gradient there: each cluster's gradient sum divided
by the cluster size, the gradient in the metric the tied rows induce.
Rather than creep toward the next kink along that gradient, each frame
first tries to jump onto it: the merge puts the two nearest clusters onto
their nearest common point in the same metric (the identification step of
Hare & Lewis, 2004); the stratum gradient is formed only where that merge fails and the
gradient trials are reached.  At a frame critical on its stratum the
paper's balance identity (a facet of multiplicity d balances d |v|^2 vol)
leaves no split of a cluster that gains to first order, so where neither
the merge nor a gradient step gains the ascent tries one fixed list of
non-local moves, the reassigns, each putting a generator onto another
cluster.  A box frame, of k clusters, is
critical on its stratum by its structure, the box's orbit under O(k), so it
tries neither a merge nor a gradient step, and its reassigns' volumes are known
in closed form: a reassign gains exactly when it moves a generator from a
cluster at least two larger than the other, so only those are tried, and a
balanced box, the warm start among them, reads one volume and stops.  A restart
ends where no candidate gains; it draws no random number, so it is
deterministic given its start.  The gradient gives only a direction: every
candidate is compared by the volume restarts are ranked by,
:func:`section_volume_fast`.  Each candidate, and the start, is one
:class:`_Section` of its frame, given the ties its move carries, whose
volume is that volume, bitwise.  The accepted candidate's section is kept,
and it is asked for G only where the merge has failed and xi is formed, and
at the last frame for the residual: a frame's G costs the flag sum's moment
columns once, and only if it is read, and the ascent builds no hull but the
sections'.  A box candidate (every warm start, every merge onto k clusters,
every reassign at a box) builds none: its section reads the volume
2^k / |det U| and G from U^-T, U the clusters' first rows, so a restart that
starts at a box builds no hull at all.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, asdict
from functools import lru_cache

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
    _sums_by,
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

    ``final_volume`` is :func:`section_volume_fast` of ``frame``, the volume
    the ascent climbed on and restarts are ranked by.  ``iterations`` counts
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
    section.  ``tied`` is the number of clusters of several generators, tied
    exactly (:func:`_clusters`), in ``frame``.
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


def _stratum_gradient(V: np.ndarray, G: np.ndarray, label: np.ndarray, sign: np.ndarray):
    """(xi, |xi| / |D|): the gradient of the volume on the tie stratum of
    ``label`` and ``sign`` at the tight V, and its residual.

    The Euclidean gradient G at V (:meth:`_Section.gradient` of V's
    section), given with V so that no hull is built here, is summed over
    each cluster c, with signs, and divided by its size d_c, which is the
    gradient in the metric sum_c d_c |delta_c|^2 that the tied rows induce;
    D puts it on every member, with its sign, and xi = D - V sym(V^T D) is
    its tangent part.  Its slope is its squared norm in that metric, so it
    is never negative.
    """
    size = np.bincount(label)
    D = (_sums_by(label, sign[:, None] * G, len(size)) / size[:, None])[label]
    D *= sign[:, None]
    xi = D - V @ symmetrize(V.T @ D)
    return xi, float(np.linalg.norm(xi) / np.linalg.norm(D))


def _reassigns(V: np.ndarray, label: np.ndarray, first: np.ndarray, k: int):
    """The reassign moves at the frame V tied by ``label``, generated
    lazily: for each ordered pair of clusters (c, e), V with the last
    member of c set to V[first[e]], and the ties of that frame, grouped
    afresh (:func:`_clusters`), one call per candidate yielded.

    The members of a cluster coincide up to sign and +-v is one line, so
    neither the member moved nor its sign changes the volume: there are at
    most m (m - 1) moves for m clusters.  At a box frame, m = k clusters of
    sizes d_c, the pair is kept only when d_c >= d_e + 2.  There the
    sqrt(d_c) u_c are orthonormal, the section is the box prod_c
    [-sqrt(d_c), sqrt(d_c)] and the volume is 2^k sqrt(prod_c d_c), so the
    move, whitened, is the box of sizes d_c - 1 and d_e + 1, and its volume
    ratio is sqrt(1 + (d_c - d_e - 1) / (d_c d_e)): above 1, by far more
    than ``VOL_TOL``, exactly when d_c >= d_e + 2, and at most 1 otherwise.
    So every pair left out would fail, every pair kept gains, and a
    balanced box has no move.  A cluster of one generator is never moved
    there, as the k - 1 lines left could not span.
    """
    m = len(first)
    size, last = [0] * m, [0] * m
    for i, c in enumerate(label.tolist()):
        size[c] += 1
        last[c] = i
    for c in range(m):
        for e in range(m):
            if e != c and (m > k or size[c] >= size[e] + 2):
                out = V.copy()
                out[last[c]] = V[first[e]]
                yield out, _clusters(out)


@lru_cache(maxsize=None)
def _pairs(m: int):
    """The pairs c < e of m clusters, in row-major order, as (c, e) index
    arrays, cached per m and read-only, so a caller cannot change them for
    every later merge."""
    pairs = np.triu_indices(m, 1)
    for a in pairs:
        a.setflags(write=False)
    return pairs


def _merge(V: np.ndarray, label: np.ndarray, sign: np.ndarray, first: np.ndarray):
    """The merge move at the frame V tied by ``label`` and ``sign``: V with
    the two clusters nearest each other put onto one vector, and the ties
    of that frame.

    With u_c = V[first[c]] the representative of cluster c (v_i = sign[i]
    u_c for its members, and sign[first[c]] = +1) and d_c its size, the pair
    c < e and the sign s minimize d_c d_e / (d_c + d_e) |u_c - s u_e|^2, and
    every member of both goes, with its own sign, to the size-weighted mean
    w = (d_c u_c + s d_e u_e) / (d_c + d_e).  In the metric
    sum_c d_c |delta_c|^2 of :func:`_stratum_gradient` that cost is the
    squared distance from V to the stratum where c and e coincide up to
    sign s, and w is its nearest point.  The cost is taken over the pairs
    of :func:`_pairs`, so among equal costs the first pair in row-major
    order wins.  The ties are those of :func:`_clusters` on the new frame,
    carried rather than grouped again: the members of e join c, which keeps
    its least member, with their signs times s, and the labels above e
    move down by one.  A merge is tried first at every frame of more than k
    clusters, so grouping it afresh would cost a :func:`_clusters` pass at
    nearly every frame of a random restart; reassigns are tried far more
    rarely, and group their frames afresh (:func:`_reassigns`).
    """
    size = np.bincount(label)
    U = V[first]
    dot = U @ U.T
    sq = np.diag(dot)
    ci, ei = _pairs(len(first))
    si, sj = size[ci], size[ei]
    best = np.argmin(si * sj / (si + sj) * ((sq[ci] + sq[ei]) - 2 * np.abs(dot[ci, ei])))
    c, e = int(ci[best]), int(ei[best])
    s = 1.0 if dot[c, e] >= 0 else -1.0
    dc, de = int(size[c]), int(size[e])
    w = (dc * U[c] + s * de * U[e]) / (dc + de)
    label, sign, members = label.tolist(), sign.tolist(), []
    for i, l in enumerate(label):
        if l == e:
            label[i], sign[i] = c, sign[i] * s
        elif l > e:
            label[i] = l - 1
        if label[i] == c:
            members.append(i)
    sign = np.array(sign)
    out = V.copy()
    out[members] = sign[members, None] * w
    return out, (np.array(label, dtype=np.intp), sign, np.concatenate((first[:e], first[e + 1:])))


def _moves(V: np.ndarray, section: _Section, step: float, label: np.ndarray,
           sign: np.ndarray, first: np.ndarray, k: int):
    """The candidates tried at a frame, in order, each with the ties of its
    frame (label, sign, first), the step a gain sets and its kind.  Where
    more than k clusters are left, the merge (:func:`_merge`), which
    carries the ties, then the gradient trials V + (t / |xi|) xi for
    t = ``step``, ``step`` / 2, ..., ``GRADIENT_TRIES`` lengths, which keep
    them and set ``STEP_GROWTH`` t; then, at every frame, the reassigns
    (:func:`_reassigns`), each grouped afresh.  The merge and the reassigns
    keep ``step``.  ``section`` is V's :class:`_Section`, and it is asked
    for the Euclidean gradient G, and xi (:func:`_stratum_gradient`) formed
    from it, only once the merge has been yielded, so a frame whose merge
    gains pays for neither.  A box frame, of k clusters, is critical on its
    stratum, so its list is its gaining reassigns only."""
    if len(first) > k:
        yield *_merge(V, label, sign, first), step, "merge"
        xi = _stratum_gradient(V, section.gradient(), label, sign)[0]
        norm = float(np.linalg.norm(xi))
        trial = step
        for _ in range(GRADIENT_TRIES if norm > 0 else 0):
            yield V + (trial / norm) * xi, (label, sign, first), trial * STEP_GROWTH, "gradient"
            trial /= 2
    for out, ties in _reassigns(V, label, first, k):
        yield out, ties, step, "reassign"


def ascend(s0: TightFrame, config: OptimizerConfig, rng=None, *, index: int = 0,
           start: str = "given") -> RestartResult:
    """Single-restart first-order ascent from a tight frame; deterministic
    given ``s0``, so ``rng`` is not used.

    The start's generators are grouped into signed clusters of exact ties
    (:func:`_clusters`), and each candidate of :func:`_moves` comes with
    the ties of its own frame, so the accepted one hands them to the next
    frame: a merge or a gradient trial carries them, and only a reassign
    candidate is grouped again.  At each frame
    the candidates are tried in order: the first that raises the volume by
    more than ``VOL_TOL``, relative, is the next frame.  Where more than k
    clusters are left the first is the merge (:func:`_merge`), which puts the
    two nearest clusters onto one vector and so jumps onto a smaller stratum,
    and next are the gradient trials along xi, the gradient on the stratum of
    the ties (:func:`_stratum_gradient`: each cluster's summed Euclidean
    gradient, divided by its size, on every member), formed from the frame's
    G only when the merge has failed, once per such frame, and retracted by
    :func:`whiten`; a gain sets ``step`` to ``STEP_GROWTH`` times its
    length.  Ties stay exact under the merge, the step and the
    retraction.  The box frames, where the known maximizers lie, have k
    clusters, whose sqrt(d_c) u_c are orthonormal on a tight frame: the stratum
    is the box's orbit under O(k), so xi is 0 and no merge or gradient trial is
    made.  Where the stratum is critical no split of a cluster gains to first
    order, so the only moves left are the reassigns (:func:`_reassigns`), which
    put a generator onto another cluster; at a box frame only those that gain,
    the moves from a cluster of d_c to one of d_e <= d_c - 2 generators, are
    tried, so a balanced box reads one volume, its own, and stops.

    Every volume read is the volume of one :class:`_Section`, the start's
    and one per candidate (merge, gradient trial or reassign) after
    :func:`whiten`, bitwise the volume of :func:`section_volume_fast`.  The
    section is given the first rows of the candidate's ties, so a frame of
    more than k clusters builds one hull and a box frame, at k >= 3, none:
    its volume and G are read from the determinant of those k rows.  The
    start and an accepted candidate keep their section, which gives the
    Euclidean gradient G of the same frame when xi is formed, so xi needs
    no hull of its own, and G is summed, with the moment columns, only at
    the frames that read it.  ``residual`` is read from xi once, at the
    frame the run stops on.  Each candidate is one iteration.  ``trace``
    records the start and every accepted volume, so it is strictly
    increasing and ends at ``final_volume``.  Iterates stay tight: rank
    losses and candidates whose section Qhull cannot build are rejected,
    not raised, and counted.  The run stops (``stop``) at a frame where no
    candidate gains, ``"critical"``, or when the iterations reach
    ``max_iterations``, ``"cap"``.
    """
    k = s0.vectors.shape[1]
    current = s0
    label, sign, first = _clusters(current.vectors)
    section = _Section(np.concatenate((current.vectors, -current.vectors)), first)
    vol = section.volume()
    trace = [(0, vol)]
    step = INITIAL_STEP
    accepted = merged = degenerate = rank_loss = 0
    it = 0
    cap = config.max_iterations

    def evaluate(vectors, first):
        """(tight, volume, section) of the whitened ``vectors``, whose
        clusters are led by the rows ``first``; volume -inf and section
        None when they are rejected."""
        nonlocal it, degenerate, rank_loss
        it += 1
        # the candidate is a new (n, k) array of this step, so it is
        # wrapped without the copy and checks of Frame()
        candidate = Frame.__new__(Frame)
        candidate.vectors = vectors
        vectors.setflags(write=False)
        try:
            _, tight = whiten(candidate)
            section = _Section(np.concatenate((tight.vectors, -tight.vectors)), first)
            return tight, section.volume(), section
        except FrameError:
            rank_loss += 1
        except DegeneratePolytopeError:
            degenerate += 1
        return None, -np.inf, None

    stop = "cap"
    while it < cap:
        for vectors, ties, next_step, kind in _moves(
                current.vectors, section, step, label, sign, first, k):
            if it >= cap:
                break
            tight, new_vol, new_section = evaluate(vectors, ties[2])
            if new_vol > vol * (1.0 + VOL_TOL):
                current, vol, section, step = tight, new_vol, new_section, next_step
                label, sign, first = ties
                trace.append((it, vol))
                accepted += 1
                merged += kind == "merge"
                break
        else:
            stop = "critical"
            break
    residual = _stratum_gradient(current.vectors, section.gradient(), label, sign)[1]
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
    ga, gb = a.frame.gram().ravel(), b.frame.gram().ravel()
    for x, y in zip(ga, gb):
        if x != y:
            return a if x < y else b
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
