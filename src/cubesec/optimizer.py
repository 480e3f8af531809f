"""Derivative-free maximization of section volume over tight frames.

Each restart alternates proposing a perturbed frame and retracting it back
to the tight manifold by whitening, accepting only volume improvements.
The objective is piecewise smooth (the facet structure changes
combinatorially), so zeroth-order steps with a decaying schedule are used
instead of manifold gradients.
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
    whiten,
)
# build_section and volume are unused here but stay bound in this module:
# perfbench/run.py wraps them at these names to trace the optimize workloads.
from .polytope import (  # noqa: F401
    DegeneratePolytopeError,
    build_section,
    section_volume_fast,
    volume,
)
from .bounds import extremal_frame
from .conditions import ConditionsReport, verify_frame

# The step schedule: a restart starts at INITIAL_STEP, multiplies the step
# by STEP_DECAY after FAILS_PER_LEVEL rejections in a row, and stops once it
# falls below MIN_STEP (36 levels, 720 rejections from a fixed point).  A
# proposal is accepted when it raises the volume by more than VOL_TOL,
# relative.
INITIAL_STEP = 0.3
STEP_DECAY = 0.7
MIN_STEP = 1e-6
VOL_TOL = 1e-9
FAILS_PER_LEVEL = 20


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

    ``final_volume`` is :func:`section_volume_fast` of ``frame``: the
    volume the ascent climbed on, and the one restarts are ranked by.
    ``stop`` says why the ascent ended: ``"schedule"`` when the step fell
    below ``MIN_STEP``, ``"cap"`` when ``max_iterations`` ran out.
    ``rank_loss`` counts the proposals rejected because whitening found no
    frame (a :class:`FrameError`), and ``degenerate`` those rejected because
    Qhull could not build their section.
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
                }
                for r in self.restarts
            ],
        }


def _propose(v: np.ndarray, step: float, rng) -> np.ndarray:
    """One perturbed vector tuple; never mutates the input.

    Mixes isotropic Gaussian moves with the structured edits that drive
    the theory: scaling a vector, zeroing a vector, moving one vector
    toward another.  Gaussian moves are projected off the direction that
    only rescales the frame operator determinant, which whitening undoes
    to first order anyway.
    """
    n, k = v.shape
    kind = rng.random()
    out = v.copy()
    if kind < 0.7:
        x = rng.standard_normal((n, k)) * np.sqrt(k / n)
        coeff = float(np.einsum("ij,ij->", x, v))
        x -= (coeff / k) * v
        out += step * x
    elif kind < 0.8:
        i = rng.integers(n)
        out[i] *= 1.0 + step * rng.uniform(-1.0, 1.0)
    elif kind < 0.9:
        i = rng.integers(n)
        out[i] = 0.0
    else:
        i, j = rng.integers(n), rng.integers(n)
        out[i] = out[i] + step * (out[j] - out[i])
    return out


def ascend(s0: TightFrame, config: OptimizerConfig, rng=None, *, index: int = 0,
           start: str = "given") -> RestartResult:
    """Single-restart ascent from a tight frame.

    Accepted volumes are strictly increasing, iterates stay tight (rank
    losses and proposals whose section Qhull cannot build are rejected,
    not raised, and counted), and the run stops when the step schedule is
    exhausted or the iteration budget runs out (``stop``).  The reported
    ``final_volume`` is the last accepted :func:`section_volume_fast`
    value, the same number every acceptance was decided on.
    """
    if rng is None:
        rng = np.random.default_rng(config.seed)
    current = s0
    vol = section_volume_fast(current.vectors)
    trace = [(0, vol)]
    step = INITIAL_STEP
    fails = 0
    accepted = 0
    degenerate = 0
    rank_loss = 0
    stop = "cap"
    it = 0
    while it < config.max_iterations:
        it += 1
        # the candidate is a new (n, k) array of this step, so it is
        # wrapped without the copy and checks of Frame()
        candidate = Frame.__new__(Frame)
        candidate.vectors = _propose(current.vectors, step, rng)
        candidate.vectors.setflags(write=False)
        try:
            _, tight = whiten(candidate)
            new_vol = section_volume_fast(tight.vectors)
        except FrameError:
            new_vol = -np.inf
            rank_loss += 1
        except DegeneratePolytopeError:
            new_vol = -np.inf
            degenerate += 1
        if new_vol > vol * (1.0 + VOL_TOL):
            current, vol = tight, new_vol
            trace.append((it, vol))
            accepted += 1
            fails = 0
        else:
            fails += 1
            if fails >= FAILS_PER_LEVEL:
                step *= STEP_DECAY
                fails = 0
                if step < MIN_STEP:
                    stop = "schedule"
                    break
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
