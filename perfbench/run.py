"""cubesec benchmark: two optimizer workloads and one certification workload.

    python3 perfbench/run.py --workload optimize-planar --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30   # every workload, one process

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
lines before it give every metric with its unit, the failure counts and the
run manifest.  Workloads, metrics and the failures known at the first
recorded commit are described in perfbench/README.md.

The benchmark imports cubesec from the ``src`` directory next to it and
exits non-zero, printing no result, when that is missing.
"""

from __future__ import annotations

import argparse
import bisect
import gzip
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
VETTED = HERE / "vetted"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import cubesec  # noqa: E402
from cubesec import bounds, conditions, frame_core, optimizer, polytope  # noqa: E402

import checks  # noqa: E402
from tracer import Tracer, patched, totals  # noqa: E402

PLANAR_CELLS = ((3, 2), (6, 2), (10, 2))
SPATIAL_CELLS = ((7, 3), (7, 4))
CERTIFY_CELLS = ((3, 2), (6, 2), (10, 2), (7, 3), (7, 4), (12, 4))
ALL_CELLS = CERTIFY_CELLS
FAMILIES = ("random", "box", "near_parallel")
NEAR_PARALLEL_NOISE = 5e-8

# Seconds one round takes on a shared 2-core x86-64 machine (Python 3.11,
# numpy 2.4, scipy 1.17) at the first recorded commit, with some headroom for
# its slow periods: one random restart per cell, plus a share of the warm
# restarts, for the optimize workloads; one frame per family and cell for
# certify.  A run does round(--seconds / this) rounds, so its work depends on
# --seconds alone and a faster program finishes sooner.
ROUND_SECONDS = {"optimize-planar": 2.3, "optimize-spatial": 6.0, "certify": 0.45}

# Known failing inputs each run re-runs, untimed, per cell (see probe()).
PROBES_PER_CELL = 1

# The speed gauge.  The machine is shared, and its speed drifts by tens of
# percent over seconds (the same restart took 0.86-1.25 s in one minute).
# Between operations the run times a fixed reference kernel that calls no
# cubesec code, and the end-to-end times are scaled to the speed at which
# the kernel takes REF_SECONDS: a time t read while the kernel took g
# reports as t * REF_SECONDS / g.  A change to cubesec moves t and not g.
REF_SECONDS = 0.008
REF_MATRICES = np.random.default_rng(0).standard_normal((1000, 3, 3))
GAUGE_EVERY_S = 0.5

SETUP_SAMPLES = 5
# A fresh process may need this long to import, generate inputs and warm up.
SETUP_TIMEOUT_S = 120


@dataclass
class Op:
    """One operation and what the checks found in its output."""

    cell: tuple
    kind: str  # "random" or "warm" restart, or the certified frame's family
    seconds: float | None  # None when the operation never started
    failures: list = field(default_factory=list)
    volume: float = math.nan
    critical: bool = False  # the result passed verify_frame
    iterations: int = 0
    accepted: int = 0
    capped: bool = False
    scaled: float | None = None  # seconds at the gauge's reference speed


# -------------------------------------------------------------- speed gauge


def reference_seconds():
    """Best of three timings of the reference kernel: small numpy products in a Python loop."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        for m in REF_MATRICES:
            np.linalg.det(m @ m.T)
        best = min(best, time.perf_counter() - start)
    return best


def scale_to_reference(ops, tracer):
    """Set ``op.scaled`` from the gauge readings just before and just after each operation."""
    times = [t for t, _ in tracer.gauges]
    timed = [op for op in ops if op.seconds is not None]
    assert len(timed) == len(tracer.ops), "one interval per operation that started"
    for op, (begin, end) in zip(timed, tracer.ops):
        before = tracer.gauges[bisect.bisect_right(times, begin) - 1][1]
        after = tracer.gauges[bisect.bisect_left(times, end)][1]
        op.scaled = op.seconds * 2 * REF_SECONDS / (before + after)


# ---------------------------------------------------------------- workloads


def cell_key(cell):
    return "n{}k{}".format(*cell)


def vetted(name):
    """perfbench/vetted/<name>.json: per cell, the candidates that pass every check."""
    return json.loads((VETTED / f"{name}.json").read_text())


def pick(candidates, seed, cell, count):
    """``count`` distinct candidates, drawn from (seed, n, k)."""
    if count > len(candidates):
        raise ValueError(f"{count} inputs asked at {cell}, {len(candidates)} vetted")
    rng = np.random.default_rng([seed, *cell])
    return [int(c) for c in rng.permutation(candidates)[:count]]


def warm_up(cells, seed):
    """One untimed pass per cell through every layer, to fill lazy caches."""
    for n, k in cells:
        s = frame_core.random_tight_frame(n, k, np.random.default_rng([seed, n, k]))
        frame_core.whiten(s)
        polytope.section_volume_fast(s.vectors)
        p = polytope.build_section(s)
        polytope.volume_by_triangulation(p)
        conditions.verify_frame(s, p)


# binding sites in cubesec.optimizer, with the layer function each one names
OPTIMIZER_SITES = (
    ("whiten", "frame_core.whiten"),
    ("section_volume_fast", "polytope.section_volume_fast"),
    ("build_section", "polytope.build_section"),
    ("volume", "polytope.volume"),
    ("verify_frame", "conditions.verify_frame"),
    ("random_tight_frame", "frame_core.random_tight_frame"),
    ("extremal_frame", "bounds.extremal_frame"),
)


def section_size(p):
    return [len(p.vertices), len(p.facets)]


def optimizer_sites(tracer):
    """(module, attribute, wrapper) for the sites the optimize workloads pass through.

    ``optimizer.ascend`` is the operation boundary and is always wrapped;
    the layer sites only when spans are on.
    """
    sites = [(optimizer, "ascend", tracer.operation("optimizer.ascend", optimizer.ascend))]
    if tracer.enabled:
        for attr, name in OPTIMIZER_SITES:
            observe = section_size if attr == "build_section" else None
            sites.append((optimizer, attr, tracer.layer(name, getattr(optimizer, attr), observe)))
        sites.append((conditions, "build_section",
                      tracer.layer("polytope.build_section", conditions.build_section, section_size)))
    return sites


def restart(config, index, start, rng):
    """One restart as ``maximize`` runs it, from the public layer functions."""
    if start == "warm":
        s0 = bounds.extremal_frame(config.n, config.k)
    else:
        s0 = frame_core.random_tight_frame(config.n, config.k, rng)
    return optimizer.ascend(s0, config, rng, index=index, start=start)


class Optimize:
    """One restart per operation, run as the battery runs them.

    Each cell is one ``maximize`` call with the battery's config (default
    schedule, ``rounds`` random restarts plus the warm start), as
    ``BatteryContext.winner`` makes it.  ``threads=1`` keeps every restart
    in this process whatever ``CUBESEC_THREADS`` says.  The config's seed
    is drawn, per cell, from the battery seeds vet.py passed.
    """

    def __init__(self, name, cells):
        self.name = name
        self.cells = cells

    def prepare(self, seed, rounds):
        table = vetted(self.name)
        if rounds > table["restarts"]:
            print(f"note: {rounds} restarts per cell, only the first {table['restarts']} vetted",
                  file=sys.stderr)
        warm_up(self.cells, seed)
        return [optimizer.OptimizerConfig(
                    n=n, k=k, restarts=rounds,
                    seed=pick(table["cells"][cell_key((n, k))]["pass"], seed, (n, k), 1)[0])
                for n, k in self.cells]

    def probe(self):
        """Re-run known failing restarts, one ascent each, and check them."""
        table = vetted(self.name)
        ops = []
        for n, k in self.cells:
            for bad in table["cells"][cell_key((n, k))]["fail"][:PROBES_PER_CELL]:
                config = optimizer.OptimizerConfig(n=n, k=k, restarts=table["restarts"], seed=bad["seed"])
                start = "warm" if bad["index"] == config.restarts else "random"
                rng = np.random.default_rng([config.seed, bad["index"]])
                try:
                    r = restart(config, bad["index"], start, rng)
                    found, _ = checks.check_restart(n, k, r)
                except Exception:
                    found = ["raised"]
                ops.append(Op((n, k), start, None, found))
        return ops

    @staticmethod
    def chunks(configs, rounds):
        """The same cells with only the first ``rounds`` random restarts, in chunks of one cell."""
        return [[optimizer.OptimizerConfig(**{**c.to_dict(), "restarts": rounds})] for c in configs]

    @staticmethod
    def execute(configs, tracer):
        ops, wall = [], 0.0
        for config in configs:
            cell = (config.n, config.k)
            tracer.cell = cell
            first = len(tracer.ops)
            maximize = tracer.layer("optimizer.maximize", optimizer.maximize)
            with patched(optimizer_sites(tracer)):
                start = time.perf_counter()
                try:
                    result = maximize(config, threads=1)
                except Exception:  # one bad cell must not hide the others
                    traceback.print_exc()
                    result = None
                wall += time.perf_counter() - start
            times = [end - begin for begin, end in tracer.ops[first:]]
            kinds = ["random"] * config.restarts + ["warm"]
            if result is None:
                times += [None] * (len(kinds) - len(times))
                ops += [Op(cell, kind, t, ["raised"]) for kind, t in zip(kinds, times)]
                continue
            if [r.start for r in result.restarts] != kinds or len(times) != len(kinds):
                raise RuntimeError("maximize no longer runs one ascend per restart")
            for r, t in zip(result.restarts, times):
                found, critical = checks.check_restart(config.n, config.k, r)
                ops.append(Op(cell, r.start, t, found, r.final_volume, critical,
                              r.iterations, r.accepted, r.iterations >= config.max_iterations))
        return ops, wall


def box_frame(n, k, rng):
    """An optimal box frame from extremal_frame: balanced parts, random members and signs."""
    members = rng.permutation(n)
    parts = [members[part] for part in bounds.default_partition(n, k)]
    return bounds.extremal_frame(n, k, partition=parts, signs=list(rng.choice([-1, 1], n)))


def certify(api, s, family):
    """The ``cubesec report`` pipeline on one frame; returns what the checks need."""
    p = api.build_section(s)
    routes = {
        "volume": api.volume(p),
        "triangulation": api.volume_by_triangulation(p),
        "fast": api.section_volume_fast(s.vectors),
    }
    report = api.verify_frame(s, p)
    api.bounds_report(s.n, s.k, achieved_volume=routes["volume"])
    if s.k == 2 and family == "box":
        api.planar_angles(p)
    return routes, report.passed


# certify's direct calls: attribute of the call table -> (layer function, span name)
CERTIFY_CALLS = {
    "build_section": (polytope.build_section, "polytope.build_section"),
    "volume": (polytope.volume, "polytope.volume"),
    "volume_by_triangulation": (polytope.volume_by_triangulation, "polytope.volume_by_triangulation"),
    "section_volume_fast": (polytope.section_volume_fast, "polytope.section_volume_fast"),
    "verify_frame": (conditions.verify_frame, "conditions.verify_frame"),
    "bounds_report": (bounds.BoundsReport.for_dimensions, "bounds.for_dimensions"),
    "planar_angles": (bounds.planar_angles, "bounds.planar_angles"),
}


def pool_frames(n, k, j):
    """Frame triple ``j`` of the certify pool at cell (n, k): random, box and near-parallel."""
    rng = np.random.default_rng([n, k, j])
    box = box_frame(n, k, rng)
    noisy = box.vectors + NEAR_PARALLEL_NOISE * rng.standard_normal((n, k))
    return [
        ((n, k), "random", frame_core.random_tight_frame(n, k, rng)),
        ((n, k), "box", box),
        ((n, k), "near_parallel", frame_core.whiten(frame_core.Frame(noisy))[1]),
    ]


class Certify:
    """One frame through the report pipeline per operation, no optimizer.

    Frames come round by round: in each round, one frame triple (one frame
    of every family) for every cell.  The triples are drawn, per cell, from
    the pool indices vet.py passed.
    """

    def __init__(self, name, cells):
        self.name = name
        self.cells = cells

    def prepare(self, seed, rounds):
        table = vetted(self.name)["cells"]
        picks = {cell: pick(table[cell_key(cell)]["pass"], seed, cell, rounds) for cell in self.cells}
        frames = [f for i in range(rounds) for cell in self.cells for f in pool_frames(*cell, picks[cell][i])]
        warm_up(self.cells, seed)
        return frames

    def probe(self):
        """Re-run known failing frame triples through the pipeline and check them."""
        table = vetted(self.name)["cells"]
        frames = [f for cell in self.cells
                  for bad in table[cell_key(cell)]["fail"][:PROBES_PER_CELL]
                  for f in pool_frames(*cell, bad["seed"])]
        return self.execute(frames, Tracer(spans=False))[0]

    def chunks(self, frames, rounds):
        """The frames of the first ``rounds`` rounds, in chunks of one round."""
        size = len(self.cells) * len(FAMILIES)
        return [frames[i : i + size] for i in range(0, rounds * size, size)]

    @staticmethod
    def execute(frames, tracer):
        api = SimpleNamespace(**{
            attr: tracer.layer(name, fn, section_size if attr == "build_section" else None)
            for attr, (fn, name) in CERTIFY_CALLS.items()
        })
        operation = tracer.operation("certify", certify)
        first = len(tracer.ops)
        ops = []
        for cell, family, s in frames:
            tracer.cell = cell
            try:
                routes, passed = operation(api, s, family)
            except Exception as exc:  # counted as a failed operation, never fatal
                found, volume, passed = ["raised"], math.nan, False
                print(f"raised at {cell} {family}: {type(exc).__name__}: {exc}", file=sys.stderr)
            else:
                found = checks.failures(*cell, routes, box=family == "box", conditions_passed=passed)
                volume = routes["volume"]
            begin, end = tracer.ops[-1]
            ops.append(Op(cell, family, end - begin, found, volume, passed))
        return ops, sum(end - begin for begin, end in tracer.ops[first:])


WORKLOADS = {
    "optimize-planar": Optimize("optimize-planar", PLANAR_CELLS),
    "optimize-spatial": Optimize("optimize-spatial", SPATIAL_CELLS),
    "certify": Certify("certify", CERTIFY_CELLS),
}


def rounds_for(name, seconds):
    return max(1, round(seconds / ROUND_SECONDS[name]))


# ------------------------------------------------------------------ metrics


def tail_latency(samples):
    """(percentile, value, samples beyond): the highest whole percentile with ten beyond it.

    Nearest-rank percentiles.  Below 20 samples no percentile above the
    median has ten beyond it, and the maximum (p100) is reported instead.
    """
    xs = sorted(samples)
    if len(xs) < 20:
        return 100, xs[-1], 0
    pct = (100 * (len(xs) - 10)) // len(xs)
    rank = math.ceil(pct * len(xs) / 100)
    return pct, xs[rank - 1], len(xs) - rank


def median_latency(samples):
    """Geometric mean over cells of each cell's median latency.

    Cells differ in cost several-fold and have equal operation counts, so
    the plain median of all operations can sit on the gap between two
    cells and jump between them from run to run.  A median over the cell
    medians rests on one cell, whose operations run in one stretch of the
    run; on a shared machine, whose speed drifts by tens of percent over
    seconds, that stretch sets the figure.  The geometric mean takes every
    cell at its own scale.  ``samples`` holds (cell, seconds) pairs.
    """
    by_cell = {}
    for cell, seconds in samples:
        by_cell.setdefault(cell, []).append(seconds)
    return statistics.geometric_mean(statistics.median(xs) for xs in by_cell.values())


def quality(ops):
    """Optimum hits and the median relative gap over random restarts."""
    gaps = []
    for op in ops:
        if op.kind == "random" and math.isfinite(op.volume):
            best = checks.known_optimum(*op.cell)
            gaps.append((best - op.volume) / best)
    if not gaps:
        return 0, 0, 0.0
    return sum(abs(g) <= 1e-6 for g in gaps), len(gaps), statistics.median(gaps)


def metric(value, unit):
    return {"value": float(value), "unit": unit}


@dataclass
class Result:
    """What one run of one workload reports."""

    metrics: dict  # the metrics of the JSON line
    notes: dict  # metric name -> how it was measured
    logged: dict  # end-to-end metrics printed but not bounded
    ops: list
    tracer: Tracer | None = None
    probe: list = field(default_factory=list)  # ops of the known-defect probe


def end_to_end(ops, setup, optimizing):
    """(metrics, notes, logged) of an untraced run.

    ``setup`` holds (measured, scaled) seconds per set-up.  The time
    metrics are scaled to the gauge's reference speed; the notes give them
    as measured.
    """
    timed = [op for op in ops if op.seconds is not None]
    scaled = [op.scaled for op in timed]
    measured = sum(op.seconds for op in timed)
    pct, tail, beyond = tail_latency(scaled)
    metrics = {
        "setup_s": metric(statistics.median(s for _, s in setup), "s"),
        "ops_per_s": metric(len(scaled) / sum(scaled), "ops/s"),
        "op_s.p50": metric(median_latency((op.cell, op.scaled) for op in timed), "s"),
        "op_s.tail": metric(tail, "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    failed = sum(bool(op.failures) for op in ops)
    notes = {
        "setup_s": f"median of {len(setup)} fresh-process set-ups; "
                   f"{statistics.median(m for m, _ in setup):.4f} s measured",
        "ops_per_s": f"{len(scaled)} ops in {sum(scaled):.2f} s scaled, {measured:.2f} s measured: "
                     f"{len(scaled) / measured:.4f} ops/s measured",
        "op_s.p50": f"geometric mean over cells of the cell's median; "
                    f"{median_latency((op.cell, op.seconds) for op in timed):.6f} s measured",
        "op_s.tail": f"p{pct} of {len(scaled)} samples, {beyond} beyond; "
                     f"{tail_latency([op.seconds for op in timed])[1]:.6f} s measured",
        "fail_frac": f"{failed} of {len(ops)}",
    }
    logged = {"fail_frac": metric(failed / len(ops), "ratio")}
    if optimizing:
        hits, restarts, gap = quality(ops)
        logged["optimum_hit_frac"] = metric(hits / restarts if restarts else 0.0, "ratio")
        logged["rel_gap.p50"] = metric(gap, "ratio")
        notes["optimum_hit_frac"] = f"{hits} of {restarts} random restarts"
    return metrics, notes, logged


def per_layer(tracer, wall, untraced_wall, ops, optimizing):
    """(metrics, notes) of a traced run."""
    t = totals(tracer.spans)
    empty = {"calls": 0, "errors": 0, "seconds": 0.0, "self": 0.0, "cells": {}, "info": []}

    def get(name):
        return t.get(name, empty)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("polytope.section_volume_fast", "polytope.build_section"):
        x = get(name)
        m[f"{name}.calls"] = metric(x["calls"], "count")
        m[f"{name}.ms_per_call"] = metric(1e3 * ratio(x["seconds"], x["calls"]), "ms")
        m[f"{name}.busy_frac"] = metric(x["self"] / wall, "ratio")
        for n, k in ALL_CELLS:
            calls, seconds = x["cells"].get((n, k), (0, 0.0))
            m[f"{name}.ms_per_call.n{n}k{k}"] = metric(1e3 * ratio(seconds, calls), "ms")
    svf = get("polytope.section_volume_fast")
    m["polytope.section_volume_fast.error_frac"] = metric(ratio(svf["errors"], svf["calls"]), "ratio")
    tri = get("polytope.volume_by_triangulation")
    m["polytope.volume_by_triangulation.ms_per_call"] = metric(1e3 * ratio(tri["seconds"], tri["calls"]), "ms")
    m["polytope.volume_by_triangulation.error_frac"] = metric(ratio(tri["errors"], tri["calls"]), "ratio")
    m["polytope.route_disagree_frac"] = metric(
        ratio(sum("route_disagree" in op.failures for op in ops), len(ops)), "ratio")
    sizes = get("polytope.build_section")["info"]
    m["polytope.vertices_per_section"] = metric(ratio(sum(v for v, _ in sizes), len(sizes)), "count")
    m["polytope.facets_per_section"] = metric(ratio(sum(f for _, f in sizes), len(sizes)), "count")

    wh = get("frame_core.whiten")
    m["frame_core.whiten.calls"] = metric(wh["calls"], "count")
    m["frame_core.whiten.us_per_call"] = metric(1e6 * ratio(wh["seconds"], wh["calls"]), "us")
    m["frame_core.whiten.busy_frac"] = metric(wh["self"] / wall, "ratio")
    m["frame_core.whiten.error_frac"] = metric(ratio(wh["errors"], wh["calls"]), "ratio")
    rtf = get("frame_core.random_tight_frame")
    m["frame_core.random_tight_frame.us_per_call"] = metric(1e6 * ratio(rtf["seconds"], rtf["calls"]), "us")

    asc = get("optimizer.ascend")
    restarts = ops if optimizing else []
    evals = sum(1 for s in tracer.spans if s.name == "polytope.section_volume_fast" and s.op >= 0)
    hits, randoms, gap = quality(restarts)
    m["optimizer.restarts"] = metric(asc["calls"], "count")
    m["optimizer.evals_per_restart"] = metric(ratio(evals, asc["calls"]), "count")
    m["optimizer.accept_rate"] = metric(
        ratio(sum(op.accepted for op in restarts), sum(op.iterations for op in restarts)), "ratio")
    m["optimizer.cap_hit_frac"] = metric(ratio(sum(op.capped for op in restarts), len(restarts)), "ratio")
    m["optimizer.ascend.s_per_restart"] = metric(ratio(asc["seconds"], asc["calls"]), "s")
    m["optimizer.self_frac"] = metric((asc["self"] + get("optimizer.maximize")["self"]) / wall, "ratio")
    m["optimizer.optimum_hit_frac"] = metric(ratio(hits, randoms), "ratio")
    m["optimizer.rel_gap.p50"] = metric(gap, "ratio")

    vf = get("conditions.verify_frame")
    m["conditions.verify_frame.calls"] = metric(vf["calls"], "count")
    m["conditions.verify_frame.ms_per_call"] = metric(1e3 * ratio(vf["seconds"], vf["calls"]), "ms")
    m["conditions.verify_frame.busy_frac"] = metric(vf["self"] / wall, "ratio")
    # a warm restart starts at the box frame
    family_of = {"random": "random", "warm": "box", "box": "box", "near_parallel": "near_parallel"}
    for family in FAMILIES:
        group = [op for op in ops if family_of[op.kind] == family]
        m[f"conditions.pass_frac.{family}"] = metric(
            ratio(sum(op.critical for op in group), len(group)), "ratio")

    bound_calls = sum(x["calls"] for name, x in t.items() if name.startswith("bounds."))
    bound_seconds = sum(x["seconds"] for name, x in t.items() if name.startswith("bounds."))
    m["bounds.calls"] = metric(bound_calls, "count")
    m["bounds.us_per_call"] = metric(1e6 * ratio(bound_seconds, bound_calls), "us")
    m["trace.overhead_frac"] = metric(wall / untraced_wall - 1, "ratio")
    covered = (svf["self"] + wh["self"] + asc["self"] + get("optimizer.maximize")["self"]) / wall
    return m, {"trace.overhead_frac": f"traced {wall:.2f} s against untraced {untraced_wall:.2f} s "
                                      f"on the same operations",
               "optimizer.self_frac": f"section_volume_fast + whiten + optimizer self "
                                      f"cover {covered:.4f} of the traced wall"}


# ----------------------------------------------------------------- manifest


def git_commit():
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def manifest(args):
    return {
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cubesec": cubesec.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": 1,
        "CUBESEC_THREADS": os.environ.get("CUBESEC_THREADS"),
        "loadavg_start": os.getloadavg(),
    }


# --------------------------------------------------------------------- runs


def measure_setup(name, seed, seconds):
    """(measured, scaled) wall seconds of fresh processes that import, generate inputs and warm up.

    The gauge is read just before and just after each process.
    """
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = reference_seconds()
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        took = time.perf_counter() - start
        samples.append((took, took * 2 * REF_SECONDS / (before + reference_seconds())))
    return samples


def failure_counts(ops):
    counts = Counter(kind for op in ops for kind in op.failures)
    return {kind: counts[kind] for kind in checks.FAILURE_KINDS}


def run_workload(workload, seed, rounds, trace, setup_samples=()):
    """Run one workload and check its outputs.

    Untraced, it does ``rounds`` rounds and reports the end-to-end metrics.
    Traced, it takes the first half of the rounds and runs each chunk of
    them untraced and then traced, so that both sides of the tracing
    overhead see the same work at nearly the same time.
    """
    inputs = workload.prepare(seed, rounds)
    optimizing = isinstance(workload, Optimize)
    if not trace:
        tracer = Tracer(spans=False, gauge=reference_seconds, gauge_every=GAUGE_EVERY_S)
        ops, _ = workload.execute(inputs, tracer)
        tracer.read_gauge()
        scale_to_reference(ops, tracer)
        return Result(*end_to_end(ops, setup_samples, optimizing), ops, probe=workload.probe())
    tracer = Tracer(spans=True)
    ops, wall, untraced_wall = [], 0.0, 0.0
    for chunk in workload.chunks(inputs, max(1, rounds // 2)):
        untraced_wall += workload.execute(chunk, Tracer(spans=False))[1]
        chunk_ops, chunk_wall = workload.execute(chunk, tracer)
        ops += chunk_ops
        wall += chunk_wall
    metrics, notes = per_layer(tracer, wall, untraced_wall, ops, optimizing)
    return Result(metrics, notes, {}, ops, tracer)


def print_report(name, result):
    print(f"== {name}")
    for key, m in {**result.metrics, **result.logged}.items():
        note = f"  ({result.notes[key]})" if key in result.notes else ""
        print(f"{key:<48} {m['value']:<14.6g} {m['unit']}{note}")
    counts = failure_counts(result.ops)
    print("failures by kind: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    if result.probe:
        counts = failure_counts(result.probe)
        print(f"known defects (untimed probe of inputs vet.py rejected, not in failed): "
              f"{sum(bool(op.failures) for op in result.probe)} of {len(result.probe)} fail; "
              + ", ".join(f"{k} {v}" for k, v in counts.items()))
    print("operations by cell: " + ", ".join(
        f"n{n}k{k} {sum(op.cell == (n, k) for op in result.ops)}"
        for n, k in dict.fromkeys(op.cell for op in result.ops)))


def write_outputs(name, args, run_manifest, result):
    """Write the run record and, for a traced run, its spans, under perfbench/out."""
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{args.seed}-trace{args.trace}"
    record = {"manifest": run_manifest, "metrics": {**result.metrics, **result.logged},
              "notes": result.notes, "attempted": len(result.ops),
              "failures": failure_counts(result.ops)}
    if result.probe:
        record["probe"] = {"attempted": len(result.probe),
                           "failed": sum(bool(op.failures) for op in result.probe),
                           "failures": failure_counts(result.probe)}
    with open(OUT / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    if result.tracer is not None:
        with gzip.open(OUT / f"{stem}-spans.jsonl.gz", "wt", compresslevel=1) as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "cell", "error", "info"]) + "\n")
            for span in result.tracer.spans:
                fh.write(json.dumps(span.to_list()) + "\n")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import, generate the inputs, warm up and exit (one setup_s sample)")
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if Path(polytope.__file__).resolve().parent != (SRC / "cubesec").resolve():
        sys.exit(f"perfbench: cubesec was imported from {polytope.__file__}, not from {SRC}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.setup_only:
        for name in names:
            WORKLOADS[name].prepare(args.seed, rounds_for(name, args.seconds))
        return 0
    run_manifest = manifest(args)
    print("manifest " + json.dumps(run_manifest))
    attempted = failed = 0
    combined = {}
    for name in names:
        rounds = rounds_for(name, args.seconds)
        setup = () if args.trace else measure_setup(name, args.seed, args.seconds)
        result = run_workload(WORKLOADS[name], args.seed, rounds, args.trace, setup)
        print_report(name, result)
        attempted += len(result.ops)
        failed += sum(bool(op.failures) for op in result.ops)
        run_manifest["loadavg_end"] = os.getloadavg()
        write_outputs(name, args, run_manifest, result)
        prefix = f"{name}." if len(names) > 1 else ""
        combined.update({prefix + key: m for key, m in result.metrics.items()})
    print("loadavg_end " + json.dumps(run_manifest["loadavg_end"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
