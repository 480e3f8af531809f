"""Choose the inputs the benchmark runs: candidates on which every check passes.

    python3 perfbench/vet.py --workload optimize-planar --candidates 0-29
    python3 perfbench/vet.py --workload certify --candidates 0-399

A benchmark workload must be one on which no operation fails, but cubesec
gets some near-degenerate inputs wrong (an over-counted pyramid volume,
ROADMAP item 1, and Qhull errors).  Which inputs those are can only be found
by running them.  This script runs every candidate through the workload's
own code and checks, as one run would, and writes
``perfbench/vetted/<workload>.json``: per cell, the candidates on which every
operation passed (``pass``), how many failed (``failed``) with a count of
each failure kind (``kinds``), and the first failing ones (``fail``).
run.py draws each run's inputs from the passing candidates and re-runs
failing ones, untimed, as its known-defect probe.

A candidate is a battery seed for the optimize workloads (one
``maximize`` per cell with as many restarts as a run of
``BENCHMARK.json``'s ``run_seconds`` does) and a pool index for certify
(the frame triple ``run.pool_frames(n, k, index)``).  The lists hold for
the commit they were made on; ``made_at`` records it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import run  # noqa: E402  (puts the repository's src on sys.path)
from cubesec import optimizer  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# failing candidates kept per cell, with their kinds, for the probe and for reading
FAIL_KEPT = 5


def candidate_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def raising_restart(config):
    """Index of the first restart of ``config`` whose ascent raises, as maximize runs it."""
    for index, start in enumerate(["random"] * config.restarts + ["warm"]):
        rng = np.random.default_rng([config.seed, index])
        try:
            run.restart(config, index, start, rng)
        except Exception:  # what maximize let escape
            return index
    return None


def vet_optimize(workload, cell, seed, restarts):
    """(passed, failing restarts as {index: kinds}) of one maximize call."""
    n, k = cell
    config = optimizer.OptimizerConfig(n=n, k=k, restarts=restarts, seed=seed)
    ops, _ = workload.execute([config], Tracer(spans=False))
    failing = {i: op.failures for i, op in enumerate(ops) if op.failures}
    if any("raised" in kinds for kinds in failing.values()):
        index = raising_restart(config)
        failing = {index: ["raised"]}
    return not failing, [{"seed": seed, "index": i, "kinds": kinds} for i, kinds in failing.items()]


def vet_certify(workload, cell, index):
    ops, _ = workload.execute(run.pool_frames(*cell, index), Tracer(spans=False))
    failing = {op.kind: op.failures for op in ops if op.failures}
    return not failing, [{"seed": index, "family": f, "kinds": kinds} for f, kinds in failing.items()]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(run.WORKLOADS))
    ap.add_argument("--candidates", type=candidate_list, required=True, help="e.g. 0-29")
    args = ap.parse_args(argv)
    workload = run.WORKLOADS[args.workload]
    restarts = run.rounds_for(args.workload, SPEC["run_seconds"])
    record = {"made_at": run.git_commit(), "candidates": [args.candidates[0], args.candidates[-1]],
              "cells": {}}
    if isinstance(workload, run.Optimize):
        record["restarts"] = restarts
    out = HERE / "vetted" / f"{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    run.warm_up(workload.cells, 0)
    for cell in workload.cells:
        entry = record["cells"][run.cell_key(cell)] = {"pass": [], "failed": 0, "kinds": {}, "fail": []}
        for c in args.candidates:
            if isinstance(workload, run.Optimize):
                passed, failing = vet_optimize(workload, cell, c, restarts)
            else:
                passed, failing = vet_certify(workload, cell, c)
            if passed:
                entry["pass"].append(c)
            else:
                entry["failed"] += 1
                for kind in (kind for bad in failing for kind in bad["kinds"]):
                    entry["kinds"][kind] = entry["kinds"].get(kind, 0) + 1
                entry["fail"] += failing[: FAIL_KEPT - len(entry["fail"])]
            print(f"{args.workload} {cell} candidate {c}: {'pass' if passed else failing}", flush=True)
            out.write_text(json.dumps(record, indent=None, separators=(",", ":")) + "\n")
        print(f"{cell}: {len(entry['pass'])} of {len(args.candidates)} pass", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
