"""Record one point of the benchmark trajectory: perfbench/BENCH_<label>.json.

    python3 perfbench/record.py --label 4518e49 --seeds 0-9
    python3 perfbench/record.py --label 4518e49 --seeds 0-9 --workload certify --trace 1

Runs perfbench/run.py once per workload and seed, one run at a time. For
every metric it stores each run's value, the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the interquartile
range as a share of the median. It also stores attempted and failed
operations per run, the failure counts by kind, the known-defect probe's
counts and each run's manifest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"values": values, "median": q2, "q1": q1, "q3": q3,
            "iqr_frac": (q3 - q1) / q2 if q2 else None}


def record_workload(name, seeds, seconds, trace):
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            capture_output=True, text=True, timeout=600, check=True,
        )
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        stored = json.loads((HERE / "out" / f"{name}-seed{seed}-trace{trace}.json").read_text())
        runs.append({"seed": seed, "attempted": line["attempted"], "failed": line["failed"],
                     "failures": stored["failures"], "probe": stored.get("probe"),
                     "metrics": stored["metrics"], "manifest": stored["manifest"]})
        print(f"{name} seed {seed}: " + " ".join(
            f"{k}={m['value']:.5g}" for k, m in line["metrics"].items()), flush=True)
    names = runs[0]["metrics"]
    return {
        "metrics": {key: {"unit": names[key]["unit"],
                          **summary([r["metrics"][key]["value"] for r in runs])} for key in names},
        "runs": runs,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="usually the short commit id")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"), help="e.g. 0-9")
    ap.add_argument("--workload", action="append", choices=[w["name"] for w in SPEC["workloads"]],
                    help="repeatable; default: every workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = SPEC["run_seconds"]
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    point = {"label": args.label, "seconds": seconds, "trace": args.trace, "seeds": args.seeds,
             "workloads": {name: record_workload(name, args.seeds, seconds, args.trace)
                           for name in names}}
    suffix = "" if args.trace == 0 else "-trace"
    out = HERE / f"BENCH_{args.label}{suffix}.json"
    out.write_text(json.dumps(point, indent=1) + "\n")
    print(f"wrote {out}")
    for name, w in point["workloads"].items():
        for key, m in w["metrics"].items():
            print(f"{name:<17} {key:<48} median {m['median']:<12.6g} iqr/median {m['iqr_frac']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
