"""Command-line interface: volume queries, construction, verification,
bounds, optimization, and the reproduction battery.

Exit codes are a stable contract: 0 success, 1 acceptance/verification
failure, 2 I/O or parse error (a file, its JSON, or the value of
CUBESEC_THREADS), 3 domain error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import Counter
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone

from . import __version__
from .frame_core import Frame, FrameError
from .polytope import build_section, section_volume_fast, volume
from .conditions import (
    TOL_BALANCE,
    TOL_CENTROID,
    TOL_CYCLIC,
    TOL_LENGTH,
    verify_frame,
)
from .bounds import BoundsReport, extremal_frame
from .optimizer import OptimizerConfig, SettingError, maximize, resolve_threads, write_trace_csv
from .reproduce import BatteryContext, run_battery

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_IO = 2
EXIT_DOMAIN = 3


@dataclass
class RunManifest:
    """Provenance record attached to every command output."""

    command: list
    version: str = __version__
    seed: int | None = None
    started: str = ""
    finished: str = ""
    inputs: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)

    @staticmethod
    def _now() -> str:
        return datetime.now(timezone.utc).isoformat()

    @classmethod
    def start(cls, argv, seed=None) -> "RunManifest":
        return cls(command=list(argv), seed=seed, started=cls._now())

    def add_input(self, path) -> None:
        self.inputs[str(path)] = _sha256(path)

    def add_output(self, path) -> None:
        self.outputs[str(path)] = _sha256(path)

    def finish(self) -> "RunManifest":
        self.finished = self._now()
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def write_sidecar(self, path) -> None:
        self.add_output(path)
        sidecar = str(path) + ".manifest.json"
        with open(sidecar, "w") as fh:
            json.dump(self.finish().to_dict(), fh, indent=2)
            fh.write("\n")


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_json(path, payload: dict, manifest: RunManifest) -> None:
    """Write ``payload`` to ``path`` as indented JSON, and its sidecar."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    manifest.write_sidecar(path)


def _load_frame(path, manifest: RunManifest) -> Frame:
    with open(path) as fh:
        data = json.load(fh)
    manifest.add_input(path)
    return Frame.from_dict(data)


def _emit(payload: dict, fmt: str, table_lines) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in table_lines:
            print(line)


def _parse_partition(text: str) -> list:
    try:
        return [[int(i) for i in part.split(",") if i != ""] for part in text.split(";")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            "partition must look like '0,1,2;3,4'"
        ) from exc


def _parse_signs(text: str) -> list:
    if set(text) <= {"+", "-"}:
        return [1 if ch == "+" else -1 for ch in text]
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError("signs must look like '++-+-' or '1,-1,1'") from exc


def cmd_volume(args, manifest: RunManifest) -> int:
    frame = _load_frame(args.frame, manifest)
    p = build_section(frame)
    vol = volume(p)
    payload = {
        "volume": vol,
        "n": frame.n,
        "k": frame.k,
        "vertices": len(p.vertices),
        "facets": len(p.facets),
        "manifest": manifest.finish().to_dict(),
    }
    _emit(
        payload,
        args.format,
        [
            f"volume    {vol:.12g}",
            f"vertices  {len(p.vertices)}",
            f"facets    {len(p.facets)}",
        ],
    )
    if args.dump_polytope:
        _write_json(args.dump_polytope, p.to_dict(), manifest)
    return EXIT_OK


def cmd_bounds(args, manifest: RunManifest) -> int:
    achieved = None
    if args.frame:
        frame = _load_frame(args.frame, manifest)
        if (frame.n, frame.k) != (args.n, args.k):
            raise ValueError(
                f"frame file is (n={frame.n}, k={frame.k}), requested (n={args.n}, k={args.k})"
            )
        achieved = volume(build_section(frame))
    rep = BoundsReport.for_dimensions(args.n, args.k, achieved_volume=achieved)
    payload = rep.to_dict()
    payload["manifest"] = manifest.finish().to_dict()
    lines = [f"{key:<24} {value}" for key, value in rep.to_dict().items()]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_construct_extremal(args, manifest: RunManifest) -> int:
    s = extremal_frame(args.n, args.k, partition=args.partition, signs=args.signs)
    if args.out:
        _write_json(args.out, s.to_dict(), manifest)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(s.to_dict()))
    return EXIT_OK


def cmd_verify(args, manifest: RunManifest) -> int:
    frame = _load_frame(args.frame, manifest)
    rep = verify_frame(
        frame,
        tol_centroid=args.tol_centroid,
        tol_balance=args.tol_balance,
        tol_cyclic=args.tol_cyclic,
        tol_length=args.tol_length,
    )
    payload = rep.to_dict()
    payload["manifest"] = manifest.finish().to_dict()
    lines = [f"{'check':<24} {'status':<8} {'residual':<12} tolerance"]
    for name, check in rep.checks.items():
        status = "pass" if check.passed else "FAIL"
        lines.append(
            f"{name:<24} {status:<8} {check.residual:<12.3e} {check.tolerance:.1e}"
        )
    lines.append(f"overall: {'pass' if rep.passed else 'FAIL'}")
    _emit(payload, args.format, lines)
    return EXIT_OK if rep.passed else EXIT_FAILURE


def cmd_optimize(args, manifest: RunManifest) -> int:
    config = OptimizerConfig(
        n=args.n,
        k=args.k,
        restarts=args.restarts,
        seed=args.seed,
        max_iterations=args.max_iterations,
    )
    result = maximize(config, threads=resolve_threads(args.threads))
    payload = result.to_dict()
    if args.out:
        _write_json(args.out, payload, manifest)
    if args.trace:
        write_trace_csv(result, args.trace)
        manifest.write_sidecar(args.trace)
    payload["manifest"] = manifest.finish().to_dict()
    stops = Counter(r.stop for r in result.restarts)
    lines = [
        f"best volume      {result.best_volume:.12g}",
        f"best restart     {result.best_index} ({result.best_start})",
        f"conditions       {'pass' if result.conditions.passed else 'FAIL'}",
        f"restarts         {len(result.restarts)}",
        "stops            " + ", ".join(f"{stop} {count}" for stop, count in sorted(stops.items())),
        "evaluations      {}, merges {}".format(
            sum(r.evaluations for r in result.restarts), sum(r.merged for r in result.restarts)),
        f"residual max     {max(r.residual for r in result.restarts):.3g}",
        "random restarts within 1e-6 of best: {} of {}".format(
            *result.random_hits(result.best_volume)),
    ]
    if args.out:
        lines.append(f"result written   {args.out}")
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_report(args, manifest: RunManifest) -> int:
    frame = _load_frame(args.frame, manifest)
    p = build_section(frame)
    rep = verify_frame(frame, p)
    vol = volume(p)
    bounds = BoundsReport.for_dimensions(frame.n, frame.k, achieved_volume=vol)
    # how far the optimizer's volume route is from the section's, relative
    route_gap = abs(section_volume_fast(frame.vectors) - vol) / vol
    payload = {
        "polytope": p.to_dict(),
        "conditions": rep.to_dict(),
        "bounds": bounds.to_dict(),
        "route_gap": route_gap,
    }
    if args.out:
        _write_json(args.out, payload, manifest)
    payload["manifest"] = manifest.finish().to_dict()
    lines = [
        f"volume     {vol:.12g}",
        f"route gap  {route_gap:.3g}",
        f"vertices   {len(p.vertices)}",
        f"facets     {len(p.facets)}",
        f"conditions {'pass' if rep.passed else 'FAIL'}",
        f"bounds     [{bounds.vaaler:.6g}, {bounds.ball_volume:.6g}]",
    ]
    _emit(payload, args.format, lines)
    return EXIT_OK


def cmd_reproduce(args, manifest: RunManifest) -> int:
    ctx = BatteryContext(
        seed=args.seed,
        n_max=args.n_max,
        threads=resolve_threads(args.threads),
    )
    only = args.only.split(",") if args.only else None
    results = run_battery(ctx, only=only)
    all_passed = all(r.passed for r in results)
    payload = {
        "passed": all_passed,
        "criteria": [r.to_dict() for r in results],
    }
    if args.out:
        _write_json(args.out, payload, manifest)
    payload["manifest"] = manifest.finish().to_dict()
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            head = f"{r.name:<{width}}  {'PASS' if r.passed else 'FAIL'}  {r.duration:8.1f}s"
            print(head + (f"  optimizer {r.optimizer_s:8.1f}s" if args.verbose else ""))
            if args.verbose:
                for line in r.details:
                    print(f"    {line}")
            for line in r.loud:
                print(f"    !!! {line}")
        print(f"overall: {'PASS' if all_passed else 'FAIL'}")
    return EXIT_OK if all_passed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubesec",
        description="Maximal-volume central sections of the hypercube.",
    )
    parser.add_argument("--version", action="version", version=f"cubesec {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("table", "json"), default="table",
            help="output style (default: table)",
        )

    p = sub.add_parser("volume", help="volume and face counts of a frame's section")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--dump-polytope", metavar="FILE", help="write the polytope dump JSON")
    add_format(p)
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("bounds", help="lower/upper bounds and the optimal box volume")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--frame", help="optional frame JSON to place inside the bounds")
    add_format(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct-extremal", help="write an optimal-box frame")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partition", type=_parse_partition, help="e.g. '0,1,2;3,4'")
    p.add_argument("--signs", type=_parse_signs, help="e.g. '++-+-' or '1,-1,1,1,-1'")
    p.add_argument("--out", metavar="FILE", help="output frame JSON path")
    p.set_defaults(func=cmd_construct_extremal)

    p = sub.add_parser("verify", help="criticality checks for a frame")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--tol-centroid", type=float, default=TOL_CENTROID)
    p.add_argument("--tol-balance", type=float, default=TOL_BALANCE)
    p.add_argument("--tol-cyclic", type=float, default=TOL_CYCLIC)
    p.add_argument("--tol-length", type=float, default=TOL_LENGTH)
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("optimize", help="multi-start volume maximization")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--restarts", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iterations", type=int, default=2000)
    p.add_argument("--threads", type=int, default=None,
                   help="parallel restarts (default: CUBESEC_THREADS or 1)")
    p.add_argument("--out", metavar="FILE", help="write the result JSON")
    p.add_argument("--trace", metavar="FILE", help="write (restart, iteration, volume) CSV")
    add_format(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("report", help="polytope dump + conditions + bounds for a frame")
    p.add_argument("frame", help="frame JSON file")
    p.add_argument("--out", metavar="FILE", help="write the combined report JSON")
    add_format(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("reproduce", help="run the acceptance battery")
    p.add_argument("--only", help="comma-separated criterion names (substrings ok)")
    p.add_argument("--n-max", type=int, default=None, help="clip every dimension range")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--verbose", action="store_true", help="print per-cell details and optimizer seconds")
    p.add_argument("--out", metavar="FILE", help="write the battery report JSON")
    add_format(p)
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    manifest = RunManifest.start(["cubesec"] + argv, seed=getattr(args, "seed", None))
    try:
        return args.func(args, manifest)
    except (FileNotFoundError, IsADirectoryError, PermissionError, json.JSONDecodeError,
            SettingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FrameError, ValueError, KeyError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
