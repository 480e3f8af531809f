"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

from cubesec import polytope, reproduce
from cubesec.bounds import extremal_frame
from cubesec.cli import main
from cubesec.frame_core import Frame, random_tight_frame
from cubesec.optimizer import OptimizerConfig, maximize
from cubesec.reproduce import CRITERIA, CriterionResult


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"n": 2, "k": 2, "vectors": [[1.0, 0.0], [0.0, 1.0]]}))
    return path


@pytest.fixture
def extremal_file(tmp_path):
    path = tmp_path / "ext52.json"
    rc = main(["construct-extremal", "--n", "5", "--k", "2", "--out", str(path)])
    assert rc == 0
    return path


def nearly_flat_frame() -> dict:
    """A random tight (7, 2) frame with its last column scaled by 3e-7:
    the least eigenvalue of its frame operator is below RANK_FLOOR."""
    v = random_tight_frame(7, 2, np.random.default_rng([7, 2])).vectors.copy()
    v[:, -1] *= 3e-7
    return {"n": 7, "k": 2, "vectors": v.tolist()}


MALFORMED_FRAMES = [
    pytest.param(json.dumps({"n": 2, "k": 2, "vectors": [[1.0, 0.0], [2.0, 0.0]]}), 3,
                 "not a frame", id="rank_deficient"),
    pytest.param(json.dumps(nearly_flat_frame()), 3, "not a frame", id="nearly_flat"),
    pytest.param('{"n": 3, "k": 2, "vectors": [[NaN, 0], [0, 1], [1, 1]]}', 3,
                 "vectors must be finite", id="nan"),
    pytest.param('{"n": 3, "k": 2, "vectors": [[Infinity, 0], [0, 1], [1, 1]]}', 3,
                 "vectors must be finite", id="infinity"),
    pytest.param('{"n": 3, "k": 2, "vectors": [[null, 0], [0, 1], [1, 1]]}', 3,
                 "vectors must be finite", id="null"),
    # finite, but the frame operator overflows to inf and its eigenvalues are NaN
    pytest.param('{"n": 3, "k": 2, "vectors": [[1e200, 0], [0, 1], [1, 1]]}', 3,
                 "not a frame", id="overflow"),
    pytest.param("[1, 2]", 3, "must be an object", id="not_an_object"),
    pytest.param('{"n": 3, "k": 2, "vectors": [[{}, 0], [0, 1], [1, 1]]}', 3,
                 "vectors must be numbers", id="object_entry"),
    pytest.param('{"n": 3, "vectors": [[1, 0], [0, 1], [1, 1]]}', 3, "'k'", id="missing_key"),
    pytest.param('{"n": 3, "k": 2, "vectors": [[1, 0], [0, 1], [1]]}', 3,
                 "inhomogeneous", id="ragged_row"),
    pytest.param("{not json", 2, "Expecting property name", id="broken_json"),
]


class TestVolume:
    def test_square(self, square_file, capsys):
        assert main(["volume", str(square_file)]) == 0
        out = capsys.readouterr().out
        assert "volume    4" in out

    def test_extremal_value(self, extremal_file, capsys):
        assert main(["volume", str(extremal_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["volume"] == pytest.approx(4 * math.sqrt(6), rel=1e-12)
        assert data["vertices"] == 4 and data["facets"] == 4
        assert data["manifest"]["command"][1] == "volume"

    @pytest.mark.parametrize("command", ["volume", "verify", "report"])
    @pytest.mark.parametrize("text, code, message", MALFORMED_FRAMES)
    def test_rank_deficient_exit_3(self, tmp_path, capsys, recwarn, command, text, code, message):
        # every malformed frame file exits 3, and a file that is not JSON 2,
        # with one error line, no traceback and no warning
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main([command, str(path)]) == code
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err
        assert [str(w.message) for w in recwarn] == []

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["volume", str(path)]) == 2

    def test_missing_file_exit_2(self):
        assert main(["volume", "/nonexistent/frame.json"]) == 2

    def test_polytope_dump(self, square_file, tmp_path, capsys):
        dump = tmp_path / "poly.json"
        assert main(["volume", str(square_file), "--dump-polytope", str(dump)]) == 0
        data = json.loads(dump.read_text())
        assert set(data) == {"k", "volume", "vertices", "facets"}
        assert (tmp_path / "poly.json.manifest.json").exists()


class TestConstructExtremal:
    def test_round_trip(self, extremal_file):
        frame = Frame.from_dict(json.loads(extremal_file.read_text()))
        assert frame.n == 5 and frame.k == 2

    def test_manifest_sidecar(self, extremal_file):
        import pathlib

        sidecar = pathlib.Path(str(extremal_file) + ".manifest.json")
        data = json.loads(sidecar.read_text())
        assert str(extremal_file) in data["outputs"]
        assert data["version"]

    def test_custom_partition_and_signs(self, tmp_path, capsys):
        rc = main(
            [
                "construct-extremal", "--n", "5", "--k", "2",
                "--partition", "0;1,2,3,4", "--signs", "+-+-+",
            ]
        )
        assert rc == 0
        frame = Frame.from_dict(json.loads(capsys.readouterr().out))
        np.testing.assert_allclose(np.sort(frame.squared_lengths()), [1/4]*4 + [1.0])

    def test_invalid_partition_exit_3(self, capsys):
        assert main(["construct-extremal", "--n", "5", "--k", "2", "--partition", "0;1,2"]) == 3


class TestVerify:
    def test_pass_exit_0(self, extremal_file):
        assert main(["verify", str(extremal_file)]) == 0

    def test_fail_exit_1(self, tmp_path, capsys):
        path = tmp_path / "tangent.json"
        path.write_text(
            json.dumps({"n": 3, "k": 2, "vectors": [[1, 0], [0, 1], [0.5, 0.5]]})
        )
        assert main(["verify", str(path)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_format(self, extremal_file, capsys):
        assert main(["verify", str(extremal_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["passed"] is True
        assert data["checks"]["cyclic"]["passed"] is True


class TestBounds:
    def test_table(self, capsys):
        assert main(["bounds", "--n", "4", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "ball_volume" in out and "8.0" in out

    def test_frame_dimension_mismatch_exit_3(self, extremal_file):
        assert main(["bounds", "--n", "6", "--k", "2", "--frame", str(extremal_file)]) == 3


class TestOptimize:
    def test_small_run_with_outputs(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        trace = tmp_path / "trace.csv"
        rc = main(
            [
                "optimize", "--n", "4", "--k", "2", "--restarts", "1",
                "--seed", "5", "--max-iterations", "150",
                "--out", str(out), "--trace", str(trace), "--format", "json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["best"]["volume"] == pytest.approx(8.0, rel=1e-6)
        winner = data["restarts"][data["best"]["index"]]
        assert winner["final_volume"] == data["best"]["volume"]
        assert data["best"]["start"] == winner["start"]
        saved = json.loads(out.read_text())
        assert saved["best"]["volume"] == data["best"]["volume"]
        assert trace.read_text().startswith("restart,iteration,volume")
        assert (tmp_path / "result.json.manifest.json").exists()
        assert (tmp_path / "trace.csv.manifest.json").exists()

    def test_text_names_the_winning_restart(self, capsys):
        rc = main(["optimize", "--n", "4", "--k", "2", "--restarts", "1",
                   "--seed", "5", "--max-iterations", "150"])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        best = [line for line in lines if line.startswith("best restart")]
        assert len(best) == 1
        assert best[0].split()[2:] in (["0", "(random)"], ["1", "(warm)"])
        hits = [line for line in lines if line.startswith("random restarts within 1e-6 of best:")]
        assert len(hits) == 1
        assert hits[0].split(": ")[1] in ("0 of 1", "1 of 1")
        # restarts counted by why they stopped
        stops = [line for line in lines if line.startswith("stops")]
        assert len(stops) == 1
        counts = dict(part.split() for part in stops[0][len("stops"):].split(","))
        assert set(counts) <= {"critical", "cap"}
        assert sum(map(int, counts.values())) == 2
        # the volumes read and the merges accepted, over all restarts
        totals = [line for line in lines if line.startswith("evaluations")]
        res = maximize(OptimizerConfig(n=4, k=2, restarts=1, seed=5, max_iterations=150))
        assert totals == ["evaluations      {}, merges {}".format(
            sum(r.evaluations for r in res.restarts), sum(r.merged for r in res.restarts))]
        # the largest stratum residual |xi| / |D| at a restart's final frame
        residuals = [line for line in lines if line.startswith("residual max")]
        assert residuals == [f"residual max     {max(r.residual for r in res.restarts):.3g}"]

    def test_seeded_reruns_identical(self, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            rc = main(
                [
                    "optimize", "--n", "4", "--k", "2", "--restarts", "1",
                    "--seed", "9", "--max-iterations", "120", "--out", str(out),
                ]
            )
            assert rc == 0
            paths.append(out)
        a, b = (json.loads(p.read_text()) for p in paths)
        assert a["best"] == b["best"]
        assert a["restarts"] == b["restarts"]

    @pytest.mark.parametrize("argv", [
        ["optimize", "--n", "4", "--k", "2", "--restarts", "1"],
        ["reproduce", "--only", "planar-claims"],
    ], ids=["optimize", "reproduce"])
    def test_threads_not_an_integer_exit_2(self, monkeypatch, capsys, argv):
        # a CUBESEC_THREADS that does not parse is a parse error, named
        # with its value, before any restart runs
        monkeypatch.setenv("CUBESEC_THREADS", "two")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: CUBESEC_THREADS must be an integer, got 'two'\n"
        assert captured.out == ""


class TestReport:
    def test_combined_report(self, extremal_file, capsys):
        assert main(["report", str(extremal_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"polytope", "conditions", "bounds", "facet_closure", "manifest"}
        assert data["conditions"]["passed"] is True
        assert data["polytope"]["volume"] == pytest.approx(4 * math.sqrt(6), rel=1e-12)

    @pytest.mark.parametrize("n, k, box", [
        pytest.param(6, 2, False, id="2"), pytest.param(6, 3, False, id="3"),
        pytest.param(7, 3, True, id="7-3-box"), pytest.param(7, 4, True, id="7-4-box"),
        pytest.param(12, 4, True, id="12-4-box"),
    ])
    def test_volume_routes_agree(self, tmp_path, capsys, n, k, box):
        # the optimizer ranks by section_volume_fast and the report states
        # volume(build_section), one volume; the report checks its facet
        # records against it: the cones over the facets, of heights
        # dist_F, sum to it to rounding, at a box frame too
        path = tmp_path / "frame.json"
        if box:
            signs = np.random.default_rng([n, k]).choice([-1, 1], n).tolist()
            vectors = extremal_frame(n, k, signs=signs).vectors
        else:
            vectors = np.random.default_rng(k).standard_normal((n, k))
        path.write_text(json.dumps({"n": n, "k": k, "vectors": vectors.tolist()}))
        assert main(["report", str(path), "--format", "json"]) == 0
        closure = json.loads(capsys.readouterr().out)["facet_closure"]
        assert 0 <= closure <= 1e-15
        assert main(["report", str(path)]) == 0
        assert f"closure    {closure:.3g}" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("n, k, box", [
        pytest.param(6, 2, False, id="6-2"), pytest.param(7, 3, False, id="7-3"),
        pytest.param(7, 4, False, id="7-4"), pytest.param(7, 3, True, id="7-3-box"),
        pytest.param(7, 4, True, id="7-4-box"), pytest.param(12, 4, True, id="12-4-box"),
    ])
    def test_one_hull_per_frame(self, tmp_path, monkeypatch, n, k, box):
        # the report builds one hull, whose section gives the facets and
        # the volume: Qhull's for k >= 3, the planar scan's for k = 2; a box
        # frame of k >= 3 reads its section from U^-1, with no hull
        path = tmp_path / "frame.json"
        rng = np.random.default_rng([n, k])
        if box:
            s = extremal_frame(n, k, signs=rng.choice([-1, 1], n).tolist())
        else:
            s = random_tight_frame(n, k, rng)
        path.write_text(json.dumps(s.to_dict()))
        name = "_planar_hull" if k == 2 else "ConvexHull"
        calls = []
        build = getattr(polytope, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(polytope, name, counted)
        # a fresh frame: forget the last section hull
        monkeypatch.setattr(polytope, "_last_section", (None, None), raising=False)
        assert main(["report", str(path), "--format", "json"]) == 0
        assert len(calls) == (0 if box else 1)


@pytest.fixture
def clock(monkeypatch):
    """The battery's clock, advanced by hand: run_battery times each
    criterion call on it."""
    now = [0.0]
    monkeypatch.setattr(reproduce, "time", SimpleNamespace(perf_counter=lambda: now[0]))
    return now


class TestReproduce:
    def test_fast_subset_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        rc = main(
            [
                "reproduce", "--only", "planar-claims,cross-product",
                "--n-max", "6", "--out", str(out),
            ]
        )
        assert rc == 0
        text = capsys.readouterr().out
        assert "planar-claims" in text and "PASS" in text
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert [c["name"] for c in data["criteria"]] == [
            "planar-claims", "cross-product-tightness",
        ]

    def test_unknown_criterion_exit_3(self, capsys):
        assert main(["reproduce", "--only", "bogus-name"]) == 3
        assert "unknown" in capsys.readouterr().err

    def test_failing_criterion_exits_1(self, monkeypatch, capsys, clock):
        def fails(ctx):
            clock[0] += 0.1
            return CriterionResult("fails", False)

        monkeypatch.setitem(CRITERIA, "fails", fails)
        assert main(["reproduce", "--only", "fails"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"fails  FAIL +0\.1s", lines[0])
        assert lines[-1] == "overall: FAIL"

    def test_verbose_prints_optimizer_seconds(self, monkeypatch, capsys, clock):
        def spends(ctx):
            ctx.optimizer_seconds += 2.5
            clock[0] += 3.0
            return CriterionResult("spends-time", True, ["one detail"])

        monkeypatch.setitem(CRITERIA, "spends-time", spends)
        assert main(["reproduce", "--only", "spends-time", "--verbose"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert re.fullmatch(r"spends-time  PASS +3\.0s  optimizer +2\.5s", lines[0])
        assert lines[1] == "    one detail"

    def test_json_format(self, capsys):
        rc = main(["reproduce", "--only", "planar-claims", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["criteria"][0]["name"] == "planar-claims"
