"""End-to-end tests of the command-line interface and its exit codes."""

import json
import math

import numpy as np
import pytest

from cubesec.cli import main
from cubesec.frame_core import Frame


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

    def test_rank_deficient_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"n": 2, "k": 2, "vectors": [[1.0, 0.0], [2.0, 0.0]]}))
        assert main(["volume", str(path)]) == 3
        assert "not a frame" in capsys.readouterr().err

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
        frame = Frame.from_json(extremal_file.read_text())
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
        frame = Frame.from_json(capsys.readouterr().out)
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


class TestReport:
    def test_combined_report(self, extremal_file, capsys):
        assert main(["report", str(extremal_file), "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"polytope", "conditions", "bounds", "manifest"}
        assert data["conditions"]["passed"] is True
        assert data["polytope"]["volume"] == pytest.approx(4 * math.sqrt(6), rel=1e-12)


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

    def test_misconfigured_tightness_fails(self, capsys):
        rc = main(
            [
                "reproduce", "--only", "cross-product", "--n-max", "5",
                "--eps-tight", "1e-20",
            ]
        )
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_format(self, capsys):
        rc = main(["reproduce", "--only", "planar-claims", "--format", "json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["criteria"][0]["name"] == "planar-claims"
