"""CLI behaviors: file formats, exit codes, reproducibility."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from coarsepd import (
    Diagram,
    canonicalize,
    distance_matrix,
    embed_finite_metric,
    profile_map,
    validate_metric,
    zkm_space,
)
from coarsepd import io as cpio
from coarsepd.cli import main
from conftest import random_connected_metric


def write_diagram(path, points):
    path.write_text(json.dumps({"points": points}))


def write_metric(path, labels, matrix):
    rows = [",".join(labels)]
    rows += [",".join(repr(float(v)) for v in row) for row in matrix]
    path.write_text("\n".join(rows) + "\n")


def save_diagrams(directory, diagrams):
    files = [str(directory / f"d{k}.json") for k in range(len(diagrams))]
    for dgm, path in zip(diagrams, files):
        cpio.save_diagram(dgm, path)
    return files


def assert_envelopes(out, prof):
    """The profile command's JSON carries exactly the envelopes of ``prof``."""
    assert out["bin_width"] == prof.bin_width
    assert out["bin_edges"] == prof.bin_edges.tolist()
    assert out["rho1"] == [None if np.isnan(v) else v for v in prof.rho1.tolist()]
    assert out["rho2"] == [None if np.isnan(v) else v for v in prof.rho2.tolist()]
    assert out["pairs"] == prof.source_distances.size


class TestRoundTrip:
    def test_diagram_roundtrip_exact(self, tmp_path, rng):
        pts = [[float(rng.uniform(0, 10)), 0.0] for _ in range(5)]
        for p in pts:
            p[1] = p[0] + float(rng.uniform(0.001, 10))
        dgm = canonicalize(tuple(p) for p in pts)
        path = tmp_path / "d.json"
        cpio.save_diagram(dgm, path)
        assert cpio.load_diagram(path) == dgm

    def test_metric_roundtrip_exact(self, tmp_path):
        space = zkm_space(4, 2)
        path = tmp_path / "m.csv"
        cpio.save_metric(space, path)
        loaded = cpio.load_metric(path)
        assert loaded.labels == space.labels
        assert np.array_equal(loaded.dist, space.dist)

    def test_load_canonicalizes_order(self, tmp_path):
        path = tmp_path / "d.json"
        write_diagram(path, [[1, 2], [0, 3]])
        assert cpio.load_diagram(path).points == ((0.0, 3.0), (1.0, 2.0))


class TestDist:
    def test_bottleneck_value(self, tmp_path, capsys):
        write_diagram(tmp_path / "a.json", [[0, 4]])
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--bottleneck"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["distance"] == "2.00000000000"

    def test_self_distance_zero(self, tmp_path, capsys):
        write_diagram(tmp_path / "a.json", [[0, 4], [1, 5]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "a.json"),
                     "--bottleneck"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["distance_value"] == 0.0

    def test_wasserstein_value(self, tmp_path, capsys):
        write_diagram(tmp_path / "a.json", [[0, 4]])
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--wasserstein", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["distance"] == "3.00000000000"

    def test_infinite_exponent_exit1(self, tmp_path, capsys):
        write_diagram(tmp_path / "a.json", [[0, 4], [1, 3]])
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--wasserstein", "inf"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "p must be" in captured.err

    def test_parse_error_exit1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(bad), str(tmp_path / "b.json"), "--bottleneck"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("metric", [["--bottleneck"], ["--wasserstein", "2"]])
    def test_zero_persistence_point_exit1(self, tmp_path, capsys, metric):
        # (5e-324 - 0) / 2 rounds to 0.0, which would put the diagram at
        # distance 0 from the empty one.
        write_diagram(tmp_path / "a.json", [[0, 5e-324]])
        write_diagram(tmp_path / "b.json", [])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"), *metric])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "persistence" in captured.err

    @pytest.mark.parametrize("points", [[3], 5, None, [None], [[1, 2, 3]],
                                        ["12"], [["3", "4.5"]], [[True, 5]]])
    def test_malformed_points_exit1(self, tmp_path, capsys, points):
        write_diagram(tmp_path / "a.json", points)
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--bottleneck"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_oracle_oversize_exit2(self, tmp_path, capsys):
        write_diagram(tmp_path / "a.json", [[i, i + 1] for i in range(6)])
        write_diagram(tmp_path / "b.json", [[0, 1]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--bottleneck", "--oracle"])
        capsys.readouterr()
        assert code == 2


class TestEmbed:
    def test_two_point_metric(self, tmp_path, capsys):
        write_metric(tmp_path / "m.csv", ["x0", "x1"], [[0, 1], [1, 0]])
        code = main(["embed", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["max_deviation"] <= 1e-9
        assert len(out["files"]) == 2

    def test_invalid_metric_exit3(self, tmp_path, capsys):
        write_metric(tmp_path / "m.csv", ["a", "b", "c"],
                     [[0, 1, 3], [1, 0, 1], [3, 1, 0]])
        code = main(["embed", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 3
        assert "triangle" in err

    def test_eight_point_random_metric(self, tmp_path, capsys, rng):
        from conftest import random_connected_metric
        X = random_connected_metric(rng, 8)
        cpio.save_metric(X, tmp_path / "m.csv")
        code = main(["embed", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["max_deviation"] <= 1e-9


class TestCover:
    def test_d1_cover_passes(self, capsys):
        code = main(["cover", "--space", "d1", "--scale", "1",
                     "--trials", "5000", "--seed", "7"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]

    def test_line_cover_passes(self, capsys):
        code = main(["cover", "--space", "line", "--scale", "5",
                     "--trials", "5000", "--seed", "1"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["uniform_bound_claimed"] == 10.0

    def test_zero_trials_usage_error(self):
        with pytest.raises(SystemExit):
            main(["cover", "--space", "line", "--scale", "5", "--trials", "0"])

    def test_seed_reproducible(self, capsys):
        args = ["cover", "--space", "d1", "--scale", "1",
                "--trials", "2000", "--seed", "42"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    @pytest.mark.parametrize("flag,value", [("--scale", "nan"), ("--scale", "inf"),
                                            ("--window", "inf"), ("--window", "nan")])
    def test_non_finite_option_usage_error(self, flag, value, capsys):
        args = {"--scale": "1", "--window": "10", flag: value}
        with pytest.raises(SystemExit) as exc:
            main(["cover", "--space", "d1", "--trials", "10",
                  "--scale", args["--scale"], "--window", args["--window"]])
        assert exc.value.code == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--space", "d1", "--scale", "10", "--window", "1.7e308"],
        ["--space", "d1", "--scale", "1e300", "--window", "1e8"],
        ["--space", "line", "--scale", "1", "--window", "1e308"],
        ["--space", "line", "--scale", "1e308", "--window", "1e-3"],
    ])
    def test_non_finite_range_error(self, argv, capsys):
        code = main(["cover", "--trials", "10", *argv])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ") and "range is not finite" in captured.err

    def test_cover_loads_no_scipy(self):
        script = (
            "import contextlib, io, sys\n"
            "import coarsepd.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = coarsepd.cli.main(['cover', '--space', 'd1', '--scale', '1',"
            " '--trials', '100'])\n"
            "print(code, sorted(m for m in ('scipy.optimize', 'scipy.sparse')"
            " if m in sys.modules))\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert result.stdout == "0 []\n", result.stderr


class TestGen:
    def test_zkm(self, tmp_path, capsys):
        code = main(["gen", "--zkm", "4", "2", "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["points"] == 16 and out["diameter"] == 2.0
        assert validate_metric(cpio.load_metric(out["file"]).dist).n_points == 16

    def test_cube(self, tmp_path, capsys):
        code = main(["gen", "--cube", "2", "10", "20", "--seed", "3",
                     "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert out["max_bottleneck_deviation"] <= 1e-9
        assert len(out["files"]) == 20

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_cube_nonfinite_radius_exit1(self, tmp_path, capsys, radius):
        code = main(["gen", "--cube", "2", radius, "3", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: R must be finite, got {radius}\n"

    def test_dranishnikov(self, tmp_path, capsys):
        code = main(["gen", "--dranishnikov", "2", "2", "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]
        assert all(c["strictly_above_bound"] for c in out["cross"])

    def test_too_large_exit5(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", "10")
        code = main(["gen", "--zkm", "10", "2", "--out", str(tmp_path)])
        capsys.readouterr()
        assert code == 5

    @pytest.mark.parametrize("cap", ["0", "-3", "abc"])
    def test_invalid_cap_exit1(self, tmp_path, capsys, monkeypatch, cap):
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", cap)
        code = main(["gen", "--zkm", "2", "2", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:") and "COARSE_PD_MAX_POINTS" in captured.err


class TestProfile:
    def test_identity_profile(self, tmp_path, capsys, rng):
        from conftest import random_connected_metric
        X = random_connected_metric(rng, 6)
        cpio.save_metric(X, tmp_path / "src.csv")
        cpio.save_metric(X, tmp_path / "img.csv")
        code = main(["profile", str(tmp_path / "src.csv"), str(tmp_path / "img.csv")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        pairs = [(lo, hi) for lo, hi in zip(out["rho1"], out["rho2"])
                 if lo is not None]
        assert pairs, "no occupied bins reported"
        assert all(hi - lo <= out["bin_width"] + 1e-9 for lo, hi in pairs)

    def test_diagram_profile(self, tmp_path, capsys, rng):
        from conftest import random_connected_metric
        from coarsepd import embed_finite_metric
        X = random_connected_metric(rng, 5)
        cpio.save_metric(X, tmp_path / "src.csv")
        files = []
        for k, dgm in enumerate(embed_finite_metric(X)):
            path = tmp_path / f"d{k}.json"
            cpio.save_diagram(dgm, path)
            files.append(str(path))
        code = main(["profile", str(tmp_path / "src.csv"),
                     "--diagrams", *files, "--bottleneck"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["lower_envelope_growing"]

    def test_size_mismatch_exit1(self, tmp_path, capsys, rng):
        from conftest import random_connected_metric
        X = random_connected_metric(rng, 5)
        Y = random_connected_metric(rng, 4)
        cpio.save_metric(X, tmp_path / "src.csv")
        cpio.save_metric(Y, tmp_path / "img.csv")
        code = main(["profile", str(tmp_path / "src.csv"), str(tmp_path / "img.csv")])
        capsys.readouterr()
        assert code == 1


    def test_diagram_profile_wasserstein(self, tmp_path, capsys, rng):
        X = random_connected_metric(rng, 6)
        cpio.save_metric(X, tmp_path / "src.csv")
        diagrams = embed_finite_metric(X)
        code = main(["profile", str(tmp_path / "src.csv"), "--diagrams",
                     *save_diagrams(tmp_path, diagrams), "--wasserstein", "2"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        assert_envelopes(out, profile_map(X, distance_matrix(diagrams, "wasserstein", 2)))

    def test_bins(self, tmp_path, capsys, rng):
        X = random_connected_metric(rng, 7)
        cpio.save_metric(X, tmp_path / "src.csv")
        cpio.save_metric(validate_metric(2.0 * X.dist), tmp_path / "img.csv")
        code = main(["profile", str(tmp_path / "src.csv"), str(tmp_path / "img.csv"),
                     "--bins", "5"])
        out = json.loads(capsys.readouterr().out)
        assert code == 0
        tmax = float(np.triu(X.dist, 1).max())
        assert out["bin_width"] == tmax / 5
        assert_envelopes(out, profile_map(X, 2.0 * X.dist, bin_width=tmax / 5))

    def test_diagram_count_mismatch_exit1(self, tmp_path, capsys, rng):
        X = random_connected_metric(rng, 5)
        cpio.save_metric(X, tmp_path / "src.csv")
        files = save_diagrams(tmp_path, embed_finite_metric(X)[:4])
        code = main(["profile", str(tmp_path / "src.csv"), "--diagrams", *files])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "4 diagrams for 5 points" in captured.err

    def test_no_image_exit1(self, tmp_path, capsys, rng):
        cpio.save_metric(random_connected_metric(rng, 4), tmp_path / "src.csv")
        code = main(["profile", str(tmp_path / "src.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "provide an image metric file or --diagrams" in captured.err

@pytest.mark.parametrize("command", ["profile", "embed"])
def test_non_finite_metric_exit3(tmp_path, capsys, command):
    write_metric(tmp_path / "m.csv", ["a", "b", "c"],
                 [[0, 1, 2], [1, 0, float("nan")], [2, float("nan"), 0]])
    path = str(tmp_path / "m.csv")
    args = [path, path] if command == "profile" else [path, "--out", str(tmp_path / "out")]
    code = main([command, *args])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "('non_finite', 1, 2)" in captured.err
