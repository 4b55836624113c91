"""CLI behaviors: file formats, exit codes, reproducibility."""

import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from coarsepd import (
    Diagram,
    InvalidPoint,
    bottleneck,
    bottleneck_bruteforce,
    describe_matching,
    distance_matrix,
    embed_finite_metric,
    profile_map,
    validate_metric,
    wasserstein,
    wasserstein_bruteforce,
    zkm_space,
)
from coarsepd import cli
from coarsepd import io as cpio
from coarsepd.cli import main
from conftest import random_connected_metric


# Files that json, csv or the UTF-8 decoder rejects, and the message that follows the path.
UTF8_ERROR = "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"
FIELD_LIMIT_ERROR = "field larger than field limit (131072)"
MALFORMED_FILES = {
    "truncated_json": ("d.json", '{"points": [[0, 1],',
                       "Expecting value: line 1 column 20 (char 19)"),
    "non_utf8_json": ("d.json", b"\xff{}", UTF8_ERROR),
    "non_utf8_csv": ("m.csv", b"\xffa,b\n0,1\n1,0\n", UTF8_ERROR),
    "overlong_cell": ("m.csv", "a,b\n0," + "1" * 200_000 + "\n1,0\n", FIELD_LIMIT_ERROR),
    "overlong_label": ("m.csv", "x" * 200_000 + ",b\n0,1\n1,0\n", FIELD_LIMIT_ERROR),
}


def write_diagram(path, points):
    path.write_text(json.dumps({"points": points}))


def write_metric(path, labels, matrix):
    rows = [",".join(labels)]
    rows += [",".join(repr(float(v)) for v in row) for row in matrix]
    path.write_text("\n".join(rows) + "\n")


def write_line_metric(path):
    """The line metric on {0.1, 3.3e6, 7.7e6, 9.9e6}, whose image deaths reach 1.3e8."""
    xs = [0.1, 3.3e6, 7.7e6, 9.9e6]
    write_metric(path, ["a", "b", "c", "d"], [[abs(x - y) for y in xs] for x in xs])


def write_scattered_line_metric(path, planted=0.0):
    """40 points of a line up to 1e8, whose distances round at 1.5e-8; d(0, 1) gets planted."""
    xs = np.random.default_rng(0).uniform(0, 10, 40) * 1e7 + 0.123456789
    dist = np.abs(xs[:, None] - xs)
    dist[0, 1] += planted
    dist[1, 0] += planted
    write_metric(path, [f"p{i}" for i in range(40)], dist)


def run_on_metric(command, path, out_dir):
    """``profile path path`` or ``embed path --out out_dir``."""
    path = str(path)
    return main([command, path, path] if command == "profile"
                else [command, path, "--out", str(out_dir)])


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
        dgm = Diagram([tuple(p) for p in pts])
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

    @pytest.mark.parametrize("name,body,message", [
        ("d.json", "[]", "expected a JSON object with a 'points' key"),
        ("d.json", "{}", "expected a JSON object with a 'points' key"),
        ("m.csv", "a,b\n", "expected a label row plus matrix rows"),
        ("m.csv", "a,b\n0,1\n1\n", "matrix shape does not match label count"),
        *(pytest.param(name, body, message, id=key)
          for key, (name, body, message) in MALFORMED_FILES.items()),
    ])
    def test_malformed_file_names_the_problem(self, tmp_path, name, body, message):
        path = tmp_path / name
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        load = cpio.load_diagram if name.endswith(".json") else cpio.load_metric
        with pytest.raises(ValueError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {message}"

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

    @pytest.mark.parametrize("body", [
        pytest.param("not json", id="not_json"),
        # json.load raises RecursionError at this depth; main must not let it out.
        pytest.param('{"points": ' + "[" * 3000 + "]" * 3000 + "}", id="nested_3000"),
    ])
    def test_parse_error_exit1(self, tmp_path, capsys, body):
        bad = tmp_path / "bad.json"
        bad.write_text(body)
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(bad), str(tmp_path / "b.json"), "--bottleneck"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_shared_parser_keeps_no_state(self, tmp_path, capsys):
        # main reuses one parser; a usage error or an exponent given to one
        # call must not reach the next.
        assert cli.build_parser() is cli.build_parser()
        write_diagram(tmp_path / "a.json", [[0, 4], [1, 3]])
        write_diagram(tmp_path / "b.json", [[3, 6]])
        files = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        z, w = cpio.load_diagram(files[0]), cpio.load_diagram(files[1])
        d_w2, d_b = wasserstein(z, w, 2)[0], bottleneck(z, w)[0]
        assert d_w2 != d_b
        with pytest.raises(SystemExit) as exc:
            main(["dist", *files, "--bottleneck", "--wasserstein", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert main(["dist", *files, "--wasserstein", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metric"] == "wasserstein"
        assert out["distance_value"] == d_w2
        assert main(["dist", *files]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["metric"] == "bottleneck" and "p" not in out
        assert out["distance_value"] == d_b

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
                                        ["12"], [["3", "4.5"]], [[True, 5]],
                                        [[0, 10**400]]])
    def test_malformed_points_exit1(self, tmp_path, capsys, points):
        write_diagram(tmp_path / "a.json", points)
        write_diagram(tmp_path / "b.json", [[3, 6]])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"), "--bottleneck"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_oracle_oversize_exit2(self, tmp_path, capsys):
        # 6 + 5 = 11 slots, one past the oracle's limit
        write_diagram(tmp_path / "a.json", [[i, i + 1] for i in range(6)])
        write_diagram(tmp_path / "b.json", [[i, i + 2] for i in range(5)])
        code = main(["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                     "--bottleneck", "--oracle"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("metric", [["--bottleneck"], ["--wasserstein", "2"]])
    def test_oracle_on_8_against_2_points(self, tmp_path, capsys, metric):
        # 8 + 2 = 10 slots, at the oracle's limit
        write_diagram(tmp_path / "a.json", [[i, i + 1 + i % 3] for i in range(8)])
        write_diagram(tmp_path / "b.json", [[0.5, 2], [3, 7]])
        args = ["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json"), *metric]
        assert main(args + ["--oracle"]) == 0
        oracle = json.loads(capsys.readouterr().out)
        assert main(args) == 0
        solver = json.loads(capsys.readouterr().out)
        assert oracle.pop("oracle") is True and solver.pop("oracle") is False
        assert oracle == solver

    def test_golden_digest(self, tmp_path, capsys):
        # two fixed pairs (empty sides; duplicate points) and 60 seeded integer-grid
        # pairs of 0-6 points a side, with ties: --bottleneck, --wasserstein 1, 2 and
        # 3.5, and --oracle for d_B and W_2 where n + m <= 10; the sha256 of every
        # exit code, stdout and stderr, the directory written as OUT
        rng = np.random.default_rng(28)

        def side():
            births = rng.integers(0, 6, int(rng.integers(0, 7)))
            return np.stack([births, births + rng.integers(1, 5, len(births))], axis=1).tolist()

        pairs = [([], []), ([[0, 2], [0, 2]], [[0, 2], [1, 3], [0, 2]])]
        pairs += [(side(), side()) for _ in range(60)]
        transcript = []
        for k, sides in enumerate(pairs):
            files = [tmp_path / f"{k}{name}.json" for name in "ab"]
            for path, points in zip(files, sides):
                write_diagram(path, points)
            metrics = [["--bottleneck"], *(["--wasserstein", p] for p in ("1", "2", "3.5"))]
            if sum(map(len, sides)) <= 10:
                metrics += [["--bottleneck", "--oracle"], ["--wasserstein", "2", "--oracle"]]
            for metric in metrics:
                code = main(["dist", *map(str, files), *metric])
                captured = capsys.readouterr()
                transcript.append(f"{code}\n{captured.out}{captured.err}")
        digest = hashlib.sha256("".join(transcript).replace(str(tmp_path), "OUT").encode())
        assert digest.hexdigest() == "899b52a3bca178dde717b8b9dc10938f6fb65ff9f409978633fc4e62b68b3c98"


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

    def test_overflowing_image_exit1(self, tmp_path, capsys):
        write_metric(tmp_path / "m.csv", ["x0", "x1"], [[0, 5e307], [5e307, 0]])
        code = main(["embed", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: non-finite coordinates: (1.5e+308, inf)\n"

    def test_large_line_metric_isometric(self, tmp_path, capsys):
        # the ulp of 1.3e8 (1.5e-8) alone is above 1e-9
        write_line_metric(tmp_path / "m.csv")
        code = main(["embed", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out")])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["isometric"] is True
        assert 1e-9 < out["max_deviation"] <= out["tolerance"] < 1e-6

    def test_moved_death_is_not_isometric(self, tmp_path, capsys, monkeypatch):
        write_line_metric(tmp_path / "m.csv")
        diagrams = embed_finite_metric(cpio.load_metric(tmp_path / "m.csv"))
        # x_1's own point sits at distance 0; lowering it moves d_B(x_0, x_1) up by 1e-3
        (b, d), *rest = diagrams[1].points
        diagrams[1] = Diagram(((b, d - 1e-3), *rest))
        monkeypatch.setattr(cli, "embed_finite_metric", lambda space: diagrams)
        code = main(["embed", str(tmp_path / "m.csv"), "--out", str(tmp_path / "out")])
        out = json.loads(capsys.readouterr().out)
        assert code == 6 and out["isometric"] is False
        assert out["max_deviation"] > 1e-4 > out["tolerance"]

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

    @pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                        reason="glibc heap thresholds")
    def test_freed_heap_is_not_refaulted(self):
        # Ten 96 KB arrays freed at the top of the heap: by default glibc trims
        # them and the next round faults about 160 fresh pages (7,800 here).
        script = (
            "import contextlib, io, resource\n"
            "import numpy as np\n"
            "import coarsepd.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    coarsepd.cli.main(['cover', '--space', 'd1', '--scale', '1', '--trials', '10'])\n"
            "xs = [np.ones(12_000) for _ in range(10)]\n"
            "del xs\n"
            "start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "for _ in range(50):\n"
            "    xs = [np.ones(12_000) for _ in range(10)]\n"
            "    del xs\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start)\n"
        )
        src = str(Path(__file__).resolve().parent.parent / "src")
        result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                                text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
        assert int(result.stdout) < 50, result.stderr

    def test_golden_digest(self, capsys):
        # 20 seeded d1 covers of 1,000 trials, a d1 cover at scale 0.37 over a
        # window of 30 and a line cover; the sha256 of every exit code and stdout
        runs = [["--space", "d1", "--scale", "1", "--trials", "1000", "--seed", str(seed)]
                for seed in range(20)]
        runs += [["--space", "d1", "--scale", "0.37", "--window", "30", "--trials", "50000"],
                 ["--space", "line", "--scale", "5", "--trials", "20000"]]
        transcript = []
        for args in runs:
            code = main(["cover", *args])
            transcript.append(f"{code}\n{capsys.readouterr().out}")
        digest = hashlib.sha256("".join(transcript).encode())
        assert digest.hexdigest() == "af38069b96424a6a05725db502661871991cf10c7656b8c0e85259567641fdfd"


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

    def test_cube_large_radius_isometric(self, tmp_path, capsys):
        # deaths reach 9e6, whose ulp (1.9e-9) alone is above 1e-9
        code = main(["gen", "--cube", "3", "1e6", "20", "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["isometric"] is True
        assert out["max_bottleneck_deviation"] > 1e-9

    @pytest.mark.parametrize("radius", ["inf", "nan"])
    def test_cube_nonfinite_radius_exit1(self, tmp_path, capsys, radius):
        code = main(["gen", "--cube", "2", radius, "3", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err == f"error: R must be finite, got {radius}\n"

    @pytest.mark.parametrize("cube,name", [
        (["2", "0", "0"], "R"), (["2", "-1", "3"], "R"), (["2", "abc", "3"], "R"),
        (["0", "10", "3"], "N"), (["2.5", "10", "3"], "N"),
        (["2", "10", "-1"], "SAMPLES"), (["2", "10", "0"], "SAMPLES"),
        (["10", "1e307", "2"], "R"),
    ])
    def test_cube_invalid_argument_exit1(self, tmp_path, capsys, cube, name):
        code = main(["gen", "--cube", *cube, "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name} must be ")
        assert list(tmp_path.iterdir()) == []

    def test_cube_sup_distances_need_no_cube_of_differences(self, tmp_path, capsys):
        # the (SAMPLES, SAMPLES, N) differences alone would take 25.6 MB
        tracemalloc.start()
        try:
            code = main(["gen", "--cube", "20", "10", "400", "--out", str(tmp_path)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert json.loads(capsys.readouterr().out)["isometric"] and code == 0
        assert peak < 20e6

    def test_dranishnikov(self, tmp_path, capsys):
        code = main(["gen", "--dranishnikov", "2", "2", "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"]
        assert all(c["strictly_above_bound"] for c in out["cross"])

    def test_dranishnikov_one_block(self, tmp_path, capsys):
        code = main(["gen", "--dranishnikov", "1", "1", "--out", str(tmp_path)])
        out = json.loads(capsys.readouterr().out)
        assert code == 0 and out["ok"] is True and out["cross"] == []
        assert (tmp_path / "dranishnikov_1_1.csv").read_bytes() == b"0:0\r\n0.0\r\n"
        # C = diam + s = 0 + (1 + 1 + 1), so the anchor is (3C, 6C)
        assert json.loads(Path(out["diagram_files"][0]).read_text()) == {"points": [[9.0, 18.0]]}

    @pytest.mark.parametrize("gen,files,stdout_sha,files_sha", [
        (["--zkm", "4", "2"], 1,
         "e238b87e532c590870f4a22d87e1d737fb08a706b63161282b39c257a944f581",
         "5fb6615a71a0aee70858ed9944930e7eb868820490ab567e150eb154fdc5fcf7"),
        (["--zkm", "3", "3"], 1,
         "036db3491aab6a40ae1868d4a28e32c41ea771355bc0cd3d870f45027a3e77dd",
         "2642d3bb546abf247fd43fbe27cd9b5745e419eb0dc3115ca8b61f0c9f00f966"),
        (["--cube", "3", "2.5", "60", "--seed", "0"], 60,
         "27bef2b9ad9f95737b198ebfcc32d4708a5689549be5bd98a8504d9c84227575",
         "a302f31e85d49ffc1eaea2a5bf776ac074ffd6d5eea39a622eeb956accd82ce9"),
        (["--dranishnikov", "1", "1"], 2,
         "a6b099e6bc02e43f887827d85f1770e571fc8e1ebe3f6c1776c72321528f2075",
         "770ff390bd20001625c9c81b04b60d37ee606b1c07a548066fbbd393057b54c4"),
        (["--dranishnikov", "3", "2"], 21,
         "2fd33fb179414867c073b0176818660fa527a9409650214892f0fc1fafaa7349",
         "f88b319de61dc5890e62cb3f2e9b95ae821c6f461556df662af95a3a4ef05e59"),
        (["--dranishnikov", "4", "2"], 41,
         "a6226bffb90cd866aeb24b0fd61e705f669c14d114a35bb3886cde50c4215d5f",
         "f6dd72c72ea3e5c82b6050228a76e9a0d5e36833c2b40fa0de780ab1d45277f8"),
    ], ids=["zkm-4-2", "zkm-3-3", "cube-3-2.5-60", "dranishnikov-1-1", "dranishnikov-3-2",
            "dranishnikov-4-2"])
    def test_golden_digests(self, tmp_path, capsys, gen, files, stdout_sha, files_sha):
        # stdout with the output directory written as OUT, and a sha256sum-style
        # listing of every written file in name order
        assert main(["gen", *gen, "--out", str(tmp_path)]) == 0
        stdout = capsys.readouterr().out.replace(str(tmp_path), "OUT")
        written = sorted(tmp_path.iterdir())
        listing = "".join(f"{hashlib.sha256(f.read_bytes()).hexdigest()}  {f.name}\n"
                          for f in written)
        assert len(written) == files
        assert hashlib.sha256(stdout.encode()).hexdigest() == stdout_sha
        assert hashlib.sha256(listing.encode()).hexdigest() == files_sha

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

    @pytest.mark.parametrize("gen,cap,code", [
        (["--cube", "0", "10", "3"], "4096", 1),
        (["--cube", "2", "inf", "3"], "4096", 1),
        (["--zkm", "3", "2"], "4", 5),
        (["--dranishnikov", "2", "2"], "4", 5),
        (["--cube", "1", "10", "5"], "4", 5),
        (["--zkm", "10", "5000"], "4096", 5),
        (["--dranishnikov", "3", "20000"], "4096", 5),
        (["--cube", "5000", "10", "1"], "4096", 5),
        (["--cube", "10", "1e307", "2"], "4096", 1),
        (["--zkm", "1", "99999999999"], "4096", 5),
    ])
    def test_rejected_arguments_leave_no_directory(self, tmp_path, capsys, monkeypatch,
                                                   gen, cap, code):
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", cap)
        out_dir = tmp_path / "new"
        assert main(["gen", *gen, "--out", str(out_dir)]) == code
        capsys.readouterr()
        assert not out_dir.exists()

    def test_negative_seed_leaves_no_directory(self, tmp_path, capsys):
        out_dir = tmp_path / "new"
        code = main(["gen", "--cube", "3", "1", "2", "--seed", "-5", "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: expected non-negative integer\n"
        assert not out_dir.exists()


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
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: image shape (4, 4) != source shape (5, 5)\n"

    @pytest.mark.parametrize("bad", ["src", "img"])
    def test_non_numeric_cell_names_file(self, tmp_path, capsys, rng, bad):
        from conftest import random_connected_metric
        X = random_connected_metric(rng, 4)
        cpio.save_metric(X, tmp_path / "src.csv")
        cpio.save_metric(X, tmp_path / "img.csv")
        path = tmp_path / f"{bad}.csv"
        lines = path.read_text().splitlines()
        cells = lines[2].split(",")
        cells[3] = "abc"
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        code = main(["profile", str(tmp_path / "src.csv"), str(tmp_path / "img.csv")])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == (f"error: {path}: matrix row 1, column 3: "
                                "could not convert string to float: 'abc'\n")

    def test_diagram_profile_wasserstein(self, tmp_path, capsys, rng):
        X = random_connected_metric(rng, 6)
        cpio.save_metric(X, tmp_path / "src.csv")
        diagrams = embed_finite_metric(X)
        files = save_diagrams(tmp_path, diagrams)
        for p in (1, 2):
            code = main(["profile", str(tmp_path / "src.csv"), "--diagrams", *files,
                         "--wasserstein", str(p)])
            out = json.loads(capsys.readouterr().out)
            assert code == 0
            assert_envelopes(out, profile_map(X, distance_matrix(diagrams, p)))

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
        assert_envelopes(out, profile_map(X, 2.0 * X.dist, 5))

    def test_bins_above_cap_exit5(self, tmp_path, capsys, rng, monkeypatch):
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", "4096")
        X = random_connected_metric(rng, 5)
        cpio.save_metric(X, tmp_path / "src.csv")
        path = str(tmp_path / "src.csv")
        code = main(["profile", path, path, "--bins", "1000000000000"])
        captured = capsys.readouterr()
        assert code == 5 and captured.out == ""
        assert captured.err == "error: 1e+12 bins exceeds cap 4096\n"
        assert main(["profile", path, path, "--bins", "4096"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rho1"]) == 4097

    def test_bins_beyond_float_range_exit5(self, tmp_path):
        # int(--bins) has 401 digits; dividing by it as a float would overflow
        main(["gen", "--zkm", "2", "1", "--out", str(tmp_path)])
        path = str(tmp_path / "zkm_2_1.csv")
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("COARSE_PD_MAX_POINTS", None)
        result = subprocess.run(
            [sys.executable, "-m", "coarsepd.cli", "profile", path, path, "--bins", "1" + "0" * 400],
            capture_output=True, text=True, timeout=120, env=env)
        assert (result.returncode, result.stdout) == (5, "")
        assert result.stderr == "error: more than 1e+308 bins exceeds cap 4096\n"

    def test_golden_digest(self, tmp_path, capsys, rng, monkeypatch):
        # 28 calls: four inputs, each with no --bins and with six bin counts; the
        # sha256 of every exit code, stdout and stderr, the directory written as OUT
        monkeypatch.setenv("COARSE_PD_MAX_POINTS", "4096")
        X = random_connected_metric(rng, 8)
        src, img, line = tmp_path / "src.csv", tmp_path / "img.csv", tmp_path / "line.csv"
        cpio.save_metric(X, src)
        cpio.save_metric(validate_metric(np.sqrt(X.dist)), img)
        files = save_diagrams(tmp_path, embed_finite_metric(X))
        write_scattered_line_metric(line)
        transcript = []
        for args in ([src, img], [src, "--diagrams", *files, "--bottleneck"],
                     [src, "--diagrams", *files, "--wasserstein", "2"], [line, line]):
            for bins in ([], *(["--bins", b] for b in ("1", "5", "64", "4096", "4097",
                                                        "1000000000000"))):
                code = main(["profile", *map(str, args), *bins])
                captured = capsys.readouterr()
                transcript.append(f"{code}\n{captured.out}{captured.err}")
        digest = hashlib.sha256("".join(transcript).replace(str(tmp_path), "OUT").encode())
        assert digest.hexdigest() == "6a862b83f2c1bfe21b95033bf14b911acf557675ba2ca7550f14bab3a0bf3636"

    def test_diagram_count_mismatch_exit1(self, tmp_path, capsys, rng):
        X = random_connected_metric(rng, 5)
        cpio.save_metric(X, tmp_path / "src.csv")
        files = save_diagrams(tmp_path, embed_finite_metric(X)[:4])
        code = main(["profile", str(tmp_path / "src.csv"), "--diagrams", *files])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "4 diagrams for 5 points" in captured.err

    @pytest.mark.parametrize("args, message", [
        pytest.param([], "provide an image metric file or --diagrams", id="neither"),
        pytest.param(["img.csv", "--diagrams", "d0.json"],
                     "provide an image metric file or --diagrams, not both", id="both"),
        pytest.param(["img.csv", "--wasserstein", "2"],
                     "--bottleneck and --wasserstein apply only with --diagrams",
                     id="metric_with_image"),
        pytest.param(["img.csv", "--bottleneck"],
                     "--bottleneck and --wasserstein apply only with --diagrams",
                     id="bottleneck_with_image"),
    ])
    def test_inputs_exit1(self, tmp_path, monkeypatch, capsys, args, message):
        # Rejected before any file is read: none of these files exists.
        monkeypatch.chdir(tmp_path)
        code = main(["profile", "src.csv", *args])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == f"error: {message}\n"

@pytest.mark.parametrize("command", ["profile", "embed"])
def test_non_finite_metric_exit3(tmp_path, capsys, command):
    write_metric(tmp_path / "m.csv", ["a", "b", "c"],
                 [[0, 1, 2], [1, 0, float("nan")], [2, float("nan"), 0]])
    code = run_on_metric(command, tmp_path / "m.csv", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert "('non_finite', 1, 2)" in captured.err


@pytest.mark.parametrize("command", ["profile", "embed"])
@pytest.mark.parametrize("body", [
    "a,b\n0," + "1" * 200_000 + "\n1,0\n",
    "x" * 200_000 + ",b\n0,1\n1,0\n",
], ids=["overlong_cell", "overlong_label"])
def test_field_above_csv_limit_exit1(tmp_path, capsys, command, body):
    (tmp_path / "m.csv").write_text(body)
    code = run_on_metric(command, tmp_path / "m.csv", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {tmp_path / 'm.csv'}: {FIELD_LIMIT_ERROR}\n"


@pytest.mark.parametrize("points, message", [
    ([[3, 1]], "requires death > birth >= 0, got (3, 1)"),
    ([[0, 1], [2, None]], "not a birth-death pair: (2, None)"),
    ([[1e308, 1e309]], "non-finite coordinates: (1e+308, inf)"),
])
def test_invalid_point_names_its_file(tmp_path, capsys, points, message):
    bad = tmp_path / "bad.json"
    write_diagram(bad, points)
    with pytest.raises(InvalidPoint) as exc:
        cpio.load_diagram(bad)
    assert str(exc.value) == f"{bad}: {message}"
    write_diagram(tmp_path / "ok.json", [[0, 1]])
    code = main(["dist", str(tmp_path / "ok.json"), str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["cover", "--space", "d1", "--scale", "abc"], "argument --scale: must be a number, got abc"),
    (["cover", "--space", "d1", "--scale", "1", "--trials", "x"],
     "argument --trials: must be an integer, got x"),
    (["cover", "--space", "d1", "--scale", "1", "--window", "1,5"],
     "argument --window: must be a number, got 1,5"),
    (["gen", "--zkm", "a", "2"], "argument --zkm: must be an integer, got a"),
    (["profile", "a.csv", "b.csv", "--bins", "x"], "argument --bins: must be an integer, got x"),
    (["profile", "a.csv", "b.csv", "--bins", "2.5"],
     "argument --bins: must be an integer, got 2.5"),
])
def test_numeric_option_says_what_it_expects(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.endswith(f"error: {message}\n") and "_positive" not in err


def test_reply_is_one_write(tmp_path, monkeypatch):
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)

    write_diagram(tmp_path / "a.json", [[0, 4], [1, 3]])
    write_diagram(tmp_path / "b.json", [[3, 6]])
    write_metric(tmp_path / "m.csv", ["a", "b"], [[0, 1], [1, 0]])
    metric = str(tmp_path / "m.csv")
    monkeypatch.setattr(sys, "stdout", Stdout())
    for argv, field, value in [
        (["dist", str(tmp_path / "a.json"), str(tmp_path / "b.json")], "distance_value", 2.0),
        (["cover", "--space", "d1", "--scale", "1", "--trials", "50"], "ok", True),
        (["gen", "--zkm", "2", "2", "--out", str(tmp_path / "gen")], "points", 4),
        (["profile", metric, metric, "--bins", "2"], "pairs", 1),
        (["embed", metric, "--out", str(tmp_path / "embed")], "isometric", True),
    ]:
        writes.clear()
        assert main(argv) == 0, argv
        assert len(writes) == 1 and writes[0].endswith("}\n"), argv
        assert json.loads(writes[0])[field] == value, argv


# Up to 5 points a side on a small integer grid, empty sides included: ties, duplicates,
# and points of z and of w on the diagonal.
GRID_POINTS = st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4)).map(
    lambda t: [t[0], t[0] + t[1]]), max_size=5)


@settings(max_examples=150, deadline=None)
@given(GRID_POINTS, GRID_POINTS,
       st.sampled_from([None, "1", "2", "3.5", "1e3", "1.0000000000000002"]), st.booleans())
# an empty matching; a matching with (0, Delta) and (Delta, 1), by the solver and the oracle
@example([], [], None, False)
@example([[0, 4], [1, 3]], [[3, 6], [0, 1]], None, False)
@example([[0, 4], [1, 3]], [[3, 6], [0, 1]], "2", True)
# distances that print with an exponent (5e-06, 1.5e+16), and identical sides at 0.0
@example([[0, 1e-05]], [], None, False)
@example([[0, 1e-05]], [], None, True)
@example([[0, 3e16]], [[1, 2]], None, False)
@example([[0, 3e16]], [[1, 2]], None, True)
@example([[0, 4], [1, 3]], [[0, 4], [1, 3]], None, False)
@example([[0, 4], [1, 3]], [[0, 4], [1, 3]], None, True)
def test_dist_reply_equals_json_dumps(left, right, p, oracle):
    with tempfile.TemporaryDirectory() as tmp:
        files = [str(Path(tmp) / "a.json"), str(Path(tmp) / "b.json")]
        for path, points in zip(files, (left, right)):
            write_diagram(Path(path), points)
        argv = ["dist", *files] + (["--wasserstein", p] if p else ["--bottleneck"])
        out = StringIO()
        with redirect_stdout(out):
            assert main(argv + ["--oracle"] * oracle) == 0
    z, w = Diagram(left), Diagram(right)
    if p is None:
        value, matching = (bottleneck_bruteforce if oracle else bottleneck)(z, w)
        metric = {"metric": "bottleneck"}
    else:
        value, matching = (wasserstein_bruteforce if oracle else wasserstein)(z, w, float(p))
        metric = {"metric": "wasserstein", "p": float(p)}
    payload = {
        "distance": f"{value:#.12g}",
        "distance_value": value,
        **metric,
        "oracle": oracle,
        "matching": [{"left": "Delta" if i is None else i, "right": "Delta" if j is None else j}
                     for i, j in describe_matching(z, w, matching)],
    }
    assert out.getvalue() == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("name,body,message", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_malformed_second_file_is_named(tmp_path, capsys, name, body, message):
    bad = tmp_path / f"bad_{name}"
    bad.write_bytes(body if isinstance(body, bytes) else body.encode())
    if name.endswith(".json"):
        write_diagram(tmp_path / "ok.json", [[0, 1]])
        argv = ["dist", str(tmp_path / "ok.json"), str(bad)]
    else:
        write_metric(tmp_path / "ok.csv", ["a", "b"], [[0, 1], [1, 0]])
        argv = ["profile", str(tmp_path / "ok.csv"), str(bad)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize("command", ["profile", "embed"])
def test_large_scale_line_metric_is_valid(tmp_path, capsys, command):
    # an absolute 1e-9 found 1,082 triangle witnesses in the distances' rounding
    write_scattered_line_metric(tmp_path / "m.csv")
    code = run_on_metric(command, tmp_path / "m.csv", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    if command == "embed":
        assert json.loads(captured.out)["isometric"] is True


@pytest.mark.parametrize("command", ["profile", "embed"])
@pytest.mark.parametrize("planted", [1.0, 1e-3])
def test_large_scale_planted_violation_exit3(tmp_path, capsys, command, planted):
    write_scattered_line_metric(tmp_path / "m.csv", planted)
    code = run_on_metric(command, tmp_path / "m.csv", tmp_path / "out")
    captured = capsys.readouterr()
    assert code == 3 and captured.out == ""
    assert "triangle" in captured.err
