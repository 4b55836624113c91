"""Metric CSV reading and writing against the plain csv-module references."""

import csv
import io
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from coarsepd import FiniteMetricSpace
from coarsepd import io as cpio


def reference_parse(path):
    """The csv/float() parse of a metric file: (labels, matrix) or the ValueError it raises."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a label row plus matrix rows")
    labels = [c.strip() for c in rows[0]]
    try:
        matrix = [[float(c) for c in row] for row in rows[1:]]
    except ValueError as exc:
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{path}: matrix row {i}, column {j}: {exc}") from None
    if len(matrix) != len(labels) or any(len(r) != len(labels) for r in matrix):
        raise ValueError(f"{path}: matrix shape does not match label count")
    return labels, np.array(matrix, dtype=float).reshape(len(labels), len(labels))


def outcome(parse, path):
    """The parse's result, ("ok", labels, shape, bit patterns) or ("raised", type, message),
    and the message of every warning it let through."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            labels, matrix = parse(path)
        except Exception as exc:  # the reference raises only ValueError
            result = ("raised", type(exc), str(exc))
        else:
            matrix = np.asarray(matrix, dtype=float)
            result = ("ok", list(labels), matrix.shape, matrix.view(np.int64).tolist())
    return result, [str(w.message) for w in caught]


def loaded_parse(path, monkeypatch):
    """What load_metric hands to validate_metric, as (labels, matrix)."""
    with monkeypatch.context() as m:
        m.setattr(cpio, "validate_metric", lambda matrix, labels: (labels, matrix))
        return cpio.load_metric(path)


def assert_same_parse(path, monkeypatch):
    want = outcome(reference_parse, path)
    got = outcome(lambda p: loaded_parse(p, monkeypatch), path)
    assert got == want


BODIES = {
    "plain": "a,b\n0,1\n1,0\n",
    "quoted_cells": 'a,b\n"0",1\n1,"0"\n',
    "quoted_label_with_comma_and_newline": 'a,"b,\nc"\n0,1\n1,0\n',
    "underscore": "a,b\n0,1_0\n1_0,0\n",
    "fullwidth_digit": "a,b\n0,１\n１,0\n",
    "tabs": "a,b\n\t0,1\t\n1 ,\t0\n",
    "blank_lines": "\n\na,b\n\n0,1\n\n1,0\n\n",
    "whitespace_line": "a,b\n0,1\n   \n1,0\n",
    "whitespace_line_one_column": "a\n0\n \n",
    "tab_line": "a\n\t\n0\n",
    "crlf": "a,b\r\n0,1\r\n1,0\r\n",
    "cr": "a,b\r0,1\r1,0\r",
    "bom": "﻿a,b\n0,1\n1,0\n",
    "bom_in_cell": "a,b\n﻿0,1\n1,0\n",
    "trailing_comma": "a,b\n0,1,\n1,0,\n",
    "non_finite": "a,b\nnan,inf\n-inf,1e400\n",
    "non_finite_spellings": "a,b\nNaN,Infinity\n-INF,+nan\n",
    "header_only": "a,b\n",
    "header_then_blank_lines": "a,b\n\n\r\n",
    "empty_file": "",
    "ragged": "a,b\n0,1\n1\n",
    "too_few_rows": "a,b\n0,1\n",
    "too_many_rows": "a,b\n0,1\n1,0\n0,0\n",
    "one_point": "a\n0\n",
    "nul": "a,b\n0,1\x00\n1,0\n",
    "unicode_space": "a,b\n0,1 \n 1,0\n",
    "line_separators_in_cell": "a,b\n0,1\x0b1,0\n\x1c\n",
    "hex_and_fortran": "a,b\n0,0x1p0\n1d0,0\n",
    "comment_char": "a,b\n0,1#c\n1,0\n",
    "inner_space": "a,b\n0,1 2\n1,0\n",
    "signs_and_dots": "a,b\n.5,+5.\n-0,1e-5\n",
    # a cell above the csv field limit: csv raises, while loadtxt would read it
    "overlong_cell": "a,b\n0," + "1" * 200_000 + "\n1,0\n",
}


@pytest.mark.parametrize("body", BODIES.values(), ids=BODIES.keys())
def test_load_matches_csv_reference(tmp_path, monkeypatch, body):
    path = tmp_path / "m.csv"
    path.write_bytes(body.encode("utf-8"))
    assert_same_parse(path, monkeypatch)


@pytest.mark.parametrize("raw", [b"a,b\n0,1\n1,\xff\n", b"a,\xff\n0,1\n1,0\n",
                                 b"a,b\n" + b"0,1\n" * 5000 + b"1,\xff\n"])
def test_load_matches_csv_reference_on_invalid_utf8(tmp_path, monkeypatch, raw):
    path = tmp_path / "m.csv"
    path.write_bytes(raw)
    assert_same_parse(path, monkeypatch)


CELLS = ["0", "1", "2.5", "-0", "1e-300", "nan", "inf", "1e400", " 3 ", "\t4", '"5"',
         "1_0", "１", "", "x", "6 7", "\x00", "﻿8", " 9"]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_load_matches_csv_reference_on_random_files(tmp_path_factory, data):
    n = data.draw(st.integers(1, 3))
    end = data.draw(st.sampled_from(["\n", "\r\n", "\r"]))
    lines = [",".join(f"p{i}" for i in range(n))]
    for _ in range(data.draw(st.integers(0, 4))):
        width = data.draw(st.sampled_from([n, n, n, n - 1, n + 1]))
        lines.append(",".join(data.draw(st.sampled_from(CELLS)) for _ in range(width)))
        lines += data.draw(st.sampled_from([[], [], [""], [" "]]))
    path = tmp_path_factory.mktemp("random") / "m.csv"
    path.write_bytes((end.join(lines) + data.draw(st.sampled_from([end, ""]))).encode())
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_parse(path, monkeypatch)


def csv_writer_bytes(space):
    out = io.StringIO(newline="")
    writer = csv.writer(out)
    writer.writerow(space.labels)
    for row in space.dist:
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue().encode("utf-8")


def test_save_matches_csv_writer_on_edge_values(tmp_path):
    values = [-0.0, 0.0, 0.1 + 0.2, 0.3, 1e-300, 1e300, np.nan, -np.nan, np.inf, -np.inf]
    dist = np.array([[values[(i + j) % len(values)] for j in range(10)] for i in range(10)])
    space = FiniteMetricSpace(tuple(f"p{i}" for i in range(10)), dist)
    cpio.save_metric(space, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == csv_writer_bytes(space)
    assert b"-0.0," in csv_writer_bytes(space)


def test_save_matches_csv_writer_across_row_blocks(tmp_path, rng):
    # 300 rows of 300 cells span two blocks; values repeat, with and without sign
    dist = rng.choice([-0.0, 0.0, 1.0, 2.5, 1 / 3], size=(300, 300)) * rng.choice([1, 1e-300], 300)
    dist[0, :5] = rng.uniform(0, 1, 5)
    space = FiniteMetricSpace(tuple(f"p{i}" for i in range(300)), dist)
    cpio.save_metric(space, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == csv_writer_bytes(space)


def test_save_empty_space_matches_csv_writer(tmp_path):
    space = FiniteMetricSpace((), np.zeros((0, 0)))
    cpio.save_metric(space, tmp_path / "m.csv")
    assert (tmp_path / "m.csv").read_bytes() == csv_writer_bytes(space)
