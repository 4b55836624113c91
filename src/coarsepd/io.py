"""File formats: JSON diagrams and CSV distance matrices.

Diagram files are JSON objects {"points": [[birth, death], ...]}; point
order is irrelevant, as a loaded Diagram keeps its points sorted.  Metric
files are CSV with a first row of labels followed by the distance matrix.
Floats are written with full round-trip precision.  A file that json, csv
or the UTF-8 decoder rejects raises a ValueError that begins with its path,
as do the format checks here; a diagram's InvalidPoint names it too.

load_metric parses the matrix with numpy's C parser (np.loadtxt).  A body
it rejects, or whose shape does not match the labels, is read again with
csv and float(), the parse that alone decides acceptance and words every
error.  loadtxt splits lines and cells as csv does for unquoted cells, and
accepts a subset of what float() does (no quotes, underscores or
non-ASCII digits), with the same value.  A warning from loadtxt, or a
line longer than the csv field limit, also takes the csv path, which
rejects an overlong cell.  So both parses accept the same files and give
the same matrix bit for bit.
"""

from __future__ import annotations

import csv
import json
import warnings
from pathlib import Path

import numpy as np

from .diagram import Diagram
from .embeddings import FiniteMetricSpace, _rows_per_block, validate_metric
from .errors import InvalidPoint


def load_diagram(path) -> Diagram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'points' key")
    if not isinstance(data["points"], list):
        raise ValueError(f"{path}: 'points' must be a list of [birth, death] pairs")
    try:
        return Diagram([tuple(p) if isinstance(p, list) else p for p in data["points"]])
    except InvalidPoint as exc:
        raise InvalidPoint(f"{path}: {exc}") from None


def save_diagram(diagram: Diagram, path) -> None:
    payload = {"points": [[b, d] for b, d in diagram.points]}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_metric(path) -> FiniteMetricSpace:
    """Read a labels+matrix CSV and validate the metric axioms."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            labels = next(filter(None, csv.reader(fh)), None)
            lines = fh.readlines()
        matrix = None
        # A csv field lies within one line, so no line above the limit means no field is.
        if labels is not None and max(map(len, lines), default=0) <= csv.field_size_limit():
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # as on a body with no rows: take the csv path
                    matrix = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)
            except (ValueError, Warning):
                pass
        if matrix is None or matrix.shape != (len(labels),) * 2:
            labels, matrix = _read_rows(path)
    except (csv.Error, UnicodeDecodeError) as exc:  # _read_rows's errors name the path
        raise ValueError(f"{path}: {exc}") from None
    return validate_metric(matrix, [c.strip() for c in labels])


def _read_rows(path) -> tuple[list[str], list[list[float]]]:
    """Labels and matrix by csv and float(): the parse that words every rejection."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a label row plus matrix rows")
    labels = rows[0]
    try:
        matrix = [[float(c) for c in row] for row in rows[1:]]
    except ValueError as exc:
        # Only a failed parse goes cell by cell, to name the cell it failed on.
        for i, row in enumerate(rows[1:]):
            for j, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise ValueError(f"{path}: matrix row {i}, column {j}: {exc}") from None
    if len(matrix) != len(labels) or any(len(r) != len(labels) for r in matrix):
        raise ValueError(f"{path}: matrix shape does not match label count")
    return labels, matrix


def save_metric(space: FiniteMetricSpace, path) -> None:
    """Write labels and matrix as CSV, each value as repr(float(v)).

    repr is taken once per distinct bit pattern of a block of rows (so -0.0
    keeps its sign), and the rows are joined as csv.writer would write them.
    """
    step = _rows_per_block(space.n_points)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(space.labels)
        for lo in range(0, space.n_points, step):
            block = space.dist[lo:lo + step]
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            cells = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
            rows = cells[inverse.reshape(block.shape)].tolist()
            fh.writelines(",".join(row) + "\r\n" for row in rows)
