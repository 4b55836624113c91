"""File formats: JSON diagrams and CSV distance matrices.

Diagram files are JSON objects {"points": [[birth, death], ...]}; point
order is irrelevant, as a loaded Diagram keeps its points sorted.  Metric
files are CSV with a first row of labels followed by the distance matrix.
Floats are written with full round-trip precision.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .diagram import Diagram
from .embeddings import FiniteMetricSpace, validate_metric


def load_diagram(path) -> Diagram:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
    if not isinstance(data, dict) or "points" not in data:
        raise ValueError(f"{path}: expected a JSON object with a 'points' key")
    if not isinstance(data["points"], list):
        raise ValueError(f"{path}: 'points' must be a list of [birth, death] pairs")
    return Diagram([tuple(p) if isinstance(p, list) else p for p in data["points"]])


def save_diagram(diagram: Diagram, path) -> None:
    payload = {"points": [[b, d] for b, d in diagram.points]}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def load_metric(path) -> FiniteMetricSpace:
    """Read a labels+matrix CSV and validate the metric axioms."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [r for r in rows if r]
    if len(rows) < 2:
        raise ValueError(f"{path}: expected a label row plus matrix rows")
    labels = [c.strip() for c in rows[0]]
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
    return validate_metric(matrix, labels)


def save_metric(space: FiniteMetricSpace, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(space.labels)
        for row in space.dist:
            writer.writerow([repr(float(v)) for v in row])
