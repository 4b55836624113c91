"""The four workloads: seeded inputs, one fixed set of CLI operations each,
and the check of every output against perfbench.reference.

A workload writes its inputs under its own work directory.  ``ops`` is the
fixed set of operations (one pass); ``verdict`` judges one operation's exit
code and output as OK, FAIL, or KNOWN (a failure on an edge exponent, the
documented p = inf / large-p defects, counted in error_rate but not as a
failed operation).
"""

from __future__ import annotations

import ast
import csv
import functools
import itertools
import json
import math
from pathlib import Path

import numpy as np

import reference as ref

OK, FAIL, KNOWN = "ok", "fail", "known"


def write_metric_csv(path: Path, labels: list[str], dist: np.ndarray) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(labels)
        writer.writerows([repr(float(v)) for v in row] for row in dist)


def read_metric_csv(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = [r for r in csv.reader(fh) if r]
    return rows[0], np.array([[float(c) for c in r] for r in rows[1:]])


def read_diagram(path) -> np.ndarray:
    """Points of a diagram file in the program's canonical (sorted) order."""
    points = json.loads(Path(path).read_text(encoding="utf-8"))["points"]
    return np.array(sorted((float(b), float(d)) for b, d in points)).reshape(-1, 2)


def torus_grid(k: int, m: int) -> tuple[list[str], np.ndarray]:
    """(Z_k)^m under the max of cyclic coordinate distances."""
    coords = np.array(list(itertools.product(range(k), repeat=m))).reshape(-1, m)
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    dist = np.minimum(diff, k - diff).max(axis=2).astype(float)
    return ["-".join(map(str, c)) for c in coords], dist


def parse_json(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


class Workload:
    name = ""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        work.mkdir(parents=True, exist_ok=True)

    def warmup(self) -> list[list[str]]:
        """Small untimed operations that load every code path once."""
        return []

    def ops(self) -> list[list[str]]:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def verdict(self, op: int, rc: int, stdout: str, stderr: str) -> str:
        raise NotImplementedError


class Union(Workload):
    """gen --dranishnikov 4 2: 40 points in 8 torus-grid blocks, 780 d_B solves."""

    name = "union"
    max_n, max_m = 4, 2
    sample_pairs = 16

    def warmup(self):
        return [["gen", "--dranishnikov", "2", "1", "--out", str(self.work / "warmup")]]

    def ops(self):
        return [["gen", "--dranishnikov", str(self.max_n), str(self.max_m),
                 "--out", str(self.work / "out")]]

    def describe(self):
        return "pass = 1 gen --dranishnikov 4 2 call"

    def verdict(self, op, rc, stdout, stderr):
        out = parse_json(stdout)
        blocks = [{"n": n, "m": m} for n in range(1, self.max_n + 1)
                  for m in range(1, self.max_m + 1)]
        if rc != 0 or out is None or out.get("ok") is not True or out.get("blocks") != blocks:
            return FAIL
        npts = sum(n ** m for n in range(1, self.max_n + 1) for m in range(1, self.max_m + 1))
        if out["points"] != npts or len(out["diagram_files"]) != npts:
            return FAIL
        if len(out["cross"]) != len(blocks) * (len(blocks) - 1) // 2:
            return FAIL
        labels, dist = read_metric_csv(Path(out["metric_file"]))
        block_of = [int(lab.split(":")[0]) for lab in labels]
        bound = [b["n"] + b["m"] for b in blocks]
        rng = np.random.default_rng(self.seed)
        pairs = [(i, j) for i in range(npts) for j in range(i + 1, npts)]
        intra = [pq for pq in pairs if block_of[pq[0]] == block_of[pq[1]]]
        cross = [pq for pq in pairs if block_of[pq[0]] != block_of[pq[1]]]
        for group in (intra, cross):
            for idx in rng.choice(len(group), size=self.sample_pairs, replace=False):
                i, j = group[idx]
                d_b = ref.bottleneck(read_diagram(out["diagram_files"][i]),
                                     read_diagram(out["diagram_files"][j]))
                bi, bj = block_of[i], block_of[j]
                if bi == bj and not abs(d_b - dist[i, j]) <= ref.REL_TOL * max(1.0, dist[i, j]):
                    return FAIL
                if bi != bj and not d_b > bound[bi] + bound[bj]:
                    return FAIL
        return OK


class DistStream(Workload):
    """A closed loop of dist requests on seeded diagram pairs, one client.

    The cost of a d_B solve depends strongly on the layout of the points, and
    15 large requests take most of a pass, so fresh layouts per seed would
    move wall_s by more than the host noise.  The request shapes and point
    layouts therefore come from one fixed stream; --seed scales and shifts
    each pair (which keeps the order of all its costs), and orders the
    requests and the points in each file.
    """

    name = "dist_stream"
    requests = 150
    layout_seed = 1905_09337
    # (share, smallest, largest) per size bucket; each side drawn on its own.
    size_mix = ((0.6, 0, 6), (0.3, 7, 24), (0.1, 25, 64))
    # Metric by size rank, repeated every 10 requests: 5 d_B, 2 W_1, 2 W_2 and
    # 1 edge exponent, so every size range gets the same mix.
    metric_cycle = (None, 1.0, None, 2.0, None, "edge", None, 1.0, None, 2.0)
    edge_exponents = (50.0, 400.0, math.inf)

    def __init__(self, work, seed):
        super().__init__(work, seed)
        layout = np.random.default_rng(self.layout_seed)
        sizes = zip(self._sizes(layout, self.requests), self._sizes(layout, self.requests))
        pairs = sorted(sizes, key=lambda nm: (max(nm), min(nm)), reverse=True)
        edges = itertools.cycle(self.edge_exponents)
        ranked = itertools.islice(itertools.cycle(self.metric_cycle), self.requests)
        metrics = [next(edges) if p == "edge" else p for p in ranked]
        shapes = [[self._points(layout, size) for size in pair] for pair in pairs]
        rng = np.random.default_rng(seed)
        self.plan = []
        for r, k in enumerate(rng.permutation(self.requests)):
            scale, shift = rng.uniform(0.5, 2.0), rng.uniform(0.0, 100.0)
            files = []
            for side, base in zip("ab", shapes[k]):
                points = base * scale + shift
                path = work / f"r{r:04d}{side}.json"
                shuffled = points[rng.permutation(len(points))]
                path.write_text(json.dumps({"points": shuffled.tolist()}) + "\n",
                                encoding="utf-8")
                files.append((path, points[np.lexsort((points[:, 1], points[:, 0]))]))
            self.plan.append((files, metrics[k]))
        self._expected: dict[int, float] = {}

    def _sizes(self, rng, count: int) -> list[int]:
        """Stratified sizes: every bucket gets exactly its share of draws."""
        share, lo, hi = (np.array(col) for col in zip(*self.size_mix))
        ends = np.cumsum(share)
        u = (np.arange(count) + rng.random(count)) / count
        bucket = np.searchsorted(ends[:-1], u, side="right")
        frac = np.clip((u - (ends - share)[bucket]) / share[bucket], 0.0, 1.0 - 1e-12)
        sizes = lo[bucket] + np.floor(frac * (hi - lo + 1)[bucket]).astype(int)
        return [int(s) for s in rng.permutation(sizes)]

    @staticmethod
    def _points(rng, size: int) -> np.ndarray:
        birth = rng.uniform(0.0, 10.0, size)
        return np.column_stack([birth, birth + rng.uniform(0.05, 4.0, size)])

    def warmup(self):
        small = self.work / "warm.json"
        small.write_text('{"points": [[0.0, 4.0], [1.0, 3.0]]}\n', encoding="utf-8")
        return [["dist", str(small), str(small), "--bottleneck"],
                ["dist", str(small), str(small), "--wasserstein", "2"]]

    def ops(self):
        out = []
        for ((a, _), (b, _)), p in self.plan:
            metric = ["--bottleneck"] if p is None else ["--wasserstein", repr(p)]
            out.append(["dist", str(a), str(b)] + metric)
        return out

    def describe(self):
        return f"pass = {self.requests} dist requests"

    def verdict(self, op, rc, stdout, stderr):
        (_, left), (_, right) = self.plan[op][0]
        p = self.plan[op][1]
        good = self._check(op, left, right, p, rc, stdout)
        if good:
            return OK
        return KNOWN if p in self.edge_exponents else FAIL

    def _check(self, op, left, right, p, rc, stdout) -> bool:
        if op not in self._expected:
            self._expected[op] = ref.bottleneck(left, right)
        d_b = self._expected[op]
        if p == math.inf and rc == 1 and not stdout:
            return True
        out = parse_json(stdout)
        if rc != 0 or out is None or "matching" not in out:
            return False
        value = out["distance_value"]
        if p is None or p == math.inf:
            expected, agg = d_b, None
        else:
            expected, agg = ref.wasserstein(left, right, p, d_b), p
        attained = ref.matching_cost(left, right, out["matching"], agg)
        return (attained is not None and ref.close(value, expected)
                and ref.close(attained, value))


class ProfileCsv(Workload):
    """profile on a permuted (Z_16)^2 and its snowflake, plus a planted violation.

    A call on (Z_24)^2 takes about 4 s, so a run held only two or three
    passes and its figure followed the host's load.  On (Z_16)^2 (256
    points) a pass takes under a second, and a run averages tens of
    passes; validation is still O(n^3) and dominates each call.
    """

    name = "profile_csv"
    k, m = 16, 2

    def __init__(self, work, seed):
        super().__init__(work, seed)
        rng = np.random.default_rng(seed)
        labels, dist = torus_grid(self.k, self.m)
        perm = rng.permutation(len(labels))
        self.labels = [labels[i] for i in perm]
        self.source = dist[np.ix_(perm, perm)]
        self.image = np.sqrt(self.source)
        i, j = (int(v) for v in rng.choice(np.argwhere(self.source >= 2.0)))
        self.bad = self.source.copy()
        self.bad[i, j] = self.bad[j, i] = self.source[i, j] + 0.5
        for stem, mat in (("source", self.source), ("image", self.image), ("bad", self.bad)):
            write_metric_csv(work / f"{stem}.csv", self.labels, mat)
        small_labels, small = torus_grid(2, 2)
        write_metric_csv(work / "warm.csv", small_labels, small)

    def warmup(self):
        warm = str(self.work / "warm.csv")
        return [["profile", warm, warm]]

    def ops(self):
        return [["profile", str(self.work / "source.csv"), str(self.work / "image.csv")],
                ["profile", str(self.work / "bad.csv"), str(self.work / "image.csv")]]

    def describe(self):
        return f"pass = profile of {len(self.labels)} points + 1 planted-violation call"

    def verdict(self, op, rc, stdout, stderr):
        if op == 0:
            out = parse_json(stdout)
            expected = ref.profile_envelopes(self.source, self.image)
            if rc != 0 or out is None:
                return FAIL
            same = (out["rho1"] == expected["rho1"] and out["rho2"] == expected["rho2"]
                    and out["pairs"] == expected["pairs"]
                    and out["lower_envelope_growing"] == expected["lower_envelope_growing"]
                    and ref.close(out["bin_width"], expected["bin_width"])
                    and len(out["bin_edges"]) == len(expected["bin_edges"])
                    and all(ref.close(a, b) for a, b in zip(out["bin_edges"], expected["bin_edges"])))
            return OK if same else FAIL
        if rc != 3 or stdout:
            return FAIL
        lines = stderr.splitlines()
        if not lines or lines[0] != "error: metric axioms violated:":
            return FAIL
        listed = [ast.literal_eval(line.strip()) for line in lines[1:]]
        if any(v[0] != "triangle" for v in listed):
            return FAIL
        return OK if sorted(tuple(v[1:]) for v in listed) == self.witnesses else FAIL

    @functools.cached_property
    def witnesses(self) -> list[tuple[int, int, int]]:
        return ref.triangle_witnesses(self.bad)


class CoverD1(Workload):
    """cover --space d1: the pure-Python brick-cover sampling loop.

    A pass is 100 short calls with seeds drawn from --seed, so latency
    percentiles are over operations, as for dist_stream.
    """

    name = "cover_d1"
    calls = 100
    trials = 1000
    scale = 1.0

    def warmup(self):
        return [["cover", "--space", "d1", "--scale", "1", "--trials", "200", "--seed", "0"]]

    def ops(self):
        seeds = np.random.default_rng(self.seed).integers(0, 2**31, self.calls)
        return [["cover", "--space", "d1", "--scale", "1", "--trials", str(self.trials),
                 "--seed", str(s)] for s in seeds]

    def describe(self):
        return f"pass = {self.calls} cover calls of {self.trials} trials"

    def verdict(self, op, rc, stdout, stderr):
        out = parse_json(stdout)
        if rc != 0 or out is None:
            return FAIL
        r = self.scale
        # Brick cover at scale R: same-family sets are 2R apart, sets have diameter <= 6R.
        good = (out["space"] == "d1" and out["scale"] == r and out["samples"] == self.trials
                and out["ok"] is True and out["violations"] == []
                and out["uniform_bound_claimed"] == 6.0 * r
                and 0.0 <= out["max_set_diameter_observed"] <= 6.0 * r
                and out["min_same_family_cross_set_distance"] is not None
                and out["min_same_family_cross_set_distance"] >= 2.0 * r)
        return OK if good else FAIL


WORKLOADS = {w.name: w for w in (Union, DistStream, ProfileCsv, CoverD1)}
