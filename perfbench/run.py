"""Outside-in benchmark of the coarsepd command line.

From the root of a checkout:

    python3 perfbench/run.py --workload union --seed 1 --seconds 15 --trace 0

Workloads: union, dist_stream, profile_csv, cover_d1 (see workloads.py).
Each run builds its inputs from --seed, measures set-up time in fresh
interpreters, then runs the workload in a worker process of its own that
calls ``coarsepd.cli.main`` in process, one operation at a time, for
--seconds.  Every output is checked against perfbench/reference.py.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same seed once
more untraced and twice traced (one pass each) and prints the per-layer
metrics; the two traced runs must give identical counts.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
Reports and span files are kept under .perfbench_work/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from workloads import FAIL, KNOWN, OK, WORKLOADS, parse_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
MIN_PASSES = 2
DEADLINE_S = 170.0

DISTANCE_LAYERS = ("metrics.bottleneck", "metrics.wasserstein",
                   "metrics.bottleneck_bruteforce", "metrics.wasserstein_bruteforce")
# (layer, fields) reported by the traced run; "calls" and "self_s" come from
# the spans, any other field is a work counter of tracing.WORK.
LAYER_FIELDS = (
    ("assignment.hopcroft_karp", ("calls", "self_s")),
    ("assignment.lex_min_perfect_matching", ("calls", "self_s")),
    ("metrics.bottleneck", ("calls", "self_s")),
    ("metrics.wasserstein", ("calls", "self_s")),
    ("metrics.linear_sum_assignment", ("calls", "self_s")),
    ("metrics.cost_matrix", ("calls", "self_s", "bytes")),
    ("metrics.bottleneck_1pt", ("calls", "self_s")),
    ("embeddings.validate_metric", ("calls", "self_s", "triangle_checks")),
    ("embeddings.embed_coarse_union", ("self_s",)),
    ("embeddings.embed_finite_metric", ("self_s",)),
    ("embeddings.zkm_space", ("self_s",)),
    ("io.load_metric", ("self_s", "bytes")),
    ("io.load_diagram", ("calls", "self_s", "bytes")),
    ("io.save_diagram", ("calls", "self_s", "bytes")),
    ("io.save_metric", ("calls", "self_s", "bytes")),
    ("diagram.canonicalize", ("calls", "self_s")),
    ("diagram.augment", ("calls", "self_s")),
    ("cli.main", ("self_s",)),
    ("profile.profile_map", ("self_s",)),
    ("cover.verify_cover", ("self_s",)),
    ("cover.brick_classify", ("calls", "self_s")),
)
UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "triangle_checks": "count"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env(nproc: int) -> dict[str, str]:
    """Environment of every child: the checkout's sources, thread pools capped at nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


def machine_record(nproc: int, env: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or None
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_caps": {v: int(env[v]) for v in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def measure_setup(env: dict[str, str]) -> list[float]:
    """Seconds from starting a fresh interpreter until ``import coarsepd.cli`` returns."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import coarsepd.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        times.append(perf_counter() - start)
    return times


def run_worker(plan: dict, work: Path, tag: str, env: dict[str, str], deadline: float) -> dict:
    plan_path, result_path = work / f"plan-{tag}.json", work / f"result-{tag}.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    subprocess.run([sys.executable, str(HERE / "worker.py"), str(plan_path), str(result_path)],
                   env=env, cwd=ROOT, check=True, timeout=max(1.0, deadline - perf_counter()))
    return json.loads(result_path.read_text(encoding="utf-8"))


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples there is none, and the maximum (100) is used.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def timing_stats(passes: list[dict]) -> dict:
    """Wall time of the operation set and latency percentiles over its operations.

    Every pass repeats the same operations; an operation's latency is its
    mean over the passes, and the set's wall time is the sum of those means.
    A shared host's speed drifts by up to 2x over seconds to minutes, so
    every run holds slow periods in varying share.  Over the same runs the
    median spread more between runs than the mean on nearly every workload;
    the minimum spread less in calm periods but up to 0.34 of the median in
    slow ones, where the mean stayed within 0.22.
    """
    samples = zip(*[[op[2] for op in p["ops"]] for p in passes])
    latencies = [statistics.fmean(s) for s in samples]
    value, percentile = tail(latencies)
    return {"wall": sum(latencies), "p50": statistics.median(latencies), "tail": value,
            "tail_percentile": percentile, "n": len(latencies)}


class Judge:
    """Verdicts on every operation, once per distinct (operation, output)."""

    def __init__(self):
        self.memo: dict[tuple[int, str], str] = {}
        self.counts = {OK: 0, FAIL: 0, KNOWN: 0}

    def judge(self, workload, result: dict) -> None:
        for p in result["passes"]:
            for index, rc, _, digest in p["ops"]:
                key = (index, digest)
                if key not in self.memo:
                    stdout, stderr = result["outputs"][digest]
                    try:
                        self.memo[key] = workload.verdict(index, rc, stdout, stderr)
                    except (KeyError, TypeError, ValueError, IndexError, SyntaxError, OSError):
                        self.memo[key] = FAIL
                self.counts[self.memo[key]] += 1


def layer_metrics(trace: dict, printed_matchings: int, overhead_s: float,
                  error_rate: float) -> dict[str, tuple[float, str]]:
    calls, self_s, work = trace["calls"], trace["self_s"], trace["work"]
    out: dict[str, tuple[float, str]] = {}
    for layer, fields in LAYER_FIELDS:
        for field in fields:
            if field == "calls":
                value = calls.get(layer, 0)
            elif field == "self_s":
                value = self_s.get(layer, 0.0)
            else:
                value = work.get(f"{layer}.{field}", 0)
            out[f"{layer}.{field}"] = (value, UNITS[field])
    hk = "assignment.hopcroft_karp"
    by_caller = trace["by_caller"]
    out[f"{hk}.threshold_calls"] = (by_caller.get(f"{hk}<metrics.bottleneck", 0), "count")
    out[f"{hk}.recovery_calls"] = (
        by_caller.get(f"{hk}<assignment.lex_min_perfect_matching", 0), "count")
    bottlenecks = calls.get("metrics.bottleneck", 0)
    out["assignment.hk_per_distance"] = (
        calls.get(hk, 0) / bottlenecks if bottlenecks else 0.0, "ratio")
    distances = sum(calls.get(name, 0) for name in DISTANCE_LAYERS)
    out["metrics.matching_used_ratio"] = (
        printed_matchings / distances if distances else 0.0, "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    out["error_rate"] = (error_rate, "ratio")
    return out


def steady_counts(first: dict, second: dict) -> list[str]:
    """Names of counts that differ between two traced runs of one seed."""
    differ = []
    for kind in ("calls", "work", "by_caller"):
        for name in sorted(set(first[kind]) | set(second[kind])):
            if first[kind].get(name) != second[kind].get(name):
                differ.append(f"{kind}:{name}")
    return differ


def printed_matchings(result: dict) -> int:
    """Operations of the first pass whose stdout carries a matching."""
    count = 0
    for _, rc, _, digest in result["passes"][0]["ops"]:
        out = parse_json(result["outputs"][digest][0])
        count += rc == 0 and isinstance(out, dict) and "matching" in out
    return count


def measure(args, workload, env: dict[str, str], keep: Path, work: Path) -> dict:
    """Set-up times, the untraced run and, with --trace 1, two traced passes."""
    deadline = perf_counter() + DEADLINE_S
    base = {"warmup": workload.warmup(), "ops": workload.ops(), "seconds": args.seconds,
            "min_passes": MIN_PASSES, "traced": False}
    setup = [] if args.trace else measure_setup(env)
    untraced = run_worker(base, work, "untraced", env, deadline)
    traced = []
    for k in range(2 if args.trace else 0):
        spans = keep / f"spans-{args.workload}-s{args.seed}-run{k}.tsv"
        plan = dict(base, traced=True, spans_file=str(spans))
        traced.append(run_worker(plan, work, f"traced{k}", env, deadline))
    return {"setup": setup, "untraced": untraced, "traced": traced}


def main(argv=None) -> int:
    args = parse_args(argv)
    begin = perf_counter()
    # A terminated run raises SystemExit, so subprocess.run kills and waits
    # for its child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "coarsepd" / "cli.py").is_file():
        print(f"error: no coarsepd sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    keep = ROOT / ".perfbench_work"
    work = keep / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    judge = Judge()
    try:
        workload = WORKLOADS[args.workload](work / "inputs", args.seed)
        runs = measure(args, workload, env, keep, work)
        for result in [runs["untraced"]] + runs["traced"]:
            judge.judge(workload, result)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    counts = judge.counts
    attempted = sum(counts.values())
    error_rate = (counts[FAIL] + counts[KNOWN]) / attempted
    untraced, traced, setup = runs["untraced"], runs["traced"], runs["setup"]
    timing = timing_stats(untraced["passes"])
    unsteady: list[str] = []
    if traced:
        overhead = traced[0]["passes"][0]["wall_s"] - timing["wall"]
        metrics = layer_metrics(traced[0]["trace"], printed_matchings(traced[0]),
                                overhead, error_rate)
        unsteady = steady_counts(traced[0]["trace"], traced[1]["trace"])
    else:
        metrics = {
            "wall_s": (timing["wall"], "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (untraced["peak_rss_kb"] / 1024.0, "MB"),
            "latency_p50_ms": (timing["p50"] * 1e3, "ms"),
            "latency_tail_ms": (timing["tail"] * 1e3, "ms"),
        }
    machine = machine_record(nproc, env)
    machine["openblas_threads"] = untraced["openblas_threads"]

    passes = untraced["passes"]
    notes = {
        "wall_s": f"sum of per-operation means over {len(passes)} passes; "
                  f"{workload.describe()}",
        "setup_s": f"median of {len(setup)} fresh interpreters importing coarsepd.cli",
        "peak_rss_mb": "peak RSS of the workload process",
        "latency_p50_ms": f"median over {timing['n']} operations",
        "latency_tail_ms": f"p{timing['tail_percentile']:.2f} of {timing['n']} operations",
    }
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} elapsed={perf_counter() - begin:.1f}s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {notes.get(name, '')}")
    print(f"  error_rate {error_rate:.6g} ratio: {counts[FAIL] + counts[KNOWN]} of "
          f"{attempted} operations failed ({counts[KNOWN]} known edge-exponent defects, "
          f"{counts[FAIL]} other)")
    if unsteady:
        print(f"  counts differ between the two traced runs: {unsteady[:10]}")
    print(f"  machine {json.dumps(machine)}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine, "counts": counts,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "timing": timing, "pass_wall_s": [p["wall_s"] for p in passes],
              "pass_op_s": [[op[2] for op in p["ops"]] for p in passes],
              "setup_runs_s": setup,
              "unsteady_counts": unsteady}
    keep.mkdir(exist_ok=True)
    (keep / f"report-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": counts[FAIL] == 0 and not unsteady, "attempted": attempted,
                      "failed": counts[FAIL], "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
