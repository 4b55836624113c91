"""Run one workload's operations in process through ``coarsepd.cli.main``.

    python3 perfbench/worker.py PLAN.json RESULT.json

PLAN holds the warm-up operations, the fixed operation set (one pass), the
time budget and whether to trace.  Untraced, the worker repeats whole passes,
each on the next of its CPUs in turn, until the budget is spent; traced, it
runs exactly one pass, so counts repeat.  RESULT gets per-operation exit
codes, latencies and output digests, every distinct output once, the peak
RSS and the trace summary.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import traceback
from time import perf_counter


def call(cli, argv: list[str]) -> tuple[int, float, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # an uncaught error is a crash of the CLI: exit 1
            traceback.print_exc()
            rc = 1
        latency = perf_counter() - start
    return rc, latency, out.getvalue(), err.getvalue()


def openblas_threads() -> int | None:
    """Thread count the numpy-bundled OpenBLAS reports, if it is there."""
    import numpy

    for path in glob.glob(os.path.join(os.path.dirname(numpy.__file__) + ".libs", "*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(path), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    from coarsepd import cli

    for argv in plan["warmup"]:
        call(cli, argv)
    tracer = None
    if plan["traced"]:
        import tracing

        tracer = tracing.Tracer()
        layers = tracer.install()
    passes: list[dict] = []
    outputs: dict[str, list[str]] = {}
    begin = perf_counter()
    # The speed of each CPU of a shared host drifts on its own (their
    # slowdowns are only weakly correlated), so untraced passes take turns on
    # every CPU the worker may use, and a run samples all of them.
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        if tracer is None:
            os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        ops = []
        for index, argv in enumerate(plan["ops"]):
            if tracer is not None:
                tracer.op = len(passes) * len(plan["ops"]) + index
            rc, latency, stdout, stderr = call(cli, argv)
            digest = hashlib.sha1(f"{stdout}\0{stderr}".encode()).hexdigest()
            outputs.setdefault(digest, [stdout, stderr])
            ops.append([index, rc, latency, digest])
        passes.append({"ops": ops, "wall_s": sum(op[2] for op in ops)})
        if tracer is not None:
            break
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= plan["min_passes"] and \
                perf_counter() - begin + typical / 2 >= plan["seconds"]:
            break
    result = {
        "passes": passes,
        "outputs": outputs,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "openblas_threads": openblas_threads(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["layers"] = layers
        tracer.write(plan["spans_file"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
