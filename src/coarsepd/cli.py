"""Command-line surface tying the modules together.

Machine-readable JSON goes to standard output; human diagnostics go to
standard error.  Exit codes: 0 success, 1 parse/size errors, 2 oracle
oversize, 3 invalid metric, 4 cover violations, 5 generated space too
large, 6 verification deviation beyond tolerance.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import io
from .cover import (
    brick_classify_array,
    diagram_point_sampler,
    interval_classify_array,
    line_sampler,
    verify_cover,
)
from .diagram import Diagram
from .embeddings import check_isometry, dranishnikov_S, embed_coarse_union, \
    embed_cube_point, embed_finite_metric, zkm_space
from .errors import (
    CoarsePDError,
    MetricValidationError,
    OversizeForOracle,
    SizeMismatch,
    TooLarge,
)
from .metrics import (
    bottleneck,
    bottleneck_1pt_array,
    bottleneck_bruteforce,
    describe_matching,
    distance_matrix,
    wasserstein,
    wasserstein_bruteforce,
)
from .profile import profile_map

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_ORACLE = 2
EXIT_METRIC = 3
EXIT_COVER = 4
EXIT_TOO_LARGE = 5
EXIT_DEVIATION = 6

ISOMETRY_TOL = 1e-9


def _sig12(value: float) -> str:
    """Render with 12 significant digits, keeping trailing zeros."""
    return f"{value:#.12g}"


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _save_diagrams(diagrams, out_dir: Path, stem: str) -> list[str]:
    files = []
    for k, dgm in enumerate(diagrams):
        path = out_dir / f"{stem}_{k:03d}.json"
        io.save_diagram(dgm, path)
        files.append(str(path))
    return files


def _matching_json(z: Diagram, w: Diagram, matching) -> list[dict]:
    out = []
    for li, rj in describe_matching(z, w, matching):
        out.append({
            "left": "Delta" if li is None else li,
            "right": "Delta" if rj is None else rj,
        })
    return out


def _cmd_dist(args) -> int:
    z = io.load_diagram(args.left)
    w = io.load_diagram(args.right)
    if args.wasserstein is not None:
        solver = wasserstein_bruteforce if args.oracle else wasserstein
        value, matching = solver(z, w, args.wasserstein)
        metric = {"metric": "wasserstein", "p": args.wasserstein}
    else:
        solver = bottleneck_bruteforce if args.oracle else bottleneck
        value, matching = solver(z, w)
        metric = {"metric": "bottleneck"}
    _emit({
        "distance": _sig12(value),
        "distance_value": value,
        **metric,
        "oracle": bool(args.oracle),
        "matching": _matching_json(z, w, matching),
    })
    return EXIT_OK


def _cmd_embed(args) -> int:
    space = io.load_metric(args.metric_file)
    diagrams = embed_finite_metric(space)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = _save_diagrams(diagrams, out_dir, "diagram")
    deviation = check_isometry(space, diagrams)
    _emit({
        "points": space.n_points,
        "files": files,
        "max_deviation": deviation,
        "tolerance": ISOMETRY_TOL,
        "isometric": deviation <= ISOMETRY_TOL,
    })
    return EXIT_OK if deviation <= ISOMETRY_TOL else EXIT_DEVIATION


def _cmd_cover(args) -> int:
    if args.space == "line":
        sampler = line_sampler(window=args.window * args.scale)
        classify = interval_classify_array
        metric = lambda a, b: abs(a - b)
        bound = 2.0 * args.scale
    else:
        sampler = diagram_point_sampler(max_persistence=args.window * args.scale)
        classify = brick_classify_array
        metric = bottleneck_1pt_array
        bound = 6.0 * args.scale
    report = verify_cover(sampler, classify, metric, args.scale,
                          args.trials, args.seed, bound)
    _emit({
        "space": args.space,
        "scale": report.scale,
        "samples": report.samples,
        "min_same_family_cross_set_distance":
            None if math.isinf(report.min_same_family_cross_set_distance)
            else report.min_same_family_cross_set_distance,
        "max_set_diameter_observed": report.max_set_diameter_observed,
        "uniform_bound_claimed": report.uniform_bound_claimed,
        "violations": [repr(v) for v in report.violations],
        "ok": report.ok,
    })
    return EXIT_OK if report.ok else EXIT_COVER


def _cmd_gen(args) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.zkm is not None:
        k, m = args.zkm
        space = zkm_space(k, m)
        path = out_dir / f"zkm_{k}_{m}.csv"
        io.save_metric(space, path)
        _emit({
            "kind": "zkm",
            "k": k,
            "m": m,
            "points": space.n_points,
            "diameter": space.diameter,
            "file": str(path),
        })
        return EXIT_OK
    if args.cube is not None:
        n, radius, samples = int(args.cube[0]), float(args.cube[1]), int(args.cube[2])
        if not math.isfinite(radius):
            raise ValueError(f"R must be finite, got {radius}")
        rng = np.random.default_rng(args.seed)
        points = rng.uniform(0.0, radius, size=(samples, n))
        diagrams = [embed_cube_point(x, radius) for x in points]
        files = _save_diagrams(diagrams, out_dir, "cube")
        sup = np.abs(points[:, None, :] - points[None, :, :]).max(axis=2, initial=0.0)
        deviation = float(np.abs(distance_matrix(diagrams) - sup).max(initial=0.0))
        _emit({
            "kind": "cube",
            "n": n,
            "R": radius,
            "samples": samples,
            "files": files,
            "max_bottleneck_deviation": deviation,
            "isometric": deviation <= ISOMETRY_TOL,
        })
        return EXIT_OK if deviation <= ISOMETRY_TOL else EXIT_DEVIATION
    max_n, max_m = args.dranishnikov
    blocked = dranishnikov_S(max_n, max_m)
    embedding = embed_coarse_union(blocked)
    metric_path = out_dir / f"dranishnikov_{max_n}_{max_m}.csv"
    io.save_metric(blocked.space, metric_path)
    files = _save_diagrams(embedding.diagrams, out_dir, "dranishnikov")
    meta = blocked.block_meta
    cross = []
    bounds_ok = True
    for sep in embedding.cross:
        n_i, m_i = meta[sep.block_i]
        n_j, m_j = meta[sep.block_j]
        required_bound = float(m_i + n_i + m_j + n_j)
        strict = sep.realized_min > required_bound
        bounds_ok = bounds_ok and strict
        cross.append({
            "blocks": [sep.block_i, sep.block_j],
            "required": sep.required,
            "realized_min": sep.realized_min,
            "required_bound": required_bound,
            "strictly_above_bound": strict,
        })
    ok = (embedding.intra_max_deviation <= ISOMETRY_TOL
          and embedding.cross_ok and bounds_ok)
    _emit({
        "kind": "dranishnikov",
        "blocks": [{"n": n, "m": m} for n, m in meta],
        "points": blocked.space.n_points,
        "metric_file": str(metric_path),
        "diagram_files": files,
        "intra_max_deviation": embedding.intra_max_deviation,
        "cross": cross,
        "ok": ok,
    })
    return EXIT_OK if ok else EXIT_DEVIATION


def _cmd_profile(args) -> int:
    source = io.load_metric(args.source)
    if args.diagrams:
        diagrams = [io.load_diagram(p) for p in args.diagrams]
        if len(diagrams) != source.n_points:
            raise SizeMismatch(f"{len(diagrams)} diagrams for {source.n_points} points")
        metric = "bottleneck" if args.wasserstein is None else "wasserstein"
        image = distance_matrix(diagrams, metric, args.wasserstein)
    elif args.image is not None:
        image = io.load_metric(args.image).dist
        if image.shape != source.dist.shape:
            raise SizeMismatch("source and image matrices differ in size")
    else:
        raise ValueError("provide an image metric file or --diagrams")
    bin_width = None
    if args.bins:
        tmax = float(np.triu(source.dist, 1).max())
        bin_width = tmax / args.bins if tmax > 0 else None
    prof = profile_map(source, image, bin_width=bin_width)
    _emit({
        "bin_width": prof.bin_width,
        "bin_edges": prof.bin_edges.tolist(),
        "rho1": [None if np.isnan(v) else float(v) for v in prof.rho1],
        "rho2": [None if np.isnan(v) else float(v) for v in prof.rho2],
        "pairs": int(prof.source_distances.size),
        "lower_envelope_growing": prof.lower_envelope_growing,
    })
    return EXIT_OK


def _positive_float(raw: str) -> float:
    value = float(raw)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {raw}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw}")
    return value


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {raw}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coarsepd",
        description="Persistence-diagram metrics and coarse-geometry constructions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="distance between two diagram files")
    dist.add_argument("left")
    dist.add_argument("right")
    group = dist.add_mutually_exclusive_group()
    group.add_argument("--bottleneck", action="store_true", default=False)
    group.add_argument("--wasserstein", type=float, metavar="P")
    dist.add_argument("--oracle", action="store_true",
                      help="use the brute-force permutation oracle (width <= 10)")
    dist.set_defaults(func=_cmd_dist)

    embed = sub.add_parser("embed", help="embed a metric CSV into diagram space")
    embed.add_argument("metric_file")
    embed.add_argument("--out", required=True, help="output directory for diagram files")
    embed.set_defaults(func=_cmd_embed)

    cover = sub.add_parser("cover", help="verify an asymptotic-dimension cover")
    cover.add_argument("--space", choices=["line", "d1"], required=True)
    cover.add_argument("--scale", type=_positive_float, required=True)
    cover.add_argument("--trials", type=_positive_int, default=10000)
    cover.add_argument("--seed", type=int, default=0)
    cover.add_argument("--window", type=_positive_float, default=1000.0,
                       help="sampling window in units of the scale")
    cover.set_defaults(func=_cmd_cover)

    gen = sub.add_parser("gen", help="generate spaces/diagrams with self-checks")
    what = gen.add_mutually_exclusive_group(required=True)
    what.add_argument("--zkm", nargs=2, type=_positive_int, metavar=("K", "M"))
    what.add_argument("--cube", nargs=3, metavar=("N", "R", "SAMPLES"))
    what.add_argument("--dranishnikov", nargs=2, type=_positive_int,
                      metavar=("MAXN", "MAXM"))
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default=".", help="output directory")
    gen.set_defaults(func=_cmd_gen)

    profile = sub.add_parser("profile", help="rho-envelope profile of a map")
    profile.add_argument("source", help="source metric CSV")
    profile.add_argument("image", nargs="?", default=None,
                         help="image pairwise-distance CSV")
    profile.add_argument("--diagrams", nargs="+", default=None,
                         help="diagram JSON files, one per source point")
    pg = profile.add_mutually_exclusive_group()
    pg.add_argument("--bottleneck", action="store_true", default=False)
    pg.add_argument("--wasserstein", type=float, metavar="P")
    profile.add_argument("--bins", type=_positive_int, default=None)
    profile.set_defaults(func=_cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OversizeForOracle as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except MetricValidationError as exc:
        print("error: metric axioms violated:", file=sys.stderr)
        for violation in exc.violations:
            print(f"  {violation}", file=sys.stderr)
        return EXIT_METRIC
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except (CoarsePDError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
