"""Command-line entry points: mapgen, simulate, localize, evaluate."""

from __future__ import annotations

import argparse
import os
import sys

from .evaluate import load_config, run_experiment, simulate, write_report_csvs
from .localize import Estimate, aggregate_scan, load_scan, localize, save_scan
from .mapgen import DEFAULT_CELL_SIZE, build_map_store, load_map_store, save_map_store
from .model import load_deployment, signature_to_text


def _cmd_mapgen(args) -> int:
    store = build_map_store(load_deployment(args.deploy), args.k, args.grid)
    save_map_store(store, args.out)
    total_regions = sum(m.n_regions for m in store.maps.values())
    print(
        f"wrote {args.out}: {store.n_maps} maps, {total_regions} regions, "
        f"built in {store.build_ms:.1f} ms"
    )
    return 0


def _cmd_simulate(args) -> int:
    config = load_config(args.config)
    pairs = simulate(config, load_deployment(config.deployment), args.seed)  # refusals come before any file
    os.makedirs(args.out, exist_ok=True)
    truth_path = os.path.join(args.out, "truth.csv")
    with open(truth_path, "w") as fh:
        fh.write("point,x,y,scan_file\n")
        for idx, ((x, y), window) in enumerate(pairs):
            scan_name = f"scan_{idx:03d}.txt"
            save_scan(window, os.path.join(args.out, scan_name))
            fh.write(f"{idx},{x:.6f},{y:.6f},{scan_name}\n")
    print(f"wrote {idx + 1} scans and {truth_path} to {args.out}")
    return 0


def _cmd_localize(args) -> int:
    stores = load_map_store(args.store)
    outcome = localize(aggregate_scan(load_scan(args.scan)), stores, args.k)
    if isinstance(outcome, Estimate):
        (x, y), sig, subset = outcome.position, outcome.matched_signature, outcome.subset
        print(f"estimate {x:.6f} {y:.6f} {signature_to_text(sig)} {signature_to_text(subset)}")
    else:
        print("missed")
    return 0


def _cmd_evaluate(args) -> int:
    config = load_config(args.config)
    report = run_experiment(config, seed=args.seed)
    out_dir = args.out if args.out is not None else config.out_dir
    paths = write_report_csvs(report, out_dir)
    for k in sorted(report.per_k):
        rep = report.per_k[k]
        print(
            f"k={k}: {rep.n_points} points, missed_rate={rep.missed_rate:.3f}, "
            f"median_error={rep.median_error:.3f} m, maps={rep.n_maps}, "
            f"build={rep.build_ms:.1f} ms"
        )
    print(f"wrote {len(paths)} files to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apseq",
        description="Survey-free indoor localization from ordered AP-sequence signatures.",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="override the config seed (simulate/evaluate)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mapgen", help="build fingerprint maps for every k-subset of APs")
    p.add_argument("--deploy", required=True, help="deployment file (APSEQ-DEPLOY v1)")
    p.add_argument("--grid", type=float, default=DEFAULT_CELL_SIZE, help="grid cell size in meters")
    p.add_argument("--k", type=int, required=True, help="AP subset size")
    p.add_argument("--out", required=True, help="output map-store file")
    p.set_defaults(run=_cmd_mapgen)

    p = sub.add_parser("simulate", help="synthesize scan windows at the config's test points")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", required=True, help="output directory for scan files")
    p.set_defaults(run=_cmd_simulate)

    p = sub.add_parser("localize", help="localize one scan file against a map store")
    p.add_argument("--store", required=True, help="map-store file (APSEQMAP v1)")
    p.add_argument("--scan", required=True, help="scan file (APSEQ-SCAN v2)")
    p.add_argument("--k", type=int, required=True, help="number of APs to select")
    p.set_defaults(run=_cmd_localize)

    p = sub.add_parser("evaluate", help="run the simulated experiment and write CSV metrics")
    p.add_argument("--config", required=True, help="experiment config file")
    p.add_argument("--out", default=None, help="output directory (default: config out_dir)")
    p.set_defaults(run=_cmd_evaluate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
