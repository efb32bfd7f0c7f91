"""Reproduce the headline evaluation trends on the bundled scenarios.

Runs the simulated experiment on the "dover" floor across k = 3..7 to
show the missed-detection / accuracy trade-off, then sweeps observation
windows on the "ecc" floor to show that longer windows help.  Uses fewer
test points than the full acceptance run so it finishes in seconds.
"""

import argparse
import statistics
from dataclasses import replace
from importlib import resources

from apseq.evaluate import load_config, run_experiment, window_sweep
from apseq.mapgen import build_stores
from apseq.model import load_deployment

DATA = resources.files("apseq") / "data"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--points", type=int, default=40,
                        help="test points per seed (default 40)")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()

    config = replace(load_config(str(DATA / "dover.cfg")), test_points=args.points)
    deployment = load_deployment(config.deployment)
    print(f"== dover: {deployment.n_aps} APs on "
          f"{deployment.width:g} x {deployment.height:g} m, "
          f"sigma = {config.sigma_db:g} dB, {config.duration_s:g} s windows ==")
    stores = build_stores(deployment, config.k_values, config.cell_size)

    rates = {k: [] for k in config.k_values}
    medians = {k: [] for k in config.k_values}
    for seed in args.seeds:
        report = run_experiment(config, seed=seed, stores=stores)
        for k in config.k_values:
            rates[k].append(report.per_k[k].missed_rate)
            medians[k].append(report.per_k[k].median_error)

    print(f"\n{args.points} points x {len(args.seeds)} seeds, averaged:")
    print("   k   missed rate   median error (matched points)")
    for k in config.k_values:
        r = statistics.fmean(rates[k])
        m = statistics.fmean(medians[k])
        print(f"   {k}      {r:5.2f}          {m:5.2f} m")
    best_k = min((3, 4, 5), key=lambda k: statistics.fmean(medians[k]))
    print(f"\nk={best_k} localizes more points than k=7 AND answers them more")
    print("accurately - selecting a subset of APs beats using all of them.")

    print("\n== ecc: longer windows average the shadowing away ==")
    ecc = replace(load_config(str(DATA / "ecc.cfg")),
                  k_values=(4,), test_points=args.points)
    ecc_dep = load_deployment(ecc.deployment)
    ecc_stores = build_stores(ecc_dep, ecc.k_values, ecc.cell_size)
    durations = (3.0, 10.0, 30.0, 60.0)
    per_dur = {d: [] for d in durations}
    for seed in args.seeds:
        sweep = window_sweep(ecc, durations, seed=seed, stores=ecc_stores)
        for d in durations:
            per_dur[d].append(sweep[d].per_k[4].median_error)
    print("   window   median error at k=4")
    for d in durations:
        print(f"   {d:4.0f} s        {statistics.fmean(per_dur[d]):5.2f} m")
    print("\neach longer window replays the same noise stream plus extra")
    print("samples, so the comparison isolates observation time itself.")


if __name__ == "__main__":
    main()
