"""Simulate one observation window and localize it at several subset sizes.

Uses the bundled 7-AP "dover" floor: synthesizes a noisy RSS window at a
known position, aggregates it, and walks the selective localization
pipeline at k = 3..7 to show why using every AP is not the best choice.
"""

import argparse
import math
from importlib import resources

import numpy as np

from apseq.localize import Estimate, aggregate_scan, localize
from apseq.mapgen import build_stores
from apseq.model import load_deployment, signature_to_text
from apseq.propagation import PropagationParams, synth_window

DATA = resources.files("apseq") / "data"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--x", type=float, default=24.0, help="true x (m)")
    parser.add_argument("--y", type=float, default=18.0, help="true y (m)")
    parser.add_argument("--sigma", type=float, default=3.0,
                        help="shadowing std dev in dB (default 3)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    deployment = load_deployment(str(DATA / "dover.deploy"))
    print(f"== floor: {deployment.width:g} x {deployment.height:g} m, "
          f"{deployment.n_aps} APs ==")
    stores = build_stores(deployment, range(3, 8), 0.2)
    print(f"partitioned the 0.2 m grid for the map stores of k = 3..7 in "
          f"{stores[3].build_ms:.0f} ms; a map is built when first looked up:")
    for k, store in stores.items():
        print(f"  k={k}: {store.n_maps} maps")

    truth = (args.x, args.y)
    params = PropagationParams(sigma_db=args.sigma)
    print(f"\n== simulating a 12 s window at {truth}, "
          f"sigma = {args.sigma:g} dB, seed {args.seed} ==")
    window = synth_window(truth, deployment, params,
                          duration_s=12.0, cadence_s=0.3,
                          rng=np.random.default_rng(args.seed))
    scan = aggregate_scan(window)
    print("aggregated RSS (mean over the window, strongest first):")
    for ap_id, rss in sorted(scan.detected().items(), key=lambda kv: -kv[1]):
        d = math.dist(truth, deployment.position(ap_id))
        print(f"  AP {ap_id}: {rss:6.1f} dBm   (true distance {d:5.1f} m)")

    print("\n== localizing the same scan at each k ==")
    for k in range(3, 8):
        outcome = localize(scan, stores, k)
        if isinstance(outcome, Estimate):
            err = math.dist(outcome.position, truth)
            print(f"  k={k}: estimate ({outcome.position[0]:5.1f}, "
                  f"{outcome.position[1]:5.1f})  error {err:5.2f} m  "
                  f"signature {signature_to_text(outcome.matched_signature)}  "
                  f"after {outcome.candidates_tried} candidate(s)")
        else:
            print(f"  k={k}: missed - none of {outcome.candidates_tried} "
                  f"candidate signatures exist in their maps")
    print("time per store, the partition and the maps the walks looked up: "
          + ", ".join(f"k={k} {store.build_ms:.0f} ms" for k, store in stores.items()))
    print("\nsmall k tolerates noisy orderings (few APs to misorder, generous")
    print("fallbacks); k=7 must get the full ordering right in one shot, so")
    print("noise flips push it into missed detections or distant regions.")


if __name__ == "__main__":
    main()
