"""Compute the reference outputs that the benchmark's correctness gate checks.

    python3 perfbench/make_references.py

Writes perfbench/references.json.  The committed file was made at the seed
implementation; regenerate it only for a change that is meant to alter the
program's outputs, and say so in that change.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import workloads as wl  # noqa: E402


def main() -> None:
    dover_cfg = wl.evaluate.load_config(os.path.join(wl.DATA, "dover.cfg"))
    ecc_cfg = wl.evaluate.load_config(os.path.join(wl.DATA, "ecc.cfg"))
    dover = wl.model.load_deployment(dover_cfg.deployment)
    ecc = wl.model.load_deployment(ecc_cfg.deployment)
    dover_stores = wl.evaluate.build_stores(dover, wl.DOVER_K, wl.GRID_M)
    mapgen_stores = wl.evaluate.build_stores(dover, wl.DOVER_K, wl.MAPGEN_GRID_M)
    ecc_stores = wl.evaluate.build_stores(ecc, ecc_cfg.k_values, ecc_cfg.cell_size)
    rows = wl.pool_outcomes(*wl.scan_pool(dover, dover_cfg, wl.DEFAULT_SEED), dover_stores)
    refs = {
        "store_sha256": {
            name: {str(k): wl.sha256_text(wl.mapgen.map_store_to_text(s)) for k, s in stores.items()}
            for name, stores in (
                ("dover", dover_stores), (wl.MAPGEN_STORES, mapgen_stores), ("ecc", ecc_stores))
        },
        "scan_stream": wl.miss_summary((k, o, p) for k, o, p, _ in rows),
        "eval_sweep": wl.sweep_summary(wl.evaluate.window_sweep(
            ecc_cfg, wl.SWEEP_DURATIONS, seed=ecc_cfg.seed, stores=ecc_stores)),
    }
    with open(wl.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
