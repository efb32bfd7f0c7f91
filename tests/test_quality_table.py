"""Per-k localization quality of the bundled configs at seeds 1-5, against a committed table.

quality_table.json holds one row per config (dover, ecc), seed and k:
test points, missed points, the median and mean error of the located
points in metres and the fraction of them within 5 m, each to 6 decimals
(null where no point was located).  A change that moves any outcome fails
the test here, and the row shows what moved.

Within 5 m is the paper's headline figure: 50-60 % of points, best with 4
of 7 APs.  dover reads below it and ecc above it; the table records that
gap, and no parameter is tuned to close it.

To rewrite the table after a change that moves outcomes on purpose, and
print the old rows against the new:

    PYTHONPATH=src python tests/test_quality_table.py
"""

import itertools
import json
from importlib import resources
from pathlib import Path

from apseq.evaluate import load_config, run_experiment
from apseq.mapgen import build_stores
from apseq.model import load_deployment

TABLE = Path(__file__).resolve().parent / "quality_table.json"
CONFIGS = ("dover", "ecc")
SEEDS = range(1, 6)


def quality_rows():
    """The table's rows, recomputed: each config's stores are built once for all seeds."""
    rows = []
    for name in CONFIGS:
        config = load_config(str(resources.files("apseq") / "data" / f"{name}.cfg"))
        stores = build_stores(load_deployment(config.deployment), config.k_values, config.cell_size)
        for seed in SEEDS:
            for k, rep in run_experiment(config, seed=seed, stores=stores).per_k.items():
                located = rep.errors
                rows.append({
                    "config": name, "seed": seed, "k": k, "points": rep.n_points, "missed": rep.missed,
                    "median_error_m": round(rep.median_error, 6) if located else None,
                    "mean_error_m": round(rep.mean_error, 6) if located else None,
                    "within_5m": round(sum(e <= 5.0 for e in located) / len(located), 6) if located else None,
                })
    return rows


def test_quality_rows_match_the_table():
    assert quality_rows() == json.loads(TABLE.read_text())


def main():
    old = json.loads(TABLE.read_text()) if TABLE.exists() else []
    new = quality_rows()
    TABLE.write_text("[\n" + ",\n".join(json.dumps(row) for row in new) + "\n]\n")
    changed = [(before, after) for before, after in itertools.zip_longest(old, new) if before != after]
    for before, after in changed:
        print(f"old {before}\nnew {after}")
    print(f"{len(changed)} of {len(new)} rows changed; wrote {TABLE}")


if __name__ == "__main__":
    main()
