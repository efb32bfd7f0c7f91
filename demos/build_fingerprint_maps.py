"""Walk through fingerprint-map construction for a small AP deployment.

Builds the grid partition for every k-subset of a 4-AP office, prints how
many maps and regions each subset size produces, inspects one region's
geometry, and shows the text form the store serializes to.
"""

import argparse

from apseq.mapgen import build_stores, map_store_to_text
from apseq.model import ApDeployment


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--cell", type=float, default=0.5,
                        help="grid cell size in meters (default 0.5)")
    args = parser.parse_args()

    deployment = ApDeployment(
        width=20.0,
        height=12.0,
        aps=((1, 2.0, 2.0), (2, 18.0, 2.5), (3, 10.0, 10.0), (4, 17.0, 9.5)),
    )
    # One map set of every subset size, from one partition of the grid; the
    # grid follows from the area and the cell size.  Maps are made as they
    # are first needed.
    stores = build_stores(deployment, range(2, deployment.n_aps + 1), args.cell)
    grid = stores.grid

    print("== deployment ==")
    print(f"area: {deployment.width:g} x {deployment.height:g} m, "
          f"grid {grid.cols} x {grid.rows} cells of {grid.cell_size:g} m")
    for ap_id in deployment.ap_ids:
        x, y = deployment.position(ap_id)
        print(f"  AP {ap_id} at ({x:g}, {y:g})")

    print("\n== map counts per subset size ==")
    print("one fingerprint map per k-subset of the APs:")
    for k, store in stores.items():
        regions = sum(m.n_regions for m in store.maps.values())  # builds the k's maps in one batch
        print(f"  k={k}: {store.n_maps:2d} maps, {regions:3d} regions total, {store.build_ms:.1f} ms")
    print("each time is the shared partition's plus the build of that k's maps")

    print("\n== one region up close ==")
    fmap = stores[2].maps[(1, 2)]
    print(f"map for subset (1, 2) splits the floor into {fmap.n_regions} regions:")
    for sig, region in sorted(fmap.regions.items()):
        print(f"  signature {'-'.join(map(str, sig))}: {region.cell_count} cells, "
              f"centroid ({region.centroid[0]:.2f}, {region.centroid[1]:.2f}), "
              f"accuracy {region.accuracy:.2f} m, radius {region.radius:.2f} m")
    print("accuracy is the mean distance from the region's cells to its")
    print("centroid - the error you expect when answering with the centroid.")

    print("\n== region lookup ==")
    probe = (5.0, 6.0)
    region = fmap.region_at(*probe)
    print(f"the point {probe} falls in region "
          f"{'-'.join(map(str, region.signature))} "
          f"(closest AP first), so reporting its centroid "
          f"({region.centroid[0]:.2f}, {region.centroid[1]:.2f}) "
          f"is the best blind answer.")

    print("\n== serialized form (first lines) ==")
    for line in map_store_to_text(stores[2]).splitlines()[:12]:
        print(f"  {line}")
    print("  ...")
    print("cell memberships are not stored; a loader rebuilds them from the")
    print("deployment and cell size, then cross-checks every region line.")


if __name__ == "__main__":
    main()
