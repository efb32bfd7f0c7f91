"""Show how RSS clustering picks which APs to use for localization.

Groups a scan's RSS readings with 1-D K-means, then enumerates the
candidate AP subsets (one pick per cluster) with candidate_picks, the
walk the localizer tries them in.  Ends with the degenerate case and the
top-rank seeding that the localizer runs.
"""

from apseq import DegenerateClusteringError, candidate_picks, kmeans_1d

SCAN = {1: -38.0, 2: -41.0, 3: -55.0, 4: -57.0, 5: -58.5, 6: -76.0, 7: -79.0}


def show_clusters(result):
    for idx, cluster in enumerate(result.clusters, start=1):
        members = ", ".join(f"AP{i} ({rss:.1f})" for i, rss in cluster.members)
        print(f"  cluster {idx}: centroid {cluster.centroid:6.1f} dBm <- {members}")


def main():
    print("== the scan ==")
    for ap_id, rss in sorted(SCAN.items(), key=lambda kv: kv[1], reverse=True):
        print(f"  AP {ap_id}: {rss:6.1f} dBm")
    print("three natural signal tiers are visible: near, mid, far.")

    print("\n== K-means over the RSS values, K = 3 ==")
    result = kmeans_1d(SCAN, 3)
    show_clusters(result)
    print(f"converged in {result.iterations} iteration(s); "
          f"objective history {[round(o, 1) for o in result.objective_history]}")
    print("the exact optimum recovers the three tiers: near, mid, far.")

    print("\n== candidate subsets, K = 3 ==")
    print("one AP per cluster, strongest picks first:")
    for picks in candidate_picks(result):
        print(f"  subset {tuple(sorted(picks))} (picked {picks})")
    print("the localizer tries a clustering's candidates in this order and")
    print("keeps the first whose measured signature exists in its map.")

    print("\n== larger K splits the tiers further ==")
    for k in (4, 5):
        result_k = kmeans_1d(SCAN, k)
        n_cands = sum(1 for _ in candidate_picks(result_k))
        print(f"  K={k}: {n_cands} candidate subset(s)")
        show_clusters(result_k)

    print("\n== degenerate request ==")
    flat = {1: -40.0, 2: -40.0, 3: -40.0}
    try:
        kmeans_1d(flat, 2)
    except DegenerateClusteringError as exc:
        print(f"  {exc}")

    print("\n== top-rank seeding, as the localizer runs it ==")
    top = kmeans_1d(SCAN, 3, top_ranks=True)
    print("top_ranks=True starts Lloyd at the 3 strongest values:")
    show_clusters(top)
    print(f"objectives: exact default {result.objective:.1f} vs top-rank {top.objective:.1f} -")
    print("Lloyd iteration can only reassign, never merge, so the two")
    print("singletons in the near tier are a local optimum it cannot leave.")
    print("The localizer keeps this seeding, which its per-k references pin.")


if __name__ == "__main__":
    main()
