"""Survey-free Wi-Fi indoor localization from ordered AP-sequence signatures.

Fingerprint maps are computed from AP coordinates alone: each grid cell is
labeled by the order of its distances to a chosen AP subset, and cells
sharing a label form a region.  Online, the measured RSS ordering of a
selected AP subset is matched against those labels — no site survey.
"""

from .evaluate import (
    ExperimentConfig,
    ExperimentReport,
    KReport,
    error_cdf,
    load_config,
    parse_config,
    run_experiment,
    simulate,
    window_sweep,
    write_report_csvs,
)
from .localize import (
    Estimate,
    LocalizationOutcome,
    MissedDetection,
    ScanWindow,
    aggregate_scan,
    load_scan,
    localize,
    save_scan,
)
from .mapgen import (
    FingerprintMap,
    GridSpec,
    MapStore,
    Region,
    build_map_store,
    build_stores,
    cell_signature,
    enumerate_ap_subsets,
    load_map_store,
    map_store_from_text,
    map_store_to_text,
    save_map_store,
)
from .model import (
    UNDETECTED_DBM,
    ApDeployment,
    RssScan,
    Signature,
    SubsetKey,
    load_deployment,
    parse_signature,
    save_deployment,
    signature_to_text,
    subset_key,
)
from .propagation import (
    PropagationParams,
    gen_test_points,
    mean_rss,
    synth_window,
)
from .selection import (
    CandidateSet,
    Cluster,
    Clustering,
    DegenerateClusteringError,
    generate_candidate_sets,
    kmeans_1d,
)

__version__ = "0.1.0"

__all__ = [
    "ApDeployment",
    "CandidateSet",
    "Cluster",
    "Clustering",
    "DegenerateClusteringError",
    "Estimate",
    "ExperimentConfig",
    "ExperimentReport",
    "FingerprintMap",
    "GridSpec",
    "KReport",
    "LocalizationOutcome",
    "MapStore",
    "MissedDetection",
    "PropagationParams",
    "Region",
    "RssScan",
    "ScanWindow",
    "Signature",
    "SubsetKey",
    "UNDETECTED_DBM",
    "aggregate_scan",
    "build_map_store",
    "build_stores",
    "cell_signature",
    "enumerate_ap_subsets",
    "error_cdf",
    "gen_test_points",
    "generate_candidate_sets",
    "kmeans_1d",
    "load_config",
    "load_deployment",
    "load_map_store",
    "load_scan",
    "localize",
    "map_store_from_text",
    "map_store_to_text",
    "mean_rss",
    "parse_config",
    "parse_signature",
    "run_experiment",
    "save_deployment",
    "save_map_store",
    "save_scan",
    "signature_to_text",
    "simulate",
    "subset_key",
    "synth_window",
    "window_sweep",
    "write_report_csvs",
]
