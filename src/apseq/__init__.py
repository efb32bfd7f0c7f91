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
    Cluster,
    Clustering,
    DegenerateClusteringError,
    candidate_picks,
    kmeans_1d,
)

__version__ = "0.1.0"
