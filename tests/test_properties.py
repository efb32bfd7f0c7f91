"""Property tests of the text formats, the window simulation and localize."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apseq.localize import (
    ScanWindow,
    aggregate_scan,
    localize,
    scan_from_text,
    scan_to_text,
)
from apseq.mapgen import build_map_store, build_stores, map_store_from_text, map_store_to_text
from apseq.model import (
    UNDETECTED_DBM,
    ApDeployment,
    RssScan,
    deployment_from_text,
    deployment_to_text,
    make_signature,
)
from apseq.propagation import PropagationParams, mean_rss, synth_window
from apseq.selection import generate_candidate_sets, kmeans_1d

# No example database: a run records no failing examples in the checkout.
PROPERTY = settings(database=None, deadline=None, max_examples=50)


@st.composite
def deployments(draw, max_aps=10):
    width = draw(st.floats(1.0, 500.0))
    height = draw(st.floats(1.0, 500.0))
    ids = draw(st.lists(st.integers(1, 999), min_size=2, max_size=max_aps, unique=True))
    unit = st.floats(0.0, 1.0)
    aps = tuple((i, draw(unit) * width, draw(unit) * height) for i in ids)
    return ApDeployment(width=width, height=height, aps=aps)


@PROPERTY
@given(deployments())
def test_deployment_text_round_trips(dep):
    text = deployment_to_text(dep)
    assert deployment_from_text(text) == dep
    assert deployment_to_text(deployment_from_text(text)) == text


@st.composite
def map_stores(draw):
    """A store over 2-5 APs on a grid of at most 8 x 8 cells, any valid k."""
    dep = draw(deployments(max_aps=5))
    cell_size = max(dep.width, dep.height) / draw(st.integers(2, 8))
    k = draw(st.integers(2, dep.n_aps))
    return build_map_store(dep, k, cell_size)


@PROPERTY
@given(map_stores(), st.data())
def test_map_store_text_round_trips(store, data):
    text = map_store_to_text(store)
    assert map_store_from_text(text) == store
    assert map_store_to_text(map_store_from_text(text)) == text
    # Move one declared stat by at least 3e-6, beyond the loader's 2e-6.
    lines = text.splitlines()
    row = data.draw(st.sampled_from([n for n, ln in enumerate(lines) if ln.startswith("region ")]))
    parts = lines[row].split()
    col = data.draw(st.integers(2, 5))
    shift = data.draw(st.integers(3, 10**6) | st.integers(-(10**6), -3))
    parts[col] = f"{float(parts[col]) + shift * 1e-6:.6f}"
    lines[row] = " ".join(parts)
    with pytest.raises(ValueError, match="mismatch"):
        map_store_from_text("\n".join(lines) + "\n")
    # Dropping that region line, or one whole map block, is refused too.
    lines = text.splitlines()
    heads = [n for n, ln in enumerate(lines) if ln.startswith("map ")] + [len(lines)]
    with pytest.raises(ValueError):
        map_store_from_text("\n".join(lines[:row] + lines[row + 1:]) + "\n")
    block = data.draw(st.integers(0, len(heads) - 2))
    with pytest.raises(ValueError):
        map_store_from_text("\n".join(lines[: heads[block]] + lines[heads[block + 1]:]) + "\n")


@st.composite
def windows(draw, rss=st.floats(-99.0, 0.0)):
    cadence = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
    n = draw(st.integers(1, 30))
    aps = {}
    for ap_id in draw(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True)):
        instants = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        aps[ap_id] = tuple((i * cadence, draw(rss)) for i in sorted(instants))
    return ScanWindow.from_series(aps, duration_s=n * cadence, cadence_s=cadence)


@PROPERTY
@given(windows())
def test_scan_text_round_trips(window):
    text = scan_to_text(window)
    assert scan_to_text(scan_from_text(text)) == text


def _aggregate_or_error(window):
    try:
        return aggregate_scan(window).values
    except ValueError as exc:
        return str(exc)


# RSS at the 6 decimals of the scan format, so that a round trip is exact.
@PROPERTY
@given(windows(rss=st.integers(-99_000_000, 0).map(lambda m: m / 1e6)))
def test_saving_and_loading_keeps_the_aggregate(window):
    assert _aggregate_or_error(scan_from_text(scan_to_text(window))) == _aggregate_or_error(window)


@PROPERTY
@given(
    st.dictionaries(
        st.integers(1, 30),
        st.one_of(st.integers(-399, -120).map(lambda q: q / 4), st.floats(-99.9, -20.0)),
        min_size=1,
        max_size=12,
    ),
    st.integers(1, 7),
    st.booleans(),
)
def test_candidate_picks_are_the_subset_signature(values, k, exact):
    k = min(k, len(set(values.values())))
    clustering = kmeans_1d(values, k, seed_ranks=None if exact else range(1, k + 1))
    for cand in generate_candidate_sets(clustering):
        if len(cand.subset) >= 2:
            assert cand.picks == make_signature(values, cand.subset)


@PROPERTY
@given(
    deployments(),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-50.0, -20.0),
    st.floats(1.5, 4.0),
    st.floats(0.5, 2.0),
    st.floats(-99.0, -30.0),
    st.integers(1, 5),
)
def test_noise_free_window_follows_the_model(dep, fx, fy, p0, gamma, d0, floor, n):
    params = PropagationParams(p0_dbm=p0, gamma=gamma, d0_m=d0, detect_floor_dbm=floor)
    point = (fx * dep.width, fy * dep.height)
    w = synth_window(point, dep, params, duration_s=float(n), cadence_s=1.0,
                     rng=np.random.default_rng(0))
    for ap_id, x, y in dep.aps:
        expect = mean_rss(math.hypot(point[0] - x, point[1] - y), params)
        if expect >= floor:
            assert w.aps[ap_id] == tuple((float(i), expect) for i in range(n))
        else:
            assert ap_id not in w.aps


@PROPERTY
@given(
    deployments(max_aps=6),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
    st.floats(0.05, 2.0),
    st.floats(0.0, 1.0),
    st.floats(0.0, 1.0),
    st.data(),
    st.booleans(),
)
def test_head_is_the_shorter_simulated_window(
    dep, fx, fy, seed, cadence, short_frac, long_frac, data, rounded
):
    point = (fx * dep.width, fy * dep.height)
    # A floor 0-2 sigma above one AP's mean RSS makes that AP heard in few
    # instants, so it is often first heard after the head.
    _, ax, ay = data.draw(st.sampled_from(dep.aps))
    mean = mean_rss(math.hypot(point[0] - ax, point[1] - ay), PropagationParams())
    floor = min(max(mean + data.draw(st.floats(0.0, 12.0)), -99.0), -30.0)
    params = PropagationParams(sigma_db=6.0, detect_floor_dbm=floor, round_to_int=rounded)
    long_s = cadence * (1 + 60 * long_frac)
    short_s = min(cadence + (long_s - cadence) * short_frac, long_s)

    def window(duration_s):
        return synth_window(point, dep, params, duration_s=duration_s, cadence_s=cadence,
                            rng=np.random.default_rng(seed))

    head, direct = window(long_s).head(short_s), window(short_s)
    assert head.times.tobytes() == direct.times.tobytes()
    assert head.ap_ids == direct.ap_ids
    assert (head.duration_s, head.cadence_s) == (direct.duration_s, direct.cadence_s)
    assert head.rss.shape == direct.rss.shape
    assert head.rss.tobytes() == direct.rss.tobytes()  # NaN in the same places


@pytest.fixture(scope="module")
def store_family():
    dep = ApDeployment(
        width=10.0,
        height=10.0,
        aps=((1, 0.0, 0.0), (2, 5.0, 0.0), (3, 10.0, 0.0), (4, 5.0, 3.0)),
    )
    return build_stores(dep, (2, 3, 4), 1.0)


# Ids 5, 6 and 99 are foreign to the deployment; the sampled values are
# the sentinel and finite values whose sums or squares overflow.
rss_values = st.one_of(
    st.sampled_from([UNDETECTED_DBM, 1e308, -1e308, 1e200, 1e154, 1e150, -40.0]),
    st.floats(-100.0, 0.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(database=None, deadline=None, max_examples=200)
@given(
    st.dictionaries(st.sampled_from([1, 2, 3, 4, 5, 6, 99]), rss_values, max_size=7),
    st.integers(-2, 8),
    st.sampled_from([None, 2, 3, 4]),
)
def test_localize_raises_only_value_error(store_family, values, k, single):
    store = store_family if single is None else store_family[single]
    try:
        localize(RssScan(values=values), store, k)
    except ValueError:
        pass
