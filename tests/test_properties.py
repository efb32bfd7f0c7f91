"""Property tests of the text formats, the window simulation and localize."""

import contextlib
import io
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apseq.cli import main
from apseq.localize import (
    ScanWindow,
    aggregate_scan,
    localize,
    save_scan,
    scan_from_text,
    scan_to_text,
)
from apseq.mapgen import build_map_store, build_stores, map_store_from_text, map_store_to_text, save_map_store
from apseq.model import (
    UNDETECTED_DBM,
    ApDeployment,
    RssScan,
    deployment_from_text,
    deployment_to_text,
    save_deployment,
)
from apseq.propagation import PropagationParams, mean_rss, synth_window
from apseq.selection import candidate_picks, kmeans_1d

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


def assert_refused_at(line, lines):
    with pytest.raises(ValueError, match=rf"^<string>: line {line}: "):
        map_store_from_text("\n".join(lines) + "\n")


@PROPERTY
@given(map_stores(), st.data())
def test_map_store_text_round_trips(store, data):
    text = map_store_to_text(store)
    assert map_store_from_text(text) == store
    assert map_store_to_text(map_store_from_text(text)) == text
    # Move one declared stat by 1e-6 or more: refused at that line.
    lines = text.splitlines()
    row = data.draw(st.sampled_from([n for n, ln in enumerate(lines) if ln.startswith("region ")]))
    parts = lines[row].split()
    col = data.draw(st.integers(2, 5))
    shift = data.draw(st.integers(1, 10**6) | st.integers(-(10**6), -1))
    parts[col] = f"{float(parts[col]) + shift * 1e-6:.6f}"
    assert_refused_at(row + 1, lines[:row] + [" ".join(parts)] + lines[row + 1:])
    # Dropping that region line, adding a copy after it or swapping it with
    # the next region line is refused at the first line that differs.
    assert_refused_at(row + 1, lines[:row] + lines[row + 1:])
    assert_refused_at(row + 2, lines[: row + 1] + lines[row:])
    if row + 1 < len(lines) and lines[row + 1].startswith("region "):
        assert_refused_at(row + 1, lines[:row] + [lines[row + 1], lines[row]] + lines[row + 2:])
    # So is dropping one whole map block.
    heads = [n for n, ln in enumerate(lines) if ln.startswith("map ")] + [len(lines)]
    block = data.draw(st.integers(0, len(heads) - 2))
    with pytest.raises(ValueError):
        map_store_from_text("\n".join(lines[: heads[block]] + lines[heads[block + 1]:]) + "\n")


@st.composite
def windows(draw, rss=st.floats(-99.0, 0.0)):
    cadence = draw(st.sampled_from([0.1, 0.25, 0.3, 1.0]))
    n = draw(st.integers(1, 30))
    ap_ids = draw(st.lists(st.integers(1, 50), min_size=1, max_size=8, unique=True))
    matrix = np.full((n, len(ap_ids)), np.nan)
    for j in range(len(ap_ids)):
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            matrix[i, j] = draw(rss)
    return ScanWindow(np.arange(n) * cadence, tuple(ap_ids), matrix, n * cadence, cadence)


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
    clustering = kmeans_1d(values, k, top_ranks=not exact)
    for picks in candidate_picks(clustering):
        subset = tuple(sorted(picks))
        if len(subset) >= 2:
            assert picks == tuple(sorted(subset, key=lambda i: (-values[i], i)))


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

    def detected(*args):  # repr compares the means bit for bit
        try:
            return repr(aggregate_scan(*args).detected())
        except ValueError as exc:
            return str(exc)

    assert detected(window(long_s), short_s) == detected(window(short_s))


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
    store = store_family if single is None else {single: store_family[single]}
    try:
        localize(RssScan(values=values), store, k)
    except ValueError:
        pass


# Replacement tokens: the edges of every field's domain, and the keywords of
# every format.  None asks for more than a few thousand cells or samples.
TOKENS = ["", "0", "-1", "2", "7", "0.5", "-0.0", "1e308", "1e-300", "nan", "inf", "-inf", "x",
          "1-2", "2-1", "map", "region", "sample", "window", "ap", "area", "grid", "="]

CLI_CONFIG = """\
deployment = quad.deploy
k_values = 2, 3
cell_size = 1.0
sigma_db = 1.5
test_points = 2
duration_s = 2.0
cadence_s = 0.5
seed = 11
"""


@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """A deployment, a k = 3 store, a scan and a config for the four file inputs of main."""
    d = tmp_path_factory.mktemp("mutated")
    dep = ApDeployment(width=12.0, height=9.0, aps=((1, 1.0, 1.0), (2, 11.0, 1.5), (3, 6.0, 8.0), (4, 10.0, 7.5)))
    save_deployment(dep, d / "quad.deploy")
    save_map_store(build_map_store(dep, 3, 1.0), d / "quad.map")
    params = PropagationParams(sigma_db=2.0)
    save_scan(synth_window((4.0, 3.0), dep, params, 2.0, 0.5, rng=np.random.default_rng(3)), d / "quad.scan")
    (d / "quad.cfg").write_text(CLI_CONFIG)
    return d


@st.composite
def mutations(draw, lines):
    """One to three edits of a text's lines: a token replaced, a line dropped or repeated."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        n = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if edit == "replace":
            parts = lines[n].split(" ")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(TOKENS))
            lines[n] = " ".join(parts)
        elif edit == "drop":
            del lines[n]
        else:
            lines.insert(n, lines[n])
    return "\n".join(lines) + "\n"


# Each file input, the file it replaces and the command that reads it.
COMMANDS = {
    "deploy": ["mapgen", "--deploy", "{path}", "--grid", "1.0", "--k", "3", "--out", "{dir}/out.map"],
    "map": ["localize", "--store", "{path}", "--scan", "{dir}/quad.scan", "--k", "3"],
    "scan": ["localize", "--store", "{dir}/quad.map", "--scan", "{path}", "--k", "3"],
    "cfg": ["evaluate", "--config", "{path}", "--out", "{dir}/out"],
}


@settings(database=None, deadline=None, max_examples=25)
@pytest.mark.parametrize("kind", sorted(COMMANDS))
@given(data=st.data())
def test_mutated_file_inputs_never_crash_main(cli_files, kind, data):
    original = (cli_files / f"quad.{kind}").read_text().splitlines()
    path = cli_files / f"mutated.{kind}"
    path.write_text(data.draw(mutations(original)))
    argv = [arg.format(path=path, dir=cli_files) for arg in COMMANDS[kind]]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = main(argv)
    assert rc == 0 or (rc == 2 and err.getvalue().startswith("error: ")), (rc, err.getvalue())


FAILING_PROPERTY = """\
from hypothesis import given, settings, strategies as st


@settings(database=None)
@given(st.integers())
def test_below_five(n):
    assert n < 5


def test_after():
    pass
"""


def test_a_failing_property_is_reported_under_the_repo_config(tmp_path):
    # Under the repo's warning filters, reporting the falsifying example
    # must not turn into an INTERNALERROR that ends the session.
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "-p", "no:cacheprovider", "-q",
         str(tmp_path / "test_failing.py")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert "Falsifying example: test_below_five(" in result.stdout
