"""Log-distance RSS synthesis and deterministic test-point layouts."""

import math

import numpy as np
import pytest
from numpy.random import default_rng

from apseq.localize import ScanWindow, aggregate_scan, instant_count
from apseq.model import ApDeployment
from apseq import propagation
from apseq.propagation import (
    MAX_WINDOW_SAMPLES,
    PropagationParams,
    gen_test_points,
    mean_rss,
    synth_window,
)


class TestPathLossModel:
    def test_reference_distance_anchor(self):
        params = PropagationParams()
        assert mean_rss(1.0, params) == pytest.approx(-30.0)

    def test_decade_drop(self):
        # gamma = 2.5 means 25 dB per distance decade
        params = PropagationParams()
        assert mean_rss(10.0, params) == pytest.approx(-55.0)
        assert mean_rss(100.0, params) == pytest.approx(-80.0)

    def test_inside_reference_distance_clamps(self):
        params = PropagationParams()
        assert mean_rss(0.2, params) == pytest.approx(-30.0)
        assert mean_rss(0.0, params) == pytest.approx(-30.0)

    def test_strictly_decreasing_beyond_d0(self):
        params = PropagationParams(gamma=3.1)
        d = np.linspace(1.0, 80.0, 200)
        r = [mean_rss(float(x), params) for x in d]
        assert all(b < a for a, b in zip(r, r[1:]))

    def test_rss_never_exceeds_p0(self):
        # 0.5 m from the AP the model mean is p0; shadowing of 20 dB pushes
        # about half the samples above it, and they are capped at p0.
        dep = ApDeployment(width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 9.0, 9.0)))
        params = PropagationParams(sigma_db=20.0)
        w = synth_window((0.5, 0.0), dep, params, duration_s=30.0, cadence_s=1.0, rng=default_rng(3))
        assert max(r for _, r in w.aps[1]) == -30.0

    def test_below_floor_is_undetected(self):
        # mean_rss(50 m) is -72.5 dBm, under the -60 dBm floor
        dep = ApDeployment(width=60.0, height=10.0, aps=((1, 0.0, 0.0), (2, 50.0, 0.0)))
        params = PropagationParams(detect_floor_dbm=-60.0)
        w = synth_window((0.0, 0.0), dep, params, duration_s=3.0, cadence_s=1.0, rng=default_rng(0))
        assert set(w.aps) == {1}

    def test_floor_below_minus_100_dbm_hears_fainter_samples(self):
        # mean_rss(1000 m) is -105 dBm: over a -110 dBm floor, AP 2 is heard
        # at most instants, mostly below -100 dBm, and averages below it.
        dep = ApDeployment(width=1000.0, height=10.0, aps=((1, 0.0, 0.0), (2, 1000.0, 0.0)))
        params = PropagationParams(sigma_db=2.0, detect_floor_dbm=-110.0)
        w = synth_window((0.0, 0.0), dep, params, duration_s=30.0, cadence_s=1.0, rng=default_rng(0))
        faint = np.array([r for _, r in w.aps[2]])
        assert len(faint) >= 15 and (faint >= -110.0).all() and (faint < -100.0).any()
        assert -110.0 < aggregate_scan(w).values[2] < -100.0

    def test_whole_dbm_samples_at_minus_100_dbm_are_heard(self):
        # mean_rss(630 m) is about -99.98 dBm, which whole-dBm hardware
        # reports as -100 dBm: at and above a -100 dBm floor, and a mean of
        # -100 dBm that the scan keeps.
        dep = ApDeployment(width=630.0, height=10.0, aps=((1, 0.0, 0.0), (2, 630.0, 0.0)))
        params = PropagationParams(detect_floor_dbm=-100.0, round_to_int=True)
        w = synth_window((0.0, 0.0), dep, params, duration_s=3.0, cadence_s=1.0, rng=default_rng(0))
        assert [r for _, r in w.aps[2]] == [-100.0] * 3
        assert aggregate_scan(w).values == {1: -30.0, 2: -100.0}

    def test_window_is_one_matrix_with_nan_where_unheard(self):
        # mean_rss(30 m) is about -66.9 dBm, so with 8 dB of shadowing AP 2
        # is heard at some instants of the -65 dBm floor and not at others.
        dep = ApDeployment(width=60.0, height=10.0, aps=((1, 0.0, 0.0), (2, 30.0, 0.0)))
        params = PropagationParams(sigma_db=8.0, detect_floor_dbm=-65.0)
        w = synth_window((0.0, 0.0), dep, params, duration_s=6.0, cadence_s=0.3, rng=default_rng(3))
        assert w.ap_ids == (1, 2)
        assert w.rss.shape == (20, 2)
        assert w.times.tolist() == (np.arange(20) * 0.3).tolist()
        unheard = np.isnan(w.rss[:, 1])
        assert unheard.any() and not unheard.all()
        assert (w.rss[~unheard, 1] >= -65.0).all()

    def test_integer_rounding(self):
        dep = ApDeployment(width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 9.0, 9.0)))
        params = PropagationParams(round_to_int=True)
        w = synth_window((3.0, 0.0), dep, params, duration_s=3.0, cadence_s=1.0, rng=default_rng(0))
        assert [r for _, r in w.aps[1]] == [-42.0] * 3  # round(-30 - 25 log10 3)
        assert all(r == float(round(r)) for s in w.aps.values() for _, r in s)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(gamma=0.0), "gamma"),
            (dict(d0_m=0.0), "d0_m"),
            (dict(sigma_db=-1.0), "sigma_db"),
            (dict(detect_floor_dbm=-math.inf), "detect_floor"),
            (dict(sigma_db=float("nan")), "sigma_db"),
            (dict(p0_dbm=float("nan")), "p0_dbm"),
            (dict(p0_dbm=float("inf")), "p0_dbm"),
            (dict(gamma=float("inf")), "gamma"),
            (dict(d0_m=float("inf")), "d0_m"),
            (dict(sigma_db=float("inf")), "sigma_db"),
            (dict(detect_floor_dbm=float("inf")), "detect_floor"),
            (dict(p0_dbm=-30.0, detect_floor_dbm=-20.0), r"^detect_floor_dbm -20\.0 .*p0_dbm -30\.0"),
        ],
    )
    def test_parameter_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            PropagationParams(**kwargs)

    def test_a_floor_at_the_loudest_sample_is_kept(self):
        # Every sample is capped at p0_dbm, rounded under round_to_int: a
        # floor at that cap hears an AP within d0, and one above it is refused.
        dep = ApDeployment(width=10.0, height=10.0, aps=((1, 0.0, 0.0), (2, 9.0, 9.0)))
        for p0, floor, round_to_int in [(-30.0, -30.0, False), (-30.3, -30.0, True), (-29.7, -30.0, True)]:
            params = PropagationParams(p0_dbm=p0, detect_floor_dbm=floor, round_to_int=round_to_int)
            w = synth_window((0.5, 0.0), dep, params, duration_s=2.0, cadence_s=1.0, rng=default_rng(0))
            assert w.ap_ids == (1,)
        for p0, floor in [(-30.3, -29.9), (-29.7, -29.8)]:
            message = rf"^detect_floor_dbm {floor} is above the loudest sample, -30\.0 \(p0_dbm {p0}\)"
            with pytest.raises(ValueError, match=message):
                PropagationParams(p0_dbm=p0, detect_floor_dbm=floor, round_to_int=True)


@pytest.fixture(scope="module")
def square_deployment():
    return ApDeployment(
        width=20.0,
        height=20.0,
        aps=((1, 2.0, 2.0), (2, 18.0, 2.0), (3, 18.0, 18.0), (4, 2.0, 18.0)),
    )


class TestSynthWindow:
    def test_instant_count_and_timestamps(self, square_deployment):
        params = PropagationParams()
        w = synth_window((10.0, 10.0), square_deployment, params,
                         duration_s=60.0, cadence_s=0.3, rng=default_rng(0))
        assert len(w.times) == instant_count(w.duration_s, w.cadence_s) == 200
        series = w.aps[1]
        assert len(series) == 200
        assert series[0][0] == 0.0
        assert series[199][0] == pytest.approx(199 * 0.3)

    def test_noise_free_samples_equal_the_model(self, square_deployment):
        params = PropagationParams()
        point = (5.0, 7.0)
        w = synth_window(point, square_deployment, params,
                         duration_s=3.0, cadence_s=1.0, rng=default_rng(0))
        assert set(w.aps) == {1, 2, 3, 4}
        for ap_id, series in w.aps.items():
            ax, ay = square_deployment.position(ap_id)
            expect = mean_rss(math.hypot(point[0] - ax, point[1] - ay), params)
            assert [r for _, r in series] == [expect] * 3

    def test_noise_free_aggregate_recovers_distance_order(self, square_deployment):
        params = PropagationParams()
        point = (6.0, 3.0)
        w = synth_window(point, square_deployment, params,
                         duration_s=6.0, cadence_s=0.3, rng=default_rng(0))
        scan = aggregate_scan(w)
        sig = tuple(sorted((1, 2, 3, 4), key=lambda i: (-scan.values[i], i)))
        dists = sorted(
            square_deployment.ap_ids,
            key=lambda i: (
                (point[0] - square_deployment.position(i)[0]) ** 2
                + (point[1] - square_deployment.position(i)[1]) ** 2,
                i,
            ),
        )
        assert sig == tuple(dists)

    def test_same_seed_reproduces_the_window(self, square_deployment):
        params = PropagationParams(sigma_db=3.0)
        w1 = synth_window((4.0, 9.0), square_deployment, params,
                          duration_s=6.0, cadence_s=0.3, rng=default_rng(42))
        w2 = synth_window((4.0, 9.0), square_deployment, params,
                          duration_s=6.0, cadence_s=0.3, rng=default_rng(42))
        assert w1.aps == w2.aps

    def test_different_seeds_differ(self, square_deployment):
        params = PropagationParams(sigma_db=3.0)
        w1 = synth_window((4.0, 9.0), square_deployment, params,
                          duration_s=6.0, cadence_s=0.3, rng=default_rng(1))
        w2 = synth_window((4.0, 9.0), square_deployment, params,
                          duration_s=6.0, cadence_s=0.3, rng=default_rng(2))
        assert w1.aps != w2.aps

    def test_shorter_window_is_a_prefix_of_longer(self, square_deployment):
        # Drawing the noise matrix row-by-row makes window length a pure
        # truncation for a generator restarted from the same seed.
        params = PropagationParams(sigma_db=3.0)
        point = (11.0, 13.0)
        short = synth_window(point, square_deployment, params,
                             duration_s=3.0, cadence_s=0.3,
                             rng=default_rng(7))
        long = synth_window(point, square_deployment, params,
                            duration_s=12.0, cadence_s=0.3,
                            rng=default_rng(7))
        for ap_id, series in short.aps.items():
            assert long.aps[ap_id][: len(series)] == series

    def test_out_of_range_aps_are_dropped(self):
        dep = ApDeployment(
            width=100.0, height=10.0, aps=((1, 1.0, 5.0), (2, 99.0, 5.0))
        )
        params = PropagationParams(detect_floor_dbm=-60.0)
        w = synth_window((2.0, 5.0), dep, params, duration_s=2.0, cadence_s=1.0, rng=default_rng(0))
        assert set(w.aps) == {1}

    def test_bad_schedule_rejected(self, square_deployment):
        with pytest.raises(ValueError, match="duration"):
            synth_window((1.0, 1.0), square_deployment, PropagationParams(),
                         duration_s=1.0, cadence_s=2.0, rng=default_rng(0))

    def test_oversized_window_refused_before_any_draw(self, square_deployment):
        class NoDraws:
            def normal(self, *args, **kwargs):
                raise AssertionError("noise drawn")

        # 10**9 instants x 4 APs: 32 GB of noise if it were drawn.
        with pytest.raises(ValueError, match=(
            f"^window of 1000000000 instants x 4 APs exceeds the limit of {MAX_WINDOW_SAMPLES} samples$"
        )):
            synth_window((1.0, 1.0), square_deployment, PropagationParams(sigma_db=3.0),
                         duration_s=1e6, cadence_s=0.001, rng=NoDraws())

    def test_window_at_the_sample_limit_is_drawn(self, square_deployment, monkeypatch):
        monkeypatch.setattr(propagation, "MAX_WINDOW_SAMPLES", 12)  # 3 instants x 4 APs
        params = PropagationParams(sigma_db=3.0)
        w = synth_window((1.0, 1.0), square_deployment, params,
                         duration_s=3.0, cadence_s=1.0, rng=default_rng(0))
        assert w.rss.shape == (3, 4)
        with pytest.raises(ValueError, match="window of 4 instants x 4 APs exceeds the limit of 12"):
            synth_window((1.0, 1.0), square_deployment, params,
                         duration_s=4.0, cadence_s=1.0, rng=default_rng(0))


class TestWindowHead:
    """aggregate_scan(window, d) aggregates the window's head: its first d seconds."""

    # At the centre every AP is ~2 sigma below the floor: seed 1 first
    # hears AP 3 at its eighth instant (2.1 s) and no other AP in 6 s.
    FAINT = PropagationParams(sigma_db=3.0, detect_floor_dbm=-50.0)

    def faint(self, square_deployment, duration_s):
        return synth_window((10.0, 10.0), square_deployment, self.FAINT,
                            duration_s=duration_s, cadence_s=0.3,
                            rng=default_rng(1))

    def test_head_of_own_duration_is_the_window(self, square_deployment):
        w = synth_window((4.0, 9.0), square_deployment, PropagationParams(sigma_db=3.0),
                         duration_s=6.0, cadence_s=0.3, rng=default_rng(0))
        assert aggregate_scan(w, 6.0).values == aggregate_scan(w).values

    def test_longer_head_rejected(self, square_deployment):
        w = self.faint(square_deployment, 6.0)
        with pytest.raises(ValueError, match="exceeds"):
            aggregate_scan(w, 6.5)

    def test_head_matches_the_shorter_simulated_window(self, square_deployment):
        long = self.faint(square_deployment, 6.0)
        assert long.ap_ids == (3,) and np.isnan(long.rss[:7]).all()
        head = aggregate_scan(long, 2.4).values
        assert head == aggregate_scan(self.faint(square_deployment, 2.4)).values
        assert set(head) == {3}

    def test_ap_first_heard_after_the_head_is_undetected(self):
        rss = np.full((20, 3), np.nan)
        rss[:, 0], rss[1, 1], rss[15, 2] = -50.0, -60.0, -70.0
        w = ScanWindow(np.arange(20.0), (1, 2, 3), rss, duration_s=20.0, cadence_s=1.0)
        # The floor is 10 % of the instants counted: 1 of 10, then 2 of 20.
        assert aggregate_scan(w, 10.0).values == {1: -50.0, 2: -60.0}
        assert aggregate_scan(w).values == {1: -50.0}

    def test_silent_head_has_no_signal(self, square_deployment):
        long = self.faint(square_deployment, 6.0)
        with pytest.raises(ValueError, match="no signal"):
            aggregate_scan(long, 1.5)
        with pytest.raises(ValueError, match="no signal"):
            aggregate_scan(self.faint(square_deployment, 1.5))


class TestTestPoints:
    def test_grid_mode_centers(self):
        points = gen_test_points(9.0, 6.0, 3, mode="grid", rng=default_rng(0))
        assert points == [
            (1.5, 1.0), (4.5, 1.0), (7.5, 1.0),
            (1.5, 3.0), (4.5, 3.0), (7.5, 3.0),
            (1.5, 5.0), (4.5, 5.0), (7.5, 5.0),
        ]

    def test_random_mode_is_deterministic(self):
        a = gen_test_points(30.0, 20.0, 27, rng=default_rng(5))
        b = gen_test_points(30.0, 20.0, 27, rng=default_rng(5))
        assert a == b
        assert gen_test_points(30.0, 20.0, 27, rng=default_rng(6)) != a

    def test_random_points_are_strictly_inside(self):
        for x, y in gen_test_points(12.0, 7.0, 500, rng=default_rng(3)):
            assert 0.0 < x < 12.0
            assert 0.0 < y < 7.0

    def test_longer_list_extends_shorter(self):
        short = gen_test_points(30.0, 20.0, 10, rng=default_rng(9))
        long = gen_test_points(30.0, 20.0, 25, rng=default_rng(9))
        assert long[:10] == short

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            gen_test_points(10.0, 10.0, 4, mode="spiral", rng=default_rng(0))

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError, match="count"):
            gen_test_points(10.0, 10.0, 0, rng=default_rng(0))
