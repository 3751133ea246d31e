"""Protocol Monte Carlo: cloud sampling, blockaded write, shots, clicks, g2.

Independent oracles used here:
  * Gaussian and Poisson moments for the sampling stages (sample std,
    count means),
  * hard-sphere geometry: pairwise distances checked directly against r_o,
  * analytic photon statistics of n independent thinned emitters,
    g2(0) = 1 - 1/n, and g2 = 1 for Poissonian light (binomial/Poisson
    factorial-moment algebra),
  * the background-correction identity g2 -> (g2 - (1 - rho^2))/rho^2,
  * the drift side-peak level 1 + Var/Mean^2 for a sinusoid whose relative
    standard deviation is 0.30 (analytic variance),
  * the interactions module's return probability at closed-form limits
    (no drive, no pulse, strong drive).
"""

import concurrent.futures
import math
import re
import tracemalloc
from dataclasses import replace
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydpol.config import ExperimentConfig, RB60_PAIR, optical_blockade_radius
import rydpol.interactions as interactions
import rydpol.montecarlo as montecarlo
from rydpol.interactions import _scan_return_probabilities
from rydpol.montecarlo import (
    BASE_RETRIEVAL_EFFICIENCY,
    WRITE_EFFICIENCY,
    _register_return_probability,
    _shot_chunk,
    _worker_count,
    _detector_codes,
    _pulse_index,
    _written_register,
    ClickRecord,
    CloudSample,
    DriftSpec,
    G2Result,
    background_correct_g2,
    efficiency_drift_model,
    emitter_photon_counts,
    generate_click_stream,
    hbt_g2,
    poisson_photon_counts,
    run_shots,
    sample_positions,
    simulate_hbt_run,
    simulate_rabi_scan,
    write_polaritons,
)
from rydpol.rng import MAX_INDEX, philox_stream

CFG = ExperimentConfig()
R_O = optical_blockade_radius(RB60_PAIR.c6, CFG.eit_width)
NO_BACKGROUND = replace(CFG, background_rate=0.0)
IDEAL = replace(CFG, detection_efficiency=1.0, background_rate=0.0)


def sequential_write(positions, r_o):
    """Reference blockaded write: one candidate at a time, in sampled order."""
    accepted = []
    for point in positions:
        if all(np.linalg.norm(point - prior) >= r_o for prior in accepted):
            accepted.append(point)
    return np.array(accepted, dtype=float).reshape(-1, 3)


def single_shot(config, omega, pulse, seed, trial):
    """The detected count of one trial, drawn alone."""
    return _shot_chunk(config, RB60_PAIR, omega, pulse, seed, [trial])[0]


def trial_writes(config, seed, trials):
    """_written_register of each trial, one bit generator for all, as the shot path draws them."""
    bit_generator = np.random.Philox()
    return (_written_register(config, R_O, seed, t, bit_generator) for t in trials)


def reference_g2(clicks, max_delay, norm_range=(5, 50)):
    """hbt_g2 with one full-length dot product per delay.

    Returns (coincidences, g2, statistical_error, side_peak_level), which
    hbt_g2 must reproduce bit for bit.
    """
    n = clicks.n_trials
    pulse = np.floor_divide(clicks.times, clicks.repetition_period).astype(int)
    in_range = pulse < n
    side = clicks.detectors[in_range]
    pulse = pulse[in_range]
    a = np.bincount(pulse[side == "A"], minlength=n).astype(float)
    b = np.bincount(pulse[side == "B"], minlength=n).astype(float)
    ks = np.arange(-max_delay, max_delay + 1)
    coincidences = np.array([a[:n - k] @ b[k:] if k >= 0 else a[-k:] @ b[:n + k]
                             for k in ks])
    pairs = (n - np.abs(ks)).astype(float)
    rate = coincidences / pairs
    k_lo, k_hi = norm_range
    in_norm = (np.abs(ks) >= k_lo) & (np.abs(ks) <= k_hi)
    norm = float(np.mean(rate[in_norm]))
    norm_err = float(np.sqrt(np.sum(coincidences[in_norm])) / np.sum(pairs[in_norm]))
    g2 = rate / norm
    relative_norm = norm_err / norm
    inverse = np.divide(1.0, coincidences, out=np.zeros_like(coincidences),
                        where=coincidences > 0)
    g2_err = np.where(coincidences > 0, g2 * np.sqrt(inverse + relative_norm ** 2), 0.0)
    return coincidences, g2, g2_err, norm / float(np.mean(a) * np.mean(b))


class TestCloudSampling:
    def test_sample_std_matches_cloud_widths(self):
        cloud = sample_positions(CFG, 100_000, 5)
        stds = cloud.positions.std(axis=0)
        assert 0.99 * CFG.cloud_wr < stds[0] < 1.01 * CFG.cloud_wr
        assert 0.99 * CFG.cloud_wr < stds[1] < 1.01 * CFG.cloud_wr
        assert 0.99 * CFG.cloud_wz < stds[2] < 1.01 * CFG.cloud_wz

    def test_deterministic(self):
        a = sample_positions(CFG, 50, 9, index=3)
        b = sample_positions(CFG, 50, 9, index=3)
        assert np.array_equal(a.positions, b.positions)
        assert not np.array_equal(
            a.positions, sample_positions(CFG, 50, 9, index=4).positions)

    def test_single_candidate(self):
        cloud = sample_positions(CFG, 1, 2)
        assert len(cloud.positions) == 1
        assert cloud.positions.shape == (1, 3)

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_count_validation(self, count):
        with pytest.raises(ValueError):
            sample_positions(CFG, count, 1)

    def test_drawn_cloud_equals_the_checked_sample(self):
        cloud = sample_positions(CFG, 7, 12)
        checked = CloudSample(cloud.positions.copy())
        assert type(cloud) is CloudSample
        assert cloud.positions.dtype == float and cloud.positions.shape == (7, 3)
        assert np.array_equal(cloud.positions, checked.positions)
        assert np.all(np.isfinite(cloud.positions))

    def test_cloud_sample_validation(self):
        with pytest.raises(ValueError):
            CloudSample(positions=np.ones((3, 2)))
        with pytest.raises(ValueError):
            CloudSample(positions=np.full((2, 3), np.nan))


class TestBlockadedWrite:
    def test_distant_candidates_all_accepted(self):
        positions = np.array([[0.0, 0, 0], [50.0, 0, 0], [0, 0, 90.0]])
        result = write_polaritons(CloudSample(positions), R_O)
        assert result.n_polaritons == 3

    def test_giant_radius_accepts_exactly_one(self):
        cloud = sample_positions(CFG, 40, 8)
        result = write_polaritons(cloud, 1e4)
        assert result.n_polaritons == 1
        assert result.n_candidates == 40

    def test_tiny_radius_accepts_all_candidates(self):
        cloud = sample_positions(CFG, 40, 8)
        result = write_polaritons(cloud, 1e-9)
        assert result.n_polaritons == 40

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=2, max_value=25))
    @settings(max_examples=40, deadline=None)
    def test_blockade_invariant_and_bound(self, seed, count):
        # Hard-sphere guarantee: no accepted pair is closer than r_o, and
        # the accepted number never exceeds the candidate number.  The
        # acceptances are candidates in sampled order, and every rejected
        # candidate lies within r_o of a polariton accepted before it.
        cloud = sample_positions(CFG, count, seed)
        result = write_polaritons(cloud, R_O)
        assert 1 <= result.n_polaritons <= count
        pos = result.polariton_positions
        if result.n_polaritons > 1:
            dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
            np.fill_diagonal(dists, np.inf)
            assert dists.min() >= R_O
        taken = 0
        for point in cloud.positions:
            if taken < len(pos) and np.array_equal(point, pos[taken]):
                taken += 1
            else:
                assert np.any(np.linalg.norm(pos[:taken] - point, axis=-1) < R_O)
        assert taken == len(pos)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(1, 30),
           st.floats(0.5, 40.0), st.sampled_from([2, 3, 256]))
    @settings(max_examples=60, deadline=None)
    def test_matches_sequential_loop(self, seed, count, r_o, block):
        # Every other candidate is moved to within a few rounding steps of
        # r_o from candidate 0, so near-ties at the blockade radius are
        # exercised; small blocks exercise the distances to acceptances of
        # earlier blocks.
        rng = np.random.default_rng(seed)
        positions = sample_positions(CFG, count, seed).positions.copy()
        for m in range(1, count, 2):
            direction = rng.normal(size=3)
            scale = r_o / float(np.linalg.norm(direction))
            positions[m] = positions[0] + direction * np.nextafter(
                scale, [0.0, scale, np.inf][m % 3])
        cloud = CloudSample(positions)
        with patch.object(montecarlo, "_WRITE_BLOCK", block):
            result = write_polaritons(cloud, r_o)
        expected = sequential_write(positions, r_o)
        assert np.array_equal(result.polariton_positions, expected)
        assert result.n_candidates == len(positions)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(1, 600),
           st.floats(3.0, 40.0))
    @settings(max_examples=30, deadline=None)
    @example(seed=5, count=montecarlo._WRITE_BLOCK, r_o=3.0)
    @example(seed=5, count=montecarlo._WRITE_BLOCK + 1, r_o=3.0)
    def test_sampled_clouds_match_sequential_loop(self, seed, count, r_o):
        # the clouds the write path draws, one block and several, with no
        # CloudSample check run on them
        cloud = sample_positions(CFG, count, seed)
        result = write_polaritons(cloud, r_o)
        expected = sequential_write(cloud.positions, r_o)
        assert np.array_equal(result.polariton_positions, expected)
        assert result.n_candidates == count
        pos = result.polariton_positions
        dists = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
        np.fill_diagonal(dists, np.inf)
        assert np.all(dists >= r_o)

    def test_result_does_not_alias_the_cloud(self):
        cloud = sample_positions(CFG, 6, 3)
        result = write_polaritons(cloud, R_O)
        result.polariton_positions[...] = 0.0
        assert np.all(cloud.positions != 0.0)

    def test_mean_stored_number_near_three(self):
        # Write-stage calibration: Poisson candidates thinned by the
        # hard-sphere blockade at the default geometry store about three
        # polaritons on average (measured 3.04 +/- 0.02 at this seed).
        ns = np.array([w.n_polaritons for w in trial_writes(CFG, 7, range(10_000))])
        assert 2.5 <= ns.mean() <= 3.7

    def test_n_polaritons_counts_the_stored_positions(self):
        # dim light so that some trials draw no candidate at all
        writes = list(trial_writes(replace(CFG, mean_input_photons=2.0), 9, range(300)))
        assert {w.n_polaritons for w in writes} >= {0, 1, 2}
        for write in writes:
            assert write.polariton_positions.shape == (write.n_polaritons, 3)
            assert write.n_polaritons <= write.n_candidates

    @pytest.mark.parametrize("r_o", [0.0, -1.0, math.inf])
    def test_radius_validation(self, r_o):
        cloud = sample_positions(CFG, 5, 1)
        with pytest.raises(ValueError):
            write_polaritons(cloud, r_o)


class TestSimulateShot:
    def test_zero_drive_baseline_matches_retrieval_efficiency(self):
        # With no pulse every polariton survives, so the ideal-configuration
        # mean detected count is BASE_RETRIEVAL_EFFICIENCY times the mean
        # stored number (z-test against the write-stage estimate).
        counts = run_shots(IDEAL, RB60_PAIR, 0.0, 0.0, 20_000, 3)
        ns = np.array([w.n_polaritons for w in trial_writes(IDEAL, 3, range(20_000))])
        expected = BASE_RETRIEVAL_EFFICIENCY * ns.mean()
        sem = counts.std() / math.sqrt(counts.size)
        assert abs(counts.mean() - expected) < 3.0 * sem

    def test_zero_pulse_equals_zero_drive_bit_identical(self):
        # pulse_duration=0 consumes no dynamics randomness, so it must agree
        # with omega=0 draw for draw.
        a = run_shots(CFG, RB60_PAIR, 35.0, 0.0, 500, 11)
        b = run_shots(CFG, RB60_PAIR, 0.0, 0.4, 500, 11)
        assert np.array_equal(a, b)

    def test_strong_pi_pulse_suppresses_retrieval(self):
        # Theta=pi at drive far above every pairwise coupling parks the
        # register in the all-p0 state: retrieval collapses to background
        # (here zero), staying below 5% of the no-pulse signal.
        strong = run_shots(IDEAL, RB60_PAIR, 200.0, 1.0 / 400.0, 4000, 5)
        base = run_shots(IDEAL, RB60_PAIR, 200.0, 0.0, 4000, 5)
        assert base.mean() > 0
        assert strong.mean() <= 0.05 * base.mean()

    def test_deterministic_per_trial(self):
        serial = [single_shot(CFG, 12.0, 0.1, 21, t) for t in range(40)]
        assert np.array_equal(run_shots(CFG, RB60_PAIR, 12.0, 0.1, 40, 21), serial)

    def test_threads_bit_identical(self):
        single = run_shots(CFG, RB60_PAIR, 9.0, 0.15, 128, 4, threads=1)
        double = run_shots(CFG, RB60_PAIR, 9.0, 0.15, 128, 4, threads=2)
        assert np.array_equal(single, double)

    def test_validation(self):
        with pytest.raises(ValueError, match="pulse_duration"):
            run_shots(CFG, RB60_PAIR, 10.0, CFG.storage_time + 0.1, 1, 1)
        with pytest.raises(ValueError, match="pulse_duration"):
            run_shots(CFG, RB60_PAIR, 10.0, -0.01, 1, 1)
        with pytest.raises(ValueError, match="omega_mu"):
            run_shots(CFG, RB60_PAIR, -5.0, 0.1, 1, 1)
        with pytest.raises(ValueError, match="trials"):
            run_shots(CFG, RB60_PAIR, 10.0, 0.1, 0, 1)

    @pytest.mark.parametrize("omega, pulse, seed, error, message", [
        (-5.0, 0.1, 1, ValueError, "omega_mu"), (math.nan, 0.1, 1, ValueError, "omega_mu"),
        (math.inf, 0.1, 1, ValueError, "omega_mu"),
        (10.0, -0.01, 1, ValueError, "pulse_duration"),
        (10.0, CFG.storage_time + 0.1, 1, ValueError, "pulse_duration"),
        (10.0, math.nan, 1, ValueError, "pulse_duration"),
        (10.0, 0.1, -1, ValueError, "master_seed"), (10.0, 0.1, 2 ** 64, ValueError, "master_seed"),
        (10.0, 0.1, 1.5, TypeError, "master_seed"), (10.0, 0.1, "x", TypeError, "master_seed")])
    def test_run_shots_checks_inputs_before_starting_a_pool(self, monkeypatch, omega, pulse,
                                                             seed, error, message):
        # No process is started: a pool that fails when it is built stands in.
        def refused(*args, **kwargs):
            raise AssertionError("run_shots started a worker pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        with pytest.raises(error, match=message):
            run_shots(CFG, RB60_PAIR, omega, pulse, 128, seed, threads=4)

    def test_largest_stream_index_is_checked_before_any_draw(self):
        # a run whose trials, or scan attempts, would need an index past the
        # label capacity is refused before it draws or allocates anything
        with patch.object(montecarlo, "_written_register", side_effect=AssertionError):
            with pytest.raises(ValueError, match="index"):
                run_shots(CFG, RB60_PAIR, 2.0, 0.15, MAX_INDEX + 1, 1)
            with pytest.raises(ValueError, match="index"):
                simulate_rabi_scan(CFG, RB60_PAIR, [1.0], 0.15, 100, 1,
                                   geometry_samples=MAX_INDEX // 10_000 + 1)
        assert run_shots(CFG, RB60_PAIR, 2.0, 0.15, 3, 1).size == 3


class TestShotStreams:
    """The shot path re-keys one bit generator; its draws are those of fresh streams."""

    @staticmethod
    def reference_write(config, seed, trial):
        """A trial's stored positions, from the public streams, cloud and write alone."""
        n = int(philox_stream(seed, montecarlo._STAGE_CANDIDATES, trial)
                .poisson(config.mean_input_photons * WRITE_EFFICIENCY))
        if n == 0:
            return np.empty((0, 3))
        return write_polaritons(sample_positions(config, n, seed, index=trial),
                                R_O).polariton_positions

    def reference_count(self, config, omega, t, seed, trial):
        positions = self.reference_write(config, seed, trial)
        p = _register_return_probability(positions, omega, RB60_PAIR.c3, t)
        rng = philox_stream(seed, montecarlo._STAGE_DETECT, trial)
        detected = 0
        if len(positions):
            retrieved = rng.binomial(len(positions), p * BASE_RETRIEVAL_EFFICIENCY)
            detected = rng.binomial(retrieved, config.detection_efficiency)
        return detected + rng.poisson(config.background_rate * config.window_duration)

    def test_writes_match_fresh_streams(self):
        trials = range(400)
        expected = [self.reference_write(CFG, 17, t) for t in trials]
        for got, want in zip(trial_writes(CFG, 17, trials), expected, strict=True):
            assert np.array_equal(got.polariton_positions, want)
        assert sum(len(w) for w in expected) > 400

    def test_counts_match_fresh_streams(self):
        # a drive strong enough to rotate, and a brighter detector, so that
        # counts are not all background
        config = replace(CFG, detection_efficiency=1.0)
        expected = [self.reference_count(config, 6.0, 0.05, 29, t) for t in range(300)]
        counts = run_shots(config, RB60_PAIR, 6.0, 0.05, 300, 29)
        assert counts.tolist() == expected
        assert [single_shot(config, 6.0, 0.05, 29, t)
                for t in range(0, 300, 37)] == expected[::37]
        assert counts.sum() > 0

    def test_interleaved_calls_change_nothing(self):
        # two shots' writes alternate on two bit generators, then on one
        first, second = np.random.Philox(), np.random.Philox()
        for a, b in [(5, 8), (11, 3)]:
            for bit_generators in [(first, second), (first, first)]:
                write_a = _written_register(CFG, R_O, 41, a, bit_generators[0])
                write_b = _written_register(CFG, R_O, 41, b, bit_generators[1])
                assert np.array_equal(write_a.polariton_positions,
                                      self.reference_write(CFG, 41, a))
                assert np.array_equal(write_b.polariton_positions,
                                      self.reference_write(CFG, 41, b))
        # one chunk's shared bit generator: order and repeats do not matter
        trials = [7, 3, 7, 12, 3]
        chunk = _shot_chunk(CFG, RB60_PAIR, 6.0, 0.05, 41, trials)
        assert chunk == [single_shot(CFG, 6.0, 0.05, 41, t) for t in trials]


class TestClickStream:
    def test_event_count_without_background(self):
        counts = np.array([0, 2, 1, 0, 3])
        clicks = generate_click_stream(NO_BACKGROUND, counts, 13)
        assert clicks.times.size == counts.sum()
        assert clicks.n_trials == counts.size

    def test_offsets_stay_inside_window(self):
        counts = poisson_photon_counts(1.2, 3000, 17)
        clicks = generate_click_stream(CFG, counts, 17)
        offsets = np.mod(clicks.times, CFG.repetition_period)
        start, end = CFG.retrieval_window
        assert offsets.min() >= start
        assert offsets.max() < end

    def test_sorted_and_balanced_detectors(self):
        counts = poisson_photon_counts(1.2, 5000, 19)
        clicks = generate_click_stream(CFG, counts, 19)
        assert np.all(np.diff(clicks.times) >= 0)
        frac_a = np.mean(clicks.detectors == "A")
        assert 0.45 < frac_a < 0.55

    def test_deterministic(self):
        counts = np.array([1, 2, 0, 1])
        a = generate_click_stream(CFG, counts, 23)
        b = generate_click_stream(CFG, counts, 23)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.detectors, b.detectors)

    def test_empty_record_is_valid(self):
        clicks = generate_click_stream(NO_BACKGROUND, np.zeros(10, dtype=int), 3)
        assert clicks.times.size == 0
        assert clicks.detectors.size == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_click_stream(CFG, np.array([]), 1)
        with pytest.raises(ValueError):
            generate_click_stream(CFG, np.array([1, -2]), 1)
        with pytest.raises(ValueError):
            ClickRecord(times=np.array([2.0, 1.0]), detectors=np.array(["A", "B"]),
                        n_trials=2, repetition_period=6.0)
        with pytest.raises(ValueError):
            ClickRecord(times=np.array([1.0]), detectors=np.array(["C"]),
                        n_trials=1, repetition_period=6.0)
        for period in (0.0, -6.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="repetition_period"):
                ClickRecord(times=np.array([1.0]), detectors=np.array(["A"]),
                            n_trials=1, repetition_period=period)

    @pytest.mark.parametrize("counts", [[1.5, 2.9, 0.2], [1.0, 0.5], np.array([2, 1e-9])])
    def test_non_integral_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="whole numbers"):
            generate_click_stream(NO_BACKGROUND, counts, 1)

    def test_whole_float_counts_place_as_integers(self):
        floats = generate_click_stream(CFG, [1.0, 0.0, 2.0], 7)
        ints = generate_click_stream(CFG, np.array([1, 0, 2]), 7)
        assert np.array_equal(floats.times, ints.times)
        assert np.array_equal(floats.detectors, ints.detectors)

    @pytest.mark.parametrize("n_trials", [2.5, 2.0, 0, -1, "3", None])
    def test_n_trials_must_be_a_positive_integer(self, n_trials):
        with pytest.raises(ValueError, match="positive integer"):
            ClickRecord(times=np.array([1.1]), detectors=np.array(["A"]),
                        n_trials=n_trials, repetition_period=6.0)


LABEL_CASES = [(container, label) for container in ("<U1", "<U2", "object", "list")
               for label in ("A", "B", "C", "AB", "")
               if not (container == "<U1" and len(label) > 1)]


def labels_in(container, labels):
    return list(labels) if container == "list" else np.array(labels, dtype=container)


class TestDetectorLabels:
    @pytest.mark.parametrize("container, label", LABEL_CASES)
    def test_only_a_and_b_pass(self, container, label):
        detectors = labels_in(container, ["A", label, "B"])
        build = partial(ClickRecord, times=np.array([1.1, 7.2, 13.3]), detectors=detectors,
                        n_trials=3, repetition_period=6.0)
        if label in ("A", "B"):
            assert build().n_trials == 3
            assert _detector_codes(detectors).tolist() == [65, ord(label), 66]
        else:
            with pytest.raises(ValueError, match="'A' or 'B'"):
                build()
            with pytest.raises(ValueError, match="'A' or 'B'"):
                _detector_codes(detectors)

    @pytest.mark.parametrize("container", ["<U2", "object", "list"])
    def test_other_label_containers_correlate_alike(self, container):
        clicks = generate_click_stream(CFG, emitter_photon_counts(3, 0.35, 2000, 8), 8)
        other = replace(clicks, detectors=labels_in(container, clicks.detectors.tolist()))
        assert g2_fields(hbt_g2(other)) == g2_fields(hbt_g2(clicks))


def g2_fields(result):
    """Every G2Result field, as plain lists and floats."""
    return [np.asarray(getattr(result, name)).tolist() for name in (
        "tau_bins", "g2", "statistical_error", "coincidence_counts", "g2_zero",
        "g2_zero_err", "side_peak_level")]


class TestPulseIndex:
    @given(st.sampled_from([6.0, 0.1, 3.7, 1e-3]),
           st.lists(st.integers(0, 10 ** 6), min_size=1, max_size=40),
           st.floats(0.0, 1.0, exclude_max=True))
    @settings(max_examples=60, deadline=None)
    def test_equals_floor_divide(self, period, pulses, fraction):
        # events on, just below and just above period boundaries, and inside a period
        edges = np.array(pulses, dtype=float) * period
        times = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, np.inf),
                                edges + fraction * period])
        times = np.sort(times[times >= 0])
        assert np.array_equal(_pulse_index(times, period), np.floor_divide(times, period))


class TestHbtG2:
    def test_three_emitters_antibunch_to_two_thirds(self):
        # n independent single-photon emitters give g2(0) = 1 - 1/n = 2/3,
        # independent of thinning.  Measured 0.6669 +/- 0.0049 at this seed.
        result = simulate_hbt_run(CFG, 100_000, 42)
        assert abs(result.g2_zero - 2.0 / 3.0) <= 2.0 * result.g2_zero_err
        assert abs(result.g2_zero - 2.0 / 3.0) <= 0.02

    def test_single_emitter_never_coincides(self):
        # One photon per pulse cannot produce a same-pulse A-B pair, so with
        # background off the zero-delay bin is exactly empty.
        result = simulate_hbt_run(NO_BACKGROUND, 60_000, 42, n_emitters=1)
        assert result.g2_zero == 0.0
        zero_bin = np.flatnonzero(result.tau_bins == 0.0)[0]
        assert result.coincidence_counts[zero_bin] == 0

    def test_poisson_light_is_flat(self):
        # Coherent light factorizes: every bin consistent with 1.  The seeded
        # realization keeps g2(0) within 3 sigma and all 121 bins within 4
        # sigma (121 draws make a single >3-sigma bin unremarkable).
        counts = poisson_photon_counts(1.05, 100_000, 42)
        clicks = generate_click_stream(NO_BACKGROUND, counts, 42)
        result = hbt_g2(clicks)
        z0 = abs(result.g2_zero - 1.0) / result.g2_zero_err
        assert z0 <= 3.0
        has_counts = result.coincidence_counts > 0
        z = np.abs(result.g2[has_counts] - 1.0) / result.statistical_error[has_counts]
        assert z.max() <= 4.0

    def test_background_only_is_flat(self):
        bg_only = replace(CFG, background_rate=0.08)
        clicks = generate_click_stream(bg_only, np.zeros(60_000, dtype=int), 9)
        result = hbt_g2(clicks)
        assert abs(result.g2_zero - 1.0) <= 3.0 * result.g2_zero_err

    def test_side_level_near_one_without_drift(self):
        result = simulate_hbt_run(CFG, 100_000, 42)
        assert abs(result.side_peak_level - 1.0) < 0.02

    def test_error_bars_shrink_like_root_trials(self):
        small = simulate_hbt_run(CFG, 10_000, 11)
        large = simulate_hbt_run(CFG, 40_000, 11)
        ratio = small.g2_zero_err / large.g2_zero_err
        assert 1.6 < ratio < 2.5

    def test_uniform_thinning_preserves_g2(self):
        # Amplitude-zero drift keeps every event, so the record and its
        # correlation are bit-identical: normalized g2 ignores the overall
        # efficiency scale.
        counts = emitter_photon_counts(3, 0.35, 20_000, 31)
        clicks = generate_click_stream(CFG, counts, 31)
        thinned = efficiency_drift_model(clicks, DriftSpec(amplitude=0.0))
        assert np.array_equal(clicks.times, thinned.times)
        assert hbt_g2(clicks).g2_zero == hbt_g2(thinned).g2_zero

    def test_error_paths(self):
        counts = emitter_photon_counts(3, 0.35, 2_000, 31)
        clicks = generate_click_stream(CFG, counts, 31)
        with pytest.raises(ValueError, match="two events"):
            hbt_g2(replace(clicks, times=clicks.times[:1],
                           detectors=clicks.detectors[:1]))
        with pytest.raises(ValueError, match=r"cover the normalization range \(5, 50\)"):
            hbt_g2(clicks, max_delay=4)
        with pytest.raises(ValueError, match="number of trials"):
            hbt_g2(clicks, max_delay=3000)

    @given(st.sampled_from([50, 64, 65, 200]), st.integers(1, 300), st.integers(0, 3),
           st.integers(1, 4), st.integers(0, 2 ** 32 - 1), st.booleans())
    @example(50, 1, 0, 3, 1, False)    # trials = max_delay + 1
    @example(64, 1, 0, 2, 2, True)
    @example(65, 1, 0, 3, 3, False)
    @example(200, 1, 0, 3, 4, True)
    @example(64, 64, 0, 3, 5, False)   # trials a multiple of 64
    @settings(max_examples=60, deadline=None)
    def test_matches_per_delay_loop(self, max_delay, extra, dropped, n_emitters, seed,
                                    drifted):
        # the last `dropped` pulses hold events past the run, which both drop
        trials = max_delay + extra + dropped
        counts = emitter_photon_counts(n_emitters, 0.6, trials, seed)
        clicks = generate_click_stream(replace(CFG, background_rate=0.2), counts, seed)
        if drifted:
            clicks = efficiency_drift_model(clicks, DriftSpec(amplitude=0.4, rng_seed=seed))
        clicks = replace(clicks, n_trials=trials - dropped)
        coincidences, g2, g2_err, side_level = reference_g2(clicks, max_delay)
        result = hbt_g2(clicks, max_delay=max_delay)
        assert np.array_equal(result.coincidence_counts, coincidences.astype(np.int64))
        assert np.array_equal(result.g2, g2)
        assert np.array_equal(result.statistical_error, g2_err)
        assert result.side_peak_level == side_level
        assert result.g2_zero == g2[max_delay]

    def test_memory_stays_linear_in_max_delay(self):
        # Rows of 64 pulses need one 64 x 64 product per row offset, about
        # 2.5 MiB of offsets at max_delay 5000; a single block as wide as
        # max_delay would need a 5000 x 5000 product, 190 MiB.
        clicks = generate_click_stream(CFG, emitter_photon_counts(3, 0.35, 20_000, 5), 5)
        tracemalloc.start()
        try:
            result = hbt_g2(clicks, max_delay=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.g2.size == 10_001
        assert peak < 4 * 2 ** 20

    def test_max_delay_must_be_an_integer(self):
        clicks = generate_click_stream(CFG, emitter_photon_counts(3, 0.35, 2_000, 31), 31)
        with pytest.raises(ValueError, match="max_delay must be an integer, got 60.5"):
            hbt_g2(clicks, max_delay=60.5)
        assert g2_fields(hbt_g2(clicks, max_delay=np.int64(60))) == g2_fields(hbt_g2(clicks))

    def test_g2_result_validation(self):
        with pytest.raises(ValueError):
            G2Result(tau_bins=np.array([0.0]), g2=np.array([-0.1]),
                     statistical_error=np.array([0.1]),
                     coincidence_counts=np.array([5]), g2_zero=-0.1,
                     g2_zero_err=0.1, side_peak_level=1.0)
        with pytest.raises(ValueError):
            G2Result(tau_bins=np.array([0.0]), g2=np.array([1.0]),
                     statistical_error=np.array([0.0]),
                     coincidence_counts=np.array([5]), g2_zero=1.0,
                     g2_zero_err=0.0, side_peak_level=1.0)


# --------------------------------------------------------------------------
# The click pipeline in blocks against whole-run oracles

def whole_run_click_stream(config, counts, seed):
    """generate_click_stream drawing and sorting the whole run at once."""
    counts = np.asarray(counts).astype(np.int64)
    n_trials = counts.size
    rng = philox_stream(seed, montecarlo._STAGE_CLICKS)
    start, end = config.retrieval_window
    center = 0.5 * (start + end)
    sigma = montecarlo.RETRIEVAL_PULSE_FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))
    pulse_starts = np.arange(n_trials, dtype=float)
    pulse_starts *= config.repetition_period
    signal = rng.normal(center, sigma, size=int(counts.sum()))
    outside = (signal < start) | (signal >= end)
    while np.any(outside):
        signal[outside] = rng.normal(center, sigma, size=int(outside.sum()))
        outside = (signal < start) | (signal >= end)
    signal += np.repeat(pulse_starts, counts)
    background_counts = rng.poisson(config.background_rate * config.window_duration,
                                    size=n_trials)
    background = rng.uniform(start, end, size=int(background_counts.sum()))
    background += np.repeat(pulse_starts, background_counts)
    times = np.concatenate([signal, background])
    order = np.argsort(times, kind="stable")
    codes = rng.integers(0, 2, size=times.size).astype(np.uint32)
    codes += ord("A")
    return ClickRecord(times=times[order], detectors=codes[order].view("<U1"),
                       n_trials=n_trials, repetition_period=config.repetition_period)


def whole_run_drift(clicks, drift_spec):
    """efficiency_drift_model deciding every event in one draw."""
    keep_probability = drift_spec.modulation(
        np.floor_divide(clicks.times, clicks.repetition_period))
    rng = philox_stream(drift_spec.rng_seed, montecarlo._STAGE_DRIFT)
    kept = np.flatnonzero(rng.random(clicks.times.size) < keep_probability)
    return replace(clicks, times=clicks.times.take(kept),
                   detectors=clicks.detectors.take(kept))


def whole_run_g2(clicks, max_delay):
    """hbt_g2 on float per-pulse counts of the whole run, one product per row offset."""
    n_trials = clicks.n_trials
    row = 64
    padded = -(-n_trials // row) * row
    keys = np.floor_divide(clicks.times, clicks.repetition_period).astype(np.int64)
    np.minimum(keys, n_trials, out=keys)
    keys[clicks.detectors == "B"] += padded + 1
    counts = np.zeros((2, padded + 1))
    np.add.at(counts.reshape(-1), keys, 1.0)
    counts[:, n_trials:] = 0.0
    counts_a, counts_b = counts[:, :padded]
    a = counts_a.reshape(-1, row)
    b = counts_b.reshape(-1, row)
    rows = a.shape[0]
    reach = -(-max_delay // row)
    diagonal = (np.arange(row) - np.arange(row)[:, None] + row - 1).ravel()
    span = reach * row + row - 1
    sums = np.zeros(2 * span + 1)
    for d in range(-reach, reach + 1):
        product = a[:rows - d].T @ b[d:] if d >= 0 else a[-d:].T @ b[:rows + d]
        first = span + d * row - (row - 1)
        sums[first:first + 2 * row - 1] += np.bincount(
            diagonal, weights=product.ravel(), minlength=2 * row - 1)
    coincidences = sums[span - max_delay:span + max_delay + 1]

    ks = np.arange(-max_delay, max_delay + 1)
    pairs = (n_trials - np.abs(ks)).astype(float)
    rate = coincidences / pairs
    in_norm = (np.abs(ks) >= 5) & (np.abs(ks) <= 50)
    norm = float(np.mean(rate[in_norm]))
    norm_err = float(np.sqrt(np.sum(coincidences[in_norm])) / np.sum(pairs[in_norm]))
    g2 = rate / norm
    relative_norm = norm_err / norm
    inverse = np.divide(1.0, coincidences, out=np.zeros_like(coincidences),
                        where=coincidences > 0)
    g2_err = np.where(coincidences > 0, g2 * np.sqrt(inverse + relative_norm ** 2), 0.0)
    uncorrelated = float(np.mean(counts_a[:n_trials]) * np.mean(counts_b[:n_trials]))
    return G2Result(tau_bins=ks * clicks.repetition_period, g2=g2, statistical_error=g2_err,
                    coincidence_counts=coincidences.astype(np.int64),
                    g2_zero=float(g2[max_delay]), g2_zero_err=float(g2_err[max_delay]),
                    side_peak_level=norm / uncorrelated if uncorrelated > 0 else math.inf)


def record_bytes(clicks):
    return (clicks.times.tobytes(), clicks.detectors.tobytes(), clicks.detectors.dtype,
            clicks.n_trials, clicks.repetition_period)


def g2_bytes(result):
    return [np.asarray(getattr(result, name)).tobytes() for name in (
        "tau_bins", "g2", "statistical_error", "coincidence_counts", "g2_zero",
        "g2_zero_err", "side_peak_level")]


def check_pipeline_against_whole_run(config, counts, seed, max_delays=(60,)):
    """Clicks, drifted clicks and their g2 equal the whole-run oracles byte for byte."""
    clicks = generate_click_stream(config, counts, seed)
    assert record_bytes(clicks) == record_bytes(whole_run_click_stream(config, counts, seed))
    drifted = efficiency_drift_model(clicks, DriftSpec(amplitude=0.5, rng_seed=seed))
    assert record_bytes(drifted) == record_bytes(
        whole_run_drift(clicks, DriftSpec(amplitude=0.5, rng_seed=seed)))
    for record in (clicks, drifted):
        for max_delay in max_delays:
            if max_delay < record.n_trials and record.times.size >= 2:
                assert g2_bytes(hbt_g2(record, max_delay)) == g2_bytes(
                    whole_run_g2(record, max_delay))
    return clicks


#: Runs from a single trial to many blocks of montecarlo._CLICK_BLOCK trials:
#: four blocks cut one short of, and one past, a whole block, and 200,003
#: trials, which end inside a block.
BLOCKED_TRIALS = [1, 2, 4 * montecarlo._CLICK_BLOCK - 1, 4 * montecarlo._CLICK_BLOCK + 1,
                  200_003]


class TestBlockedClickPipeline:
    @pytest.mark.parametrize("trials", BLOCKED_TRIALS)
    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.int64, float])
    def test_matches_whole_run(self, trials, dtype):
        counts = emitter_photon_counts(3, 0.35, trials, trials).astype(dtype)
        busy = replace(CFG, background_rate=0.2)
        clicks = check_pipeline_against_whole_run(busy, counts, 7,
                                                  max_delays=(60, 64, 128, 5000))
        assert clicks.times.size > counts.sum() or trials < 10

    @pytest.mark.parametrize("block", [1, 3, 64])
    @pytest.mark.parametrize("trials", [1, 2, 63, 64, 65, 1000, 3001])
    def test_block_size_does_not_change_the_output(self, monkeypatch, block, trials):
        counts = emitter_photon_counts(3, 0.35, trials, trials)
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        clicks = check_pipeline_against_whole_run(replace(CFG, background_rate=0.2), counts, 11)
        if trials > 100:
            # the last 37 pulses hold events past the run, which both drop
            shortened = replace(clicks, n_trials=trials - 37)
            assert g2_bytes(hbt_g2(shortened)) == g2_bytes(whole_run_g2(shortened, 60))

    @pytest.mark.parametrize("block", [3, 64, 65_536])
    def test_background_only_record(self, monkeypatch, block):
        # about one event in ten pulses, so hbt_g2 caps blocks by the pulses they span
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        clicks = check_pipeline_against_whole_run(
            replace(CFG, background_rate=0.2), np.zeros(30_011, dtype=np.int64), 5)
        assert 2500 < clicks.times.size < 3500

    @pytest.mark.parametrize("block", [3, 64, 65_536])
    def test_redraws_out_of_window_offsets_in_run_order(self, monkeypatch, block):
        # a window of +-1 pulse sigma sends about 1 first offset in 3 back for
        # a redraw, and a third of those again
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        narrow = replace(CFG, retrieval_window=(1.2, 1.3))
        counts = emitter_photon_counts(3, 0.35, 5003, 3)
        sigma = montecarlo.RETRIEVAL_PULSE_FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        first = philox_stream(3, montecarlo._STAGE_CLICKS).normal(1.25, sigma, counts.sum())
        assert np.mean(np.abs(first - 1.25) > 0.05) > 0.25
        clicks = check_pipeline_against_whole_run(narrow, counts, 3)
        offsets = np.mod(clicks.times, CFG.repetition_period)
        assert offsets.min() >= 1.2 and offsets.max() < 1.3

    @pytest.mark.parametrize("block", [montecarlo._CLICK_BLOCK, 7, 1024])
    def test_draws_follow_the_stream_order(self, monkeypatch, block):
        # one fresh stream drawn whole, in the documented order; the narrow
        # window sends offsets back for redraws, and about one background
        # event per pulse puts background hits in nearly every block
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        config = replace(CFG, background_rate=10.0, retrieval_window=(1.2, 1.3))
        counts = emitter_photon_counts(3, 0.35, 40_003, 9)
        draws = montecarlo._ClickDraws(config, counts, 9)

        rng = philox_stream(9, montecarlo._STAGE_CLICKS)
        sigma = montecarlo.RETRIEVAL_PULSE_FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))
        signal = rng.normal(1.25, sigma, size=counts.sum())
        outside = (signal < 1.2) | (signal >= 1.3)
        while np.any(outside):
            signal[outside] = rng.normal(1.25, sigma, size=np.count_nonzero(outside))
            outside = (signal < 1.2) | (signal >= 1.3)
        background_counts = rng.poisson(config.background_rate * config.window_duration,
                                        size=counts.size)
        background = rng.uniform(1.2, 1.3, size=background_counts.sum())
        codes = rng.integers(0, 2, size=signal.size + background.size, dtype=np.uint32)

        assert np.array_equal(np.concatenate(draws.signal), signal)
        hits = np.zeros(counts.size, dtype=background_counts.dtype)
        for hit, n_hit in draws.hits:
            hits[hit] = n_hit
        assert np.array_equal(hits, background_counts)
        assert np.mean([n_hit.size > 0 for _, n_hit in draws.hits]) > 0.99
        assert np.array_equal(draws.background, background)
        assert draws.codes.dtype == np.uint8
        assert np.array_equal(draws.codes, codes + ord("A"))
        assert draws.codes.size > 2 * block or block == montecarlo._CLICK_BLOCK

    @pytest.mark.parametrize("boundary", [1, 2])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_order_is_checked_across_block_boundaries(self, monkeypatch, block, boundary):
        # each block is sorted; only the pair straddling one boundary is not
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        times = np.arange(3.0 * block + 1.0)
        times[boundary * block - 1] = times[boundary * block] + 0.5
        with pytest.raises(ValueError, match="sorted"):
            ClickRecord(times=times, detectors=np.full(times.size, "A"),
                        n_trials=times.size, repetition_period=6.0)


def whole_run_hbt(config, trials, seed, drift, max_delay, detection_prob=0.35):
    """simulate_hbt_run of 3 emitters through the whole-run oracles."""
    clicks = whole_run_click_stream(
        config, emitter_photon_counts(3, detection_prob, trials, seed), seed)
    if drift is not None:
        clicks = whole_run_drift(clicks, drift)
    return whole_run_g2(clicks, max_delay)


def check_streamed_run(config, trials, seed, drifted, max_delay, detection_prob=0.35):
    """simulate_hbt_run equals the whole-run oracles byte for byte."""
    drift = DriftSpec(amplitude=0.5, rng_seed=seed) if drifted else None
    result = simulate_hbt_run(config, trials, seed, detection_prob=detection_prob,
                              drift=drift, max_delay=max_delay)
    assert g2_bytes(result) == g2_bytes(
        whole_run_hbt(config, trials, seed, drift, max_delay, detection_prob))
    return result


class TestStreamedHbtRun:
    @pytest.mark.parametrize("max_delay", [60, 64, 128, 5000])
    @pytest.mark.parametrize("drifted", [False, True], ids=["steady", "drifted"])
    @pytest.mark.parametrize("trials", BLOCKED_TRIALS)
    def test_matches_whole_run(self, trials, drifted, max_delay):
        busy = replace(CFG, background_rate=0.2)
        if max_delay >= trials:
            with pytest.raises(ValueError, match="exceeds the number of trials"):
                simulate_hbt_run(busy, trials, trials, max_delay=max_delay)
        else:
            check_streamed_run(busy, trials, trials, drifted, max_delay)

    @pytest.mark.parametrize("max_delay", [60, 5000])
    @pytest.mark.parametrize("drifted", [False, True], ids=["steady", "drifted"])
    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_block_size_does_not_change_the_output(self, monkeypatch, block, drifted,
                                                   max_delay):
        # 5101 trials cut the last block of 3 and of 64 short, and at
        # max_delay 5000 fill the correlator's buffer once and part of it again
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        check_streamed_run(replace(CFG, background_rate=0.2), 5101, 13, drifted, max_delay)

    @pytest.mark.parametrize("drifted", [False, True], ids=["steady", "drifted"])
    @pytest.mark.parametrize("block", [3, 64, 65_536])
    def test_background_only_run(self, monkeypatch, block, drifted):
        # about one event in ten pulses, so some gaps between events exceed max_delay
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        check_streamed_run(replace(CFG, background_rate=0.2), 30_011, 5, drifted, 60,
                           detection_prob=0.0)

    def test_fewer_than_two_events_are_refused(self):
        with pytest.raises(ValueError, match="two events"):
            simulate_hbt_run(NO_BACKGROUND, 1000, 1, detection_prob=0.0)

    @pytest.mark.parametrize("block", [1, 3, 64, 65_536])
    def test_sparse_record_with_long_gaps(self, monkeypatch, block):
        # gaps shorter than, equal to and longer than max_delay, on and around
        # the correlator's rows of 64 pulses (max_delay 60 and 64 reach one
        # row, 65 and 128 two), and events of one pulse split over event blocks
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", block)
        pulses = np.array([0, 0, 0, 1, 3, 20, 63, 64, 64, 130, 131, 191, 256, 320, 448,
                           5000, 5059, 5060, 5120, 5184, 5249, 5377, 70_000, 70_000,
                           70_001, 70_040, 70_063, 70_130, 99_999])
        times = pulses * CFG.repetition_period + 1.25
        detectors = np.where(np.arange(pulses.size) % 3 == 1, "B", "A")
        gaps = np.abs(np.subtract.outer(pulses[detectors == "A"], pulses[detectors == "B"]))
        assert {40, 63, 64, 65, 127, 128, 129} <= set(gaps.ravel().tolist())
        clicks = ClickRecord(times=times, detectors=detectors, n_trials=100_000,
                             repetition_period=CFG.repetition_period)
        assert g2_bytes(hbt_g2(clicks)) == g2_bytes(whole_run_g2(clicks, 60))
        for max_delay in (64, 65, 128):
            assert g2_bytes(hbt_g2(clicks, max_delay)) == g2_bytes(
                whole_run_g2(clicks, max_delay))


#: Trials of the memory-bound runs, read _CLICK_BLOCK = 1024 events or trials at a time.
MEMORY_TRIALS = 200_000


def traced_peak(func, *args):
    """(result, bytes by which tracemalloc's peak during func(*args) exceeds its start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = func(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak - start


class TestClickPipelineMemory:
    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "_CLICK_BLOCK", 1024)

    def test_click_stream_holds_its_output_and_little_more(self):
        counts = emitter_photon_counts(3, 0.35, MEMORY_TRIALS, 4)
        clicks, peak = traced_peak(generate_click_stream, CFG, counts, 4)
        assert peak <= 25 * clicks.times.size + 2 ** 20

    def test_drift_holds_about_one_byte_per_event(self):
        clicks = generate_click_stream(CFG, emitter_photon_counts(3, 0.35, MEMORY_TRIALS, 4), 4)
        drifted, peak = traced_peak(efficiency_drift_model, clicks, DriftSpec(amplitude=0.4))
        output = drifted.times.nbytes + drifted.detectors.nbytes
        assert peak - output <= 2 * clicks.times.size + 2 ** 20

    def test_record_checks_order_without_a_whole_run_temporary(self):
        times = np.arange(1_000_000, dtype=float)
        build = partial(ClickRecord, times=times, detectors=np.full(times.size, "B"),
                        n_trials=times.size, repetition_period=6.0)
        record, peak = traced_peak(build)
        assert record.times is times
        assert peak < 2 ** 18

    def test_g2_holds_no_array_as_long_as_the_run(self):
        # the per-pulse counts span a few correlation windows, not the run
        clicks = generate_click_stream(CFG, emitter_photon_counts(3, 0.35, MEMORY_TRIALS, 4), 4)
        result, peak = traced_peak(hbt_g2, clicks)
        assert result.g2.size == 121
        assert peak <= 2 ** 20

    @pytest.mark.parametrize("drifted", [False, True], ids=["steady", "drifted"])
    def test_streamed_run_holds_no_click_record(self, drifted):
        # the narrowed counts (1 B per trial), the signal offsets (8 B per
        # signal event) and the detector codes (1 B per event) are the only
        # arrays as long as the run: about 11 B per event in all
        drift = DriftSpec(amplitude=0.4) if drifted else None
        result, peak = traced_peak(partial(simulate_hbt_run, CFG, MEMORY_TRIALS, 4, drift=drift))
        events = generate_click_stream(
            CFG, emitter_photon_counts(3, 0.35, MEMORY_TRIALS, 4), 4).times.size
        assert result.g2.size == 121
        assert peak <= 12 * events + 2 ** 16


class TestBackgroundCorrection:
    def test_published_operating_point(self):
        # (0.68 - (1 - 0.918^2)) / 0.918^2 = 0.620279...
        assert background_correct_g2(0.68, 0.918) == pytest.approx(0.620279, abs=1e-4)

    def test_pure_signal_identity(self):
        assert background_correct_g2(0.68, 1.0) == pytest.approx(0.68, rel=1e-12)

    def test_clipped_at_zero(self):
        assert background_correct_g2(0.05, 0.5) == 0.0

    def test_vectorized(self):
        corrected = background_correct_g2(np.array([0.68, 1.0]), 0.918)
        assert corrected.shape == (2,)
        assert corrected[1] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("rho", [0.0, -0.2, 1.2])
    def test_fraction_validation(self, rho):
        with pytest.raises(ValueError):
            background_correct_g2(0.68, rho)


class TestDrift:
    def test_relative_std_factor(self):
        sinus = DriftSpec.from_relative_std(0.30)
        assert sinus.amplitude == pytest.approx(0.30 * math.sqrt(2.0), rel=1e-12)
        assert DriftSpec.from_relative_std(0.30, rng_seed=7).rng_seed == 7

    def test_modulation_series_has_requested_std(self):
        # Var^0.5/Mean of the efficiency series reproduces the requested
        # relative std (discrete sum over many periods).
        t = np.arange(100_000)
        series = DriftSpec.from_relative_std(0.30).modulation(t)
        assert series.std() / series.mean() == pytest.approx(0.30, abs=0.002)
        assert series.min() > 0.0
        assert series.max() <= 1.0

    def test_side_peak_level_tracks_variance(self):
        # Slow multiplicative drift raises the side-peak coincidence rate to
        # 1 + Var/Mean^2 = 1.09 while zero-delay stays the lowest bin.
        drift = DriftSpec.from_relative_std(0.30, rng_seed=42)
        result = simulate_hbt_run(CFG, 100_000, 42, drift=drift)
        assert abs(result.side_peak_level - 1.09) <= 0.01
        zero_bin = np.flatnonzero(result.tau_bins == 0.0)[0]
        others = np.delete(result.g2, zero_bin)
        assert result.g2_zero < others.min()
        assert abs(result.g2_zero - 2.0 / 3.0) <= 3.0 * result.g2_zero_err

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftSpec(amplitude=1.0)
        with pytest.raises(ValueError):
            DriftSpec(amplitude=-0.1)

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError),
                                             (2 ** 64, ValueError)])
    def test_rng_seed_checked_at_construction(self, seed, error):
        # refused under its own name before any click is drawn
        with pytest.raises(error, match="^rng_seed must be"):
            DriftSpec(amplitude=0.2, rng_seed=seed)
        with pytest.raises(error, match="^rng_seed must be"):
            DriftSpec.from_relative_std(0.3, rng_seed=seed)
        assert DriftSpec(amplitude=0.2, rng_seed=2 ** 64 - 1).rng_seed == 2 ** 64 - 1

    @pytest.mark.parametrize("relative_std", [0.8, math.sqrt(0.5), math.inf])
    def test_relative_std_beyond_a_sinusoid_rejected(self, relative_std):
        # the message names the drift std and its bound, not the amplitude
        with pytest.raises(ValueError, match=rf"relative std must be below 1/sqrt\(2\) = 0\.7071, "
                                             rf"got {relative_std!r}"):
            DriftSpec.from_relative_std(relative_std)
        assert DriftSpec.from_relative_std(0.7071).amplitude < 1.0

    @pytest.mark.parametrize("relative_std", [-0.1, -1e-9, math.nan])
    def test_negative_relative_std_rejected(self, relative_std):
        with pytest.raises(ValueError, match=f"relative std must be >= 0, got {relative_std!r}"):
            DriftSpec.from_relative_std(relative_std)


class TestSourceModels:
    def test_emitter_counts_bounded_and_deterministic(self):
        counts = emitter_photon_counts(3, 0.35, 5000, 2)
        assert counts.min() >= 0
        assert counts.max() <= 3
        assert np.array_equal(counts, emitter_photon_counts(3, 0.35, 5000, 2))
        assert abs(counts.mean() - 3 * 0.35) < 0.03

    def test_poisson_counts_mean(self):
        counts = poisson_photon_counts(1.3, 50_000, 2)
        assert abs(counts.mean() - 1.3) < 0.02

    def test_validation(self):
        with pytest.raises(ValueError):
            emitter_photon_counts(0, 0.35, 10, 1)
        with pytest.raises(ValueError):
            emitter_photon_counts(3, 1.2, 10, 1)
        with pytest.raises(ValueError):
            poisson_photon_counts(-0.5, 10, 1)

    @pytest.mark.parametrize("trials", [2.7, -5, 0, "10"])
    def test_trials_must_be_a_positive_integer(self, trials):
        message = re.escape(f"trials must be a positive integer, got {trials!r}")
        with pytest.raises(ValueError, match=message):
            emitter_photon_counts(3, 0.35, trials, 1)
        with pytest.raises(ValueError, match=message):
            poisson_photon_counts(1.0, trials, 1)

    @pytest.mark.parametrize("trials, max_delay, message", [
        (2_000_000, 2_000_001, "max_delay 2000001 exceeds the number of trials"),
        (2_000_000, 60.5, "max_delay must be an integer, got 60.5"),
        (2_000_000, 10, "max_delay 10 must cover"),
        (2.7, 60, "trials must be a positive integer, got 2.7"),
    ])
    def test_hbt_run_checks_inputs_before_drawing(self, monkeypatch, trials, max_delay,
                                                  message):
        def no_draws(*args, **kwargs):
            raise AssertionError("drew before checking the inputs")

        monkeypatch.setattr(montecarlo, "philox_stream", no_draws)
        with pytest.raises(ValueError, match=message):
            simulate_hbt_run(CFG, trials, 1, max_delay=max_delay)


class TestRabiScan:
    def test_shapes_and_determinism(self):
        omegas = np.linspace(1.0, 10.0, 5)
        a = simulate_rabi_scan(CFG, RB60_PAIR, omegas, 0.3, trials=500, seed=21,
                               n_polaritons=3, geometry_samples=30)
        b = simulate_rabi_scan(CFG, RB60_PAIR, omegas, 0.3, trials=500, seed=21,
                               n_polaritons=3, geometry_samples=30)
        assert a.mean_counts.shape == omegas.shape
        assert np.array_equal(a.mean_counts, b.mean_counts)
        assert np.array_equal(a.sem_counts, b.sem_counts)

    def test_threads_bit_identical(self):
        omegas = np.linspace(1.0, 10.0, 4)
        single = simulate_rabi_scan(CFG, RB60_PAIR, omegas, 0.3, trials=400,
                                    seed=22, n_polaritons=3,
                                    geometry_samples=20, threads=1)
        double = simulate_rabi_scan(CFG, RB60_PAIR, omegas, 0.3, trials=400,
                                    seed=22, n_polaritons=3,
                                    geometry_samples=20, threads=2)
        assert np.array_equal(single.mean_counts, double.mean_counts)

    def test_revival_peak_beats_trough(self):
        # Theta=pi at omega*t = 1/2 empties the retrieval; the Theta=2pi
        # revival and the no-pulse point recover it.
        t_pulse = 0.3
        omegas = np.array([0.0, 1.0 / (2 * t_pulse), 1.0 / t_pulse])
        scan = simulate_rabi_scan(CFG, RB60_PAIR, omegas, t_pulse, trials=4000,
                                  seed=21, n_polaritons=3, geometry_samples=60)
        no_pulse, trough, revival = scan.mean_counts
        assert no_pulse > 2.0 * trough
        assert revival > 2.0 * trough

    def test_zero_drive_point_matches_efficiency_chain(self):
        scan = simulate_rabi_scan(CFG, RB60_PAIR, np.array([0.0]), 0.3,
                                  trials=20_000, seed=4, n_polaritons=3,
                                  geometry_samples=50)
        expected = (3 * BASE_RETRIEVAL_EFFICIENCY * CFG.detection_efficiency
                    + CFG.background_rate * CFG.window_duration)
        assert abs(scan.mean_counts[0] - expected) < 3.5 * scan.sem_counts[0]

    def test_point_without_counts_gets_the_single_count_sem(self):
        # A pi pulse on lone polaritons empties the register; without
        # background no trial counts, and the SEM is floored at 1/trials.
        t_pulse = 0.3
        omegas = np.array([0.0, 1.0 / (2 * t_pulse)])
        scan = simulate_rabi_scan(NO_BACKGROUND, RB60_PAIR, omegas, t_pulse,
                                  trials=400, seed=3, n_polaritons=1,
                                  geometry_samples=10)
        assert scan.mean_counts[1] == 0.0
        assert scan.sem_counts[1] == 1.0 / 400
        assert scan.mean_counts[0] > 0.0
        assert scan.sem_counts[0] > 1.0 / 400

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_geometry_samples_must_be_a_positive_integer(self, bad):
        with pytest.raises(ValueError, match="geometry_samples"):
            simulate_rabi_scan(CFG, RB60_PAIR, np.array([1.0, 2.0]), 0.3, trials=10,
                               seed=1, geometry_samples=bad)

    @pytest.mark.parametrize("bad", [-1, 2.5, 13])
    def test_n_polaritons_must_be_a_register_size(self, bad):
        # rejected before any write: none of them can ever be drawn or solved
        with patch.object(montecarlo, "_written_register") as write, \
                pytest.raises(ValueError, match="n_polaritons"):
            simulate_rabi_scan(CFG, RB60_PAIR, np.array([1.0, 2.0]), 0.3, trials=10,
                               seed=1, n_polaritons=bad, geometry_samples=2)
        assert not write.called

    def test_conditioned_registers_skip_short_candidate_draws(self):
        # An attempt with fewer candidates than the wanted number cannot
        # store it, so it is neither sampled nor written; the registers are
        # still the first matching writes in attempt order.
        calls = []
        cloud = montecarlo._cloud

        def counting(config, count, rng):
            calls.append(count)
            return cloud(config, count, rng)

        with patch.object(montecarlo, "_cloud", counting):
            registers = montecarlo._scan_geometries(CFG, RB60_PAIR, 25, 31, n_polaritons=3)
        writes = trial_writes(CFG, 31, range(10_000))
        expected = [w for w in writes if w.n_polaritons == 3][:25]
        assert len(registers) == 25
        for got, want in zip(registers, expected):
            assert np.array_equal(got.polariton_positions, want.polariton_positions)
            assert got.n_candidates == want.n_candidates
        assert calls and min(calls) >= 3

    def test_detection_draws_match_fresh_streams(self):
        # the scan re-keys one bit generator per drive and draws what a
        # fresh stream of the drive's label draws
        omegas, t, trials, seed = np.array([0.0, 2.5, 7.0]), 0.3, 300, 23
        with patch.object(montecarlo, "philox_stream", side_effect=AssertionError):
            scan = simulate_rabi_scan(CFG, RB60_PAIR, omegas, t, trials=trials, seed=seed,
                                      n_polaritons=2, geometry_samples=12)
        geometries = montecarlo._scan_geometries(CFG, RB60_PAIR, 12, seed, n_polaritons=2)
        p = _scan_return_probabilities([g.polariton_positions for g in geometries], omegas,
                                       RB60_PAIR.c3, t)
        assigned = np.arange(trials) % 12
        for i in range(omegas.size):
            rng = philox_stream(seed, montecarlo._STAGE_SCAN, i)
            counts = rng.binomial(
                2, p[i][assigned] * BASE_RETRIEVAL_EFFICIENCY * CFG.detection_efficiency)
            counts = counts + rng.poisson(CFG.background_rate * CFG.window_duration,
                                          size=trials)
            assert scan.mean_counts[i] == counts.mean()
            assert scan.sem_counts[i] == max(counts.std(ddof=1) / math.sqrt(trials),
                                             1.0 / trials)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate_rabi_scan(CFG, RB60_PAIR, np.array([]), 0.3, trials=100,
                               seed=1)
        with pytest.raises(ValueError):
            simulate_rabi_scan(CFG, RB60_PAIR, np.array([-1.0]), 0.3,
                               trials=100, seed=1)
        with pytest.raises(ValueError, match="pulse_duration .* got 5.0"):
            simulate_rabi_scan(CFG, RB60_PAIR, np.array([1.0]), 5.0,
                               trials=100, seed=1)
        with pytest.raises(ValueError):
            simulate_rabi_scan(CFG, RB60_PAIR, np.array([1.0]), 0.3, trials=1,
                               seed=1)


# --------------------------------------------------------------------------
# Batched scan kernel

register_specs = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 2 ** 31 - 1)),
                          min_size=1, max_size=6)
drives = st.lists(st.one_of(st.just(0.0), st.floats(0.1, 40.0)), min_size=1, max_size=4)
pulses = st.one_of(st.just(0.0), st.floats(0.01, 1.0))


def written_registers(specs):
    """Blockaded registers from (candidate count, seed) pairs; count 0 is empty."""
    return [write_polaritons(sample_positions(CFG, count, seed), R_O).polariton_positions
            if count else np.empty((0, 3)) for count, seed in specs]


class FakePool:
    """Stands in for ProcessPoolExecutor: records the request, runs in-process."""

    requests = []

    def __init__(self, max_workers):
        self.requests.append({"max_workers": max_workers})

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, blocks):
        self.requests[-1]["blocks"] = blocks = list(blocks)
        return [func(block) for block in blocks]


def per_drive_kernel(registers, omegas, c3, pulse_duration):
    """_scan_return_probabilities with its stack built and split again at every drive.

    Each size group's exchange V is one builder call per register and an
    np.stack, and each drive splits omega * D + V by _parity_blocks and solves
    the blocks by _solve_blocks.
    """
    omegas = np.asarray(omegas, dtype=float)
    probabilities = np.ones((omegas.size, len(registers)))
    if pulse_duration == 0.0:
        return probabilities
    sizes = np.array([len(positions) for positions in registers], dtype=int)
    for n in np.unique(sizes[sizes > 0]):
        members = np.flatnonzero(sizes == n)
        exchange = np.stack([interactions.build_pi_sector_hamiltonian(registers[k], 0.0, c3)
                             for k in members])
        drive = interactions.build_pi_sector_hamiltonian(registers[members[0]], 1.0, 0.0)
        for i, omega in enumerate(omegas):
            if omega == 0.0:
                continue
            blocks, split = interactions._parity_blocks(omega * drive + exchange)
            w, v = interactions._solve_blocks(blocks)
            weights = v[..., 0, :] ** 2
            if split:
                weights *= 0.5
            amplitude = np.sum(weights * np.exp(-2j * np.pi * w * pulse_duration),
                               axis=(0, -1))
            probabilities[i, members] = np.minimum(1.0, np.abs(amplitude) ** 2)
    return probabilities


def spaced_register(n, seed):
    """n sites along z at least R_O apart, as a blockaded write stores them."""
    rng = np.random.default_rng(seed)
    z = np.cumsum(R_O * (1.0 + rng.uniform(0.0, 1.0, n)))
    return np.column_stack([rng.normal(0, 5.0, n), rng.normal(0, 5.0, n), z])


class TestScanKernel:
    @given(register_specs, drives, pulses, st.sampled_from([None, 0]))
    @settings(max_examples=40, deadline=None)
    def test_matches_single_register_kernel(self, specs, omegas, t, split_from):
        # split_from=0 solves every stack by parity blocks, whatever its size
        registers = written_registers(specs)
        limit = interactions._SPLIT_MIN_ENTRIES if split_from is None else split_from
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", limit):
            batched = _scan_return_probabilities(registers, omegas, RB60_PAIR.c3, t)
        single = [[_register_return_probability(r, omega, RB60_PAIR.c3, t)
                   for r in registers] for omega in omegas]
        assert batched.shape == (len(omegas), len(registers))
        assert np.abs(batched - np.array(single)).max() <= 1e-12

    @given(register_specs, drives, pulses, st.sampled_from([None, 0]),
           st.sampled_from([None, 1]))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_drive_oracle(self, specs, omegas, t, split_from, solve_bytes):
        # split_from=0 splits every stack; solve_bytes=1 solves one register per call
        registers = written_registers(specs)
        limit = interactions._SPLIT_MIN_ENTRIES if split_from is None else split_from
        step = interactions._SCAN_SOLVE_BYTES if solve_bytes is None else solve_bytes
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", limit):
            expected = per_drive_kernel(registers, omegas, RB60_PAIR.c3, t)
            with patch.object(interactions, "_SCAN_SOLVE_BYTES", step):
                got = _scan_return_probabilities(registers, omegas, RB60_PAIR.c3, t)
        assert np.array_equal(got, expected)

    def test_matches_per_drive_oracle_on_many_registers(self):
        # the benchmark's scan: 400 three-polariton registers at 40 drives
        registers = [g.polariton_positions
                     for g in montecarlo._scan_geometries(CFG, RB60_PAIR, 400, 1, n_polaritons=3)]
        omegas = np.linspace(0.5, 13.5, 40)
        expected = per_drive_kernel(registers, omegas, RB60_PAIR.c3, 0.15)
        assert np.array_equal(_scan_return_probabilities(registers, omegas, RB60_PAIR.c3, 0.15),
                              expected)
        # larger registers, each size group solved over several calls
        registers = [spaced_register(n, seed) for n in (8, 9) for seed in range(5)]
        expected = per_drive_kernel(registers, [1.5, 9.0], RB60_PAIR.c3, 0.15)
        with patch.object(interactions, "_SCAN_SOLVE_BYTES", 2 ** 19):
            got = _scan_return_probabilities(registers, [1.5, 9.0], RB60_PAIR.c3, 0.15)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("defect, message", [("nan", "non-finite"),
                                                 ("asymmetric", "not Hermitian")])
    @pytest.mark.parametrize("split", [None, True, False])
    def test_split_step_refuses_what_the_solve_refuses(self, defect, message, split):
        good = interactions.build_pi_sector_hamiltonian(spaced_register(4, 2), 3.0, RB60_PAIR.c3)
        stack = np.stack([good, good, good])
        stack[1, 2, 5] = np.nan if defect == "nan" else good[2, 5] + 1e-9 * np.abs(good).max()
        with pytest.raises(ValueError, match=message):
            interactions.eigenspectrum(stack[1])
        with pytest.raises(ValueError, match=message):
            interactions._parity_blocks(stack, split)
        with pytest.raises(ValueError, match=message):
            interactions._parity_blocks(stack, split, overwrite=True)

    def test_split_in_place_equals_fresh_blocks(self):
        stack = np.stack([interactions.build_pi_sector_hamiltonian(spaced_register(5, k), 0.0,
                                                                   RB60_PAIR.c3)
                          for k in range(3)])
        fresh, split = interactions._parity_blocks(stack, True)
        in_place, split_again = interactions._parity_blocks(stack.copy(), True, overwrite=True)
        assert split and split_again and in_place.shape == fresh.shape == (2, 3, 16, 16)
        assert np.array_equal(in_place, fresh)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_drive_rejected(self, bad):
        with pytest.raises(ValueError, match="omegas must be finite"):
            _scan_return_probabilities([spaced_register(3, 1)], [1.0, bad], RB60_PAIR.c3, 0.1)

    def test_memory_holds_one_exchange_stack(self):
        # eight n = 10 registers: one exchange stack is 8 * 1024^2 doubles
        # (64 MiB); it is split in place and solved a few registers at a time
        registers = [spaced_register(10, seed) for seed in range(8)]
        stack_bytes = 8 * 1024 ** 2 * 8
        tracemalloc.start()
        try:
            p = _scan_return_probabilities(registers, [2.0], RB60_PAIR.c3, 0.15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all((p > 0.0) & (p <= 1.0))
        assert peak < 1.5 * stack_bytes

    @given(register_specs, drives, pulses)
    @settings(max_examples=40, deadline=None)
    def test_probabilities_in_unit_interval(self, specs, omegas, t):
        p = _scan_return_probabilities(written_registers(specs), omegas, RB60_PAIR.c3, t)
        assert np.all((p >= 0.0) & (p <= 1.0))

    @given(register_specs, pulses)
    @settings(max_examples=30, deadline=None)
    def test_zero_drive_returns_every_register(self, specs, t):
        p = _scan_return_probabilities(written_registers(specs), [0.0, 5.0, 0.0],
                                       RB60_PAIR.c3, t)
        assert np.all(p[[0, 2]] == 1.0)

    @given(register_specs, drives, pulses, st.sampled_from([0.0, 1e-9]))
    @settings(max_examples=30, deadline=None)
    def test_free_rotation_without_exchange(self, specs, omegas, t, c3):
        registers = written_registers(specs)
        p = _scan_return_probabilities(registers, omegas, c3, t)
        n = np.array([len(r) for r in registers])
        free = np.cos(np.pi * np.asarray(omegas)[:, None] * t) ** (2 * n[None, :])
        assert np.abs(p - free).max() <= 1e-9

    @given(st.integers(2, 6), st.integers(0, 2 ** 31 - 1), st.randoms(use_true_random=False),
           st.floats(0.1, 40.0), st.floats(0.01, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_site_permutation_invariance(self, count, seed, random, omega, t):
        register, = written_registers([(count, seed)])
        order = list(range(len(register)))
        random.shuffle(order)
        p = _scan_return_probabilities([register, register[order]], [omega],
                                       RB60_PAIR.c3, t)
        assert abs(p[0, 0] - p[0, 1]) <= 1e-12

    def test_coincident_sites_rejected(self):
        with pytest.raises(ValueError, match="coincident"):
            _scan_return_probabilities([np.zeros((2, 3))], [1.0], RB60_PAIR.c3, 0.1)


class TestWorkerCount:
    @pytest.mark.parametrize("threads, cores, jobs, expected", [
        (None, 8, 40, 1), (0, 8, 40, 1), (1, 8, 40, 1), (4, 8, 40, 4),
        (10 ** 9, 2, 40, 2), (10 ** 9, 10 ** 6, 40, 40), (10 ** 9, None, 40, 1),
        (3, 8, 1, 1)])
    def test_cap(self, threads, cores, jobs, expected):
        assert _worker_count(threads, cores, jobs) == expected

    def test_huge_thread_counts_start_at_most_one_worker_per_core(self, monkeypatch):
        # No process is started: the pool is replaced by an in-process fake.
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 3)
        FakePool.requests.clear()
        omegas = np.linspace(1.0, 10.0, 7)
        kwargs = dict(trials=200, seed=22, n_polaritons=3, geometry_samples=10)
        faked = simulate_rabi_scan(CFG, RB60_PAIR, omegas, 0.3, threads=10 ** 9, **kwargs)
        shots = run_shots(CFG, RB60_PAIR, 9.0, 0.15, 128, 4, threads=10 ** 9)
        assert [r["max_workers"] for r in FakePool.requests] == [3, 3]
        # contiguous blocks that cover the drives and the trials once, in order
        drive_blocks, trial_blocks = (r["blocks"] for r in FakePool.requests)
        assert len(drive_blocks) == len(trial_blocks) == 3
        assert np.array_equal(np.concatenate(drive_blocks), omegas)
        assert np.array_equal(np.concatenate(trial_blocks), np.arange(128))
        serial = simulate_rabi_scan(CFG, RB60_PAIR, omegas, 0.3, threads=1, **kwargs)
        assert np.array_equal(serial.mean_counts, faked.mean_counts)
        assert np.array_equal(shots, run_shots(CFG, RB60_PAIR, 9.0, 0.15, 128, 4))
        assert len(FakePool.requests) == 2
