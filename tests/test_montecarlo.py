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
from rydpol.montecarlo import (
    BASE_RETRIEVAL_EFFICIENCY,
    WRITE_EFFICIENCY,
    _register_return_probability,
    _scan_return_probabilities,
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
from rydpol.rng import philox_stream

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
        assert cloud.count == 1
        assert cloud.positions.shape == (1, 3)

    @pytest.mark.parametrize("count", [0, -1, 2.5])
    def test_count_validation(self, count):
        with pytest.raises(ValueError):
            sample_positions(CFG, count, 1)

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

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", refused)
        monkeypatch.setattr(montecarlo.os, "cpu_count", lambda: 4)
        with pytest.raises(error, match=message):
            run_shots(CFG, RB60_PAIR, omega, pulse, 128, seed, threads=4)


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
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", FakePool)
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
