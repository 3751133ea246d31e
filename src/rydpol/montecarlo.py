"""Stochastic store-rotate-retrieve protocol and photon-correlation analysis.

Pipeline per trial: sample excitation candidates in the trapped cloud, write
polaritons under hard-sphere blockade, evolve the stored register through the
microwave pulse, then draw per-polariton retrieval, detection thinning, and
Poisson background.  Click-level utilities place retrieved photons on two
detectors and build the pulsed Hanbury Brown-Twiss correlation g2(k*T);
simulate_hbt_run streams the click stream into that correlation a block of
trials at a time, without building the run's click record.

Randomness follows the stream contract in ``rydpol.rng``: every stage of
every trial draws from its own counter-based stream, so results are
bit-identical for a fixed master seed regardless of batching or thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import islice

import numpy as np

from .config import ExperimentConfig, PairCoefficients, optical_blockade_radius
from .interactions import (
    MAX_DIMENSION,
    _distances,
    _scan_return_probabilities,
    build_pi_sector_hamiltonian,
    time_evolve,
)
from .rng import _check_label, _key, _rekeyed_stream, philox_stream

#: Probability that an input photon produces a Rydberg excitation candidate
#: during the write pulse.  Calibrated so the blockaded write at the default
#: geometry stores about three polaritons on average, matching the observed
#: photon statistics; the candidate count is Poisson(mean_input_photons *
#: WRITE_EFFICIENCY).
WRITE_EFFICIENCY = 0.35

#: Probability that a surviving polariton emits into the retrieval mode
#: within the gate window.
BASE_RETRIEVAL_EFFICIENCY = 0.04

#: FWHM of the retrieved photon pulse (us); photons are placed on a Gaussian
#: of this width centered in the retrieval window.
RETRIEVAL_PULSE_FWHM = 0.120

#: Default per-emitter detection probability for correlation runs.  The
#: normalized g2 of independently thinned number states does not depend on
#: this value, so it is chosen for counting statistics rather than to match
#: the end-to-end efficiency chain.
EMITTER_DETECTION_PROB = 0.35

_STAGE_CANDIDATES = 1
_STAGE_CLOUD = 2
_STAGE_DETECT = 3
_STAGE_CLICKS = 4
_STAGE_DRIFT = 5
_STAGE_EMITTER = 6
_STAGE_SCAN = 7

#: Largest register whose pi sector (2^n states) the dense solver takes.
_MAX_SITES = MAX_DIMENSION.bit_length() - 1


# --------------------------------------------------------------------------
# Cloud sampling and blockaded writing

@dataclass(frozen=True)
class CloudSample:
    """Candidate excitation positions drawn from the trapped-cloud density."""

    positions: np.ndarray  # (count, 3) um

    def __post_init__(self):
        positions = np.atleast_2d(np.asarray(self.positions, dtype=float))
        if positions.ndim != 2 or positions.shape[1] != 3 or positions.shape[0] < 1:
            raise ValueError(f"positions must have shape (count, 3), got {positions.shape}")
        if not np.all(np.isfinite(positions)):
            raise ValueError("positions must be finite")
        object.__setattr__(self, "positions", positions)


def sample_positions(config, count, seed, index=0):
    """Draw i.i.d. positions from the anisotropic Gaussian cloud (w_r, w_r, w_z)."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return _cloud(config, int(count), philox_stream(seed, _STAGE_CLOUD, index))


def _cloud(config, count, rng):
    """`count` positions drawn from rng, the cloud stream of a trial."""
    scale = np.array([config.cloud_wr, config.cloud_wr, config.cloud_wz])
    return CloudSample(positions=rng.normal(0.0, 1.0, size=(count, 3)) * scale)


@dataclass(frozen=True)
class WriteResult:
    """Accepted polaritons after hard-sphere blockade."""

    polariton_positions: np.ndarray  # (n, 3) um
    n_candidates: int

    @property
    def n_polaritons(self):
        """Number of stored polaritons, the rows of polariton_positions."""
        return len(self.polariton_positions)


#: Candidates per distance matrix in write_polaritons, which bounds its
#: memory for any cloud size; the default write draws about 3.5 candidates.
_WRITE_BLOCK = 256


def write_polaritons(cloud, r_o):
    """Sequential hard-sphere acceptance of excitation candidates.

    Candidates are visited in sampled order (an i.i.d. draw is already a
    uniformly random order); a candidate is excited iff no previously
    accepted excitation lies within r_o.  The distances of a block of up to
    _WRITE_BLOCK candidates to the earlier acceptances and to each other
    are computed at once; one pass over the block then accepts in order.
    """
    if not (math.isfinite(r_o) and r_o > 0):
        raise ValueError(f"r_o must be positive, got {r_o!r}")
    candidates = cloud.positions
    accepted = candidates[:0]
    for start in range(0, len(candidates), _WRITE_BLOCK):
        # rows: this block's candidates; columns: the acceptances so far, then
        # the same candidates
        others = np.concatenate([accepted, candidates[start:start + _WRITE_BLOCK]])
        near = ~(_distances(others[len(accepted):, None, :] - others) >= r_o)
        taken = list(range(len(accepted)))
        for index, row in enumerate(near.tolist(), start=len(accepted)):
            if not any(row[t] for t in taken):
                taken.append(index)
        accepted = others[taken]
    return WriteResult(polariton_positions=accepted, n_candidates=len(candidates))


def _written_register(config, r_o, seed, trial, bit_generator, min_candidates=0):
    """The blockaded write of one trial at blockade radius r_o, from that trial's streams.

    The streams are drawn by re-keying the caller's np.random.Philox, with
    the draws of philox_stream and sample_positions.  Returns None, without
    sampling the cloud, when fewer than min_candidates candidates are drawn:
    such a write cannot store min_candidates polaritons.
    """
    n_candidates = int(_rekeyed_stream(bit_generator, seed, _STAGE_CANDIDATES, trial)
                       .poisson(config.mean_input_photons * WRITE_EFFICIENCY))
    if n_candidates < min_candidates:
        return None
    if n_candidates == 0:
        return WriteResult(polariton_positions=np.empty((0, 3)), n_candidates=0)
    cloud = _cloud(config, n_candidates,
                   _rekeyed_stream(bit_generator, seed, _STAGE_CLOUD, trial))
    return write_polaritons(cloud, r_o)


# --------------------------------------------------------------------------
# Single-shot protocol

def _register_return_probability(positions, omega_mu, c3, pulse_duration):
    """All-s return probability of the stored register after the pulse."""
    n = len(positions)
    if n == 0 or omega_mu == 0.0 or pulse_duration == 0.0:
        return 1.0
    hamiltonian = build_pi_sector_hamiltonian(positions, omega_mu, c3)
    psi0 = np.zeros(2 ** n)
    psi0[0] = 1.0
    psi = time_evolve(hamiltonian, psi0, pulse_duration)
    return min(1.0, float(np.abs(psi[0]) ** 2))


def _worker_count(threads, cores, jobs):
    """Worker processes to start for `jobs` jobs: min(threads, cores, jobs), at least 1."""
    if threads is None:
        return 1
    return max(1, min(int(threads), int(cores or 1), int(jobs)))


def _map_blocks(func, items, threads):
    """func(items), computed in contiguous blocks by worker processes.

    func maps a block of items to one result per item.  Up to
    min(threads, cores, len(items)) workers each take one block, and their
    results are joined in order, so the result does not depend on the split.
    With one worker, func(items) runs in this process.
    """
    workers = _worker_count(threads, os.cpu_count(), len(items))
    if workers <= 1:
        return func(items)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return np.concatenate(list(pool.map(func, np.array_split(items, workers))))


def _check_trials(trials):
    if not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be a positive integer, got {trials!r}")


def _check_pulse(config, pulse_duration):
    if not (math.isfinite(pulse_duration) and 0 <= pulse_duration <= config.storage_time):
        raise ValueError(
            f"pulse_duration must fit in the storage interval [0, {config.storage_time}], "
            f"got {pulse_duration!r}")


def _shot_chunk(config, pair_coeffs, omega_mu, pulse_duration, seed, trials):
    """Detected counts of the given trials (see run_shots), inputs already checked.

    The chunk's streams are drawn from one re-keyed bit generator.
    """
    r_o = optical_blockade_radius(pair_coeffs.c6, config.eit_width)
    background_mean = config.background_rate * config.window_duration
    bit_generator = np.random.Philox()
    counts = []
    for trial in np.asarray(trials).tolist():
        write = _written_register(config, r_o, seed, trial, bit_generator)
        n = write.n_polaritons
        return_probability = _register_return_probability(
            write.polariton_positions, omega_mu, pair_coeffs.c3, pulse_duration)
        rng = _rekeyed_stream(bit_generator, seed, _STAGE_DETECT, trial)
        detected = 0
        if n:
            retrieved = rng.binomial(n, return_probability * BASE_RETRIEVAL_EFFICIENCY)
            detected = rng.binomial(retrieved, config.detection_efficiency)
        counts.append(int(detected + rng.poisson(background_mean)))
    return counts


def run_shots(config, pair_coeffs, omega_mu, pulse_duration, trials, seed, threads=1):
    """Detected photon counts for `trials` independent store-rotate-retrieve shots.

    Each shot draws from its trial's own streams.  The microwave pulse (area
    Theta = 2*pi*omega_mu*pulse_duration) rotates the stored register;
    phase-matched retrieval projects onto the all-s register, so every
    polariton is retrieved with the same probability (all-s return
    probability) * BASE_RETRIEVAL_EFFICIENCY, independently.  The common gate
    keeps the mean signal proportional to [cos^2(Theta/2)]^N for free
    rotation while the independent draws keep the photon statistics of N
    independent emitters (g2(0) = 1 - 1/N).  Detection thinning and Poisson
    background in the gate window follow.
    """
    _check_trials(trials)
    if not (math.isfinite(omega_mu) and omega_mu >= 0):
        raise ValueError(f"omega_mu must be a non-negative frequency, got {omega_mu!r}")
    _check_pulse(config, pulse_duration)
    _key(seed, _STAGE_DETECT, 0)  # the seed rule of every stream, checked before workers start
    counts = _map_blocks(
        partial(_shot_chunk, config, pair_coeffs, omega_mu, pulse_duration, seed),
        np.arange(trials), threads if trials >= 64 else 1)
    return np.asarray(counts, dtype=np.int64)


# --------------------------------------------------------------------------
# Detector clicks

#: Code points of the two detector labels, stored as one-character strings.
_DETECTOR_A = ord("A")
_LABEL_DTYPE = np.dtype("<U1")


def _detector_codes(detectors):
    """Code points (uint32) of detector labels; raises unless every label is 'A' or 'B'.

    A '<U1' array is read through a uint32 view, with no string comparison;
    any other array or sequence is compared as labels first.
    """
    labels = np.asarray(detectors)
    if labels.dtype != _LABEL_DTYPE:
        if not np.all(np.isin(labels, ("A", "B"))):
            raise ValueError("detectors must be 'A' or 'B'")
        labels = labels.astype(_LABEL_DTYPE)
    codes = labels.view(np.uint32)
    # the empty label reads as code 0
    if codes.size and not (codes.min() >= _DETECTOR_A and codes.max() <= _DETECTOR_A + 1):
        raise ValueError("detectors must be 'A' or 'B'")
    return codes


@dataclass(frozen=True)
class ClickRecord:
    """Time-tagged detector events for a run of n_trials identical trials.

    n_trials must be a positive integer and repetition_period a positive,
    finite time.  Events at or past n_trials repetition periods are kept in
    the record; hbt_g2 drops them.
    """

    times: np.ndarray       # absolute event times (us), sorted
    detectors: np.ndarray   # 'A' or 'B' per event
    n_trials: int
    repetition_period: float  # us

    def __post_init__(self):
        _check_trials(self.n_trials)
        if not 0 < self.repetition_period < math.inf:
            raise ValueError(
                f"repetition_period must be positive and finite, got {self.repetition_period!r}")
        times = np.asarray(self.times, dtype=float)
        detectors = np.asarray(self.detectors)
        if times.shape != detectors.shape or times.ndim != 1:
            raise ValueError("times and detectors must be matching 1-d arrays")
        # min and max propagate NaN, so the comparisons fail on it
        if times.size and not (times.min() >= 0 and times.max() < math.inf):
            raise ValueError("event times must be finite and non-negative")
        # overlapping windows of _CLICK_BLOCK + 1 events check every adjacent
        # pair with no temporary as long as the record
        for lo in range(0, times.size - 1, _CLICK_BLOCK):
            window = times[lo:lo + _CLICK_BLOCK + 1]
            if np.any(window[1:] < window[:-1]):
                raise ValueError("event times must be sorted")
        _detector_codes(detectors)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "detectors", detectors)


def _pulse_index(times, period):
    """np.floor_divide(times, period), as floats, for times >= 0 and period > 0.

    floor(times / period) is exact wherever the rounded quotient is not a
    whole number: rounding is monotone and cannot carry a quotient past a
    whole number it does not land on.  floor_divide then agrees, as it
    returns the exact floor for quotients below 2^50.  Quotients that land
    on a whole number (an event at a period boundary) take floor_divide.
    """
    quotient = times / period
    index = np.floor(quotient)
    whole = quotient == index
    if whole.any():
        index[whole] = np.floor_divide(times[whole], period)
    return index


#: Trials per block of the click stream, and events per block of
#: efficiency_drift_model, hbt_g2 and ClickRecord's order check, so that no
#: stage of the click pipeline holds a temporary as long as the run.
_CLICK_BLOCK = 16_384


class _ClickDraws:
    """The click stream's draws for a run, placed a block of _CLICK_BLOCK trials at a time.

    Everything is drawn at construction, in stream order: the signal
    offsets, then the background counts and offsets, then the detector
    codes of [signal, background].  Each distribution draws the same values
    in blocks as in one call over the run.  Offsets outside the window are
    redrawn in run order, one draw per pass, so every offset is drawn before
    the background.  place(b) builds block b's events.  Every event of
    a trial lies inside the trial's period (0 <= start < end < period), so
    sorting each block's [signal, background] stably equals sorting the
    run's.
    """

    def __init__(self, config, per_trial_photon_counts, seed):
        counts = np.asarray(per_trial_photon_counts)
        if counts.ndim != 1 or counts.size < 1:
            raise ValueError("per_trial_photon_counts must be a non-empty 1-d sequence")
        integral = counts.dtype.kind in "iub"
        if not integral:
            counts = counts.astype(float, copy=False)
        # min and max propagate NaN, so the comparisons fail on it
        if not (counts.min() >= 0 and counts.max() < math.inf):
            raise ValueError("photon counts must be finite and non-negative")
        self.counts = counts
        self.period = config.repetition_period
        n_trials = counts.size
        self.blocks = [(lo, min(lo + _CLICK_BLOCK, n_trials))
                       for lo in range(0, n_trials, _CLICK_BLOCK)]
        rng = philox_stream(seed, _STAGE_CLICKS)
        start, end = config.retrieval_window
        center = 0.5 * (start + end)
        sigma = RETRIEVAL_PULSE_FWHM / (2.0 * math.sqrt(2.0 * math.log(2.0)))

        # each event's time is its pulse start plus its offset in the window
        self.signal = []
        outside = []
        for lo, hi in self.blocks:
            block = counts[lo:hi]
            if not integral and np.any(np.floor(block) != block):
                raise ValueError("photon counts must be whole numbers")
            offsets = rng.normal(center, sigma, size=int(block.sum()))
            self.signal.append(offsets)
            outside.append(np.flatnonzero((offsets < start) | (offsets >= end)))
        # offsets outside the window are redrawn in run order, one draw per pass
        while redraws := sum(where.size for where in outside):
            redrawn = np.split(rng.normal(center, sigma, size=redraws),
                               np.cumsum([where.size for where in outside[:-1]]))
            for offsets, where, values in zip(self.signal, outside, redrawn):
                offsets[where] = values
            outside = [where[(values < start) | (values >= end)]
                       for where, values in zip(outside, redrawn)]

        # per block, the trials with background and their event counts
        self.hits = []
        for lo, hi in self.blocks:
            drawn = rng.poisson(config.background_rate * config.window_duration, size=hi - lo)
            hit = np.flatnonzero(drawn)
            self.hits.append((hit + lo, drawn[hit]))
        # block b's events are signal_at[b]:signal_at[b + 1] of the run's signal,
        # and background_at[b]:background_at[b + 1] of its background
        self.signal_at = np.cumsum([0] + [offsets.size for offsets in self.signal])
        self.background_at = np.cumsum([0] + [int(n.sum()) for _, n in self.hits])
        self.background = rng.uniform(start, end, size=self.background_at[-1])

        # detector codes in the order [signal, background], as the events are drawn
        self.codes = rng.integers(0, 2, size=self.signal_at[-1] + self.background.size,
                                  dtype=np.uint32)
        self.codes += _DETECTOR_A
        self.background_codes = self.codes[self.signal_at[-1]:].copy()

    def place(self, b):
        """(slice, times, codes): where block b's events go in the run, sorted by time.

        The block's signal offsets are released.
        """
        lo, hi = self.blocks[b]
        s0, s1 = self.signal_at[b], self.signal_at[b + 1]
        e0, e1 = self.background_at[b], self.background_at[b + 1]
        hit, n_hit = self.hits[b]
        offsets, self.signal[b] = self.signal[b], None
        times = np.concatenate([
            offsets + np.repeat(np.arange(lo, hi, dtype=float) * self.period,
                                self.counts[lo:hi].astype(np.int64, copy=False)),
            self.background[e0:e1] + np.repeat(hit * self.period, n_hit)])
        order = np.argsort(times, kind="stable")
        codes = np.concatenate([self.codes[s0:s1], self.background_codes[e0:e1]])
        return slice(s0 + e0, s1 + e1), times.take(order), codes.take(order)


def generate_click_stream(config, per_trial_photon_counts, seed):
    """Place detected photons and background on two detectors.

    Signal photons land on a Gaussian pulse (FWHM RETRIEVAL_PULSE_FWHM)
    centered in the retrieval window; background is a homogeneous Poisson
    process over the window; every event is routed 50/50 to detector A or B.
    The record is built _CLICK_BLOCK trials at a time (see _ClickDraws).
    """
    draws = _ClickDraws(config, per_trial_photon_counts, seed)
    codes = draws.codes
    times = np.empty(codes.size)
    # each block's sorted codes overwrite the codes of its own and later
    # blocks, so blocks are placed from the last one back
    for b in reversed(range(len(draws.blocks))):
        placed, block_times, block_codes = draws.place(b)
        times[placed] = block_times
        codes[placed] = block_codes
    return ClickRecord(times=times, detectors=codes.view(_LABEL_DTYPE),
                       n_trials=int(draws.counts.size), repetition_period=float(draws.period))


# --------------------------------------------------------------------------
# HBT correlation analysis

@dataclass(frozen=True)
class G2Result:
    """Pulsed cross-correlation g2 at integer multiples of the period."""

    tau_bins: np.ndarray            # delay k * repetition_period (us)
    g2: np.ndarray                  # normalized correlation per bin
    statistical_error: np.ndarray   # Poisson-propagated 1-sigma per bin
    coincidence_counts: np.ndarray  # raw cross-detector pair counts per bin
    g2_zero: float
    g2_zero_err: float
    side_peak_level: float          # normalization relative to uncorrelated rate

    def __post_init__(self):
        if np.any(np.asarray(self.g2) < 0):
            raise ValueError("g2 bins must be non-negative")
        positive = np.asarray(self.coincidence_counts) > 0
        if np.any(np.asarray(self.statistical_error)[positive] <= 0):
            raise ValueError("statistical error must be positive where counts exist")


#: Side-peak delays, in pulses, over which hbt_g2 normalizes.
_NORM_RANGE = (5, 50)

#: Pulses per row of _PulseCorrelator's buffer.
_CORRELATION_ROW = 64


def _check_delays(max_delay, n_trials):
    if not isinstance(max_delay, (int, np.integer)):
        raise ValueError(f"max_delay must be an integer, got {max_delay!r}")
    if max_delay < _NORM_RANGE[1]:
        raise ValueError(
            f"max_delay {max_delay!r} must cover the normalization range {_NORM_RANGE!r}")
    if max_delay >= n_trials:
        raise ValueError(
            f"max_delay {max_delay!r} exceeds the number of trials ({n_trials})")


class _PulseCorrelator:
    """Cross-detector coincidences of events fed in time order, and their g2.

    add() bins events per pulse and detector, dropping those at or past
    n_trials, into a buffer of rows of _CORRELATION_ROW pulses.  Pulse p of
    A's row r and pulse q of B's row r + d pair at delay k = d * row + q - p,
    a diagonal of A[r]^T B[r + d], so the row offsets |d| <= reach =
    ceil(max_delay / row) cover every |k| <= max_delay.  The buffer's first
    reach rows are the tail, rows correlated before.  When an event falls
    past the buffer, each row pair whose later row is new is multiplied
    once, and the reach rows before that event's row become the tail.  The
    counts are integers and every partial sum stays below 2^53, so the sums
    equal the whole run's exactly.
    """

    def __init__(self, max_delay, n_trials):
        row = _CORRELATION_ROW
        self.max_delay = max_delay
        self.n_trials = n_trials
        self.reach = -(-max_delay // row)
        rows = self.reach + max(self.reach, -(-_CLICK_BLOCK // row))
        self.counts = np.zeros((2, rows * row))
        self.start = -self.reach * row   # the pulse of column 0
        self.span = self.reach * row + row - 1   # the largest |k| any offset reaches
        self.sums = np.zeros(2 * self.span + 1)
        self.on_a = 0                    # events binned per detector
        self.on_b = 0

    def add(self, pulses, codes):
        """Bins events at pulse indices `pulses` with detector codes `codes`.

        pulses (as _pulse_index returns them) never decrease, within a call
        or across calls.
        """
        keys = pulses.astype(np.int64)
        keys = keys[:np.searchsorted(keys, self.n_trials)]
        on_b = codes[:keys.size] != _DETECTOR_A
        n_b = int(np.count_nonzero(on_b))
        self.on_a += keys.size - n_b
        self.on_b += n_b
        while keys.size:
            if keys[0] >= self.start + self.counts.shape[1]:
                self._flush(int(keys[0]))
            fit = np.searchsorted(keys, self.start + self.counts.shape[1])
            first = int(keys[0]) - self.start
            width = int(keys[fit - 1] - keys[0]) + 1
            window = self.counts[:, first:first + width]
            window += np.bincount(keys[:fit] - keys[0] + width * on_b[:fit],
                                  minlength=2 * width).reshape(2, width)
            keys, on_b = keys[fit:], on_b[fit:]

    def _flush(self, upto):
        """Correlates the new rows; the reach rows before `upto`'s row become the tail."""
        row, reach = _CORRELATION_ROW, self.reach
        a, b = self.counts.reshape(2, -1, row)
        new = a.shape[0] - reach
        # diagonal q - p of each entry, shifted to [0, 2 * row - 2]
        diagonal = (np.arange(row) - np.arange(row)[:, None] + row - 1).ravel()
        for d in range(-reach, reach + 1):
            # A's rows lo.. against B's rows lo + d..: the later row of each pair is new
            lo = reach - max(d, 0)
            product = a[lo:lo + new].T @ b[lo + d:lo + d + new]
            # diagonal 0 is delay k = (d - 1) * row + 1, at sums[span + k]
            self.sums[(reach + d) * row:(reach + d + 2) * row - 1] += np.bincount(
                diagonal, weights=product.ravel(), minlength=2 * row - 1)
        start = (upto // row - reach) * row
        kept = self.counts[:, start - self.start:].copy()
        self.counts[:] = 0
        self.counts[:, :kept.shape[1]] = kept
        self.start = start

    def result(self, period):
        """The G2Result of the events binned (see hbt_g2)."""
        self._flush(self.start + self.counts.shape[1])
        n_trials, max_delay = self.n_trials, self.max_delay
        k_lo, k_hi = _NORM_RANGE
        ks = np.arange(-max_delay, max_delay + 1)
        coincidences = self.sums[self.span - max_delay:self.span + max_delay + 1]
        pairs_available = (n_trials - np.abs(ks)).astype(float)

        rate = coincidences / pairs_available
        in_norm = (np.abs(ks) >= k_lo) & (np.abs(ks) <= k_hi)
        norm = float(np.mean(rate[in_norm]))
        if norm <= 0:
            raise ValueError("no coincidences in the normalization range")
        norm_err = float(np.sqrt(np.sum(coincidences[in_norm])) /
                         np.sum(pairs_available[in_norm]))

        g2 = rate / norm
        relative_norm = norm_err / norm
        g2_err = np.where(coincidences > 0,
                          g2 * np.sqrt(np.divide(1.0, coincidences,
                                                 out=np.zeros_like(coincidences),
                                                 where=coincidences > 0)
                                       + relative_norm ** 2),
                          0.0)
        zero_bin = max_delay
        # the mean clicks per pulse of A times those of B
        uncorrelated = (self.on_a / n_trials) * (self.on_b / n_trials)
        side_level = norm / uncorrelated if uncorrelated > 0 else math.inf
        return G2Result(tau_bins=ks * period, g2=g2, statistical_error=g2_err,
                        coincidence_counts=coincidences.astype(np.int64),
                        g2_zero=float(g2[zero_bin]), g2_zero_err=float(g2_err[zero_bin]),
                        side_peak_level=side_level)


def hbt_g2(clicks, max_delay=60):
    """Cross-detector coincidences binned by pulse-index difference.

    g2(k*T) = C_k / C_norm where C_norm is the mean per-pair coincidence
    rate over side peaks with 5 <= |k| <= 50 (_NORM_RANGE).  side_peak_level
    reports that normalization relative to the fully uncorrelated rate
    (mean_A * mean_B), which rises as 1 + Var/Mean^2 under slow efficiency
    drift while leaving the normalized bins untouched.  The coincidence
    counts C_k are exact integers.  The record is binned _CLICK_BLOCK events
    at a time into a _PulseCorrelator, and events at or past n_trials
    periods are dropped.
    """
    if clicks.times.size < 2:
        raise ValueError("need at least two events to correlate")
    _check_delays(max_delay, clicks.n_trials)
    correlator = _PulseCorrelator(int(max_delay), clicks.n_trials)
    codes = _detector_codes(clicks.detectors)
    for lo in range(0, clicks.times.size, _CLICK_BLOCK):
        correlator.add(_pulse_index(clicks.times[lo:lo + _CLICK_BLOCK],
                                    clicks.repetition_period),
                       codes[lo:lo + _CLICK_BLOCK])
    return correlator.result(clicks.repetition_period)


def background_correct_g2(g2_measured, signal_fraction):
    """Remove uncorrelated Poissonian background from a measured g2.

    With signal fraction rho of the total counts, g2_true =
    (g2_measured - (1 - rho^2)) / rho^2, clipped at zero.
    """
    rho = float(signal_fraction)
    if not (0.0 < rho <= 1.0):
        raise ValueError(f"signal_fraction must be in (0, 1], got {signal_fraction!r}")
    corrected = (np.asarray(g2_measured, dtype=float) - (1.0 - rho ** 2)) / rho ** 2
    corrected = np.clip(corrected, 0.0, None)
    return corrected if corrected.ndim else float(corrected)


# --------------------------------------------------------------------------
# Slow efficiency drift

#: Period, in trials, of the sinusoidal efficiency drift.
DRIFT_PERIOD_TRIALS = 5000.0


@dataclass(frozen=True)
class DriftSpec:
    """Slow sinusoidal modulation of the per-trial retrieval efficiency."""

    amplitude: float              # peak relative modulation, in [0, 1)
    rng_seed: int = 0             # master seed of the thinning stream

    def __post_init__(self):
        if not (0.0 <= self.amplitude < 1.0):
            raise ValueError(f"amplitude must be in [0, 1), got {self.amplitude!r}")
        _check_label("rng_seed", self.rng_seed)

    @classmethod
    def from_relative_std(cls, relative_std, rng_seed=0):
        """Spec whose efficiency time series has the given Var^0.5/Mean."""
        if not relative_std >= 0:
            raise ValueError(f"drift relative std must be >= 0, got {relative_std!r}")
        amplitude = relative_std * math.sqrt(2.0)
        # a sinusoid's relative std is below 1/sqrt(2), where the amplitude reaches 1
        if not amplitude < 1.0:
            raise ValueError(f"drift relative std must be below 1/sqrt(2) = "
                             f"{math.sqrt(0.5):.4f}, got {relative_std!r}")
        return cls(amplitude=amplitude, rng_seed=rng_seed)

    def modulation(self, trial_indices):
        """Relative efficiency (1 + m_t) / (1 + amplitude), in (0, 1]."""
        series = np.array(trial_indices, dtype=float)
        series *= 2.0 * math.pi
        series /= DRIFT_PERIOD_TRIALS
        np.sin(series, out=series)
        series *= self.amplitude
        series += 1.0
        series /= 1.0 + self.amplitude
        return series


def _kept(rng, pulses, drift_spec, out=None):
    """Keep decisions of events at pulse indices `pulses`, from rng's next draws."""
    return np.less(rng.random(pulses.size), drift_spec.modulation(pulses), out=out)


def efficiency_drift_model(clicks, drift_spec):
    """Thin a click record by a slowly varying per-trial efficiency.

    The keep decisions are drawn, and the kept events gathered, _CLICK_BLOCK
    events at a time; the decisions are the values of one draw over the record.
    """
    times = clicks.times
    detectors = clicks.detectors
    rng = philox_stream(drift_spec.rng_seed, _STAGE_DRIFT)
    keep = np.empty(times.size, dtype=bool)
    blocks = range(0, times.size, _CLICK_BLOCK)
    for lo in blocks:
        _kept(rng, _pulse_index(times[lo:lo + _CLICK_BLOCK], clicks.repetition_period),
              drift_spec, out=keep[lo:lo + _CLICK_BLOCK])
    kept_times = np.empty(np.count_nonzero(keep))
    kept_detectors = np.empty(kept_times.size, dtype=detectors.dtype)
    at = 0
    for lo in blocks:
        kept = np.flatnonzero(keep[lo:lo + _CLICK_BLOCK]) + lo
        np.take(times, kept, out=kept_times[at:at + kept.size])
        np.take(detectors, kept, out=kept_detectors[at:at + kept.size])
        at += kept.size
    return replace(clicks, times=kept_times, detectors=kept_detectors)


# --------------------------------------------------------------------------
# Source models and end-to-end correlation runs

def emitter_photon_counts(n_emitters, detection_prob, trials, seed):
    """Per-trial detected counts from n independent single-photon emitters."""
    if not isinstance(n_emitters, (int, np.integer)) or n_emitters < 1:
        raise ValueError(f"n_emitters must be a positive integer, got {n_emitters!r}")
    if not (0.0 <= detection_prob <= 1.0):
        raise ValueError(f"detection_prob must be in [0, 1], got {detection_prob!r}")
    _check_trials(trials)
    rng = philox_stream(seed, _STAGE_EMITTER)
    return rng.binomial(int(n_emitters), detection_prob, size=int(trials))


def poisson_photon_counts(mean, trials, seed):
    """Per-trial counts from a coherent (Poissonian) source."""
    if not (math.isfinite(mean) and mean >= 0):
        raise ValueError(f"mean must be non-negative, got {mean!r}")
    _check_trials(trials)
    rng = philox_stream(seed, _STAGE_EMITTER)
    return rng.poisson(mean, size=int(trials))


def simulate_hbt_run(config, trials, seed, n_emitters=3,
                     detection_prob=EMITTER_DETECTION_PROB, drift=None,
                     max_delay=60):
    """Counts -> clicks -> (optional drift) -> g2 for an emitter-model run.

    Returns, byte for byte, hbt_g2 of generate_click_stream(config, counts,
    seed), thinned by efficiency_drift_model(..., drift) unless drift is
    None, where counts = emitter_photon_counts(n_emitters, detection_prob,
    trials, seed).  No click record is built: the counts are narrowed to the
    smallest dtype that holds n_emitters, and the click stream is consumed
    _CLICK_BLOCK trials at a time.  Each block's events are placed, thinned
    by the drift stream's next draws and binned into the correlator, so the
    run holds only the counts and the click stream's draws (see _ClickDraws).
    The trial count and delay range are checked before anything is drawn.
    """
    _check_trials(trials)
    _check_delays(max_delay, trials)
    draws = _ClickDraws(config, emitter_photon_counts(n_emitters, detection_prob, trials, seed)
                        .astype(np.min_scalar_type(n_emitters)), seed)
    thinning = None if drift is None else philox_stream(drift.rng_seed, _STAGE_DRIFT)
    correlator = _PulseCorrelator(int(max_delay), int(trials))
    events = 0
    for b in range(len(draws.blocks)):
        _, times, codes = draws.place(b)
        pulses = _pulse_index(times, config.repetition_period)
        if thinning is not None:
            kept = _kept(thinning, pulses, drift)
            pulses, codes = pulses[kept], codes[kept]
        events += pulses.size
        correlator.add(pulses, codes)
    if events < 2:
        raise ValueError("need at least two events to correlate")
    return correlator.result(config.repetition_period)


# --------------------------------------------------------------------------
# Microwave Rabi scans

@dataclass(frozen=True)
class RabiScanResult:
    """Mean detected counts versus microwave Rabi frequency."""

    omegas: np.ndarray       # MHz
    mean_counts: np.ndarray
    sem_counts: np.ndarray   # floored at 1/trials, the SEM of a single count
    pulse_duration: float    # us
    trials: int


def _scan_geometries(config, pair_coeffs, count, seed, n_polaritons=None):
    """The first `count` written registers, optionally of those storing n_polaritons.

    Attempt a is the write of trial a; an attempt with fewer candidates than
    n_polaritons is skipped without sampling its cloud.
    """
    budget = 10000 * count
    r_o = optical_blockade_radius(pair_coeffs.c6, config.eit_width)
    bit_generator = np.random.Philox()
    writes = (_written_register(config, r_o, seed, attempt, bit_generator,
                                min_candidates=n_polaritons or 0)
              for attempt in range(budget))
    kept = (w for w in writes
            if w is not None and (n_polaritons is None or w.n_polaritons == n_polaritons))
    geometries = list(islice(kept, count))
    if len(geometries) < count:
        raise RuntimeError(
            f"could not draw {count} registers with {n_polaritons} polaritons "
            f"in {budget} attempts")
    return geometries


def simulate_rabi_scan(config, pair_coeffs, omegas, pulse_duration, trials, seed,
                       n_polaritons=None, geometry_samples=400, threads=1):
    """Detected-count curve versus drive strength at fixed pulse duration.

    The register dynamics is evaluated once per (geometry, omega) on a fixed
    ensemble of `geometry_samples` written registers, and the per-trial
    detection statistics are then sampled with trials cycling through that
    ensemble — the shot noise of the full pipeline at a fraction of the cost.
    With threads > 1, up to min(threads, cores, drives) worker processes each
    take a contiguous block of drives; results do not depend on the split.
    """
    omegas = np.asarray(omegas, dtype=float)
    if omegas.ndim != 1 or omegas.size < 1:
        raise ValueError("omegas must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(omegas)) or np.any(omegas < 0):
        raise ValueError("omegas must be finite and non-negative")
    _check_pulse(config, pulse_duration)
    if not isinstance(trials, (int, np.integer)) or trials < 2:
        raise ValueError(f"trials must be an integer >= 2, got {trials!r}")
    if not isinstance(geometry_samples, (int, np.integer)) or geometry_samples < 1:
        raise ValueError(
            f"geometry_samples must be a positive integer, got {geometry_samples!r}")
    if n_polaritons is not None and not (
            isinstance(n_polaritons, (int, np.integer)) and 0 <= n_polaritons <= _MAX_SITES):
        raise ValueError(f"n_polaritons must be None or an integer in [0, {_MAX_SITES}], "
                         f"got {n_polaritons!r}")
    geometries = _scan_geometries(config, pair_coeffs, int(geometry_samples), seed,
                                  n_polaritons=n_polaritons)
    n_per_geometry = np.array([g.n_polaritons for g in geometries], dtype=np.int64)

    registers = [g.polariton_positions for g in geometries]
    overlaps = _map_blocks(partial(_scan_return_probabilities, registers, c3=pair_coeffs.c3,
                                   pulse_duration=pulse_duration), omegas, threads)

    trials = int(trials)
    assignment = np.arange(trials) % len(geometries)
    n_assigned = n_per_geometry[assignment]
    background_mean = config.background_rate * config.window_duration
    means = np.empty(omegas.size)
    sems = np.empty(omegas.size)
    for i in range(omegas.size):
        p_detect = overlaps[i] * BASE_RETRIEVAL_EFFICIENCY * config.detection_efficiency
        rng = philox_stream(seed, _STAGE_SCAN, i)
        counts = rng.binomial(n_assigned, p_detect[assignment])
        counts = counts + rng.poisson(background_mean, size=trials)
        means[i] = counts.mean()
        # a point with no count in any trial would otherwise get sigma = 0,
        # which no weighted fit accepts
        sems[i] = max(counts.std(ddof=1) / math.sqrt(trials), 1.0 / trials)
    return RabiScanResult(omegas=omegas, mean_counts=means, sem_counts=sems,
                          pulse_duration=float(pulse_duration), trials=trials)
