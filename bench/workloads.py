"""The benchmark's workloads: inputs, one job, a warm-up and the checks.

A workload object is built after rydpol is imported and keeps the rydpol
modules it calls through, so the wrappers in ``spans`` see every call.  Every
call runs with ``threads=1``: no worker process is started.  ``job(seed)``
is the timed unit; ``check(seed, output)`` reruns or recomputes outside the
timed jobs and raises ``checks.CheckFailed`` on a wrong output.
"""

from __future__ import annotations

import importlib
import json
import math
from importlib.resources import files

import numpy as np

import checks
from spans import Tracer


def packaged_config():
    """The ExperimentConfig shipped in rydpol/data/default_config.json."""
    config = importlib.import_module("rydpol.config")
    text = files("rydpol.data").joinpath("default_config.json").read_text()
    return config.ExperimentConfig.from_dict(json.loads(text))


#: Seed of the warm-up, the same on every run so that set-up does equal work.
WARM_UP_SEED = 0


def job_seed(seed, job):
    """Seed of the job-th job of a run: the run's seed, then derived 63-bit seeds."""
    if job == 0:
        return seed
    state = np.random.SeedSequence([seed, job]).generate_state(2, dtype=np.uint32)
    return (int(state[0]) << 31) | (int(state[1]) >> 1)


class Workload:
    name = ""
    default_seed = 1

    def __init__(self):
        self.mc = importlib.import_module("rydpol.montecarlo")
        self.interactions = importlib.import_module("rydpol.interactions")
        self.fitting = importlib.import_module("rydpol.fitting")
        self.config = packaged_config()
        self.pair = importlib.import_module("rydpol.config").RB60_PAIR
        # a stored polariton is detected with probability (all-s return
        # probability) * efficiency; background counts are Poisson(background)
        self.efficiency = self.mc.BASE_RETRIEVAL_EFFICIENCY * self.config.detection_efficiency
        self.background = self.config.background_rate * self.config.window_duration


class Protocol(Workload):
    """``rydpol protocol --omega-mu 2 --pulse-ns 150 --trials 2000 --threads 1``."""

    name = "protocol"
    omega_mu = 2.0
    pulse = 0.150
    #: shots whose write and return probability are checked one by one
    checked_shots = 20

    def __init__(self, shots=2000):
        super().__init__()
        self.shots = shots

    def job(self, seed, shots=None):
        return self.mc.run_shots(self.config, self.pair, self.omega_mu, self.pulse,
                                 shots or self.shots, seed, threads=1)

    def warm_up(self):
        self.job(WARM_UP_SEED, shots=50)

    def check(self, seed, counts):
        tracer = Tracer(keep={"montecarlo.write_polaritons",
                              "interactions.build_pi_sector_hamiltonian",
                              "interactions.time_evolve"})
        with tracer.installed(), tracer.job():
            again = self.job(seed)
        checks.require(np.array_equal(again, counts), "a rerun on the same seed gave other counts")
        checks.counts_per_shot(counts, self.shots)

        r_o = checks.blockade_radius(self.pair.c6, self.config.eit_width)
        write_calls = tracer.kept("montecarlo.write_polaritons")
        for _, args, _, write in write_calls[:self.checked_shots]:
            checks.require(math.isclose(args[1], r_o, rel_tol=1e-12),
                           f"write used r_o = {args[1]!r}, expected {r_o!r}")
            checks.blockaded_write(args[0].positions, r_o, write.polariton_positions)

        solves = list(zip(tracer.kept("interactions.build_pi_sector_hamiltonian"),
                          tracer.kept("interactions.time_evolve")))
        stored = [call[3] for call in write_calls if call[3].n_polaritons]
        checks.require(len(solves) == len(stored),
                       f"{len(stored)} non-empty registers but {len(solves)} solves")
        probabilities = []
        for index, (write, (build, evolve)) in enumerate(zip(stored, solves)):
            positions, omega, c3 = build[1][:3]
            h = build[3]
            checks.require(np.array_equal(positions, write.polariton_positions)
                           and evolve[1][0] is h, f"solve {index} is not of register {index}")
            p = float(abs(evolve[3][0]) ** 2)
            if index < self.checked_shots:
                full = None
                if write.n_polaritons <= 4:
                    basis = self.interactions.SiteBasis(write.n_polaritons)
                    full = self.interactions.build_hamiltonian(basis, positions, omega, c3).matrix
                checks.return_probability(p, h, self.pulse, full)
            probabilities.append(checks.reference_return_probability(h, self.pulse))

        n = [w.n_polaritons for w in stored]
        means, variances = checks.count_moments(n, probabilities, self.efficiency, 0.0)
        expected = means.sum() / self.shots + self.background
        error = math.sqrt(variances.sum() + self.shots * self.background) / self.shots
        checks.mean_within(float(np.mean(counts)), expected, error, "detected count")


class RabiScan(Workload):
    """``rydpol rabi-scan`` of 3-polariton registers over 40 drives, then an LM fit.

    The scan is ``--omega-min 0.5 --omega-max 13.5 --points 40 --pulse-ns 150
    --trials 2000 --n-polaritons 3 --threads 1``: 400 written registers, each
    solved at every drive.  Conditioning on the stored number keeps the cost
    of a job from hinging on the rare 9- to 12-polariton registers of an
    unconditioned scan.  The fit is ``fit(rabi_collective_spec(...))`` of a
    synthetic 40-point collective-Rabi scan drawn from the job's seed, as in
    acceptance criterion 07 and ``scripts/collective_fit_demo.py``.
    """

    name = "rabi-scan"
    pulse = 0.150
    trials = 2000
    n_polaritons = 3
    #: number of drives, spread over the scan, whose mean count is checked
    checked_points = 4
    #: synthetic fit input: shots per point and the true (a, n, omega_env,
    #: omega_decay, b) of the collective-Rabi model
    fit_shots = 30 * 3334
    fit_truth = (0.0216, 3.0, 2.0, 3.0, 0.00065)

    def __init__(self, registers=400, points=40):
        super().__init__()
        self.registers = registers
        self.omegas = np.linspace(0.5, 13.5, points)

    def scan(self, seed, omegas, trials, registers):
        return self.mc.simulate_rabi_scan(self.config, self.pair, omegas, self.pulse,
                                          trials, seed, n_polaritons=self.n_polaritons,
                                          geometry_samples=registers, threads=1)

    def synthetic_scan(self, seed):
        """Binomial counting noise on the collective-Rabi model: (y, sigma)."""
        p = self.fitting.rabi_collective_model(self.omegas, self.pulse, *self.fit_truth)
        rng = np.random.Generator(np.random.Philox(seed))
        y = rng.binomial(self.fit_shots, p) / self.fit_shots
        return y, np.sqrt(np.maximum(y * (1.0 - y), 1e-12) / self.fit_shots)

    def job(self, seed):
        scan = self.scan(seed, self.omegas, self.trials, self.registers)
        y, sigma = self.synthetic_scan(seed)
        spec = self.fitting.rabi_collective_spec(self.pulse, self.omegas, y)
        return scan, self.fitting.fit(spec, self.omegas, y, sigma)

    def warm_up(self):
        self.scan(WARM_UP_SEED, self.omegas[::8], 100, 10)

    def stored_registers(self, seed):
        """Positions of the scan's registers, in order, and the first point's mean.

        Reruns the scan at its first drive alone: the registers depend only
        on the seed, and so does point 0's detection stream.
        """
        tracer = Tracer(keep={"montecarlo.write_polaritons"})
        with tracer.installed(), tracer.job():
            first = self.scan(seed, self.omegas[:1], self.trials, self.registers)
        registers = [call[3].polariton_positions for call in tracer.calls
                     if call[3].n_polaritons == self.n_polaritons]
        checks.require(len(registers) == self.registers,
                       f"{len(registers)} writes stored {self.n_polaritons} polaritons, "
                       f"expected {self.registers}")
        return registers, float(first.mean_counts[0])

    def check(self, seed, output):
        scan, result = output
        checks.require(np.array_equal(scan.omegas, self.omegas) and scan.trials == self.trials,
                       "the scan does not cover the requested drives and trials")
        registers, first_mean = self.stored_registers(seed)
        checks.require(first_mean == scan.mean_counts[0],
                       "a rerun on the same seed gave another mean at the first drive")
        for point in np.linspace(0, self.omegas.size - 1, self.checked_points).astype(int):
            omega = float(self.omegas[point])
            p = np.array([checks.reference_return_probability(
                self.interactions.build_pi_sector_hamiltonian(r, omega, self.pair.c3),
                self.pulse) for r in registers])
            assigned = p[np.arange(self.trials) % self.registers]
            means, variances = checks.count_moments(self.n_polaritons, assigned,
                                                    self.efficiency, self.background)
            checks.mean_within(float(scan.mean_counts[point]), float(means.mean()),
                               math.sqrt(variances.sum()) / self.trials,
                               f"drive {omega:.4g} MHz")
        checks.converged_fit(result)
        checks.fit_recovers(result, "n", self.fit_truth[1])


class G2(Workload):
    """``rydpol g2 --trials 1000000 --drift-std 0.3``: 3 emitters, detection 0.35."""

    name = "g2"
    default_seed = 42
    n_emitters = 3
    detection_prob = 0.35
    drift_std = 0.3
    max_delay = 60
    #: hbt_g2's default normalization range, in pulse-index delays
    norm_range = (5, 50)

    def __init__(self, trials=1_000_000):
        super().__init__()
        self.trials = trials

    def drift(self, seed):
        return self.mc.DriftSpec.from_relative_std(self.drift_std, rng_seed=seed)

    def job(self, seed, trials=None):
        return self.mc.simulate_hbt_run(self.config, trials or self.trials, seed,
                                        n_emitters=self.n_emitters,
                                        detection_prob=self.detection_prob,
                                        drift=self.drift(seed), max_delay=self.max_delay)

    def warm_up(self):
        self.job(WARM_UP_SEED, trials=20_000)

    def check(self, seed, result):
        counts = self.mc.emitter_photon_counts(self.n_emitters, self.detection_prob,
                                               self.trials, seed)
        clicks = self.mc.generate_click_stream(self.config, counts, seed)
        clicks = self.mc.efficiency_drift_model(clicks, self.drift(seed))
        delays, coincidences, g2 = checks.correlate(clicks, self.max_delay, self.norm_range)
        checks.require(np.allclose(result.tau_bins, delays * self.config.repetition_period),
                       "g2 delays are not the pulse-index delays")
        checks.g2_bins_match(result, coincidences, g2)
        checks.g2_zero_law(result.g2_zero, result.g2_zero_err, self.n_emitters)
        checks.norm_bins_average_one(delays, result.g2, self.norm_range)
        checks.side_peak_level(result.side_peak_level, self.drift_std)


WORKLOADS = {w.name: w for w in (Protocol, RabiScan, G2)}
