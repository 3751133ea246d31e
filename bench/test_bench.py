"""Tests of the benchmark itself, on small inputs.

Each correctness check rejects a planted wrong output and accepts the real
one; traced counts reconcile and repeat exactly on one seed.  Run from the
repository root with ``python3 -m pytest bench``.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckFailed  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402
from workloads import G2, Protocol, RabiScan, job_seed  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def protocol():
    return Protocol(shots=200)


@pytest.fixture(scope="module")
def scan():
    return RabiScan(registers=40, points=12)


@pytest.fixture(scope="module")
def scan_output(scan):
    return scan.job(SEED)


@pytest.fixture(scope="module")
def g2():
    return G2(trials=200_000)


@pytest.fixture(scope="module")
def g2_result(g2):
    return g2.job(SEED)


# --------------------------------------------------------------------------
# Protocol: counts, write, return probability, mean count

def test_protocol_check_accepts_real_output(protocol):
    protocol.check(SEED, protocol.job(SEED))


def test_protocol_check_rejects_changed_count(protocol):
    counts = protocol.job(SEED).copy()
    counts[7] += 1
    with pytest.raises(CheckFailed, match="rerun"):
        protocol.check(SEED, counts)


@pytest.mark.parametrize("counts", [np.array([0, 1, -1]), np.array([0.0, 1.0, 2.0]),
                                    np.array([0, 1])])
def test_counts_check_rejects(counts):
    with pytest.raises(CheckFailed):
        checks.counts_per_shot(counts, 3)


def test_blockade_check():
    r_o = 7.0
    candidates = np.array([[0, 0, 0], [0, 0, 3.0], [0, 0, 10.0], [0, 0, 12.0]])
    checks.blockaded_write(candidates, r_o, candidates[[0, 2]])
    with pytest.raises(CheckFailed, match="accepted pair"):
        checks.blockaded_write(candidates, r_o, candidates[[0, 1, 2]])
    with pytest.raises(CheckFailed, match="rejected"):
        checks.blockaded_write(candidates, r_o, candidates[[0]])
    with pytest.raises(CheckFailed, match="in order"):
        checks.blockaded_write(candidates, r_o, np.vstack([candidates[[0, 2]], [0, 0, 30.0]]))


def test_blockade_check_on_a_real_write(protocol):
    r_o = checks.blockade_radius(protocol.pair.c6, protocol.config.eit_width)
    cloud = protocol.mc.sample_positions(protocol.config, 12, SEED)
    write = protocol.mc.write_polaritons(cloud, r_o)
    assert 1 < write.n_polaritons < 12
    checks.blockaded_write(cloud.positions, r_o, write.polariton_positions)
    squeezed = np.vstack([write.polariton_positions,
                          write.polariton_positions[:1] + [0.0, 0.0, 0.5 * r_o]])
    with pytest.raises(CheckFailed, match="accepted pair"):
        checks.blockaded_write(np.vstack([cloud.positions, squeezed[-1:]]), r_o, squeezed)


@pytest.mark.parametrize("n", [3, 5])
def test_return_probability_check(protocol, n):
    positions = np.column_stack([np.zeros(n), np.zeros(n), 7.5 * np.arange(n)])
    inter = protocol.interactions
    h = inter.build_pi_sector_hamiltonian(positions, 2.0, protocol.pair.c3)
    psi0 = np.zeros(2 ** n)
    psi0[0] = 1.0
    p = float(abs(inter.time_evolve(h, psi0, protocol.pulse)[0]) ** 2)
    full = None
    if n <= 4:
        basis = inter.SiteBasis(n)
        full = inter.build_hamiltonian(basis, positions, 2.0, protocol.pair.c3).matrix
    checks.return_probability(p, h, protocol.pulse, full)
    for planted in (0.9 * p, 1.1, -0.1):
        with pytest.raises(CheckFailed):
            checks.return_probability(planted, h, protocol.pulse, full)
    if full is not None:
        # the pi-sector matrix of another drive agrees with itself, not with the 4^n model
        h_other = inter.build_pi_sector_hamiltonian(positions, 3.0, protocol.pair.c3)
        p_other = checks.reference_return_probability(h_other, protocol.pulse)
        with pytest.raises(CheckFailed, match="4\\^n"):
            checks.return_probability(p_other, h_other, protocol.pulse, full)


def test_reference_probability_branches_agree(protocol, monkeypatch):
    n = 9
    positions = np.column_stack([np.zeros(n), np.zeros(n), 7.5 * np.arange(n)])
    h = protocol.interactions.build_pi_sector_hamiltonian(positions, 2.0, protocol.pair.c3)
    by_eigh = checks.reference_return_probability(h, protocol.pulse)
    monkeypatch.setattr(checks, "EXPM_MAX_DIM", 2 ** n)
    assert by_eigh == pytest.approx(checks.reference_return_probability(h, protocol.pulse),
                                    abs=1e-12)


def test_mean_check():
    checks.mean_within(1.0 + 4.9e-3, 1.0, 1e-3, "x")
    with pytest.raises(CheckFailed):
        checks.mean_within(1.0 + 5.1e-3, 1.0, 1e-3, "x")


def test_count_moments_match_sampling():
    rng = np.random.default_rng(0)
    n, p, eff, bg = 4, 0.7, 0.3, 0.2
    draws = rng.binomial(n, p * eff, 400_000) + rng.poisson(bg, 400_000)
    mean, var = checks.count_moments(n, p, eff, bg)
    assert draws.mean() == pytest.approx(mean, rel=5e-3)
    assert draws.var() == pytest.approx(var, rel=1e-2)


# --------------------------------------------------------------------------
# Rabi scan and fit

def test_scan_check_accepts_real_output(scan, scan_output):
    scan.check(SEED, scan_output)


def test_scan_check_rejects_counts_of_an_unrotated_register(scan, scan_output):
    """Means drawn as if the pulse never rotated the register (p = 1) miss the expectation."""
    result, fit = scan_output
    rng = np.random.default_rng(1)
    planted = np.array([(rng.binomial(scan.n_polaritons, scan.efficiency, scan.trials)
                         + rng.poisson(scan.background, scan.trials)).mean()
                        for _ in scan.omegas])
    planted[0] = result.mean_counts[0]  # keep the rerun comparison passing
    with pytest.raises(CheckFailed, match="standard errors"):
        scan.check(SEED, (replace(result, mean_counts=planted), fit))


def test_fit_check(scan_output):
    _, fit = scan_output
    checks.converged_fit(fit)
    with pytest.raises(CheckFailed, match="status"):
        checks.converged_fit(replace(fit, status="max_iterations"))
    names = list(fit.parameter_names)
    for bad in (math.nan, -1.0):
        parameters = fit.parameters.copy()
        parameters[names.index("n")] = bad
        with pytest.raises(CheckFailed, match="fitted n"):
            checks.converged_fit(replace(fit, parameters=parameters))
    errors = fit.uncertainties.copy()
    errors[names.index("n")] = math.inf
    with pytest.raises(CheckFailed, match="uncertainty"):
        checks.converged_fit(replace(fit, uncertainties=errors))
    checks.fit_recovers(fit, "n", 3.0)
    with pytest.raises(CheckFailed, match="sigma from the true"):
        checks.fit_recovers(fit, "n", 2.0)


# --------------------------------------------------------------------------
# g2

def test_g2_check_accepts_real_output(g2, g2_result):
    g2.check(SEED, g2_result)


def test_g2_bins_check_rejects_perturbed_bin(g2, g2_result):
    bins = g2_result.g2.copy()
    bins[3] += 1e-9
    with pytest.raises(CheckFailed, match="g2 bins"):
        g2.check(SEED, replace(g2_result, g2=bins))
    coincidences = g2_result.coincidence_counts.copy()
    coincidences[3] += 1
    with pytest.raises(CheckFailed, match="coincidence"):
        g2.check(SEED, replace(g2_result, coincidence_counts=coincidences))


def test_g2_law_rejects_two_emitters(g2):
    two = g2.mc.simulate_hbt_run(g2.config, 200_000, SEED, n_emitters=2,
                                 detection_prob=g2.detection_prob)
    checks.g2_zero_law(two.g2_zero, two.g2_zero_err, 2)
    with pytest.raises(CheckFailed, match="sigma"):
        checks.g2_zero_law(two.g2_zero, two.g2_zero_err, 3)


def test_norm_bins_check(g2, g2_result):
    delays = np.rint(g2_result.tau_bins / g2.config.repetition_period).astype(int)
    checks.norm_bins_average_one(delays, g2_result.g2, g2.norm_range)
    with pytest.raises(CheckFailed, match="normalization"):
        checks.norm_bins_average_one(delays, 1.01 * g2_result.g2, g2.norm_range)


def test_side_peak_check_rejects_a_run_without_drift(g2, g2_result):
    checks.side_peak_level(g2_result.side_peak_level, g2.drift_std)
    flat = g2.mc.simulate_hbt_run(g2.config, 200_000, SEED, n_emitters=3,
                                  detection_prob=g2.detection_prob)
    with pytest.raises(CheckFailed, match="side-peak"):
        checks.side_peak_level(flat.side_peak_level, g2.drift_std)


# --------------------------------------------------------------------------
# Tracing

def traced_counts(workload, seed):
    tracer = Tracer()
    with tracer.installed(), tracer.job():
        workload.job(seed)
    return tracer.jobs[0]["counts"], tracer


@pytest.mark.parametrize("make", [lambda: Protocol(shots=150),
                                  lambda: RabiScan(registers=30, points=6)])
def test_traced_counts_reconcile_and_repeat(make):
    workload = make()
    counts, tracer = traced_counts(workload, SEED)
    again, _ = traced_counts(workload, SEED)
    assert counts == again
    dims = sum(counts[f"interactions.eigenspectrum.{key}"] for key in
               [f"dim_{d}" for d in (2, 4, 8, 16, 32, 64, 128)] + ["dim_256up"])
    assert counts["interactions.eigenspectrum.calls"] == dims > 0
    assert (counts["interactions.eigenspectrum.calls"]
            == counts["interactions.time_evolve.calls"]
            == counts["interactions.build_pi_sector_hamiltonian.calls"])
    assert (counts["montecarlo.write_polaritons.candidates"]
            >= counts["montecarlo.write_polaritons.accepted"] > 0)
    job = tracer.jobs[0]
    assert sum(job["self_s"].values()) == pytest.approx(job["job_s"], rel=1e-9)
    assert len(tracer.spans) == sum(v for k, v in counts.items() if k.endswith(".calls"))


def test_tracer_restores_the_program():
    originals = [getattr(sys.modules[m], a) for m, a, _, _ in TARGETS]
    with Tracer().installed():
        assert all(getattr(sys.modules[m], a) is not o
                   for (m, a, _, _), o in zip(TARGETS, originals))
    assert all(getattr(sys.modules[m], a) is o for (m, a, _, _), o in zip(TARGETS, originals))


# --------------------------------------------------------------------------
# The runner

def test_job_seeds():
    assert job_seed(5, 0) == 5
    seeds = [job_seed(5, j) for j in range(50)]
    assert seeds == [job_seed(5, j) for j in range(50)]
    assert len(set(seeds)) == 50 and all(0 <= s < 1 << 63 for s in seeds)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "job_s", "peak_rss_mb"]
    assert {w["name"] for w in spec["workloads"]} == {"protocol", "rabi-scan", "g2"}
    reported = set(run.COUNT_METRICS) | {f"{s}.self_s" for s in run.SELF_TIME_SPANS}
    assert {m["name"] for m in spec["per_layer"]} == reported
    for metric in spec["per_layer"]:
        assert metric["unit"] == ("s" if metric["name"].endswith(".self_s") else "count")


def test_no_child_process_is_alive():
    assert run.live_children() == []


def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "g2", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2
    assert done.stdout == ""
