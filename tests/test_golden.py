"""Golden fixture: return probabilities, scan means and shot counts, frozen.

``tests/data/golden.json`` holds outputs of the register kernel and of the
Monte Carlo entry points for fixed seeds, so a change that should keep
behaviour (a faster kernel, a refactor) shows any drift:

  * written registers of n = 1..8 polaritons (positions exact) and their
    all-s return probabilities over a grid of drives and pulse lengths,
    to 1e-12, from the single-register and from the batched scan kernel,
  * ``simulate_rabi_scan`` mean counts of one conditioned and one
    unconditioned scan, exactly,
  * ``run_shots`` counts for one seed, exactly,
  * every ``G2Result`` field of one drifted ``simulate_hbt_run``, exactly.

Record it again only for a change that is meant to alter these outputs:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

from rydpol.config import ExperimentConfig, RB60_PAIR
from rydpol.interactions import _scan_return_probabilities
from rydpol.montecarlo import (
    DriftSpec,
    _register_return_probability,
    _scan_geometries,
    run_shots,
    simulate_hbt_run,
    simulate_rabi_scan,
)

FIXTURE = Path(__file__).with_name("data") / "golden.json"
CFG = ExperimentConfig()

REGISTER_SIZES = range(1, 9)
REGISTERS_PER_SIZE = 2
REGISTER_SEED = 100  # registers of size n are drawn from seed REGISTER_SEED + n
DRIVES = (0.0, 0.5, 2.0, 7.0, 13.5)  # MHz
PULSES = (0.0, 0.15, 0.3)            # us
PROBABILITY_TOLERANCE = 1e-12

SCANS = {
    "conditioned": dict(omegas=np.linspace(0.5, 13.5, 6), pulse_duration=0.15,
                        trials=20000, seed=11, n_polaritons=3, geometry_samples=40),
    "unconditioned": dict(omegas=np.linspace(0.0, 10.0, 5), pulse_duration=0.3,
                          trials=20000, seed=12, n_polaritons=None,
                          geometry_samples=40),
}
SHOTS = dict(omega_mu=2.0, pulse_duration=0.15, trials=1000, seed=5)
HBT = dict(trials=20_000, seed=21, drift_std=0.3)


def _registers(n):
    return _scan_geometries(CFG, RB60_PAIR, REGISTERS_PER_SIZE, REGISTER_SEED + n,
                            n_polaritons=n)


def _probabilities(positions):
    return [[_register_return_probability(positions, omega, RB60_PAIR.c3, t)
             for omega in DRIVES] for t in PULSES]


def _scan(name):
    case = SCANS[name]
    return simulate_rabi_scan(CFG, RB60_PAIR, case["omegas"], case["pulse_duration"],
                              case["trials"], case["seed"],
                              n_polaritons=case["n_polaritons"],
                              geometry_samples=case["geometry_samples"])


def _shots():
    return run_shots(CFG, RB60_PAIR, SHOTS["omega_mu"], SHOTS["pulse_duration"],
                     SHOTS["trials"], SHOTS["seed"])


def _hbt_run():
    drift = DriftSpec.from_relative_std(HBT["drift_std"], rng_seed=HBT["seed"])
    result = simulate_hbt_run(CFG, HBT["trials"], HBT["seed"], drift=drift)
    return {"tau_bins": result.tau_bins.tolist(), "g2": result.g2.tolist(),
            "statistical_error": result.statistical_error.tolist(),
            "coincidence_counts": result.coincidence_counts.tolist(),
            "g2_zero": result.g2_zero, "g2_zero_err": result.g2_zero_err,
            "side_peak_level": result.side_peak_level}


def record():
    registers = []
    for n in REGISTER_SIZES:
        for write in _registers(n):
            positions = write.polariton_positions
            registers.append({"n": n, "positions": positions.tolist(),
                              "probabilities": _probabilities(positions)})
    payload = {
        "drives_mhz": list(DRIVES),
        "pulses_us": list(PULSES),
        "registers": registers,
        "scans": {name: _scan(name).mean_counts.tolist() for name in SCANS},
        "g2": _hbt_run(),
        "shots": _shots().tolist(),
    }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(payload, indent=1) + "\n")


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


def test_grid_matches_fixture(golden):
    assert golden["drives_mhz"] == list(DRIVES)
    assert golden["pulses_us"] == list(PULSES)
    assert [r["n"] for r in golden["registers"]] == [
        n for n in REGISTER_SIZES for _ in range(REGISTERS_PER_SIZE)]


@pytest.mark.parametrize("n", REGISTER_SIZES)
def test_register_positions(golden, n):
    stored = [r["positions"] for r in golden["registers"] if r["n"] == n]
    written = [w.polariton_positions for w in _registers(n)]
    assert all(np.array_equal(a, b) for a, b in zip(written, stored, strict=True))


@pytest.mark.parametrize("n", REGISTER_SIZES)
def test_register_return_probabilities(golden, n):
    for register in (r for r in golden["registers"] if r["n"] == n):
        got = np.array(_probabilities(np.array(register["positions"])))
        np.testing.assert_allclose(got, register["probabilities"], rtol=0,
                                   atol=PROBABILITY_TOLERANCE)


@pytest.mark.parametrize("t", PULSES)
def test_scan_kernel_return_probabilities(golden, t):
    registers = [np.array(r["positions"]) for r in golden["registers"]]
    got = _scan_return_probabilities(registers, DRIVES, RB60_PAIR.c3, t)
    stored = np.array([r["probabilities"][PULSES.index(t)] for r in golden["registers"]])
    np.testing.assert_allclose(got.T, stored, rtol=0, atol=PROBABILITY_TOLERANCE)


@pytest.mark.parametrize("name", sorted(SCANS))
def test_scan_mean_counts(golden, name):
    assert _scan(name).mean_counts.tolist() == golden["scans"][name]


def test_run_shots_counts(golden):
    assert _shots().tolist() == golden["shots"]


def test_hbt_run_bins(golden):
    assert _hbt_run() == golden["g2"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    record()
    print(f"wrote {FIXTURE}")
