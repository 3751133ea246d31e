"""Fit the collective-Rabi model to a synthetic scan and check calibration.

Generates one counting-noise realization of a 40-point drive-frequency scan
(30 x 3334 shots per point, three stored polaritons), fits it, then repeats
over 50 replicates to compare the quoted uncertainty on N against the
empirical scatter.  Writes scan.csv with the single realization into
--output-dir (default: the working directory).
"""

import argparse
from pathlib import Path

import numpy as np

from rydpol.fitting import fit, rabi_collective_model, rabi_collective_spec
from rydpol.rng import philox_stream, spawn_trial_seeds

T_PULSE = 0.150                      # us
OMEGAS = np.linspace(0.5, 13.5, 40)  # MHz
SHOTS = 30 * 3334
TRUTH = (0.0216, 3.0, 2.0, 3.0, 0.00065)  # a, n, omega_env, omega_decay, b

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--output-dir", type=Path, default=Path("."),
                    help="directory for scan.csv (default: the working directory)")
output_dir = parser.parse_args().output_dir
output_dir.mkdir(parents=True, exist_ok=True)


def realize(seed):
    p = rabi_collective_model(OMEGAS, T_PULSE, *TRUTH)
    y = philox_stream(seed, 1).binomial(SHOTS, p) / SHOTS
    sigma = np.sqrt(np.maximum(y * (1.0 - y), 1e-12) / SHOTS)
    return y, sigma


y, sigma = realize(20260815)
result = fit(rabi_collective_spec(T_PULSE, OMEGAS, y), OMEGAS, y, sigma,
             max_iterations=400)
params = result.as_dict()
errors = result.uncertainty_dict()
print("single realization:")
for name in result.parameter_names:
    error = "(held at a bound)" if errors[name] is None else f"+/- {errors[name]:.2g}"
    print(f"  {name:12s} = {params[name]:.5g} {error}")
print(f"  chi2/dof     = {result.chi2 / (OMEGAS.size - 5):.3f} "
      f"({result.iterations} iterations, {result.status})")

path = output_dir / "scan.csv"
np.savetxt(path, np.c_[OMEGAS, y, sigma], delimiter=",",
           header="omega_mu_mhz,retrieved_fraction,err", comments="",
           fmt="%.8g")
print(f"wrote {path} (feed to: rydpol fit --model rabi_collective "
      f"--input {path} --pulse-ns 150)")

fitted, quoted = [], []
for seed in spawn_trial_seeds(42, 50):
    y, sigma = realize(int(seed))
    r = fit(rabi_collective_spec(T_PULSE, OMEGAS, y), OMEGAS, y, sigma,
            max_iterations=400)
    fitted.append(r.as_dict()["n"])
    quoted.append(r.uncertainty_dict()["n"])
fitted = np.asarray(fitted)
print(f"50 replicates: N = {fitted.mean():.4f}, empirical std "
      f"{fitted.std(ddof=1):.4f}, mean quoted sigma {np.mean(quoted):.4f}")
