"""Map the optical and microwave blockade radii across the drive range.

Writes regimes.csv with r_mu versus drive frequency into --output-dir
(default: the working directory) and prints the drive at which the
microwave radius crosses the optical one, i.e. where exchange suppression
takes over from microwave blockade.
"""

import argparse
from pathlib import Path

import numpy as np

from rydpol import ExperimentConfig, RB60_PAIR
from rydpol.config import microwave_blockade_radius, optical_blockade_radius

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--output-dir", type=Path, default=Path("."),
                    help="directory for regimes.csv (default: the working directory)")
output_dir = parser.parse_args().output_dir
output_dir.mkdir(parents=True, exist_ok=True)

config = ExperimentConfig()
r_o = optical_blockade_radius(RB60_PAIR.c6, config.eit_width)
print(f"optical blockade radius: {r_o:.3f} um "
      f"(|C6| = {abs(RB60_PAIR.c6):.0f} GHz um^6, "
      f"EIT width = {config.eit_width:.1f} MHz)")

omegas = np.geomspace(2.0, 400.0, 200)
r_mu = np.array([microwave_blockade_radius(RB60_PAIR.c3, w) for w in omegas])

# r_mu = r_o at Omega = |C3| / r_o^3
crossover = abs(RB60_PAIR.c3) * 1e3 / r_o ** 3
print(f"r_mu crosses r_o at Omega = {crossover:.1f} MHz")
for omega in (20.0, 200.0):
    r = microwave_blockade_radius(RB60_PAIR.c3, omega)
    side = "outside (microwave blockade reaches beyond the stored register)" \
        if r > r_o else "inside (dressing suppresses exchange instead)"
    print(f"  Omega = {omega:5.0f} MHz: r_mu = {r:.3f} um, {side}")

header = "omega_mu_mhz,r_mu_um,r_o_um"
rows = np.c_[omegas, r_mu, np.full_like(omegas, r_o)]
path = output_dir / "regimes.csv"
np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.6g")
print(f"wrote {path}")
