"""Disorder-averaged retrieval after a 2pi rotation versus drive strength.

For written 3-polariton registers the flip-flop interaction dephases the
spin wave while the microwave drive dresses it away; sweeping the drive
relative to the interaction scale shows the weak-to-strong crossover.  The
interaction scale of a disordered register is ambiguous, so the sweep is
reported against three conventions: the contact value at the blockade
radius, the ensemble-mean pairwise coupling, and the mean nearest-neighbour
coupling.  Writes crossover.csv into --output-dir (default: the working
directory).
"""

import argparse
from pathlib import Path

import numpy as np

from rydpol import ExperimentConfig, RB60_PAIR
from rydpol.config import dipole_interaction, optical_blockade_radius
from rydpol.interactions import _scan_return_probabilities
from rydpol.montecarlo import _scan_geometries

SAMPLES = 1000
SEED = 77
RATIOS = np.array([0.2, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 5.0])

parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
parser.add_argument("--output-dir", type=Path, default=Path("."),
                    help="directory for crossover.csv (default: the working directory)")
output_dir = parser.parse_args().output_dir
output_dir.mkdir(parents=True, exist_ok=True)

config = ExperimentConfig()
r_o = optical_blockade_radius(RB60_PAIR.c6, config.eit_width)
registers = _scan_geometries(config, RB60_PAIR, SAMPLES, seed=SEED,
                             n_polaritons=3)

# pairwise coupling statistics of the written ensemble
pair_v, nn_v = [], []
for reg in registers:
    pos = np.asarray(reg.polariton_positions)
    d = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    iu = np.triu_indices(len(pos), k=1)
    pair_v.extend(abs(dipole_interaction(RB60_PAIR.c3, r)) for r in d[iu])
    full = np.where(np.eye(len(pos), dtype=bool), np.inf, d)
    nn_v.extend(abs(dipole_interaction(RB60_PAIR.c3, r))
                for r in full.min(axis=1))

positions = [reg.polariton_positions for reg in registers]
conventions = {
    "contact": abs(dipole_interaction(RB60_PAIR.c3, r_o)),
    "mean_pairwise": float(np.mean(pair_v)),
    "mean_nearest": float(np.mean(nn_v)),
}
print(f"{SAMPLES} written registers, seed {SEED}")
print(f"pairwise coupling: mean {np.mean(pair_v):.3f} MHz, "
      f"median {np.median(pair_v):.3f} MHz")
print(f"nearest-neighbour: mean {np.mean(nn_v):.3f} MHz, "
      f"median {np.median(nn_v):.3f} MHz")

table = {}
for name, v_bar in conventions.items():
    curve = []
    for ratio in RATIOS:
        omega = ratio * v_bar
        vals = _scan_return_probabilities(positions, [omega], RB60_PAIR.c3,
                                          1.0 / omega)
        curve.append(float(np.mean(vals)))
    table[name] = curve
    monotone = all(a < b for a, b in zip(curve, curve[1:]))
    print(f"{name:14s} (V = {v_bar:6.2f} MHz): "
          + " ".join(f"{c:.3f}" for c in curve)
          + ("  [monotone]" if monotone else "  [non-monotone]"))

header = "omega_over_v," + ",".join(table)
rows = np.column_stack([RATIOS] + [table[name] for name in table])
path = output_dir / "crossover.csv"
np.savetxt(path, rows, delimiter=",", header=header, comments="", fmt="%.6g")
print(f"wrote {path}")
print("note: only the contact convention sweeps monotonically; even there "
      "the weak-drive floor sits near 0.5 because the median pair in a "
      "blockade-separated register is far weaker than the contact value.")
