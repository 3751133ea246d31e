"""What `import rydpol` loads and exports, and the physical constants in its source.

The package imports scipy only where a function needs it, so a plain import
(every CLI call pays it) stays light.  The constants that replace
scipy.constants are checked against scipy's values to 1e-8 relative, which
holds for CODATA 2018 and 2022 alike (they differ by at most 1.4e-9).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.constants

import rydpol
from rydpol import config, structure


def test_import_does_not_load_scipy():
    # the shot, scan and pulsed-HBT paths must not pull scipy in either
    code = ("import sys, rydpol\n"
            "from rydpol.config import RB60_PAIR, ExperimentConfig\n"
            "config = ExperimentConfig()\n"
            "rydpol.run_shots(config, RB60_PAIR, 2.0, 0.15, 64, 1, threads=1)\n"
            "rydpol.simulate_rabi_scan(config, RB60_PAIR, [1.0, 5.0], 0.15, 100, 1,\n"
            "                          geometry_samples=20, threads=1)\n"
            "rydpol.simulate_hbt_run(config, 2000, 1, max_delay=200,\n"
            "                        drift=rydpol.DriftSpec.from_relative_std(0.3))\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=str(Path(rydpol.__file__).resolve().parent.parent))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=120, check=True)
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize("ours, name", [
    (config._ATOMIC_MASS_KG, "atomic mass constant"),
    (config._KB, "Boltzmann constant"),
    (structure.RYDBERG_INF_GHZ * 1e9, "Rydberg constant times c in Hz"),
    (structure._ELECTRON_MASS_U, "electron mass in u"),
])
def test_constants_match_scipy(ours, name):
    assert ours == pytest.approx(scipy.constants.physical_constants[name][0], rel=1e-8)



def test_public_names_resolve_once():
    assert len(rydpol.__all__) == len(set(rydpol.__all__))
    missing = [name for name in rydpol.__all__ if not hasattr(rydpol, name)]
    assert missing == []
