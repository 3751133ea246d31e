"""The scripts/ studies: each takes --output-dir and writes its CSV there."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rydpol
from rydpol.config import (RB60_PAIR, ExperimentConfig, dipole_interaction,
                           optical_blockade_radius)
from rydpol.montecarlo import _register_return_probability, _scan_geometries

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
STUDIES = {
    "blockade_regimes.py": "regimes.csv",
    "collective_fit_demo.py": "scan.csv",
    "exchange_crossover_study.py": "crossover.csv",
    "hbt_statistics.py": "hbt_summary.csv",
}


def run_script(name, *argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(rydpol.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *map(str, argv)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("name", sorted(STUDIES))
def test_help_names_output_dir(name, tmp_path):
    done = run_script(name, "--help", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "--output-dir" in done.stdout
    assert STUDIES[name] in done.stdout
    assert not any(tmp_path.iterdir())


def run_into_output_dir(name, tmp_path):
    """Run a study from an empty working directory with a nested --output-dir,
    check that only its CSV landed there, and return that CSV's path."""
    cwd, out = tmp_path / "cwd", tmp_path / "out" / "nested"
    cwd.mkdir()
    done = run_script(name, "--output-dir", out, cwd=cwd)
    assert done.returncode == 0, done.stderr
    assert not any(cwd.iterdir())
    assert [p.name for p in out.iterdir()] == [STUDIES[name]]
    path = out / STUDIES[name]
    assert f"wrote {path}" in done.stdout
    return path


def test_quickest_study_writes_into_output_dir(tmp_path):
    path = run_into_output_dir("blockade_regimes.py", tmp_path)
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == "omega_mu_mhz,r_mu_um,r_o_um"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (200, 3)
    assert np.all(np.diff(data[:, 1]) < 0)  # r_mu shrinks as the drive grows


@pytest.mark.parametrize("name,header,rows", [
    # 40 drives
    ("collective_fit_demo.py", "omega_mu_mhz,retrieved_fraction,err", 40),
    # 4 emitter numbers, then 5 drift amplitudes
    ("hbt_statistics.py", "n_emitters,drift_rel_std,g2_zero,g2_zero_err,side_peak_level", 9),
])
def test_study_writes_only_its_csv_into_output_dir(name, header, rows, tmp_path):
    path = run_into_output_dir(name, tmp_path)
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().strip() == header
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    assert data.shape == (rows, header.count(",") + 1)
    assert np.all(np.isfinite(data))


def test_exchange_crossover_study_writes_one_row_per_ratio(tmp_path):
    # the one study built on the scan's private write and kernel functions
    done = run_script("exchange_crossover_study.py", "--output-dir", tmp_path, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "crossover.csv", encoding="utf-8") as fh:
        assert fh.readline().strip() == "omega_over_v,contact,mean_pairwise,mean_nearest"
    data = np.loadtxt(tmp_path / "crossover.csv", delimiter=",", skiprows=1)
    assert data.shape[0] == 7
    assert np.all(np.isfinite(data))
    # the contact column is acceptance criterion 06's curve on the same 1,000
    # registers, there taken one register at a time: the batched kernel must
    # match it to the CSV's 6 significant digits
    config = ExperimentConfig()
    v_dd = abs(dipole_interaction(
        RB60_PAIR.c3, optical_blockade_radius(RB60_PAIR.c6, config.eit_width)))
    registers = _scan_geometries(config, RB60_PAIR, 1000, seed=77, n_polaritons=3)
    curve = []
    for ratio in (0.2, 1.0 / 3.0, 0.5, 1.0, 2.0, 3.0, 5.0):
        omega = ratio * v_dd
        curve.append(np.mean([_register_return_probability(g.polariton_positions, omega,
                                                           RB60_PAIR.c3, 1.0 / omega)
                              for g in registers]))
    assert np.abs(data[:, 1] - curve).max() <= 5e-7
