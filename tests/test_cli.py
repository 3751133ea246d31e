"""End-to-end checks of the command-line interface.

Runs `main()` in-process with tmp_path output directories.  Scalar outputs
are checked against the same closed-form anchors used in the library tests
(blockade radius formula, free-rotation retrieval law); artifact plumbing is
checked for byte-level reproducibility against the manifest checksums.
"""

import hashlib
import json
import math
import os
import warnings
from pathlib import Path

import numpy as np
import pytest

import rydpol.cli as cli
from rydpol.cli import _csv_text, _json_text, main
from rydpol.config import ExperimentConfig
from rydpol.fitting import lorentzian
from rydpol.rng import philox_stream


def run_cli(*argv):
    return main([str(a) for a in argv])


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return header, data


class TestExitCodes:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run_cli() == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert run_cli("not-a-subcommand") == 2

    def test_unknown_flag_is_usage_error(self, capsys):
        assert run_cli("radius", "--no-such-flag", "1") == 2

    def test_invalid_value_is_computation_error(self, tmp_path, capsys):
        code = run_cli("radius", "--eit-width", "-2",
                       "--output-dir", tmp_path)
        assert code == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("samples", [0, -1])
    def test_bad_geometry_samples_is_computation_error(self, tmp_path, capsys, samples):
        code = run_cli("rabi-scan", "--geometry-samples", samples, "--points", 2,
                       "--trials", 10, "--threads", 1, "--output-dir", tmp_path)
        assert code == 1
        assert "rydpol: error: geometry_samples" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_n_polaritons_is_computation_error(self, tmp_path, capsys):
        code = run_cli("rabi-scan", "--n-polaritons", -1, "--geometry-samples", 2,
                       "--points", 2, "--trials", 10, "--threads", 1,
                       "--output-dir", tmp_path)
        assert code == 1
        assert "rydpol: error: n_polaritons" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_negative_drift_std_is_computation_error(self, tmp_path, capsys):
        code = run_cli("g2", "--drift-std", "-0.1", "--trials", 1000,
                       "--output-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("rydpol: error: ") and "-0.1" in err
        assert not any(tmp_path.iterdir())

    def test_drift_std_beyond_a_sinusoid_names_the_flag_value(self, tmp_path, capsys):
        code = run_cli("g2", "--drift-std", "0.8", "--trials", 1000,
                       "--output-dir", tmp_path)
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("rydpol: error: drift relative std must be below 1/sqrt(2)")
        assert "0.8" in err and "amplitude" not in err
        assert not any(tmp_path.iterdir())

    def test_missing_input_file_is_computation_error(self, tmp_path, capsys):
        code = run_cli("fit", "--model", "lorentzian",
                       "--input", tmp_path / "nope.csv",
                       "--output-dir", tmp_path)
        assert code == 1

    def test_unknown_config_key_is_computation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"eit_width": 1.0, "not_a_real_key": 1}')
        code = run_cli("radius", "--config", bad, "--output-dir", tmp_path)
        assert code == 1
        assert "not_a_real_key" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ('{"background_rate": null}', "background_rate"),
        ('{"retrieval_window": 5}', "retrieval_window")])
    def test_wrong_config_type_is_computation_error(self, tmp_path, capsys, text, key):
        bad = tmp_path / "bad.json"
        bad.write_text(text)
        out = tmp_path / "out"
        code = run_cli("protocol", "--config", bad, "--trials", 10, "--output-dir", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(f"rydpol: error: {key} must")
        assert not out.exists()

    @pytest.mark.parametrize("trials", [1, 0])
    def test_protocol_needs_two_trials(self, tmp_path, capsys, trials):
        code = run_cli("protocol", "--trials", trials, "--threads", 1,
                       "--output-dir", tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith("rydpol: error: --trials must be >= 2")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("iterations", [-1, -3])
    def test_negative_max_iterations_names_the_flag(self, tmp_path, capsys, iterations):
        x = np.linspace(-3, 3, 15)
        scan = tmp_path / "scan.csv"
        np.savetxt(scan, np.c_[x, lorentzian(x, 1.0, 0.0, 1.34, 0.05), np.full(x.size, 0.01)],
                   delimiter=",")
        out = tmp_path / "out"
        code = run_cli("fit", "--model", "lorentzian", "--input", scan,
                       "--max-iterations", iterations, "--output-dir", out)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "rydpol: error: --max-iterations must be >= 0")
        assert not out.exists()
        assert run_cli("fit", "--model", "lorentzian", "--input", scan,
                       "--max-iterations", 0, "--output-dir", out) == 0
        assert read_json(out / "fit.json")["iterations"] == 0

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    @pytest.mark.parametrize("command", [("protocol", "--trials", 10, "--threads", 1),
                                         ("rabi-scan", "--points", 2, "--threads", 1),
                                         ("g2", "--trials", 1000)])
    def test_seed_out_of_range_names_the_flag(self, tmp_path, capsys, monkeypatch,
                                              command, seed):
        def no_work(*args, **kwargs):
            raise AssertionError("ran before checking --seed")

        for name in ("run_shots", "simulate_rabi_scan", "simulate_hbt_run"):
            monkeypatch.setattr(cli, name, no_work)
        code = run_cli(*command, "--seed", seed, "--output-dir", tmp_path)
        assert code == 1
        assert capsys.readouterr().err == (
            f"rydpol: error: --seed must be an integer in [0, 2**64), got {seed}\n")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_json_artifacts_refuse_non_finite_numbers(self, value):
        with pytest.raises(ValueError):
            _json_text({"sem_detected": value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_csv_artifacts_refuse_non_finite_cells(self, value):
        assert _csv_text("k,g2", [(1, 0.5)]) == "k,g2\n1,0.5\n"
        with pytest.raises(ValueError, match="non-finite CSV cell"):
            _csv_text("k,g2", [(1, 0.5), (2, value)])

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_theta_max_is_computation_error(self, tmp_path, capsys, value):
        code = run_cli("rabi-curve", "--theta-max", value, "--steps", 3,
                       "--output-dir", tmp_path)
        assert code == 1
        assert capsys.readouterr().err.startswith(
            f"rydpol: error: --theta-max must be finite, got {value}")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv, message", [
        (("rabi-scan", "--omega-max", "inf"), "--omega-max must be finite, got inf"),
        (("rabi-scan", "--omega-min", "nan"), "--omega-min must be finite, got nan"),
        (("eigenscan", "--omega-mu", 5, "--r-max", "inf"),
         "need finite 0 < r_min < r_max, got (4.0, inf)"),
    ], ids=["omega-max", "omega-min", "r-max"])
    def test_non_finite_range_flag_is_computation_error(self, tmp_path, capsys, argv, message):
        # refused before linspace, which would warn on an infinite end point
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(*argv, "--output-dir", tmp_path)
        assert code == 1 and not caught
        err = capsys.readouterr().err
        assert err.startswith(f"rydpol: error: {message}") and "Warning" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("value", [-1, 950, "inf", "nan"])
    @pytest.mark.parametrize("command", [("protocol", "--trials", 10, "--threads", 1),
                                         ("rabi-scan", "--points", 2, "--threads", 1),
                                         ("fit", "--model", "rabi_collective"),
                                         ("fit", "--model", "lorentzian")])
    def test_pulse_outside_the_storage_interval_names_the_flag(self, tmp_path, capsys,
                                                               command, value):
        scan = tmp_path / "scan.csv"
        x = np.linspace(0.5, 13.5, 20)
        np.savetxt(scan, np.c_[x, np.cos(x), np.full(x.size, 0.1)], delimiter=",")
        inputs = ("--input", scan) if command[0] == "fit" else ()
        out = tmp_path / "out"
        code = run_cli(*command, *inputs, "--pulse-ns", value, "--output-dir", out)
        assert code == 1
        bracket = "(" if command[0] == "fit" else "["
        assert capsys.readouterr().err == (
            f"rydpol: error: --pulse-ns must lie in the storage interval {bracket}0, 900] ns, "
            f"got {value}\n")
        assert not out.exists()

    def test_success_returns_zero(self, tmp_path):
        assert run_cli("radius", "--output-dir", tmp_path) == 0


class TestParser:
    @pytest.mark.parametrize("subcommand", ["protocol", "rabi-scan"])
    def test_threads_default_to_one(self, subcommand):
        # workers each run their own BLAS threads, so more than one worker
        # is slower than serial unless BLAS is pinned to one thread
        assert cli.build_parser().parse_args([subcommand]).threads == 1


class TestRadius:
    def test_optical_radius_matches_formula(self, tmp_path):
        assert run_cli("radius", "--c6", 140.0, "--eit-width", 1.0,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "radius.json")
        assert payload["r_o_um"] == pytest.approx((140e3 / 1.0) ** (1 / 6),
                                                  abs=1e-9)
        assert "r_mu_um" not in payload

    def test_microwave_radius_added_on_request(self, tmp_path):
        assert run_cli("radius", "--omega-mu", 20.0,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "radius.json")
        assert payload["r_mu_um"] == pytest.approx((14.3e3 / 20.0) ** (1 / 3),
                                                   abs=1e-9)


class TestStructure:
    def test_reference_transition_outputs(self, tmp_path):
        assert run_cli("structure", "--upper", "60s1/2", "--lower", "59p3/2",
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "structure.json")
        assert payload["transition_ghz"] == pytest.approx(18.513, abs=0.01)
        assert payload["radial_element_ea0"] == pytest.approx(3474.4, abs=0.5)
        assert payload["dipole_ea0"] == pytest.approx(
            payload["radial_element_ea0"] * np.sqrt(2 / 9), rel=1e-12)
        assert payload["energy_ghz"] < 0  # bound state

    @pytest.mark.parametrize("upper, lower", [("61s1/2", "60p3/2"), ("59p3/2", "60s1/2")])
    def test_every_s_to_p3_2_pair_gets_a_dipole(self, tmp_path, upper, lower):
        assert run_cli("structure", "--upper", upper, "--lower", lower,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "structure.json")
        assert payload["dipole_ea0"] == pytest.approx(
            payload["radial_element_ea0"] * np.sqrt(2 / 9), rel=1e-12)

    @pytest.mark.parametrize("lower", ["60s1/2", "58d5/2", "59p1/2"])
    def test_other_pairs_get_no_dipole(self, tmp_path, lower):
        # the reference angular factor is that of s1/2 -> p3/2 only
        assert run_cli("structure", "--upper", "60s1/2", "--lower", lower,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "structure.json")
        assert "dipole_ea0" not in payload
        assert sorted(payload) == ["energy_ghz", "radial_element_ea0", "transition_ghz"]

    def test_malformed_state_token_is_computation_error(self, tmp_path):
        assert run_cli("structure", "--upper", "60x9", "--lower", "59p3/2",
                       "--output-dir", tmp_path) == 1


class TestRabiCurve:
    def test_single_polariton_null_at_pi(self, tmp_path):
        assert run_cli("rabi-curve", "--n-polaritons", 1,
                       "--theta-max", 2 * np.pi, "--steps", 201,
                       "--output-dir", tmp_path) == 0
        header, data = read_csv(tmp_path / "rabi_curve.csv")
        assert header == "theta_rad,probability"
        theta, prob = data[:, 0], data[:, 1]
        assert prob[0] == pytest.approx(1.0, abs=1e-12)
        assert theta[np.argmin(prob)] == pytest.approx(np.pi, abs=0.02)
        assert prob.min() < 1e-6

    def test_three_polariton_curve_is_cubed_single(self, tmp_path):
        assert run_cli("rabi-curve", "--n-polaritons", 3,
                       "--theta-max", 12.0, "--steps", 97,
                       "--output-dir", tmp_path) == 0
        _, data = read_csv(tmp_path / "rabi_curve.csv")
        single = np.cos(data[:, 0] / 2.0) ** 2
        np.testing.assert_allclose(data[:, 1], single ** 3, atol=1e-12)


class TestEigenscan:
    def test_csv_shape_and_header(self, tmp_path):
        assert run_cli("eigenscan", "--omega-mu", 200.0, "--steps", 25,
                       "--r-min", 5.0, "--r-max", 12.0,
                       "--output-dir", tmp_path) == 0
        header, data = read_csv(tmp_path / "eigenscan.csv")
        columns = header.split(",")
        assert columns[0] == "r_um"
        assert columns[1] == "eig_0_mhz" and columns[-1] == "eig_15_mhz"
        assert data.shape == (25, 17)
        assert data[0, 0] == pytest.approx(5.0)
        assert data[-1, 0] == pytest.approx(12.0)


class TestStochasticCommands:
    def test_g2_outputs(self, tmp_path):
        assert run_cli("g2", "--trials", 20000, "--seed", 42,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "g2.json")
        assert 0.5 < payload["g2_zero"] < 0.8
        assert len(payload["bins"]) == 121
        header, data = read_csv(tmp_path / "g2.csv")
        assert header == "k,g2,g2_err"
        assert data[:, 0].min() == -60 and data[:, 0].max() == 60

    def test_rabi_scan_outputs(self, tmp_path):
        assert run_cli("rabi-scan", "--omega-min", 1, "--omega-max", 9,
                       "--points", 3, "--trials", 200,
                       "--geometry-samples", 30, "--seed", 3,
                       "--threads", 1, "--output-dir", tmp_path) == 0
        header, data = read_csv(tmp_path / "rabi_scan.csv")
        assert header == "omega_mu_mhz,retrieved_mean,retrieved_err"
        np.testing.assert_allclose(data[:, 0], [1.0, 5.0, 9.0])
        assert np.all(data[:, 1] >= 0)

    def test_protocol_outputs(self, tmp_path):
        assert run_cli("protocol", "--trials", 500, "--seed", 5,
                       "--omega-mu", 0.0, "--pulse-ns", 0.0,
                       "--threads", 1, "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "protocol.json")
        assert payload["trials"] == 500
        assert payload["mean_detected"] >= 0
        header, data = read_csv(tmp_path / "protocol_counts.csv")
        assert header == "detected_photons,occurrences"
        assert data[:, 1].sum() == 500


class TestFitCommand:
    @pytest.fixture()
    def lorentzian_csv(self, tmp_path):
        rng = philox_stream(123, 1)
        x = np.linspace(-4, 4, 60)
        sigma = np.full_like(x, 0.08)
        y = lorentzian(x, 5.0, 0.3, 1.34, 1.0) + rng.normal(0.0, sigma)
        path = tmp_path / "scan.csv"
        np.savetxt(path, np.c_[x, y, sigma], delimiter=",",
                   header="freq_mhz,rate,rate_err", comments="")
        return path

    def test_lorentzian_fit_from_csv(self, tmp_path, lorentzian_csv):
        assert run_cli("fit", "--model", "lorentzian",
                       "--input", lorentzian_csv,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "fit.json")
        assert payload["status"] == "converged"
        assert payload["parameters"]["fwhm"] == pytest.approx(1.34, abs=0.1)
        assert payload["uncertainties"]["fwhm"] > 0

    def test_lorentzian_fit_of_a_scan_that_repeats_every_x(self, tmp_path):
        # 21 drives each measured twice: the spacing of distinct x seeds the width
        x = np.repeat(np.linspace(-3.0, 5.0, 21), 2)
        path = tmp_path / "repeated.csv"
        np.savetxt(path, np.c_[x, lorentzian(x, 1.0, 0.3, 2.0, 0.1), np.full(x.size, 0.01)],
                   delimiter=",", header="freq_mhz,rate,rate_err", comments="")
        assert run_cli("fit", "--model", "lorentzian", "--input", path,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "fit.json")
        assert payload["status"] == "converged"
        fitted = [payload["parameters"][name] for name in ("amplitude", "center", "fwhm", "offset")]
        np.testing.assert_allclose(fitted, [1.0, 0.3, 2.0, 0.1], rtol=1e-6, atol=1e-8)

    def test_parameter_held_at_a_bound_writes_a_null_uncertainty(self, tmp_path):
        # a Lorentzian 100 times wider than the spec allows holds fwhm at its bound
        x = np.linspace(-3, 3, 15)
        path = tmp_path / "wide.csv"
        np.savetxt(path, np.c_[x, lorentzian(x, 1.0, 0.2, 600.0, 0.05), np.full(x.size, 0.01)],
                   delimiter=",", header="freq_mhz,rate,rate_err", comments="")
        assert run_cli("fit", "--model", "lorentzian", "--input", path,
                       "--output-dir", tmp_path) == 0
        text = (tmp_path / "fit.json").read_text()
        payload = json.loads(text, parse_constant=pytest.fail)
        assert payload["parameters"]["fwhm"] == 60.0
        assert payload["uncertainties"]["fwhm"] is None
        assert '"fwhm": null' in text
        assert all(payload["uncertainties"][name] > 0
                   for name in ("amplitude", "center", "offset"))

    def test_rabi_scan_csv_with_a_zero_count_point_fits(self, tmp_path):
        # 500 trials of 3-polariton registers at seed 1 leave several drives
        # with no count in any trial; their error is the floor 1/trials, not
        # zero, so `fit` reads the scan's own CSV.
        assert run_cli("rabi-scan", "--omega-min", 0.5, "--omega-max", 13.5,
                       "--points", 40, "--pulse-ns", 150, "--trials", 500,
                       "--n-polaritons", 3, "--geometry-samples", 60,
                       "--seed", 1, "--threads", 1, "--output-dir", tmp_path) == 0
        _, data = read_csv(tmp_path / "rabi_scan.csv")
        empty = data[:, 1] == 0.0
        assert empty.any()
        assert np.all(data[empty, 2] == 1.0 / 500)
        assert np.all(data[~empty, 2] >= 1.0 / 500)
        assert run_cli("fit", "--model", "rabi_collective",
                       "--input", tmp_path / "rabi_scan.csv", "--pulse-ns", 150,
                       "--output-dir", tmp_path) == 0
        payload = read_json(tmp_path / "fit.json")
        assert np.isfinite(payload["parameters"]["n"])

    @pytest.mark.parametrize("model", ["lorentzian", "rabi_collective"])
    def test_scan_at_one_x_is_refused(self, tmp_path, capsys, model):
        path = tmp_path / "one_x.csv"
        np.savetxt(path, np.c_[np.full(5, 2.0), np.arange(5.0), np.full(5, 0.1)],
                   delimiter=",", header="x,y,sigma", comments="")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("fit", "--model", model, "--input", path, "--pulse-ns", 150,
                           "--output-dir", out)
        assert code == 1 and not caught
        assert capsys.readouterr().err == (
            "rydpol: error: x must hold at least 2 distinct values, got 1\n")
        assert not out.exists()

    def test_rabi_collective_requires_pulse(self, tmp_path, lorentzian_csv):
        code = run_cli("fit", "--model", "rabi_collective",
                       "--input", lorentzian_csv,
                       "--output-dir", tmp_path)
        assert code == 1


class TestManifest:
    def test_reruns_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        for out in (first, second):
            assert run_cli("g2", "--trials", 5000, "--seed", 9,
                           "--output-dir", out) == 0
        for name in ("g2.json", "g2.csv", "manifest.json"):
            assert (first / name).read_bytes() == (second / name).read_bytes()

    def test_checksums_match_artifacts(self, tmp_path):
        assert run_cli("rabi-curve", "--output-dir", tmp_path) == 0
        manifest = read_json(tmp_path / "manifest.json")
        assert manifest["subcommand"] == "rabi-curve"
        assert manifest["seed"] is None
        assert manifest["artifacts"]
        for name, digest in manifest["artifacts"].items():
            actual = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            assert actual == digest

    def test_seed_recorded_for_stochastic_commands(self, tmp_path):
        assert run_cli("protocol", "--trials", 100, "--seed", 77,
                       "--threads", 1, "--output-dir", tmp_path) == 0
        assert read_json(tmp_path / "manifest.json")["seed"] == 77

    def test_manifest_embeds_resolved_config(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig().to_dict()
        cfg["eit_width"] = 2.5
        cfg_path = tmp_path / "env.json"
        cfg_path.write_text(json.dumps(cfg))
        monkeypatch.setenv("RYDPOL_CONFIG", str(cfg_path))
        out = tmp_path / "out"
        assert run_cli("radius", "--output-dir", out) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["eit_width"] == 2.5
        payload = read_json(out / "radius.json")
        assert payload["r_o_um"] == pytest.approx((140e3 / 2.5) ** (1 / 6),
                                                  abs=1e-9)

    def test_config_flag_beats_environment(self, tmp_path, monkeypatch):
        base = ExperimentConfig().to_dict()
        env_cfg, flag_cfg = dict(base), dict(base)
        env_cfg["eit_width"] = 2.5
        flag_cfg["eit_width"] = 4.0
        env_path = tmp_path / "env.json"
        flag_path = tmp_path / "flag.json"
        env_path.write_text(json.dumps(env_cfg))
        flag_path.write_text(json.dumps(flag_cfg))
        monkeypatch.setenv("RYDPOL_CONFIG", str(env_path))
        out = tmp_path / "out"
        assert run_cli("radius", "--config", flag_path,
                       "--output-dir", out) == 0
        manifest = read_json(out / "manifest.json")
        assert manifest["config"]["eit_width"] == 4.0
