"""Units/config module: radius formulas, dephasing, config I/O.

Expected values are frozen from direct evaluation of the documented formulas
(see docstrings); literature anchors are asserted at their quoted precision.
"""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpol.config import (
    RB60_PAIR,
    ConfigError,
    ExperimentConfig,
    PairCoefficients,
    dipole_interaction,
    microwave_blockade_radius,
    motional_dephasing_time,
    optical_blockade_radius,
)


class TestBlockadeRadii:
    def test_optical_radius_reference_value(self):
        # (|C6| * 1e3 / width)^(1/6) = 140000^(1/6)
        assert optical_blockade_radius(140.0, 1.0) == pytest.approx(7.205896267537510, rel=1e-12)

    def test_optical_radius_matches_quoted_scale(self):
        # quoted as "approximately 7 um" for the reference pair state
        assert abs(optical_blockade_radius(RB60_PAIR.c6, 1.0) - 7.0) < 0.5

    def test_sign_of_c6_is_ignored(self):
        assert optical_blockade_radius(-140.0, 1.0) == optical_blockade_radius(140.0, 1.0)

    def test_microwave_radius_weak_driving(self):
        r = microwave_blockade_radius(-14.3, 20.0)
        assert r == pytest.approx(8.942014036741272, rel=1e-12)
        # weak driving: microwave blockade radius exceeds the optical one
        assert r > optical_blockade_radius(-140.0, 1.0)

    def test_microwave_radius_strong_driving(self):
        r = microwave_blockade_radius(-14.3, 200.0)
        assert r == pytest.approx(4.150515250294702, rel=1e-12)
        assert r < optical_blockade_radius(-140.0, 1.0)

    def test_dipole_interaction_at_optical_radius(self):
        # |C3|/R_o^3 lands at a few tens of MHz for the reference pair
        r_o = optical_blockade_radius(-140.0, 1.0)
        assert dipole_interaction(-14.3, r_o) == pytest.approx(38.218357593477, rel=1e-9)

    @given(
        c3=st.floats(0.1, 1e3),
        omega=st.floats(1e-3, 1e4),
    )
    def test_radius_interaction_round_trip(self, c3, omega):
        r = microwave_blockade_radius(c3, omega)
        assert dipole_interaction(c3, r) == pytest.approx(omega, rel=1e-12)

    @given(
        c6=st.floats(1e-3, 1e6),
        width=st.floats(1e-3, 1e3),
        scale=st.floats(1e-3, 1e3),
    )
    def test_optical_radius_convention_invariance(self, c6, width, scale):
        # multiplying both arguments by the same angular-factor leaves r_o fixed
        assert optical_blockade_radius(c6 * scale, width * scale) == pytest.approx(
            optical_blockade_radius(c6, width), rel=1e-12)

    @given(c6=st.floats(1.0, 1e4), width=st.floats(0.01, 10.0), factor=st.floats(1.5, 10.0))
    def test_optical_radius_monotonicity(self, c6, width, factor):
        base = optical_blockade_radius(c6, width)
        assert optical_blockade_radius(c6 * factor, width) > base
        assert optical_blockade_radius(c6, width * factor) < base

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_width(self, bad):
        with pytest.raises(ValueError):
            optical_blockade_radius(140.0, bad)

    def test_rejects_zero_coefficients(self):
        with pytest.raises(ValueError):
            optical_blockade_radius(0.0, 1.0)
        with pytest.raises(ValueError):
            microwave_blockade_radius(0.0, 20.0)
        with pytest.raises(ValueError):
            dipole_interaction(14.3, 0.0)


class TestMotionalDephasing:
    def test_reference_value(self):
        # 1/(k_eff v_rms), k_eff = 2pi|1/780.2nm - 1/480nm|, T = 100 uK, Rb-87
        t = motional_dephasing_time(ExperimentConfig())
        assert t == pytest.approx(2.029887228898, rel=1e-9)
        # quoted coherence-limit scale: about 2 us
        assert abs(t - 2.0) < 0.2

    def test_equal_wavelengths_overflow_sentinel(self):
        cfg = ExperimentConfig(signal_wavelength=780.2, control_wavelength=780.2)
        assert motional_dephasing_time(cfg) == math.inf

    def test_colder_is_slower(self):
        warm = motional_dephasing_time(ExperimentConfig(temperature=100.0))
        cold = motional_dephasing_time(ExperimentConfig(temperature=25.0))
        assert cold == pytest.approx(2.0 * warm, rel=1e-12)


class TestExperimentConfig:
    def test_defaults_are_valid(self):
        ExperimentConfig()

    @pytest.mark.parametrize("field", [
        "cloud_wz", "cloud_wr", "temperature", "atom_mass", "signal_wavelength",
        "control_wavelength", "eit_width", "repetition_period", "storage_time",
        "mean_input_photons",
    ])
    def test_positive_fields_name_the_offender(self, field):
        with pytest.raises(ConfigError, match=field):
            ExperimentConfig(**{field: -1.0})

    @pytest.mark.parametrize("eff", [0.0, -0.2, 1.2])
    def test_detection_efficiency_range(self, eff):
        with pytest.raises(ConfigError, match="detection_efficiency"):
            ExperimentConfig(detection_efficiency=eff)

    @pytest.mark.parametrize("window", [(1.5, 1.0), (1.0, 7.0), (-0.5, 1.0), (6.0, 6.5)])
    def test_window_ordering(self, window):
        with pytest.raises(ConfigError, match="retrieval_window"):
            ExperimentConfig(retrieval_window=window)

    def test_unknown_key_is_hard_error(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"cloud_wz": 25.0, "clowd_wr": 3.0}))
        with pytest.raises(ConfigError, match="clowd_wr"):
            ExperimentConfig.from_json(path)

    @pytest.mark.parametrize("key", ["trap_wavelength", "omega_c", "omega_s", "n_principal"])
    def test_keys_the_model_does_not_read_are_unknown(self, key):
        # the config holds only what the model reads
        with pytest.raises(ConfigError, match=f"unknown config keys: {key}"):
            ExperimentConfig.from_dict({key: 60})

    def test_partial_file_overrides_defaults(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"temperature": 40.0, "retrieval_window": [1.1, 1.4]}))
        cfg = ExperimentConfig.from_json(path)
        assert cfg.temperature == 40.0
        assert cfg.retrieval_window == (1.1, 1.4)
        assert cfg.cloud_wz == ExperimentConfig().cloud_wz

    def test_shipped_default_file_matches_dataclass_defaults(self):
        from importlib.resources import files

        data = json.loads(files("rydpol.data").joinpath("default_config.json").read_text())
        assert ExperimentConfig.from_dict(data) == ExperimentConfig()

    def test_round_trip_dict(self):
        cfg = ExperimentConfig(temperature=55.0)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @given(st.sampled_from(["cloud_wz", "temperature", "eit_width", "storage_time"]),
           st.floats(-10, 0))
    @settings(max_examples=30)
    def test_nonpositive_rejected_everywhere(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig(**{field: value})


class TestPairCoefficients:
    def test_defaults(self):
        assert RB60_PAIR.c6 == -140.0
        assert RB60_PAIR.c3 == -14.3
        assert [f.name for f in dataclasses.fields(PairCoefficients)] == ["c6", "c3"]

    def test_signed_storage(self):
        # signs survive storage; only the radius formulas take magnitudes
        assert RB60_PAIR.c6 < 0 and RB60_PAIR.c3 < 0

    def test_zero_rejected(self):
        with pytest.raises(ConfigError, match="c6"):
            PairCoefficients(c6=0.0)
