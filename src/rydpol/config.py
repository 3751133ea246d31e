"""Experiment configuration, unit conventions and closed-form scale estimates.

Unit conventions used throughout the toolkit:

* frequencies are ordinary frequencies (cycles, i.e. the quoted value/2pi) in MHz
* lengths in micrometres, times in microseconds
* energies are E/h in MHz
* pair-interaction coefficients C6 in GHz um^6 and C3 in GHz um^3, stored signed

The blockade-radius formulas take magnitudes, so attractive (negative)
coefficients are fine; Hamiltonian builders elsewhere keep the sign.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass

TWOPI = 2.0 * math.pi

# CODATA 2022 values, as scipy.constants gives them: the atomic mass
# constant (kg) and the Boltzmann constant (J/K).
_ATOMIC_MASS_KG = 1.66053906892e-27
_KB = 1.380649e-23

# Rb-87 atomic mass in unified atomic mass units.
RB87_MASS_U = 86.909


class ConfigError(ValueError):
    """Raised when a configuration value or file is invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Static parameters of the storage/retrieval experiment.

    Defaults reproduce the cold-ensemble setup the toolkit models.
    """

    cloud_wz: float = 30.0            # axial cloud std dev (um)
    cloud_wr: float = 2.8             # radial cloud std dev (um)
    temperature: float = 100.0        # ensemble temperature (uK)
    atom_mass: float = RB87_MASS_U    # atomic mass (u)
    signal_wavelength: float = 780.2  # signal-field wavelength (nm)
    control_wavelength: float = 480.0  # control-field wavelength (nm)
    eit_width: float = 1.0            # EIT transparency width (MHz)
    repetition_period: float = 6.0    # experiment repetition period (us)
    storage_time: float = 0.9         # dark storage interval (us)
    retrieval_window: tuple[float, float] = (1.0, 1.5)  # gate for retrieved photons (us)
    detection_efficiency: float = 0.18  # end-to-end detection probability
    background_rate: float = 0.0013   # detected background rate in the window (counts/us)
    mean_input_photons: float = 10.0  # mean photons per signal pulse at the cloud

    def __post_init__(self):
        positive = (
            "cloud_wz", "cloud_wr", "temperature", "atom_mass",
            "signal_wavelength", "control_wavelength", "eit_width",
            "repetition_period", "storage_time", "mean_input_photons",
        )
        for name in positive:
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
        if not (0.0 < self.detection_efficiency <= 1.0):
            raise ConfigError(
                f"detection_efficiency must lie in (0, 1], got {self.detection_efficiency!r}")
        if self.background_rate < 0:
            raise ConfigError(f"background_rate must be non-negative, got {self.background_rate!r}")
        window = self.retrieval_window
        if len(window) != 2:
            raise ConfigError(f"retrieval_window must be a (start, end) pair, got {window!r}")
        start, end = window
        if not (0.0 <= start < end < self.repetition_period):
            raise ConfigError(
                "retrieval_window must satisfy 0 <= start < end < repetition_period, "
                f"got {window!r} with repetition_period {self.repetition_period!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build a config from a plain dict; unknown keys are a hard error."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        values = dict(data)
        if "retrieval_window" in values:
            values["retrieval_window"] = tuple(values["retrieval_window"])
        return cls(**values)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must contain a JSON object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["retrieval_window"] = list(self.retrieval_window)
        return data

    @property
    def window_duration(self) -> float:
        start, end = self.retrieval_window
        return end - start


@dataclass(frozen=True)
class PairCoefficients:
    """Signed interaction coefficients for one pair of Rydberg states.

    c6 in GHz um^6, c3 in GHz um^3 (both negative for attractive pairs).
    """

    c6: float = -140.0
    c3: float = -14.3

    def __post_init__(self):
        for name in ("c6", "c3"):
            value = getattr(self, name)
            if not math.isfinite(value) or value == 0:
                raise ConfigError(f"{name} must be finite and non-zero, got {value!r}")


#: Coefficients for the 60s storage state used by the default configuration.
RB60_PAIR = PairCoefficients()


def optical_blockade_radius(c6: float, eit_width: float) -> float:
    """Radius (um) where the van der Waals shift |C6|/r^6 equals the EIT width.

    c6 in GHz um^6 (sign ignored), eit_width in MHz; the 10^3 converts GHz to MHz.
    """
    if not (math.isfinite(c6) and c6 != 0):
        raise ValueError(f"c6 must be finite and non-zero, got {c6!r}")
    if not (math.isfinite(eit_width) and eit_width > 0):
        raise ValueError(f"eit_width must be positive, got {eit_width!r}")
    return (abs(c6) * 1e3 / eit_width) ** (1.0 / 6.0)


def microwave_blockade_radius(c3: float, omega_mu: float) -> float:
    """Radius (um) where the resonant dipole shift |C3|/r^3 equals omega_mu (MHz)."""
    if not (math.isfinite(c3) and c3 != 0):
        raise ValueError(f"c3 must be finite and non-zero, got {c3!r}")
    if not (math.isfinite(omega_mu) and omega_mu > 0):
        raise ValueError(f"omega_mu must be positive, got {omega_mu!r}")
    return (abs(c3) * 1e3 / omega_mu) ** (1.0 / 3.0)


def dipole_interaction(c3: float, r: float) -> float:
    """Magnitude of the resonant dipole-dipole interaction |C3|/r^3 in MHz."""
    if not (math.isfinite(c3) and c3 != 0):
        raise ValueError(f"c3 must be finite and non-zero, got {c3!r}")
    if not (math.isfinite(r) and r > 0):
        raise ValueError(f"r must be positive, got {r!r}")
    return abs(c3) * 1e3 / r ** 3


def motional_dephasing_time(config: ExperimentConfig) -> float:
    """Thermal-motion dephasing time 1/(k_eff * v_rms) in us.

    k_eff is the magnitude of the stored spin-wave wavevector for
    counter-propagating signal and control beams, 2*pi*|1/lambda_s - 1/lambda_c|.
    Returns inf when the two wavelengths coincide (k_eff = 0).
    """
    inv_um = abs(1.0 / config.signal_wavelength - 1.0 / config.control_wavelength) * 1e3
    if inv_um == 0.0:
        return math.inf
    k_eff = TWOPI * inv_um  # 1/um
    # kB*T/m in (m/s)^2; 1 m/s == 1 um/us
    v_rms = math.sqrt(_KB * config.temperature * 1e-6 / (config.atom_mass * _ATOMIC_MASS_KG))
    return 1.0 / (k_eff * v_rms)
