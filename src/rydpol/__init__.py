"""Desk-scale simulator and analysis toolkit for microwave-dressed Rydberg polaritons."""

__version__ = "0.1.0"

from .config import (
    ExperimentConfig,
    PairCoefficients,
    RB60_PAIR,
    dipole_interaction,
    microwave_blockade_radius,
    motional_dephasing_time,
    optical_blockade_radius,
)
from .collective import (
    retrieval_probability,
    wigner_d,
    wigner_d_matrix,
)
from .structure import (
    QuantumDefectModel,
    numerov_wavefunction,
    radial_matrix_element,
    transition_frequency,
)
from .interactions import (
    SiteBasis,
    build_hamiltonian,
    build_pi_sector_hamiltonian,
    eigenspectrum,
    pair_eigenscan,
    time_evolve,
)
from .rng import philox_stream, spawn_trial_seeds
from .montecarlo import (
    ClickRecord,
    DriftSpec,
    G2Result,
    RabiScanResult,
    WriteResult,
    background_correct_g2,
    hbt_g2,
    run_shots,
    sample_positions,
    simulate_hbt_run,
    simulate_rabi_scan,
    write_polaritons,
)
from .fitting import (
    FitResult,
    ModelSpec,
    fit,
    lorentzian,
    lorentzian_spec,
    rabi_collective_model,
    rabi_collective_spec,
)

__all__ = [
    "ExperimentConfig",
    "PairCoefficients",
    "RB60_PAIR",
    "optical_blockade_radius",
    "microwave_blockade_radius",
    "dipole_interaction",
    "motional_dephasing_time",
    "retrieval_probability",
    "wigner_d",
    "wigner_d_matrix",
    "QuantumDefectModel",
    "numerov_wavefunction",
    "radial_matrix_element",
    "transition_frequency",
    "SiteBasis",
    "build_hamiltonian",
    "build_pi_sector_hamiltonian",
    "eigenspectrum",
    "pair_eigenscan",
    "time_evolve",
    "philox_stream",
    "spawn_trial_seeds",
    "ClickRecord",
    "DriftSpec",
    "G2Result",
    "RabiScanResult",
    "WriteResult",
    "background_correct_g2",
    "hbt_g2",
    "run_shots",
    "sample_positions",
    "simulate_hbt_run",
    "simulate_rabi_scan",
    "write_polaritons",
    "FitResult",
    "ModelSpec",
    "fit",
    "lorentzian",
    "lorentzian_spec",
    "rabi_collective_model",
    "rabi_collective_spec",
    "__version__",
]
