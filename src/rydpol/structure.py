"""Single-atom Rydberg structure: quantum-defect energies and radial integrals.

Energies follow the Rydberg-Ritz form  E(n,l,j) = -Ry / (n - delta(n,l,j))^2
with delta(n) = delta0 + delta2/(n - delta0)^2.  Radial wavefunctions solve the
radial Schroedinger equation in a pure Coulomb potential evaluated at the
quantum-defect energy, integrated inward with the Numerov scheme on a
log-spaced grid (substitution x = ln r, chi = u / sqrt(r)), which keeps a
fixed number of grid points per de Broglie wavelength all the way in.

All radii are in Bohr radii and matrix elements in e*a0; energies in GHz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import RB87_MASS_U

# numpy 2.0 renamed trapz to trapezoid and numpy 2.4 removed trapz; touch the
# old name only where the new one is missing (numpy < 2.0).
_trapz = getattr(np, "trapezoid", None) or np.trapz

# CODATA 2022 values, as scipy.constants gives them: the Rydberg constant
# times c (Hz) and the electron mass (u).
RYDBERG_INF_GHZ = 3289841960250000.0 / 1e9
_ELECTRON_MASS_U = 0.0005485799090441

# Rydberg-Ritz quantum defects (delta0, delta2) for Rb, keyed by (l, 2j).
# Millimetre-wave spectroscopy values; the s/p channels are the ones the
# toolkit's reference transition uses.
RB87_DEFECTS = {
    (0, 1): (3.1311804, 0.1784),
    (1, 1): (2.6548849, 0.2900),
    (1, 3): (2.6416737, 0.2950),
    (2, 3): (1.34809171, -0.60286),
    (2, 5): (1.34646572, -0.59600),
    (3, 5): (0.0165192, -0.085),
    (3, 7): (0.0165437, -0.086),
}


def _reduced_rydberg_ghz(mass_u):
    return RYDBERG_INF_GHZ / (1.0 + _ELECTRON_MASS_U / mass_u)


#: Mass-corrected Rydberg constant for Rb-87 in GHz.
RB87_RYDBERG_GHZ = _reduced_rydberg_ghz(RB87_MASS_U)


class IntegrationError(RuntimeError):
    """Raised when the radial integration produces a non-normalizable result."""


def _two_j(j, l):
    tj = round(2 * j)
    if abs(2 * j - tj) > 1e-9 or tj % 2 == 0:
        raise ValueError(f"j must be half-integer, got {j!r}")
    if abs(tj - 2 * l) != 1:
        raise ValueError(f"j must equal l +- 1/2, got l={l}, j={j}")
    return tj


@dataclass(frozen=True)
class QuantumDefectModel:
    """Quantum-defect description of one alkali species.

    Channels missing from the defect table are treated as hydrogenic
    (zero defect), which is also how the hydrogen test oracle is built.
    """

    rydberg_constant: float = RB87_RYDBERG_GHZ  # GHz
    defects: dict = field(default_factory=lambda: dict(RB87_DEFECTS))

    def __post_init__(self):
        if not (math.isfinite(self.rydberg_constant) and self.rydberg_constant > 0):
            raise ValueError(f"rydberg_constant must be positive, got {self.rydberg_constant!r}")

    def defect(self, n, l, j):
        d0, d2 = self.defects.get((l, _two_j(j, l)), (0.0, 0.0))
        if d0 == 0.0 and d2 == 0.0:
            return 0.0
        return d0 + d2 / (n - d0) ** 2

    def effective_n(self, n, l, j):
        _check_state(n, l)
        n_star = n - self.defect(n, l, j)
        if n_star <= l:
            raise ValueError(f"effective quantum number {n_star:.3f} <= l for (n={n}, l={l})")
        return n_star


def hydrogen_model():
    """Defect-free model with the infinite-mass Rydberg constant (test oracle)."""
    return QuantumDefectModel(rydberg_constant=RYDBERG_INF_GHZ, defects={})


def _check_state(n, l):
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError(f"n must be a positive integer, got {n!r}")
    if not (isinstance(l, (int, np.integer)) and 0 <= l < n):
        raise ValueError(f"l must satisfy 0 <= l < n, got l={l!r}, n={n!r}")


def binding_energy(model, n, l, j):
    """Bound-state energy E/h in GHz (negative below threshold)."""
    return -model.rydberg_constant / model.effective_n(n, l, j) ** 2


def transition_frequency(model, upper, lower):
    """E(upper) - E(lower) in GHz for (n, l, j) tuples."""
    return binding_energy(model, *upper) - binding_energy(model, *lower)


#: Numerov grid: local de Broglie sampling density, the smallest point count,
#: and the inner cutoff r_min = factor * n^2 a0. The grid ends at
#: r_max = 2.5 n (n + 15) a0.
_POINTS_PER_WAVELENGTH = 40.0
_MIN_POINTS = 2000
_INNER_CUTOFF_FACTOR = 0.05


@dataclass
class RadialWavefunction:
    """Reduced radial wavefunction u(r) = r R(r) on its integration grid."""

    r: np.ndarray  # a0, ascending
    u: np.ndarray  # normalized so trapz(u^2, r) = 1
    nodes: int


def numerov_wavefunction(model, n, l, j):
    """Integrate the radial equation inward at the quantum-defect energy.

    The equation is solved for chi(x) = u(e^x)/sqrt(e^x) on a uniform grid in
    x = ln r:  chi'' = W chi with W = (l+1/2)^2 - 2 r + r^2 / n*^2.
    Integration starts outside the outer classical turning point 2 n*^2 and
    runs inward; the inner cutoff 0.05 n^2 a0 stays outside the region
    where the inward solution would pick up the diverging irregular component.
    """
    n_star = model.effective_n(n, l, j)
    energy_au = -1.0 / (2.0 * n_star ** 2)

    r_min = _INNER_CUTOFF_FACTOR * n * n
    r_max = 2.5 * n * (n + 15.0)
    outer_turning = 2.0 * n_star ** 2
    if r_max <= outer_turning:
        raise ValueError(
            f"r_max={r_max:.1f} a0 must lie beyond the outer classical turning point "
            f"{outer_turning:.1f} a0 for (n={n}, l={l})")

    x_lo, x_hi = math.log(r_min), math.log(r_max)

    def w_of_x(x):
        r = np.exp(x)
        return (l + 0.5) ** 2 - 2.0 * r - 2.0 * energy_au * r * r

    # step chosen from the fastest oscillation in the classically allowed region
    probe = w_of_x(np.linspace(x_lo, x_hi, 512))
    k_max = math.sqrt(max(np.max(-probe), 1e-12))
    h_target = 2.0 * math.pi / (_POINTS_PER_WAVELENGTH * k_max)
    n_points = max(_MIN_POINTS, int(math.ceil((x_hi - x_lo) / h_target)) + 1)
    x = np.linspace(x_lo, x_hi, n_points)
    h = x[1] - x[0]
    w = w_of_x(x)

    f = 1.0 - (h * h / 12.0) * w  # Numerov auxiliary coefficients
    chi = np.zeros(n_points)
    chi[-1] = 1e-12
    chi[-2] = chi[-1] * math.exp(math.sqrt(max(w[-1], 0.0)) * h)
    for i in range(n_points - 2, 0, -1):
        chi[i - 1] = ((12.0 - 10.0 * f[i]) * chi[i] - f[i + 1] * chi[i + 1]) / f[i - 1]
        if abs(chi[i - 1]) > 1e250:  # rescale to dodge overflow; shape is what matters
            chi /= 1e250

    r = np.exp(x)
    u = chi * np.sqrt(r)
    if not np.all(np.isfinite(u)):
        raise IntegrationError(f"non-finite amplitude for (n={n}, l={l}, j={j})")

    # Inside the inner classical turning point the regular solution decays
    # monotonically toward the origin, so any inward growth there means the
    # irregular component has taken over: truncate below the innermost point
    # where |u| stops decreasing.
    start = 0
    allowed = np.nonzero(w < 0.0)[0]
    if allowed.size and allowed[0] > 0:
        i = int(allowed[0])
        while i > 0 and abs(u[i - 1]) < abs(u[i]):
            i -= 1
        start = i
    if start:
        r, u = r[start:], u[start:]

    norm = _trapz(u * u, r)
    if not (np.isfinite(norm) and norm > 0.0):
        raise IntegrationError(f"normalization failed for (n={n}, l={l}, j={j}): norm={norm!r}")
    u = u / math.sqrt(norm)
    if u[np.argmax(np.abs(u))] < 0.0:
        u = -u

    threshold = 1e-6 * np.max(np.abs(u))
    signs = np.sign(u[np.abs(u) > threshold])
    nodes = int(np.count_nonzero(np.diff(signs)))

    return RadialWavefunction(r=r, u=u, nodes=nodes)


def radial_matrix_element(wf_a, wf_b):
    """<u_a| r |u_b> in a0, via overlap of the two stored grids.

    The integrand is evaluated on the union of both grids restricted to the
    overlap interval, with each u linearly interpolated. Disjoint grids are an
    error rather than a silent zero.
    """
    lo = max(wf_a.r[0], wf_b.r[0])
    hi = min(wf_a.r[-1], wf_b.r[-1])
    if hi <= lo:
        raise ValueError("radial grids do not overlap; integrate both states first")
    r = np.union1d(wf_a.r, wf_b.r)
    r = r[(r >= lo) & (r <= hi)]
    ua = np.interp(r, wf_a.r, wf_a.u)
    ub = np.interp(r, wf_b.r, wf_b.u)
    return float(_trapz(ua * r * ub, r))


#: Angular factor of the reference ns_{1/2} -> (n-1)p_{3/2} sigma+ transition.
REFERENCE_ANGULAR_FACTOR = math.sqrt(2.0 / 9.0)
