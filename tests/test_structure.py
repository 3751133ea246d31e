"""Structure module: quantum-defect energies, Numerov integration, dipoles.

Closed-form hydrogen results are the primary oracle: <r>_1s = 3/2 a0,
<r>_2p = 5 a0, <r^2>_1s = 3 a0^2 and the 1s-2p radial integral
128 sqrt(6)/243 = 1.2902662 a0. The Rb anchors are the 18.5 GHz reference
transition and the 3468 e a0 radial element.
"""

import math

import numpy as np
import pytest

from rydpol.structure import (
    GridSpec,
    IntegrationError,
    QuantumDefectModel,
    RB87_DEFECTS,
    RB87_RYDBERG_GHZ,
    REFERENCE_ANGULAR_FACTOR,
    RYDBERG_INF_GHZ,
    binding_energy,
    hydrogen_model,
    numerov_wavefunction,
    radial_expectation,
    radial_matrix_element,
    transition_frequency,
)

FULL_SUPPORT = GridSpec(r_min=1e-3, min_points=4000)

# np.trapezoid exists from numpy 2.0 on; older releases only have np.trapz.
trapezoid = getattr(np, "trapezoid", None) or np.trapz


@pytest.fixture(scope="module")
def hydrogen():
    return hydrogen_model()


@pytest.fixture(scope="module")
def rb():
    return QuantumDefectModel()


class TestEnergies:
    def test_hydrogenic_n2(self, hydrogen):
        # -Ry/4 for a defect-free model
        assert binding_energy(hydrogen, 2, 0, 0.5) == pytest.approx(
            -RYDBERG_INF_GHZ / 4.0, rel=1e-14)
        assert binding_energy(hydrogen, 2, 0, 0.5) == pytest.approx(-822460.49, abs=0.01)

    def test_mass_correction_direction(self):
        # finite nuclear mass lowers the Rydberg constant by ~6e-6 relative
        assert RB87_RYDBERG_GHZ < RYDBERG_INF_GHZ
        assert (RYDBERG_INF_GHZ - RB87_RYDBERG_GHZ) / RYDBERG_INF_GHZ == pytest.approx(
            6.3e-6, rel=0.05)

    def test_rb_effective_quantum_numbers(self, rb):
        assert rb.effective_n(60, 0, 0.5) == pytest.approx(56.8687644, abs=1e-6)
        assert rb.effective_n(59, 1, 1.5) == pytest.approx(56.3582334, abs=1e-6)

    def test_defect_n_dependence(self, rb):
        # delta(n) = delta0 + delta2/(n - delta0)^2 shrinks toward delta0
        d60 = rb.defect(60, 0, 0.5)
        d30 = rb.defect(30, 0, 0.5)
        d0 = RB87_DEFECTS[(0, 1)][0]
        assert d30 > d60 > d0

    def test_reference_microwave_transition(self, rb):
        f = transition_frequency(rb, (60, 0, 0.5), (59, 1, 1.5))
        assert f == pytest.approx(18.513225374, abs=1e-6)   # frozen model value
        assert f == pytest.approx(18.5, rel=0.01)           # quoted transition

    def test_binding_energy_frozen(self, rb):
        assert binding_energy(rb, 60, 0, 0.5) == pytest.approx(-1017.242998, abs=1e-3)

    def test_unlisted_channel_is_hydrogenic(self, rb):
        assert rb.defect(60, 5, 4.5) == 0.0

    def test_invalid_states(self, rb):
        with pytest.raises(ValueError):
            binding_energy(rb, 0, 0, 0.5)
        with pytest.raises(ValueError):
            binding_energy(rb, 5, 5, 5.5)
        with pytest.raises(ValueError, match="l \\+- 1/2"):
            binding_energy(rb, 5, 1, 2.5)
        with pytest.raises(ValueError, match="half-integer"):
            binding_energy(rb, 5, 1, 1.0)


class TestHydrogenWavefunctions:
    def test_1s_mean_radius(self, hydrogen):
        wf = numerov_wavefunction(hydrogen, 1, 0, 0.5)
        assert radial_expectation(wf) == pytest.approx(1.5, rel=1e-3)

    def test_1s_r_squared(self, hydrogen):
        wf = numerov_wavefunction(hydrogen, 1, 0, 0.5)
        assert radial_expectation(wf, power=2) == pytest.approx(3.0, rel=1e-3)

    def test_2p_mean_radius(self, hydrogen):
        wf = numerov_wavefunction(hydrogen, 2, 1, 1.5)
        assert radial_expectation(wf) == pytest.approx(5.0, rel=1e-3)

    def test_1s_2p_radial_integral(self, hydrogen):
        w1s = numerov_wavefunction(hydrogen, 1, 0, 0.5)
        w2p = numerov_wavefunction(hydrogen, 2, 1, 1.5)
        assert radial_matrix_element(w1s, w2p) == pytest.approx(
            128.0 * math.sqrt(6.0) / 243.0, rel=5e-3)

    @pytest.mark.parametrize("n,l,expected", [
        (1, 0, 0), (2, 0, 1), (3, 0, 2), (2, 1, 0), (3, 1, 1), (3, 2, 0), (4, 1, 2),
    ])
    def test_node_counts(self, hydrogen, n, l, expected):
        wf = numerov_wavefunction(hydrogen, n, l, l + 0.5, FULL_SUPPORT)
        assert wf.nodes == expected

    @pytest.mark.parametrize("pair", [((2, 0), (3, 0)), ((3, 0), (4, 0)),
                                      ((2, 1), (3, 1)), ((3, 2), (4, 2))])
    def test_orthogonality_same_l(self, hydrogen, pair):
        (na, la), (nb, lb) = pair
        wa = numerov_wavefunction(hydrogen, na, la, la + 0.5, FULL_SUPPORT)
        wb = numerov_wavefunction(hydrogen, nb, lb, lb + 0.5, FULL_SUPPORT)
        assert abs(radial_matrix_element(wa, wb, power=0)) < 1e-3

    def test_normalization(self, hydrogen):
        wf = numerov_wavefunction(hydrogen, 3, 1, 1.5)
        assert trapezoid(wf.u ** 2, wf.r) == pytest.approx(1.0, abs=1e-6)


@pytest.fixture(scope="module")
def pair(rb):
    return (numerov_wavefunction(rb, 60, 0, 0.5),
            numerov_wavefunction(rb, 59, 1, 1.5))


class TestRubidiumWavefunctions:
    def test_reference_radial_element(self, pair):
        element = abs(radial_matrix_element(*pair))
        assert element == pytest.approx(3468.0, rel=0.02)   # quoted value
        assert element == pytest.approx(3474.39, rel=1e-3)  # frozen model value

    def test_reference_dipole(self, pair):
        element = abs(radial_matrix_element(*pair))
        dipole = element * REFERENCE_ANGULAR_FACTOR
        assert dipole == pytest.approx(math.sqrt(2.0 / 9.0) * element, rel=1e-12)
        assert dipole == pytest.approx(1634.9, rel=0.02)

    def test_grid_refinement_stability(self, rb, pair):
        fine = GridSpec(points_per_wavelength=80.0)
        refined = radial_matrix_element(
            numerov_wavefunction(rb, 60, 0, 0.5, fine),
            numerov_wavefunction(rb, 59, 1, 1.5, fine))
        coarse = radial_matrix_element(*pair)
        assert abs(refined - coarse) / abs(coarse) < 1e-3

    def test_wavefunction_normalized(self, pair):
        for wf in pair:
            assert trapezoid(wf.u ** 2, wf.r) == pytest.approx(1.0, abs=1e-6)

    def test_element_scales_like_n_star_squared(self, rb, pair):
        # dipole ~ n*^2: compare against the 50s-49p element at 5% slack
        small = abs(radial_matrix_element(
            numerov_wavefunction(rb, 50, 0, 0.5),
            numerov_wavefunction(rb, 49, 1, 1.5)))
        big = abs(radial_matrix_element(*pair))
        n_star_ratio = (rb.effective_n(60, 0, 0.5) / rb.effective_n(50, 0, 0.5)) ** 2
        assert big / small == pytest.approx(n_star_ratio, rel=0.05)


class TestGridAndErrors:
    def test_r_max_must_clear_outer_turning_point(self, rb):
        with pytest.raises(ValueError, match="turning point"):
            numerov_wavefunction(rb, 60, 0, 0.5, GridSpec(r_max=5000.0))

    def test_disjoint_grids_error(self, hydrogen):
        w1 = numerov_wavefunction(hydrogen, 1, 0, 0.5, GridSpec(r_min=0.05, r_max=50.0))
        w60 = numerov_wavefunction(hydrogen, 60, 0, 0.5, GridSpec(r_min=60.0))
        with pytest.raises(ValueError, match="overlap"):
            radial_matrix_element(w1, w60)

    def test_minimum_sampling_density_enforced(self):
        with pytest.raises(ValueError, match="points_per_wavelength"):
            GridSpec(points_per_wavelength=5.0)

    def test_bad_r_min(self, rb):
        with pytest.raises(ValueError, match="r_min"):
            numerov_wavefunction(rb, 60, 0, 0.5, GridSpec(r_min=20000.0))
