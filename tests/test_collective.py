"""Collective-rotation module: Wigner d elements and the retrieval law.

The independent oracle for rotation matrix elements is brute-force matrix
exponentiation of the J_y generator (scipy.linalg.expm), built here from
ladder operators with no shared code paths with the implementation; the
literal closed form takes its 2F1 from scipy.special.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import hyp2f1

from rydpol.collective import retrieval_probability, wigner_d, wigner_d_matrix


def expm_d_matrix(two_j, theta):
    """Oracle: d(theta) = exp(-i theta J_y) in the |j m> basis, m ascending."""
    dim = two_j + 1
    m = (np.arange(dim) * 2 - two_j) / 2.0
    j = two_j / 2.0
    jy = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        # <m+1|J+|m> on the ascending-m grid
        amp = math.sqrt(j * (j + 1) - m[i] * (m[i] + 1))
        jy[i + 1, i] += amp / 2j
        jy[i, i + 1] -= amp / 2j
    out = expm(-1j * theta * jy)
    assert np.max(np.abs(out.imag)) < 1e-12
    return out.real


THETAS = [0.0, 0.3, math.pi / 2, 1.9, math.pi, 4.0, 2 * math.pi, 7.5]


class TestWignerD:
    @pytest.mark.parametrize("two_j", [1, 2, 3, 4, 7, 10, 25])
    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_matrix_exponential(self, two_j, theta):
        ours = wigner_d_matrix(two_j / 2.0, theta)
        oracle = expm_d_matrix(two_j, theta)
        assert np.max(np.abs(ours - oracle)) < 1e-10

    def test_matches_literal_closed_form(self):
        # prefactor * cos^{2j+m-m'} * sin^{m'-m} * 2F1(m'-j, -m-j; m'-m+1; -tan^2)
        rng = np.random.default_rng(11)
        for _ in range(200):
            two_j = int(rng.integers(1, 16))
            tm = int(rng.integers(-two_j, two_j + 1))
            tmp = int(rng.integers(tm, two_j + 1))
            if (two_j - tm) % 2 or (two_j - tmp) % 2:
                continue
            theta = float(rng.uniform(0.05, math.pi - 0.05))
            j, mp, m = two_j / 2.0, tmp / 2.0, tm / 2.0
            mu = (tmp - tm) // 2
            pref = ((-1.0) ** mu / math.factorial(mu)) * math.sqrt(
                math.factorial(int(j - m)) * math.factorial(int(j + mp))
                / (math.factorial(int(j + m)) * math.factorial(int(j - mp))))
            half = theta / 2.0
            closed = (pref * math.cos(half) ** (two_j + int(m - mp))
                      * math.sin(half) ** mu
                      * hyp2f1(mp - j, -m - j, mu + 1, -math.tan(half) ** 2))
            assert wigner_d(j, mp, m, theta) == pytest.approx(closed, rel=1e-9, abs=1e-12)

    def test_spin_half_diagonal(self):
        for theta in THETAS:
            assert wigner_d(0.5, -0.5, -0.5, theta) == pytest.approx(
                math.cos(theta / 2), abs=1e-14)

    def test_j1_quarter_turn_element(self):
        # oracle value; the exp(-i theta J_y) convention makes this negative
        assert wigner_d(1, 0, -1, math.pi / 2) == pytest.approx(-1 / math.sqrt(2), rel=1e-12)
        assert wigner_d(1, -1, 0, math.pi / 2) == pytest.approx(+1 / math.sqrt(2), rel=1e-12)

    def test_identity_at_zero(self):
        assert np.allclose(wigner_d_matrix(7 / 2, 0.0), np.eye(8), atol=1e-14)

    def test_full_flip_at_pi(self):
        # |d^j_{j,-j}(pi)| = 1: the stretched state maps to its mirror
        for two_j in (1, 2, 5, 8):
            j = two_j / 2.0
            assert abs(wigner_d(j, j, -j, math.pi)) == pytest.approx(1.0, rel=1e-12)

    @given(two_j=st.integers(0, 50), theta=st.floats(0, 4 * math.pi))
    @settings(max_examples=200)
    def test_unitarity_of_columns(self, two_j, theta):
        j = two_j / 2.0
        m = -j if two_j == 0 else (two_j % 3 * 2 - two_j) / 2.0  # a valid m
        col = [wigner_d(j, (-two_j + 2 * i) / 2.0, m, theta) for i in range(two_j + 1)]
        assert sum(v * v for v in col) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("two_j", [1, 2, 5])
    def test_orthogonality(self, two_j):
        d = wigner_d_matrix(two_j / 2.0, 1.234)
        assert np.max(np.abs(d @ d.T - np.eye(two_j + 1))) < 1e-12

    @pytest.mark.parametrize("two_j", [1, 2, 4, 9])
    def test_composition(self, two_j):
        j = two_j / 2.0
        t1, t2 = 0.83, 1.91
        combined = wigner_d_matrix(j, t1 + t2)
        product = wigner_d_matrix(j, t2) @ wigner_d_matrix(j, t1)
        assert np.max(np.abs(combined - product)) < 1e-10

    @pytest.mark.parametrize("two_j", [1, 2, 3, 6])
    def test_periodicity(self, two_j):
        j = two_j / 2.0
        theta = 0.77
        d0 = wigner_d_matrix(j, theta)
        assert np.allclose(wigner_d_matrix(j, theta + 4 * math.pi), d0, atol=1e-10)
        assert np.allclose(wigner_d_matrix(j, theta + 2 * math.pi),
                           (-1.0) ** two_j * d0, atol=1e-10)

    def test_invalid_quantum_numbers(self):
        with pytest.raises(ValueError, match="half-integer"):
            wigner_d(1.2, 0, 0, 0.5)
        with pytest.raises(ValueError, match="exceed"):
            wigner_d(1, 2, 0, 0.5)
        with pytest.raises(ValueError, match="integer"):
            wigner_d(1, 0.5, 0, 0.5)  # m' must differ from j by an integer


class TestRetrievalLaw:
    def test_agrees_with_wigner_element(self):
        rng = np.random.default_rng(3)
        for n in range(0, 9):
            for theta in rng.uniform(0, 4 * math.pi, 40):
                d = wigner_d(n / 2.0, -n / 2.0, -n / 2.0, theta)
                assert retrieval_probability(n, theta) == pytest.approx(
                    d * d, abs=1e-12)

    def test_zero_polaritons(self):
        assert retrieval_probability(0, 2.1) == 1.0

    def test_first_zero_is_n_independent(self):
        for n in range(1, 8):
            assert retrieval_probability(n, math.pi) == pytest.approx(0.0, abs=1e-30)
            # strictly positive just inside
            assert retrieval_probability(n, math.pi - 1e-3) > 0

    @given(n=st.integers(1, 10), theta=st.floats(1e-3, math.pi - 1e-3))
    @settings(max_examples=100)
    def test_monotone_suppression_with_n(self, n, theta):
        assert retrieval_probability(n + 1, theta) < retrieval_probability(n, theta)

    def test_revival_sharpening_factor(self):
        # FWHM (in theta around the 2pi revival) of [cos^2]^N, N=1 vs N=3
        theta = np.linspace(math.pi, 3 * math.pi, 400001)

        def fwhm(n):
            p = retrieval_probability(n, theta)
            above = theta[p >= 0.5]
            return above[-1] - above[0]

        expected = math.acos(2.0 ** -0.5) / math.acos(2.0 ** (-1.0 / 6.0))
        assert fwhm(1) / fwhm(3) == pytest.approx(expected, abs=1e-3)
        assert fwhm(1) / fwhm(3) == pytest.approx(1.6658, abs=1e-3)

    def test_vectorized_theta(self):
        thetas = np.array([0.0, math.pi / 2, math.pi])
        out = retrieval_probability(2, thetas)
        assert out.shape == (3,)
        assert out[0] == pytest.approx(1.0)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            retrieval_probability(-1, 0.3)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf,
                                       np.array([0.0, math.nan, 1.0])])
    def test_non_finite_theta_rejected(self, theta):
        calls = [lambda: retrieval_probability(3, theta)]
        if np.ndim(theta) == 0:  # the Wigner d functions take a scalar angle
            calls += [lambda: wigner_d(0.5, 0.5, 0.5, theta),
                      lambda: wigner_d_matrix(1.5, theta)]
        for call in calls:
            with pytest.raises(ValueError, match="theta must be finite, got (nan|inf|-inf)$"):
                call()
