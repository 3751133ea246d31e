"""Site Hamiltonians, exchange structure, spectra, and pulse dynamics.

Independent oracles used here:
  * a kron-chain Hamiltonian assembler built from explicit 4x4 operator
    products (no code shared with the index-arithmetic embedding in the
    module),
  * the closed 2x2 exchange block [[0, -2V], [-2V, 0]] for a pair sharing
    one p0 excitation,
  * single-spin Rabi rotation formulas for drive-only dynamics, and the
    collective module's [cos^2(theta/2)]^N retrieval law for cross-checks.
"""

import itertools
import math
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import rydpol.interactions as interactions
from rydpol.collective import retrieval_probability
from rydpol.interactions import (
    MU_Z,
    SiteBasis,
    _EXCHANGE_BRACKET,
    _HOP_MINUS_PLUS,
    _HOP_PLUS_MINUS,
    _assemble,
    _centrosymmetric,
    _block_eigh,
    _check_hermitian,
    _embed,
    _tables,
    build_hamiltonian,
    build_pi_sector_hamiltonian,
    count_branch_crossings,
    eigenspectrum,
    pair_eigenscan,
    time_evolve,
)

C3 = -14.3
R_O = 7.2058962675

# Per-site levels in the basis's enumeration order.
LEVELS = ("s", "p-", "p0", "p+")


def ket_bra(a, b):
    op = np.zeros((4, 4))
    op[LEVELS.index(a), LEVELS.index(b)] = 1.0
    return op


def state_index(labels):
    """Site-major basis index of the product state with these per-site levels."""
    index = 0
    for label in labels:
        index = 4 * index + LEVELS.index(label)
    return index


def total_m(n_sites):
    """Total magnetic quantum number of every basis state, in enumeration order."""
    level_m = {"s": 0, "p-": -1, "p0": 0, "p+": 1}
    return np.array([sum(level_m[label] for label in labels)
                     for labels in itertools.product(LEVELS, repeat=n_sites)])


def line(n_sites, spacing=8.0):
    """n_sites positions on the z axis, `spacing` um apart."""
    return [[0.0, 0.0, spacing * k] for k in range(n_sites)]


def kron_embed(ops):
    """Oracle embedding: explicit kron chain over per-site 4x4 factors."""
    out = np.array([[1.0]])
    for op in ops:
        out = np.kron(out, op)
    return out


def oracle_dd_matrix(positions, c3):
    """All-pairs exchange Hamiltonian assembled the slow, obvious way."""
    n = len(positions)
    eye = np.eye(4)
    hops = []
    # sigma+/sigma- product, co-rotating part: p+ and p- excitation hopping
    hops.append((ket_bra("p+", "s"), ket_bra("s", "p+")))
    hops.append((ket_bra("s", "p-"), ket_bra("p-", "s")))
    hops.append((ket_bra("p-", "s"), ket_bra("s", "p-")))
    hops.append((ket_bra("s", "p+"), ket_bra("p+", "s")))
    matrix = np.zeros((4 ** n, 4 ** n))
    for i in range(n):
        for j in range(i + 1, n):
            r = np.linalg.norm(np.asarray(positions[i]) - np.asarray(positions[j]))
            v = c3 * 1e3 / r ** 3
            for op_i, op_j in hops:
                factors = [eye] * n
                factors[i], factors[j] = op_i, op_j
                matrix -= v * kron_embed(factors)
            for op_i, op_j in [(ket_bra("s", "p0"), ket_bra("p0", "s")),
                               (ket_bra("p0", "s"), ket_bra("s", "p0"))]:
                factors = [eye] * n
                factors[i], factors[j] = op_i, op_j
                matrix -= 2.0 * v * kron_embed(factors)
    return matrix


finite_positions = st.lists(
    st.tuples(st.floats(-20, 20), st.floats(-20, 20), st.floats(-60, 60)),
    min_size=2, max_size=3,
)


def well_separated(positions, r_min=2.0):
    pts = np.asarray(positions)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if np.linalg.norm(pts[i] - pts[j]) < r_min:
                return False
    return True


class TestSiteBasis:
    def test_dimension_and_ground_index(self):
        # index 0 is the all-s state: the drive alone couples it to the n
        # states with one site in p0, and to nothing else
        for n in (1, 2, 3, 4):
            basis = SiteBasis(n)
            assert basis.dim == 4 ** n
            h = build_hamiltonian(basis, line(n), 10.0, 0.0).matrix
            one_p0 = sorted(state_index(["s"] * site + ["p0"] + ["s"] * (n - 1 - site))
                            for site in range(n))
            assert np.flatnonzero(h[:, 0]).tolist() == one_p0

    def test_site_major_ordering(self):
        h = build_hamiltonian(SiteBasis(2), line(2), 10.0, 0.0).matrix
        assert state_index(("s", "p0")) == 2 and state_index(("p0", "s")) == 8
        assert np.flatnonzero(h[:, 0]).tolist() == [2, 8]

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_bad_site_count_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            SiteBasis(bad)


class TestDipoleOperators:
    def test_spherical_adjoint_relation(self):
        # mu_- = -mu_+^dag makes the sigma-/sigma+ channel the adjoint of sigma+/sigma-
        assert np.array_equal(_HOP_MINUS_PLUS, _HOP_PLUS_MINUS.T)

    def test_pi_component_symmetric(self):
        assert np.array_equal(MU_Z, MU_Z.T)

    def test_selection_rules_change_m_by_q(self):
        # the pi component keeps m on its site; every exchange channel moves
        # m from one site to the other and keeps the pair's total
        m = np.array([0, -1, 0, 1])
        rows, cols = np.nonzero(MU_Z)
        assert np.all(m[rows] == m[cols])
        pair_m = (m[:, None] + m[None, :]).ravel()
        for op in (_HOP_PLUS_MINUS, _HOP_MINUS_PLUS, _EXCHANGE_BRACKET):
            rows, cols = np.nonzero(op)
            assert rows.size and np.all(pair_m[rows] == pair_m[cols])


class TestEmbed:
    """_embed against the kron-chain oracle, one entry of the operator at a time."""

    @staticmethod
    def oracle(op, sites, n_sites, levels=4):
        out = np.zeros((levels ** n_sites, levels ** n_sites))
        for row, col in zip(*np.nonzero(op)):
            factors = [np.eye(levels)] * n_sites
            kets = np.unravel_index(row, (levels,) * len(sites))
            bras = np.unravel_index(col, (levels,) * len(sites))
            for site, ket, bra in zip(sites, kets, bras):
                factors[site] = np.zeros((levels, levels))
                factors[site][ket, bra] = 1.0
            out += op[row, col] * kron_embed(factors)
        return out

    @staticmethod
    def lifted(op, sites, n_sites, levels=4):
        rows, cols, values = _embed(op, sites, n_sites)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == rows.size
        out = np.zeros((levels ** n_sites, levels ** n_sites))
        out[rows, cols] += values
        return out

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 4])
    def test_single_site(self, n_sites):
        rng = np.random.default_rng(n_sites)
        op = rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.6)
        for site in range(n_sites):
            for matrix in (MU_Z, op):
                assert np.array_equal(self.lifted(matrix, (site,), n_sites),
                                      self.oracle(matrix, (site,), n_sites))

    @pytest.mark.parametrize("n_sites", [2, 3, 4])
    def test_every_ordered_pair(self, n_sites):
        rng = np.random.default_rng(10 + n_sites)
        op = rng.normal(size=(16, 16)) * (rng.random((16, 16)) < 0.3)
        for i, j in itertools.permutations(range(n_sites), 2):
            for matrix in (_EXCHANGE_BRACKET, op):
                assert np.array_equal(self.lifted(matrix, (i, j), n_sites),
                                      self.oracle(matrix, (i, j), n_sites))

    @pytest.mark.parametrize("n_sites", [1, 2, 3, 5])
    def test_two_level_operators(self, n_sites):
        # the pi sector lifts 2x2 and 4x4 operators on {s, p0} per site; the
        # level count is read from the operator's size
        rng = np.random.default_rng(20 + n_sites)
        keep = [LEVELS.index("s"), LEVELS.index("p0")]
        pair_keep = [4 * a + b for a in keep for b in keep]
        singles = (MU_Z[np.ix_(keep, keep)], rng.normal(size=(2, 2)))
        doubles = (_EXCHANGE_BRACKET[np.ix_(pair_keep, pair_keep)],
                   rng.normal(size=(4, 4)) * (rng.random((4, 4)) < 0.5))
        for site, op in itertools.product(range(n_sites), singles):
            assert np.array_equal(self.lifted(op, (site,), n_sites, 2),
                                  self.oracle(op, (site,), n_sites, 2))
        for (i, j), op in itertools.product(itertools.permutations(range(n_sites), 2), doubles):
            assert np.array_equal(self.lifted(op, (i, j), n_sites, 2),
                                  self.oracle(op, (i, j), n_sites, 2))


class TestDriveHamiltonian:
    def test_single_site_eigenvalues(self):
        h = build_hamiltonian(SiteBasis(1), line(1), 25.0, 0.0)
        w = eigenspectrum(h)
        assert np.allclose(w, [-12.5, 0.0, 0.0, 12.5])

    def test_linearity_in_omega(self):
        basis = SiteBasis(2)
        h1 = build_hamiltonian(basis, line(2), 10.0, 0.0)
        h2 = build_hamiltonian(basis, line(2), 30.0, 0.0)
        assert np.allclose(h2.matrix, 3.0 * h1.matrix)

    def test_zero_drive_is_zero_matrix(self):
        h = build_hamiltonian(SiteBasis(2), line(2), 0.0, 0.0)
        assert np.count_nonzero(h.matrix) == 0

    @pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf])
    def test_invalid_omega_rejected(self, bad):
        with pytest.raises(ValueError, match="omega_mu"):
            build_hamiltonian(SiteBasis(1), line(1), bad, 0.0)


class TestExchangeHamiltonian:
    def test_pair_exchange_block_is_closed_two_by_two(self):
        # One shared p0 excitation: the only couplings out of |s p0> and
        # |p0 s| are to each other, with amplitude -2V.
        h = build_hamiltonian(SiteBasis(2), [[0, 0, 0], [0, 0, 8.0]], 0.0, C3)
        v = C3 * 1e3 / 8.0 ** 3
        i_sp = state_index(("s", "p0"))
        i_ps = state_index(("p0", "s"))
        block = h.matrix[np.ix_([i_sp, i_ps], [i_sp, i_ps])]
        assert np.allclose(block, [[0.0, -2 * v], [-2 * v, 0.0]])
        for idx in (i_sp, i_ps):
            column = h.matrix[:, idx].copy()
            column[[i_sp, i_ps]] = 0.0
            assert np.count_nonzero(column) == 0

    def test_pair_spectrum_levels(self):
        h = build_hamiltonian(SiteBasis(2), [[0, 0, 0], [0, 0, 8.0]], 0.0, C3)
        w = eigenspectrum(h)
        v = abs(C3) * 1e3 / 8.0 ** 3
        expected = {-2 * v: 1, -v: 2, 0.0: 10, v: 2, 2 * v: 1}
        for level, count in expected.items():
            assert np.sum(np.abs(w - level) < 1e-9) == count

    def test_all_s_state_is_stationary(self):
        pos = [[0, 0, 0], [1, 2, 8], [0, -2, 15]]
        h = build_hamiltonian(SiteBasis(3), pos, 0.0, C3)
        assert np.count_nonzero(h.matrix[:, 0]) == 0

    def test_matches_kron_oracle(self):
        pos = [[0.0, 0.0, 0.0], [2.0, -1.0, 7.6], [-3.0, 0.5, 16.0]]
        h = build_hamiltonian(SiteBasis(3), pos, 0.0, C3)
        assert np.allclose(h.matrix, oracle_dd_matrix(pos, C3), atol=1e-12)

    def test_total_m_conserved(self):
        h = build_hamiltonian(SiteBasis(3), [[0, 0, 0], [1, 1, 8], [2, 0, 14]], 11.0, C3)
        m = np.diag(total_m(3).astype(float))
        assert np.abs(h.matrix @ m - m @ h.matrix).max() == 0.0

    def test_inverse_cube_scaling(self):
        basis = SiteBasis(2)
        pos = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 5.0]])
        h1 = build_hamiltonian(basis, pos, 0.0, C3)
        h2 = build_hamiltonian(basis, 2.0 * pos, 0.0, C3)
        assert np.allclose(h2.matrix, h1.matrix / 8.0, atol=1e-15)

    def test_far_field_entries_negligible(self):
        h = build_hamiltonian(SiteBasis(2), [[0, 0, 0], [0, 0, 1e4]], 0.0, C3)
        assert np.abs(h.matrix).max() < 1e-8 * abs(C3) * 1e3

    def test_coincident_sites_rejected(self):
        with pytest.raises(ValueError, match="sites 0 and 1 are coincident"):
            build_hamiltonian(SiteBasis(2), [[1, 1, 1], [1, 1, 1]], 0.0, C3)

    def test_wrong_position_shape_rejected(self):
        with pytest.raises(ValueError, match=r"positions must have shape \(3, 3\)"):
            build_hamiltonian(SiteBasis(3), [[0, 0, 0], [0, 0, 8]], 0.0, C3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nonfinite_inputs_rejected(self, bad):
        with pytest.raises(ValueError, match="c3 must be finite"):
            build_hamiltonian(SiteBasis(2), [[0, 0, 0], [0, 0, 8]], 0.0, bad)
        with pytest.raises(ValueError, match="positions must be finite"):
            build_hamiltonian(SiteBasis(2), [[0, 0, bad], [0, 0, 8]], 0.0, C3)

    @given(positions=finite_positions, omega=st.one_of(st.just(0.0), st.floats(0, 300)),
           c3=st.one_of(st.just(0.0), st.floats(-200, 200)),
           n=st.integers(1, 8), seed=st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_always_hermitian(self, positions, omega, c3, n, seed):
        # every builder makes float64, exactly symmetric matrices, which is
        # all the checked solve accepts
        matrices = [build_pi_sector_hamiltonian(random_register(n, seed), omega, c3)]
        if well_separated(positions):
            basis = SiteBasis(len(positions))
            matrices += [build_hamiltonian(basis, positions, omega, c3).matrix,
                         build_hamiltonian(basis, positions, 0.0, c3).matrix,
                         build_hamiltonian(basis, positions, omega, 0.0).matrix]
        for h in matrices:
            assert h.dtype == np.float64
            assert np.array_equal(h, h.T)

    @given(positions=finite_positions,
           shift=st.tuples(st.floats(-50, 50), st.floats(-50, 50), st.floats(-50, 50)))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, positions, shift):
        if not well_separated(positions):
            return
        basis = SiteBasis(len(positions))
        h0 = build_hamiltonian(basis, positions, 0.0, C3)
        h1 = build_hamiltonian(basis, np.asarray(positions) + np.asarray(shift), 0.0, C3)
        assert np.allclose(h0.matrix, h1.matrix, atol=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_drive_and_exchange_builds_add_up(self, n):
        # a drive entry changes one site's level and an exchange entry two,
        # so the full build is exactly its Omega = 0 build plus its c3 = 0 build
        rng = np.random.default_rng(80 + n)
        pos = np.column_stack([rng.normal(0, 2.8, n), rng.normal(0, 2.8, n),
                               np.arange(n) * 9.0])
        basis = SiteBasis(n)
        for omega, c3 in itertools.product((0.0, 3.7, 200.0), (0.0, C3, 14.3)):
            exchange = build_hamiltonian(basis, pos, 0.0, c3).matrix
            drive = build_hamiltonian(basis, pos, omega, 0.0).matrix
            assert np.array_equal(build_hamiltonian(basis, pos, omega, c3).matrix,
                                  drive + exchange)

    def test_site_relabeling_permutes_hamiltonian(self):
        basis = SiteBasis(3)
        pos = np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 7.5], [0.3, -1.0, 15.0]])
        h_a = build_hamiltonian(basis, pos, 9.0, C3).matrix
        h_b = build_hamiltonian(basis, pos[[1, 0, 2]], 9.0, C3).matrix
        idx = np.arange(64)
        swapped = (idx // 4 % 4) * 16 + (idx // 16) * 4 + idx % 4
        perm = np.zeros((64, 64))
        perm[idx, swapped] = 1.0
        assert np.abs(perm @ h_a @ perm.T - h_b).max() == 0.0


class TestEigenspectrum:
    def test_diagonal_matrix(self):
        w = eigenspectrum(np.diag([3.0, -1.0, 2.0]))
        assert np.allclose(w, [-1.0, 2.0, 3.0])

    def test_symmetric_two_level(self):
        w = eigenspectrum(np.array([[0.0, 4.5], [4.5, 0.0]]))
        assert np.allclose(w, [-4.5, 4.5])

    def test_vectors_orthonormal_and_residual_small(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(12, 12))
        h = (a + a.T) / 2
        w, v = eigenspectrum(h, return_vectors=True)
        assert np.allclose(v.T @ v, np.eye(12), atol=1e-12)
        assert np.abs(h @ v - v * w).max() < 1e-9 * max(1.0, np.abs(w).max())

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            eigenspectrum(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            eigenspectrum(np.eye(5000))

    def test_accepts_built_hamiltonians(self):
        h = build_hamiltonian(SiteBasis(2), line(2), 8.0, 0.0)
        w = eigenspectrum(h)
        assert w.shape == (16,)
        assert np.allclose(w, np.sort(np.linalg.eigvalsh(h.matrix)))

    def test_stack_solved_matrix_by_matrix(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(5, 6, 6))
        stack = a + a.transpose(0, 2, 1)
        w, v, split = _block_eigh(stack)
        assert not split
        w, v = w[0], v[0]
        for k in range(5):
            assert np.array_equal(w[k], eigenspectrum(stack[k]))
            assert np.array_equal(v[k], eigenspectrum(stack[k], return_vectors=True)[1])

    def test_stack_rejects_one_bad_matrix(self):
        stack = np.stack([np.eye(3), np.eye(3), np.eye(3)])
        stack[1, 0, 2] = 1.0
        with pytest.raises(ValueError, match="not Hermitian"):
            _block_eigh(stack)
        stack[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            _block_eigh(stack)


class TestTimeEvolve:
    def test_pi_pulse_transfers_s_to_p0(self):
        h = build_hamiltonian(SiteBasis(1), line(1), 12.5, 0.0)
        psi0 = np.zeros(4)
        psi0[0] = 1.0
        psi = time_evolve(h, psi0, 1.0 / (2 * 12.5))
        assert abs(psi[state_index(("p0",))]) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_two_pi_pulse_returns_with_sign_flip(self):
        h = build_hamiltonian(SiteBasis(1), line(1), 12.5, 0.0)
        psi0 = np.zeros(4)
        psi0[0] = 1.0
        psi = time_evolve(h, psi0, 1.0 / 12.5)
        assert psi[0].real == pytest.approx(-1.0, abs=1e-12)

    def test_noninteracting_sites_factorize(self):
        basis = SiteBasis(3)
        h3 = build_hamiltonian(basis, [[0, 0, 0], [0, 0, 8], [0, 0, 16]], 17.0, 0.0)
        psi0 = np.zeros(basis.dim)
        psi0[0] = 1.0
        psi = time_evolve(h3, psi0, 0.023)
        h1 = build_hamiltonian(SiteBasis(1), line(1), 17.0, 0.0)
        psi1 = time_evolve(h1, np.array([1.0, 0, 0, 0]), 0.023)
        product = np.kron(np.kron(psi1, psi1), psi1)
        assert np.abs(psi - product).max() < 1e-10

    def test_unnormalized_state_rejected(self):
        h = build_hamiltonian(SiteBasis(1), line(1), 10.0, 0.0)
        with pytest.raises(ValueError):
            time_evolve(h, np.array([1.0, 1.0, 0, 0]), 0.1)

    def test_array_time_rejected(self):
        h = build_hamiltonian(SiteBasis(1), line(1), 10.0, 0.0)
        with pytest.raises(ValueError, match="scalar"):
            time_evolve(h, np.array([1.0, 0, 0, 0]), np.linspace(0.0, 0.2, 7))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, bad):
        h = build_hamiltonian(SiteBasis(1), line(1), 10.0, 0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="t must be a finite scalar"):
                time_evolve(h, np.array([1.0, 0, 0, 0]), bad)

    @given(omega=st.floats(0.5, 200), t=st.floats(0, 2.0), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60, deadline=None)
    def test_norm_and_energy_conserved(self, omega, t, seed):
        rng = np.random.default_rng(seed)
        basis = SiteBasis(2)
        h = build_hamiltonian(basis, [[0, 0, 0], [0, 0, 7.5]], omega, C3)
        raw = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi0 = raw / np.linalg.norm(raw)
        psi = time_evolve(h, psi0, t)
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-9)
        e0 = np.real(psi0.conj() @ h.matrix @ psi0)
        e1 = np.real(psi.conj() @ h.matrix @ psi)
        assert e1 == pytest.approx(e0, abs=1e-9 * max(1.0, abs(e0)))


class TestRetrievalOverlap:
    def test_all_s_state_gives_one(self):
        psi = np.zeros(SiteBasis(3).dim)
        psi[state_index(("s",) * 3)] = 1.0
        assert abs(psi[0]) ** 2 == 1.0

    def test_orthogonal_state_gives_zero(self):
        psi = np.zeros(SiteBasis(2).dim)
        psi[state_index(("p0", "s"))] = 1.0
        assert abs(psi[0]) ** 2 == 0.0

    @given(theta=st.floats(0.0, 4 * math.pi), n=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_free_rotation_matches_collective_law(self, theta, n):
        # Drive-only evolution of n sites reproduces the independent-spin
        # retrieval law [cos^2(theta/2)]^n from the collective module.
        omega = 13.0
        basis = SiteBasis(n)
        pos = [[0.0, 0.0, 30.0 * k] for k in range(n)]
        h = build_hamiltonian(basis, pos, omega, 0.0)
        psi0 = np.zeros(basis.dim)
        psi0[0] = 1.0
        psi = time_evolve(h, psi0, theta / (2 * math.pi * omega))
        assert abs(psi[0]) ** 2 == pytest.approx(
            retrieval_probability(n, theta), abs=1e-10)


class TestStrongDrivePulse:
    def test_fast_two_pi_pulse_returns_all_s(self):
        # Theta = 2 pi at fifty times the strongest pair coupling: exchange
        # is frozen during the pulse and every site returns to s.
        rng = np.random.default_rng(7)
        basis = SiteBasis(3)
        psi0 = np.zeros(basis.dim)
        psi0[0] = 1.0
        for _ in range(10):
            z = np.cumsum([0.0] + list(R_O * (1 + rng.uniform(0, 0.5, 2))))
            pos = np.column_stack([rng.normal(0, 2.8, 3), rng.normal(0, 2.8, 3), z])
            dists = [np.linalg.norm(pos[a] - pos[b])
                     for a, b in [(0, 1), (0, 2), (1, 2)]]
            v_max = max(abs(C3) * 1e3 / r ** 3 for r in dists)
            omega = 50.0 * v_max
            h = build_hamiltonian(basis, pos, omega, C3)
            psi = time_evolve(h, psi0, 1.0 / omega)
            assert abs(psi[0]) ** 2 >= 0.95


class TestPiSectorReduction:
    """The {s, p0} subspace closes under drive + exchange from all-s."""

    @staticmethod
    def embed_index(bits, n):
        # per-site digit 1 (p0 in the reduced basis) maps to digit 2 of the
        # four-level site-major index
        out = 0
        for site in range(n):
            digit = (bits >> (n - 1 - site)) & 1
            out = out * 4 + 2 * digit
        return out

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_submatrix_of_full_builder(self, n):
        rng = np.random.default_rng(40 + n)
        pos = np.column_stack([rng.normal(0, 2.8, n), rng.normal(0, 2.8, n),
                               np.arange(n) * 9.0])
        omega = 31.0
        reduced = build_pi_sector_hamiltonian(pos, omega, C3)
        full = build_hamiltonian(SiteBasis(n), pos, omega, C3).matrix
        lift = [self.embed_index(b, n) for b in range(2 ** n)]
        assert np.allclose(reduced, full[np.ix_(lift, lift)], atol=1e-12)
        # and the lifted subspace is invariant: no couplings leave it
        mask = np.ones(4 ** n, dtype=bool)
        mask[lift] = False
        assert np.count_nonzero(full[np.ix_(mask, lift)]) == 0

    def test_evolution_matches_full_model(self):
        rng = np.random.default_rng(5)
        pos = np.column_stack([rng.normal(0, 2.8, 3), rng.normal(0, 2.8, 3),
                               [0.0, 8.0, 17.0]])
        omega, t = 24.0, 0.11
        basis = SiteBasis(3)
        psi0 = np.zeros(basis.dim)
        psi0[0] = 1.0
        full = time_evolve(build_hamiltonian(basis, pos, omega, C3), psi0, t)
        psi0_red = np.zeros(8)
        psi0_red[0] = 1.0
        reduced = time_evolve(build_pi_sector_hamiltonian(pos, omega, C3),
                              psi0_red, t)
        assert abs(full[0] - reduced[0]) < 1e-10

    @pytest.mark.parametrize("n", [1, 3, 5, 8, 10])
    def test_drive_plus_exchange_split_is_exact(self, n):
        # the batched scan kernel stacks Omega * D + V for every drive, with
        # the unit drive D built at (Omega, c3) = (1, 0)
        rng = np.random.default_rng(60 + n)
        pos = np.column_stack([rng.normal(0, 2.8, n), rng.normal(0, 2.8, n),
                               np.arange(n) * 9.0])
        drive = build_pi_sector_hamiltonian(pos, 1.0, 0.0)
        for omega in (0.0, 0.37, 13.5, 200.0):
            split = omega * drive + build_pi_sector_hamiltonian(pos, 0.0, C3)
            assert np.array_equal(split, build_pi_sector_hamiltonian(pos, omega, C3))

    @given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1),
           st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
           st.sampled_from([C3, 0.0, 3.7]))
    @settings(max_examples=40, deadline=None)
    def test_restriction_of_full_builder_bit_for_bit(self, n, seed, omega, c3):
        pos = random_register(n, seed)
        lift = [self.embed_index(b, n) for b in range(2 ** n)]
        full = build_hamiltonian(SiteBasis(n), pos, omega, c3).matrix
        reduced = build_pi_sector_hamiltonian(pos, omega, c3)
        assert reduced.tobytes() == full[np.ix_(lift, lift)].tobytes()

    def test_dimension_cap(self):
        pos = np.column_stack([np.zeros(13), np.zeros(13), np.arange(13) * 8.0])
        with pytest.raises(ValueError):
            build_pi_sector_hamiltonian(pos, 10.0, C3)

    def test_full_builder_refuses_past_the_cap_before_allocating(self, monkeypatch):
        monkeypatch.setattr(interactions, "MAX_DIMENSION", 64)
        assert build_hamiltonian(SiteBasis(3), line(3), 10.0, C3).matrix.shape == (64, 64)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="dimension 256 exceeds the dense-solver cap 64"):
                build_hamiltonian(SiteBasis(4), line(4), 10.0, C3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 8 // 4


def loop_pi_sector_hamiltonian(positions, omega_mu, c3):
    """Reference pi-sector builder: one pass per site pair, as a loop."""
    positions = np.asarray(positions, dtype=float)
    n = positions.shape[0]
    dim = 2 ** n
    idx = np.arange(dim)
    matrix = np.zeros((dim, dim))
    for i in range(n):
        matrix[idx ^ (1 << (n - 1 - i)), idx] = 0.5
    matrix = omega_mu * matrix
    for i, j in [(i, j) for i in range(n) for j in range(i + 1, n)]:
        r_ij = float(np.linalg.norm(positions[i] - positions[j]))
        bit_i, bit_j = 1 << (n - 1 - i), 1 << (n - 1 - j)
        sp = idx[(idx & bit_i == 0) & (idx & bit_j != 0)]
        matrix[sp ^ bit_i ^ bit_j, sp] += -2.0 * c3 * 1e3 / r_ij ** 3
        matrix[sp, sp ^ bit_i ^ bit_j] += -2.0 * c3 * 1e3 / r_ij ** 3
    return matrix


def random_register(n, seed):
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.normal(0, 20.0, n), rng.normal(0, 20.0, n),
                            rng.normal(0, 60.0, n)])


def centrosymmetric_stack(count, dim, seed, complex_valued=False):
    """Random Hermitian matrices H with P H P = H exactly (P the reversal)."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(count, dim, dim))
    if complex_valued:
        x = x + 1j * rng.normal(size=(count, dim, dim))
    hermitian = (x + np.swapaxes(x, -2, -1).conj()) / 2
    return (hermitian + hermitian[..., ::-1, ::-1]) / 2


class TestPiSectorTables:
    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1),
           st.one_of(st.just(0.0), st.floats(0.01, 50.0)),
           st.sampled_from([C3, 0.0, 3.7]))
    @settings(max_examples=80, deadline=None)
    def test_equals_loop_builder_bit_for_bit(self, n, seed, omega, c3):
        pos = random_register(n, seed)
        built = build_pi_sector_hamiltonian(pos, omega, c3)
        reference = loop_pi_sector_hamiltonian(pos, omega, c3)
        assert built.dtype == reference.dtype and built.shape == reference.shape
        assert built.tobytes() == reference.tobytes()

    def test_each_call_returns_a_fresh_writable_array(self):
        pos = random_register(4, 1)
        first = build_pi_sector_hamiltonian(pos, 2.0, C3)
        second = build_pi_sector_hamiltonian(pos, 2.0, C3)
        assert first is not second and not np.shares_memory(first, second)
        assert first.flags.writeable and first.flags.c_contiguous
        first[...] = np.nan
        assert np.array_equal(second, build_pi_sector_hamiltonian(pos, 2.0, C3))

    def test_cache_holds_read_only_sparse_tables_only(self):
        for n, pi_sector in [(n, True) for n in range(1, 11)] + [(n, False) for n in range(1, 5)]:
            pairs, drive, exchange, weights, pair_of_entry = _tables(n, pi_sector)
            assert pairs.shape == (n * (n - 1) // 2, 2)
            for table in (pairs, drive, exchange, pair_of_entry):
                assert np.issubdtype(table.dtype, np.integer)
            assert weights.dtype == float and exchange.shape == weights.shape
            dim = (2 if pi_sector else 4) ** n
            for table in (pairs, drive, exchange, weights, pair_of_entry):
                assert not table.flags.writeable
                # at most n drive entries and one entry per pair in each row
                assert table.size <= n * n * dim
        # the builders refuse dim > MAX_DIMENSION: n <= 12 on the pi sector, n <= 6 on 4^n
        assert _tables.cache_info().currsize <= 18

    def test_first_coincident_pair_is_named(self):
        pos = random_register(4, 2)
        pos[3] = pos[1]
        with pytest.raises(ValueError, match="sites 1 and 3 are coincident"):
            build_pi_sector_hamiltonian(pos, 2.0, C3)


class TestStackedAssembly:
    """One _assemble call over a stack equals the builder on each register."""

    @given(st.integers(1, 10), st.integers(1, 4), st.integers(0, 2 ** 31 - 1),
           st.sampled_from([C3, 0.0, 3.7]), st.sampled_from([0.0, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_equals_per_register_builds_bit_for_bit(self, n, count, seed, c3, omega):
        stack = np.stack([random_register(n, seed + k) for k in range(count)])
        built = _assemble(stack, omega, c3, (count, n, 3), True)
        assert built.shape == (count, 2 ** n, 2 ** n) and built.flags.c_contiguous
        for k in range(count):
            assert built[k].tobytes() == build_pi_sector_hamiltonian(stack[k], omega, c3).tobytes()
        nested = _assemble(stack[None], omega, c3, (1, count, n, 3), True)
        assert nested.tobytes() == built.tobytes() and nested.shape == (1,) + built.shape

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_non_finite_register_anywhere_refused(self, where):
        stack = np.stack([random_register(3, k) for k in range(5)])
        stack[where, 1, 2] = np.nan
        with pytest.raises(ValueError, match="^positions must be finite$"):
            _assemble(stack, 0.0, C3, stack.shape, True)

    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_coincident_register_anywhere_refused(self, where):
        stack = np.stack([random_register(4, k) for k in range(5)])
        stack[where, 3] = stack[where, 1]
        with pytest.raises(ValueError, match=r"^sites 1 and 3 are coincident; pair distances "
                                             r"must be > 0$"):
            _assemble(stack, 0.0, C3, stack.shape, True)

    def test_builders_take_one_register(self):
        stack = np.stack([random_register(3, k) for k in range(3)])
        with pytest.raises(ValueError, match=r"positions must have shape \(3, 3\)"):
            build_pi_sector_hamiltonian(stack, 1.0, C3)
        with pytest.raises(ValueError, match=r"positions must have shape \(3, 3\)"):
            build_hamiltonian(SiteBasis(3), stack, 1.0, C3)


class TestParitySplit:
    """Centrosymmetric matrices are solved as two half-size blocks."""

    @given(st.integers(1, 4), st.integers(1, 16), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_stack_matches_dense_solve(self, count, half, seed):
        stack = centrosymmetric_stack(count, 2 * half, seed)
        assert _centrosymmetric(stack)
        dense = np.linalg.eigvalsh(stack)
        scale = np.abs(dense).max(axis=-1, keepdims=True)
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", 0):
            blocks, _, split = _block_eigh(stack)
            assert split
            merged = np.sort(np.concatenate([blocks[0], blocks[1]], axis=-1), axis=-1)
            assert np.all(np.abs(merged - dense) <= 1e-12 * scale)
            for k, h in enumerate(stack):
                w, v = eigenspectrum(h, return_vectors=True)
                assert np.array_equal(w, merged[k])
                assert np.abs(h @ v - v * w).max() <= 1e-12 * scale.max()
                assert np.abs(v.T @ v - np.eye(2 * half)).max() <= 1e-12

    def test_complex_stack_rejected(self):
        # complex Hermitian and centrosymmetric: refused before the split test
        stack = centrosymmetric_stack(3, 8, 11, complex_valued=True)
        assert _centrosymmetric(stack)
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", 0):
            with pytest.raises(ValueError, match="must be real symmetric"):
                _block_eigh(stack)
            with pytest.raises(ValueError, match="must be real symmetric"):
                eigenspectrum(stack[0])

    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1), st.floats(0.01, 50.0),
           st.sampled_from([0, None]))
    @settings(max_examples=40, deadline=None)
    def test_pi_sector_registers(self, n, seed, omega, threshold):
        h = build_pi_sector_hamiltonian(random_register(n, seed), omega, C3)
        assert _centrosymmetric(h)
        limit = interactions._SPLIT_MIN_ENTRIES if threshold is None else threshold
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", limit):
            w, v = eigenspectrum(h, return_vectors=True)
            values_only = eigenspectrum(h)
        dense = np.linalg.eigvalsh(h)
        scale = np.abs(dense).max()
        assert np.all(np.abs(w - dense) <= 1e-12 * scale)
        assert np.array_equal(values_only, w)
        assert np.all(np.diff(w) >= 0)
        assert np.abs(h @ v - v * w).max() <= 1e-12 * scale

    @pytest.mark.parametrize("limit", [0, 10 ** 9], ids=["split", "dense"])
    def test_wrong_eigenpairs_are_caught(self, limit):
        h = build_pi_sector_hamiltonian(random_register(3, 1), 5.0, C3)
        solve = np.linalg.eigh

        def shifted(a):
            w, v = solve(a)
            return w + 1e-6 * np.abs(w).max(), v

        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", limit), \
                patch.object(np.linalg, "eigh", shifted):
            with pytest.raises(RuntimeError, match="eigenpair residual"):
                eigenspectrum(h, return_vectors=True)
            with pytest.raises(RuntimeError, match="eigenpair residual"):
                eigenspectrum(h)

    @pytest.mark.parametrize("matrix", [
        build_hamiltonian(SiteBasis(1), [[0.0, 0.0, 0.0]], 3.0, C3).matrix,
        build_hamiltonian(SiteBasis(2), [[0.0, 0.0, 0.0], [1.0, 2.0, 8.0]], 13.0, C3).matrix,
        build_hamiltonian(SiteBasis(3), [[0.0, 0.0, 0.0], [1.0, 2.0, 8.0], [0.0, -3.0, 17.0]],
                          13.0, C3).matrix,
        build_hamiltonian(SiteBasis(2), [[0.0, 0.0, 0.0], [1.0, 2.0, 8.0]], 0.0, C3).matrix,
        build_hamiltonian(SiteBasis(3), [[0.0, 0.0, 0.0], [1.0, 2.0, 8.0], [0.0, -3.0, 17.0]],
                          13.0, 0.0).matrix,
        build_hamiltonian(SiteBasis(4), [[0.0, 0.0, 0.0], [1.0, 2.0, 8.0], [0.0, -3.0, 17.0],
                                         [2.0, 1.0, 25.0]], 13.0, C3).matrix,
    ], ids=["full-1", "full-2", "full-3", "exchange-2", "drive-3", "full-4"])
    def test_other_builders_take_the_dense_path(self, matrix):
        assert not _centrosymmetric(matrix)
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", 0):
            w, v = eigenspectrum(matrix, return_vectors=True)
        dense_w, dense_v = np.linalg.eigh(matrix)
        assert np.array_equal(w, dense_w) and np.array_equal(v, dense_v)

def planted(kind, seed=3, dim=8):
    """A random real symmetric matrix, with one defect of the given kind planted."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(dim, dim))
    h = x + x.T
    if kind == "nan":
        h[1, 2] = np.nan
    elif kind == "+inf":
        h[1, 2] = np.inf
    elif kind == "-inf":
        h[2, 2] = -np.inf
    elif kind == "asymmetric":
        h[1, 2] += 2e-12 * np.abs(h).max()
    elif kind == "complex Hermitian":
        y = rng.normal(size=(dim, dim))
        h = h + 1j * (y - y.T)
    elif kind == "complex non-Hermitian":
        h = h + 1j * rng.normal(size=(dim, dim))
    return h


class TestCheckedSolveRejects:
    """The checks reject the same inputs for one matrix and for a stack."""

    @pytest.mark.parametrize("kind, message", [
        ("nan", "non-finite"), ("+inf", "non-finite"), ("-inf", "non-finite"),
        ("asymmetric", "not Hermitian"), ("complex Hermitian", "real symmetric"),
        ("complex non-Hermitian", "real symmetric")])
    @pytest.mark.parametrize("shape", ["single", "stack"])
    def test_defect_rejected(self, kind, message, shape):
        bad = planted(kind)
        if shape == "stack":
            good = planted(None, seed=4).astype(bad.dtype)
            bad = np.stack([good, bad, good])
        with pytest.raises(ValueError, match=message):
            _block_eigh(bad)
        if shape == "single":
            with pytest.raises(ValueError, match=message):
                eigenspectrum(bad)
            with pytest.raises(ValueError, match=message):
                time_evolve(bad, np.eye(8)[0], 0.1)

    @pytest.mark.parametrize("shape", ["single", "stack"])
    def test_tolerated_inputs_accepted(self, shape):
        # asymmetry below 1e-12 relative
        near = planted(None)
        near[1, 2] += 0.5e-12 * np.abs(near).max()
        stack = near if shape == "single" else np.stack([near, near])
        w, v, split = _block_eigh(stack)
        assert not split
        w, v = w[0], v[0]
        assert np.abs(stack @ v - v * w[..., None, :]).max() <= 1e-12 * np.abs(w).max()


def unblocked_hermitian_check(matrix):
    """The check on whole matrices: the message _check_hermitian raises, or None."""
    if np.iscomplexobj(matrix):
        return "real symmetric"
    scale = np.abs(matrix).max(axis=(-2, -1), initial=0.0)
    if not np.all(np.isfinite(scale)):
        return "non-finite"
    skew = np.abs(matrix - matrix.swapaxes(-2, -1)).max(axis=(-2, -1), initial=0.0)
    return "not Hermitian" if np.any(skew > 1e-12 * scale) else None


class TestHermitianCheckBlocks:
    """Row blocks accept and reject what the check on whole matrices does."""

    @given(st.sampled_from([1, 63, 64, 65, 130, 200]),
           st.sampled_from([None, "nan", "+inf", "-inf", "skew", "complex skew"]),
           st.floats(0.3, 3.0), st.integers(0, 2 ** 31 - 1), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_same_verdict_as_whole_matrix(self, dim, kind, size, seed, stacked):
        # size is the planted asymmetry in units of the 1e-12 tolerance
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(dim, dim))
        h = x + x.T
        if kind == "complex skew":
            # Hermitian, and refused as complex
            y = rng.normal(size=(dim, dim))
            h = h + 1j * (y - y.T)
        i, j = rng.integers(0, dim, size=2)
        if kind in ("nan", "+inf", "-inf"):
            h[i, j] = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}[kind]
        elif kind is not None:
            h[i, j] += size * 1e-12 * np.abs(h).max()
        if stacked:
            h = np.stack([h.T + h, h, h + h.T])
        expected = unblocked_hermitian_check(h)
        if expected is None:
            _check_hermitian(h, "matrix")
        else:
            with pytest.raises(ValueError, match=expected):
                _check_hermitian(h, "matrix")

    def test_temporaries_stay_below_one_matrix(self):
        # one block of 64 rows of a 1024 x 1024 matrix (8 MiB) is 0.5 MiB
        h = build_pi_sector_hamiltonian(spaced_register(10, 1), 2.0, C3)
        tracemalloc.start()
        try:
            _check_hermitian(h, "matrix")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20


def spaced_register(n, seed):
    """n sites along z at least R_O apart, as a blockaded write stores them."""
    rng = np.random.default_rng(seed)
    z = np.cumsum(R_O * (1.0 + rng.uniform(0.0, 1.0, n)))
    return np.column_stack([rng.normal(0, 5.0, n), rng.normal(0, 5.0, n), z])


class TestTimeEvolveAgainstExpm:
    """time_evolve equals scipy's matrix exponential applied to psi0."""

    @given(st.integers(1, 8), st.integers(0, 2 ** 31 - 1), st.floats(0.1, 20.0),
           st.floats(0.01, 0.3), st.sampled_from([0, None]))
    @settings(max_examples=40, deadline=None)
    def test_pi_sector_registers(self, n, seed, omega, t, threshold):
        h = build_pi_sector_hamiltonian(spaced_register(n, seed), omega, C3)
        psi0 = np.zeros(2 ** n)
        psi0[0] = 1.0
        limit = interactions._SPLIT_MIN_ENTRIES if threshold is None else threshold
        with patch.object(interactions, "_SPLIT_MIN_ENTRIES", limit):
            psi = time_evolve(h, psi0, t)
        assert np.abs(psi - expm(-2j * np.pi * t * h)[:, 0]).max() <= 1e-12

    def test_complex_state_on_real_matrix(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(6, 6))
        h = 5.0 * (x + x.T)
        assert not _centrosymmetric(h)
        raw = rng.normal(size=6) + 1j * rng.normal(size=6)
        psi0 = raw / np.linalg.norm(raw)
        psi = time_evolve(h, psi0, 0.17)
        assert np.abs(psi - expm(-2j * np.pi * 0.17 * h) @ psi0).max() <= 1e-12


class TestPairEigenscan:
    def test_shapes_and_radii(self):
        scan = pair_eigenscan(omega_mu=50.0, c3=C3, r_min=5.0, r_max=15.0, steps=21)
        assert scan.radii.shape == (21,)
        assert scan.branches.shape == (21, 16)
        assert scan.radii[0] == 5.0 and scan.radii[-1] == 15.0

    def test_levels_sorted_rows(self):
        # each row of branches, sorted, is the spectrum at its radius
        scan = pair_eigenscan(omega_mu=50.0, c3=C3, r_min=5.0, r_max=15.0, steps=11)
        for r, row in zip(scan.radii, scan.branches):
            h = build_hamiltonian(SiteBasis(2), [[0, 0, 0], [0, 0, r]], 50.0, C3)
            assert np.array_equal(np.sort(row), eigenspectrum(h))

    def test_branches_continuous(self):
        scan = pair_eigenscan(omega_mu=80.0, c3=C3, r_min=5.0, r_max=20.0, steps=301)
        dr = scan.radii[1] - scan.radii[0]
        steps = np.abs(np.diff(scan.branches, axis=0))
        # no branch jumps by more than the local level velocity allows
        assert steps.max() < 80.0 * dr * 50

    def test_far_limit_is_drive_only(self):
        scan = pair_eigenscan(omega_mu=30.0, c3=C3, r_min=60.0, r_max=90.0, steps=4)
        drive = eigenspectrum(build_hamiltonian(SiteBasis(2), line(2), 30.0, 0.0))
        v_res = abs(C3) * 1e3 / 60.0 ** 3
        assert np.abs(np.sort(scan.branches[0]) - drive).max() < 4 * v_res

    def test_strong_drive_has_no_crossings_beyond_contact(self):
        scan = pair_eigenscan(omega_mu=200.0, c3=C3, r_min=4.0, r_max=20.0, steps=200)
        assert count_branch_crossings(scan, r_threshold=R_O) == 0

    def test_weak_drive_crosses_beyond_contact(self):
        scan = pair_eigenscan(omega_mu=20.0, c3=C3, r_min=4.0, r_max=20.0, steps=200)
        assert count_branch_crossings(scan, r_threshold=R_O) >= 1

    def test_dressed_splitting_perturbative_shift(self):
        # At R_o the extreme splitting deviates from 2 Omega by O(V^2/Omega).
        omega = 200.0
        h = build_hamiltonian(SiteBasis(2), [[0, 0, 0], [0, 0, R_O]], omega, C3)
        w = eigenspectrum(h)
        v = abs(C3) * 1e3 / R_O ** 3
        deviation = abs((w[-1] - w[0]) - 2 * omega)
        assert deviation < 3 * v ** 2 / omega

    def test_deterministic(self):
        a = pair_eigenscan(omega_mu=35.0, c3=C3, r_min=5.0, r_max=12.0, steps=40)
        b = pair_eigenscan(omega_mu=35.0, c3=C3, r_min=5.0, r_max=12.0, steps=40)
        assert np.array_equal(a.branches, b.branches)

    @pytest.mark.parametrize("kwargs", [
        dict(r_min=0.0, r_max=10.0, steps=5),
        dict(r_min=8.0, r_max=6.0, steps=5),
        dict(r_min=5.0, r_max=10.0, steps=1),
    ])
    def test_invalid_grids_rejected(self, kwargs):
        with pytest.raises(ValueError):
            pair_eigenscan(omega_mu=10.0, c3=C3, **kwargs)

    @pytest.mark.parametrize("r_min, r_max", [(4.0, math.inf), (4.0, math.nan),
                                              (math.nan, 10.0), (-math.inf, 10.0)])
    def test_non_finite_range_rejected_before_linspace(self, r_min, r_max):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need finite 0 < r_min < r_max"):
                pair_eigenscan(omega_mu=10.0, c3=C3, r_min=r_min, r_max=r_max, steps=5)


class TestCrossingCounter:
    def test_counts_simple_linear_crossing(self):
        radii = np.linspace(1.0, 2.0, 11)
        branches = np.column_stack([radii, 3.0 - radii])

        class FakeScan:
            pass

        scan = FakeScan()
        scan.radii = radii
        scan.branches = branches
        assert count_branch_crossings(scan) == 1
        assert count_branch_crossings(scan, r_threshold=1.6) == 0

    def test_parallel_branches_never_cross(self):
        radii = np.linspace(1.0, 2.0, 11)

        class FakeScan:
            pass

        scan = FakeScan()
        scan.radii = radii
        scan.branches = np.column_stack([radii, radii + 1.0])
        assert count_branch_crossings(scan) == 0


@pytest.fixture(scope="module")
def ensemble():
    rng = np.random.default_rng(11)
    samples = []
    while len(samples) < 60:
        gaps = R_O * (1.0 + rng.exponential(0.15, 2))
        z = np.concatenate([[0.0], np.cumsum(gaps)])
        pos = np.column_stack([rng.normal(0, 2.8, 3), rng.normal(0, 2.8, 3), z])
        dists = [np.linalg.norm(pos[a] - pos[b])
                 for a, b in [(0, 1), (0, 2), (1, 2)]]
        if min(dists) >= R_O:
            samples.append(pos)
    return samples


class TestDriveExchangeCompetition:
    """Pulse-area-2pi return probability versus drive strength.

    Exchange clusters three close-packed polaritons most effectively when the
    drive is comparable to the pair coupling; much faster drives complete the
    rotation before an excitation can hop, and much slower drives barely
    populate p in the first place, so the return probability dips near
    resonance and recovers on both sides.
    """

    @staticmethod
    def mean_return(samples, omega):
        basis = SiteBasis(3)
        psi0 = np.zeros(basis.dim)
        psi0[0] = 1.0
        vals = []
        for pos in samples:
            h = build_hamiltonian(basis, pos, omega, C3)
            psi = time_evolve(h, psi0, 1.0 / omega)
            vals.append(abs(psi[0]) ** 2)
        return float(np.mean(vals))

    def test_return_dips_at_resonance(self, ensemble):
        v_contact = abs(C3) * 1e3 / R_O ** 3
        low = self.mean_return(ensemble, v_contact / 5)
        res = self.mean_return(ensemble, v_contact)
        high = self.mean_return(ensemble, 5 * v_contact)
        assert res < low and res < high
        assert res < 0.3

    def test_recovery_is_monotone_above_resonance(self, ensemble):
        v_contact = abs(C3) * 1e3 / R_O ** 3
        values = [self.mean_return(ensemble, f * v_contact) for f in (1, 2, 3, 5)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert values[-1] >= 0.7
