"""Few-polariton Hamiltonians and dynamics.

Each stored polariton is a four-level site {s, p-, p0, p+}: the long-lived s
Rydberg level plus the three Zeeman components of the p level reachable by
sigma-/pi/sigma+ transitions.  A resonant microwave field couples s and p0 at
Rabi frequency Omega_mu, while resonant dipole-dipole exchange moves p
excitations between sites with pair strength V = c3 * 1e3 / R^3 (MHz for R in
micrometres, c3 signed in GHz um^3).

Conventions: Hamiltonian entries are ordinary frequencies E/h in MHz, times
are microseconds, and evolution is psi(t) = exp(-2*pi*i*H*t) psi0, so a
resonant drive pulse of area Theta = 2*pi*Omega_mu*t transfers s -> p0 at
Theta = pi.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

#: Per-site level labels in enumeration order (m = 0, -1, 0, +1).
LEVELS = ("s", "p-", "p0", "p+")

_S, _PM, _P0, _PP = range(4)

#: Dense-solver dimension cap.
MAX_DIMENSION = 4096

_HERMITICITY_RTOL = 1e-12


def _ket_bra(a, b):
    op = np.zeros((4, 4))
    op[a, b] = 1.0
    return op


#: Pi component of the dipole on one site, s <-> p0.
MU_Z = _ket_bra(_S, _P0) + _ket_bra(_P0, _S)

# Excitation-conserving (co-rotating) parts of the two-site channel products,
# with the sigma components mu_+ = |p+><s| - |s><p-| and mu_- = -mu_+^dag.
# In the frame rotating at the s-p transition frequency, the doubly-raising /
# doubly-lowering pieces of mu_q^i mu_{-q}^j (e.g. |ss> -> |p0 p0>) oscillate
# at twice that frequency (~37 GHz) and average away; what survives is
# excitation hopping between sites.  Each entry below is a 16x16 operator on
# an ordered site pair (i, j), to be scaled by the channel weight and V_ij.
_HOP_PLUS_MINUS = -(np.kron(_ket_bra(_PP, _S), _ket_bra(_S, _PP))
                    + np.kron(_ket_bra(_S, _PM), _ket_bra(_PM, _S)))
_HOP_MINUS_PLUS = -(np.kron(_ket_bra(_PM, _S), _ket_bra(_S, _PM))
                    + np.kron(_ket_bra(_S, _PP), _ket_bra(_PP, _S)))
_HOP_Z = (np.kron(_ket_bra(_S, _P0), _ket_bra(_P0, _S))
          + np.kron(_ket_bra(_P0, _S), _ket_bra(_S, _P0)))

#: Weight of the pi/pi channel in the isotropic pair bracket
#: V_ij * (mu+_i mu-_j + mu-_i mu+_j - 2 muz_i muz_j); the sigma channels
#: have weight 1.
_ZZ_WEIGHT = -2.0
_EXCHANGE_BRACKET = _HOP_PLUS_MINUS + _HOP_MINUS_PLUS + _ZZ_WEIGHT * _HOP_Z


@dataclass(frozen=True)
class SiteBasis:
    """Product basis of n_sites four-level sites, site-major enumeration.

    Basis state k holds site i in level LEVELS[d_i], where d_i is the i-th
    base-4 digit of k, most significant first; index 0 is the all-s state.
    """

    n_sites: int

    def __post_init__(self):
        if not (isinstance(self.n_sites, int) and self.n_sites >= 1):
            raise ValueError(f"n_sites must be a positive integer, got {self.n_sites!r}")

    @property
    def dim(self):
        return 4 ** self.n_sites


def _any(flags):
    """Whether any flag is set; the one flag of a single matrix is read directly."""
    return bool(flags.any() if flags.ndim else flags)


#: Rows per block in _check_hermitian, which bounds its temporaries at this
#: many rows of each matrix.
_HERMITIAN_CHECK_ROWS = 64


def _blocked_max(parts):
    """Largest entry of each matrix over a sequence of row blocks; NaN propagates."""
    return functools.reduce(np.maximum, [part.max(axis=(-2, -1), initial=0.0)
                                         for part in parts])


def _check_hermitian(matrix, what):
    """Raise unless `matrix` (or each matrix of a stack) is finite and real symmetric.

    Every solve passes here, so each matrix is checked once, where it is
    solved.  Complex input is refused: every Hamiltonian the model builds is
    real.  Symmetric means max|H - H^T| <= 1e-12 max|H| for each matrix.
    Both maxima are taken over blocks of _HERMITIAN_CHECK_ROWS rows, so no
    temporary is larger than one block.  The finite test reads max|H|, since
    a max propagates NaN and inf.  H - H^T is antisymmetric, so its largest
    entry over all blocks is its largest |entry|: the comparison needs no
    absolute-value copy.
    """
    if np.iscomplexobj(matrix):
        raise ValueError(f"{what} must be real symmetric, got {matrix.dtype} entries")
    size = matrix.shape[-1]
    if size <= _HERMITIAN_CHECK_ROWS:
        blocks = [(matrix, matrix.swapaxes(-2, -1))]
    else:
        blocks = [(matrix[..., top:top + _HERMITIAN_CHECK_ROWS, :],
                   matrix[..., :, top:top + _HERMITIAN_CHECK_ROWS].swapaxes(-2, -1))
                  for top in range(0, size, _HERMITIAN_CHECK_ROWS)]
    scale = _blocked_max(np.abs(rows) for rows, _ in blocks)
    if _any(~np.isfinite(scale)):
        raise ValueError(f"{what} has non-finite entries")
    skew = _blocked_max(rows - mirror for rows, mirror in blocks)
    if _any(skew > _HERMITICITY_RTOL * scale):
        raise ValueError(f"{what} is not Hermitian")


@dataclass(frozen=True, eq=False)
class SiteHamiltonian:
    """An assembled Hamiltonian on the 4^n product basis of a SiteBasis.

    `matrix` holds E/h in MHz and is real symmetric; it is checked where it
    is solved, not on construction.
    """

    matrix: np.ndarray


def _embed(op, sites, n_sites):
    """Nonzero entries of a one- or two-site operator lifted to n_sites sites.

    `op` is 4x4 on sites[0], or 16x16 on sites[0] tensor sites[1].  Returns
    (rows, cols, values): each nonzero op entry once per basis state of the
    other sites, found by digit arithmetic, and no (row, col) twice.  So
    `matrix[rows, cols] += scale * values` adds scale * op, lifted, with no
    dense temporary.
    """
    idx = np.arange(4 ** n_sites)
    strides = [4 ** (n_sites - 1 - site) for site in sites]
    digits = [(idx // stride) % 4 for stride in strides]
    rows, cols, values = [], [], []
    for row, col in zip(*np.nonzero(op)):
        kets = np.unravel_index(row, (4,) * len(sites))
        bras = np.unravel_index(col, (4,) * len(sites))
        match = functools.reduce(np.logical_and,
                                 [digit == bra for digit, bra in zip(digits, bras)])
        columns = idx[match]
        shift = sum((int(ket) - int(bra)) * stride
                    for ket, bra, stride in zip(kets, bras, strides))
        rows.append(columns + shift)
        cols.append(columns)
        values.append(np.full(columns.size, op[row, col]))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


def build_hamiltonian(basis, positions, omega_mu, c3):
    """Resonant microwave drive plus dipole-dipole exchange on the 4^n basis.

    The pi-polarized drive is (Omega_mu/2) sum_i (|s><p0| + h.c.)_i, with
    single-site eigenvalues {+-Omega_mu/2, 0, 0}; diagonal energies vanish in
    the rotating frame at zero detuning.  Every site pair (i, j) adds V_ij
    times the isotropic sum of the excitation-conserving channel products
    (sigma+/sigma-, sigma-/sigma+, and pi/pi), with V_ij = c3 * 1e3 / R_ij^3
    in MHz (c3 signed, GHz um^3; R_ij um).  The pi channel hops a p0
    excitation between sites with amplitude -2 V_ij and the sigma channels
    hop p+ or p- with amplitude -V_ij, so a state with every site in s is
    stationary until the drive creates p amplitude.

    Omega_mu = 0 gives the exchange alone and c3 = 0 the drive alone.  A
    drive entry changes one site's level and an exchange entry two, so no
    entry gets both, and the matrix is exactly the sum of those two builds.
    """
    if not (math.isfinite(omega_mu) and omega_mu >= 0.0):
        raise ValueError(f"omega_mu must be finite and >= 0, got {omega_mu!r}")
    if not math.isfinite(c3):
        raise ValueError(f"c3 must be finite, got {c3!r}")
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    if positions.shape != (basis.n_sites, 3):
        raise ValueError(
            f"positions must have shape ({basis.n_sites}, 3), got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")

    matrix = np.zeros((basis.dim, basis.dim))
    for site in range(basis.n_sites):
        rows, cols, values = _embed(MU_Z, (site,), basis.n_sites)
        matrix[rows, cols] += 0.5 * omega_mu * values
    for i, j in itertools.combinations(range(basis.n_sites), 2):
        r_ij = float(np.linalg.norm(positions[i] - positions[j]))
        if r_ij <= 0.0:
            raise ValueError(f"sites {i} and {j} are coincident; pair distances must be > 0")
        v_ij = c3 * 1e3 / r_ij ** 3
        rows, cols, values = _embed(_EXCHANGE_BRACKET, (i, j), basis.n_sites)
        matrix[rows, cols] += v_ij * values
    return SiteHamiltonian(matrix=matrix)


def _distances(diffs):
    """Euclidean norms over the last axis of `diffs`, for any leading shape.

    matmul reduces each vector with the BLAS dot that np.linalg.norm uses for
    one vector, so every entry equals float(np.linalg.norm(d)) bit for bit;
    a sum of squares over the axis rounds differently.
    """
    return np.sqrt(diffs[..., None, :] @ diffs[..., :, None])[..., 0, 0]


@functools.cache
def _pi_sector_tables(n_sites):
    """Index tables of the pi-sector Hamiltonian of n_sites sites, read-only.

    Returns (pairs, drive, exchange, pair_of_entry): every site pair i < j
    as a (p, 2) array, the flat indices (row * dim + column) of the drive
    entries, those of the exchange entries, and the pair each exchange entry
    belongs to.  Every off-diagonal entry belongs to at most one of them.
    Only index arrays are kept; callers are validated to 2^n <= MAX_DIMENSION,
    which bounds the cache at 12 sizes.
    """
    dim = 2 ** n_sites
    idx = np.arange(dim)
    bits = 1 << (n_sites - 1 - np.arange(n_sites))
    drive = ((idx ^ bits[:, None]) * dim + idx).ravel()
    pairs = np.array(list(itertools.combinations(range(n_sites), 2)),
                     dtype=np.intp).reshape(-1, 2)
    exchange, pair_of_entry = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for pair, (i, j) in enumerate(pairs):
        # flip-flop |s p0> <-> |p0 s> from the pi channel; sigma channels act
        # only on p+/p- and vanish on this subspace
        sp = idx[(idx & bits[i] == 0) & (idx & bits[j] != 0)]
        ps = sp ^ bits[i] ^ bits[j]
        exchange += [ps * dim + sp, sp * dim + ps]
        pair_of_entry.append(np.full(2 * sp.size, pair))
    tables = (pairs, drive, np.concatenate(exchange), np.concatenate(pair_of_entry))
    for table in tables:
        table.setflags(write=False)
    return tables


def _pi_sector_drive(n_sites):
    """Drive term of the pi-sector Hamiltonian per unit Omega_mu: (1/2) sum_i X_i.

    Dense 2^n x 2^n in the basis of build_pi_sector_hamiltonian, whose
    matrix is Omega_mu times this plus the (Omega-independent) exchange.
    """
    dim = 2 ** n_sites
    matrix = np.zeros(dim * dim)
    matrix[_pi_sector_tables(n_sites)[1]] = 0.5
    return matrix.reshape(dim, dim)


def build_pi_sector_hamiltonian(positions, omega_mu, c3):
    """Drive plus exchange restricted to the {s, p0} product subspace.

    Starting from the all-s register, the pi-polarized drive only creates p0
    amplitude and the sigma channels only move existing p+/p- excitations, so
    the joint state never leaves the 2^n-dimensional {s, p0} subspace.  This
    returns a new dense 2^n x 2^n matrix in the site-major basis with per-site
    digits s=0, p0=1; index 0 is the all-s state.  Spectra and overlaps agree
    exactly with the full 4^n builder on this subspace, at a fraction of the
    cost for Monte Carlo work.  The global flip P = prod_i X_i (index k ->
    2^n - 1 - k) commutes with this matrix, which eigenspectrum exploits.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_sites = positions.shape[0]
    if positions.shape != (n_sites, 3) or n_sites < 1:
        raise ValueError(f"positions must have shape (n, 3), got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    if not (math.isfinite(omega_mu) and omega_mu >= 0):
        raise ValueError(f"omega_mu must be a non-negative frequency, got {omega_mu!r}")
    if not math.isfinite(c3):
        raise ValueError(f"c3 must be finite, got {c3!r}")
    dim = 2 ** n_sites
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} exceeds the dense-solver cap {MAX_DIMENSION}")

    pairs, drive, exchange, pair_of_entry = _pi_sector_tables(n_sites)
    distances = _distances(positions[pairs[:, 0]] - positions[pairs[:, 1]])
    coincident = np.flatnonzero(distances <= 0.0)
    if coincident.size:
        i, j = pairs[coincident[0]]
        raise ValueError(f"sites {i} and {j} are coincident; pair distances must be > 0")
    # Python floats: numpy's vectorized power may round r^3 differently
    couplings = np.array([_ZZ_WEIGHT * c3 * 1e3 / r_ij ** 3 for r_ij in distances.tolist()])
    matrix = np.zeros(dim * dim)
    matrix[drive] = omega_mu * 0.5
    matrix[exchange] += couplings[pair_of_entry]
    return matrix.reshape(dim, dim)


# --------------------------------------------------------------------------
# Spectra and dynamics

def _as_matrix(h):
    matrix = np.asarray(getattr(h, "matrix", h))
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if matrix.shape[0] > MAX_DIMENSION:
        raise ValueError(
            f"dimension {matrix.shape[0]} exceeds the dense-solver cap {MAX_DIMENSION}")
    return matrix


def eigenspectrum(h, return_vectors=False):
    """Ascending eigenvalues of a real symmetric Hamiltonian (optionally vectors).

    Accepts a SiteHamiltonian or a raw real symmetric matrix, and raises
    ValueError on a complex, non-finite or asymmetric one.  Each eigenpair is
    checked to satisfy ||H v - w v|| <= 1e-9 ||H||, vectors requested or not.
    A matrix of at least 2048 entries that is exactly centrosymmetric
    (P H P = H for the reversal P, the global flip of a pi-sector register)
    is solved as two half-size blocks; any other matrix, such as one from
    the full 4^n builder, by one dense solve.
    """
    matrix = _as_matrix(h)
    w, v, split = _block_eigh(matrix)
    if not split:
        return (w[0], v[0]) if return_vectors else w[0]
    w = w.ravel()
    order = np.argsort(w, kind="stable")
    if not return_vectors:
        return w[order]
    half = matrix.shape[0] // 2
    top = np.concatenate(v, axis=1)[:, order]
    top *= math.sqrt(0.5)
    vectors = np.empty(matrix.shape, dtype=top.dtype)
    vectors[:half] = top
    vectors[half:] = top[::-1]
    # columns from the A - B J block carry -J u in the lower half
    vectors[half:] *= np.where(order < half, 1.0, -1.0)
    return w[order], vectors


#: Fewest entries, over all matrices of a stack together, at which
#: _block_eigh tests for the parity split.  Below it the bookkeeping costs
#: more than the half-size solves save: one 32-row matrix breaks even, and
#: a stack of 8-row matrices starts to gain at about 20 of them.  Splitting
#: single matrices from 16 rows, with the eigenvector lift kept, was no
#: faster, so one threshold serves single matrices and stacks.
_SPLIT_MIN_ENTRIES = 2048


def _centrosymmetric(matrices):
    """Whether every matrix of the stack has even order and equals P H P."""
    return matrices.shape[-1] % 2 == 0 and np.array_equal(matrices, matrices[..., ::-1, ::-1])


def _block_eigh(matrices):
    """Checked np.linalg.eigh of one real symmetric matrix or a stack (..., d, d).

    Raises ValueError unless every matrix is finite and real symmetric, and
    RuntimeError unless every eigenpair satisfies
    ||H v - w v|| <= 1e-9 ||H|| (||H|| = largest |eigenvalue| of that matrix).

    Returns (w, v, split), w and v with one leading axis more than eigh's.
    A centrosymmetric H = [[A, B], [J B J, J A J]] (J the d/2 reversal) is
    block-diagonalized by the orthogonal Q = [[I, I], [J, -J]] / sqrt(2)
    into A + B J and A - B J; then split is True, the leading axis holds
    the eigenpairs of those two blocks, and an eigenvector u of A +- B J
    lifts to the eigenvector [u; +-J u] / sqrt(2) of H.  The residual check
    runs on the blocks, which bounds the same norm since Q is orthogonal.
    Otherwise the leading axis has length 1 and holds those of H itself.
    """
    _check_hermitian(matrices, "eigenspectrum input")
    split = matrices.size >= _SPLIT_MIN_ENTRIES and _centrosymmetric(matrices)
    if split:
        half = matrices.shape[-1] // 2
        top = matrices[..., :half, :half]
        corner = matrices[..., :half, half:][..., ::-1]
        blocks = np.empty((2,) + top.shape, dtype=top.dtype)
        np.add(top, corner, out=blocks[0])
        np.subtract(top, corner, out=blocks[1])
    else:
        blocks = matrices[None]
    w, v = np.linalg.eigh(blocks)
    h_norm = np.abs(w).max(axis=(0, -1), initial=0.0)
    misfit = blocks @ v
    misfit -= v * w[..., None, :]
    # largest squared column norm; sqrt is monotonic, so one sqrt per matrix
    squares = np.einsum("...ij,...ij->...j", misfit, misfit)
    residuals = np.sqrt(squares.max(axis=(0, -1), initial=0.0))
    bad = residuals > 1e-9 * h_norm
    if _any(bad):
        first = np.flatnonzero(bad)[0]
        raise RuntimeError(
            f"eigenpair residual {residuals.flat[first]:.3e} exceeds "
            f"1e-9 * ||H|| = {1e-9 * h_norm.flat[first]:.3e}")
    return w, v, split


def _all_s_return_probabilities(matrices, t):
    """|<0| exp(-2 pi i H t) |0>|^2 for each real symmetric H of a stack, checked.

    Basis state 0 is the all-s state of a pi-sector register.  The spectral
    sum runs over the eigenpairs from _block_eigh without lifting them: state
    0 has amplitude u_0 / sqrt(2) on each lifted block eigenvector, so a
    split stack needs no assembled eigenvectors.  Clipped at 1 against
    rounding.
    """
    w, v, split = _block_eigh(matrices)
    weights = v[..., 0, :] ** 2
    if split:
        weights *= 0.5
    amplitude = np.sum(weights * np.exp(-2j * np.pi * w * t), axis=(0, -1))
    return np.minimum(1.0, np.abs(amplitude) ** 2)


@dataclass(frozen=True, eq=False)
class EigenscanResult:
    """Two-site spectrum vs separation.

    `branches[k]` is the spectrum at `radii[k]`, and `branches[:, b]` is
    branch b followed through the scan by eigenvector-overlap continuity (the
    branch order equals the sorted order at the first radius).  The
    ascending spectrum at each radius is np.sort(branches, axis=1).
    """

    radii: np.ndarray
    branches: np.ndarray


def pair_eigenscan(omega_mu, c3, r_min, r_max, steps):
    """Eigenvalue branches of the two-site Hamiltonian over R in [r_min, r_max] um.

    At each of `steps` radii, build_hamiltonian assembles drive plus exchange
    for two sites a distance R apart along z, and its spectrum is matched to
    the previous radius's by eigenvector overlap.
    """
    from scipy.optimize import linear_sum_assignment

    if not (isinstance(steps, int) and steps >= 2):
        raise ValueError(f"steps must be an integer >= 2, got {steps!r}")
    if not 0.0 < r_min < r_max:
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min!r}, {r_max!r})")
    basis = SiteBasis(2)
    radii = np.linspace(r_min, r_max, steps)

    branches = np.empty((steps, basis.dim))
    tracked_vectors = None
    tracked_values = None
    for k, r in enumerate(radii):
        positions = [[0.0, 0.0, 0.0], [0.0, 0.0, float(r)]]
        w, v = eigenspectrum(build_hamiltonian(basis, positions, omega_mu, c3),
                             return_vectors=True)
        if tracked_vectors is None:
            columns = np.arange(basis.dim)
        else:
            # maximal successive eigenvector overlap; eigenvalue proximity as tie-break
            overlap = np.abs(tracked_vectors.T @ v) ** 2
            cost = -overlap + 1e-9 * np.abs(tracked_values[:, None] - w[None, :])
            _, columns = linear_sum_assignment(cost)
        branches[k] = w[columns]
        tracked_vectors = v[:, columns]
        tracked_values = w[columns]
    return EigenscanResult(radii=radii, branches=branches)


def count_branch_crossings(result, r_threshold=None):
    """Strict order swaps between tracked branches at radii >= r_threshold.

    A crossing is a sign change of (branch_a - branch_b) between consecutive
    scan points; stretches where the two branches are numerically degenerate
    are ignored.
    """
    mask = np.ones(result.radii.size, dtype=bool)
    if r_threshold is not None:
        mask = result.radii >= r_threshold
    b = result.branches[mask]
    if b.shape[0] < 2:
        return 0
    tol = 1e-9 * max(1.0, float(np.max(np.abs(b))))
    crossings = 0
    for i in range(b.shape[1]):
        for j in range(i + 1, b.shape[1]):
            diff = b[:, i] - b[:, j]
            signs = np.sign(diff[np.abs(diff) > tol])
            crossings += int(np.count_nonzero(np.diff(signs) != 0))
    return crossings


def time_evolve(h, psi0, t):
    """psi(t) = exp(-2*pi*i*H*t) psi0, H in MHz and a scalar t in us, by spectral decomposition.

    H must be real symmetric, as in eigenspectrum; psi0 may be complex.
    """
    if np.ndim(t) != 0:
        raise ValueError(f"t must be a scalar, got shape {np.shape(t)}")
    matrix = _as_matrix(h)
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (matrix.shape[0],):
        raise ValueError(f"psi0 shape {psi0.shape} does not match dimension {matrix.shape[0]}")
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > 1e-8:
        raise ValueError(f"psi0 must be normalized, got ||psi0|| = {norm:.6g}")
    w, v = eigenspectrum(matrix, return_vectors=True)
    # real eigenvectors act on (real, imaginary) pairs, without a complex copy of v
    coefficients = (v.T @ _pairs(psi0)).view(complex).ravel()
    return (v @ _pairs(np.exp(-2j * np.pi * w * float(t)) * coefficients)).view(complex).ravel()


def _pairs(z):
    """A complex vector viewed as its (d, 2) array of (real, imaginary) parts."""
    return np.ascontiguousarray(z).view(float).reshape(-1, 2)
