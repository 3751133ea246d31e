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

# Per-site levels s, p-, p0, p+ in enumeration order (m = 0, -1, 0, +1).
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

    Basis state k holds site i in level d_i of (s, p-, p0, p+), where d_i is
    the i-th base-4 digit of k, most significant first; index 0 is the all-s
    state.
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


def _check_hermitian(matrix):
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
        raise ValueError(f"eigenspectrum input must be real symmetric, got {matrix.dtype} entries")
    size = matrix.shape[-1]
    if size <= _HERMITIAN_CHECK_ROWS:
        blocks = [(matrix, matrix.swapaxes(-2, -1))]
    else:
        blocks = [(matrix[..., top:top + _HERMITIAN_CHECK_ROWS, :],
                   matrix[..., :, top:top + _HERMITIAN_CHECK_ROWS].swapaxes(-2, -1))
                  for top in range(0, size, _HERMITIAN_CHECK_ROWS)]
    scale = _blocked_max(np.abs(rows) for rows, _ in blocks)
    if _any(~np.isfinite(scale)):
        raise ValueError("eigenspectrum input has non-finite entries")
    skew = _blocked_max(rows - mirror for rows, mirror in blocks)
    if _any(skew > _HERMITICITY_RTOL * scale):
        raise ValueError("eigenspectrum input is not Hermitian")


@dataclass(frozen=True, eq=False)
class SiteHamiltonian:
    """An assembled Hamiltonian on the 4^n product basis of a SiteBasis.

    `matrix` holds E/h in MHz and is real symmetric; it is checked where it
    is solved, not on construction.
    """

    matrix: np.ndarray


def _embed(op, sites, n_sites):
    """Nonzero entries of a one- or two-site operator lifted to n_sites sites.

    `op` is d x d on sites[0], or d^2 x d^2 on sites[0] tensor sites[1], for
    d levels per site.  Returns (rows, cols, values) in the d^n basis: each
    nonzero op entry once per basis state of the other sites, found by digit
    arithmetic, and no (row, col) twice.  So `matrix[rows, cols] += scale *
    values` adds scale * op, lifted, with no dense temporary.
    """
    levels = round(op.shape[0] ** (1 / len(sites)))
    idx = np.arange(levels ** n_sites)
    strides = [levels ** (n_sites - 1 - site) for site in sites]
    digits = [(idx // stride) % levels for stride in strides]
    rows, cols, values = [], [], []
    for row, col in zip(*np.nonzero(op)):
        kets = np.unravel_index(row, (levels,) * len(sites))
        bras = np.unravel_index(col, (levels,) * len(sites))
        match = functools.reduce(np.logical_and,
                                 [digit == bra for digit, bra in zip(digits, bras)])
        columns = idx[match]
        shift = sum((int(ket) - int(bra)) * stride
                    for ket, bra, stride in zip(kets, bras, strides))
        rows.append(columns + shift)
        cols.append(columns)
        values.append(np.full(columns.size, op[row, col]))
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(values)


@functools.cache
def _tables(n_sites, pi_sector):
    """Read-only flat tables of the drive + exchange Hamiltonian of n_sites sites.

    The pi sector lifts MU_Z and _EXCHANGE_BRACKET restricted to the levels
    {s, p0} of each site, the 4^n model lifts them whole.  Returns (pairs,
    drive, exchange, weights, pair_of_entry): the site pairs i < j as a (p, 2)
    array, the flat indices (row * dim + column) of the drive entries (each 1
    in MU_Z) and of the exchange entries, their bracket weights, and each
    exchange entry's pair; no index appears twice.  dim <= MAX_DIMENSION
    bounds the cache at 18 entries (n <= 6 on 4^n, n <= 12 on the pi sector).
    """
    keep = np.array([_S, _P0] if pi_sector else range(4))
    pair_keep = (4 * keep[:, None] + keep).ravel()
    dim = keep.size ** n_sites
    pairs = np.array(list(itertools.combinations(range(n_sites), 2)), dtype=np.intp).reshape(-1, 2)
    drive = [rows * dim + cols for rows, cols, _ in
             (_embed(MU_Z[np.ix_(keep, keep)], (site,), n_sites) for site in range(n_sites))]
    bracket = _EXCHANGE_BRACKET[np.ix_(pair_keep, pair_keep)]
    exchange, weights, pair_of_entry = ([np.empty(0, dtype)] for dtype in (np.intp, float, np.intp))
    for pair, sites in enumerate(pairs):
        rows, cols, values = _embed(bracket, sites, n_sites)
        exchange.append(rows * dim + cols)
        weights.append(values)
        pair_of_entry.append(np.full(rows.size, pair))
    tables = (pairs, np.concatenate(drive), np.concatenate(exchange),
              np.concatenate(weights), np.concatenate(pair_of_entry))
    for table in tables:
        table.setflags(write=False)
    return tables


def _distances(diffs):
    """Euclidean norms over the last axis of `diffs`, for any leading shape.

    matmul reduces each vector with the BLAS dot that np.linalg.norm uses for
    one vector, so every entry equals float(np.linalg.norm(d)) bit for bit;
    a sum of squares over the axis rounds differently.
    """
    return np.sqrt(diffs[..., None, :] @ diffs[..., :, None])[..., 0, 0]


def _assemble(positions, omega_mu, c3, shape, pi_sector):
    """Checked dense drive + exchange matrices of the registers `positions`, from _tables.

    Writes Omega_mu / 2 at the drive entries and adds weight * V_ij at the
    exchange entries of pair (i, j), V_ij = c3 * 1e3 / R_ij^3 in MHz.
    positions must have shape `shape`: (n, 3) for one register, (..., n, 3)
    for a stack, which is checked, measured and filled at once.  The result
    has shape (..., dim, dim), each matrix bit for bit the one assembled
    from its register alone.  Both builders share its checks, distance rule
    and dimension cap.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    n_sites = shape[-2]
    if n_sites < 1 or positions.shape != shape:
        raise ValueError(f"positions must have shape {shape}, n >= 1, got {positions.shape}")
    if not np.all(np.isfinite(positions)):
        raise ValueError("positions must be finite")
    if not (math.isfinite(omega_mu) and omega_mu >= 0):
        raise ValueError(f"omega_mu must be a non-negative frequency, got {omega_mu!r}")
    if not math.isfinite(c3):
        raise ValueError(f"c3 must be finite, got {c3!r}")
    dim = (2 if pi_sector else 4) ** n_sites
    if dim > MAX_DIMENSION:
        raise ValueError(f"dimension {dim} exceeds the dense-solver cap {MAX_DIMENSION}")

    pairs, drive, exchange, weights, pair_of_entry = _tables(n_sites, pi_sector)
    distances = _distances(positions[..., pairs[:, 0], :] - positions[..., pairs[:, 1], :])
    coincident = np.flatnonzero(distances <= 0.0)
    if coincident.size:
        i, j = pairs[coincident[0] % len(pairs)]
        raise ValueError(f"sites {i} and {j} are coincident; pair distances must be > 0")
    # Python floats: numpy's vectorized power may round r^3 differently
    couplings = np.array([c3 * 1e3 / r_ij ** 3 for r_ij in distances.ravel().tolist()])
    count = math.prod(shape[:-2])
    if count != 1:
        # the tables of every matrix of the stack, as flat indices: 1-d
        # fancy indexing is faster than indexing the last axis of a stack
        offsets = np.arange(count)[:, None]
        drive = (offsets * dim * dim + drive).ravel()
        exchange = (offsets * dim * dim + exchange).ravel()
        pair_of_entry = (offsets * len(pairs) + pair_of_entry).ravel()
        weights = np.tile(weights, count)
    matrix = np.zeros(count * dim * dim)
    matrix[drive] = 0.5 * omega_mu
    values = couplings[pair_of_entry]
    values *= weights
    matrix[exchange] += values
    return matrix.reshape(shape[:-2] + (dim, dim))


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
    Refuses 4^n > MAX_DIMENSION (n > 6) before it allocates.
    """
    return SiteHamiltonian(
        matrix=_assemble(positions, omega_mu, c3, (basis.n_sites, 3), False))


def build_pi_sector_hamiltonian(positions, omega_mu, c3):
    """Drive plus exchange restricted to the {s, p0} product subspace.

    Starting from the all-s register, the pi-polarized drive only creates p0
    amplitude and the sigma channels only move existing p+/p- excitations, so
    the joint state never leaves the 2^n-dimensional {s, p0} subspace.  This
    returns a new dense 2^n x 2^n matrix in the site-major basis with per-site
    digits s=0, p0=1; index 0 is the all-s state.  It is the 4^n builder's
    matrix restricted to the {s, p0}^n states, bit for bit, for n <= 12
    sites.  The global flip P = prod_i X_i (index k -> 2^n - 1 - k) commutes
    with this matrix, which eigenspectrum exploits.
    """
    return _assemble(positions, omega_mu, c3, (len(np.atleast_2d(positions)), 3), True)


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
    blocks, split = _parity_blocks(matrix)
    w, v = _solve_blocks(blocks)
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
#: _parity_blocks tests for the parity split.  Below it the bookkeeping costs
#: more than the half-size solves save: one 32-row matrix breaks even, and
#: a stack of 8-row matrices starts to gain at about 20 of them.  Splitting
#: single matrices from 16 rows, with the eigenvector lift kept, was no
#: faster, so one threshold serves single matrices and stacks.
_SPLIT_MIN_ENTRIES = 2048


def _centrosymmetric(matrices):
    """Whether every matrix of the stack has even order and equals P H P."""
    return matrices.shape[-1] % 2 == 0 and np.array_equal(matrices, matrices[..., ::-1, ::-1])


def _parity_blocks(matrices, split=None, overwrite=False):
    """Check a real symmetric matrix or stack (..., d, d) and split it: (blocks, split).

    Raises ValueError unless every matrix is finite and real symmetric.
    A centrosymmetric H = [[A, B], [J B J, J A J]] (J the d/2 reversal) is
    block-diagonalized by the orthogonal Q = [[I, I], [J, -J]] / sqrt(2)
    into blocks = (A + B J, A - B J); an eigenvector u of A +- B J lifts to
    the eigenvector [u; +-J u] / sqrt(2) of H.  Unsplit, blocks is `matrices`
    under a leading axis of 1.  split=None splits a centrosymmetric input of
    at least _SPLIT_MIN_ENTRIES entries; True or False imposes another
    input's decision (True only on a centrosymmetric input).
    overwrite=True writes the blocks over the lower half rows of `matrices`,
    which P H P = H makes redundant, so the caller must own `matrices`.
    """
    _check_hermitian(matrices)
    if split is None:
        split = matrices.size >= _SPLIT_MIN_ENTRIES and _centrosymmetric(matrices)
    if not split:
        return matrices[None], False
    half = matrices.shape[-1] // 2
    top = matrices[..., :half, :half]
    corner = matrices[..., :half, half:][..., ::-1]
    if overwrite:
        # row i of the lower half holds row i of A + B J, then of A - B J
        lower = matrices[..., half:, :]
        blocks = np.moveaxis(lower.reshape(lower.shape[:-1] + (2, half)), -2, 0)
    else:
        blocks = np.empty((2,) + top.shape, dtype=top.dtype)
    np.add(top, corner, out=blocks[0])
    np.subtract(top, corner, out=blocks[1])
    return blocks, True


def _solve_blocks(blocks):
    """eigh of _parity_blocks' blocks, each eigenpair checked: (w, v).

    Raises RuntimeError unless ||H v - w v|| <= 1e-9 ||H||, ||H|| the largest
    |eigenvalue| of that matrix; Q is orthogonal, so blocks bound the same norm.
    """
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
    return w, v


#: Bytes of parity blocks per eigh call in _scan_return_probabilities, so
#: that a solve's temporaries stay small next to the exchange stack.
_SCAN_SOLVE_BYTES = 4 * 2 ** 20


def _scan_return_probabilities(registers, omegas, c3, pulse_duration):
    """All-s return probabilities of many registers at many drives, checked.

    Returns p[i, k] = |<0| exp(-2 pi i H t) |0>|^2 for H the pi-sector
    Hamiltonian of registers[k] at omegas[i], t = pulse_duration.  H is
    Omega * D + V.  Per register size, one _assemble call builds every V;
    V and the unit drive D are then checked and split once (D by V's
    decision).  No drive entry is an exchange entry, so Omega * D_blk + V_blk
    is the split of Omega * D + V bit for bit, and a finite Omega keeps it
    finite and symmetric.  Each drive solves it by _solve_blocks, up to
    _SCAN_SOLVE_BYTES per call, and the spectral sum runs over the block
    eigenpairs without lifting them: state 0 has amplitude u_0 / sqrt(2) on
    each lifted block eigenvector.  p = 1 for an empty register, Omega = 0
    or t = 0, and p is clipped at 1 against rounding.
    """
    omegas = np.asarray(omegas, dtype=float)
    if not np.all(np.isfinite(omegas)):
        raise ValueError("omegas must be finite")
    probabilities = np.ones((omegas.size, len(registers)))
    if pulse_duration == 0.0:
        return probabilities
    sizes = np.array([len(positions) for positions in registers], dtype=int)
    for n in np.unique(sizes[sizes > 0]):
        members = np.flatnonzero(sizes == n)
        exchange = _assemble(np.stack([registers[k] for k in members]), 0.0, c3,
                             (members.size, n, 3), True)
        exchange, split = _parity_blocks(exchange, overwrite=True)
        drive, _ = _parity_blocks(build_pi_sector_hamiltonian(registers[members[0]], 1.0, 0.0),
                                  split)
        drive = drive[:, None]
        step = max(1, _SCAN_SOLVE_BYTES // exchange[:, 0].nbytes)
        # eigenvalues and first eigenvector rows of the whole group, so that
        # the spectral sum reduces one stack however the solves are grouped
        w = np.empty(exchange.shape[:-1])
        first_row = np.empty_like(w)
        for i, omega in enumerate(omegas):
            if omega == 0.0:
                continue
            for lo in range(0, members.size, step):
                # C order: a fresh stack, whatever the layout of the blocks split in place
                hamiltonian = np.add(omega * drive, exchange[:, lo:lo + step], order="C")
                w[:, lo:lo + step], v = _solve_blocks(hamiltonian)
                first_row[:, lo:lo + step] = v[..., 0, :]
            weights = first_row ** 2
            if split:
                weights *= 0.5
            amplitude = np.sum(weights * np.exp(-2j * np.pi * w * pulse_duration), axis=(0, -1))
            probabilities[i, members] = np.minimum(1.0, np.abs(amplitude) ** 2)
    return probabilities


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
    if not (0.0 < r_min < r_max and math.isfinite(r_max)):
        raise ValueError(f"need finite 0 < r_min < r_max, got ({r_min!r}, {r_max!r})")
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
    if np.ndim(t) != 0 or not math.isfinite(t):
        raise ValueError(f"t must be a finite scalar, got {t!r}")
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
