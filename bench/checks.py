"""Correctness checks on the benchmark's outputs.

Each check rests on a computation made apart from the program (``scipy``'s
``expm``, the full 4^n Hamiltonian, an own correlator) or on a property the
method must have, never on a stored copy of earlier output.  A failed check
raises ``CheckFailed``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh, expm

#: Largest matrix whose return probability is taken from expm; expm of a
#: 2048 x 2048 complex matrix takes ~16 s here, so larger ones use scipy's eigh.
EXPM_MAX_DIM = 256


class CheckFailed(Exception):
    """An output of the program is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


# --------------------------------------------------------------------------
# Write, register dynamics and detected counts

def counts_per_shot(counts, shots):
    """One detected count per shot, each a non-negative integer."""
    counts = np.asarray(counts)
    require(counts.shape == (shots,), f"expected {shots} counts, got shape {counts.shape}")
    require(np.issubdtype(counts.dtype, np.integer),
            f"counts must be integers, got dtype {counts.dtype}")
    require(counts.size == 0 or counts.min() >= 0, "a count is negative")


def blockade_radius(c6, eit_width):
    """r_o (um) where |C6| (GHz um^6) / r^6 equals the EIT width (MHz)."""
    return (abs(c6) * 1e3 / eit_width) ** (1.0 / 6.0)


def blockaded_write(candidates, r_o, accepted):
    """``accepted`` is the sequential hard-sphere selection of ``candidates``.

    Every accepted pair is at least r_o apart, the accepted points are
    candidates in sampled order, and every rejected candidate lies within
    r_o of a point accepted before it.
    """
    candidates = np.asarray(candidates, dtype=float).reshape(-1, 3)
    accepted = np.asarray(accepted, dtype=float).reshape(-1, 3)
    if len(accepted) > 1:
        gaps = np.linalg.norm(accepted[:, None] - accepted[None, :], axis=-1)
        closest = gaps[np.triu_indices(len(accepted), 1)].min()
        require(closest >= r_o, f"accepted pair {closest:.4g} um apart, inside r_o = {r_o:.4g}")
    taken = 0
    for index, point in enumerate(candidates):
        if taken < len(accepted) and np.array_equal(point, accepted[taken]):
            taken += 1
            continue
        nearest = (np.linalg.norm(accepted[:taken] - point, axis=-1).min()
                   if taken else math.inf)
        require(nearest < r_o, f"candidate {index} was rejected although the nearest "
                               f"earlier polariton is {nearest:.4g} um >= r_o")
    require(taken == len(accepted), "accepted points are not the candidates in order")


def reference_return_probability(h, t):
    """|<all-s| exp(-2 pi i H t) |all-s>|^2 (H in MHz, t in us) from scipy.

    scipy's expm up to EXPM_MAX_DIM rows; above, the spectral sum over
    scipy.linalg.eigh (LAPACK syevr, where numpy's eigh calls syevd).
    """
    h = np.asarray(h)
    if h.shape[0] <= EXPM_MAX_DIM:
        return float(abs(expm(-2j * math.pi * t * h)[0, 0]) ** 2)
    w, v = eigh(h)
    return float(abs(np.sum(v[0] ** 2 * np.exp(-2j * math.pi * w * t))) ** 2)


def return_probability(p, h, t, full_h=None, tol=1e-9):
    """p lies in [0, 1] and matches scipy's exponential of the pi-sector matrix ``h``.

    When the full 4^n Hamiltonian of the same register is given, p matches
    its all-s return probability too.  Up to 1e-12 of rounding above 1 is
    allowed, which the program clips.
    """
    require(0.0 <= p <= 1.0 + 1e-12, f"return probability {p!r} is outside [0, 1]")
    reference = reference_return_probability(h, t)
    require(abs(p - reference) <= tol,
            f"return probability {p:.12g} differs from scipy's {reference:.12g}")
    if full_h is not None:
        full = reference_return_probability(full_h, t)
        require(abs(p - full) <= tol,
                f"return probability {p:.12g} differs from the 4^n model's {full:.12g}")


def count_moments(n, p, efficiency, background):
    """Mean and variance of Binomial(n, p * efficiency) + Poisson(background)."""
    q = np.asarray(p, dtype=float) * efficiency
    n = np.asarray(n, dtype=float)
    return n * q + background, n * q * (1.0 - q) + background


def mean_within(observed, expected, standard_error, what, k=5.0):
    require(abs(observed - expected) <= k * standard_error,
            f"{what}: mean {observed:.6g} is more than {k:g} standard errors "
            f"({standard_error:.3g}) from the expected {expected:.6g}")


# --------------------------------------------------------------------------
# Fit

def converged_fit(result):
    """A converged fit with a finite positive n and a finite uncertainty on it."""
    require(result.status == "converged", f"fit status is {result.status!r}")
    n = result.as_dict()["n"]
    error = result.uncertainty_dict()["n"]
    require(math.isfinite(n) and n > 0, f"fitted n = {n!r} is not finite and positive")
    require(math.isfinite(error), f"uncertainty of n is {error!r}")


def fit_recovers(result, name, truth, k=5.0):
    """The fitted parameter lies within k quoted standard errors of the truth."""
    value = result.as_dict()[name]
    error = result.uncertainty_dict()[name]
    require(abs(value - truth) <= k * error,
            f"fitted {name} = {value:.4g} +/- {error:.2g} is more than {k:g} sigma "
            f"from the true {truth:g}")


# --------------------------------------------------------------------------
# Pulsed HBT correlation

def correlate(clicks, max_delay, norm_range):
    """Cross-detector coincidences and normalized g2 per pulse-index delay.

    Returns (delays, coincidences, g2); g2 divides each bin's per-pair rate
    by the mean rate over the delays with norm_range[0] <= |k| <= norm_range[1].
    """
    n = clicks.n_trials
    pulse = (clicks.times // clicks.repetition_period).astype(np.int64)
    on_a = clicks.detectors == "A"
    a = np.bincount(pulse[on_a & (pulse < n)], minlength=n).astype(float)
    b = np.bincount(pulse[~on_a & (pulse < n)], minlength=n).astype(float)
    delays = np.arange(-max_delay, max_delay + 1)
    coincidences = np.array([a[:n - k] @ b[k:] if k >= 0 else a[-k:] @ b[:n + k]
                             for k in delays])
    rate = coincidences / (n - np.abs(delays))
    lo, hi = norm_range
    in_norm = (np.abs(delays) >= lo) & (np.abs(delays) <= hi)
    return delays, coincidences, rate / rate[in_norm].mean()


def g2_bins_match(result, coincidences, g2, tol=1e-12):
    require(np.array_equal(result.coincidence_counts, coincidences.astype(np.int64)),
            "coincidence counts differ from the benchmark's correlator")
    worst = float(np.max(np.abs(result.g2 - g2)))
    require(worst <= tol, f"g2 bins differ from the benchmark's correlator by {worst:.3g}")


def g2_zero_law(g2_zero, g2_zero_err, n_emitters, k=4.0):
    """g2(0) of n independent single-photon emitters is 1 - 1/n."""
    expected = 1.0 - 1.0 / n_emitters
    require(abs(g2_zero - expected) <= k * g2_zero_err,
            f"g2(0) = {g2_zero:.5f} +/- {g2_zero_err:.5f} is more than {k:g} sigma "
            f"from 1 - 1/{n_emitters} = {expected:.5f}")


def norm_bins_average_one(delays, g2, norm_range, tol=1e-12):
    lo, hi = norm_range
    in_norm = (np.abs(delays) >= lo) & (np.abs(delays) <= hi)
    mean = float(np.mean(g2[in_norm]))
    require(abs(mean - 1.0) <= tol, f"normalization bins average {mean!r}, not 1")


def side_peak_level(level, drift_std, tol=0.03):
    """Slow drift of relative std s raises the side peaks to 1 + s^2."""
    expected = 1.0 + drift_std ** 2
    require(abs(level - expected) <= tol,
            f"side-peak level {level:.4f} is not within {tol} of 1 + {drift_std}^2")
