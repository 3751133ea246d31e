"""Collective spin rotations of a polariton register.

A register of N polaritons driven symmetrically by the microwave field is a
pseudo-spin J = N/2. Rotations are evaluated through Wigner reduced rotation
matrix elements d^j_{m',m}(theta) in the exp(-i*theta*J_y) convention, computed
from the closed-form terminating series. The collective retrieval law

    P(theta) = [cos^2(theta/2)]^N = |d^{N/2}_{-N/2,-N/2}(theta)|^2

is the register-level consequence.

Half-integer quantum numbers are represented exactly as twice-value integers
internally so no floating-point identity tests are needed; factorials are
evaluated in log space, which keeps j up to ~50 finite.
"""

from __future__ import annotations

import math

import numpy as np


def _twice(value, name):
    """Exact twice-value integer of a (half-)integer quantum number."""
    doubled = 2.0 * value
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise ValueError(f"{name} must be integer or half-integer, got {value!r}")
    return int(rounded)


def wigner_d(j, m_prime, m, theta):
    """Reduced rotation matrix element d^j_{m',m}(theta) = <m'|exp(-i theta J_y)|m>.

    Evaluated as the closed-form terminating series with the tangent power
    folded into the trigonometric prefactor, which stays finite at theta = pi
    where the bare 2F1 argument -tan^2(theta/2) diverges. theta must be finite.
    """
    tj = _twice(j, "j")
    tmp = _twice(m_prime, "m_prime")
    tm = _twice(m, "m")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    if tj < 0:
        raise ValueError(f"j must be non-negative, got {j!r}")
    for label, tval in (("m_prime", tmp), ("m", tm)):
        if abs(tval) > tj:
            raise ValueError(f"|{label}| must not exceed j (j={j!r})")
        if (tj - tval) % 2:
            raise ValueError(f"{label} must differ from j by an integer (j={j!r})")

    # integer combinations (all guaranteed integral by the checks above)
    jpm = (tj + tm) // 2    # j + m
    jmm = (tj - tm) // 2    # j - m
    jpmp = (tj + tmp) // 2  # j + m'
    jmmp = (tj - tmp) // 2  # j - m'
    mu = (tmp - tm) // 2    # m' - m

    half = 0.5 * theta
    c, s = math.cos(half), math.sin(half)
    log_norm = 0.5 * (math.lgamma(jpm + 1) + math.lgamma(jmm + 1)
                      + math.lgamma(jpmp + 1) + math.lgamma(jmmp + 1))

    total = 0.0
    for k in range(max(0, -mu), min(jpm, jmmp) + 1):
        cos_pow = tj - mu - 2 * k  # 2j + m - m' - 2k
        sin_pow = mu + 2 * k
        # cos/sin zeros kill the term unless the exponent vanishes
        if c == 0.0 and cos_pow != 0:
            continue
        if s == 0.0 and sin_pow != 0:
            continue
        log_mag = (log_norm
                   - math.lgamma(jpm - k + 1) - math.lgamma(k + 1)
                   - math.lgamma(jmmp - k + 1) - math.lgamma(mu + k + 1)
                   + cos_pow * (math.log(abs(c)) if cos_pow else 0.0)
                   + sin_pow * (math.log(abs(s)) if sin_pow else 0.0))
        sign = (-1.0) ** (mu + k)
        if c < 0.0 and cos_pow % 2:
            sign = -sign
        if s < 0.0 and sin_pow % 2:
            sign = -sign
        total += sign * math.exp(log_mag)
    return total


def wigner_d_matrix(j, theta):
    """Full (2j+1) x (2j+1) reduced rotation matrix, m ascending from -j to +j."""
    tj = _twice(j, "j")
    dim = tj + 1
    out = np.empty((dim, dim))
    m_values = [(-tj + 2 * i) / 2.0 for i in range(dim)]
    for ip, mp in enumerate(m_values):
        for im, m in enumerate(m_values):
            out[ip, im] = wigner_d(j, mp, m, theta)
    return out


def retrieval_probability(n_polaritons, theta):
    """Collective retrieval law [cos^2(theta/2)]^N for N stored polaritons.

    theta may be a scalar or array (radians) and must be finite. N = 0
    returns 1: with nothing stored the phase-matched mode is trivially
    unperturbed.
    """
    if not (isinstance(n_polaritons, (int, np.integer)) and n_polaritons >= 0):
        raise ValueError(f"n_polaritons must be a non-negative integer, got {n_polaritons!r}")
    theta = np.asarray(theta, dtype=float)
    bad = theta[~np.isfinite(theta)]
    if bad.size:
        raise ValueError(f"theta must be finite, got {bad[0]}")
    prob = np.cos(theta / 2.0) ** (2 * int(n_polaritons))
    return prob if prob.ndim else float(prob)
