"""Damped nonlinear least-squares fitting and the analysis line-shape models.

Two models cover the analysis pipeline: a four-parameter Lorentzian for
bandwidth extraction from scanning measurements, and the collective Rabi
curve for pulse-area scans of a stored register — sharpened revivals
``[cos^2(pi*omega*t)]^N`` blended with a tanh turn-on envelope and an
exponential decay that takes over at low drive frequencies.

Each model comes with its closed-form Jacobian columns, so a fit calls
the model once per trial step and the Jacobian once per accepted step.
The minimizer is a self-contained Levenberg-Marquardt loop with Marquardt
diagonal scaling and strictly monotone accepted steps.  A parameter at a
bound that descent would push past it is held there: steps and the
convergence test cover only the free parameters.  Convergence is declared
when the norm of the cost gradient, measured in the inverse-curvature
metric of the Gauss-Newton Hessian (square root of twice the cost decrease
available to a full Gauss-Newton step — an affine-invariant gradient norm
that is immune to the parameter and sigma scales), drops below
``1e-8 * (1 + cost)``; hitting the iteration cap returns the best
parameters seen with a non-converged status.  Parameter covariance is the
inverse of the Gauss-Newton curvature ``J^T J`` of the free parameters at
the optimum, and the quoted 1-sigma uncertainties carry the reduced chi^2
factor as well, the usual convention when the supplied sigmas are only
relative.  A parameter held at a bound has no uncertainty: its row and
column of the covariance and its uncertainty are NaN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "FitError",
    "FitResult",
    "ModelSpec",
    "fit",
    "lorentzian",
    "lorentzian_spec",
    "rabi_collective_model",
    "rabi_collective_spec",
]

GRADIENT_TOLERANCE = 1e-8


class FitError(RuntimeError):
    """Raised when a fit cannot proceed (singular curvature, bad inputs)."""


# --------------------------------------------------------------------------
# Models

def lorentzian(x, amplitude, center, fwhm, offset):
    """Lorentzian peak: offset + amplitude*(fwhm/2)^2/((x-center)^2+(fwhm/2)^2).

    At ``x = center`` the value is ``offset + amplitude``; at
    ``x = center +/- fwhm/2`` it is ``offset + amplitude/2``.
    """
    if not (math.isfinite(fwhm) and fwhm > 0):
        raise ValueError(f"fwhm must be a positive width, got {fwhm!r}")
    x = np.asarray(x, dtype=float)
    half = 0.5 * fwhm
    return offset + amplitude * half * half / ((x - center) ** 2 + half * half)


def _lorentzian_jacobian(x, amplitude, center, fwhm, offset):
    """Columns d lorentzian / d(amplitude, center, fwhm, offset) at x."""
    half = 0.5 * fwhm
    u = x - center
    d = u * u + half * half
    s = half * half / d
    return np.stack([s, 2.0 * amplitude * s * u / d,
                     amplitude * s * (1.0 - s) / half, np.ones_like(s)], axis=1)


def rabi_collective_model(omega, t_pulse, a, n, omega_env, omega_decay, b):
    """Collective Rabi scan: revivals, tanh envelope, low-frequency decay.

    ``a*tanh(w/omega_env)*[cos^2(pi*w*t)]^n
    + (1 - tanh(w/omega_env))*a*exp(-w/omega_decay) + b``

    ``omega`` is the drive frequency in MHz (ordinary-frequency convention,
    so ``pi*omega*t_pulse`` is half the pulse area) and ``t_pulse`` is the
    fixed pulse duration in microseconds.  ``n`` is the register size that
    sharpens each revival; non-integer values are allowed, so the squared
    cosine is computed before exponentiation to keep the base non-negative.
    """
    if not (math.isfinite(t_pulse) and t_pulse >= 0):
        raise ValueError(f"t_pulse must be a non-negative duration, got {t_pulse!r}")
    if not (math.isfinite(n) and n > 0):
        raise ValueError(f"n must be a positive register size, got {n!r}")
    if not (math.isfinite(omega_env) and omega_env > 0):
        raise ValueError(f"omega_env must be a positive scale, got {omega_env!r}")
    if not (math.isfinite(omega_decay) and omega_decay > 0):
        raise ValueError(f"omega_decay must be a positive scale, got {omega_decay!r}")
    omega = np.asarray(omega, dtype=float)
    envelope = np.tanh(omega / omega_env)
    revivals = (np.cos(np.pi * omega * t_pulse) ** 2) ** n
    return a * envelope * revivals + (1.0 - envelope) * a * np.exp(-omega / omega_decay) + b


def _rabi_collective_jacobian(omega, t_pulse, a, n, omega_env, omega_decay, b):
    """Columns d rabi_collective_model / d(a, n, omega_env, omega_decay, b).

    The n column ``a*tanh*(cos^2)^n*ln(cos^2)`` is 0, its limit, where cos^2 = 0.
    """
    envelope = np.tanh(omega / omega_env)
    squared = np.cos(np.pi * omega * t_pulse) ** 2
    revivals = squared ** n
    decay = np.exp(-omega / omega_decay)
    log_squared = np.log(np.where(squared > 0.0, squared, 1.0))
    return np.stack([
        envelope * revivals + (1.0 - envelope) * decay,
        a * envelope * revivals * log_squared,
        -a * (revivals - decay) * (1.0 - envelope ** 2) * omega / omega_env ** 2,
        (1.0 - envelope) * a * decay * omega / omega_decay ** 2,
        np.ones_like(omega),
    ], axis=1)


# --------------------------------------------------------------------------
# Model specifications with heuristic initializers

@dataclass(frozen=True)
class ModelSpec:
    """Model function(x, p), its Jacobian columns, names, initial values, bounds."""

    parameter_names: tuple
    function: Callable = field(repr=False)
    jacobian: Callable = field(repr=False)
    initial: np.ndarray = field(repr=False)
    lower: np.ndarray = field(repr=False)
    upper: np.ndarray = field(repr=False)

    def __post_init__(self):
        names = tuple(self.parameter_names)
        if len(set(names)) != len(names) or not names:
            raise ValueError("parameter_names must be non-empty and unique")
        object.__setattr__(self, "parameter_names", names)
        for attr in ("initial", "lower", "upper"):
            value = np.asarray(getattr(self, attr), dtype=float)
            if value.shape != (len(names),):
                raise ValueError(
                    f"{attr} must have one entry per parameter, got shape {value.shape}")
            object.__setattr__(self, attr, value)
        if not np.all(np.isfinite(self.initial)):
            raise ValueError("initial values must be finite")
        if np.any(self.lower >= self.upper):
            raise ValueError("lower bounds must be strictly below upper bounds")
        if np.any(self.initial < self.lower) or np.any(self.initial > self.upper):
            raise ValueError("initial values must lie within bounds")

    @property
    def n_parameters(self):
        return len(self.parameter_names)


def _validated_xy(x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size < 2:
        raise ValueError("x and y must be equal-length 1-d arrays with >= 2 points")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("x and y must be finite")
    return x, y


def _validated_scan(x, y):
    """(x, y, distinct x) of a scan that a spec can seed from: 2 or more distinct x."""
    x, y = _validated_xy(x, y)
    distinct = np.unique(x)
    if distinct.size < 2:
        raise ValueError(f"x must hold at least 2 distinct values, got {distinct.size}")
    return x, y, distinct


def lorentzian_spec(x, y):
    """Lorentzian ModelSpec with moment-based initial values from (x, y).

    Offset from the lower quartile of the data, amplitude from the peak
    above it, center at the peak abscissa, and width from the distinct x
    values with a sample above half maximum, times their median spacing.
    """
    x, y, distinct = _validated_scan(x, y)
    offset0 = float(np.quantile(y, 0.25))
    amplitude0 = float(y.max() - offset0)
    if amplitude0 <= 0:
        amplitude0 = max(float(np.ptp(y)), 1e-12)
    center0 = float(x[np.argmax(y)])
    span = float(x.max() - x.min())
    spacing = float(np.median(np.diff(distinct)))
    above_half = np.unique(x[y > offset0 + 0.5 * amplitude0]).size
    fwhm0 = min(max(above_half * spacing, 2.0 * spacing), span)
    return ModelSpec(
        parameter_names=("amplitude", "center", "fwhm", "offset"),
        function=lambda xx, p: lorentzian(xx, p[0], p[1], p[2], p[3]),
        jacobian=lambda xx, p: _lorentzian_jacobian(xx, p[0], p[1], p[2], p[3]),
        initial=np.array([amplitude0, center0, fwhm0, offset0]),
        lower=np.array([0.0, x.min() - span, 0.05 * spacing, -np.inf]),
        upper=np.array([np.inf, x.max() + span, 10.0 * span, np.inf]),
    )


def rabi_collective_spec(t_pulse, x, y):
    """Collective-Rabi ModelSpec with FFT-seeded initial values from (x, y).

    The dominant non-zero Fourier frequency of the scan (after resampling
    onto a uniform grid) estimates the revival period, which seeds the
    envelope and decay scales; amplitude and baseline come from the data
    range, and the register size starts at 2.
    """
    if not (math.isfinite(t_pulse) and t_pulse > 0):
        raise ValueError(f"t_pulse must be a positive duration, got {t_pulse!r}")
    x, y, _ = _validated_scan(x, y)
    order = np.argsort(x)
    xs, ys = x[order], y[order]
    uniform = np.linspace(xs[0], xs[-1], xs.size)
    resampled = np.interp(uniform, xs, ys)
    spectrum = np.abs(np.fft.rfft(resampled - resampled.mean()))
    freqs = np.fft.rfftfreq(uniform.size, d=uniform[1] - uniform[0])
    span = float(xs[-1] - xs[0])
    if spectrum.size > 1 and freqs[1 + np.argmax(spectrum[1:])] > 0:
        period = 1.0 / float(freqs[1 + np.argmax(spectrum[1:])])
    else:
        period = span / 4.0
    scale0 = min(max(0.5 * period, 1e-3 * span), span)
    b0 = float(y.min())
    a0 = max(float(np.ptp(y)), 1e-12)
    return ModelSpec(
        parameter_names=("a", "n", "omega_env", "omega_decay", "b"),
        function=lambda xx, p: rabi_collective_model(xx, t_pulse, p[0], p[1],
                                                     p[2], p[3], p[4]),
        jacobian=lambda xx, p: _rabi_collective_jacobian(xx, t_pulse, p[0], p[1],
                                                         p[2], p[3], p[4]),
        initial=np.array([a0, 2.0, scale0, scale0, b0]),
        lower=np.array([0.0, 1e-3, 1e-6, 1e-6, -np.inf]),
        upper=np.array([np.inf, 50.0, 100.0 * span, 100.0 * span, np.inf]),
    )


# --------------------------------------------------------------------------
# Levenberg-Marquardt engine

@dataclass(frozen=True)
class FitResult:
    """Optimum of a damped least-squares fit with quadratic-approximation errors."""

    parameters: np.ndarray
    uncertainties: np.ndarray
    covariance: np.ndarray
    rss: float
    chi2: float
    status: str
    iterations: int
    gradient_norm: float
    parameter_names: tuple

    def as_dict(self):
        return {name: float(value)
                for name, value in zip(self.parameter_names, self.parameters)}

    def uncertainty_dict(self):
        """Uncertainty per parameter; None for one held at a bound, which has none."""
        return {name: None if math.isnan(value) else float(value)
                for name, value in zip(self.parameter_names, self.uncertainties)}


def _clip_to_bounds(params, spec):
    return np.minimum(np.maximum(params, spec.lower), spec.upper)


def _free_parameters(jac, residual, params, spec):
    """Mask of the parameters a descent step can move.

    A parameter at a bound whose descent direction ``-g_k`` (``g = 2 J^T r``)
    points out of the box is held there; every other parameter is free.
    """
    gradient = 2.0 * (jac.T @ residual)
    return ~(((params <= spec.lower) & (gradient > 0.0))
             | ((params >= spec.upper) & (gradient < 0.0)))


def _free_columns(jac, free):
    """The columns of jac of the free parameters.

    jac itself when all are free, so that a fit holding no parameter runs
    bit for bit the arithmetic of the unprojected method.
    """
    return jac if free.all() else jac[:, free]


def _metric_gradient_norm(jac, residual):
    """Cost-gradient norm in the inverse Gauss-Newton curvature metric.

    ``sqrt(g^T (J^T J)^+ g)`` with ``g = 2 J^T r`` — affine-invariant, so
    the convergence test does not depend on how the parameters or sigmas
    are scaled, and it vanishes on the machine-precision cost plateau where
    the raw gradient components cannot cancel any further.
    """
    gradient = 2.0 * (jac.T @ residual)
    curvature = np.linalg.pinv(jac.T @ jac, hermitian=True)
    return float(math.sqrt(max(gradient @ (curvature @ gradient), 0.0)))


def fit(spec, x, y, sigma, max_iterations=200):
    """Minimize sum(((y - f(x)) / sigma)^2) with Levenberg-Marquardt.

    Starts from ``spec.initial``.  Steps solve
    ``(J^T J + lam*diag(J^T J)) delta = -J^T r`` over the free
    parameters (a parameter at a bound that descent would push past it is
    held there) and are accepted only if the cost strictly decreases;
    rejected steps raise the damping.  A singular normal matrix triggers
    damped retries and, if damping alone cannot produce a usable step, a
    FitError.  Returns a FitResult whose
    status is "converged" when the curvature-metric norm of the cost
    gradient over the free parameters falls below ``1e-8 * (1 + cost)``
    and "max_iterations" (best parameters so far) otherwise; max_iterations
    = 0 returns the initial point.
    """
    if (isinstance(max_iterations, bool)
            or not isinstance(max_iterations, (int, np.integer)) or max_iterations < 0):
        raise ValueError(
            f"max_iterations must be a non-negative integer, got {max_iterations!r}")
    x, y = _validated_xy(x, y)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != y.shape:
        raise ValueError("sigma must match the shape of y")
    if not np.all(np.isfinite(sigma)) or np.any(sigma <= 0):
        raise ValueError("sigma must be finite and positive")
    if x.size < spec.n_parameters:
        raise ValueError(
            f"need at least {spec.n_parameters} points to fit "
            f"{spec.n_parameters} parameters, got {x.size}")

    params = spec.initial.copy()

    def residuals(p):
        return (y - np.asarray(spec.function(x, p), dtype=float)) / sigma

    current = residuals(params)
    if not np.all(np.isfinite(current)):
        raise FitError("model is not finite at the initial parameters")
    cost = float(current @ current)
    lam = 1e-3
    status = "max_iterations"
    iterations = 0
    jac = -spec.jacobian(x, params) / sigma[:, None]
    free = _free_parameters(jac, current, params, spec)
    gradient_norm = _metric_gradient_norm(_free_columns(jac, free), current)

    for iterations in range(1, max_iterations + 1):
        if gradient_norm < GRADIENT_TOLERANCE * (1.0 + cost):
            status = "converged"
            iterations -= 1
            break
        active = _free_columns(jac, free)
        normal = active.T @ active
        diag = np.diag(normal).copy()
        diag[diag <= 0] = 1.0
        delta = None
        for _ in range(16):
            try:
                step = np.linalg.solve(normal + lam * np.diag(diag),
                                       -(active.T @ current))
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            if np.all(np.isfinite(step)):
                delta = np.zeros_like(params)
                delta[free] = step
                break
            lam *= 10.0
        if delta is None:
            raise FitError("singular normal matrix: damped retries exhausted")

        trial = _clip_to_bounds(params + delta, spec)
        trial_res = residuals(trial)
        trial_cost = float(trial_res @ trial_res) if np.all(np.isfinite(trial_res)) \
            else np.inf
        if trial_cost < cost:
            params, current, cost = trial, trial_res, trial_cost
            lam = max(lam / 3.0, 1e-12)
            jac = -spec.jacobian(x, params) / sigma[:, None]
            free = _free_parameters(jac, current, params, spec)
            gradient_norm = _metric_gradient_norm(_free_columns(jac, free), current)
        else:
            lam *= 10.0
            if lam > 1e15:
                break
    else:
        iterations = max_iterations

    if gradient_norm < GRADIENT_TOLERANCE * (1.0 + cost):
        status = "converged"

    # the covariance of the free parameters; a held one has none (NaN)
    active = _free_columns(jac, free)
    covariance = np.linalg.pinv(active.T @ active, hermitian=True)
    covariance = 0.5 * (covariance + covariance.T)
    if not free.all():
        held = np.full((free.size, free.size), np.nan)
        held[np.ix_(free, free)] = covariance
        covariance = held
    dof = max(x.size - spec.n_parameters, 1)
    chi2_reduced = cost / dof
    uncertainties = np.sqrt(np.maximum(np.diag(covariance), 0.0) * chi2_reduced)
    unweighted = y - np.asarray(spec.function(x, params), dtype=float)
    return FitResult(
        parameters=params,
        uncertainties=uncertainties,
        covariance=covariance,
        rss=float(unweighted @ unweighted),
        chi2=cost,
        status=status,
        iterations=iterations,
        gradient_norm=gradient_norm,
        parameter_names=spec.parameter_names,
    )
