"""Line-shape models, heuristic initializers, and the damped least-squares engine.

Independent oracles used here:
  * closed-form Lorentzian values at the peak, half-width points, and far
    tail (definitional),
  * the harmonic expansion of [cos^2]^n, whose revival peaks narrow with n,
  * scipy.optimize.curve_fit on identical data as a cross-check optimizer
    (the engine under test shares no code with it),
  * central differences of the model functions for the closed-form Jacobians,
  * binomial counting statistics for synthetic scan data at fixed seeds.
"""

import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import curve_fit

import rydpol.fitting as fitting
from rydpol.fitting import (
    FitError,
    ModelSpec,
    fit,
    lorentzian,
    lorentzian_spec,
    rabi_collective_model,
    rabi_collective_spec,
)
from rydpol.rng import philox_stream

T_PULSE = 0.150
SCAN_OMEGAS = np.linspace(0.5, 13.5, 40)
SCAN_SHOTS = 30 * 3334
SCAN_TRUTH = (0.0216, 3.0, 2.0, 3.0, 0.00065)


def synthetic_scan(seed, truth=SCAN_TRUTH, shots=SCAN_SHOTS):
    """Counting-noise realization of a collective-Rabi scan at a fixed seed."""
    p_true = rabi_collective_model(SCAN_OMEGAS, T_PULSE, *truth)
    rng = philox_stream(seed, 1)
    counts = rng.binomial(shots, p_true)
    y = counts / shots
    sigma = np.sqrt(np.maximum(y * (1 - y), 1e-12) / shots)
    return y, sigma


class TestLorentzian:
    def test_peak_value(self):
        assert lorentzian(1.7, 2.5, 1.7, 1.34, 0.3) == pytest.approx(0.3 + 2.5, rel=1e-12)

    def test_half_width_points(self):
        for sign in (-1.0, 1.0):
            value = lorentzian(1.7 + sign * 0.67, 2.5, 1.7, 1.34, 0.3)
            assert value == pytest.approx(0.3 + 1.25, rel=1e-12)

    def test_far_tail_is_offset(self):
        assert lorentzian(1e7, 2.5, 1.7, 1.34, 0.3) == pytest.approx(0.3, abs=1e-10)

    def test_vectorized(self):
        x = np.linspace(-3, 3, 11)
        values = lorentzian(x, 1.0, 0.0, 1.34, 0.0)
        assert values.shape == x.shape
        assert np.all(values > 0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_nonpositive_width(self, bad):
        with pytest.raises(ValueError, match="fwhm"):
            lorentzian(0.0, 1.0, 0.0, bad, 0.0)


class TestRabiCollectiveModel:
    def test_zero_frequency_limit(self):
        # tanh(0) = 0 leaves the pure decay branch: a*exp(0) + b = a + b.
        value = rabi_collective_model(0.0, T_PULSE, 1.2, 3.0, 2.0, 3.0, 0.1)
        assert value == pytest.approx(1.3, rel=1e-12)

    def test_revival_peaks_hit_envelope(self):
        # Where omega*t_pulse is an integer, the cos^2 factor is exactly 1,
        # so the model reduces to the envelope blend alone.
        a, n, w_env, w_dec, b = 1.2, 3.0, 2.0, 3.0, 0.1
        for k in (1, 2, 3):
            omega = k / T_PULSE
            env = math.tanh(omega / w_env)
            expected = a * env + (1 - env) * a * math.exp(-omega / w_dec) + b
            value = rabi_collective_model(omega, T_PULSE, a, n, w_env, w_dec, b)
            assert value == pytest.approx(expected, rel=1e-12)

    def test_non_integer_n_stays_finite(self):
        # Squaring before exponentiation keeps the base non-negative even
        # where the cosine itself is negative.
        omegas = np.linspace(0.0, 20.0, 401)
        values = rabi_collective_model(omegas, T_PULSE, 1.0, 2.7, 2.0, 3.0, 0.0)
        assert np.all(np.isfinite(values))

    def test_revival_sharpness_grows_with_n(self):
        # Numeric width scan of one revival peak: the half-maximum width of
        # the oscillatory factor narrows as n grows.
        def peak_width(n):
            center = 1.0 / T_PULSE
            omegas = np.linspace(center - 2.0, center + 2.0, 4001)
            osc = (np.cos(np.pi * omegas * T_PULSE) ** 2) ** n
            above = omegas[osc > 0.5]
            return above.max() - above.min()

        assert peak_width(3.0) < peak_width(1.0)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0.0}, {"n": -1.0}, {"omega_env": 0.0}, {"omega_decay": -2.0},
        {"t_pulse": -0.1}, {"n": math.nan},
    ])
    def test_rejects_invalid_parameters(self, kwargs):
        params = {"t_pulse": T_PULSE, "a": 1.0, "n": 3.0,
                  "omega_env": 2.0, "omega_decay": 3.0, "b": 0.0}
        params.update(kwargs)
        with pytest.raises(ValueError):
            rabi_collective_model(5.0, **params)


class TestModelSpec:
    def test_rejects_initial_outside_bounds(self):
        with pytest.raises(ValueError, match="within bounds"):
            ModelSpec(parameter_names=("a",),
                      function=lambda x, p: p[0] * x,
                      jacobian=lambda x, p: x[:, None],
                      initial=[3.0], lower=[0.0], upper=[2.0])

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            ModelSpec(parameter_names=("a", "a"),
                      function=lambda x, p: p[0] * x,
                      jacobian=lambda x, p: np.stack([x, 0 * x], axis=1),
                      initial=[1.0, 1.0], lower=[0.0, 0.0], upper=[2.0, 2.0])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="one entry per parameter"):
            ModelSpec(parameter_names=("a", "b"),
                      function=lambda x, p: p[0] * x + p[1],
                      jacobian=lambda x, p: np.stack([x, np.ones_like(x)], axis=1),
                      initial=[1.0], lower=[0.0, 0.0], upper=[2.0, 2.0])


class TestHeuristicInitializers:
    def test_lorentzian_moments_track_clean_peak(self):
        x = np.linspace(-3, 3, 61)
        y = lorentzian(x, 1.0, 0.4, 1.34, 0.05)
        spec = lorentzian_spec(x, y)
        init = dict(zip(spec.parameter_names, spec.initial))
        assert init["center"] == pytest.approx(0.4, abs=0.11)
        assert 0.5 * 1.34 < init["fwhm"] < 2.0 * 1.34
        assert 0.5 < init["amplitude"] < 1.5

    def test_lorentzian_scan_that_repeats_every_x(self):
        # a median spacing over repeated x would be 0 and seed a zero width
        x = np.repeat(np.linspace(-3.0, 5.0, 21), 2)
        y = lorentzian(x, 1.0, 0.3, 2.0, 0.1)
        spec = lorentzian_spec(x, y)
        distinct = lorentzian_spec(x[::2], y[::2])
        assert np.array_equal(spec.initial, distinct.initial)
        assert np.array_equal(spec.lower, distinct.lower)
        result = fit(spec, x, y, np.full(x.size, 0.01))
        assert result.status == "converged"
        np.testing.assert_allclose(result.parameters, [1.0, 0.3, 2.0, 0.1],
                                   rtol=1e-6, atol=1e-8)

    @pytest.mark.parametrize("x", [[1.0, 1.0, 1.0], [2.5, 2.5]])
    def test_lorentzian_needs_two_distinct_x(self, x):
        with pytest.raises(ValueError, match="at least 2 distinct values, got 1"):
            lorentzian_spec(x, np.arange(len(x), dtype=float))

    @pytest.mark.parametrize("x", [[1.0, 1.0, 1.0], [2.5, 2.5]])
    def test_rabi_collective_needs_two_distinct_x(self, x):
        # refused before the FFT seed, whose frequency grid would divide by zero
        with pytest.raises(ValueError, match="at least 2 distinct values, got 1"):
            rabi_collective_spec(T_PULSE, x, np.arange(len(x), dtype=float))

    def test_rabi_fft_finds_revival_period(self):
        y, _ = synthetic_scan(301)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        init = dict(zip(spec.parameter_names, spec.initial))
        # Dominant Fourier period of the revivals is 1/t_pulse = 6.67 MHz;
        # the seeded scales sit near half of that.
        assert 1.0 < init["omega_env"] < 6.0
        assert init["a"] > 0
        assert init["n"] > 0

    def test_rejects_unsorted_garbage(self):
        with pytest.raises(ValueError):
            lorentzian_spec([0.0], [1.0])
        with pytest.raises(ValueError):
            rabi_collective_spec(0.0, SCAN_OMEGAS, np.zeros(SCAN_OMEGAS.size))
        with pytest.raises(ValueError):
            lorentzian_spec(np.array([0.0, np.nan]), np.array([1.0, 2.0]))


def central_differences(spec, x, params, scales):
    """Central-difference columns of spec.function, parameter j stepped by 1e-5 * scales[j]."""
    columns = []
    for j, scale in enumerate(scales):
        step = 1e-5 * scale
        up, down = params.copy(), params.copy()
        up[j] += step
        down[j] -= step
        columns.append((spec.function(x, up) - spec.function(x, down)) / (2.0 * step))
    return np.stack(columns, axis=1)


def assert_columns_match(spec, x, params, scales, magnitude):
    # Rounding in the model, about eps * magnitude, over the step bounds
    # the reference's absolute error; its truncation error is far smaller.
    jac = spec.jacobian(x, params)
    reference = central_differences(spec, x, params, scales)
    assert jac.shape == (x.size, spec.n_parameters)
    assert np.all(np.isfinite(jac))
    tolerance = 1e-6 * np.abs(reference) + 1e-8 * magnitude / np.asarray(scales)
    assert np.all(np.abs(jac - reference) <= tolerance)


def log_uniform(low, high):
    # clipped, as 10 ** log10(high) can round past high
    return st.floats(math.log10(low), math.log10(high)).map(
        lambda e: min(max(10.0 ** e, low), high))


#: revival peaks and zeros (k + 1/2)/t of the scan pulse next to the scan drives
JACOBIAN_OMEGAS = np.sort(np.concatenate([
    SCAN_OMEGAS, np.arange(3) / T_PULSE, (np.arange(3) + 0.5) / T_PULSE]))


class TestJacobian:
    @given(st.floats(0.0, 10.0), st.floats(-5.0, 5.0), log_uniform(0.0215, 60.0),
           st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_lorentzian_columns_match_central_differences(self, amplitude, center, fwhm,
                                                          offset):
        x = np.linspace(-3, 3, 15)
        spec = lorentzian_spec(x, lorentzian(x, 1.0, 0.0, 1.34, 0.05))
        params = np.array([amplitude, center, fwhm, offset])
        assert np.all((params >= spec.lower) & (params <= spec.upper))
        assert_columns_match(spec, x, params, [max(amplitude, 1.0), fwhm, fwhm, 1.0],
                             amplitude + abs(offset) + 1.0)

    @given(st.floats(0.0, 1.0), log_uniform(1e-3, 50.0), log_uniform(1e-6, 1300.0),
           log_uniform(1e-6, 1300.0), st.floats(-0.1, 0.1))
    @settings(max_examples=200, deadline=None)
    def test_rabi_collective_columns_match_central_differences(self, a, n, omega_env,
                                                               omega_decay, b):
        y, _ = synthetic_scan(301)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        params = np.array([a, n, omega_env, omega_decay, b])
        assert np.all((params >= spec.lower) & (params <= spec.upper))
        assert_columns_match(spec, JACOBIAN_OMEGAS, params,
                             [1.0, n, omega_env, omega_decay, 1.0], a + abs(b) + 1.0)


class TestFitEngine:
    def test_zero_noise_exact_recovery(self):
        x = np.linspace(-3, 3, 15)
        truth = (1.0, 0.0, 1.34, 0.05)
        y = lorentzian(x, *truth)
        spec = lorentzian_spec(x, y)
        perturbed = spec.initial * np.array([1.3, 1.0, 0.7, 1.0]) + np.array(
            [0.0, 0.2, 0.0, 0.01])
        result = fit(replace(spec, initial=perturbed), x, y, np.full(x.size, 0.01))
        assert result.status == "converged"
        assert result.chi2 < 1e-12
        for got, want in zip(result.parameters, truth):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-9)

    def test_lorentzian_width_recovered_from_noisy_scan(self):
        # Noise at 5% of peak on 15 detunings across +/-3 MHz.  With this
        # noise model the Fisher width uncertainty is ~0.12 (cross-checked
        # against curve_fit), so the honest claims are calibrated error bars
        # (CI coverage), an unbiased mean, and a typical error at the
        # +/-0.08 scale.
        x = np.linspace(-3, 3, 15)
        y0 = lorentzian(x, 1.0, 0.0, 1.34, 0.05)
        fitted, sigma_hat, covered = [], [], 0
        for rep in range(20):
            rng = philox_stream(7100 + rep, 1)
            y = y0 + rng.normal(0.0, 0.05, size=x.size)
            result = fit(lorentzian_spec(x, y), x, y, np.full(x.size, 0.05))
            width, err = result.as_dict()["fwhm"], result.uncertainty_dict()["fwhm"]
            fitted.append(width)
            sigma_hat.append(err)
            if abs(width - 1.34) <= 1.96 * err:
                covered += 1
        fitted = np.asarray(fitted)
        assert covered >= 17
        assert abs(fitted.mean() - 1.34) < 0.06
        assert np.median(np.abs(fitted - 1.34)) < 0.12
        assert 0.05 < np.mean(sigma_hat) < 0.20

    def test_collective_n_recovered_from_counting_noise(self):
        hits = 0
        for rep in range(10):
            y, sigma = synthetic_scan(9000 + rep)
            spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
            result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
            if 2.6 <= result.as_dict()["n"] <= 3.4:
                hits += 1
        assert hits >= 9

    def test_matches_curve_fit_optimum(self):
        # Independent optimizer on identical data and model must land on the
        # same local minimum with matching rescaled uncertainties.
        y, sigma = synthetic_scan(9100)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)

        def model(w, a, n, w_env, w_dec, b):
            return rabi_collective_model(w, T_PULSE, a, n, w_env, w_dec, b)

        popt, pcov = curve_fit(model, SCAN_OMEGAS, y, p0=spec.initial,
                               sigma=sigma, absolute_sigma=False, maxfev=20000)
        assert np.allclose(result.parameters, popt, rtol=5e-4, atol=1e-7)
        assert np.allclose(result.uncertainties, np.sqrt(np.diag(pcov)),
                           rtol=0.02, atol=1e-9)

    def test_sigma_rescaling_leaves_optimum_fixed(self):
        # Scaling every sigma by a common factor rescales residuals
        # uniformly, so the argmin is untouched, the covariance picks up the
        # factor squared, and the chi2-normalized uncertainties are unchanged.
        y, sigma = synthetic_scan(9200)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        base = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        scaled = fit(spec, SCAN_OMEGAS, y, 5.0 * sigma, max_iterations=400)
        assert np.allclose(scaled.parameters, base.parameters, rtol=1e-8)
        assert np.allclose(scaled.covariance, 25.0 * base.covariance, rtol=1e-6)
        assert np.allclose(scaled.uncertainties, base.uncertainties, rtol=1e-6)
        assert scaled.chi2 == pytest.approx(base.chi2 / 25.0, rel=1e-8)

    def test_cost_never_exceeds_initial(self):
        # Accepted steps are strictly decreasing, so the returned optimum can
        # never cost more than the starting point.
        y, sigma = synthetic_scan(9300)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)

        def chi2_at(params):
            res = (y - spec.function(SCAN_OMEGAS, params)) / sigma
            return float(res @ res)

        for rep in range(5):
            rng = philox_stream(9400 + rep, 1)
            start = spec.initial * rng.uniform(0.6, 1.6, size=spec.initial.size)
            start = np.minimum(np.maximum(start, spec.lower), spec.upper)
            result = fit(replace(spec, initial=start), SCAN_OMEGAS, y, sigma,
                         max_iterations=400)
            assert result.chi2 <= chi2_at(start) + 1e-12

    def test_converged_gradient_below_tolerance(self):
        y, sigma = synthetic_scan(9500)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        assert result.status == "converged"
        assert result.gradient_norm < 1e-8 * (1.0 + result.chi2)

    def test_covariance_positive_semidefinite(self):
        y, sigma = synthetic_scan(9600)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        eigenvalues = np.linalg.eigvalsh(result.covariance)
        assert eigenvalues.min() > -1e-12 * max(eigenvalues.max(), 1.0)

    def test_iteration_cap_returns_best_so_far(self):
        y, sigma = synthetic_scan(9700)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        capped = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=2)
        assert capped.status == "max_iterations"
        assert capped.iterations == 2
        assert np.all(np.isfinite(capped.parameters))
        full = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        assert full.chi2 <= capped.chi2

    def test_input_validation(self):
        y, sigma = synthetic_scan(9800)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        with pytest.raises(ValueError, match="sigma"):
            fit(spec, SCAN_OMEGAS, y, -sigma)
        with pytest.raises(ValueError, match="sigma"):
            fit(spec, SCAN_OMEGAS, y, sigma[:-1])
        with pytest.raises(ValueError, match="at least"):
            fit(spec, SCAN_OMEGAS[:3], y[:3], sigma[:3])
        with pytest.raises(ValueError, match="bounds"):
            replace(spec, initial=np.array([1.0, -5.0, 2.0, 3.0, 0.0]))

    @pytest.mark.parametrize("bad", [-1, -5, 2.0, True, None])
    def test_max_iterations_must_be_a_non_negative_integer(self, bad):
        y, sigma = synthetic_scan(9800)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        with pytest.raises(ValueError, match="max_iterations"):
            fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=bad)

    def test_zero_iterations_return_the_initial_point(self):
        y, sigma = synthetic_scan(9800)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=np.int64(0))
        assert result.iterations == 0
        assert result.status == "max_iterations"
        assert result.parameters.tobytes() == spec.initial.tobytes()

    def test_optimum_on_a_bound_converges(self):
        # A Lorentzian 100 times wider than the spec allows: the best fit
        # holds fwhm at its upper bound (10 x span) and must still report
        # convergence, with the gradient of the free parameters vanishing.
        x = np.linspace(-3, 3, 15)
        y = lorentzian(x, 1.0, 0.2, 600.0, 0.05)
        spec = lorentzian_spec(x, y)
        result = fit(spec, x, y, np.full(x.size, 0.01))
        assert result.status == "converged"
        assert result.as_dict()["fwhm"] == spec.upper[2]
        assert result.gradient_norm < 1e-8 * (1.0 + result.chi2)

    def test_parameter_held_at_a_bound_has_no_uncertainty(self):
        # the fit above: fwhm is held at its upper bound, and the data do not
        # determine it there
        x = np.linspace(-3, 3, 15)
        y = lorentzian(x, 1.0, 0.2, 600.0, 0.05)
        sigma = np.full(x.size, 0.01)
        spec = lorentzian_spec(x, y)
        result = fit(spec, x, y, sigma)
        assert result.as_dict()["fwhm"] == spec.upper[2]
        assert np.isnan(result.uncertainties[2])
        assert result.uncertainty_dict()["fwhm"] is None
        assert np.all(np.isnan(result.covariance[2])) and np.all(np.isnan(result.covariance[:, 2]))
        # the free parameters' covariance is the inverse curvature of their own columns
        free = [0, 1, 3]
        jac = spec.jacobian(x, result.parameters)[:, free] / sigma[:, None]
        expected = np.linalg.inv(jac.T @ jac)
        assert np.allclose(result.covariance[np.ix_(free, free)], expected, rtol=1e-6)
        errors = np.sqrt(np.diag(expected) * (result.chi2 / (x.size - 4)))
        assert np.allclose(result.uncertainties[free], errors, rtol=1e-6)
        assert [result.uncertainty_dict()[name] for name in ("amplitude", "center", "offset")] \
            == result.uncertainties[free].tolist()

    @pytest.mark.parametrize("seed", [9000, 9001, 9002, 9100, 9500])
    def test_fit_holding_nothing_quotes_the_full_inverse_curvature(self, seed):
        # bit for bit the covariance of every column at the optimum
        y, sigma = synthetic_scan(seed)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        assert np.all((result.parameters > spec.lower) & (result.parameters < spec.upper))
        jac = -spec.jacobian(SCAN_OMEGAS, result.parameters) / sigma[:, None]
        covariance = np.linalg.pinv(jac.T @ jac, hermitian=True)
        covariance = 0.5 * (covariance + covariance.T)
        errors = np.sqrt(np.maximum(np.diag(covariance), 0.0)
                         * (result.chi2 / (SCAN_OMEGAS.size - 5)))
        assert result.covariance.tobytes() == covariance.tobytes()
        assert result.uncertainties.tobytes() == errors.tobytes()

    @pytest.mark.parametrize("seed", [9000, 9001, 9002, 9100, 9500])
    def test_fit_inside_bounds_is_unchanged_by_the_projection(self, seed):
        # With no parameter at a bound, holding none is the unprojected LM:
        # parameters and iterations agree bit for bit.
        y, sigma = synthetic_scan(seed)
        spec = rabi_collective_spec(T_PULSE, SCAN_OMEGAS, y)
        result = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        assert np.all((result.parameters > spec.lower) & (result.parameters < spec.upper))

        def all_free(jac, residual, params, spec):
            return np.ones(params.size, dtype=bool)

        with patch.object(fitting, "_free_parameters", all_free):
            unprojected = fit(spec, SCAN_OMEGAS, y, sigma, max_iterations=400)
        assert result.parameters.tobytes() == unprojected.parameters.tobytes()
        assert result.iterations == unprojected.iterations
        assert result.status == unprojected.status == "converged"

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_status_contract(self, seed):
        rng = np.random.default_rng(seed)
        x = np.linspace(-3, 3, 15)
        y = lorentzian(x, 1.0, 0.0, 1.34, 0.05) + rng.normal(0, 0.03, x.size)
        result = fit(lorentzian_spec(x, y), x, y, np.full(x.size, 0.03),
                     max_iterations=60)
        assert result.status in ("converged", "max_iterations")
        if result.status == "converged":
            assert result.gradient_norm < 1e-8 * (1.0 + result.chi2)
        assert result.rss >= 0.0
