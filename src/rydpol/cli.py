"""Command-line entry point: every pipeline stage with reproducible artifacts.

Each subcommand writes its declared JSON/CSV artifacts plus a
``manifest.json`` recording the subcommand, the fully resolved experiment
configuration, the seed, the toolkit version, and a sha256 checksum per
artifact — re-running the same invocation reproduces every byte.  Scalar
results go to JSON, curves to CSV with a one-line header naming columns and
units.  Exit codes: 0 success, 2 usage error, 1 computation error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import re
import sys
from importlib.resources import files as resource_files

import numpy as np

from . import __version__
from .collective import retrieval_probability
from .config import (
    ConfigError,
    ExperimentConfig,
    RB60_PAIR,
    microwave_blockade_radius,
    optical_blockade_radius,
)
from .fitting import FitError, fit, lorentzian_spec, rabi_collective_spec
from .interactions import pair_eigenscan
from .montecarlo import (EMITTER_DETECTION_PROB, DriftSpec, _NORM_RANGE, run_shots,
                         simulate_hbt_run, simulate_rabi_scan)
from .structure import (
    QuantumDefectModel,
    REFERENCE_ANGULAR_FACTOR,
    binding_energy,
    numerov_wavefunction,
    radial_matrix_element,
    transition_frequency,
)

_L_FROM_LETTER = {"s": 0, "p": 1, "d": 2, "f": 3}
_STATE_TOKEN = re.compile(r"^(\d+)([spdf])(?:(\d)/2)?$")


# --------------------------------------------------------------------------
# Config resolution and artifact plumbing

def _resolve_config(args):
    """--config flag, then RYDPOL_CONFIG, then the packaged defaults."""
    path = getattr(args, "config", None) or os.environ.get("RYDPOL_CONFIG")
    if path:
        return ExperimentConfig.from_json(path)
    packaged = resource_files("rydpol.data").joinpath("default_config.json")
    return ExperimentConfig.from_dict(json.loads(packaged.read_text()))


def _json_text(payload):
    """Strict JSON: a NaN or infinity raises ValueError rather than being written."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _csv_text(header, rows):
    """Strict CSV: a NaN or infinite cell raises ValueError rather than being written."""
    lines = [header]
    for row in rows:
        lines.append(",".join(_format_cell(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _format_cell(cell):
    if isinstance(cell, (int, np.integer)):
        return str(int(cell))
    value = float(cell)
    if not math.isfinite(value):
        raise ValueError(f"refusing to write a non-finite CSV cell ({value})")
    return format(value, ".12g")


def _emit(args, config, artifacts, seed=None):
    """Write artifacts plus the manifest; returns 0."""
    out_dir = args.output_dir
    os.makedirs(out_dir, exist_ok=True)
    checksums = {}
    for name, text in artifacts.items():
        data = text.encode("utf-8")
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(data)
        checksums[name] = hashlib.sha256(data).hexdigest()
    manifest = {
        "subcommand": args.subcommand,
        "config": config.to_dict(),
        "seed": seed,
        "version": __version__,
        "artifacts": checksums,
    }
    text = _json_text(manifest)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


def _parse_state(token):
    """'60s1/2' or '59p3/2' (bare '60s' takes j = l + 1/2) -> (n, l, j)."""
    match = _STATE_TOKEN.match(token.strip().lower())
    if not match:
        raise ValueError(
            f"cannot parse state {token!r}; expected forms like 60s1/2 or 59p3/2")
    n = int(match.group(1))
    l = _L_FROM_LETTER[match.group(2)]
    j = int(match.group(3)) / 2.0 if match.group(3) else l + 0.5
    if abs(j - l) != 0.5:
        raise ValueError(f"state {token!r} has j = {j}, need j = l +/- 1/2")
    return n, l, j


def _pulse_us(args, config, positive=False):
    """--pulse-ns in us, checked in ns first so that a refusal names the flag."""
    pulse, storage = args.pulse_ns, config.storage_time * 1e3
    # NaN fails every comparison
    if not ((pulse > 0 if positive else pulse >= 0) and pulse <= storage):
        raise ValueError(f"--pulse-ns must lie in the storage interval "
                         f"{'(' if positive else '['}0, {storage:g}] ns, got {pulse:g}")
    return pulse * 1e-3


# --------------------------------------------------------------------------
# Subcommands

def _cmd_radius(args, config):
    eit_width = args.eit_width if args.eit_width is not None else config.eit_width
    payload = {"r_o_um": optical_blockade_radius(args.c6, eit_width)}
    if args.omega_mu is not None:
        payload["r_mu_um"] = microwave_blockade_radius(args.c3, args.omega_mu)
    return _emit(args, config, {"radius.json": _json_text(payload)})


def _cmd_structure(args, config):
    upper = _parse_state(args.upper)
    lower = _parse_state(args.lower)
    model = QuantumDefectModel()
    wf_upper = numerov_wavefunction(model, *upper)
    wf_lower = numerov_wavefunction(model, *lower)
    radial = radial_matrix_element(wf_upper, wf_lower)
    payload = {
        "energy_ghz": binding_energy(model, *upper),
        "transition_ghz": transition_frequency(model, upper, lower),
        "radial_element_ea0": radial,
    }
    if {upper[1:], lower[1:]} == {(0, 0.5), (1, 1.5)}:
        payload["dipole_ea0"] = radial * REFERENCE_ANGULAR_FACTOR
    return _emit(args, config, {"structure.json": _json_text(payload)})


def _cmd_rabi_curve(args, config):
    if args.steps < 2:
        raise ValueError(f"--steps must be >= 2, got {args.steps}")
    # checked before linspace, which warns on an infinite end point
    if not math.isfinite(args.theta_max):
        raise ValueError(f"--theta-max must be finite, got {args.theta_max}")
    thetas = np.linspace(0.0, args.theta_max, args.steps)
    rows = [(theta, retrieval_probability(args.n_polaritons, theta))
            for theta in thetas]
    text = _csv_text("theta_rad,probability", rows)
    return _emit(args, config, {"rabi_curve.csv": text})


def _cmd_eigenscan(args, config):
    scan = pair_eigenscan(args.omega_mu, args.c3, args.r_min, args.r_max,
                          args.steps)
    header = "r_um," + ",".join(f"eig_{b}_mhz" for b in range(scan.branches.shape[1]))
    rows = [(r, *scan.branches[k]) for k, r in enumerate(scan.radii)]
    return _emit(args, config, {"eigenscan.csv": _csv_text(header, rows)})


def _cmd_rabi_scan(args, config):
    if args.points < 1:
        raise ValueError(f"--points must be >= 1, got {args.points}")
    # checked before linspace, which warns on an infinite end point
    for flag, value in (("--omega-min", args.omega_min), ("--omega-max", args.omega_max)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    omegas = np.linspace(args.omega_min, args.omega_max, args.points)
    scan = simulate_rabi_scan(
        config, RB60_PAIR, omegas, _pulse_us(args, config), trials=args.trials,
        seed=args.seed, n_polaritons=args.n_polaritons,
        geometry_samples=args.geometry_samples, threads=args.threads)
    rows = list(zip(scan.omegas, scan.mean_counts, scan.sem_counts))
    text = _csv_text("omega_mu_mhz,retrieved_mean,retrieved_err", rows)
    return _emit(args, config, {"rabi_scan.csv": text}, seed=args.seed)


def _cmd_g2(args, config):
    # checked here, before any work, so that a refusal names the flag
    for flag, value in (("--trials", args.trials), ("--n-emitters", args.n_emitters)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1, got {value}")
    # NaN fails every comparison
    if not 0.0 <= args.detection_prob <= 1.0:
        raise ValueError(f"--detection-prob must lie in [0, 1], got {args.detection_prob}")
    if not _NORM_RANGE[1] <= args.max_delay < args.trials:
        raise ValueError(f"--max-delay must be >= {_NORM_RANGE[1]} and below --trials "
                         f"({args.trials}), got {args.max_delay}")
    drift = None
    if args.drift_std != 0.0:
        drift = DriftSpec.from_relative_std(args.drift_std, rng_seed=args.seed)
    result = simulate_hbt_run(config, args.trials, args.seed,
                              n_emitters=args.n_emitters,
                              detection_prob=args.detection_prob, drift=drift,
                              max_delay=args.max_delay)
    ks = np.rint(result.tau_bins / config.repetition_period).astype(int)
    payload = {
        "g2_zero": result.g2_zero,
        "g2_zero_err": result.g2_zero_err,
        "side_peak_level": result.side_peak_level,
        "bins": [[int(k), float(g), float(e)]
                 for k, g, e in zip(ks, result.g2, result.statistical_error)],
    }
    csv_rows = list(zip(ks, result.g2, result.statistical_error))
    return _emit(args, config, {
        "g2.json": _json_text(payload),
        "g2.csv": _csv_text("k,g2,g2_err", csv_rows),
    }, seed=args.seed)


def _read_xy_sigma(path):
    rows = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            cells = line.split(",")
            try:
                values = [float(cell) for cell in cells]
            except ValueError:
                if line_no == 1:
                    continue  # header line
                raise ValueError(f"{path}:{line_no}: non-numeric row {line!r}")
            if len(values) != 3:
                raise ValueError(
                    f"{path}:{line_no}: expected 3 columns (x, y, sigma), "
                    f"got {len(values)}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    return data[:, 0], data[:, 1], data[:, 2]


def _cmd_fit(args, config):
    if args.max_iterations < 0:
        raise ValueError(f"--max-iterations must be >= 0, got {args.max_iterations}")
    pulse = None if args.pulse_ns is None else _pulse_us(args, config, positive=True)
    x, y, sigma = _read_xy_sigma(args.input)
    if args.model == "lorentzian":
        spec = lorentzian_spec(x, y)
    else:
        if pulse is None:
            raise ValueError("--pulse-ns is required for the rabi_collective model")
        spec = rabi_collective_spec(pulse, x, y)
    result = fit(spec, x, y, sigma, max_iterations=args.max_iterations)
    payload = {
        "model": args.model,
        "parameters": result.as_dict(),
        "uncertainties": result.uncertainty_dict(),
        "rss": result.rss,
        "chi2": result.chi2,
        "status": result.status,
        "iterations": result.iterations,
        "gradient_norm": result.gradient_norm,
    }
    return _emit(args, config, {"fit.json": _json_text(payload)})


def _cmd_protocol(args, config):
    # the count SEM needs two shots
    if args.trials < 2:
        raise ValueError(f"--trials must be >= 2, got {args.trials}")
    counts = run_shots(config, RB60_PAIR, args.omega_mu, _pulse_us(args, config),
                       args.trials, args.seed, threads=args.threads)
    histogram = np.bincount(counts)
    payload = {
        "trials": int(args.trials),
        "omega_mu_mhz": float(args.omega_mu),
        "pulse_ns": float(args.pulse_ns),
        "mean_detected": float(counts.mean()),
        "sem_detected": float(counts.std(ddof=1) / math.sqrt(counts.size)),
        "max_detected": int(counts.max()),
    }
    rows = list(enumerate(histogram))
    return _emit(args, config, {
        "protocol.json": _json_text(payload),
        "protocol_counts.csv": _csv_text("detected_photons,occurrences", rows),
    }, seed=args.seed)


# --------------------------------------------------------------------------
# Parser

def _add_common(sub, seeded=False, threaded=False):
    sub.add_argument("--config", help="path to a JSON experiment config "
                                      "(fallback: RYDPOL_CONFIG, then packaged defaults)")
    sub.add_argument("--output-dir", default=".", help="artifact directory")
    if seeded:
        sub.add_argument("--seed", type=int, default=0, help="master RNG seed")
    if threaded:
        sub.add_argument("--threads", type=int, default=1,
                         help="worker processes (default 1); more pay off only "
                              "with OPENBLAS_NUM_THREADS=1")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rydpol",
        description="Simulation and analysis toolkit for microwave-controlled "
                    "Rydberg polaritons.")
    parser.add_argument("--version", action="version", version=__version__)
    subparsers = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    sub = subparsers.add_parser("radius", help="blockade radii from interaction "
                                               "coefficients")
    sub.add_argument("--c6", type=float, default=abs(RB60_PAIR.c6),
                     help="|C6| in GHz*um^6 (default %(default)g, the 60s pair)")
    sub.add_argument("--eit-width", type=float, default=None,
                     help="EIT linewidth in MHz (default: config value)")
    sub.add_argument("--c3", type=float, default=abs(RB60_PAIR.c3),
                     help="|C3| in GHz*um^3 for the microwave radius "
                          "(default %(default)g, the 60s pair)")
    sub.add_argument("--omega-mu", type=float, default=None,
                     help="microwave Rabi frequency in MHz; adds r_mu_um")
    _add_common(sub)
    sub.set_defaults(func=_cmd_radius)

    sub = subparsers.add_parser(
        "structure", help="transition frequency and dipole matrix elements",
        description="Binding energy, transition frequency and radial element of two "
                    "states, and dipole_ea0 for an s1/2-p3/2 pair (either order) only: "
                    "its angular factor sqrt(2/9) holds for no other pair.")
    sub.add_argument("--upper", default="60s1/2", help="upper state, e.g. 60s1/2")
    sub.add_argument("--lower", default="59p3/2", help="lower state, e.g. 59p3/2")
    _add_common(sub)
    sub.set_defaults(func=_cmd_structure)

    sub = subparsers.add_parser("rabi-curve", help="free-rotation collective "
                                                   "retrieval law vs pulse area")
    sub.add_argument("--n-polaritons", type=int, default=3)
    sub.add_argument("--theta-max", type=float, default=4.0 * math.pi,
                     help="maximum pulse area in rad")
    sub.add_argument("--steps", type=int, default=500)
    _add_common(sub)
    sub.set_defaults(func=_cmd_rabi_curve)

    sub = subparsers.add_parser("eigenscan", help="two-site spectrum vs separation")
    sub.add_argument("--omega-mu", type=float, required=True,
                     help="microwave Rabi frequency in MHz")
    sub.add_argument("--c3", type=float, default=RB60_PAIR.c3,
                     help="C3 in GHz*um^3 (default %(default)g, the 60s pair)")
    sub.add_argument("--r-min", type=float, default=4.0, help="um")
    sub.add_argument("--r-max", type=float, default=14.0, help="um")
    sub.add_argument("--steps", type=int, default=200)
    _add_common(sub)
    sub.set_defaults(func=_cmd_eigenscan)

    sub = subparsers.add_parser("rabi-scan", help="simulated retrieval vs "
                                                  "microwave Rabi frequency")
    sub.add_argument("--omega-min", type=float, default=1.0, help="MHz")
    sub.add_argument("--omega-max", type=float, default=80.0, help="MHz")
    sub.add_argument("--points", type=int, default=40)
    sub.add_argument("--pulse-ns", type=float, default=300.0,
                     help="microwave pulse duration in ns")
    sub.add_argument("--trials", type=int, default=3000, help="shots per point")
    sub.add_argument("--n-polaritons", type=int, default=None,
                     help="condition registers on this stored number")
    sub.add_argument("--geometry-samples", type=int, default=400)
    _add_common(sub, seeded=True, threaded=True)
    sub.set_defaults(func=_cmd_rabi_scan)

    sub = subparsers.add_parser("g2", help="pulsed HBT correlation run")
    sub.add_argument("--trials", type=int, default=100_000)
    sub.add_argument("--n-emitters", type=int, default=3)
    sub.add_argument("--detection-prob", type=float, default=EMITTER_DETECTION_PROB,
                     help="per-emitter detection probability (default %(default)g)")
    sub.add_argument("--drift-std", type=float, default=0.0,
                     help="relative std of slow efficiency drift (>= 0)")
    sub.add_argument("--max-delay", type=int, default=60,
                     help="correlation range in pulse indices")
    _add_common(sub, seeded=True)
    sub.set_defaults(func=_cmd_g2)

    sub = subparsers.add_parser("fit", help="damped least-squares fit of a CSV "
                                            "(x, y, sigma)")
    sub.add_argument("--model", choices=("lorentzian", "rabi_collective"),
                     required=True)
    sub.add_argument("--input", required=True, help="CSV path with x,y,sigma rows")
    sub.add_argument("--pulse-ns", type=float, default=None,
                     help="pulse duration in ns (rabi_collective only)")
    sub.add_argument("--max-iterations", type=int, default=400)
    _add_common(sub)
    sub.set_defaults(func=_cmd_fit)

    sub = subparsers.add_parser("protocol", help="end-to-end store-rotate-"
                                                 "retrieve Monte Carlo")
    sub.add_argument("--trials", type=int, default=10_000)
    sub.add_argument("--omega-mu", type=float, default=0.0, help="MHz")
    sub.add_argument("--pulse-ns", type=float, default=0.0, help="ns")
    _add_common(sub, seeded=True, threaded=True)
    sub.set_defaults(func=_cmd_protocol)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    if getattr(args, "func", None) is None:
        parser.print_help(sys.stderr)
        return 2
    try:
        # checked here, before any work, so the message names the flag
        seed = getattr(args, "seed", 0)
        if not 0 <= seed < 2 ** 64:
            raise ValueError(f"--seed must be an integer in [0, 2**64), got {seed}")
        return args.func(args, _resolve_config(args))
    except (ValueError, ConfigError, FitError, RuntimeError, OSError) as exc:
        print(f"rydpol: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
