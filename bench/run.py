"""Benchmark of rydpol's store -> rotate -> retrieve chain, one workload per run.

    python3 bench/run.py --workload protocol --seed 1 --seconds 30 --trace 0

Sets rydpol up from ``src/`` next to this directory, runs the workload's job
again and again for ``--seconds`` in this one process with one BLAS thread,
checks the outputs, and prints one JSON object as the last line of stdout:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are setup_s, job_s and peak_rss_mb (through set-up and one job on
the workload's default seed); with ``--trace 1`` the jobs run
under the timing wrappers of ``spans`` and the metrics are per-layer self
times and counts.  Each run also writes ``bench/results/`` files; see
README.md.  Exit codes: 0 when the outputs are correct, 1 when a check fails
or a child process is left, 2 when there is no rydpol source to run.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import os  # noqa: E402

# One BLAS thread, set before numpy is first imported.
for _variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
RESULTS = BENCH_DIR / "results"

#: Fresh set-ups per run; setup_s takes their median.
SETUP_REPEATS = 5

COUNT_METRICS = (
    "rng.philox_stream.calls",
    "montecarlo.sample_positions.calls",
    "montecarlo.write_polaritons.calls",
    "montecarlo.write_polaritons.candidates",
    "montecarlo.write_polaritons.accepted",
    "interactions.build_pi_sector_hamiltonian.calls",
    "interactions.time_evolve.calls",
    "interactions.eigenspectrum.calls",
    *(f"interactions.eigenspectrum.dim_{d}" for d in (2, 4, 8, 16, 32, 64, 128)),
    "interactions.eigenspectrum.dim_256up",
    "interactions.eigenspectrum.dim_cubed",
    "interactions.time_evolve.return_above_one",
    "fitting.fit.calls",
    "fitting.fit.iterations",
    "montecarlo.generate_click_stream.events",
)
SELF_TIME_SPANS = (
    "rng.philox_stream",
    "montecarlo.sample_positions",
    "montecarlo.write_polaritons",
    "montecarlo.run_shots",
    "montecarlo.simulate_rabi_scan",
    "interactions.build_pi_sector_hamiltonian",
    "interactions.time_evolve",
    "interactions.eigenspectrum",
    "fitting.fit",
    "montecarlo.emitter_photon_counts",
    "montecarlo.generate_click_stream",
    "montecarlo.efficiency_drift_model",
    "montecarlo.hbt_g2",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("protocol", "rabi-scan", "g2"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: 1 for protocol and rabi-scan, 42 for g2)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 1 << 63:
        parser.error("--seed must be in [0, 2**63)")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def fresh_set_up(workload_class):
    """Import rydpol anew, build the workload's inputs and warm it up."""
    for name in [m for m in sys.modules if m == "rydpol" or m.startswith("rydpol.")]:
        del sys.modules[name]
    importlib.import_module("rydpol")
    workload = workload_class()
    workload.warm_up()
    return workload


def run_jobs(workload, seed, seconds, tracer):
    """Job times and the first job's output.

    No job starts that would, at the median job time so far, end past ``seconds``.
    """
    from workloads import job_seed

    times, first = [], None
    start = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        while True:
            job_start = time.perf_counter()
            with tracer.job() if tracer else nullcontext():
                output = workload.job(job_seed(seed, len(times)))
            times.append(time.perf_counter() - job_start)
            if first is None:
                first = output
            if time.perf_counter() - start + statistics.median(times) > seconds:
                return times, first


def layer_metrics(tracer):
    """Counts of the run's first job and per-job median self times."""
    first = tracer.jobs[0]["counts"]
    metrics = {name: {"value": int(first.get(name, 0)), "unit": "count"}
               for name in COUNT_METRICS}
    for span in SELF_TIME_SPANS:
        value = statistics.median(job["self_s"].get(span, 0.0) for job in tracer.jobs)
        metrics[f"{span}.self_s"] = {"value": value, "unit": "s"}
    return metrics


def live_children():
    """Process ids whose parent is this process, zombies included."""
    me, found = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[1]) == me:
            found.append(int(entry))
    return found


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status", encoding="ascii") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}", "threads": threads,
            "machine": platform.machine()}


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rydpol" / "__init__.py").is_file():
        print(f"bench: no rydpol source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rydpol
    from checks import CheckFailed
    from spans import Tracer
    from workloads import WORKLOADS

    if Path(rydpol.__file__).resolve().parent != SRC / "rydpol":
        print(f"bench: rydpol was imported from {rydpol.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START
    workload_class = WORKLOADS[args.workload]
    seed = workload_class.default_seed if args.seed is None else args.seed
    setups = []
    for _ in range(SETUP_REPEATS):
        began = time.perf_counter()
        workload = fresh_set_up(workload_class)
        setups.append(time.perf_counter() - began)

    if not args.trace:
        # The memory peak is read after one job on the default seed, before the
        # timed jobs: the peak of a run of seeded protocol jobs hinges on the
        # largest register any of them happens to write (84 to 750 MB).
        workload.job(workload.default_seed)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer = Tracer() if args.trace else None
    times, first = run_jobs(workload, seed, args.seconds, tracer)
    job_s = statistics.median(times)
    problem = None
    try:
        workload.check(seed, first)
    except CheckFailed as exc:
        problem = str(exc)

    if args.trace:
        metrics = layer_metrics(tracer)
    else:
        metrics = {"setup_s": {"value": import_s + statistics.median(setups), "unit": "s"},
                   "job_s": {"value": job_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": problem is None, "attempted": len(times), "failed": 0,
              "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    record = {"workload": args.workload, "seed": seed, "seconds": args.seconds,
              "trace": args.trace, "result": result, "problem": problem,
              "job_s": times, "import_s": import_s, "setup_repeats_s": setups,
              "environment": environment()}
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        spans = {"fields": ["id", "parent", "name", "start_s", "end_s"],
                 "spans": tracer.spans}
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")

    children = live_children()
    if children:
        print(f"bench: child processes still alive at exit: {children}", file=sys.stderr)
        return 1
    print(f"# {args.workload} seed {seed}: {len(times)} jobs, median job {job_s:.4f} s, "
          f"peak RSS {peak_rss_mb:.1f} MB" + (f"; CHECK FAILED: {problem}" if problem else ""))
    print(json.dumps(result))
    return 0 if problem is None else 1


if __name__ == "__main__":
    sys.exit(main())
