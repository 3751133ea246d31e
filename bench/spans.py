"""Spans and counters around the calls into rydpol's public functions.

The benchmark does not edit the program.  It swaps a timing wrapper in for
each module attribute the pipeline calls through (``TARGETS``), so every call
that looks the name up at call time passes through a span, the program's own
internal calls included.  A span's self time is its duration minus the time
of its child spans; the root span of a job is ``job``.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

#: Upper edges of the ``interactions.eigenspectrum.dim_*`` buckets; larger
#: matrices count as ``dim_256up``.
DIM_BUCKETS = (2, 4, 8, 16, 32, 64, 128)


def dim_bucket(dim):
    for edge in DIM_BUCKETS:
        if dim <= edge:
            return f"dim_{edge}"
    return "dim_256up"


def _arg(args, kwargs, position, name):
    return args[position] if len(args) > position else kwargs[name]


def _write_counts(args, kwargs, result):
    return (("candidates", result.n_candidates), ("accepted", result.n_polaritons))


def _eigen_counts(args, kwargs, result):
    h = _arg(args, kwargs, 0, "h")
    dim = len(getattr(h, "matrix", h))
    return ((dim_bucket(dim), 1), ("dim_cubed", dim ** 3))


def _evolve_counts(args, kwargs, result):
    """Flag an all-s start state whose return probability exceeds 1.

    time_evolve insists on a unit-norm psi0, so psi0[0] == 1 means all-s.
    """
    all_s = _arg(args, kwargs, 1, "psi0")[0] == 1.0 and result.ndim == 1
    return (("return_above_one", int(all_s and abs(result[0]) ** 2 > 1.0)),)


#: (module, attribute, span name, counter).  A counter maps (args, kwargs,
#: result) of one call to (key, count) pairs, recorded as "<span name>.<key>".
TARGETS = (
    ("rydpol.montecarlo", "philox_stream", "rng.philox_stream", None),
    ("rydpol.montecarlo", "sample_positions", "montecarlo.sample_positions", None),
    ("rydpol.montecarlo", "write_polaritons", "montecarlo.write_polaritons", _write_counts),
    ("rydpol.montecarlo", "run_shots", "montecarlo.run_shots", None),
    ("rydpol.montecarlo", "simulate_rabi_scan", "montecarlo.simulate_rabi_scan", None),
    ("rydpol.montecarlo", "build_pi_sector_hamiltonian",
     "interactions.build_pi_sector_hamiltonian", None),
    ("rydpol.montecarlo", "time_evolve", "interactions.time_evolve", _evolve_counts),
    ("rydpol.interactions", "eigenspectrum", "interactions.eigenspectrum", _eigen_counts),
    ("rydpol.fitting", "fit", "fitting.fit",
     lambda args, kwargs, result: (("iterations", result.iterations),)),
    ("rydpol.montecarlo", "emitter_photon_counts", "montecarlo.emitter_photon_counts", None),
    ("rydpol.montecarlo", "generate_click_stream", "montecarlo.generate_click_stream",
     lambda args, kwargs, result: (("events", result.times.size),)),
    ("rydpol.montecarlo", "efficiency_drift_model", "montecarlo.efficiency_drift_model",
     None),
    ("rydpol.montecarlo", "hbt_g2", "montecarlo.hbt_g2", None),
)


class Tracer:
    """Per-job self times and counts, the first job's spans, and kept calls.

    Calls outside a ``job()`` block pass straight through.  ``keep`` names the
    spans whose (args, kwargs, result) are kept in ``calls``, in call order,
    for the correctness checks.
    """

    def __init__(self, keep=()):
        self.keep = frozenset(keep)
        self.calls = []
        self.jobs = []     # one {"job_s", "self_s", "counts"} per job
        self.spans = []    # (id, parent id, name, start, end) of the first job, s
        self._stack = []   # open frames: [span id, name, start, child time]

    @contextmanager
    def installed(self):
        """Swap the wrappers in for the TARGETS attributes, and back out after."""
        swapped = []
        try:
            for module_name, attribute, name, counter in TARGETS:
                module = sys.modules[module_name]
                original = getattr(module, attribute)
                setattr(module, attribute, self._wrap(original, name, counter))
                swapped.append((module, attribute, original))
            yield self
        finally:
            for module, attribute, original in reversed(swapped):
                setattr(module, attribute, original)

    @contextmanager
    def job(self):
        """Root span of one job; its records are appended to ``jobs``."""
        self._self_s, self._counts = defaultdict(float), Counter()
        self._record_spans = not self.jobs
        self._span_ids = 0
        self._stack = [[0, "job", time.perf_counter(), 0.0]]
        try:
            yield
        finally:
            job_s = self._close(time.perf_counter())
            self.jobs.append({"job_s": job_s, "self_s": dict(self._self_s),
                              "counts": self._counts})

    def _close(self, end):
        stack = self._stack
        span_id, name, start, child = stack.pop()
        duration = end - start
        self._self_s[name] += duration - child
        self._counts[name + ".calls"] += 1
        if stack:
            stack[-1][3] += duration
        if self._record_spans:
            parent, origin = (stack[-1][0], stack[0][2]) if stack else (None, start)
            self.spans.append((span_id, parent, name, start - origin, end - origin))
        return duration

    def _wrap(self, original, name, counter):
        prefix = name + "."
        keep = name in self.keep

        def wrapper(*args, **kwargs):
            if not self._stack:
                return original(*args, **kwargs)
            self._span_ids += 1
            self._stack.append([self._span_ids, name, time.perf_counter(), 0.0])
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(time.perf_counter())
            if counter is not None:
                for key, value in counter(args, kwargs, result):
                    self._counts[prefix + key] += value
            if keep:
                self.calls.append((name, args, kwargs, result))
            return result

        wrapper.__wrapped__ = original
        return wrapper

    def kept(self, *names):
        """Kept calls whose span name is in ``names``, in call order."""
        return [call for call in self.calls if call[0] in names]
