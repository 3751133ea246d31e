"""Deterministic random-stream derivation for Monte Carlo work.

Every stochastic stage of a run pulls its randomness from a counter-based
Philox generator keyed by (master_seed, stage, index).  Distinct labels give
statistically independent, non-overlapping streams, and a trial's draws do
not depend on how many other trials ran before it — so serial, chunked, and
parallel executions of the same labels produce bit-identical results.

A Philox stream is just its key, and ``_rekeyed`` keys every stream:
``philox_stream`` a fresh bit generator, the shot and scan paths one of
their own per call, so both draw alike for the same label.  A run checks its
seed and largest index once (``_run_seed``), not each trial's labels.
"""

from __future__ import annotations

import numpy as np

#: Label capacity: stage fits in 16 bits, index in 48.
MAX_STAGE = 1 << 16
MAX_INDEX = 1 << 48


def _check_label(name, value, bound=1 << 64):
    """Raises unless value is an integer in [0, bound), naming it `name`.

    The default bound is that of a master seed.
    """
    if not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= value < bound:
        raise ValueError(f"{name} must be in [0, {bound}), got {value}")


def _key(master_seed, stage, index):
    """The labels of a stream, checked, as Python ints."""
    _check_label("master_seed", master_seed)
    _check_label("stage", stage, MAX_STAGE)
    _check_label("index", index, MAX_INDEX)
    return int(master_seed), int(stage), int(index)


def philox_stream(master_seed, stage, index=0):
    """Independent ``numpy.random.Generator`` for the given stream label.

    master_seed is a 64-bit non-negative integer; stage numbers a pipeline
    step (cloud sampling, detection, clicks, ...) and index usually numbers
    the trial within that step.
    """
    # a placeholder key spares the seedless constructor its OS entropy draw
    return _rekeyed(np.random.Philox(key=0), *_key(master_seed, stage, index))


def _run_seed(master_seed, count):
    """master_seed as a key word, for a run of streams (master_seed, stage, i), i < count.

    Checks the seed and the largest index, count - 1, as _key does, so that
    the run can re-key each stream with _rekeyed, which checks nothing; the
    stages are the program's own constants.
    """
    return _key(master_seed, 0, count - 1)[0]


def _rekeyed(bit_generator, master_seed, stage, index):
    """A Generator drawing the stream of a checked label, given as Python ints.

    Resets the caller's np.random.Philox to counter 0 under the label's key.
    Re-keying it again restarts it, so the previous Generator must not be used.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": (master_seed, (stage * MAX_INDEX) | index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def spawn_trial_seeds(master_seed, count):
    """Distinct 63-bit master seeds for derived experiments (e.g. replicates)."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return philox_stream(master_seed, MAX_STAGE - 1).integers(1 << 63, size=int(count))
