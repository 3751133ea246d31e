"""Deterministic random-stream derivation for Monte Carlo work.

Every stochastic stage of a run pulls its randomness from a counter-based
Philox generator keyed by (master_seed, stage, index).  Distinct labels give
statistically independent, non-overlapping streams, and a trial's draws do
not depend on how many other trials ran before it — so serial, chunked, and
parallel executions of the same labels produce bit-identical results.

A Philox stream is just its key, so the shot and scan paths do not build a
fresh generator per stream: each call re-keys one bit generator of its own
(``_rekeyed_stream``), which draws exactly what ``philox_stream`` of the same
label draws.
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
    """The two 64-bit Philox key words of a checked stream label."""
    _check_label("master_seed", master_seed)
    _check_label("stage", stage, MAX_STAGE)
    _check_label("index", index, MAX_INDEX)
    return int(master_seed), (int(stage) << 48) | int(index)


def philox_stream(master_seed, stage, index=0):
    """Independent ``numpy.random.Generator`` for the given stream label.

    master_seed is a 64-bit non-negative integer; stage numbers a pipeline
    step (cloud sampling, detection, clicks, ...) and index usually numbers
    the trial within that step.
    """
    key = np.array(_key(master_seed, stage, index), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _rekeyed_stream(bit_generator, master_seed, stage, index=0):
    """philox_stream(master_seed, stage, index), drawn from `bit_generator`.

    Resets the caller's np.random.Philox to counter 0 under the label's key
    and wraps it in a new Generator, which draws what a fresh stream of that
    label draws.  Re-keying again restarts the same bit generator, so the
    previous Generator must no longer be drawn from.
    """
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": (0, 0, 0, 0), "key": _key(master_seed, stage, index)},
        "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return np.random.Generator(bit_generator)


def spawn_trial_seeds(master_seed, count):
    """Distinct 63-bit master seeds for derived experiments (e.g. replicates)."""
    if not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"count must be a positive integer, got {count!r}")
    return philox_stream(master_seed, MAX_STAGE - 1).integers(1 << 63, size=int(count))
