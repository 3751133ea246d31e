"""Counter-based stream derivation: determinism, independence, label bounds.

A re-keyed bit generator (``_rekeyed_stream``) must draw exactly what a
fresh ``philox_stream`` of the same label draws, and check labels the same
way.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydpol.rng import MAX_INDEX, MAX_STAGE, _rekeyed_stream, philox_stream, spawn_trial_seeds


def rekeyed(master_seed, stage, index=0):
    """_rekeyed_stream on a bit generator of its own."""
    return _rekeyed_stream(np.random.Philox(), master_seed, stage, index)


class LabelChecks:
    """Label bounds and types, checked alike by every stream constructor."""

    stream = None

    @pytest.mark.parametrize("kwargs", [
        {"master_seed": -1}, {"master_seed": 1 << 64},
        {"stage": -1}, {"stage": MAX_STAGE},
        {"index": -1}, {"index": MAX_INDEX},
    ])
    def test_out_of_range_labels_rejected(self, kwargs):
        label = {"master_seed": 1, "stage": 1, "index": 0}
        label.update(kwargs)
        with pytest.raises(ValueError):
            self.stream(**label)

    @pytest.mark.parametrize("kwargs", [
        {"master_seed": 1.5}, {"stage": "a"}, {"index": 2.0},
    ])
    def test_non_integer_labels_rejected(self, kwargs):
        label = {"master_seed": 1, "stage": 1, "index": 0}
        label.update(kwargs)
        with pytest.raises(TypeError):
            self.stream(**label)

    def test_numpy_integers_accepted(self):
        a = self.stream(np.uint64(5), np.int64(2), np.int32(3)).random(8)
        b = philox_stream(5, 2, 3).random(8)
        assert np.array_equal(a, b)


class TestPhiloxStream(LabelChecks):
    stream = staticmethod(philox_stream)

    def test_same_label_bit_identical(self):
        a = philox_stream(12345, 3, 7).random(100)
        b = philox_stream(12345, 3, 7).random(100)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("other", [
        (12346, 3, 7), (12345, 4, 7), (12345, 3, 8),
    ])
    def test_different_labels_differ(self, other):
        base = philox_stream(12345, 3, 7).random(64)
        assert not np.array_equal(base, philox_stream(*other).random(64))

    def test_stage_index_packing_does_not_collide(self):
        # (stage, index) packs into one 64-bit word: stage<<48 | index.  The
        # extreme index of one stage must not alias the start of the next.
        a = philox_stream(1, 2, 0).random(32)
        b = philox_stream(1, 1, MAX_INDEX - 1).random(32)
        assert not np.array_equal(a, b)

    def test_draw_order_independence(self):
        # A trial's stream does not depend on draws made from other streams.
        lone = philox_stream(9, 5, 100).normal(size=10)
        _ = philox_stream(9, 5, 99).normal(size=1000)
        interleaved = philox_stream(9, 5, 100).normal(size=10)
        assert np.array_equal(lone, interleaved)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=MAX_STAGE - 1),
           st.integers(min_value=0, max_value=MAX_INDEX - 1))
    @settings(max_examples=30, deadline=None)
    def test_any_valid_label_is_reproducible(self, seed, stage, index):
        a = philox_stream(seed, stage, index).integers(1 << 32, size=4)
        b = philox_stream(seed, stage, index).integers(1 << 32, size=4)
        assert np.array_equal(a, b)


class TestRekeyedStream(LabelChecks):
    stream = staticmethod(rekeyed)

    @staticmethod
    def draws(rng):
        # the scalar draws are those of a shot: candidates, detection, background
        return (rng.poisson(1.2), rng.binomial(3, 0.04), rng.random(5), rng.normal(size=(3, 3)),
                rng.poisson(3.5, size=4), rng.binomial(7, 0.3, size=4),
                rng.integers(1 << 62, size=3))

    def assert_same_draws(self, rng, master_seed, stage, index):
        for got, want in zip(self.draws(rng), self.draws(philox_stream(master_seed, stage, index))):
            assert np.array_equal(got, want)

    @given(st.integers(min_value=0, max_value=(1 << 64) - 1),
           st.integers(min_value=0, max_value=MAX_STAGE - 1),
           st.integers(min_value=0, max_value=MAX_INDEX - 1))
    @settings(max_examples=30, deadline=None)
    def test_draws_equal_a_fresh_stream(self, seed, stage, index):
        self.assert_same_draws(rekeyed(seed, stage, index), seed, stage, index)

    def test_one_bit_generator_rekeyed_in_turn(self):
        # re-keying restarts the stream, whatever the last label drew
        bit_generator = np.random.Philox()
        for label in [(9, 1, 4), (9, 2, 4), (9, 1, 4), (0, 0, 0), ((1 << 64) - 1, 7, 12)]:
            self.assert_same_draws(_rekeyed_stream(bit_generator, *label), *label)

    def test_interleaved_bit_generators_are_independent(self):
        first, second = np.random.Philox(), np.random.Philox()
        a = _rekeyed_stream(first, 3, 1, 10)
        b = _rekeyed_stream(second, 3, 1, 11)
        drawn_a, drawn_b = [], []
        for _ in range(4):
            drawn_a.append(a.normal(size=3))
            drawn_b.append(b.normal(size=5))
        assert np.array_equal(np.concatenate(drawn_a), philox_stream(3, 1, 10).normal(size=12))
        assert np.array_equal(np.concatenate(drawn_b), philox_stream(3, 1, 11).normal(size=20))

    def test_rejected_label_leaves_the_bit_generator_usable(self):
        bit_generator = np.random.Philox()
        with pytest.raises(ValueError):
            _rekeyed_stream(bit_generator, 1, MAX_STAGE, 0)
        self.assert_same_draws(_rekeyed_stream(bit_generator, 1, 2, 3), 1, 2, 3)


class TestSpawnTrialSeeds:
    def test_deterministic_and_distinct(self):
        seeds = spawn_trial_seeds(2024, 500)
        again = spawn_trial_seeds(2024, 500)
        assert np.array_equal(seeds, again)
        assert len(np.unique(seeds)) == 500

    def test_within_63_bits(self):
        seeds = spawn_trial_seeds(7, 1000)
        assert seeds.min() >= 0
        assert seeds.max() < 1 << 63

    def test_count_validation(self):
        with pytest.raises(ValueError):
            spawn_trial_seeds(7, 0)
        with pytest.raises(ValueError):
            spawn_trial_seeds(7, -3)
