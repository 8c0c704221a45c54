"""Tests for repro.utils (timers, deterministic RNG)."""

import time

import pytest

from repro.utils.rng import deterministic_rng
from repro.utils.timer import Deadline, Stopwatch


class TestStopwatch:
    def test_initially_zero(self):
        assert Stopwatch().elapsed == 0.0

    def test_accumulates_time(self):
        watch = Stopwatch().start()
        time.sleep(0.01)
        elapsed = watch.stop()
        assert elapsed >= 0.009

    def test_stop_without_start_is_noop(self):
        watch = Stopwatch()
        assert watch.stop() == 0.0

    def test_multiple_segments_accumulate(self):
        watch = Stopwatch()
        watch.start()
        time.sleep(0.005)
        watch.stop()
        first = watch.elapsed
        watch.start()
        time.sleep(0.005)
        watch.stop()
        assert watch.elapsed > first

    def test_context_manager(self):
        watch = Stopwatch()
        with watch:
            time.sleep(0.005)
        assert watch.elapsed >= 0.004

    def test_reset(self):
        watch = Stopwatch().start()
        watch.stop()
        watch.reset()
        assert watch.elapsed == 0.0

    def test_elapsed_while_running(self):
        watch = Stopwatch().start()
        time.sleep(0.005)
        assert watch.elapsed > 0.0
        watch.stop()


class TestDeadline:
    def test_unlimited_never_expires(self):
        deadline = Deadline.unlimited()
        assert not deadline.expired
        assert deadline.remaining() is None

    def test_zero_budget_expires_immediately(self):
        assert Deadline(0.0).expired

    def test_positive_budget_not_expired_immediately(self):
        assert not Deadline(10.0).expired

    def test_remaining_decreases(self):
        deadline = Deadline(10.0)
        first = deadline.remaining()
        time.sleep(0.005)
        assert deadline.remaining() <= first

    def test_remaining_clamped_at_zero(self):
        deadline = Deadline(0.0)
        assert deadline.remaining() == 0.0

    def test_sub_deadline_of_unlimited(self):
        child = Deadline.unlimited().sub_deadline(5.0)
        assert child.budget == 5.0

    def test_sub_deadline_respects_parent(self):
        parent = Deadline(0.0)
        child = parent.sub_deadline(100.0)
        assert child.budget == 0.0

    def test_sub_deadline_none_inherits_parent_remaining(self):
        parent = Deadline(10.0)
        child = parent.sub_deadline(None)
        assert child.budget is not None and child.budget <= 10.0


class TestDeterministicRng:
    def test_same_seed_same_stream(self):
        a = deterministic_rng(42)
        b = deterministic_rng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_seeds_differ(self):
        a = deterministic_rng(1)
        b = deterministic_rng(2)
        assert [a.random() for _ in range(5)] != [b.random() for _ in range(5)]

    def test_string_seed_is_stable(self):
        a = deterministic_rng("circuit-x")
        b = deterministic_rng("circuit-x")
        assert a.randint(0, 10**9) == b.randint(0, 10**9)

    def test_string_seeds_distinguish_names(self):
        a = deterministic_rng("circuit-x")
        b = deterministic_rng("circuit-y")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]
