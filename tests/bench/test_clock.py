"""Host time rescaled by the reference-loop samples."""

import signal
import time

import pytest

from bench.clock import REF_S, HostClock


def _clock(samples):
    clock = HostClock()
    clock.samples = samples
    return clock


def test_a_stretch_at_half_speed_counts_half_and_samples_count_nothing():
    d = 2 * REF_S  # every sample took twice the idle time
    clock = _clock([(0.0, d), (1.0, 1.0 + d), (2.0, 2.0 + d)])
    assert clock.seconds(0.0, 2.0 + d) == pytest.approx((2.0 - 2 * d) / 2)
    # Partly covered stretches, the sample at 1.0 left out.
    assert clock.seconds(0.5, 1.5) == pytest.approx((1.0 - d) / 2)
    # Beyond the samples, the nearest ones set the speed.
    assert clock.seconds(-1.0, 0.0) == pytest.approx(0.5)
    assert clock.seconds(3.0, 5.0) == pytest.approx(1.0)


def test_each_stretch_takes_the_speed_of_the_samples_around_it():
    fast, slow = REF_S, 4 * REF_S
    clock = _clock([(0.0, fast), (1.0, 1.0 + fast), (2.0, 2.0 + fast),
                    (3.0, 3.0 + slow), (4.0, 4.0 + slow),
                    (5.0, 5.0 + slow)])
    assert clock.seconds(0.5, 0.6) == pytest.approx(0.1)
    assert clock.seconds(4.5, 4.6) == pytest.approx(0.025)


def test_the_timer_samples_and_is_stopped_and_restored():
    def previous(signum, frame):
        raise AssertionError("the clock's handler should be installed")

    old = signal.signal(signal.SIGALRM, previous)
    try:
        with HostClock() as clock:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.35:
                pass
            end = time.perf_counter()
        assert signal.getsignal(signal.SIGALRM) is previous
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    finally:
        signal.signal(signal.SIGALRM, old)
    # The entry and exit samples plus at least two from the timer.
    assert len(clock.samples) >= 4
    assert 0.0 < clock.seconds(start, end) < 10 * (end - start)
