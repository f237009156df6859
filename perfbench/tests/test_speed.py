import signal
import time

import pytest

from speed import MIN_SAMPLES, NOMINAL_S, SpeedProbe


def _probe(loop_s):
    probe = SpeedProbe()
    probe.at = [float(i) for i in range(len(loop_s))]
    probe.loop_s = list(loop_s)
    probe.handler_s = [2.0 * v for v in loop_s]
    return probe


def test_scale_uses_the_samples_inside_a_long_call():
    probe = _probe([NOMINAL_S] * 10 + [2 * NOMINAL_S] * 10)
    assert probe.scale(10.0, 19.0) == pytest.approx(0.5)
    assert probe.scale(0.0, 9.0) == pytest.approx(1.0)


def test_scale_widens_a_short_call_to_the_latest_samples():
    probe = _probe([NOMINAL_S] * 10 + [4 * NOMINAL_S] * MIN_SAMPLES)
    # No sample falls inside (14.2, 14.4); the five before it are all slow.
    assert probe.scale(14.2, 14.4) == pytest.approx(0.25)


def test_overhead_counts_only_handlers_inside_the_call():
    probe = _probe([1.0, 2.0, 3.0, 4.0])
    assert probe.overhead_s(1.0, 2.0) == pytest.approx(2.0 * (2.0 + 3.0))
    assert probe.overhead_s(2.5, 2.9) == 0.0


def test_probe_samples_while_busy_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe() as probe:
        assert len(probe.loop_s) >= MIN_SAMPLES
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    count = len(probe.loop_s)
    time.sleep(0.12)
    assert len(probe.loop_s) == count > MIN_SAMPLES
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 0.0 < probe.relative_speed()
