"""Scaling wall time to the reference machine speed."""

import pytest

from speed import PROBE_REFERENCE_S, ScaledClock


def test_scaled_time_divides_by_the_probes_around_the_call():
    probes = iter([2 * PROBE_REFERENCE_S, 4 * PROBE_REFERENCE_S, PROBE_REFERENCE_S])
    clock = ScaledClock(probe=lambda: next(probes))

    result, raw, scaled = clock.time(lambda: "design")
    assert result == "design"
    assert scaled == pytest.approx(raw / 3)  # machine ran at a third of the speed
    # The probe after one call is the probe before the next.
    _, raw, scaled = clock.time(lambda: None)
    assert scaled == pytest.approx(raw * 2 / 5)


def test_a_failing_call_still_leaves_a_probe_for_the_next():
    probes = iter([PROBE_REFERENCE_S, PROBE_REFERENCE_S, 3 * PROBE_REFERENCE_S])
    clock = ScaledClock(probe=lambda: next(probes))

    def boom():
        raise ValueError("request failed")

    with pytest.raises(ValueError):
        clock.time(boom)
    _, raw, scaled = clock.time(lambda: None)
    assert scaled == pytest.approx(raw / 2)
