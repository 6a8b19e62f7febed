import math
import random

import pytest

from coopspeed.signals import (
    Approach,
    Phase,
    SignalConfig,
    departures_per_green,
    queue_clear_time,
    state_at,
)

CFG = SignalConfig(green_s=24.0, red_s=36.0, all_red_gap_s=1.0, offset_s=0.0,
                   departure_rate=0.333)


def test_fresh_green_east():
    st = state_at(CFG, 0.0, Approach.EAST)
    assert st.approach_green
    assert st.remaining_green == pytest.approx(24.0)
    assert st.remaining_red is None
    assert st.phase is Phase.GREEN_EW


def test_periodicity_one_cycle():
    a = state_at(CFG, 0.0, Approach.EAST)
    b = state_at(CFG, 60.0, Approach.EAST)
    assert a == b


def test_mid_red_east():
    st = state_at(CFG, 30.0, Approach.EAST)
    assert not st.approach_green
    assert st.remaining_red == pytest.approx(30.0)
    assert st.phase is Phase.GREEN_NS


def test_all_red_gap_carved_from_green():
    # Gap at the end of the east-west green and the end of the cycle.
    assert state_at(CFG, 23.5, Approach.EAST).phase is Phase.ALL_RED
    assert state_at(CFG, 59.5, Approach.EAST).phase is Phase.ALL_RED
    assert not state_at(CFG, 23.5, Approach.EAST).crossable
    # Nominal remaining green still counts through the gap.
    assert state_at(CFG, 23.5, Approach.EAST).remaining_green == pytest.approx(0.5)


def test_north_south_gets_the_complement():
    st = state_at(CFG, 30.0, Approach.NORTH)
    assert st.approach_green
    assert st.remaining_green == pytest.approx(30.0)
    assert st.green_s == pytest.approx(36.0)
    st0 = state_at(CFG, 0.0, Approach.NORTH)
    assert not st0.approach_green
    assert st0.remaining_red == pytest.approx(24.0)


def assert_states_close(a, b):
    assert a.phase is b.phase
    assert a.approach_green == b.approach_green
    for field in ("remaining_green", "remaining_red"):
        va, vb = getattr(a, field), getattr(b, field)
        if va is None:
            assert vb is None
        else:
            assert va == pytest.approx(vb, abs=1e-6)


def test_periodicity_random_times():
    rng = random.Random(7)
    for _ in range(200):
        t = rng.uniform(0, 600)
        for approach in Approach:
            assert_states_close(
                state_at(CFG, t, approach), state_at(CFG, t + CFG.cycle_s, approach)
            )


def test_phase_complementarity_over_cycle():
    # Measured phase durations over one cycle sum to the cycle length.
    dt = 0.01
    seen = {Phase.GREEN_EW: 0.0, Phase.GREEN_NS: 0.0, Phase.ALL_RED: 0.0}
    steps = int(round(CFG.cycle_s / dt))
    for i in range(steps):
        seen[state_at(CFG, i * dt, Approach.EAST).phase] += dt
    assert seen[Phase.GREEN_EW] == pytest.approx(23.0, abs=0.02)
    assert seen[Phase.GREEN_NS] == pytest.approx(35.0, abs=0.02)
    assert seen[Phase.ALL_RED] == pytest.approx(2.0, abs=0.02)
    assert sum(seen.values()) == pytest.approx(CFG.cycle_s, abs=0.05)


def test_offset_shifts_the_cycle():
    shifted = SignalConfig(green_s=24.0, red_s=36.0, offset_s=10.0)
    assert state_at(shifted, 10.0, Approach.EAST) == state_at(CFG, 0.0, Approach.EAST)


def test_queue_clear_time_values():
    assert queue_clear_time(0, 0.333) == 0.0
    assert queue_clear_time(9, 0.333) == pytest.approx(27.03, abs=0.01)
    assert queue_clear_time(8, 0.333) == pytest.approx(24.02, abs=0.01)


def test_queue_clear_time_errors_and_shape():
    with pytest.raises(ValueError):
        queue_clear_time(3, 0.0)
    with pytest.raises(ValueError):
        queue_clear_time(-1, 0.5)
    # Linear in n, strictly decreasing in mu.
    assert queue_clear_time(6, 0.5) == 2 * queue_clear_time(3, 0.5)
    assert queue_clear_time(5, 0.4) > queue_clear_time(5, 0.5)


def test_departures_per_green_values():
    assert departures_per_green(0.333, 24.0) == 8
    assert departures_per_green(1.0 / 3.0, 24.0) == 8
    assert departures_per_green(0.5, 24.0) == 12


def test_departures_cover_the_green_window():
    # Every in-green arrival time lies inside some slot.
    rng = random.Random(3)
    for _ in range(100):
        mu = rng.uniform(0.1, 1.0)
        green = rng.uniform(5.0, 60.0)
        n = departures_per_green(mu, green)
        assert n / mu >= green - 1e-6
        assert (n - 1) / mu < green


def test_config_validation():
    with pytest.raises(ValueError):
        SignalConfig(green_s=0.0)
    with pytest.raises(ValueError):
        SignalConfig(departure_rate=0.0)
    with pytest.raises(ValueError):
        SignalConfig(all_red_gap_s=30.0)
    assert CFG.cycle_s == pytest.approx(60.0)
