import random

import pytest

from coopspeed.signals import (
    SignalConfig,
    SignalState,
    departures_per_green,
    queue_clear_time,
    state_at,
)

CFG = SignalConfig(green_s=24.0, red_s=36.0, all_red_gap_s=1.0, offset_s=0.0,
                   departure_rate=0.333)


def light_state(cfg: SignalConfig) -> SignalState:
    """A light's state as its engine builds it, before any phase is written."""
    return SignalState(approach_green=False, crossable=False, remaining=0.0,
                       green_s=cfg.green_s, red_s=cfg.red_s)


def phase(cfg: SignalConfig, t: float) -> SignalState:
    """A fresh state holding ``cfg``'s phase at time ``t``."""
    st = light_state(cfg)
    state_at(cfg, t, st)
    return st


def test_fresh_green_east():
    st = phase(CFG, 0.0)
    assert st.approach_green
    assert st.crossable
    assert st.remaining == pytest.approx(24.0)


def test_periodicity_one_cycle():
    a = phase(CFG, 0.0)
    b = phase(CFG, 60.0)
    assert a == b


def test_mid_red_east():
    st = phase(CFG, 30.0)
    assert not st.approach_green
    assert not st.crossable
    assert st.remaining == pytest.approx(30.0)


def test_all_red_gap_carved_from_green():
    # The gap closes the green: still green, but nobody may enter.
    st = phase(CFG, 23.5)
    assert st.approach_green
    assert not st.crossable
    # Nominal remaining green still counts through the gap.
    assert st.remaining == pytest.approx(0.5)
    assert phase(CFG, 22.9).crossable


def assert_states_close(a, b):
    assert a.approach_green == b.approach_green
    assert a.crossable == b.crossable
    assert a.remaining == pytest.approx(b.remaining, abs=1e-6)


def test_periodicity_random_times():
    rng = random.Random(7)
    for _ in range(200):
        t = rng.uniform(0, 600)
        assert_states_close(phase(CFG, t), phase(CFG, t + CFG.cycle_s))


def test_phase_complementarity_over_cycle():
    # Measured crossable, green and red time over one cycle.
    # One state written in place at every instant, as a light's is.
    dt = 0.01
    crossable = green = red = 0.0
    steps = int(round(CFG.cycle_s / dt))
    st = light_state(CFG)
    for i in range(steps):
        state_at(CFG, i * dt, st)
        crossable += dt * st.crossable
        if st.approach_green:
            green += dt
        else:
            red += dt
    assert crossable == pytest.approx(23.0, abs=0.02)
    assert green == pytest.approx(24.0, abs=0.02)
    assert red == pytest.approx(36.0, abs=0.02)


def test_crossable_and_remaining_match_cycle_arithmetic():
    # crossable is the benchmark checker's red-light test, and remaining
    # runs down to the next phase change, for any offset.
    rng = random.Random(11)
    for _ in range(500):
        cfg = SignalConfig(green_s=24.0, red_s=36.0, all_red_gap_s=1.0,
                           offset_s=rng.uniform(0.0, 120.0))
        t = rng.uniform(0.0, 3600.0)
        u = (t - cfg.offset_s) % cfg.cycle_s
        st = phase(cfg, t)
        assert st.crossable == (u < cfg.green_s - cfg.all_red_gap_s)
        assert st.approach_green == (u < cfg.green_s)
        change = cfg.green_s if u < cfg.green_s else cfg.cycle_s
        assert st.remaining == pytest.approx(change - u, abs=1e-9)
        assert 0.0 < st.remaining <= max(cfg.green_s, cfg.red_s)
        # Just before the change the phase is the same, just after it flips.
        before = phase(cfg, t + st.remaining - 1e-6)
        after = phase(cfg, t + st.remaining + 1e-6)
        assert before.approach_green == st.approach_green
        assert after.approach_green != st.approach_green


def test_offset_shifts_the_cycle():
    shifted = SignalConfig(green_s=24.0, red_s=36.0, offset_s=10.0)
    assert phase(shifted, 10.0) == phase(CFG, 0.0)


def test_state_at_writes_only_the_phase_in_place():
    # A light keeps one state for the run: each call overwrites the phase
    # the previous one left and no other field, and returns nothing.
    st = SignalState(approach_green=True, crossable=True, remaining=5.0, green_s=24.0,
                     red_s=36.0, queue_len=3, green_end_margin_s=1.5)
    assert state_at(CFG, 30.0, st) is None
    assert st == SignalState(approach_green=False, crossable=False, remaining=30.0,
                             green_s=24.0, red_s=36.0, queue_len=3, green_end_margin_s=1.5)
    state_at(CFG, 23.5, st)
    assert (st.approach_green, st.crossable, st.remaining) == (True, False, 0.5)
    assert (st.queue_len, st.green_end_margin_s) == (3, 1.5)


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
