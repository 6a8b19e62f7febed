import math
import random

import pytest

from coopspeed.games import Mode
from coopspeed.planner import (
    PlanResult,
    density_speed,
    plan,
    plan_to_window,
    speed_band,
)
from coopspeed.signals import SignalState
from coopspeed.tokens import Approacher, _reachable, arrival_window
from tests.test_tokens import full_windows, green_state, red_state, table_for

MU = 0.333
V_MIN = 2.78
V_MAX = 16.67


def ks(speed: float, dist: float, v_min: float = V_MIN, v_max: float = V_MAX):
    """The (speed, dist, v_min, v_max) arguments of ``plan`` and ``plan_to_window``."""
    return speed, dist, v_min, v_max


def token(tau: int, state) -> tuple[float, float]:
    """Arrival window of a token for slot ``tau``."""
    return arrival_window(table_for(state).offsets[tau], state)


def test_density_speed_endpoints_and_midpoint():
    assert density_speed(0.0, 150.0, V_MAX) == pytest.approx(V_MAX)
    assert density_speed(150.0, 150.0, V_MAX) == pytest.approx(0.0)
    assert density_speed(75.0, 150.0, V_MAX) == pytest.approx(8.335)


def test_density_speed_is_affine():
    rng = random.Random(2)
    for _ in range(50):
        d1, d2 = sorted(rng.uniform(0, 150) for _ in range(2))
        mid = (d1 + d2) / 2
        v = density_speed(mid, 150.0, V_MAX)
        avg = (density_speed(d1, 150.0, V_MAX) + density_speed(d2, 150.0, V_MAX)) / 2
        assert v == pytest.approx(avg, abs=1e-9)


def test_density_speed_errors():
    with pytest.raises(ValueError):
        density_speed(151.0, 150.0, V_MAX)
    with pytest.raises(ValueError):
        density_speed(10.0, 0.0, V_MAX)


def test_plan_to_window_hold_keeps_feasible_speed():
    s = plan_to_window(*ks(5.0, 100.0), (18.02, 21.02), max_speed=False)
    assert s == pytest.approx(5.0)
    band = speed_band(100.0, (18.02, 21.02), V_MIN, V_MAX)
    assert band == pytest.approx((4.757, 5.549), abs=0.001)


def test_plan_to_window_physical_bound():
    # 100 m in at most 3 s needs 33 m/s; beyond the road limit.
    assert plan_to_window(*ks(10.0, 100.0), (0.0, 3.003), max_speed=True) is None


def test_plan_to_window_zero_open_window_has_no_cap():
    s = plan_to_window(*ks(10.0, 10.0), (0.0, 30.0), max_speed=True)
    assert s == pytest.approx(V_MAX)


def test_plan_to_window_rejects_bad_window():
    # An empty window has no feasible speed; one opening before now is an error.
    assert plan_to_window(*ks(10.0, 100.0), (5.0, 5.0), max_speed=False) is None
    with pytest.raises(ValueError):
        plan_to_window(*ks(10.0, 100.0), (-1.0, 5.0), max_speed=False)


def test_plan_rejects_bad_kinematics():
    # A vehicle past the stop line or an inverted speed band is an error.
    with pytest.raises(ValueError):
        plan(*ks(10.0, -1.0), green_state(24.0), None, t_q=0.0)
    with pytest.raises(ValueError):
        plan(*ks(10.0, 100.0, v_min=5.0, v_max=4.0), green_state(24.0), None, t_q=0.0)
    with pytest.raises(ValueError):
        plan(*ks(10.0, 100.0, v_min=-1.0), red_state(30.0), None, t_q=0.0)


def test_green_case1_holds_inside_token_window():
    k = ks(5.0, 100.0)  # TTI = 20 <= R_g
    state = green_state(24.0)
    res = plan(*k, state, token(7, state), t_q=0.0)
    assert res.case == "green_c1"
    lo, hi = token(7, state)  # slot 7's bounds: the green has just started
    assert lo <= 100.0 / res.speed <= hi
    assert res.speed == pytest.approx(5.0)


def test_green_case2_accelerates_into_token():
    # TTI = 30 > R_g = 24 but v_max could make it; token for slot 8.
    k = ks(10.0, 300.0)
    state = green_state(24.0)
    window = token(8, state)
    res = plan(*k, state, window, t_q=0.0)
    assert res.case == "green_c2_accel"
    assert res.speed == pytest.approx(min(V_MAX, 300.0 / window[0]))


def test_green_case2_defers_to_next_green_without_token():
    k = ks(10.0, 300.0)  # TTI = 30, in (R_g, R_g + T_r]
    res = plan(*k, green_state(24.0), None, t_q=0.0)
    assert res.case == "green_c2_defer"
    # Window opens at R_g + T_r and closes a green later; the slow-down
    # binds at the window open, so the vehicle arrives first-come.
    assert res.window == pytest.approx((60.0, 84.0))
    assert res.speed == pytest.approx(min(300.0 / 60.0, V_MAX))


def test_green_case3_holds_current_speed():
    k = ks(12.0, 900.0)  # TTI = 75 > R_g + T_r = 60
    res = plan(*k, green_state(24.0), None, t_q=0.0)
    assert res.case == "green_c3"
    assert res.speed == pytest.approx(12.0)


def test_green_case3_clamps_to_limits():
    res = plan(*ks(1.0, 900.0, v_min=2.0), green_state(2.0), None, t_q=0.0)
    assert res.case == "green_c3"
    assert res.speed == pytest.approx(2.0)


def test_red_case1_slows_to_meet_green():
    k = ks(10.0, 200.0)  # TTI = 20 < R_r = 30
    res = plan(*k, red_state(30.0), None, t_q=0.0)
    assert res.case == "red_c1"
    assert res.window == pytest.approx((30.0, 54.0))
    # Queue-adjusted bound binds: arrive as the window opens.
    assert res.speed == pytest.approx(200.0 / 30.0)
    # A standing queue pushes the target arrival back.
    res_q = plan(*k, red_state(30.0), None, t_q=9.0)
    assert res_q.speed == pytest.approx(200.0 / 39.0)


def test_red_case2_holds_inside_offset_token_window():
    k = ks(10.0, 450.0)  # TTI = 45 in (R_r, R_r + T_g]
    state = red_state(30.0)
    res = plan(*k, state, token(1, state), t_q=0.0)
    assert res.case == "red_c2"
    assert res.window == pytest.approx((30.0, 33.003), abs=0.001)
    assert res.speed == pytest.approx(450.0 / 33.003003, abs=1e-6)


def test_red_case3_targets_next_cycle_green():
    k = ks(5.0, 800.0)  # TTI = 160 > R_r + T_g
    res = plan(*k, red_state(30.0), None, t_q=3.0)
    assert res.case == "red_c3"
    assert res.window == pytest.approx((30.0 + 24.0 + 36.0 + 3.0, 30.0 + 36.0 + 48.0))
    assert res.speed == pytest.approx(800.0 / 93.0)


def test_all_windows_infeasible_joins_queue():
    # 10 m out during fresh red: even v_min arrives long before the green.
    res = plan(*ks(8.0, 10.0), red_state(35.0), None, t_q=0.0)
    assert res.case == "queue_join"
    assert res.speed == V_MIN


def test_green_no_token_waits_for_queue_to_clear():
    # In-green arrival, no token: aim past the queue, before green ends.
    k = ks(10.0, 120.0)  # TTI = 12
    res = plan(*k, green_state(24.0), None, t_q=15.0)
    assert res.case == "green_c1"
    assert res.window == pytest.approx((15.0, 24.0))
    assert 120.0 / res.speed >= 15.0 - 1e-9


def test_exactly_one_case_fires_across_the_tti_axis():
    cases = set()
    for dist in (40.0, 120.0, 260.0, 420.0, 700.0, 1200.0):
        k = ks(10.0, dist)
        res_g = plan(*k, green_state(24.0), None, t_q=0.0)
        res_r = plan(*k, red_state(30.0), None, t_q=0.0)
        cases.add(res_g.case)
        cases.add(res_r.case)
        assert res_g.case in {"green_c1", "green_c2_defer", "green_c3", "queue_join"}
        assert res_r.case in {"red_c1", "red_c3", "queue_join"}
    assert "green_c3" in cases and "red_c3" in cases


def test_output_always_within_limits():
    rng = random.Random(9)
    for _ in range(500):
        k = ks(rng.uniform(0.0, V_MAX), rng.uniform(1.0, 1500.0))
        state = (
            green_state(rng.uniform(0.5, 24.0), rng.randint(0, 6))
            if rng.random() < 0.5
            else red_state(rng.uniform(0.5, 36.0), rng.randint(0, 6))
        )
        tok = token(rng.randint(1, 8), state) if rng.random() < 0.4 else None
        res = plan(*k, state, tok, t_q=rng.uniform(0.0, 20.0))
        assert V_MIN - 1e-9 <= res.speed <= V_MAX + 1e-9
        # The benchmark's tracer reads ``.case`` off the result.
        assert type(res) is PlanResult
        assert res == (res.speed, res.case, res.window)


def test_window_soundness_against_interval_oracle():
    rng = random.Random(4)
    for _ in range(2000):
        d = rng.uniform(1.0, 1000.0)
        t_lo = rng.choice([0.0, rng.uniform(0.0, 60.0)])
        t_hi = t_lo + rng.uniform(0.1, 60.0)
        v_min = rng.uniform(0.5, 5.0)
        v_max = v_min + rng.uniform(1.0, 25.0)
        k = (rng.uniform(0, v_max), d, v_min, v_max)
        max_speed = rng.choice([False, True])
        got = plan_to_window(*k, (t_lo, t_hi), max_speed)
        lo = max(d / t_hi, v_min)
        hi = min(d / t_lo if t_lo > 0 else math.inf, v_max)
        if lo > hi:
            assert got is None
        else:
            assert got is not None
            assert v_min <= got <= v_max
            arrival = d / got
            assert t_lo - 0.1 <= arrival <= t_hi + 0.1


def test_round_and_planner_agree_on_reachable_slots():
    # The round keeps a slot the vehicle can reach; the planner meets the
    # same window with a token case.  The planner reads it from the table's
    # offsets, the round's test from the window the reference formula gives.
    rng = random.Random(8)
    token_cases = {"green_c1", "green_c2_accel", "red_c2"}
    reachable = 0
    for _ in range(50000):
        green = rng.random() < 0.5
        queue = rng.randint(0, 4)
        state = SignalState(
            approach_green=green, crossable=green,
            remaining=rng.uniform(0.1, 24.0 if green else 36.0),
            green_s=24.0, red_s=36.0, queue_len=queue,
            green_end_margin_s=rng.choice([0.0, rng.uniform(0.0, 4.0)]),
        )
        cap = rng.uniform(V_MIN, V_MAX)
        dist = rng.uniform(0.0, 600.0)
        speed = rng.uniform(0.0, cap)
        e = Approacher(vin=1, dist=dist, cap=cap, mode=Mode.NORMAL, tti=None)
        slot = rng.randint(queue + 1, 8)
        res = plan(speed, dist, V_MIN, cap, state, token(slot, state),
                   t_q=rng.uniform(0.0, 15.0))
        ok = _reachable(slot, e, full_windows(MU, 8, state), V_MIN)
        assert ok == (res.case in token_cases), (state, e, slot, res)
        reachable += ok
    assert 5000 < reachable < 45000
