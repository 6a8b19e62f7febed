"""Per-step speed selection for a vehicle approaching a signalized stop line.

Every case reduces to the same primitive: a target arrival-time window
[t_lo, t_hi] measured from now.  Arriving inside the window means the
speed lies in the band [d/t_hi, d/t_lo], intersected with the road's
speed limits.  Which window applies depends on the signal phase, the
vehicle's current time-to-intersection, and whether it holds a time
token, whose slot comes as its arrival window; when a window cannot be
met the plan falls back to the next green, and ultimately to crawling at
the minimum speed (joining the queue).

The slow-down programs (no token, a green too far away) bind their
"lowest speed" at the queue-adjusted edge of the window: the vehicle
arrives right after the standing queue clears, not at the last moment
of the target green.  That keeps arrivals first-come-first-served and
leaves the rest of the green for vehicles behind.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .signals import SignalState


class PlanResult(NamedTuple):
    speed: float
    case: str
    window: tuple[float, float] | None = None


# ``plan`` builds its result with the tuple constructor, which is what the
# namedtuple's own ``__new__`` calls after binding its arguments.
_new_result = tuple.__new__


def density_speed(density: float, max_density: float, v_max: float) -> float:
    """Linear density-speed law: v_max at an empty road, 0 at max density."""
    if max_density <= 0:
        raise ValueError("max_density must be positive")
    if density < 0 or density > max_density:
        raise ValueError("density must lie in [0, max_density]")
    return v_max * (1.0 - density / max_density)


def speed_band(
    dist: float, window: tuple[float, float], v_min: float, v_max: float
) -> tuple[float, float] | None:
    """Feasible speeds arriving inside ``window``, or None when empty.

    An empty window (``t_hi <= t_lo``) has no feasible speed.  A window
    opening at 0 places no upper cap beyond ``v_max``.
    """
    t_lo, t_hi = window
    if t_lo < 0:
        raise ValueError("window must not open before now")
    if t_hi <= t_lo:
        return None
    lo = dist / t_hi
    hi = math.inf if t_lo == 0 else dist / t_lo
    band_lo = v_min if v_min > lo else lo  # max(lo, v_min)
    band_hi = v_max if v_max < hi else hi  # min(hi, v_max)
    if band_lo > band_hi:
        return None
    return band_lo, band_hi


def plan_to_window(
    speed: float, dist: float, v_min: float, v_max: float,
    window: tuple[float, float], max_speed: bool,
) -> float | None:
    """Speed command meeting ``window``, or None when no speed meets it:
    the highest speed that does when ``max_speed``, else the one nearest
    ``speed``."""
    band = speed_band(dist, window, v_min, v_max)
    if band is None:
        return None
    lo, hi = band
    if max_speed:
        return hi
    # min(max(speed, lo), hi), written out with the builtins' tie-breaks.
    s = lo if lo > speed else speed
    return hi if hi < s else s


def plan(
    speed: float,
    dist: float,
    v_min: float,
    v_max: float,
    state: SignalState,
    slot_window: tuple[float, float] | None,
    t_q: float,
) -> PlanResult:
    """Dispatch the case program for the current signal phase and TTI.

    The vehicle is at ``speed`` m/s, ``dist`` meters before the stop
    line, and may plan speeds in [``v_min``, ``v_max``] m/s.
    ``slot_window`` is the arrival window of the vehicle's token slot in
    seconds from now (``tokens.arrival_window``), or None without a token.
    ``t_q`` is the time needed to clear the standing queue.  Exactly one
    case fires per call; a case whose window is infeasible cascades to
    the deferral program for the following green, and finally to a
    ``v_min`` crawl (the vehicle will stop and join the queue).
    """
    if dist < 0:
        raise ValueError("distance to stop line must be non-negative")
    if not 0 <= v_min <= v_max:
        raise ValueError("need 0 <= v_min <= v_max")
    cur_tti = dist / speed if speed > 0 else math.inf

    if state.approach_green:
        r_g = state.remaining
        if slot_window is not None:
            if cur_tti <= r_g:
                s = plan_to_window(speed, dist, v_min, v_max, slot_window, False)
                if s is not None:
                    return _new_result(PlanResult, (s, "green_c1", slot_window))
            else:
                s = plan_to_window(speed, dist, v_min, v_max, slot_window, True)
                if s is not None:
                    return _new_result(PlanResult, (s, "green_c2_accel", slot_window))
        elif cur_tti <= r_g:
            # In-green arrival but no token (queue lead-in or lost game):
            # aim beyond the queue, before green ends.
            window = (t_q, r_g - state.green_end_margin_s)
            s = plan_to_window(speed, dist, v_min, v_max, window, False)
            if s is not None:
                return _new_result(PlanResult, (s, "green_c1", window))
        t_r = state.red_s
        if cur_tti > r_g + t_r and slot_window is None:
            # Next-cycle green; no token yet, keep the current speed,
            # clamped to the band as in ``plan_to_window``.
            s = v_min if v_min > speed else speed
            s = v_max if v_max < s else s
            return _new_result(PlanResult, (s, "green_c3", None))
        window = (r_g + t_r + t_q, r_g + t_r + state.green_s - state.green_end_margin_s)
        s = plan_to_window(speed, dist, v_min, v_max, window, True)
        if s is not None:
            return _new_result(PlanResult, (s, "green_c2_defer", window))
        return _new_result(PlanResult, (v_min, "queue_join", None))

    r_r = state.remaining
    if slot_window is not None:
        s = plan_to_window(speed, dist, v_min, v_max, slot_window, False)
        if s is not None:
            return _new_result(PlanResult, (s, "red_c2", slot_window))
    t_g = state.green_s
    if cur_tti <= r_r + t_g:
        # Early arrival (or denied token): meet the upcoming green once
        # the queue has cleared.
        window = (r_r + t_q, r_r + t_g - state.green_end_margin_s)
        s = plan_to_window(speed, dist, v_min, v_max, window, True)
        if s is not None:
            return _new_result(PlanResult, (s, "red_c1", window))
        return _new_result(PlanResult, (v_min, "queue_join", None))
    t_r = state.red_s
    window = (r_r + t_g + t_r + t_q, r_r + t_r + 2.0 * t_g - state.green_end_margin_s)
    s = plan_to_window(speed, dist, v_min, v_max, window, True)
    if s is not None:
        return _new_result(PlanResult, (s, "red_c3", window))
    return _new_result(PlanResult, (v_min, "queue_join", None))
