"""Fixed-cycle traffic light on one approach, with a departure-rate queue model."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class SignalConfig:
    """Static timing of one fixed-cycle light, as seen by its approach.

    The cycle is ``green_s`` of green followed by ``red_s`` of red.  The
    all-red gap is carved out of the end of the green, so the cycle stays
    ``green_s + red_s`` and vehicles may enter for ``green_s -
    all_red_gap_s`` of it.
    """

    green_s: float = 24.0
    red_s: float = 36.0
    all_red_gap_s: float = 1.0
    offset_s: float = 0.0
    departure_rate: float = 0.333  # mu, veh/s

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.green_s, self.red_s, self.all_red_gap_s,
                                       self.offset_s, self.departure_rate))):
            raise ValueError("signal timings and departure rate must be finite")
        if self.green_s <= 0 or self.red_s <= 0:
            raise ValueError("green_s and red_s must be positive")
        if self.departure_rate <= 0:
            raise ValueError("departure_rate must be positive")
        if not 0 <= self.all_red_gap_s < min(self.green_s, self.red_s):
            raise ValueError("all_red_gap_s must fit inside each phase")

    @property
    def cycle_s(self) -> float:
        return self.green_s + self.red_s


@dataclass(slots=True)
class SignalState:
    """Signal as seen from the approach at one instant.

    ``remaining`` is the time left in the current green or red.  It is
    nominal: it ignores the all-red gap, which only clears ``crossable``,
    so the headline cycle arithmetic stays exact.  ``state_at`` writes the
    phase fields; the timing fields and the margin are the light's for
    the run.
    """

    approach_green: bool
    crossable: bool  # vehicles may enter: green, outside the all-red gap
    remaining: float
    green_s: float
    red_s: float
    queue_len: int = 0
    # Planners shave this much off every target window that closes at a
    # green end (all-red gap plus slack), so a late arrival does not slip
    # into the next red.  Zero keeps windows at the exact phase bounds.
    green_end_margin_s: float = 0.0


def state_at(cfg: SignalConfig, t: float, state: SignalState) -> None:
    """Write the phase of ``cfg``'s light at time ``t`` (any t >= 0) into
    ``state``: ``approach_green``, ``crossable`` and ``remaining``.  The
    caller keeps one state per light and passes it on every call; no other
    field changes."""
    green = cfg.green_s
    cycle = green + cfg.red_s  # ``cfg.cycle_s``
    u = (t - cfg.offset_s) % cycle
    state.approach_green = is_green = u < green
    state.crossable = u < green - cfg.all_red_gap_s
    state.remaining = green - u if is_green else cycle - u


def queue_clear_time(n: int, mu: float) -> float:
    """Seconds needed to discharge ``n`` queued vehicles at rate ``mu``."""
    if mu <= 0:
        raise ValueError("departure rate mu must be positive")
    if n < 0:
        raise ValueError("queue length must be non-negative")
    return n / mu


def departures_per_green(mu: float, green_s: float) -> int:
    """Maximum departures (and highest token index) in one green period.

    This is the number of ``1/mu`` service slots needed to cover the green
    window, so every in-green arrival time falls inside some slot.
    """
    if mu <= 0:
        raise ValueError("departure rate mu must be positive")
    if green_s < 0:
        raise ValueError("green duration must be non-negative")
    return max(0, math.ceil(mu * green_s - 1e-9))
