"""Fixed-cycle two-phase traffic light with a departure-rate queue model."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum


class Phase(Enum):
    """Global signal phase; ALL_RED is the safety gap between phases."""

    GREEN_EW = "green_ew"
    GREEN_NS = "green_ns"
    ALL_RED = "all_red"


class Approach(Enum):
    EAST = "east"
    WEST = "west"
    NORTH = "north"
    SOUTH = "south"

    @property
    def east_west(self) -> bool:
        return self in (Approach.EAST, Approach.WEST)


@dataclass(frozen=True)
class SignalConfig:
    """Static timing of one two-phase light.

    ``green_s``/``red_s`` are the durations seen by the east-west pair;
    the north-south pair gets the complement.  The all-red gap is carved
    out of the end of each green so the cycle stays ``green_s + red_s``.
    """

    green_s: float = 24.0
    red_s: float = 36.0
    all_red_gap_s: float = 1.0
    offset_s: float = 0.0
    departure_rate: float = 0.333  # mu, veh/s

    def __post_init__(self) -> None:
        if self.green_s <= 0 or self.red_s <= 0:
            raise ValueError("green_s and red_s must be positive")
        if self.departure_rate <= 0:
            raise ValueError("departure_rate must be positive")
        if not 0 <= self.all_red_gap_s < min(self.green_s, self.red_s):
            raise ValueError("all_red_gap_s must fit inside each phase")

    @property
    def cycle_s(self) -> float:
        return self.green_s + self.red_s


@dataclass
class SignalState:
    """Signal as seen from one approach at one instant.

    Exactly one of ``remaining_green``/``remaining_red`` is set.  The
    remaining times are nominal (they ignore the all-red gap, which only
    affects ``phase``), so the headline cycle arithmetic stays exact.
    """

    phase: Phase
    approach_green: bool
    remaining_green: float | None
    remaining_red: float | None
    green_s: float  # this approach's green duration
    red_s: float  # this approach's red duration
    queue_len: int = 0
    # Planners shave this much off every target window that closes at a
    # green end (all-red gap plus slack), so a late arrival does not slip
    # into the next red.  Zero keeps windows at the exact phase bounds.
    green_end_margin_s: float = 0.0

    @property
    def crossable(self) -> bool:
        """True when vehicles on this approach may enter the intersection."""
        if self.phase is Phase.ALL_RED:
            return False
        return self.approach_green


def state_at(cfg: SignalConfig, t: float, approach: Approach) -> SignalState:
    """Signal state for ``approach`` at time ``t`` (total function for t >= 0)."""
    cycle = cfg.cycle_s
    u = (t - cfg.offset_s) % cycle
    gap = cfg.all_red_gap_s
    if u < cfg.green_s:
        phase = Phase.ALL_RED if u >= cfg.green_s - gap else Phase.GREEN_EW
    else:
        phase = Phase.ALL_RED if u >= cycle - gap else Phase.GREEN_NS

    if approach.east_west:
        green_s, red_s = cfg.green_s, cfg.red_s
        is_green = u < cfg.green_s
        remaining = cfg.green_s - u if is_green else cycle - u
    else:
        green_s, red_s = cfg.red_s, cfg.green_s
        is_green = u >= cfg.green_s
        remaining = cycle - u if is_green else cfg.green_s - u

    return SignalState(
        phase=phase,
        approach_green=is_green,
        remaining_green=remaining if is_green else None,
        remaining_red=None if is_green else remaining,
        green_s=green_s,
        red_s=red_s,
    )


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
