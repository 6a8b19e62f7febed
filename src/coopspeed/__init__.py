"""Cooperative speed optimization and time-token allocation for signalized corridors."""

from .energy import step_energy
from .games import (
    ConflictResult,
    CreditLedger,
    Mode,
    PairOutcome,
    play_pair,
    resolve_conflict,
)
from .planner import Objective, PlanResult, density_speed, plan, plan_to_window
from .signals import (
    SignalConfig,
    SignalState,
    departures_per_green,
    queue_clear_time,
    state_at,
)
from .tokens import (
    Approacher,
    TokenTable,
    allocation_round,
    arrival_window,
    arrival_windows,
    detect_conflicts,
    request_tti,
)

__all__ = [name for name in dir() if not name.startswith("_")]
