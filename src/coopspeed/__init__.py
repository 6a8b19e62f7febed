"""Cooperative speed optimization and time-token allocation for signalized corridors."""

from .energy import EnergyParams, energy_model
from .games import (
    ConflictResult,
    CreditLedger,
    Mode,
    PairOutcome,
    play_pair,
    resolve_conflict,
)
from .planner import KinematicState, Objective, PlanResult, density_speed, plan, plan_to_window
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
    arrival_slots,
    arrival_window,
    detect_conflicts,
    slot_for_arrival,
    token_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
