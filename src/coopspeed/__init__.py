"""Cooperative speed optimization and time-token allocation for signalized corridors."""

from .bargain import (
    CharacteristicFunction,
    buyer_seller_cf,
    enumerate_core,
    in_core,
    is_efficient,
    is_individually_rational,
    marginal_contribution,
    marginal_contribution_set,
    satisfies_mc_principle,
)
from .energy import EnergyParams, energy_model
from .games import (
    ConflictResult,
    CreditLedger,
    Mode,
    NormalFormGame2x2,
    PairOutcome,
    pareto_optimal,
    play_pair,
    pure_nash,
    resolve_conflict,
)
from .planner import KinematicState, Objective, PlanResult, density_speed, plan, plan_to_window
from .signals import (
    Approach,
    Phase,
    SignalConfig,
    SignalState,
    departures_per_green,
    queue_clear_time,
    state_at,
)
from .tokens import (
    Approacher,
    TimeToken,
    TokenTable,
    allocation_round,
    detect_conflicts,
    slot_for_arrival,
    token_window,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
