"""Green-window time tokens: slot arithmetic, the claim table, allocation.

Each green phase is partitioned into service slots of duration ``1/mu``
(one departure per slot).  Slots are anchored to the start of the green
window; the first ``N_q`` slots are implicitly reserved for the standing
queue and never offered to approaching vehicles.  A vehicle requests the
slot containing its projected arrival.

The table is keyed by vehicle: each vehicle claims at most one slot, and
a new claim moves its old one.  A claim is the vehicle's token; there is
no other record of it.  Two vehicles can still claim one slot when their
requests land on it in the same round; those are the conflicts the
precedence games settle.  After ``allocation_round`` every slot has at
most one claimant.  ``arrival_window`` turns a slot into the arrival
times that meet it, for the round and the planner alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .games import CreditLedger, Mode, resolve_conflict
from .planner import speed_band
from .signals import SignalState


def token_window(tau: int, mu: float) -> tuple[float, float]:
    """Boundaries of slot ``tau``: ((tau-1)/mu, tau/mu) after the green start."""
    if tau < 1:
        raise ValueError("token index must be >= 1")
    if mu <= 0:
        raise ValueError("departure rate mu must be positive")
    tsd = 1.0 / mu
    return (tau - 1) * tsd, tau * tsd


class TokenTable:
    """Per-approach, per-cycle claims on green-window slots, keyed by vehicle."""

    def __init__(self, mu: float, n_dep: int, cycle_id: int = 0) -> None:
        if mu <= 0:
            raise ValueError("departure rate mu must be positive")
        self.mu = mu
        self.n_dep = n_dep
        self.cycle_id = cycle_id
        self._slot_of: dict[int, int] = {}

    def claim(self, slot: int, vin: int) -> None:
        """Claim ``slot`` for ``vin``, replacing any earlier claim of ``vin``."""
        self._slot_of[vin] = slot

    def claimants(self, slot: int) -> tuple[int, ...]:
        return tuple(sorted(vin for vin, s in self._slot_of.items() if s == slot))

    def holder(self, slot: int) -> int | None:
        """Sole claimant of ``slot``, or None while free or contested."""
        vins = self.claimants(slot)
        return vins[0] if len(vins) == 1 else None

    def slot_of(self, vin: int) -> int | None:
        return self._slot_of.get(vin)

    def claimed(self) -> set[int]:
        """Slots with at least one claimant."""
        return set(self._slot_of.values())

    def requests(self) -> list[tuple[int, int]]:
        """All (vin, slot) claims, ordered by slot then vin."""
        return sorted(self._slot_of.items(), key=lambda claim: (claim[1], claim[0]))

    def release(self, vin: int) -> bool:
        """Free the slot claimed by ``vin``; no-op returning False if none."""
        return self._slot_of.pop(vin, None) is not None

    def clear(self, cycle_id: int) -> None:
        """Start a fresh cycle; all outstanding tokens expire."""
        self.cycle_id = cycle_id
        self._slot_of.clear()


def slot_for_arrival(tti: float, state: SignalState, mu: float, n_dep: int) -> int | None:
    """Slot index containing the projected arrival, or None.

    Slots the standing queue (``state.queue_len``) discharges through are
    never returned.
    """
    if tti <= 0:
        return None
    tsd = 1.0 / mu
    n_q = state.queue_len
    if state.approach_green:
        r_g = state.remaining
        if tti > r_g:
            return None
        # Slots are anchored to the green start, so shift by elapsed green.
        h = tti + (state.green_s - r_g)
    else:
        r_r = state.remaining
        if tti < r_r:
            return None
        if not (tti > r_r + tsd * n_q and tti <= r_r + state.green_s):
            return None
        h = tti - r_r
    for j in range(n_q + 1, n_dep + 1):
        if (j - 1) * tsd <= h <= j * tsd:
            return j
    return None


def detect_conflicts(requests: Iterable[tuple[int, int]]) -> dict[int, list[int]]:
    """Group request (vin, tau) pairs by token; keep groups of two or more."""
    by_tau: dict[int, list[int]] = {}
    for vin, tau in requests:
        by_tau.setdefault(tau, []).append(vin)
    return {tau: sorted(vins) for tau, vins in sorted(by_tau.items()) if len(vins) > 1}


def arrival_window(tau: int, mu: float, state: SignalState) -> tuple[float, float]:
    """Arrival times, in seconds from now, that meet slot ``tau``.

    The slot's end is pulled in by ``state.green_end_margin_s`` so that
    arrivals dodge the all-red gap.  In green the window is shifted by the
    green already elapsed and opens no earlier than now; in red it is
    offset by the red remaining.
    """
    a, b = token_window(tau, mu)
    b = min(b, state.green_s - state.green_end_margin_s)
    if state.approach_green:
        elapsed = state.green_s - state.remaining
        return max(0.0, a - elapsed), b - elapsed
    r_r = state.remaining
    return r_r + a, r_r + b


@dataclass(slots=True)
class Approacher:
    """One vehicle taking part in a light's allocation round.

    ``cap`` is the highest speed the vehicle can plan for (the road limit
    or what its leader allows).
    """

    vin: int
    dist: float  # meters to the stop line
    speed: float
    cap: float
    mode: Mode


def _request_tti(e: Approacher, state: SignalState) -> float | None:
    """Arrival time the vehicle submits with a request, or None.

    In green, a vehicle that would miss the green at its current speed
    submits its arrival at ``cap`` when that still makes it.
    """
    if e.speed <= 0:
        return None
    tti = e.dist / e.speed
    if state.approach_green:
        r_g = state.remaining
        if tti <= r_g:
            return tti
        if e.cap > 0 and e.dist / e.cap <= r_g and tti <= r_g + state.red_s:
            return e.dist / e.cap
        return None
    r_r = state.remaining
    if r_r < tti <= r_r + state.green_s:
        return tti
    return None


def _reachable(slot: int, e: Approacher, state: SignalState, table: TokenTable,
               v_min: float) -> bool:
    """Can the vehicle still arrive inside the slot's arrival window?

    The planner's own band test decides, so a slot the round keeps is one
    the planner can aim at.  Slots the standing queue discharges through
    never are reachable.
    """
    return (slot > state.queue_len
            and speed_band(e.dist, arrival_window(slot, table.mu, state), v_min, e.cap)
            is not None)


def _first_free_reachable(e: Approacher, state: SignalState, table: TokenTable,
                          v_min: float, occupied: set[int], start: int = 1) -> int | None:
    """First unclaimed, reachable slot at or after ``start``.

    Scanning forward from the natural arrival slot keeps allocation
    roughly first-come-first-served: a vehicle slows into a later free
    slot rather than racing ahead of traffic for an early one.
    """
    for j in range(max(start, state.queue_len + 1), table.n_dep + 1):
        if j not in occupied and _reachable(j, e, state, table, v_min):
            return j
    return None


def arrival_slots(vehicles: Iterable[Approacher], state: SignalState, mu: float,
                  n_dep: int) -> dict[int, int]:
    """``vin -> slot`` for each vehicle whose arrival falls in a slot.

    The non-cooperative round: every vehicle takes its own arrival slot
    and assumes it free, with no table and no games.
    """
    slots: dict[int, int] = {}
    for e in vehicles:
        tti = _request_tti(e, state)
        slot = None if tti is None else slot_for_arrival(tti, state, mu, n_dep)
        if slot is not None:
            slots[e.vin] = slot
    return slots


def allocation_round(
    table: TokenTable,
    state: SignalState,
    v_min: float,
    vehicles: Sequence[Approacher],
    ledger: CreditLedger,
    rng,
    tl_rng,
) -> dict[int, int]:
    """One cooperative allocation round for one light; returns ``vin ->
    slot`` for every vehicle left holding a slot.

    ``vehicles`` are the light's approaching, unqueued vehicles in
    ascending VIN order.  The table's claims are the tokens, and the round
    changes only the table, in order:

    * a claim on a slot the vehicle can no longer reach is released;
    * a claimant moves up to the first free slot it can reach, if that is
      earlier than its own;
    * a vehicle without a claim requests its arrival slot, or else the
      first free slot it can reach.  Requests act on the table as it
      stood at the start of the round, so two can land on one slot;
    * each contested slot is settled by the games (``rng`` and ``tl_rng``
      drive their random tier, credits move in ``ledger``).  A loser
      claims the first free slot it can reach at or after the lost one,
      or is left without a claim.
    """
    occupied_before = table.claimed()
    for e in vehicles:
        held = table.slot_of(e.vin)
        if held is not None and not _reachable(held, e, state, table, v_min):
            table.release(e.vin)
            held = None
        if held is not None:
            upgrade = _first_free_reachable(e, state, table, v_min, table.claimed())
            if upgrade is not None and upgrade < held:
                table.claim(upgrade, e.vin)
            continue
        tti = _request_tti(e, state)
        if tti is None:
            continue
        slot = slot_for_arrival(tti, state, table.mu, table.n_dep)
        if slot is None or slot in occupied_before:
            slot = _first_free_reachable(e, state, table, v_min, occupied_before)
        if slot is not None:
            table.claim(slot, e.vin)

    by_vin = {e.vin: e for e in vehicles}
    for tau, group in detect_conflicts(table.requests()).items():
        modes = {vin: by_vin[vin].mode for vin in group}
        result = resolve_conflict(group, modes, ledger, rng, tl_rng)
        live = table.claimed()
        for vin in result.losers:
            table.release(vin)
            alt = _first_free_reachable(by_vin[vin], state, table, v_min, live, start=tau)
            if alt is not None:
                table.claim(alt, vin)
                live.add(alt)
    return dict(table.requests())
