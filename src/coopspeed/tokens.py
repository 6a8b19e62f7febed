"""Green-window time tokens: slot arithmetic, the claim table, allocation.

Each green phase is partitioned into service slots of duration ``1/mu``
(one departure per slot).  Slots are anchored to the start of the green
window; the first ``N_q`` slots are implicitly reserved for the standing
queue and never offered to approaching vehicles.  A vehicle requests the
first slot whose arrival window holds its projected arrival, the slot
``arrival_slot`` finds for both techniques.

The table is keyed by vehicle: each vehicle claims at most one slot, and
a new claim moves its old one.  A claim is the vehicle's token; there is
no other record of it.  Two vehicles can still claim one slot when their
requests land on it in the same round.  The round finds those conflicts
in its count of claimants per slot, and the precedence games settle
them.  After ``allocation_round`` every slot has at most one claimant.
Each table holds its slots' arrival offsets from the green start,
computed once when it is built (``TokenTable.offsets``), and
``arrival_window`` shifts one slot's offsets by the signal phase: it is
the one mapping from a slot to the arrival times that meet it.  The
table is a round's only output; the planner aims at the window of a
holder's slot in the table's window list (``TokenTable.windows``), which
the round fills.

A round's participants are the light's approaching vehicles that hold a
claim or submit a request (``request_tti`` is not None).  Any other
vehicle leaves the table, the credits and the games' draws untouched,
so the engine leaves it out.  The non-cooperative technique runs no
round and reads no claim: as it plans, each vehicle that submits a
request aims at the window of the slot ``arrival_slot`` finds, which the
search reads from the table's list, extending it as far as it needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .games import CreditLedger, Mode, resolve_conflict
from .planner import speed_band
from .signals import SignalState


class TokenTable:
    """One light's green-window slots: their claims, keyed by vehicle, and
    their arrival windows for the step.

    ``offsets[tau]``, fixed for the run, is the span of arrival times after
    the green start that meets slot ``tau`` of ``n_dep``: ((tau-1)/mu,
    tau/mu), its end pulled in to ``green_end`` so that arrivals dodge the
    all-red gap.  Index 0 holds None.

    ``windows``, indexed by slot, holds None for index 0 and the slots the
    standing queue discharges through (``reset_windows``), then the windows
    under the step's signal state as far as they were built:
    ``allocation_round`` builds them all, ``arrival_slot`` only as far as
    its search reaches.
    """

    def __init__(self, mu: float, n_dep: int, green_end: float) -> None:
        if mu <= 0:
            raise ValueError("departure rate mu must be positive")
        tsd = 1.0 / mu
        self.offsets: list[tuple[float, float] | None] = [None]
        for tau in range(1, n_dep + 1):
            b = tau * tsd
            self.offsets.append(((tau - 1) * tsd, green_end if green_end < b else b))
        self.n_dep = n_dep
        self.windows: list[tuple[float, float] | None] = [None]
        self._slot_of: dict[int, int] = {}

    def reset_windows(self, queue_len: int) -> None:
        """Start the step's window list for a queue of ``queue_len``."""
        self.windows = [None] * (queue_len + 1)

    def claim(self, slot: int, vin: int) -> None:
        """Claim ``slot`` for ``vin``, replacing any earlier claim of ``vin``."""
        self._slot_of[vin] = slot

    def slot_of(self, vin: int) -> int | None:
        return self._slot_of.get(vin)

    def occupancy(self) -> list[int]:
        """Number of claimants of each slot, indexed by slot (0 unused)."""
        counts = [0] * (self.n_dep + 1)
        for slot in self._slot_of.values():
            counts[slot] += 1
        return counts

    def requests(self) -> list[tuple[int, int]]:
        """All (vin, slot) claims, ordered by slot then vin."""
        return sorted(self._slot_of.items(), key=lambda claim: (claim[1], claim[0]))

    def release(self, vin: int) -> bool:
        """Free the slot claimed by ``vin``; no-op returning False if none."""
        return self._slot_of.pop(vin, None) is not None

    def clear(self) -> None:
        """All outstanding tokens expire: the light has turned red."""
        self._slot_of.clear()


def arrival_window(offset: tuple[float, float], state: SignalState) -> tuple[float, float]:
    """Arrival times, in seconds from now, that meet the slot whose arrival
    times after the green start are ``offset`` (its ``TokenTable.offsets``).

    In green the offsets are shifted back by the green already elapsed and
    the window opens no earlier than now; in red they are shifted on by the
    red remaining.
    """
    a, b = offset
    if state.approach_green:
        elapsed = state.green_s - state.remaining
        a -= elapsed
        return (a if a > 0.0 else 0.0), b - elapsed
    r_r = state.remaining
    return r_r + a, r_r + b


@dataclass(slots=True)
class Approacher:
    """One vehicle taking part in a light's allocation round.

    ``cap`` is the highest speed the vehicle can plan for (the road limit
    or what its leader allows).  ``tti`` is the arrival time it submits
    with a request, ``request_tti`` of its distance, speed and cap under
    the round's signal state, or None when it requests nothing.
    """

    vin: int
    dist: float  # meters to the stop line
    cap: float
    mode: Mode
    tti: float | None


def request_tti(dist: float, speed: float, cap: float, state: SignalState) -> float | None:
    """Arrival time a vehicle ``dist`` m before the line at ``speed`` submits
    with a request, or None when it requests nothing.

    In green, a vehicle that would miss the green at its current speed
    submits its arrival at ``cap`` when that still makes it.
    """
    if speed <= 0:
        return None
    tti = dist / speed
    if state.approach_green:
        r_g = state.remaining
        if tti <= r_g:
            return tti
        if cap > 0 and dist / cap <= r_g and tti <= r_g + state.red_s:
            return dist / cap
        return None
    r_r = state.remaining
    if r_r < tti <= r_r + state.green_s:
        return tti
    return None


def arrival_slot(tti: float, table: TokenTable, state: SignalState) -> int | None:
    """First slot of ``table`` whose window under ``state`` holds ``tti``, or None.

    The search appends a window to ``table.windows`` only when it reaches a
    slot the list lacks.  It stops at the first window that opens after
    ``tti``: window starts never decrease in slot order, so no later window
    holds it.
    """
    windows, offsets = table.windows, table.offsets
    for j in range(state.queue_len + 1, len(offsets)):
        if j == len(windows):
            windows.append(arrival_window(offsets[j], state))
        window = windows[j]
        if window[0] > tti:
            return None
        if tti <= window[1]:
            return j
    return None


def _reachable(slot: int, e: Approacher, windows: list[tuple[float, float] | None],
               v_min: float) -> bool:
    """Can the vehicle still arrive inside the slot's arrival window?

    The planner's own band test decides, so a slot the round keeps is one
    the planner can aim at.  Slots the standing queue discharges through
    never are reachable.
    """
    window = windows[slot]
    return window is not None and speed_band(e.dist, window, v_min, e.cap) is not None


def _first_free_reachable(e: Approacher, windows: list[tuple[float, float] | None],
                          v_min: float, occupied: list[int], start: int,
                          stop: int) -> int | None:
    """First slot in [``start``, ``stop``) with no claimant in ``occupied``
    (claimants per slot) that the vehicle can reach.

    A fresh request's fallback and a holder's upgrade scan from the first
    slot the queue leaves free (an upgrade stops at the held slot); a
    game's loser scans from the slot it lost.  Either way the vehicle
    gets the earliest free slot it can meet in that range.

    The scan ends at the first free slot it cannot reach that opens too
    late, one the vehicle would reach before it opens even at ``v_min``:
    window starts never decrease in slot order and correctly rounded
    division keeps ``dist / t_lo`` from increasing, so every later slot
    opens too late as well, and none left in the range is reachable.
    """
    dist = e.dist
    for j in range(start, stop):
        if occupied[j]:
            continue
        if _reachable(j, e, windows, v_min):
            return j
        t_lo = windows[j][0]
        if t_lo > 0.0 and dist / t_lo < v_min:
            return None
    return None


def allocation_round(
    table: TokenTable,
    state: SignalState,
    v_min: float,
    vehicles: Sequence[Approacher],
    ledger: CreditLedger,
    rng,
    tl_rng,
) -> None:
    """One cooperative allocation round for one light; the table is its
    only output.  The round fills ``table.windows``, the step's window list
    under ``state``, in place up to slot ``table.n_dep``, so a holder reads
    its window there at the slot it holds.

    ``vehicles`` are the light's approaching, unqueued vehicles in
    ascending VIN order.  Only a vehicle that holds a claim in ``table``
    or submits a request (``tti`` is not None) can change anything, so a
    caller may leave every other vehicle out.  The table's claims are the
    tokens, and the round changes only the table, in order:

    * a claim on a slot the vehicle can no longer reach is released;
    * a claimant moves up to the first free slot it can reach, if that is
      earlier than its own;
    * a vehicle without a claim requests its arrival slot, the first
      slot whose arrival window holds its ``tti``, and claims it if it
      was free and the vehicle can reach it; or else it claims the first
      free slot it can reach.  So every fresh claim is reachable.
      Requests act on the table as it stood at the start of the round,
      so two can land on one slot;
    * each contested slot is settled by the games (``rng`` and ``tl_rng``
      drive their random tier, credits move in ``ledger``).  A loser
      claims the first free slot it can reach at or after the lost one,
      or is left without a claim.

    The round skips what cannot change a decision.  It counts slot
    occupancy once and keeps the count up to date with every claim and
    release.  It computes each slot's arrival window once and stops a
    claimant's upgrade scan at the claimant's own slot.  The count also
    names the contested slots, which the games settle in ascending slot
    order.  A loser moves only to a slot nobody claims, so it never joins
    a contested slot still to be settled.
    """
    offsets, windows = table.offsets, table.windows
    first = state.queue_len + 1  # the first slot the queue leaves free
    end = table.n_dep + 1
    windows.extend(arrival_window(offsets[j], state) for j in range(len(windows), end))
    live = table.occupancy()
    before = live.copy()  # occupancy at the start of the round
    for e in vehicles:
        vin = e.vin
        held = table.slot_of(vin)
        if held is not None:
            if _reachable(held, e, windows, v_min):
                upgrade = _first_free_reachable(e, windows, v_min, live, first, held)
                if upgrade is not None:
                    table.claim(upgrade, vin)
                    live[held] -= 1
                    live[upgrade] += 1
                continue
            table.release(vin)
            live[held] -= 1
        if e.tti is None:
            continue
        slot = arrival_slot(e.tti, table, state)
        if slot is None or before[slot] or not _reachable(slot, e, windows, v_min):
            slot = _first_free_reachable(e, windows, v_min, before, first, end)
        if slot is not None:
            table.claim(slot, vin)
            live[slot] += 1

    slot_of = table.slot_of
    if max(live) > 1:
        by_vin = {e.vin: e for e in vehicles}
        for tau in range(first, end):
            if live[tau] < 2:
                continue
            modes = {e.vin: e.mode for e in vehicles if slot_of(e.vin) == tau}
            result = resolve_conflict(modes, ledger, rng, tl_rng)
            for vin in result.losers:
                table.release(vin)
                live[tau] -= 1
                alt = _first_free_reachable(by_vin[vin], windows, v_min, live, tau, end)
                if alt is not None:
                    table.claim(alt, vin)
                    live[alt] += 1
