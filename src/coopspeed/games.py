"""Token-conflict games.

A conflict between holders of the same time token is settled by a
three-tier pairwise game: urgency mode first, credit points second, and
a random-draw procedure against the traffic light as the final
tie-break.  Every pair game moves one credit point from the winner to
the loser, so total credits are conserved.  Groups larger than two run
a single-elimination ladder of pair games.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Mapping, NamedTuple


class Mode(IntEnum):
    """Urgency level; higher value wins the first game tier."""

    RELAXED = 0
    NORMAL = 1
    RUSH = 2


class CreditLedger:
    """Per-vehicle credit points; conserved by every pair game."""

    def __init__(self) -> None:
        self._credits: dict[int, int] = {}

    def get(self, vin: int) -> int:
        return self._credits.get(vin, 0)

    def set(self, vin: int, value: int) -> None:
        self._credits[vin] = value

    def transfer(self, winner: int, loser: int) -> None:
        """Winner pays one credit point to the loser."""
        self._credits[winner] = self.get(winner) - 1
        self._credits[loser] = self.get(loser) + 1

    def total(self) -> int:
        return sum(self._credits.values())


class PairOutcome(NamedTuple):
    winner: int
    loser: int
    tier: int  # 1 = mode, 2 = credits, 3 = random draw


Player = tuple[int, Mode, int]  # (vin, mode, credit points)


def play_pair(a: Player, b: Player, rng, tl_rng) -> PairOutcome:
    """Two-player precedence game; returns who keeps the token.

    Tier 3 has each vehicle and the light draw a uniform number in
    [0, 1); the vehicle whose draw lies closest to the light's wins.
    An exact distance tie (measure zero) is re-drawn.
    """
    vin_a, mode_a, cp_a = a
    vin_b, mode_b, cp_b = b
    if vin_a == vin_b:
        raise ValueError("a pair game needs two distinct vehicles")
    if mode_a != mode_b:
        winner = vin_a if mode_a > mode_b else vin_b
        tier = 1
    elif cp_a != cp_b:
        winner = vin_a if cp_a > cp_b else vin_b
        tier = 2
    else:
        tier = 3
        while True:
            tl_draw = tl_rng.random()
            d_a = abs(tl_draw - rng.random())
            d_b = abs(tl_draw - rng.random())
            if d_a != d_b:
                winner = vin_a if d_a < d_b else vin_b
                break
    loser = vin_b if winner == vin_a else vin_a
    return PairOutcome(winner, loser, tier)


@dataclass
class ConflictResult:
    winner: int
    losers: list[int]
    rounds: list[PairOutcome] = field(default_factory=list)


def resolve_conflict(
    modes: Mapping[int, Mode],
    ledger: CreditLedger,
    rng,
    tl_rng,
) -> ConflictResult:
    """Single-elimination ladder over the conflict group, the vins of
    ``modes`` (each claimant's urgency mode).

    Pairing order is ascending VIN.  Credits move after every sub-game,
    so a mid-ladder win can decide a later credit tier.  A group of k
    vehicles settles in exactly k - 1 sub-games.
    """
    vins = sorted(modes)
    if len(vins) < 2:
        raise ValueError("a conflict needs at least two vehicles")
    rounds: list[PairOutcome] = []
    champ = vins[0]
    for challenger in vins[1:]:
        outcome = play_pair(
            (champ, modes[champ], ledger.get(champ)),
            (challenger, modes[challenger], ledger.get(challenger)),
            rng,
            tl_rng,
        )
        ledger.transfer(outcome.winner, outcome.loser)
        rounds.append(outcome)
        champ = outcome.winner
    losers = [v for v in vins if v != champ]
    return ConflictResult(winner=champ, losers=losers, rounds=rounds)

