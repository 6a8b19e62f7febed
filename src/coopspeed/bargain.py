"""Coalitional credit-point bargaining.

A characteristic function maps every coalition of trading agents to the
value it can secure on its own.  The solution concept is the core: the
efficient allocations no coalition can improve upon.  Core members are
found on a discrete value lattice by backtracking search with
bound-based pruning; membership of an arbitrary allocation can be
checked directly.

This is a standalone analysis module: the corridor engine does not call
it, and credits in a simulation move only through the precedence games.
"""

from __future__ import annotations

import math
from itertools import chain, combinations
from typing import Iterable, Mapping, Sequence

_TOL = 1e-9

PlayerId = int | str


def _subsets(players: Sequence[PlayerId]) -> Iterable[frozenset]:
    return (
        frozenset(c)
        for c in chain.from_iterable(
            combinations(players, r) for r in range(len(players) + 1)
        )
    )


class CharacteristicFunction:
    """Value of every coalition of a finite player set.

    Coalitions absent from ``values`` are worth 0; the empty coalition
    must be worth 0 and all values must be non-negative.
    """

    def __init__(
        self,
        players: Sequence[PlayerId],
        values: Mapping[Iterable[PlayerId] | frozenset, float],
    ) -> None:
        if len(set(players)) != len(players) or not players:
            raise ValueError("players must be a non-empty sequence of unique ids")
        self.players: tuple[PlayerId, ...] = tuple(players)
        self._values: dict[frozenset, float] = {frozenset(): 0.0}
        pset = frozenset(players)
        for coalition, value in values.items():
            s = frozenset(coalition if not isinstance(coalition, str) else [coalition])
            if not s <= pset:
                raise ValueError(f"coalition {set(s)} contains unknown players")
            if value < 0:
                raise ValueError("coalition values must be non-negative")
            if not s and value != 0:
                raise ValueError("the empty coalition must be worth 0")
            self._values[s] = float(value)

    def value(self, coalition: Iterable[PlayerId]) -> float:
        s = frozenset(coalition)
        if not s <= frozenset(self.players):
            raise ValueError(f"coalition {set(s)} contains unknown players")
        return self._values.get(s, 0.0)

    def grand_value(self) -> float:
        return self.value(self.players)

    def coalitions(self) -> Iterable[frozenset]:
        return _subsets(self.players)


def marginal_contribution(cf: CharacteristicFunction, player: PlayerId) -> float:
    """Value lost if ``player`` leaves the grand coalition."""
    if player not in cf.players:
        raise ValueError(f"unknown player {player!r}")
    rest = [p for p in cf.players if p != player]
    return cf.grand_value() - cf.value(rest)


def marginal_contribution_set(
    cf: CharacteristicFunction, coalition: Iterable[PlayerId]
) -> float:
    """Value lost if the whole ``coalition`` leaves the grand coalition."""
    s = frozenset(coalition)
    rest = [p for p in cf.players if p not in s]
    return cf.grand_value() - cf.value(rest)


def _amounts(
    x: Mapping[PlayerId, float] | Sequence[float], cf: CharacteristicFunction
) -> tuple[float, ...]:
    if isinstance(x, Mapping):
        missing = [p for p in cf.players if p not in x]
        if missing:
            raise ValueError(f"allocation misses players {missing}")
        return tuple(float(x[p]) for p in cf.players)
    if len(x) != len(cf.players):
        raise ValueError("allocation length must match the player count")
    return tuple(float(v) for v in x)


def is_individually_rational(
    x: Mapping[PlayerId, float] | Sequence[float], cf: CharacteristicFunction
) -> bool:
    amounts = _amounts(x, cf)
    return all(
        v >= cf.value([p]) - _TOL for v, p in zip(amounts, cf.players)
    )


def is_efficient(
    x: Mapping[PlayerId, float] | Sequence[float], cf: CharacteristicFunction
) -> bool:
    return math.isclose(sum(_amounts(x, cf)), cf.grand_value(), abs_tol=1e-6)


def satisfies_mc_principle(
    x: Mapping[PlayerId, float] | Sequence[float], cf: CharacteristicFunction
) -> bool:
    amounts = _amounts(x, cf)
    return all(
        v <= marginal_contribution(cf, p) + _TOL
        for v, p in zip(amounts, cf.players)
    )


def in_core(
    x: Mapping[PlayerId, float] | Sequence[float], cf: CharacteristicFunction
) -> bool:
    """True iff ``x`` is efficient and no coalition prefers to defect."""
    amounts = _amounts(x, cf)
    if not is_efficient(amounts, cf):
        return False
    by_player = dict(zip(cf.players, amounts))
    for coalition in cf.coalitions():
        if sum(by_player[p] for p in coalition) < cf.value(coalition) - _TOL:
            return False
    return True


def enumerate_core(
    cf: CharacteristicFunction, granularity: float = 1.0
) -> list[tuple[float, ...]]:
    """All core allocations on the ``granularity`` lattice, sorted
    lexicographically in player order.

    Backtracking search over one player at a time.  Domains run from the
    player's singleton value up to its marginal contribution (both are
    necessary conditions for core membership), tightened by how much of
    the grand value the remaining players can still absorb; coalition
    constraints are checked as soon as all their members are assigned.
    """
    if granularity <= 0:
        raise ValueError("granularity must be positive")
    grand = cf.grand_value()
    units = grand / granularity
    if abs(units - round(units)) > 1e-6:
        raise ValueError("grand coalition value must be a multiple of granularity")
    units = round(units)

    n = len(cf.players)

    def to_units_ceil(v: float) -> int:
        return math.ceil(v / granularity - 1e-9)

    def to_units_floor(v: float) -> int:
        return math.floor(v / granularity + 1e-9)

    lower = [max(0, to_units_ceil(cf.value([p]))) for p in cf.players]
    upper = [
        min(units, to_units_floor(marginal_contribution(cf, p))) for p in cf.players
    ]
    if any(lo > up for lo, up in zip(lower, upper)):
        return []

    # Coalition lower bounds, indexed by the largest member position so
    # each is checked exactly when its last member gets a value.
    index = {p: i for i, p in enumerate(cf.players)}
    checks: list[list[tuple[tuple[int, ...], int]]] = [[] for _ in range(n)]
    for coalition in cf.coalitions():
        if not coalition or len(coalition) == n:
            continue
        members = tuple(sorted(index[p] for p in coalition))
        need = to_units_ceil(cf.value(coalition))
        if need > 0:
            checks[members[-1]].append((members, need))

    suffix_min = [0] * (n + 1)
    suffix_max = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_min[i] = suffix_min[i + 1] + lower[i]
        suffix_max[i] = suffix_max[i + 1] + upper[i]

    out: list[tuple[float, ...]] = []
    values = [0] * n

    def search(i: int, spent: int) -> None:
        if i == n:
            out.append(tuple(v * granularity for v in values))
            return
        left = units - spent
        lo = max(lower[i], left - suffix_max[i + 1])
        hi = min(upper[i], left - suffix_min[i + 1])
        for v in range(lo, hi + 1):
            values[i] = v
            if all(
                sum(values[m] for m in members) >= need
                for members, need in checks[i]
            ):
                search(i + 1, spent + v)

    search(0, 0)
    return out


def buyer_seller_cf(
    seller_price: float, buyer_valuations: Sequence[float]
) -> CharacteristicFunction:
    """Characteristic function of one seller offering a single credit point.

    Player 1 is the seller; players 2..n+1 are buyers with the given
    valuations.  A coalition is worth the best achievable trade surplus:
    the highest member valuation minus the price, when the seller is
    present and some member values the point at or above the price.
    """
    if seller_price < 0 or any(v < 0 for v in buyer_valuations):
        raise ValueError("price and valuations must be non-negative")
    if not buyer_valuations:
        raise ValueError("need at least one buyer")
    players = tuple(range(1, len(buyer_valuations) + 2))
    values: dict[frozenset, float] = {}
    for coalition in _subsets(players):
        if 1 not in coalition:
            continue
        surplus = max(
            (buyer_valuations[p - 2] - seller_price for p in coalition if p != 1),
            default=0.0,
        )
        if surplus > 0:
            values[coalition] = surplus
    return CharacteristicFunction(players, values)
