import random

import pytest

from coopspeed.games import (
    CreditLedger,
    Mode,
    NormalFormGame2x2,
    pareto_optimal,
    play_pair,
    pure_nash,
    resolve_conflict,
)


class ScriptedRng:
    """Deterministic .random() source for draw-procedure tests."""

    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


def test_mode_tier_decides_first():
    out = play_pair((1, Mode.RUSH, 0), (2, Mode.NORMAL, 99), ScriptedRng([]), ScriptedRng([]))
    assert out.winner == 1 and out.loser == 2 and out.tier == 1


def test_credit_tier_when_modes_equal():
    out = play_pair((1, Mode.NORMAL, 3), (2, Mode.NORMAL, 1), ScriptedRng([]), ScriptedRng([]))
    assert out.winner == 1 and out.tier == 2


def test_random_tier_closest_to_light_wins():
    # Light draws 0.5; vehicles draw 0.4 and 0.9; |0.1| < |0.4|.
    out = play_pair(
        (1, Mode.NORMAL, 0), (2, Mode.NORMAL, 0),
        rng=ScriptedRng([0.4, 0.9]), tl_rng=ScriptedRng([0.5]),
    )
    assert out.winner == 1 and out.tier == 3


def test_random_tier_redraws_exact_tie():
    out = play_pair(
        (1, Mode.NORMAL, 0), (2, Mode.NORMAL, 0),
        rng=ScriptedRng([0.4, 0.6, 0.3, 0.45]), tl_rng=ScriptedRng([0.5, 0.5]),
    )
    assert out.winner == 2 and out.tier == 3


def test_play_pair_rejects_same_vehicle():
    with pytest.raises(ValueError):
        play_pair((1, Mode.NORMAL, 0), (1, Mode.NORMAL, 0), ScriptedRng([]), ScriptedRng([]))


def test_ladder_size_and_credit_conservation():
    rng = random.Random(21)
    tl_rng = random.Random(42)
    for _ in range(300):
        k = rng.randint(2, 6)
        vins = list(range(1, k + 1))
        modes = {v: Mode(rng.randint(0, 2)) for v in vins}
        ledger = CreditLedger()
        for v in vins:
            ledger.set(v, rng.randint(-3, 3))
        before = ledger.total()
        result = resolve_conflict(vins, modes, ledger, rng, tl_rng)
        assert len(result.rounds) == k - 1
        assert ledger.total() == before
        assert result.winner not in result.losers
        assert sorted(result.losers + [result.winner]) == vins


def test_unique_top_mode_always_wins():
    rng = random.Random(5)
    tl_rng = random.Random(6)
    for _ in range(200):
        k = rng.randint(2, 5)
        vins = list(range(1, k + 1))
        rusher = rng.choice(vins)
        modes = {v: (Mode.RUSH if v == rusher else Mode(rng.randint(0, 1))) for v in vins}
        ledger = CreditLedger()
        result = resolve_conflict(vins, modes, ledger, rng, tl_rng)
        assert result.winner == rusher


def test_tournament_is_deterministic_under_fixed_seeds():
    def run():
        rng = random.Random(123)
        tl_rng = random.Random(456)
        ledger = CreditLedger()
        modes = {v: Mode.NORMAL for v in range(1, 6)}
        outs = []
        for _ in range(20):
            outs.append(resolve_conflict([1, 2, 3, 4, 5], modes, ledger, rng, tl_rng).winner)
        return outs

    assert run() == run()


def test_winner_pays_loser_exactly_one_credit():
    ledger = CreditLedger()
    ledger.set(1, 2)
    ledger.set(2, 0)
    result = resolve_conflict([1, 2], {1: Mode.RUSH, 2: Mode.NORMAL}, ledger,
                              random.Random(0), random.Random(1))
    assert result.winner == 1
    assert ledger.get(1) == 1 and ledger.get(2) == 1


TABLE2 = NormalFormGame2x2(costs=(((4, 4), (0, 2)), ((2, 0), (3, 3))))


def brute_nash(game):
    c = game.costs
    out = set()
    for i in (0, 1):
        for j in (0, 1):
            row_ok = all(c[i][j][0] <= c[i2][j][0] for i2 in (0, 1))
            col_ok = all(c[i][j][1] <= c[i][j2][1] for j2 in (0, 1))
            if row_ok and col_ok:
                out.add((i, j))
    return out


def brute_pareto(game):
    c = game.costs
    cells = {(i, j): c[i][j] for i in (0, 1) for j in (0, 1)}
    out = set()
    for p, (pa, pb) in cells.items():
        if not any(
            qa <= pa and qb <= pb and (qa, qb) != (pa, pb) and (qa < pa or qb < pb)
            for q, (qa, qb) in cells.items()
            if q != p
        ):
            out.add(p)
    return out


def test_example_game_equilibria():
    assert pure_nash(TABLE2) == {(0, 1), (1, 0)}
    assert pure_nash(TABLE2) == brute_nash(TABLE2)


def test_example_game_pareto():
    po = pareto_optimal(TABLE2)
    assert (0, 0) not in po  # (4,4) is dominated by (3,3)
    assert {(0, 1), (1, 0)} <= po
    assert po == brute_pareto(TABLE2)
    # Both equilibria are Pareto optimal.
    assert pure_nash(TABLE2) <= po


def test_identical_costs_make_every_profile_nash_and_pareto():
    g = NormalFormGame2x2(costs=(((1, 1), (1, 1)), ((1, 1), (1, 1))))
    everything = {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert pure_nash(g) == everything
    assert pareto_optimal(g) == everything


def test_nash_pareto_match_brute_force_on_random_games():
    rng = random.Random(77)
    for _ in range(300):
        c = tuple(
            tuple((rng.randint(0, 5), rng.randint(0, 5)) for _ in (0, 1)) for _ in (0, 1)
        )
        g = NormalFormGame2x2(costs=c)
        assert pure_nash(g) == brute_nash(g)
        assert pareto_optimal(g) == brute_pareto(g)


def test_negative_costs_rejected():
    with pytest.raises(ValueError):
        NormalFormGame2x2(costs=(((-1, 0), (0, 0)), ((0, 0), (0, 0))))

