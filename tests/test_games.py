import random

import pytest

from coopspeed.games import (
    CreditLedger,
    Mode,
    play_pair,
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
        result = resolve_conflict(modes, ledger, rng, tl_rng)
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
        result = resolve_conflict(modes, ledger, rng, tl_rng)
        assert result.winner == rusher


def test_tournament_is_deterministic_under_fixed_seeds():
    def run():
        rng = random.Random(123)
        tl_rng = random.Random(456)
        ledger = CreditLedger()
        modes = {v: Mode.NORMAL for v in range(1, 6)}
        outs = []
        for _ in range(20):
            outs.append(resolve_conflict(modes, ledger, rng, tl_rng).winner)
        return outs

    assert run() == run()


def test_winner_pays_loser_exactly_one_credit():
    ledger = CreditLedger()
    ledger.set(1, 2)
    ledger.set(2, 0)
    result = resolve_conflict({1: Mode.RUSH, 2: Mode.NORMAL}, ledger,
                              random.Random(0), random.Random(1))
    assert result.winner == 1
    assert ledger.get(1) == 1 and ledger.get(2) == 1

