import random

import pytest

from coopspeed.games import CreditLedger, Mode
from coopspeed.signals import SignalState
from coopspeed.tokens import (
    Approacher,
    TokenTable,
    allocation_round,
    arrival_slots,
    arrival_window,
    detect_conflicts,
    slot_for_arrival,
    token_window,
)

MU = 0.333
TSD = 1.0 / MU
V_MIN = 2.78
V_MAX = 16.67


def green_state(remaining: float, queue: int = 0, green_s: float = 24.0) -> SignalState:
    return SignalState(
        approach_green=True, crossable=True, remaining=remaining,
        green_s=green_s, red_s=36.0, queue_len=queue,
    )


def red_state(remaining: float, queue: int = 0, green_s: float = 24.0) -> SignalState:
    return SignalState(
        approach_green=False, crossable=False, remaining=remaining,
        green_s=green_s, red_s=36.0, queue_len=queue,
    )


def fresh_table(n_dep: int = 8) -> TokenTable:
    return TokenTable(mu=MU, n_dep=n_dep)


def approacher(vin: int, tti: float, mode: Mode = Mode.NORMAL,
               speed: float = 10.0) -> Approacher:
    """Vehicle arriving in ``tti`` seconds at its current speed."""
    return Approacher(vin=vin, dist=tti * speed, speed=speed, cap=V_MAX, mode=mode)


def run_round(table, state, vehicles, ledger=None, seed=0):
    """The round's ``vin -> slot`` result."""
    ledger = CreditLedger() if ledger is None else ledger
    return allocation_round(table, state, V_MIN, vehicles, ledger, random.Random(seed),
                            random.Random(seed + 1))


def assert_one_claim_per_slot(table, slots):
    requests = table.requests()
    assert len({slot for _, slot in requests}) == len(requests)
    assert dict(requests) == slots


def test_token_window_values():
    a, b = token_window(1, MU)
    assert (a, b) == pytest.approx((0.0, 3.003), abs=0.001)
    a, b = token_window(3, MU)
    assert (a, b) == pytest.approx((6.006, 9.009), abs=0.001)


def test_token_window_errors():
    with pytest.raises(ValueError):
        token_window(0, MU)
    with pytest.raises(ValueError):
        token_window(1, 0.0)


def test_arrival_window_values():
    # Slot 7 spans 18.018-21.021 s after the green start and slot 8
    # 21.021-24.024 s; a 2.5 s margin ends every window by 24 - 2.5 = 21.5 s.
    # 6 s into the green, windows are shifted by the 6 s elapsed.
    state = green_state(18.0)
    state.green_end_margin_s = 2.5
    assert arrival_window(7, MU, state) == pytest.approx((12.018, 15.021), abs=0.001)
    assert arrival_window(8, MU, state) == pytest.approx((15.021, 15.5), abs=0.001)
    # A slot that opened 6 s into the green is open now.
    assert arrival_window(2, MU, state) == pytest.approx((0.0, 0.006), abs=0.001)
    state = red_state(12.0)
    state.green_end_margin_s = 2.5
    assert arrival_window(1, MU, state) == pytest.approx((12.0, 15.003), abs=0.001)
    assert arrival_window(8, MU, state) == pytest.approx((33.021, 33.5), abs=0.001)


def test_allocate_green_basic():
    table = fresh_table()
    state = green_state(24.0)
    slots = run_round(table, state, [approacher(11, 20.0)])
    assert slots == {11: 7}
    lo, hi = arrival_window(7, MU, state)
    assert lo <= 20.0 <= hi
    assert table.holder(7) == 11


def test_allocate_green_beyond_remaining():
    assert slot_for_arrival(30.0, green_state(24.0), MU, 8) is None


def test_allocate_red_too_close():
    assert slot_for_arrival(10.0, red_state(12.0), MU, 8) is None


def test_allocate_red_window():
    # One second into the upcoming green.
    assert slot_for_arrival(13.0, red_state(12.0), MU, 8) == 1


def test_red_queue_reservation_is_strict():
    # The red branch requires a strictly later arrival than the queue zone.
    state = red_state(12.0, queue=2)
    boundary = 12.0 + 2 * TSD
    assert slot_for_arrival(boundary, state, MU, 8) is None
    assert slot_for_arrival(boundary + 0.01, state, MU, 8) == 3


def test_green_queue_priority():
    state = green_state(24.0, queue=3)
    # Arrival inside the queue lead-in gets nothing.
    assert slot_for_arrival(5.0, state, MU, 8) is None
    # The boundary of the first offered slot is inclusive on the green side.
    assert slot_for_arrival(3 * TSD, state, MU, 8) == 4
    assert slot_for_arrival(9.5, state, MU, 8) == 4


def test_mid_green_allocation_shifts_to_green_start():
    # 6 s into the green, a 10 s TTI lands 16 s after the green start.
    assert slot_for_arrival(10.0, green_state(18.0), MU, 8) == 6


def test_claim_moves_a_vehicles_earlier_claim():
    table = fresh_table()
    table.claim(7, 1)
    table.claim(5, 1)
    assert table.slot_of(1) == 5
    assert table.claimants(7) == ()
    assert table.requests() == [(1, 5)]
    # Two vehicles on one slot is a contested slot, with no holder.
    table.claim(5, 2)
    assert table.claimants(5) == (1, 2)
    assert table.holder(5) is None


def test_detect_conflicts_examples():
    assert detect_conflicts([(1, 3), (2, 3)]) == {3: [1, 2]}
    assert detect_conflicts([(1, 3), (2, 4)]) == {}
    assert detect_conflicts([(1, 5), (2, 5), (3, 5)]) == {5: [1, 2, 3]}


def test_release_restores_uniqueness():
    table = fresh_table()
    table.claim(7, 1)
    table.claim(7, 2)
    assert table.release(2) is True
    assert table.holder(7) == 1
    assert table.release(2) is False  # no-op with warning flag


def test_two_fresh_requests_on_one_slot_leave_one_holder():
    table = fresh_table()
    winner = approacher(1, 20.0, Mode.RUSH)
    loser = approacher(2, 19.5, Mode.NORMAL)
    ledger = CreditLedger()
    slots = run_round(table, green_state(24.0), [winner, loser], ledger)
    # One pair game: the winner pays the loser one credit.
    assert (ledger.get(1), ledger.get(2)) == (-1, 1)
    assert table.holder(7) == 1
    # The loser takes the next free reachable slot.
    assert table.holder(8) == 2
    assert slots == {1: 7, 2: 8}
    assert_one_claim_per_slot(table, slots)


def test_reassign_goes_to_a_free_slot_only():
    # A 30 s green has ten slots; slot 8 is taken in the same round.
    table = fresh_table(n_dep=10)
    state = green_state(30.0, green_s=30.0)
    vehicles = [approacher(1, 20.0, Mode.RUSH), approacher(2, 19.5),
                approacher(3, 22.0)]
    slots = run_round(table, state, vehicles)
    assert [slots[e.vin] for e in vehicles] == [7, 9, 8]
    assert_one_claim_per_slot(table, slots)


def test_reassign_beyond_green_fails():
    table = fresh_table()
    winner = approacher(1, 22.0, Mode.RUSH)
    loser = approacher(2, 22.5)
    slots = run_round(table, green_state(24.0), [winner, loser])
    assert slots == {1: 8}
    assert table.slot_of(2) is None


def test_upgraded_holder_that_loses_keeps_one_claim_and_a_token():
    table = fresh_table()
    state = green_state(24.0)
    # Vehicle 3 holds slot 8 and can reach slot 6 but nothing earlier.
    table.claim(8, 3)
    holder = approacher(3, 280.0 / 12.0, speed=12.0)
    # Vehicle 4 requests slot 6, which was free when the round began.
    rival = approacher(4, 16.5, Mode.RUSH)
    slots = run_round(table, state, [holder, rival])
    # The upgrade to slot 6 lost the game; the holder takes the next free slot.
    assert slots == {4: 6, 3: 7}
    assert table.requests() == [(4, 6), (3, 7)]
    assert_one_claim_per_slot(table, slots)


def test_token_inside_queue_lead_in_is_released():
    table = fresh_table()
    table.claim(2, 1)
    # Three queued vehicles now discharge through slots 1 to 3.
    slots = run_round(table, green_state(24.0, queue=3), [approacher(1, 5.0)])
    assert slots[1] > 3
    assert_one_claim_per_slot(table, slots)


def test_table_clear_expires_tokens():
    table = fresh_table()
    table.claim(7, 1)
    table.clear(cycle_id=1)
    assert table.slot_of(1) is None
    assert table.cycle_id == 1


def test_clear_then_round_releases_stale_cycle_tokens():
    table = fresh_table()
    table.claim(7, 1)
    table.clear(cycle_id=1)
    # The old claim is gone and the request is made again in the new cycle.
    slots = run_round(table, green_state(24.0), [approacher(1, 20.0)])
    assert slots == {1: 7}
    assert table.cycle_id == 1
    assert_one_claim_per_slot(table, slots)


def test_allocation_is_deterministic():
    outcomes = []
    for _ in range(3):
        table = fresh_table()
        # Equal modes and credits: the light's random draw decides.
        vehicles = [approacher(vin, 20.0 - 0.1 * vin) for vin in (1, 2, 3)]
        ledger = CreditLedger()
        run_round(table, green_state(24.0), vehicles, ledger, seed=4)
        outcomes.append((table.requests(), [ledger.get(vin) for vin in (1, 2, 3)]))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_fresh_request_claims_the_arrival_slot():
    rng = random.Random(5)
    for _ in range(300):
        queue = rng.randint(0, 4)
        if rng.random() < 0.5:
            state = green_state(rng.uniform(0.5, 24.0), queue)
        else:
            state = red_state(rng.uniform(0.5, 36.0), queue)
        tti = rng.uniform(0.1, 70.0)
        slot = slot_for_arrival(tti, state, MU, 8)
        if slot is None:
            continue
        table = fresh_table()
        slots = run_round(table, state, [approacher(1, tti)])
        assert table.slot_of(1) == slots[1] == slot


def test_non_cooperative_round_assumes_every_slot_free():
    # Two arrivals in slot 7 both take it; the third arrives after the green.
    vehicles = [approacher(1, 20.0), approacher(2, 19.5), approacher(3, 50.0)]
    assert arrival_slots(vehicles, green_state(24.0), MU, 8) == {1: 7, 2: 7}


def test_windows_tile_without_gap_or_overlap():
    rng = random.Random(11)
    for _ in range(50):
        mu = rng.uniform(0.1, 1.0)
        n = rng.randint(1, 12)
        prev_b = 0.0
        for tau in range(1, n + 1):
            a, b = token_window(tau, mu)
            assert a == pytest.approx(prev_b, abs=1e-9)
            assert b - a == pytest.approx(1.0 / mu, abs=1e-9)
            prev_b = b
        assert prev_b == pytest.approx(n / mu, abs=1e-6)
