import random
from collections import Counter

import pytest

from coopspeed import tokens
from coopspeed.games import CreditLedger, Mode, resolve_conflict
from coopspeed.planner import speed_band
from coopspeed.signals import SignalState
from coopspeed.tokens import (
    Approacher,
    TokenTable,
    _reachable,
    allocation_round,
    arrival_window,
    request_tti,
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


def table_for(state: SignalState, n_dep: int = 8, mu: float = MU) -> TokenTable:
    """An empty table of ``n_dep`` slots whose offsets end where ``state``'s
    green ends less its margin, as the engine builds a light's table."""
    return TokenTable(mu, n_dep, state.green_s - state.green_end_margin_s)


def fresh_table(n_dep: int = 8) -> TokenTable:
    """A table for the default 24 s green without a margin."""
    return table_for(green_state(24.0), n_dep)


def approacher(vin: int, tti: float, state: SignalState, mode: Mode = Mode.NORMAL,
               speed: float = 10.0) -> Approacher:
    """Vehicle arriving in ``tti`` seconds at its current speed, with the
    request it submits under ``state``."""
    dist = tti * speed
    return Approacher(vin=vin, dist=dist, cap=V_MAX, mode=mode,
                      tti=request_tti(dist, speed, V_MAX, state))


def ref_window(tau, mu, state):
    """Slot ``tau``'s arrival window under ``state``, computed from ``mu``
    and the state alone, independently of the table's offsets: the slot
    spans ((tau-1)/mu, tau/mu) after the green start, its end pulled in by
    the green-end margin; in green it is shifted back by the green already
    elapsed and opens no earlier than now, in red on by the red remaining."""
    if tau < 1:
        raise ValueError("token index must be >= 1")
    if mu <= 0:
        raise ValueError("departure rate mu must be positive")
    tsd = 1.0 / mu
    a, b = (tau - 1) * tsd, tau * tsd
    end = state.green_s - state.green_end_margin_s
    b = end if end < b else b  # min(b, end), keeping b on a tie
    if state.approach_green:
        elapsed = state.green_s - state.remaining
        a -= elapsed
        return (a if a > 0.0 else 0.0), b - elapsed
    r_r = state.remaining
    return r_r + a, r_r + b


def full_windows(mu, n_dep, state):
    """The window list of a light for one step, built in full: indexed by
    slot, None for index 0 and the queue's slots, then slot ``j``'s
    ``ref_window`` up to ``n_dep``."""
    first = state.queue_len + 1
    return [None] * first + [ref_window(j, mu, state) for j in range(first, n_dep + 1)]


def run_round(table, state, vehicles, ledger=None, seed=0):
    """``vin -> slot`` for each vehicle of ``vehicles`` left holding a slot,
    after checking that the window list the round fills holds the arrival
    window of that slot."""
    ledger = CreditLedger() if ledger is None else ledger
    table.reset_windows(state.queue_len)
    assert allocation_round(table, state, V_MIN, vehicles, ledger,
                            random.Random(seed), random.Random(seed + 1)) is None
    slots = {e.vin: table.slot_of(e.vin) for e in vehicles if table.slot_of(e.vin) is not None}
    for slot in slots.values():
        assert table.windows[slot] == ref_window(slot, MU, state)
    return slots


def assert_one_claim_per_slot(table, slots):
    requests = table.requests()
    assert len({slot for _, slot in requests}) == len(requests)
    assert dict(requests) == slots


def slot_bounds(tau: int, mu: float = MU) -> tuple[float, float]:
    """Slot ``tau``'s bounds after the green start: its arrival window as
    a green opens that is too long to clip it."""
    state = green_state(1e6, green_s=1e6)
    return arrival_window(table_for(state, tau, mu).offsets[tau], state)


def test_arrival_window_slot_bounds():
    a, b = slot_bounds(1)
    assert (a, b) == pytest.approx((0.0, 3.003), abs=0.001)
    a, b = slot_bounds(3)
    assert (a, b) == pytest.approx((6.006, 9.009), abs=0.001)


def test_arrival_window_errors():
    # Slot indices start at 1: slot 0 has no offsets and so no window.
    table = fresh_table()
    assert table.offsets[0] is None
    with pytest.raises(TypeError):
        arrival_window(table.offsets[0], green_state(24.0))
    with pytest.raises(ValueError):
        TokenTable(0.0, 8, 24.0)


def test_arrival_window_values():
    # Slot 7 spans 18.018-21.021 s after the green start and slot 8
    # 21.021-24.024 s; a 2.5 s margin ends every window by 24 - 2.5 = 21.5 s.
    # 6 s into the green, windows are shifted by the 6 s elapsed.
    state = green_state(18.0)
    state.green_end_margin_s = 2.5
    offsets = table_for(state).offsets
    assert offsets[8] == pytest.approx((21.021, 21.5), abs=0.001)
    assert arrival_window(offsets[7], state) == pytest.approx((12.018, 15.021), abs=0.001)
    assert arrival_window(offsets[8], state) == pytest.approx((15.021, 15.5), abs=0.001)
    # A slot that opened 6 s into the green is open now.
    assert arrival_window(offsets[2], state) == pytest.approx((0.0, 0.006), abs=0.001)
    state = red_state(12.0)
    state.green_end_margin_s = 2.5
    assert arrival_window(offsets[1], state) == pytest.approx((12.0, 15.003), abs=0.001)
    assert arrival_window(offsets[8], state) == pytest.approx((33.021, 33.5), abs=0.001)


def test_allocate_green_basic():
    table = fresh_table()
    state = green_state(24.0)
    slots = run_round(table, state, [approacher(11, 20.0, state)])
    assert slots == {11: 7}
    lo, hi = arrival_window(table.offsets[7], state)
    assert lo <= 20.0 <= hi
    assert table.requests() == [(11, 7)]


def arrival_slot(tti: float, state: SignalState, n_dep: int = 8) -> int | None:
    """The slot a request for an arrival in ``tti`` seconds names: the
    first whose arrival window holds it."""
    table = table_for(state, n_dep)
    table.windows = full_windows(MU, n_dep, state)
    return tokens.arrival_slot(tti, table, state)


def test_allocate_green_beyond_remaining():
    assert arrival_slot(30.0, green_state(24.0)) is None


def test_allocate_red_too_close():
    assert arrival_slot(10.0, red_state(12.0)) is None


def test_allocate_red_window():
    # One second into the upcoming green.
    assert arrival_slot(13.0, red_state(12.0)) == 1


def test_red_queue_reservation_is_strict():
    # The queue's two slots are never named; slot 3's window is closed at
    # both ends, so the arrival on the queue's boundary already meets it.
    state = red_state(12.0, queue=2)
    boundary = 12.0 + 2 * TSD
    assert arrival_slot(boundary - 0.01, state) is None
    assert arrival_slot(boundary, state) == 3
    assert arrival_slot(boundary + 0.01, state) == 3


def test_green_queue_priority():
    state = green_state(24.0, queue=3)
    # Arrival inside the queue lead-in gets nothing.
    assert arrival_slot(5.0, state) is None
    # The boundary of the first offered slot is inclusive on the green side.
    assert arrival_slot(3 * TSD, state) == 4
    assert arrival_slot(9.5, state) == 4


def test_mid_green_allocation_shifts_to_green_start():
    # 6 s into the green, a 10 s TTI lands 16 s after the green start.
    assert arrival_slot(10.0, green_state(18.0)) == 6


def test_claim_moves_a_vehicles_earlier_claim():
    table = fresh_table()
    table.claim(7, 1)
    table.claim(5, 1)
    assert table.slot_of(1) == 5
    assert table.requests() == [(1, 5)]
    # Two vehicles on one slot is a contested slot.
    table.claim(5, 2)
    assert table.requests() == [(1, 5), (2, 5)]
    assert table.occupancy()[5] == 2


def test_release_restores_uniqueness():
    table = fresh_table()
    table.claim(7, 1)
    table.claim(7, 2)
    assert table.release(2) is True
    assert table.requests() == [(1, 7)]
    assert table.release(2) is False  # no-op with warning flag


def test_two_fresh_requests_on_one_slot_leave_one_holder():
    table = fresh_table()
    state = green_state(24.0)
    winner = approacher(1, 20.0, state, Mode.RUSH)
    loser = approacher(2, 19.5, state, Mode.NORMAL)
    ledger = CreditLedger()
    slots = run_round(table, state, [winner, loser], ledger)
    # One pair game: the winner pays the loser one credit.
    assert (ledger.get(1), ledger.get(2)) == (-1, 1)
    # The loser takes the next free reachable slot.
    assert table.requests() == [(1, 7), (2, 8)]
    assert slots == {1: 7, 2: 8}
    assert_one_claim_per_slot(table, slots)


def test_reassign_goes_to_a_free_slot_only():
    # A 30 s green has ten slots; slot 8 is taken in the same round.
    state = green_state(30.0, green_s=30.0)
    table = table_for(state, n_dep=10)
    vehicles = [approacher(1, 20.0, state, Mode.RUSH), approacher(2, 19.5, state),
                approacher(3, 22.0, state)]
    slots = run_round(table, state, vehicles)
    assert [slots[e.vin] for e in vehicles] == [7, 9, 8]
    assert_one_claim_per_slot(table, slots)


def test_reassign_beyond_green_fails():
    table = fresh_table()
    state = green_state(24.0)
    winner = approacher(1, 22.0, state, Mode.RUSH)
    loser = approacher(2, 22.5, state)
    slots = run_round(table, state, [winner, loser])
    assert slots == {1: 8}
    assert table.slot_of(2) is None


def test_upgraded_holder_that_loses_keeps_one_claim_and_a_token():
    table = fresh_table()
    state = green_state(24.0)
    # Vehicle 3 holds slot 8 and can reach slot 6 but nothing earlier.
    table.claim(8, 3)
    holder = approacher(3, 280.0 / 12.0, state, speed=12.0)
    # Vehicle 4 requests slot 6, which was free when the round began.
    rival = approacher(4, 16.5, state, Mode.RUSH)
    slots = run_round(table, state, [holder, rival])
    # The upgrade to slot 6 lost the game; the holder takes the next free slot.
    assert slots == {4: 6, 3: 7}
    assert table.requests() == [(4, 6), (3, 7)]
    assert_one_claim_per_slot(table, slots)


def test_token_inside_queue_lead_in_is_released():
    table = fresh_table()
    table.claim(2, 1)
    # Three queued vehicles now discharge through slots 1 to 3.
    state = green_state(24.0, queue=3)
    slots = run_round(table, state, [approacher(1, 5.0, state)])
    assert slots[1] > 3
    assert_one_claim_per_slot(table, slots)


def test_table_clear_expires_tokens():
    table = fresh_table()
    table.claim(7, 1)
    table.clear()
    assert table.slot_of(1) is None


def test_clear_then_round_releases_stale_cycle_tokens():
    table = fresh_table()
    table.claim(7, 1)
    table.clear()
    # The old claim is gone and the request is made again in the new cycle.
    state = green_state(24.0)
    slots = run_round(table, state, [approacher(1, 20.0, state)])
    assert slots == {1: 7}
    assert_one_claim_per_slot(table, slots)


def test_allocation_is_deterministic():
    outcomes = []
    for _ in range(3):
        table = fresh_table()
        # Equal modes and credits: the light's random draw decides.
        state = green_state(24.0)
        vehicles = [approacher(vin, 20.0 - 0.1 * vin, state) for vin in (1, 2, 3)]
        ledger = CreditLedger()
        run_round(table, state, vehicles, ledger, seed=4)
        outcomes.append((table.requests(), [ledger.get(vin) for vin in (1, 2, 3)]))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_fresh_request_claims_the_arrival_slot():
    # A request names the first slot whose arrival window holds its
    # arrival; on a free table it claims that slot when it can reach it,
    # and otherwise the first free slot it can reach.
    rng = random.Random(5)
    seen = Counter()
    for _ in range(300):
        queue = rng.randint(0, 4)
        if rng.random() < 0.5:
            state = green_state(rng.uniform(0.5, 24.0), queue)
        else:
            state = red_state(rng.uniform(0.5, 36.0), queue)
        state.green_end_margin_s = rng.choice([0.0, 2.5])
        tti = rng.uniform(0.1, 70.0)
        speed = rng.choice([10.0, 1.2 * V_MAX])
        e = approacher(1, tti, state, speed=speed)
        slot = None if e.tti is None else _ref_arrival_slot(e.tti, state, MU, 8)
        if slot is None:
            continue
        v = (e.vin, e.dist, speed, e.cap, e.mode)
        table = table_for(state)
        slots = run_round(table, state, [e])
        if _ref_reachable(slot, v, state, MU, V_MIN):
            assert slots[1] == slot
            seen["arrival slot"] += 1
        else:
            assert slots.get(1) == _ref_first_free_reachable(v, state, MU, 8, V_MIN, set())
            seen["fell back"] += 1
    assert min(seen["arrival slot"], seen["fell back"]) >= 10, seen


def test_non_cooperative_round_assumes_every_slot_free():
    # Two arrivals in slot 7 both take it; the third arrives after the green.
    state = green_state(24.0)
    vehicles = [approacher(1, 20.0, state), approacher(2, 19.5, state),
                approacher(3, 50.0, state)]
    table = fresh_table()  # its window list for the step is shared by the searches
    table.reset_windows(state.queue_len)
    got = {e.vin: slot for e in vehicles if e.tti is not None
           and (slot := tokens.arrival_slot(e.tti, table, state)) is not None}
    assert got == {1: 7, 2: 7}
    assert table.windows[7] == ref_window(7, MU, state)


def _random_light(rng, queue_beyond):
    """A random light: its departure rate, its slots per green and its
    state, green or red at a random phase, with a queue of up to
    ``queue_beyond`` vehicles more than the green serves."""
    mu = rng.choice([MU, rng.uniform(0.2, 0.6)])
    n_dep = rng.randint(1, 10)
    green_s, red_s = rng.uniform(6.0, 40.0), rng.uniform(10.0, 50.0)
    green = rng.random() < 0.5
    state = SignalState(
        approach_green=green, crossable=green,
        remaining=rng.uniform(0.05, green_s if green else red_s),
        green_s=green_s, red_s=red_s, queue_len=rng.randint(0, n_dep + queue_beyond),
        green_end_margin_s=rng.choice([0.0, rng.uniform(0.0, 3.0)]),
    )
    return mu, n_dep, state


def test_arrival_windows_match_the_full_window_list():
    # The non-cooperative search builds windows only as far as it needs,
    # into a list the step's later searches share, and stops at the first
    # window that opens after the arrival.  The list it builds must be a
    # prefix of the one a round fills, and the slot it names must be the
    # first whose window holds the arrival, in green and in red, behind
    # queues longer than the green serves, and for arrivals placed exactly
    # on window edges.
    rng = random.Random(18)
    seen = Counter()
    for _ in range(3000):
        mu, n_dep, state = _random_light(rng, queue_beyond=2)
        green = state.approach_green
        # The list a round fills for this state; a vehicle that neither holds
        # nor requests lets it run without changing anything.
        table = table_for(state, n_dep, mu)
        table.reset_windows(state.queue_len)
        allocation_round(table, state, V_MIN, [Approacher(0, 100.0, V_MAX, Mode.NORMAL, None)],
                         CreditLedger(), random.Random(0), random.Random(1))
        windows = table.windows
        assert windows == full_windows(mu, n_dep, state)
        edges = [edge for window in windows if window is not None for edge in window]
        vehicles = []
        for vin in range(rng.randint(0, 8)):
            draws = [None, rng.uniform(0.0, 70.0), rng.uniform(0.0, 70.0)]
            if edges:
                draws += [rng.choice(edges)] * 2
            tti = rng.choice(draws)
            vehicles.append(Approacher(vin, 100.0, V_MAX, Mode.NORMAL, tti))
        searched = table_for(state, n_dep, mu)
        searched.reset_windows(state.queue_len)
        for e in vehicles:
            slot = None if e.tti is None else _ref_arrival_slot(e.tti, state, mu, n_dep)
            if slot is not None:
                seen["on a window start" if e.tti == windows[slot][0] else "found"] += 1
            seen["no request" if e.tti is None else "edge" if e.tti in edges else "drawn"] += 1
            if e.tti is not None:
                assert tokens.arrival_slot(e.tti, searched, state) == slot
                assert tokens.arrival_slot(e.tti, table, state) == slot
        built = searched.windows
        assert built == windows[:len(built)]
        seen["green" if green else "red"] += 1
        seen["queue beyond the green" if state.queue_len >= n_dep else "slots offered"] += 1
    assert min(seen.values()) >= 100, seen


def test_windows_tile_without_gap_or_overlap():
    rng = random.Random(11)
    for _ in range(50):
        mu = rng.uniform(0.1, 1.0)
        n = rng.randint(1, 12)
        prev_b = 0.0
        for tau in range(1, n + 1):
            a, b = slot_bounds(tau, mu)
            assert a == pytest.approx(prev_b, abs=1e-9)
            assert b - a == pytest.approx(1.0 / mu, abs=1e-9)
            prev_b = b
        assert prev_b == pytest.approx(n / mu, abs=1e-6)


def test_request_in_green_submits_the_arrival_at_the_current_speed():
    assert request_tti(100.0, 10.0, V_MAX, green_state(20.0)) == 10.0
    # An arrival exactly as the green ends still counts.
    assert request_tti(200.0, 10.0, V_MAX, green_state(20.0)) == 20.0


def test_request_in_green_submits_the_arrival_at_cap_when_only_that_makes_it():
    state = green_state(10.0)
    # 15 s at 10 m/s misses the green; 150 m at cap takes 9 s.
    assert request_tti(150.0, 10.0, V_MAX, state) == 150.0 / V_MAX
    # Even at cap the green is missed.
    assert request_tti(200.0, 10.0, V_MAX, state) is None
    # The arrival at the current speed lies beyond the following red.
    assert request_tti(150.0, 3.0, V_MAX, state) is None
    assert request_tti(150.0, 10.0, 0.0, state) is None


def test_request_in_red_needs_an_arrival_inside_the_next_green():
    state = red_state(12.0)
    assert request_tti(130.0, 10.0, V_MAX, state) == 13.0
    assert request_tti(120.0, 10.0, V_MAX, state) is None  # as the red ends
    assert request_tti(360.0, 10.0, V_MAX, state) == 36.0  # as the green ends
    assert request_tti(365.0, 10.0, V_MAX, state) is None


@pytest.mark.parametrize("speed", [0.0, -1.0])
def test_request_needs_a_positive_speed(speed):
    assert request_tti(100.0, speed, V_MAX, green_state(20.0)) is None
    assert request_tti(100.0, speed, V_MAX, red_state(12.0)) is None


# -- the round against a reference copy ------------------------------------
# The round as it stood before it counted occupancy once, kept each slot's
# window for the round, stopped upgrade scans at the held slot and played
# games only on a contested table.  It takes every approaching vehicle as
# (vin, dist, speed, cap, mode), rebuilds the claimed set for each check
# and scans every slot.  It returns the arrival window of each listed
# vehicle's slot, which the real round leaves in its table and in the
# window list it fills.  ``seen`` counts the branches the round took.

POOL = tuple(range(1, 13))  # vins of approachers and of other claimants


def _ref_request_tti(dist, speed, cap, state):
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


def _ref_claimed(table):
    return {slot for _, slot in table.requests()}


def _ref_reachable(slot, v, state, mu, v_min):
    _, dist, _, cap, _ = v
    return (slot > state.queue_len
            and speed_band(dist, ref_window(slot, mu, state), v_min, cap) is not None)


def _ref_arrival_slot(tti, state, mu, n_dep):
    for j in range(state.queue_len + 1, n_dep + 1):
        lo, hi = ref_window(j, mu, state)
        if lo <= tti <= hi:
            return j
    return None


def _ref_detect_conflicts(requests):
    """Group request (vin, tau) pairs by token; keep groups of two or more."""
    by_tau = {}
    for vin, tau in requests:
        by_tau.setdefault(tau, []).append(vin)
    return {tau: sorted(vins) for tau, vins in sorted(by_tau.items()) if len(vins) > 1}


def _ref_first_free_reachable(v, state, mu, n_dep, v_min, occupied, start=1):
    for j in range(max(start, state.queue_len + 1), n_dep + 1):
        if j not in occupied and _ref_reachable(j, v, state, mu, v_min):
            return j
    return None


def reference_round(mu, table, state, v_min, vehicles, ledger, rng, tl_rng, seen):
    n_dep = table.n_dep
    occupied_before = _ref_claimed(table)
    for v in vehicles:
        vin, dist, speed, cap, _ = v
        held = table.slot_of(vin)
        if held is not None and not _ref_reachable(held, v, state, mu, v_min):
            table.release(vin)
            seen["released"] += 1
            held = None
        if held is not None:
            upgrade = _ref_first_free_reachable(v, state, mu, n_dep, v_min, _ref_claimed(table))
            if upgrade is not None and upgrade < held:
                table.claim(upgrade, vin)
                seen["upgraded"] += 1
            continue
        tti = _ref_request_tti(dist, speed, cap, state)
        if tti is None:
            continue
        slot = _ref_arrival_slot(tti, state, mu, n_dep)
        if (slot is None or slot in occupied_before
                or not _ref_reachable(slot, v, state, mu, v_min)):
            slot = _ref_first_free_reachable(v, state, mu, n_dep, v_min, occupied_before)
            seen["fell_back"] += 1
        if slot is not None:
            table.claim(slot, vin)
    by_vin = {v[0]: v for v in vehicles}
    conflicts = _ref_detect_conflicts(table.requests())
    seen["several_contested"] += len(conflicts) > 1
    for tau, group in conflicts.items():
        modes = {vin: by_vin[vin][4] for vin in group}
        result = resolve_conflict(modes, ledger, rng, tl_rng)
        seen["games"] += 1
        live = _ref_claimed(table)
        for vin in result.losers:
            table.release(vin)
            alt = _ref_first_free_reachable(by_vin[vin], state, mu, n_dep, v_min, live,
                                            start=tau)
            if alt is not None:
                table.claim(alt, vin)
                live.add(alt)
                seen["reassigned"] += 1
    return {vin: ref_window(slot, mu, state)
            for vin, slot in table.requests() if vin in by_vin}


def _random_round(rng):
    """One round's inputs: the table's claims, the signal, the vehicles
    as (vin, dist, speed, cap, mode), credits and the games' seed."""
    mu, n_dep, state = _random_light(rng, queue_beyond=1)
    green, green_s = state.approach_green, state.green_s
    n_claims = rng.randint(0, n_dep)
    claims = dict(zip(rng.sample(POOL, n_claims), rng.sample(range(1, n_dep + 1), n_claims)))
    # Arrivals crowd into the coming green and into two of its free slots,
    # and a claimant often still arrives inside its slot, so games (on two
    # slots of one round too) and upgrades are common.
    if green:
        green_arrival = (0.0, state.remaining)
    else:
        green_arrival = (state.remaining, state.remaining + green_s)
    free = [j for j in range(state.queue_len + 1, n_dep + 1) if j not in claims.values()]
    hot = [ref_window(j, mu, state) for j in rng.sample(free, min(2, len(free)))]
    vehicles = []
    for vin in sorted(rng.sample(POOL, rng.randint(0, 12))):
        cap = rng.uniform(V_MIN, V_MAX)
        speed = rng.choice([0.0, rng.uniform(0.0, cap), rng.uniform(0.0, cap),
                            rng.uniform(0.0, cap), rng.uniform(cap, 1.3 * cap)])
        arrival = rng.choice([rng.uniform(0.0, 70.0), rng.uniform(*green_arrival),
                              rng.uniform(*rng.choice(hot or [green_arrival]))])
        if vin in claims and claims[vin] > state.queue_len and rng.random() < 0.8:
            lo, hi = ref_window(claims[vin], mu, state)
            arrival = rng.uniform(lo, max(lo, hi))
        dist = speed * arrival if speed > 0 else rng.uniform(0.0, 400.0)
        vehicles.append((vin, dist, speed, cap, rng.choice(list(Mode))))
    credits = {vin: rng.randint(-2, 2) for vin in POOL}
    v_min = rng.choice([V_MIN, rng.uniform(0.0, V_MIN)])
    return mu, n_dep, claims, state, vehicles, credits, v_min, rng.randrange(10**6)


def _play(spec, run):
    """Run ``run(table, state, v_min, vehicles, ledger, rng, tl_rng)`` on a
    fresh copy of the round's inputs; returns everything it can change."""
    mu, n_dep, claims, state, vehicles, credits, v_min, seed = spec
    table = table_for(state, n_dep, mu)
    for vin, slot in claims.items():
        table.claim(slot, vin)
    ledger = CreditLedger()
    for vin, credit in credits.items():
        ledger.set(vin, credit)
    rng, tl_rng = random.Random(seed), random.Random(seed + 1)
    slots = run(table, state, v_min, vehicles, ledger, rng, tl_rng)
    return (slots, table.requests(), [ledger.get(vin) for vin in POOL], ledger.total(),
            rng.getstate(), tl_rng.getstate())


def _approachers(vehicles, state):
    return [Approacher(vin, dist, cap, mode, request_tti(dist, speed, cap, state))
            for vin, dist, speed, cap, mode in vehicles]


def _round_windows(table, state, v_min, entries, *rest):
    """Run the round over ``entries`` (``Approacher``s); returns ``vin ->
    window`` for each of them left holding a slot, read from the table and
    from the window list the round filled."""
    table.reset_windows(state.queue_len)
    allocation_round(table, state, v_min, entries, *rest)
    listed = {e.vin for e in entries}
    return {vin: table.windows[slot] for vin, slot in table.requests() if vin in listed}


def test_round_decides_as_the_reference_round():
    rng = random.Random(12)
    seen = Counter()
    for _ in range(3000):
        spec = _random_round(rng)
        expected = _play(spec, lambda *args: reference_round(spec[0], *args, seen))
        got = _play(spec, lambda table, state, v_min, vehicles, *rest: _round_windows(
            table, state, v_min, _approachers(vehicles, state), *rest))
        assert got == expected, spec
    # The random rounds take every branch of the round many times, and
    # settle two or more contested slots in one round many times.
    assert min(seen[k] for k in ("released", "upgraded", "fell_back", "games",
                                 "reassigned", "several_contested")) >= 50, seen


def test_a_vehicle_that_neither_holds_nor_requests_changes_nothing():
    rng = random.Random(13)
    idle_seen = 0
    for _ in range(2000):
        spec = _random_round(rng)
        claims, state = spec[2], spec[3]
        entries = _approachers(spec[4], state)
        active = [e for e in entries if e.tti is not None or e.vin in claims]
        idle_seen += len(entries) - len(active)
        everyone = _play(spec, lambda t, s, v_min, _, *rest:
                         _round_windows(t, s, v_min, entries, *rest))
        without_idle = _play(spec, lambda t, s, v_min, _, *rest:
                             _round_windows(t, s, v_min, active, *rest))
        assert everyone == without_idle, spec
        # A round over idle vehicles alone hands out no window and leaves
        # table, ledger and RNGs as they were.
        untouched = _play(spec, lambda *args: {})
        idle_only = _play(spec, lambda t, s, v_min, _, *rest: _round_windows(
            t, s, v_min, [e for e in entries if e not in active], *rest))
        assert idle_only == untouched, spec
    assert idle_seen > 1000


def test_a_round_leaves_no_listed_vehicle_on_a_slot_it_cannot_reach():
    # Every claim a listed vehicle holds after the round, fresh, kept,
    # moved up or reassigned, is one it can meet.
    rng = random.Random(14)
    held = 0

    def unreachable_holders(table, state, v_min, vehicles, *rest):
        nonlocal held
        entries = _approachers(vehicles, state)
        table.reset_windows(state.queue_len)
        allocation_round(table, state, v_min, entries, *rest)
        holders = [(e, slot) for e in entries if (slot := table.slot_of(e.vin)) is not None]
        held += len(holders)
        return [e.vin for e, slot in holders if not _reachable(slot, e, table.windows, v_min)]

    for _ in range(1000):
        spec = _random_round(rng)
        assert _play(spec, unreachable_holders)[0] == [], spec
    assert held > 300


def _random_reach(rng):
    """One vehicle's view of one light: the window list the round fills for
    a random signal timing, phase and queue, and an ``Approacher`` at a
    random distance with a cap of at least ``v_min``; returns the list, the
    vehicle and ``v_min``."""
    mu, n_dep, state = _random_light(rng, queue_beyond=1)
    v_min = rng.choice([0.0, V_MIN, rng.uniform(0.0, V_MIN)])
    cap = rng.choice([v_min, V_MAX, rng.uniform(v_min, V_MAX)])
    # Distances that put the arrival at cap inside the coming green are
    # common, so many vehicles can reach a run of several slots.
    arrival = (rng.uniform(0.0, 70.0) if state.approach_green
               else rng.uniform(0.0, state.remaining + state.green_s))
    dist = rng.choice([rng.uniform(0.0, 600.0), rng.uniform(0.5, 1.5) * cap * arrival])
    return full_windows(mu, n_dep, state), Approacher(0, dist, cap, Mode.NORMAL, None), v_min


def test_the_slots_a_vehicle_can_reach_are_consecutive():
    # Window ends never decrease in slot order, so the band's bounds
    # dist / t_hi and dist / t_lo never increase: the slots whose band meets
    # [v_min, cap] form one run.  A scan over the slots may then stop at the
    # first unreachable slot after a reachable one.
    rng = random.Random(19)
    seen = Counter()
    for _ in range(20000):
        windows, e, v_min = _random_reach(rng)
        reach = [j for j in range(1, len(windows)) if _reachable(j, e, windows, v_min)]
        if not reach:
            continue
        assert reach == list(range(reach[0], reach[-1] + 1)), (windows, e, v_min)
        seen["reachable"] += 1
        seen["several"] += len(reach) > 1
        seen["unreachable on both sides"] += (
            windows[reach[0] - 1] is not None and reach[-1] + 1 < len(windows))
        seen["v_min 0"] += v_min == 0.0
    assert min(seen.values()) >= 100, seen


def test_a_slot_scan_stops_only_where_no_later_slot_is_reachable():
    # ``_first_free_reachable`` ends its scan at the first free slot it
    # cannot reach that opens too late, one the vehicle would reach early
    # even at v_min.  On random views, occupancies and ranges it returns the
    # slot a scan of the whole range returns, and the early end fires.
    rng = random.Random(23)
    seen = Counter()
    for _ in range(20000):
        windows, e, v_min = _random_reach(rng)
        free = [j for j in range(1, len(windows)) if windows[j] is not None]
        if not free:
            continue
        start = rng.randint(free[0], len(windows) - 1)
        stop = rng.randint(start, len(windows))
        occupied = [0] + [rng.random() < 0.4 for _ in range(len(windows) - 1)]
        expected = next((j for j in range(start, stop)
                         if not occupied[j] and _reachable(j, e, windows, v_min)), None)
        assert tokens._first_free_reachable(e, windows, v_min, occupied, start, stop) == (
            expected), (windows, e, v_min, occupied, start, stop)
        late = [j for j in range(start, stop) if not occupied[j]
                and windows[j][0] > 0.0 and e.dist / windows[j][0] < v_min]
        seen["stops early"] += bool(late) and expected is None and late[0] < stop - 1
        seen["found"] += expected is not None
    assert min(seen.values()) >= 100, seen
