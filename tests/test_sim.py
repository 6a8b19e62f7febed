import dataclasses
import math
import random
from bisect import bisect_left, bisect_right, insort
from collections import Counter
from operator import attrgetter

import pytest

import coopspeed.sim as sim
from coopspeed.energy import step_energy
from coopspeed.games import Mode
from coopspeed.signals import SignalConfig
from coopspeed.sim import (
    ENTRY_SPEED,
    KMH,
    MOVING_SPEED,
    STANDSTILL_GAP_M,
    STOP_SPEED,
    TECHNIQUES,
    TIME_GAP_S,
    IntersectionMetrics,
    MetricsReport,
    SegmentConfig,
    SimConfig,
    World,
)
from coopspeed.tokens import TokenTable
from tests.test_report_digests import ALL_CONFIGS
from tests.test_tokens import ref_window


def test_token_table_matches_tokens_at_every_step():
    # csof at 600 veh/h, seed 2: the first 120 s include losers of games
    # whose earlier claims used to linger beside their new ones.  A claim
    # is the vehicle's token, so the table must hold one per vehicle and
    # one per slot.  The step reads a holder's window at its slot in the
    # light's window list, so every holder must be a vehicle the light's
    # round took part in, unqueued and within activation distance, and the
    # list must hold the window of every held slot.
    cfg = SimConfig(seed=2, technique="csof", arrival_rate_veh_s=600 / 3600)
    world = World(cfg)
    held = 0
    while world.t < 120.0:
        world.step()
        for light in world.lights:
            requests = light.table.requests()
            vins = [vin for vin, _ in requests]
            slots = [slot for _, slot in requests]
            assert len(set(vins)) == len(vins), (world.t, light.idx, requests)
            assert len(set(slots)) == len(slots), (world.t, light.idx, requests)
            in_round = {vin for vin, v in world.vehicles.items() if v.seg == light.idx
                        and not v.queued
                        and light.line_at - v.pos <= cfg.activation_distance_m}
            assert set(vins) <= in_round, (world.t, light.idx, requests)
            for slot in slots:
                assert light.table.windows[slot] == ref_window(
                    slot, light.cfg.departure_rate, light.state), (world.t, light.idx, slot)
            held += len(slots)
    assert held > 1000, held


def test_a_table_is_cleared_exactly_when_its_light_turns_red():
    # Slot 1 is claimed for a vin no vehicle has before every step from the
    # second on.  With no vehicle no round runs, so only a clear removes the
    # claim.  The first green ends 20.0 s into the run in exact arithmetic,
    # but the signal state still reads green at t = 20.0 s, by 3e-15 s: a
    # clear that took the phase from a formula of its own came a step early.
    signal = SignalConfig(green_s=10.283125944818355, red_s=40.0, offset_s=60.0)
    cfg = SimConfig(duration_s=600.0, dt_s=0.5, technique="csof", scripted_arrivals=(),
                    segments=(SegmentConfig(signal=signal),))
    world = World(cfg)
    light = world.lights[0]
    world.step()
    red_starts = []
    while world.t < cfg.duration_s - 1e-9:
        light.table.claim(1, 999)
        was_green = light.state.approach_green
        t = world.t
        world.step()
        turned_red = was_green and not light.state.approach_green
        assert (light.table.slot_of(999) is None) == turned_red, t
        red_starts += [t] * turned_red
    assert red_starts[0] == 20.5 and len(red_starts) > 10, red_starts


def test_each_light_writes_its_one_signal_state_in_place():
    # The digests' mixed corridor: offsets 0, 12 and 30 s, all-red gaps 1, 1
    # and 2 s, departure rates 0.333, 0.4 and 0.333; and the three-lane
    # corridor.  Each light keeps the state it was built with for the whole
    # run, and every step writes into it the phase of that light's own
    # timing at the step's start, and at its end the number of the light's
    # queued vehicles.  The light's other per-step facts follow from the
    # segment's vehicle count and queue length at the step's start, although
    # the engine recomputes two of them only when their count changes.
    jam = sim.JAM_DENSITY_VEH_KM_LANE
    # In its first 120 s the three-lane corridor's vehicles reach its first
    # light only.
    for name, until, covered in (("mixed-ncso", None, 3), ("3lane-ncso", 120.0, 1)):
        cfg = dict(ALL_CONFIGS)[name]
        until = cfg.duration_s if until is None else until
        world = World(cfg)
        states = [light.state for light in world.lights]
        seen = Counter()
        prev = [(0, 0)] * len(world.lights)  # no vehicle yet
        while world.t < until - 1e-9:
            t = world.t
            before = [(sum(v.seg == light.idx for v in world.vehicles.values()),
                       sum(v.queued for v in world.vehicles.values() if v.seg == light.idx))
                      for light in world.lights]
            world.step()
            for light, state, seg, (count, queued) in zip(world.lights, states, cfg.segments,
                                                          before):
                sig = seg.signal
                queue = sum(v.queued for v in world.vehicles.values() if v.seg == light.idx)
                assert light.state is state, (name, t, light.idx)
                cycle = sig.green_s + sig.red_s
                u = (t - sig.offset_s) % cycle
                green = u < sig.green_s
                assert (state.approach_green, state.crossable, state.remaining,
                        state.queue_len) == (
                    green, u < sig.green_s - sig.all_red_gap_s,
                    sig.green_s - u if green else cycle - u, queue), (name, t, light.idx)
                assert (state.green_s, state.red_s, state.green_end_margin_s) == (
                    sig.green_s, sig.red_s, sig.all_red_gap_s + sim.PLAN_MARGIN_S)
                density = min(count / (seg.length_m / 1000.0) / cfg.lanes,
                              sim.DENSITY_CAP_RATIO * jam)
                assert (light.density_cap, light.queued_target, light.t_q) == (
                    seg.v_max * (1.0 - density / jam),
                    seg.v_max if state.crossable else 0.0,
                    queued / sig.departure_rate + sim.ARRIVAL_BIAS_S), (name, t, light.idx)
                seen[light.idx, state.approach_green, state.crossable] += 1
                seen[light.idx, "queue"] += queue > 0
                prev_count, prev_queued = prev[light.idx]
                seen[light.idx, "count moves, queue stays"] += (
                    count != prev_count and queued == prev_queued)
            prev = before
        # Each covered light shows its crossable green, its all-red gap, its
        # red, a queue, and a step whose vehicle count differs from the step
        # before's while its queue length does not.
        assert len(seen) == len(cfg.segments) * 5, (name, seen)
        assert min(n for key, n in seen.items() if key[0] < covered) > 0, (name, seen)


@pytest.mark.parametrize("technique", ["ncso", "csof"])
def test_only_csof_reads_the_token_table(technique, monkeypatch):
    # ncso never claims a slot, so asking its tables for a vehicle's slot
    # would always give None; it makes no such call, while its vehicles
    # plan inside the activation distance.  The csof world shows that the
    # counter sees the calls a table lookup makes.
    calls = Counter()
    slot_of, plan = TokenTable.slot_of, sim.plan

    def counted_slot_of(table, vin):
        calls["slot_of"] += 1
        return slot_of(table, vin)

    def counted_plan(*args):
        calls["plan"] += 1
        return plan(*args)

    monkeypatch.setattr(TokenTable, "slot_of", counted_slot_of)
    monkeypatch.setattr(sim, "plan", counted_plan)
    world = World(_two_short(technique))
    while world.t < 120.0:
        world.step()
    assert calls["plan"] > 1000, calls
    assert (calls["slot_of"] > 0) == (technique == "csof"), calls


def test_report_counts_arrivals_waiting_to_enter():
    # 1800 veh/h into one short segment: the queue spills back to the
    # entry and arrivals pile up behind it.
    arrivals = tuple(2.0 * k for k in range(150))
    cfg = SimConfig(duration_s=300.0, technique="fixed", activation_distance_m=100.0,
                    segments=(SegmentConfig(length_m=100.0),), scripted_arrivals=arrivals)
    report = World(cfg).run()
    assert report.waiting > 0
    due = sum(1 for a in arrivals if a < cfg.duration_s)
    assert report.spawned + report.waiting == due
    assert report.spawned == report.completed + report.in_network


def test_report_totals_add_left_to_right():
    # Since Python 3.12 ``sum()`` compensates float error: it gives 1.0
    # here, and moved recorded totals by an ulp.  The report adds the
    # per-intersection sums in segment order, so 1.0 is lost to 1e16.
    world = World(SimConfig(duration_s=0.0))
    world.completed = 1
    for light, energy in zip(world.lights, (1e16, 1.0, -1e16)):
        light.sum_energy = energy
    assert world.report().total_mean_energy_j == 0.0


# -- regression lock ----------------------------------------------------------
# Reports recorded before the step moved to the sorted lane index, with
# the energy fields recorded again when energy became the kinetic-energy
# model; the `ncso` pin and the three two-segment runs, which each complete
# at least 20 vehicles, were recorded before the step was slimmed down, and
# `csof-20` and `ncso-20` again when a request's slot became the first whose
# arrival window holds its arrival.
# Any change to the engine's arithmetic or to the order of its decisions
# shows here.  Every run changes lanes, so the lane-change path is covered.

def _count_lane_moves(world, until):
    moves = 0
    while world.t < until - 1e-9:
        lanes = {vin: v.lane for vin, v in world.vehicles.items()}
        world.step()
        moves += sum(v.lane != lanes[vin] for vin, v in world.vehicles.items() if vin in lanes)
    return moves


def _report(cfg, spawned, completed, in_network, per, idle, stops, energy):
    return MetricsReport(
        technique=cfg.technique, seed=cfg.seed, duration_s=cfg.duration_s, spawned=spawned,
        completed=completed, in_network=in_network, waiting=0,
        per_intersection=[IntersectionMetrics(f"SI{i + 1}", completed, *row)
                          for i, row in enumerate(per)],
        total_mean_idling_s=idle, total_mean_stops=stops, total_mean_energy_j=energy,
    )


def _pin(cfg, *fields):
    return cfg, _report(cfg, *fields)


def _two_short(technique):
    short = SegmentConfig(length_m=600.0)
    return SimConfig(duration_s=360.0, technique=technique, arrival_rate_veh_s=0.4, seed=1,
                     activation_distance_m=400.0, segments=(short, short))


PINNED = {
    "fixed": _pin(
        SimConfig(duration_s=300.0, technique="fixed", arrival_rate_veh_s=0.5, seed=1),
        147, 2, 145,
        [(0.0, 0.0, 214678.31413680877),
         (24.65000000000008, 1.0, 159537.48069073117),
         (0.0, 0.0, 367658.595682136)],
        24.65000000000008, 1.0, 741874.390509676),
    "csof": _pin(
        SimConfig(duration_s=300.0, technique="csof", arrival_rate_veh_s=0.25, seed=1),
        71, 2, 69,
        [(0.0, 0.0, 215930.78291394984),
         (0.0, 0.0, 230275.97755321814),
         (0.0, 0.0, 348568.018830574)],
        0.0, 0.0, 794774.779297742),
    "ncso": _pin(
        SimConfig(duration_s=300.0, technique="ncso", arrival_rate_veh_s=0.25, seed=1),
        71, 1, 70,
        [(0.0, 0.0, 246318.93004114824),
         (0.0, 0.0, 96535.63212908355),
         (0.0, 0.0, 394413.2180144265)],
        0.0, 0.0, 737267.7801846582),
    "csof-20": _pin(
        _two_short("csof"), 139, 25, 114,
        [(21.24400000000014, 0.88, 9980.060303999615),
         (2.796000000000017, 0.16, 165892.23950775544)],
        24.040000000000155, 1.04, 175872.29981175505),
    "ncso-20": _pin(
        _two_short("ncso"), 139, 28, 111,
        [(29.350000000000215, 1.0714285714285714, 8544.022540146865),
         (0.39642857142857163, 0.14285714285714285, 168954.59266119442)],
        29.746428571428787, 1.2142857142857142, 177498.61520134125),
    "fixed-20": _pin(
        _two_short("fixed"), 139, 28, 111,
        [(41.54285714285732, 1.6428571428571428, 18951.366795800033),
         (2.1571428571428544, 0.5714285714285714, 176559.28659313038)],
        43.70000000000017, 2.2142857142857144, 195510.65338893043),
}


@pytest.mark.parametrize("cfg, expected", PINNED.values(), ids=PINNED.keys())
def test_pinned_reports(cfg, expected):
    world = World(cfg)
    assert _count_lane_moves(world, cfg.duration_s) >= 1
    report = world.report()
    assert report == expected
    assert repr(report) == repr(expected)


def test_same_seed_same_report():
    cfg = SimConfig(duration_s=120.0, technique="csof", arrival_rate_veh_s=0.3, seed=4)
    assert World(cfg).run() == World(cfg).run()


# -- analytic oracles ---------------------------------------------------------

def _placed(cfg, *vehicles):
    """A world of ``cfg`` with each ``(seg, lane, pos, speed)`` put on the
    road in the order given, in ``Mode.NORMAL``: vins count from 1."""
    world = World(cfg)
    for seg, lane, pos, speed in vehicles:
        world._place(seg, lane, pos, speed, Mode.NORMAL)
    return world


def test_trip_energy_converges_in_dt():
    # One cruising vehicle over the default corridor, stopped once by a red.
    trips = []
    for dt in (0.05, 0.1, 0.2):
        cfg = SimConfig(duration_s=300.0, dt_s=dt, technique="fixed", arrival_rate_veh_s=0.0)
        report = _placed(cfg, (0, 0, 0.0, 13.89)).run()
        assert report.completed == 1
        assert report.total_mean_idling_s > 0.0
        assert all(m.mean_energy_j >= 0.0 for m in report.per_intersection), (dt, report)
        trips.append(report.total_mean_energy_j)
    assert max(trips) <= 1.02 * min(trips), trips


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_lone_vehicle_trip_converges_in_dt(technique):
    # One vehicle entering the empty default corridor at t = 0: its energy,
    # exit time and stops barely move with the step.
    trips = []
    for dt in (0.05, 0.1, 0.2, 0.5):
        world = World(SimConfig(duration_s=300.0, dt_s=dt, technique=technique,
                                scripted_arrivals=(0.0,)))
        while not world.completed:
            assert world.t < 300.0, (technique, dt)
            world.step()
        report = world.report()
        trips.append((report.total_mean_energy_j, world.t, report.total_mean_stops))
    energy, exit_t, stops = zip(*trips)
    assert max(energy) <= 1.02 * min(energy), trips
    assert max(exit_t) - min(exit_t) <= 1.0, trips
    assert len(set(stops)) == 1, trips


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_queue_discharge_never_exceeds_departures_per_green(technique):
    # 1800 veh/h saturates the first lights.  Crossings are watched from
    # outside, by the segment each vehicle is on before and after a step.
    # A crossing falls in the crossable part of the cycle, comes at least
    # 1/mu after the light's previous one, and no green lets more vehicles
    # cross than the light's table has slots.
    cfg = SimConfig(duration_s=300.0, technique=technique, arrival_rate_veh_s=0.5, seed=1)
    world = World(cfg)
    per_green = [Counter() for _ in world.lights]  # cycle number -> crossings
    last_cross = [-math.inf] * len(world.lights)
    for _ in range(round(cfg.duration_s / cfg.dt_s)):
        t = world.t
        seg_of = {vin: v.seg for vin, v in world.vehicles.items()}
        world.step()
        for vin, seg in seg_of.items():
            v = world.vehicles.get(vin)
            if v is not None and v.seg == seg:
                continue
            sig = cfg.segments[seg].signal
            cycle, into = divmod(t - sig.offset_s, sig.cycle_s)
            assert into < sig.green_s - sig.all_red_gap_s, (seg, t)
            assert t - last_cross[seg] >= 1.0 / sig.departure_rate - 1e-6, (seg, t)
            last_cross[seg] = t
            per_green[seg][cycle] += 1
    for light, counts in zip(world.lights, per_green):
        assert counts, light.idx
        assert max(counts.values()) <= light.table.n_dep, (light.idx, counts)
    assert max(per_green[0].values()) >= world.lights[0].table.n_dep - 1, per_green[0]


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_corridor_drains_once_arrivals_stop(technique):
    # No deadlock: 24 arrivals in the first 120 s, then none; every
    # vehicle enters and leaves the corridor well before 900 s.
    arrivals = tuple(5.0 * k for k in range(24))
    world = World(SimConfig(duration_s=900.0, technique=technique, scripted_arrivals=arrivals))
    while world.t < 900.0 and (world.spawned < len(arrivals) or world.vehicles):
        world.step()
    report = world.report()
    assert world.t < 900.0
    assert (report.spawned, report.completed, report.in_network, report.waiting) == (24, 24, 0, 0)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_a_vehicle_that_moved_on_does_not_hold_its_follower_at_the_line(technique):
    # Both vehicles cross a green line in the first step, the one ahead
    # first.  Once it has left segment 1 the lane there is empty, so the
    # one behind must cross too instead of being held as if the first were
    # still at the start of segment 1.
    cfg = SimConfig(duration_s=1.0, technique=technique, arrival_rate_veh_s=0.0)
    world = _placed(cfg, (1, 0, 999.5, 10.0), (0, 0, 999.5, 10.0))
    world.step()
    assert (world.vehicles[1].seg, world.vehicles[2].seg) == (2, 1)
    assert world.vehicles[2].stops == [0, 0, 0]


def test_a_vehicle_enters_no_faster_than_the_first_segment_allows():
    slow = SegmentConfig(v_min=5.0 * KMH, v_max=20.0 * KMH)
    world = World(SimConfig(duration_s=60.0, technique="fixed", scripted_arrivals=(0.0,),
                            segments=(slow,)))
    top = 0.0
    while world.t < 60.0:
        world.step()
        top = max([top] + [v.speed for v in world.vehicles.values()])
    assert world.spawned == 1
    assert 0.0 < top <= slow.v_max


# -- per-step invariants ------------------------------------------------------

def _lane_groups(world):
    """The lane index, keyed by (seg, lane): each light's lane groups."""
    return {(light.idx, lane): group for light in world.lights
            for lane, group in enumerate(light.groups)}


def _check_lanes_and_accounting(world):
    """Each lane group of the index is in ascending pos with a vehicle
    length between neighbours, each light holds one group per lane of the
    corridor, the index holds every vehicle exactly once in its own lane,
    every vehicle starts the next step short of its stop line, every
    spawned vehicle is completed or in the network, and credits are
    conserved."""
    length = world.cfg.vehicle_length_m
    for light in world.lights:
        assert len(light.groups) == world.cfg.lanes, (world.t, light.idx)
        for group in light.groups:
            assert all(v.pos < light.line_at for v in group), (world.t, light.idx)
    indexed = []
    for key, group in _lane_groups(world).items():
        assert all((v.seg, v.lane) == key for v in group), (world.t, key)
        for rear, front in zip(group, group[1:]):
            assert front.pos - rear.pos >= length - 1e-9, (world.t, key)
        indexed += [v.vin for v in group]
    assert sorted(indexed) == sorted(world.vehicles), world.t
    assert world.spawned == world.completed + len(world.vehicles), world.t
    assert world.ledger.total() == 0, world.t


@pytest.mark.parametrize("technique", ["csof", "ncso", "fixed"])
def test_invariants_hold_at_every_step(technique):
    short = SegmentConfig(length_m=600.0)
    cfg = SimConfig(duration_s=200.0, technique=technique, arrival_rate_veh_s=0.4, seed=3,
                    activation_distance_m=400.0, segments=(short, short))
    world = World(cfg)
    queued_seen = claims_seen = 0
    while world.t < cfg.duration_s - 1e-9:
        world.step()
        _check_lanes_and_accounting(world)
        for light in world.lights:
            queued = [v for v in world.vehicles.values() if v.queued and v.seg == light.idx]
            assert light.state.queue_len == len(queued), (world.t, light.idx)
            queued_seen += len(queued)
            # Only csof keeps claims: one per slot, each held by an unqueued
            # vehicle approaching this light within activation distance.
            requests = light.table.requests()
            assert technique == "csof" or not requests, (world.t, light.idx, requests)
            slots = [slot for _, slot in requests]
            assert len(set(slots)) == len(slots), (world.t, light.idx, requests)
            line_at = cfg.segments[light.idx].length_m
            for vin, _ in requests:
                v = world.vehicles[vin]
                assert v.seg == light.idx and not v.queued, (world.t, light.idx, vin)
                assert line_at - v.pos <= cfg.activation_distance_m, (world.t, light.idx, vin)
            claims_seen += len(requests)
    assert world.completed > 0
    assert queued_seen > 0
    assert (claims_seen > 0) == (technique == "csof")


def _random_corridor(rng):
    """1-3 segments and 2-3 lanes, with random lengths, speed bands
    and signal timings, a random technique and a random demand."""
    lanes = rng.choice((2, 3))
    segments = []
    for _ in range(rng.randint(1, 3)):
        green, red = rng.uniform(10.0, 50.0), rng.uniform(10.0, 50.0)
        signal = SignalConfig(green_s=green, red_s=red,
                              all_red_gap_s=rng.uniform(0.0, min(green, red, 5.0)),
                              offset_s=rng.uniform(0.0, green + red),
                              departure_rate=rng.uniform(0.2, 0.8))
        segments.append(SegmentConfig(length_m=rng.uniform(150.0, 1200.0),
                                      v_min=rng.uniform(0.0, 20.0) * KMH,
                                      v_max=rng.uniform(20.0, 80.0) * KMH, signal=signal))
    return SimConfig(duration_s=120.0, seed=rng.randint(1, 10**6),
                     technique=rng.choice(TECHNIQUES),
                     activation_distance_m=rng.uniform(0.0, min(s.length_m for s in segments)),
                     arrival_rate_veh_s=rng.uniform(0.05, 0.5), lanes=lanes,
                     segments=tuple(segments))


def test_invariants_hold_on_random_corridors():
    rng = random.Random(20)
    completed = 0
    for _ in range(12):
        cfg = _random_corridor(rng)
        world = World(cfg)
        while world.t < cfg.duration_s - 1e-9:
            world.step()
            _check_lanes_and_accounting(world)
        completed += world.completed
    assert completed > 0


def test_a_held_step_counts_the_stop_a_refused_crossing_armed():
    # Two vehicles side by side reach the line of the default light in the
    # step that starts at 22.9 s, its last crossable step.  Vin 1 crosses
    # and shuts the gate for 1/mu, so vin 2 is refused and left at rest
    # 0.01 m short of the line, its stop detector still armed.  From then
    # on it is held until the green: its first held step counts the stop,
    # and each one adds dt to its idling and changes nothing else.
    seg = SegmentConfig()
    cfg = SimConfig(duration_s=60.0, technique="fixed", segments=(seg,), scripted_arrivals=())
    pos = seg.length_m - ENTRY_SPEED * cfg.dt_s * 229.5
    world = _placed(cfg, (0, 0, pos, ENTRY_SPEED), (0, 1, pos, ENTRY_SPEED))
    while 1 in world.vehicles:
        world.step()
    assert world.t == pytest.approx(23.0)
    v = world.vehicles[2]
    assert (v.pos, v.speed, v.queued, v.stop_armed, v.stops) == (
        seg.length_m - 0.01, 0.0, True, True, [0])
    light = world.lights[0]
    held = 0
    while world.t < seg.signal.cycle_s - 1e-9:
        idle, pos, energy = v.idle[0], v.pos, v.energy_j[0]
        world.step()
        held += 1
        assert light.queued_target == 0.0, world.t
        assert (v.idle[0], v.pos, v.speed, v.energy_j[0]) == (idle + cfg.dt_s, pos, 0.0, energy)
        assert v.stops == [1] and not v.stop_armed, world.t
    assert held == 370


def test_held_steps_change_nothing_but_idling_on_the_saturated_input():
    # The benchmark's saturated ``fixed`` input for 120 s: a held vehicle,
    # queued at rest while its light is not crossable, ends its step at
    # rest where it began, with dt more idling and no energy booked.
    cfg = dict(ALL_CONFIGS)["bench-fixed_sat-1"]
    world = World(cfg)
    held_steps = 0
    while world.t < 120.0 - 1e-9:
        before = {}
        for v in world.vehicles.values():
            sig = cfg.segments[v.seg].signal
            crossable = (world.t - sig.offset_s) % sig.cycle_s < sig.green_s - sig.all_red_gap_s
            if v.queued and v.speed == 0.0 and not crossable:
                before[v] = (v.seg, v.pos, list(v.idle), list(v.energy_j))
        world.step()
        _check_lanes_and_accounting(world)
        for v, (seg, pos, idle, energy) in before.items():
            idle[seg] += cfg.dt_s
            assert (v.seg, v.pos, v.speed, v.idle, v.energy_j) == (seg, pos, 0.0, idle, energy), (
                world.t, v.vin)
        held_steps += len(before)
    assert held_steps >= 1000, held_steps


def test_caps_match_plan_cap_at_every_step():
    # _caps writes out _plan_cap's arithmetic for a whole lane group; the
    # two must agree bit for bit, signed zeros included.
    world = World(_two_short("csof"))
    caps = set()
    while world.t < 120.0:
        world._caps(world._by_lane())
        for (seg, _), group in _lane_groups(world).items():
            for v in group:
                expected = world._plan_cap(v, v.lead, world.lights[seg])
                assert repr(v.cap) == repr(expected), (world.t, v.vin)
                caps.add(v.cap)
        world.step()
    assert len(caps) > 2  # leaders' speeds and gaps, not only the limits


def _check_leaders_after_planning(monkeypatch, world, until):
    """Step ``world`` to ``until``, checking at each step's energy booking,
    which follows lane changes and the one-pass loop, that every vehicle's
    ``lead`` is the next vehicle of its lane group, or None at the front;
    returns the number of steps in which a lane change moved a vehicle."""
    accrue, relead = World._accrue_energy, World._leaders
    moves = []

    def checked_accrue(self, fleet, new_speeds):
        for group in _lane_groups(self).values():
            for v, ahead in zip(group, [*group[1:], None]):
                assert v.lead is ahead, (self.t, v.vin)
        return accrue(self, fleet, new_speeds)

    def counted_leaders(lights):
        moves.append(1)
        return relead(lights)

    with monkeypatch.context() as patch:
        patch.setattr(World, "_accrue_energy", checked_accrue)
        patch.setattr(World, "_leaders", staticmethod(counted_leaders))
        while world.t < until - 1e-9:
            world.step()
    return len(moves)


def test_leaders_are_current_when_speeds_are_set(monkeypatch):
    # A vehicle's leader is a fact of the step; lane changes move vehicles
    # after it is first written, so a stale leader would show here.
    rng = random.Random(22)
    moves = 0
    for _ in range(6):
        cfg = _random_corridor(rng)
        moves += _check_leaders_after_planning(monkeypatch, World(cfg), cfg.duration_s)
    assert moves >= 5


# -- lane changes -------------------------------------------------------------

def _lane_world(*vehicles, **overrides):
    cfg = SimConfig(duration_s=10.0, technique="fixed", arrival_rate_veh_s=0.0, **overrides)
    return _placed(cfg, *vehicles)


def test_slow_leader_and_free_lane_make_the_follower_change_lanes():
    # (seg, lane, pos, speed): a follower closing on a slow leader.
    world = _lane_world((0, 0, 100.0, 10.0), (0, 0, 120.0, 3.0))
    world.step()
    assert [v.lane for v in world.vehicles.values()] == [1, 0]


def test_close_follower_in_the_target_lane_keeps_the_vehicle_in_lane():
    world = _lane_world((0, 0, 100.0, 10.0), (0, 0, 120.0, 3.0), (0, 1, 90.0, 10.0))
    world.step()
    assert [v.lane for v in world.vehicles.values()] == [0, 0, 1]


def test_no_weaving_on_the_final_approach():
    world = _lane_world((0, 0, 975.0, 10.0), (0, 0, 990.0, 3.0))
    world.step()
    assert [v.lane for v in world.vehicles.values()] == [0, 0]


def test_lane_groups_stay_sorted_when_both_lanes_change():
    # A leaves lane 0 for lane 1, then C leaves lane 1 for lane 0, in one step.
    world = _lane_world((0, 0, 100.0, 10.0), (0, 0, 115.0, 2.0),
                        (0, 1, 300.0, 10.0), (0, 1, 315.0, 2.0))
    lights = world._by_lane()
    fleet = list(world.vehicles.values())
    world._caps(lights)
    assert world._lane_changes(fleet)
    groups = world.lights[0].groups
    assert [[v.vin for v in group] for group in groups] == [[2, 3], [1, 4]]
    for group in groups:
        assert [v.pos for v in group] == sorted(v.pos for v in group)
        assert all(v.lane == group[0].lane for v in group)
    world._leaders(lights)
    assert {v.vin: v.lead.vin for v in fleet if v.lead} == {2: 3, 1: 4}


def test_a_move_gives_the_vehicle_behind_a_new_leader_in_the_same_step(monkeypatch):
    # 1 overtakes the slow 2 into lane 1 and becomes the leader of 3 there;
    # 3, free at the start of the step, is now held back by 1 and moves
    # into the gap 1 left in lane 0.  The step's leaders are refreshed: 3
    # now follows 2, and 1 leads lane 1.
    world = _lane_world((0, 0, 100.0, 10.0), (0, 0, 120.0, 3.0), (0, 1, 70.0, 10.0))
    assert _check_leaders_after_planning(monkeypatch, world, world.cfg.dt_s) == 1
    assert [v.lane for v in world.vehicles.values()] == [1, 0, 0]


def test_no_move_reports_nothing_moved():
    world = _lane_world((0, 0, 100.0, 10.0), (0, 1, 300.0, 10.0))
    world._caps(world._by_lane())
    assert not world._lane_changes(list(world.vehicles.values()))


# -- lane changes against a reference copy ------------------------------------
# The lane changes as they stood before the trial-leader cap test was
# written out in the loop: ``_plan_cap`` (copied here too) is called for
# every trial leader, and every segment constant is read per vehicle.
# ``seen`` counts the branches taken.

_by_pos = attrgetter("pos")


def _ref_plan_cap(world, v, leader, seg):
    if leader is None:
        return seg.v_max
    gap = leader.pos - world.cfg.vehicle_length_m - v.pos
    safe = max(0.0, (gap - STANDSTILL_GAP_M) / TIME_GAP_S)
    return max(seg.v_min, min(seg.v_max, max(leader.speed, safe)))


def reference_lane_changes(world, fleet, lanes, leaders, caps, seen):
    cfg = world.cfg
    length = cfg.vehicle_length_m
    moved = False
    for v in fleet:
        if v.queued or v.speed < STOP_SPEED:
            continue
        seg = cfg.segments[v.seg]
        if seg.length_m - v.pos < 30.0:
            continue
        group = lanes[(v.seg, v.lane)]
        if moved:
            i = bisect_right(group, v.pos, key=_by_pos)
            lead = group[i] if i < len(group) else None
            if lead is leaders.get(v.vin):
                cap_here = caps[v.vin]
            else:
                cap_here = _ref_plan_cap(world, v, lead, seg)
                seen["new_leader"] += 1
        else:
            cap_here = caps[v.vin]
        if cap_here >= seg.v_max - 0.3:
            continue
        for other_lane in range(cfg.lanes):
            if other_lane == v.lane:
                continue
            other = lanes[(v.seg, other_lane)]
            i = bisect_left(other, v.pos, key=_by_pos)
            new_lead = other[i] if i < len(other) else None
            trial_cap = _ref_plan_cap(world, v, new_lead, seg)
            seen["cap_tie"] += trial_cap == cap_here + 0.5
            if trial_cap <= cap_here + 0.5:
                seen["cap"] += 1
                continue
            if new_lead is None:
                seen["free_lane"] += 1
            elif new_lead.pos - length - v.pos < TIME_GAP_S * max(v.speed, 1.0):
                seen["front_gap"] += 1
                continue
            if i:
                fastest = max(map(attrgetter("speed"), other[:i]))
                if v.pos - length - other[i - 1].pos < TIME_GAP_S * max(fastest, 1.0):
                    seen["rear_gap"] += 1
                    continue
            group.remove(v)
            v.lane = other_lane
            insort(other, v, key=_by_pos)
            moved = True
            seen["moved"] += 1
            break
    return moved


def _random_lane_state(rng):
    """A config of a 2- or 3-lane corridor of one or two short segments,
    the ``(seg, lane, pos, speed)`` of its densely placed vehicles, and
    the vins to flag as queued.  Half the states put positions, speeds and
    limits on a coarse grid, so that the tests' comparisons meet ties."""
    grid = rng.random() < 0.5

    def draw(lo, hi, step):
        x = rng.uniform(lo, hi)
        return round(x / step) * step if grid else x

    lanes = rng.choice((2, 3))
    segments = []
    for _ in range(rng.randint(1, 2)):
        v_max = draw(20.0 * KMH, 80.0 * KMH, 0.5)
        segments.append(SegmentConfig(length_m=draw(100.0, 300.0, 10.0),
                                      v_min=min(v_max, draw(0.0, 20.0 * KMH, 0.5)),
                                      v_max=v_max))
    placed = []
    for seg_idx, seg in enumerate(segments):
        for lane in range(lanes):
            pos = draw(0.0, 20.0, 0.5)
            while pos < seg.length_m and len(placed) < 40:
                speed = rng.choice((0.0, draw(0.0, 2.0 * STOP_SPEED, 0.05),
                                    draw(0.0, seg.v_max, 0.25), draw(0.0, seg.v_max, 0.25),
                                    draw(0.5 * seg.v_max, 1.2 * seg.v_max, 0.25)))
                placed.append((seg_idx, lane, pos, speed))
                pos += 5.0 + rng.choice((draw(0.0, 4.0, 0.5), draw(0.0, 20.0, 0.5),
                                         draw(0.0, 80.0, 0.5)))
    cfg = SimConfig(duration_s=0.0, technique="fixed", arrival_rate_veh_s=0.0,
                    activation_distance_m=min(s.length_m for s in segments), lanes=lanes,
                    segments=tuple(segments))
    queued = {k + 1 for k in range(len(placed)) if rng.random() < 0.1}
    return cfg, placed, queued


def _lane_change_outcome(cfg, placed, queued, lane_changes):
    """Run ``lane_changes(world, fleet, lanes, leaders, caps)`` on a fresh
    world of ``cfg`` with the ``placed`` vehicles, at the start of its first
    step, with the step's leaders and caps as dicts by vin read from the
    vehicles; returns the result, every vehicle's lane and every lane
    group's vins in order."""
    world = _placed(cfg, *placed)
    for vin in queued:
        world.vehicles[vin].queued = True
    lanes = _lane_groups(world)
    world._caps(world._by_lane())
    fleet = list(world.vehicles.values())
    leaders = {v.vin: v.lead for v in fleet if v.lead is not None}
    caps = {v.vin: v.cap for v in fleet}
    moved = lane_changes(world, fleet, lanes, leaders, caps)
    return (moved, [v.lane for v in fleet],
            {key: [v.vin for v in group] for key, group in lanes.items()})


def test_lane_changes_decide_as_the_reference_copy():
    rng = random.Random(21)
    seen = Counter()
    for _ in range(2000):
        cfg, placed, queued = _random_lane_state(rng)
        expected = _lane_change_outcome(
            cfg, placed, queued, lambda world, *args: reference_lane_changes(world, *args, seen))
        got = _lane_change_outcome(
            cfg, placed, queued, lambda world, fleet, *args: world._lane_changes(fleet))
        assert got == expected, (cfg, placed)
    # Moves, moves after which a later vehicle has a new own-lane leader,
    # and rejections by each test, ties of the cap test among them.
    assert min(seen[k] for k in ("moved", "new_leader", "cap", "front_gap", "rear_gap",
                                 "free_lane", "cap_tie")) >= 100, seen


# -- configuration and spawning -------------------------------------------------

def test_scripted_arrivals_must_not_decrease():
    with pytest.raises(ValueError, match="non-decreasing"):
        SimConfig(scripted_arrivals=(1.0, 3.0, 2.0))
    SimConfig(scripted_arrivals=(1.0, 1.0, 2.0))


def test_driving_parameters_must_be_in_range():
    # A step as long as the reaction time lets vehicles overlap.
    for name, bad, message in [
        ("activation_distance_m", -1.0, "activation distance"),
        ("dt_s", 1.1, "reaction time"), ("dt_s", 2.0, "reaction time"),
        ("lanes", 1, "at least two lanes"), ("lanes", 0, "at least two lanes"),
    ]:
        with pytest.raises(ValueError, match=message):
            SimConfig(**{name: bad})
    SimConfig(activation_distance_m=0.0)
    SimConfig(dt_s=1.0)


def test_duration_must_be_a_whole_number_of_steps():
    # ``World.run`` takes round(duration / dt) steps: 0.25 s at 0.1 s ran
    # two steps and 0.15 s one, while the report gave 0.25 and 0.15.
    for duration, dt in [(0.25, 0.1), (0.15, 0.1)]:
        with pytest.raises(ValueError, match="whole number of steps"):
            SimConfig(duration_s=duration, dt_s=dt)
    for duration, dt in [(600.0, 0.1), (300.0, 0.2), (300.0, 0.05), (0.0, 0.1)]:
        SimConfig(duration_s=duration, dt_s=dt)


def test_vehicle_length_is_a_model_constant():
    # Every scenario drives the same vehicles: the length is readable on a
    # config but no scenario can set it.
    cfg = SimConfig()
    assert cfg.vehicle_length_m == sim.VEHICLE_LENGTH_M == 5.0
    with pytest.raises(TypeError):
        SimConfig(vehicle_length_m=4.0)
    with pytest.raises(TypeError):
        dataclasses.replace(cfg, vehicle_length_m=4.0)


def test_a_segment_needs_a_positive_top_speed():
    # With v_min = v_max = 0 every vehicle entered at 0 m/s and never moved:
    # a 60 s run spawned 2, completed none and left 4 arrivals waiting.
    with pytest.raises(ValueError, match="v_max > 0"):
        SegmentConfig(v_min=0.0, v_max=0.0)
    SegmentConfig(v_min=0.0, v_max=1.0)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_a_segment_after_the_first_must_outlast_a_step_at_top_speed(technique):
    # A crossing vehicle lands up to one step at the corridor's top speed
    # into the next segment.  On a 1 m middle segment, 1.667 m at 60 km/h
    # and dt 0.1 s, a lone vehicle started a step 1.389 m into it: fixed
    # went on, and csof and ncso raised in the planner at t = 14.6 s.
    top_step = 60 * KMH * 0.1
    signal = SignalConfig(green_s=500.0, red_s=10.0)

    def corridor(middle, **demand):
        segments = tuple(SegmentConfig(length_m=length, signal=signal)
                         for length in (200.0, middle, 200.0))
        return SimConfig(duration_s=300.0, technique=technique, activation_distance_m=1.0,
                         segments=segments, **demand)

    for middle in (1.0, top_step):
        with pytest.raises(ValueError, match="longer than one step"):
            corridor(middle, scripted_arrivals=(0.0,))
    # The first segment is exempt: vehicles enter at its start.
    SimConfig(segments=(SegmentConfig(length_m=1.0), SegmentConfig()), activation_distance_m=1.0)
    world = World(corridor(math.nextafter(top_step, math.inf), arrival_rate_veh_s=0.2))
    while world.t < world.cfg.duration_s - 1e-9:
        world.step()
        _check_lanes_and_accounting(world)
    assert world.completed > 40, world.completed


def test_the_lane_count_is_the_corridors():
    # A vehicle crosses into its own lane of the next segment, so no
    # segment has a lane count of its own.
    with pytest.raises(TypeError):
        SegmentConfig(lanes=3)


def test_arrival_rate_must_be_non_negative():
    with pytest.raises(ValueError, match="arrival rate"):
        SimConfig(arrival_rate_veh_s=-0.1)
    SimConfig(arrival_rate_veh_s=0.0)


def test_arrival_inputs_must_be_finite():
    # An infinite rate would keep the spawner drawing zero gaps forever; a
    # NaN rate would spawn nothing; a NaN arrival passes the order check
    # and blocks itself and every later arrival.
    for rate in (math.inf, math.nan):
        with pytest.raises(ValueError, match="arrival rate"):
            SimConfig(arrival_rate_veh_s=rate)
    for arrivals in ((1.0, math.nan, 2.0, 3.0), (math.nan,), (1.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            SimConfig(scripted_arrivals=arrivals)


@pytest.mark.parametrize("config, name, value", [
    (SimConfig, "duration_s", math.inf), (SimConfig, "dt_s", math.nan),
    (SimConfig, "activation_distance_m", math.nan),
    (SegmentConfig, "length_m", math.nan), (SegmentConfig, "v_min", math.nan),
    (SegmentConfig, "v_max", math.inf), (SegmentConfig, "grade", math.nan),
    (SignalConfig, "green_s", math.inf), (SignalConfig, "red_s", math.nan),
    (SignalConfig, "all_red_gap_s", math.nan), (SignalConfig, "offset_s", math.nan),
    (SignalConfig, "departure_rate", math.nan),
], ids=lambda x: getattr(x, "__name__", str(x)))
def test_config_numbers_must_be_finite(config, name, value):
    # Most of these used to be accepted: a NaN activation distance let
    # every vehicle plan from anywhere on its segment, and a NaN grade
    # made every energy figure NaN.
    with pytest.raises(ValueError, match="finite"):
        config(**{name: value})


@pytest.mark.parametrize("make", [
    lambda: SimConfig(lanes=2.5),
    lambda: SimConfig(lanes=3.0),
    lambda: SimConfig(seed="1"),
    lambda: SimConfig(seed=None),
    lambda: SimConfig(seed=1.5),
    lambda: SimConfig(seed=True),
    lambda: SimConfig(lanes=True),
], ids=["lanes-2.5", "lanes-3.0", "seed-str", "seed-None", "seed-1.5", "seed-True",
        "lanes-True"])
def test_config_indices_must_be_integers(make):
    # These used to fail later with an unrelated error (a TypeError from
    # ``range`` or from seeding the streams).  A seed of 1.5 was accepted:
    # it seeded the streams with 9.0 and the report gave seed 1.5.  A bool
    # is an ``int``: ``seed=True`` ran as seed 1 but reported ``seed=True``,
    # ``==`` to the seed-1 report and different by ``repr``.
    with pytest.raises(ValueError, match="integer"):
        make()


def _lone_trip_steps(technique, grade, dt):
    """The steps of a lone vehicle, placed at the cruise speed at the start
    of a two-segment corridor graded ``grade`` then ``-grade``, as
    (speed before, speed after, segment) until it leaves.  The second
    light's offset of 12 s makes a green wave at the cruise speed: the line
    of SI1 is green at t = 72 s and that of SI2 at 144 s.  After every step,
    each segment's running ``energy_j`` must equal by ``repr`` the sum of
    that segment's own ``step_energy`` calls, one per step not at rest."""
    segments = (SegmentConfig(grade=grade),
                SegmentConfig(grade=-grade, signal=SignalConfig(offset_s=12.0)))
    cfg = SimConfig(dt_s=dt, technique=technique, arrival_rate_veh_s=0.0, segments=segments)
    world = _placed(cfg, (0, 0, 0.0, min(ENTRY_SPEED, segments[0].v_max)))
    v = world.vehicles[1]
    expected = [0.0, 0.0]
    steps = []
    while v.vin in world.vehicles:
        assert world.t < 300.0
        speed, seg = v.speed, v.seg
        world.step()
        if speed or v.speed:
            expected[seg] += step_energy(speed, v.speed, dt, segments[seg].grade * v.speed * dt)
        steps.append((speed, v.speed, seg))
        assert list(map(repr, v.energy_j)) == list(map(repr, expected)), (world.t, steps[-1])
    return steps


@pytest.mark.parametrize("grade", [0.01, -0.01])
@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
def test_a_cruising_step_books_what_step_energy_gives(grade, dt):
    # A lone ``fixed`` vehicle on the green wave cruises throughout, so every
    # step after the first on a segment books the float its first steady
    # step kept.  The segments' grades differ: the float kept on the first
    # segment must not be booked on the second.
    cruise = min(ENTRY_SPEED, SegmentConfig().v_max)
    steps = _lone_trip_steps("fixed", grade, dt)
    assert {(before, after) for before, after, _ in steps} == {(cruise, cruise)}
    per_segment = Counter(seg for *_, seg in steps)
    assert per_segment[0] > 100 and per_segment[1] > 100, per_segment


@pytest.mark.parametrize("grade", [0.01, -0.01])
@pytest.mark.parametrize("dt", [0.05, 0.1, 0.2])
def test_a_steady_step_at_a_planned_speed_books_what_step_energy_gives(grade, dt):
    # A lone ``csof`` vehicle on the green wave plans speeds inside its
    # band and holds them: on each segment, steady steps at speeds other
    # than the cruise speed come fresh (the speed differs from the last
    # steady step's on the segment, so its float is computed and kept) and
    # repeated (the kept float is booked again).
    cruise = min(ENTRY_SPEED, SegmentConfig().v_max)
    seen = Counter()
    kept = None  # the speed of the last steady step on the segment
    on = 0
    for before, after, seg in _lone_trip_steps("csof", grade, dt):
        if seg != on:
            kept, on = None, seg
        if before == after != 0.0:
            if after != cruise:
                seen[seg, "repeated" if after == kept else "fresh"] += 1
            kept = after
    assert min(seen[seg, kind] for seg in (0, 1) for kind in ("fresh", "repeated")) > 0, seen


@pytest.mark.parametrize("technique, seed", [("csof", 2), ("ncso", 3), ("fixed", 4)])
def test_poisson_demand_is_its_arrival_times_scripted(technique, seed):
    # A Poisson rate is the stream of cumulative exponential gaps drawn
    # from the arrival generator, ``random.Random(6 * seed)``; scripting
    # those times gives the same run.
    rate = 0.3
    cfg = SimConfig(duration_s=120.0, technique=technique, seed=seed, arrival_rate_veh_s=rate)
    draws = random.Random(6 * seed)
    arrivals = [draws.expovariate(rate)]
    while arrivals[-1] <= cfg.duration_s:
        arrivals.append(arrivals[-1] + draws.expovariate(rate))
    scripted = dataclasses.replace(cfg, scripted_arrivals=tuple(arrivals))
    report = World(cfg).run()
    assert report.spawned > 20
    assert repr(report) == repr(World(scripted).run())


def test_poisson_arrivals_continue_past_the_duration():
    cfg = SimConfig(duration_s=30.0, technique="fixed", arrival_rate_veh_s=0.5, seed=1)
    world = World(cfg)
    world.run()
    spawned = world.spawned
    while world.t < 2 * cfg.duration_s:
        world.step()
    assert world.spawned > spawned


def test_an_arrival_enters_the_freest_clear_lane():
    # A lane is clear when its rearmost vehicle's front is at 12 m or more,
    # a vehicle length and the standstill gap in; of the clear lanes, the
    # one whose rearmost vehicle is furthest in takes the arrival, an empty
    # lane before any other and lane 0 on a tie.
    cfg = SimConfig(duration_s=0.0, technique="fixed", arrival_rate_veh_s=0.0)
    for placed, lane in [
        (((0, 0, 20.0, 0.0), (0, 1, 40.0, 0.0)), 1),
        (((0, 0, 11.99, 0.0), (0, 1, 11.99, 0.0)), None),
        (((0, 0, 12.0, 0.0), (0, 1, 11.0, 0.0)), 0),
        (((0, 0, 500.0, 0.0),), 1),
        ((), 0),
    ]:
        assert _placed(cfg, *placed)._entry_lane() == lane, placed


def test_stop_detector_arms_at_the_configured_moving_speed():
    # Rolling just above or just below the moving speed, 0.8 m short of a
    # red light: the vehicle slows below the moving speed at once, so only
    # the detector's initial arming decides whether its stop counts.
    for speed, stops in [(MOVING_SPEED + 0.05, 1), (MOVING_SPEED - 0.05, 0)]:
        cfg = SimConfig(duration_s=5.0, technique="fixed", arrival_rate_veh_s=0.0,
                        segments=(SegmentConfig(signal=SignalConfig(offset_s=30.0)),))
        world = _placed(cfg, (0, 0, 999.2, speed))
        world.run()
        v = world.vehicles[1]
        assert v.idle[0] > 0.0, speed
        assert v.stops[0] == stops, speed
