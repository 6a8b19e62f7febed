import random

import pytest

from coopspeed.signals import SignalConfig
from coopspeed.sim import (
    KMH,
    MOVING_SPEED,
    TECHNIQUES,
    InitialVehicle,
    IntersectionMetrics,
    MetricsReport,
    SegmentConfig,
    SimConfig,
    World,
)


def test_token_table_matches_tokens_at_every_step():
    # csof at 600 veh/h, seed 2: the first 120 s include losers of games
    # whose earlier claims used to linger beside their new ones.  A claim
    # is the vehicle's token, so the table must hold one per vehicle and
    # one per slot.
    world = World(SimConfig(seed=2, technique="csof", arrival_rate_veh_s=600 / 3600))
    while world.t < 120.0:
        world.step()
        for light in world.lights:
            requests = light.table.requests()
            vins = [vin for vin, _ in requests]
            slots = [slot for _, slot in requests]
            assert len(set(vins)) == len(vins), (world.t, light.idx, requests)
            assert len(set(slots)) == len(slots), (world.t, light.idx, requests)
            on_segment = {vin for vin, v in world.vehicles.items() if v.seg == light.idx}
            assert set(vins) <= on_segment, (world.t, light.idx, requests)


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


# -- regression lock ----------------------------------------------------------
# Reports recorded before the step moved to the sorted lane index, with
# the energy fields recorded again when energy became the kinetic-energy
# model; the `ncso` pin and the three two-segment runs, which each complete
# at least 20 vehicles, were recorded before the step was slimmed down.
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
        [(20.55200000000013, 0.88, 7846.782079022044),
         (2.9560000000000177, 0.16, 166158.8064990281)],
        23.50800000000015, 1.04, 174005.58857805017),
    "ncso-20": _pin(
        _two_short("ncso"), 139, 28, 111,
        [(29.350000000000215, 1.0714285714285714, 8544.064593286512),
         (0.39642857142857163, 0.14285714285714285, 168954.59275120418)],
        29.746428571428787, 1.2142857142857142, 177498.6573444907),
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

def test_trip_energy_converges_in_dt():
    # One cruising vehicle over the default corridor, stopped once by a red.
    trips = []
    for dt in (0.05, 0.1, 0.2):
        cfg = SimConfig(duration_s=300.0, dt_s=dt, technique="fixed", arrival_rate_veh_s=0.0,
                        initial_vehicles=(InitialVehicle(speed=13.89),))
        report = World(cfg).run()
        assert report.completed == 1
        assert report.total_mean_idling_s > 0.0
        assert all(m.mean_energy_j >= 0.0 for m in report.per_intersection), (dt, report)
        trips.append(report.total_mean_energy_j)
    assert max(trips) <= 1.02 * min(trips), trips


@pytest.mark.parametrize("technique", ["csof", "ncso", "fixed"])
def test_queue_discharge_never_exceeds_departures_per_green(technique):
    # 1800 veh/h saturates the first lights: no green may let more
    # vehicles cross than the service rate allows in it.
    cfg = SimConfig(duration_s=300.0, technique=technique, arrival_rate_veh_s=0.5, seed=1)
    world = World(cfg)
    world.run()
    for light in world.lights:
        assert light.green_crossing_history, light.idx
        assert max(light.green_crossing_history) <= light.n_dep, (light.idx, light.n_dep)
    first = world.lights[0]
    assert max(first.green_crossing_history) >= first.n_dep - 1


# -- per-step invariants ------------------------------------------------------

def _check_lanes_and_accounting(world):
    """Each lane group of the index is in ascending pos with a vehicle
    length between neighbours, the index holds every vehicle exactly once
    in its own lane, every spawned vehicle is completed or in the network,
    and credits are conserved."""
    length = world.cfg.vehicle_length_m
    indexed = []
    for key, group in world._by_lane().items():
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
            on_queue = [v.vin for v in light.queue]
            queued = [v.vin for v in world.vehicles.values() if v.queued and v.seg == light.idx]
            assert sorted(on_queue) == queued, (world.t, light.idx)
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
    """1-3 segments sharing a lane count, with random lengths, speed bands
    and signal timings, a random technique and a random demand."""
    lanes = rng.choice((2, 3))
    segments = []
    for _ in range(rng.randint(1, 3)):
        green, red = rng.uniform(10.0, 50.0), rng.uniform(10.0, 50.0)
        signal = SignalConfig(green_s=green, red_s=red,
                              all_red_gap_s=rng.uniform(0.0, min(green, red, 5.0)),
                              offset_s=rng.uniform(0.0, green + red),
                              departure_rate=rng.uniform(0.2, 0.8))
        segments.append(SegmentConfig(length_m=rng.uniform(150.0, 1200.0), lanes=lanes,
                                      v_min=rng.uniform(0.0, 20.0) * KMH,
                                      v_max=rng.uniform(20.0, 80.0) * KMH, signal=signal))
    return SimConfig(duration_s=120.0, seed=rng.randint(1, 10**6),
                     technique=rng.choice(TECHNIQUES),
                     activation_distance_m=rng.uniform(0.0, min(s.length_m for s in segments)),
                     arrival_rate_veh_s=rng.uniform(0.05, 0.5), segments=tuple(segments))


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


def test_caps_match_plan_cap_at_every_step():
    # _caps writes out _plan_cap's arithmetic for a whole lane group; the
    # two must agree bit for bit, signed zeros included.
    world = World(_two_short("csof"))
    while world.t < 120.0:
        lanes = world._by_lane()
        caps = world._caps(lanes)
        leaders = world._leaders(lanes)
        for (seg, _), group in lanes.items():
            for v in group:
                expected = world._plan_cap(v, leaders.get(v.vin), world.cfg.segments[seg])
                assert repr(caps[v.vin]) == repr(expected), (world.t, v.vin)
        world.step()
    assert len(set(caps.values())) > 2  # leaders' speeds and gaps, not only the limits


# -- lane changes -------------------------------------------------------------

def _lane_world(*vehicles, **overrides):
    cfg = SimConfig(duration_s=10.0, technique="fixed", arrival_rate_veh_s=0.0,
                    initial_vehicles=tuple(InitialVehicle(*v) for v in vehicles), **overrides)
    return World(cfg)


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
    lanes = world._by_lane()
    fleet = list(world.vehicles.values())
    leaders = world._leaders(lanes)
    caps = world._caps(lanes)
    assert world._lane_changes(fleet, lanes, leaders, caps)
    assert [[v.vin for v in lanes[(0, lane)]] for lane in (0, 1)] == [[2, 3], [1, 4]]
    for group in lanes.values():
        assert [v.pos for v in group] == sorted(v.pos for v in group)
        assert all(v.lane == group[0].lane for v in group)
    assert {f: lead.vin for f, lead in world._leaders(lanes).items()} == {2: 3, 1: 4}


def test_a_move_gives_the_vehicle_behind_a_new_leader_in_the_same_step():
    # 1 overtakes the slow 2 into lane 1 and becomes the leader of 3 there;
    # 3, free at the start of the step, is now held back by 1 and moves
    # into the gap 1 left in lane 0.
    world = _lane_world((0, 0, 100.0, 10.0), (0, 0, 120.0, 3.0), (0, 1, 70.0, 10.0))
    world.step()
    assert [v.lane for v in world.vehicles.values()] == [1, 0, 0]


def test_no_move_reports_nothing_moved():
    world = _lane_world((0, 0, 100.0, 10.0), (0, 1, 300.0, 10.0))
    lanes = world._by_lane()
    assert not world._lane_changes(list(world.vehicles.values()), lanes,
                                   world._leaders(lanes), world._caps(lanes))


# -- configuration and spawning -------------------------------------------------

def test_scripted_arrivals_must_not_decrease():
    with pytest.raises(ValueError, match="non-decreasing"):
        SimConfig(scripted_arrivals=(1.0, 3.0, 2.0))
    SimConfig(scripted_arrivals=(1.0, 1.0, 2.0))


def test_driving_parameters_must_be_in_range():
    # A non-positive vehicle length lets vehicles overlap.
    for name, bad, message in [
        ("vehicle_length_m", 0.0, "vehicle length"), ("vehicle_length_m", -5.0, "vehicle length"),
        ("activation_distance_m", -1.0, "activation distance"),
    ]:
        with pytest.raises(ValueError, match=message):
            SimConfig(**{name: bad})
    SimConfig(activation_distance_m=0.0)


def test_segments_must_share_one_lane_count():
    # A vehicle crosses into its own lane of the next segment; a lane the
    # next segment lacks would take it off the lane index.
    segments = (SegmentConfig(length_m=200.0, lanes=3), SegmentConfig(length_m=200.0, lanes=2))
    with pytest.raises(ValueError, match="number of lanes"):
        SimConfig(duration_s=60.0, technique="fixed", arrival_rate_veh_s=0.0,
                  activation_distance_m=100.0, segments=segments,
                  initial_vehicles=(InitialVehicle(seg=0, lane=2, pos=150.0, speed=10.0),))
    SimConfig(activation_distance_m=100.0,
              segments=(SegmentConfig(length_m=200.0, lanes=3),) * 2)


@pytest.mark.parametrize("placed, message", [
    (((7, 0, 100.0, 10.0),), "segment 7"),
    (((0, 5, 100.0, 10.0),), "lane 5"),
    (((0, 0, 1000.0, 10.0),), "outside"),
    (((0, 0, -1.0, 10.0),), "outside"),
    (((0, 0, 100.0, -1.0),), "speed"),
    (((0, 1, 100.0, 10.0), (0, 1, 102.0, 10.0)), "overlap"),
], ids=["segment", "lane", "pos-end", "pos-negative", "speed", "spacing"])
def test_initial_vehicles_must_fit_the_corridor(placed, message):
    with pytest.raises(ValueError, match=message):
        SimConfig(initial_vehicles=tuple(InitialVehicle(*v) for v in placed))


def test_initial_vehicles_a_length_apart_or_in_other_lanes_are_accepted():
    SimConfig(initial_vehicles=(InitialVehicle(0, 0, 100.0), InitialVehicle(0, 0, 105.0),
                                InitialVehicle(0, 1, 101.0), InitialVehicle(1, 0, 101.0)))


def test_arrival_rate_must_be_non_negative():
    with pytest.raises(ValueError, match="arrival rate"):
        SimConfig(arrival_rate_veh_s=-0.1)
    SimConfig(arrival_rate_veh_s=0.0)


def test_stop_detector_arms_at_the_configured_moving_speed():
    # Rolling just above or just below the moving speed, 0.8 m short of a
    # red light: the vehicle slows below the moving speed at once, so only
    # the detector's initial arming decides whether its stop counts.
    for speed, stops in [(MOVING_SPEED + 0.05, 1), (MOVING_SPEED - 0.05, 0)]:
        cfg = SimConfig(duration_s=5.0, technique="fixed", arrival_rate_veh_s=0.0,
                        segments=(SegmentConfig(signal=SignalConfig(offset_s=30.0)),),
                        initial_vehicles=(InitialVehicle(pos=999.2, speed=speed),))
        world = World(cfg)
        world.run()
        v = world.vehicles[1]
        assert v.idle[0] > 0.0, speed
        assert v.stops[0] == stops, speed
