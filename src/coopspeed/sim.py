"""Discrete-time corridor engine.

A corridor is a chain of road segments, each ending at a fixed-cycle
light.  Per step the engine advances signals and sets each light's
per-step facts, writes every vehicle's leader and planning ceiling on
the vehicle (``Vehicle.lead``, ``Vehicle.cap``), lets vehicles change
lanes, lets in-range cooperative vehicles maintain or claim time tokens
(with conflicts settled by the precedence games), and then takes each
vehicle, in vin order, from its planned target to its new speed under
the density, comfort, car-following and stop-line clamps.  Energy,
integration, queues and spawning follow.

A *held* vehicle is queued, at rest, and waits at a light that is not
crossable, so its target is 0.0.  That target from rest survives every
clamp: the density cap is positive, the comfort band is the speed plus or
minus ``ACCEL_LIMIT * dt``, and the car-following and stop-line bounds are
non-negative.  Its new speed is 0.0 without the clamps or the gate, and
its step from rest to rest books its idling and any armed stop and
nothing else: it does not move, and every vehicle starts a step short of
its stop line, so it cannot cross.

Three techniques share identical road physics:

* ``csof``  -- token table per light: a vehicle claims a free slot it can
  reach, its arrival slot if it can, and conflicts are resolved by games;
* ``ncso``  -- the same case-based speed planning, but every vehicle
  assumes the slot whose arrival window holds its arrival is free (no
  table, no games, no exclusivity);
* ``fixed`` -- no speed optimization; cruise and react.

Under ``csof``, each step every light with a participant runs
``tokens.allocation_round`` over the unqueued vehicles within activation
distance that hold a claim or submit a request.  A vehicle's token is its
claim in the light's table, released when the vehicle crosses or joins
the queue; the round changes only the table and fills its window list for
the step (``TokenTable.windows``).  Under ``ncso`` there is no round: a
vehicle that submits a request takes its arrival slot, which
``tokens.arrival_slot`` finds in that list.  Either way the planner aims
at the window of the vehicle's slot in the list.
A light's table is cleared when its light turns red, so slots granted
during red carry into the green they target and everything expires with
it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterator
from dataclasses import dataclass, field
from operator import attrgetter
from typing import ClassVar

from .energy import step_energy
from .games import CreditLedger, Mode
from .planner import density_speed, plan
from .signals import (
    SignalConfig,
    SignalState,
    departures_per_green,
    queue_clear_time,
    state_at,
)
from .tokens import (
    Approacher,
    TokenTable,
    allocation_round,
    arrival_slot,
    request_tti,
)

TECHNIQUES = ("csof", "ncso", "fixed")

KMH = 1 / 3.6

# Driver and vehicle model, the same in every scenario.
ENTRY_SPEED = 50.0 * KMH
VEHICLE_LENGTH_M = 5.0
MODE_PROBABILITIES = (0.2, 0.6, 0.2)  # relaxed, normal, rush
ACCEL_LIMIT = 2.5  # comfort bound, m/s^2
TIME_GAP_S = 2.0
REACTION_TIME_S = 1.10
STANDSTILL_GAP_M = 2.0
PLAN_MARGIN_S = 0.5  # extra slack before a green closes
ARRIVAL_BIAS_S = 0.5  # aim this far into the target window
STOP_SPEED = 0.1  # below this a vehicle counts as stopped
MOVING_SPEED = 1.0  # stop detector re-arms above this
JAM_DENSITY_VEH_KM_LANE = 150.0
DENSITY_CAP_RATIO = 0.85

_pos = attrgetter("pos")
_speed = attrgetter("speed")


def _is_int(x: object) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)  # True runs as 1, reports True


@dataclass(frozen=True)
class SegmentConfig:
    length_m: float = 1000.0
    v_min: float = 10.0 * KMH
    v_max: float = 60.0 * KMH
    grade: float = 0.0  # elevation gain per meter traveled
    signal: SignalConfig = field(default_factory=SignalConfig)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.length_m, self.v_min, self.v_max, self.grade))):
            raise ValueError("segment length, speed band and grade must be finite")
        if self.length_m <= 0:
            raise ValueError("segment length must be positive")
        if not 0 <= self.v_min <= self.v_max or self.v_max <= 0:
            # At v_max = 0 every vehicle enters at rest and never moves.
            raise ValueError("need 0 <= v_min <= v_max and v_max > 0")


def _default_segments() -> tuple[SegmentConfig, ...]:
    return (SegmentConfig(), SegmentConfig(), SegmentConfig())


@dataclass(frozen=True)
class SimConfig:
    duration_s: float = 10800.0
    dt_s: float = 0.1
    seed: int = 1
    technique: str = "csof"
    activation_distance_m: float = 500.0
    arrival_rate_veh_s: float = 0.1
    lanes: int = 2  # on every segment: a vehicle crosses into its own lane
    vehicle_length_m: ClassVar[float] = VEHICLE_LENGTH_M  # a model constant, not a field
    segments: tuple[SegmentConfig, ...] = field(default_factory=_default_segments)
    scripted_arrivals: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.duration_s, self.dt_s, self.activation_distance_m))):
            raise ValueError("duration, dt and activation distance must be finite")
        if not _is_int(self.seed):
            # A float seeds the streams with a float and a string or None
            # fails in ``World``; the report would repeat the given value.
            raise ValueError("seed must be an integer")
        if self.dt_s <= 0:
            raise ValueError("dt must be positive")
        if self.dt_s >= REACTION_TIME_S:
            # A longer step can carry a follower past its leader within one
            # step: vehicles in a lane overlap and the lane index falls out
            # of order (see the integration loop in ``World.step``).
            raise ValueError(f"dt must be below the reaction time, {REACTION_TIME_S} s")
        if self.duration_s < 0:
            raise ValueError("duration must be non-negative")
        steps = round(self.duration_s / self.dt_s)
        if abs(steps * self.dt_s - self.duration_s) > 1e-9 * max(1.0, self.duration_s):
            # ``World.run`` takes that many steps; the report would give a
            # duration the run did not simulate.
            raise ValueError("duration must be a whole number of steps")
        if self.technique not in TECHNIQUES:
            raise ValueError(f"technique must be one of {TECHNIQUES}")
        if not self.segments:
            raise ValueError("need at least one segment")
        top = max(s.v_max for s in self.segments)  # no vehicle ever moves faster
        if any(s.length_m <= top * self.dt_s for s in self.segments[1:]):
            # A crossing vehicle lands up to one step's advance into the next
            # segment; a shorter segment would leave it past that segment's line.
            raise ValueError("every segment after the first must be longer than one step "
                             "at the corridor's top speed")
        if self.activation_distance_m < 0:
            raise ValueError("activation distance must be non-negative")
        if self.activation_distance_m > min(s.length_m for s in self.segments):
            raise ValueError("activation distance cannot exceed segment length")
        if not _is_int(self.lanes):
            raise ValueError("the number of lanes must be an integer")
        if self.lanes < 2:
            raise ValueError("the corridor needs at least two lanes")
        if not 0 <= self.arrival_rate_veh_s < math.inf:
            # An infinite rate never lets the spawner leave its loop; NaN
            # would spawn nothing.
            raise ValueError("arrival rate must be finite and non-negative")
        arrivals = self.scripted_arrivals
        if arrivals is not None:
            if not all(map(math.isfinite, arrivals)):
                # A NaN passes the order check and blocks every later arrival.
                raise ValueError("scripted arrivals must be finite")
            if any(a > b for a, b in zip(arrivals, arrivals[1:])):
                # Spawning stops at the first arrival still in the future.
                raise ValueError("scripted arrivals must be non-decreasing")


def _arrival_times(cfg: SimConfig, rng: random.Random) -> Iterator[float]:
    """The scenario's arrival times in order: its scripted arrivals, or a
    Poisson stream of ``cfg.arrival_rate_veh_s`` drawn from ``rng``, which
    never ends."""
    if cfg.scripted_arrivals is not None:
        yield from cfg.scripted_arrivals
        return
    rate = cfg.arrival_rate_veh_s
    t = 0.0
    while rate > 0:
        t += rng.expovariate(rate)
        yield t


class Vehicle:
    """``lead`` (the next vehicle in its lane group, None at the front) and
    ``cap`` (its planning ceiling) hold for one step only: ``World._caps`` writes
    both before lane changes, and ``World._leaders`` refreshes ``lead`` after a move.

    ``steady_speed`` is the speed of the vehicle's last steady step on its
    segment, one that kept a non-zero speed, and ``steady_j`` the energy that
    step booked; ``World._accrue_energy`` books it again for a steady step at
    that speed.  ``steady_speed`` is NaN at spawn and is reset to NaN when the
    vehicle crosses into the next segment, whose grade may differ."""

    __slots__ = ("vin", "mode", "seg", "lane", "pos", "speed", "lead", "cap", "queued", "idle",
                 "stops", "energy_j", "steady_speed", "steady_j", "stop_armed", "spawned_at")

    def __init__(self, vin: int, mode: Mode, seg: int, lane: int, pos: float,
                 speed: float, n_segments: int, spawned_at: float) -> None:
        self.vin = vin
        self.mode = mode
        self.seg = seg
        self.lane = lane
        self.pos = pos
        self.speed = speed
        self.lead: Vehicle | None = None
        self.cap = 0.0
        self.queued = False
        self.idle = [0.0] * n_segments
        self.stops = [0] * n_segments
        self.energy_j = [0.0] * n_segments
        self.steady_speed = math.nan
        self.steady_j = 0.0
        self.stop_armed = speed > MOVING_SPEED
        self.spawned_at = spawned_at


class LightAgent:
    """Runtime record of one segment and the light at its end: every phase
    of ``World.step`` reads the segment's facts here.

    Fixed for the run: ``idx``; the signal timing ``cfg``;
    ``gate_headway``, the gate's least time between crossings
    (1/mu less a 1e-9 s tolerance); the stop-line position ``line_at`` and
    ``line_km``, the same in km; the speed band ``v_min``, ``v_max``;
    ``cruise``, the speed of a vehicle entering or cruising on the segment;
    ``line_zone``, the distance to the line within which the line may bind;
    and the ``grade``.

    ``state``, the light's one ``SignalState``, is built with the light: its
    timing and its green-end margin (the all-red gap plus
    ``PLAN_MARGIN_S``) hold for the run, the start of each step writes its
    phase in place, and the end of each step its ``queue_len``, the number
    of the segment's vehicles flagged ``queued`` (the queue itself).  The
    token ``table`` holds the slots' arrival offsets from the green start,
    fixed for the run, and the step's arrival windows, reset at the start of
    each step, where both techniques read a vehicle's window.

    Set at the start of each step: ``density_cap``, the segment's density
    speed cap; ``queued_target``, the target of a queued vehicle; and
    ``t_q``, the time the queue takes to clear plus the arrival bias.  Two
    of them are recomputed only when their count changes: ``density_cap``
    when the segment's vehicle count does (``density_count`` holds the
    count it was computed from) and ``t_q`` when the queue length does
    (``t_q_count``).  Each is a function of its count and of facts fixed for
    the run.

    Changed during the run: ``groups``, the segment's ``SimConfig.lanes`` lanes,
    each a list of its vehicles in ascending pos, kept across steps (the lane
    index, from which each step derives ``Vehicle.lead``); the ``table``'s claims,
    cleared when the light turns red; ``last_cross_t``, set at each crossing and
    read by the gate's headway test; and ``sum_idle``, ``sum_stops``,
    ``sum_energy``, the completed vehicles' totals."""

    __slots__ = ("idx", "cfg", "gate_headway", "table", "last_cross_t",
                 "line_at", "line_km", "v_min", "v_max", "cruise", "line_zone", "grade",
                 "groups", "state", "density_cap", "density_count", "queued_target",
                 "t_q", "t_q_count", "sum_idle", "sum_stops", "sum_energy")

    def __init__(self, idx: int, seg_cfg: SegmentConfig, lanes: int) -> None:
        self.idx = idx
        self.cfg = sig = seg_cfg.signal
        mu = sig.departure_rate
        self.gate_headway = 1.0 / mu - 1e-9
        self.state = state = SignalState(
            approach_green=False, crossable=False, remaining=0.0, green_s=sig.green_s,
            red_s=sig.red_s, green_end_margin_s=sig.all_red_gap_s + PLAN_MARGIN_S)
        self.table = TokenTable(mu, departures_per_green(mu, sig.green_s),
                                sig.green_s - state.green_end_margin_s)
        self.last_cross_t = -math.inf
        self.line_at = seg_cfg.length_m
        self.line_km = seg_cfg.length_m / 1000.0
        self.v_min = seg_cfg.v_min
        self.v_max = seg_cfg.v_max
        self.cruise = min(ENTRY_SPEED, seg_cfg.v_max)
        self.line_zone = TIME_GAP_S * seg_cfg.v_max + 5.0
        self.grade = seg_cfg.grade
        self.groups: list[list[Vehicle]] = [[] for _ in range(lanes)]
        self.density_cap = self.queued_target = self.t_q = 0.0
        self.density_count = self.t_q_count = -1  # no count yet: the first step sets both facts
        self.sum_idle, self.sum_stops, self.sum_energy = 0.0, 0, 0.0


@dataclass
class IntersectionMetrics:
    name: str
    vehicles: int
    mean_idling_s: float
    mean_stops: float
    mean_energy_j: float


@dataclass
class MetricsReport:
    technique: str
    seed: int
    duration_s: float
    spawned: int
    completed: int
    in_network: int
    waiting: int  # arrivals due but still held at a blocked entry
    per_intersection: list[IntersectionMetrics]
    total_mean_idling_s: float
    total_mean_stops: float
    total_mean_energy_j: float

    def rows(self) -> list[dict]:
        out = [
            {
                "intersection": m.name,
                "vehicles": m.vehicles,
                "mean_idling_s": m.mean_idling_s,
                "mean_stops": m.mean_stops,
                "mean_energy_j": m.mean_energy_j,
            }
            for m in self.per_intersection
        ]
        out.append(
            {
                "intersection": "total",
                "vehicles": self.completed,
                "mean_idling_s": self.total_mean_idling_s,
                "mean_stops": self.total_mean_stops,
                "mean_energy_j": self.total_mean_energy_j,
            }
        )
        return out


class World:
    """One simulation instance; mutate through step() only."""

    def __init__(self, cfg: SimConfig) -> None:
        self.cfg = cfg
        self.t = 0.0
        self.vehicles: dict[int, Vehicle] = {}
        self.ledger = CreditLedger()
        self.spawned = 0  # also the last vin handed out
        self.completed = 0
        base = cfg.seed
        self.rng_arrivals = random.Random(base * 6 + 0)
        self.rng_modes = random.Random(base * 6 + 1)
        self.rng_games = random.Random(base * 6 + 2)
        self.rng_tl = random.Random(base * 6 + 3)
        self._pending_spawns = 0
        self._arrivals = _arrival_times(cfg, self.rng_arrivals)
        self._next_arrival = next(self._arrivals, None)
        self.lights = [LightAgent(i, s, cfg.lanes) for i, s in enumerate(cfg.segments)]

    # -- spawning ----------------------------------------------------------

    def _sample_mode(self) -> Mode:
        r = self.rng_modes.random()
        p_relaxed, p_normal, _ = MODE_PROBABILITIES
        if r < p_relaxed:
            return Mode.RELAXED
        if r < p_relaxed + p_normal:
            return Mode.NORMAL
        return Mode.RUSH

    def _place(self, seg: int, lane: int, pos: float, speed: float, mode: Mode) -> None:
        self.spawned += 1
        v = Vehicle(
            vin=self.spawned, mode=mode, seg=seg, lane=lane, pos=pos, speed=speed,
            n_segments=len(self.cfg.segments), spawned_at=self.t,
        )
        self.vehicles[v.vin] = v
        insort(self.lights[seg].groups[lane], v, key=_pos)

    def _entry_lane(self) -> int | None:
        """Freest entry lane of segment 0, or None while all are blocked."""
        length = VEHICLE_LENGTH_M
        best_lane = None
        best_clear = length + STANDSTILL_GAP_M - 1e-9
        for lane, group in enumerate(self.lights[0].groups):
            rear = group[0].pos - length if group else math.inf
            if rear > best_clear:
                best_lane, best_clear = lane, rear
        return best_lane

    def _spawn_due(self) -> None:
        while self._next_arrival is not None and self._next_arrival <= self.t:
            self._pending_spawns += 1
            self._next_arrival = next(self._arrivals, None)
        while self._pending_spawns:
            lane = self._entry_lane()
            if lane is None:
                break
            self._pending_spawns -= 1
            self._place(0, lane, 0.0, self.lights[0].cruise, self._sample_mode())

    # -- token protocol ----------------------------------------------------

    def _maintain_tokens(self, fleet: list[Vehicle]) -> None:
        """Run each light's ``csof`` allocation round over its approaching
        vehicles that hold or request a slot; a round writes only the light's
        table and fills its window list.  A vehicle that does neither
        cannot change the round, so it is left out, and a light with no
        participant runs no round: it has no holder."""
        reach = self.cfg.activation_distance_m
        lights = self.lights
        per_light: list[list[Approacher]] = [[] for _ in lights]
        for v in fleet:
            if v.queued:
                continue
            light = lights[v.seg]
            d = light.line_at - v.pos
            if d > reach:
                continue
            vin = v.vin
            cap = v.cap
            tti = request_tti(d, v.speed, cap, light.state)
            if tti is not None or light.table.slot_of(vin) is not None:
                per_light[v.seg].append(Approacher(vin, d, cap, v.mode, tti))
        for light, entries in zip(lights, per_light):
            if entries:
                allocation_round(light.table, light.state, light.v_min, entries, self.ledger,
                                 self.rng_games, self.rng_tl)

    def _plan_cap(self, v: Vehicle, leader: Vehicle | None, light: LightAgent) -> float:
        """Achievable speed ceiling for planning: the road limit, or what
        the leader ahead allows (its speed, or the gap-safe speed).

        Lane changes call this for a vehicle's own leader after a move;
        ``_caps`` and their trial-leader test write out the same arithmetic."""
        if leader is None:
            return light.v_max
        gap = leader.pos - VEHICLE_LENGTH_M - v.pos
        safe = max(0.0, (gap - STANDSTILL_GAP_M) / TIME_GAP_S)
        return max(light.v_min, min(light.v_max, max(leader.speed, safe)))

    # -- main loop ---------------------------------------------------------

    def _signal_phase_bookkeeping(self) -> None:
        """Set each light's per-step facts (see ``LightAgent``), reset its
        table's window list and clear its claims when the light turns red."""
        t = self.t
        jam = JAM_DENSITY_VEH_KM_LANE
        saturated = DENSITY_CAP_RATIO * jam  # the density saturates at the cap ratio
        lanes = self.cfg.lanes
        for light in self.lights:
            cfg = light.cfg
            state = light.state
            was_green = state.approach_green
            state_at(cfg, t, state)
            if was_green and not state.approach_green:
                light.table.clear()
            count = sum(map(len, light.groups))
            if count != light.density_count:
                light.density_count = count
                density = count / light.line_km / lanes
                density = saturated if saturated < density else density  # min, keeping density
                light.density_cap = density_speed(density, jam, light.v_max)
            # Queued vehicles wait for a crossable light.
            light.queued_target = light.v_max if state.crossable else 0.0
            n = state.queue_len
            if n != light.t_q_count:
                light.t_q_count = n
                light.t_q = queue_clear_time(n, cfg.departure_rate) + ARRIVAL_BIAS_S
            light.table.reset_windows(n)

    def _by_lane(self) -> list[LightAgent]:
        """The lane index: the lights, whose ``groups`` hold each lane's
        vehicles in ascending pos."""
        return self.lights

    @staticmethod
    def _leaders(lights: list[LightAgent]) -> None:
        """Refresh every vehicle's ``lead`` after a lane change; ``cap`` is left as it was."""
        for light in lights:
            for group in light.groups:
                for v, leader in zip(group, [*group[1:], None]):
                    v.lead = leader

    @staticmethod
    def _caps(lights: list[LightAgent]) -> None:
        """Write every vehicle's ``lead`` and ``cap`` for the step, walking
        each non-empty sorted lane group from the front: the front vehicle
        has no leader and the road limit, and each vehicle behind it the
        next vehicle and the cap ``_plan_cap`` gives for that leader."""
        length = VEHICLE_LENGTH_M
        standstill = STANDSTILL_GAP_M
        time_gap = TIME_GAP_S
        for light in lights:
            v_min, v_max = light.v_min, light.v_max
            for group in light.groups:
                if not group:
                    continue
                from_front = reversed(group)
                leader = next(from_front)
                leader.lead, leader.cap = None, v_max
                for v in from_front:
                    # _plan_cap's min/max chain, written out with its tie-breaks.
                    safe = (leader.pos - length - v.pos - standstill) / time_gap
                    safe = safe if safe > 0.0 else 0.0
                    cap = safe if safe > leader.speed else leader.speed
                    cap = cap if cap < v_max else v_max
                    v.cap = cap if cap > v_min else v_min
                    v.lead = leader
                    leader = v

    def _lane_changes(self, fleet: list[Vehicle]) -> bool:
        """Overtake when the adjacent lane allows a higher speed and has
        safe time gaps fore and aft.  Returns whether any vehicle moved.

        A vehicle keeps its lane when it is queued or stopped, when its own
        cap is within 0.3 m/s of the road limit, or on the final approach,
        30 m before the line.  Before the first move the own cap is
        ``v.cap`` and the cap test comes before the final-approach test,
        which needs no lane lookup either; after a move ``_plan_cap`` gives
        the own cap unless the own-lane leader, found by bisection, is
        ``v.lead`` from before any move, so the final-approach test comes
        first.  Each test only skips the vehicle, so their order changes
        no decision.

        Each other lane is tried, cheapest test first: the cap its trial
        leader allows (``_plan_cap``'s arithmetic, written out as in
        ``_caps``) must beat the vehicle's own by 0.5 m/s, the front gap
        must fit the vehicle's speed, and the rear gap to the nearest
        follower must fit the fastest follower.
        """
        length = VEHICLE_LENGTH_M
        standstill = STANDSTILL_GAP_M
        stop_speed = STOP_SPEED
        time_gap = TIME_GAP_S
        lights = self.lights
        moved = False
        for v in fleet:
            if v.queued or v.speed < stop_speed:
                continue
            light = lights[v.seg]
            v_max = light.v_max
            if not moved:
                cap_here = v.cap
                if cap_here >= v_max - 0.3:
                    continue  # near the road limit already: keep the lane
            pos = v.pos
            if light.line_at - pos < 30.0:
                continue  # no weaving on the final approach
            seg_lanes = light.groups
            group = seg_lanes[v.lane]
            if moved:
                i = bisect_right(group, pos, key=_pos)
                lead = group[i] if i < len(group) else None
                cap_here = v.cap if lead is v.lead else self._plan_cap(v, lead, light)
                if cap_here >= v_max - 0.3:
                    continue
            v_min = light.v_min
            wanted = cap_here + 0.5
            for lane, other in enumerate(seg_lanes):
                if lane == v.lane:
                    continue
                i = bisect_left(other, pos, key=_pos)
                if i < len(other):
                    lead = other[i]
                    safe = (lead.pos - length - pos - standstill) / time_gap
                    safe = safe if safe > 0.0 else 0.0
                    cap = safe if safe > lead.speed else lead.speed
                    cap = cap if cap < v_max else v_max
                    if (cap if cap > v_min else v_min) <= wanted:
                        continue
                    if lead.pos - length - pos < time_gap * max(v.speed, 1.0):
                        continue
                elif v_max <= wanted:
                    continue
                if i:
                    fastest = max(map(_speed, other[:i]))
                    if pos - length - other[i - 1].pos < time_gap * max(fastest, 1.0):
                        continue
                group.remove(v)
                v.lane = lane
                insort(other, v, key=_pos)
                moved = True
                break
        return moved

    def _gate_open(self, light: LightAgent, v: Vehicle) -> bool:
        return (
            light.state.crossable
            and self.t + self.cfg.dt_s - light.last_cross_t >= light.gate_headway
            and self._next_entry_clear(v)
        )

    def _next_entry_clear(self, v: Vehicle) -> bool:
        """Room to land at the start of the next segment (spillback guard):
        the rearmost vehicle of the lane there decides."""
        nxt = v.seg + 1
        if nxt >= len(self.lights):
            return True
        group = self.lights[nxt].groups[v.lane]
        return not group or group[0].pos >= VEHICLE_LENGTH_M + STANDSTILL_GAP_M

    def step(self) -> None:
        cfg = self.cfg
        dt = cfg.dt_s
        t = self.t
        vehicles = self.vehicles
        lights = self.lights

        self._signal_phase_bookkeeping()
        lanes = self._by_lane()
        fleet = list(vehicles.values())  # vin order: vehicles are added by vin
        self._caps(lanes)
        # Lane changes read only caps, leaders, positions, speeds, ``queued``
        # and the lane lists; the token round and the planner write none.  A
        # move refreshes ``lead`` only: every report rests on pre-move caps.
        if self._lane_changes(fleet):
            self._leaders(lanes)
        technique = cfg.technique
        if technique == "csof":
            self._maintain_tokens(fleet)

        # Each vehicle's target, then the clamps: comfort-limited planning,
        # hard safety overrides.  A queued vehicle leaves discharge to the
        # stop-line gate and car-following; the rest cruise until they are
        # close enough to plan.  Each min/max is written out with the
        # builtin's tie-break, so a tie keeps the same operand (0.0 against
        # -0.0 included).
        planning = technique != "fixed"
        ncso = technique == "ncso"
        reach = cfg.activation_distance_m
        limit = ACCEL_LIMIT * dt
        length = VEHICLE_LENGTH_M
        standstill = STANDSTILL_GAP_M
        time_gap = TIME_GAP_S
        reaction = REACTION_TIME_S
        gate_open = self._gate_open
        new_speeds: list[float] = []
        for v in fleet:
            light = lights[v.seg]
            speed = v.speed
            d = light.line_at - v.pos
            if v.queued:
                target = light.queued_target
                if target == 0.0 == speed:
                    # Held (queued at rest, the light not crossable): 0.0
                    # from rest survives every clamp below, so the step is
                    # 0.0 without them and without the gate.
                    new_speeds.append(0.0)
                    continue
            elif planning and d <= reach:
                cap = v.cap
                state = light.state
                if ncso:
                    tti = request_tti(d, speed, cap, state)
                    slot = None if tti is None else arrival_slot(tti, light.table, state)
                else:
                    slot = light.table.slot_of(v.vin)
                window = None if slot is None else light.table.windows[slot]
                target = plan(speed, d, light.v_min, cap, state, window, light.t_q).speed
            else:
                target = light.cruise

            dcap = light.density_cap
            slowest = speed - limit
            fastest = speed + limit
            sp = dcap if dcap < target else target
            sp = slowest if slowest > sp else sp
            sp = fastest if fastest < sp else sp

            lead = v.lead
            if lead is not None:
                gap = lead.pos - length - v.pos
                safe = (gap - standstill) / time_gap
                safe = safe if safe > 0.0 else 0.0
                if sp > safe:
                    if gap < speed * reaction:
                        sp = safe  # inside the reaction horizon: brake hard
                    else:
                        sp = slowest if slowest > safe else safe

            # Stop line behaves as an obstacle unless the gate is open.
            if d <= light.line_zone and not gate_open(light, v):
                line_safe = d / time_gap
                line_safe = line_safe if line_safe > 0.0 else 0.0
                if sp > line_safe:
                    if d < speed * reaction:
                        sp = line_safe
                    else:
                        sp = slowest if slowest > line_safe else line_safe
            new_speeds.append(sp if sp > 0.0 else 0.0)

        self._accrue_energy(fleet, new_speeds)

        # Integrate, accrue metrics, and move each crossing vehicle in the
        # lane index as it crosses, so every entry check reads the vehicles
        # on the next segment now.  The lane groups stay sorted meanwhile: a
        # follower never passes its leader's position at the start of the
        # step, because its advance is below the gap.  It is at most
        # gap * dt / TIME_GAP_S, or (speed - ACCEL_LIMIT * dt) * dt when the
        # gap is at least speed * REACTION_TIME_S (``SimConfig`` keeps dt
        # below both times).  The stop detector reads only the new speed, so
        # it runs first; a step from rest to rest then ends there, as every
        # vehicle starts a step short of its line and this one does not move.
        stop_speed = STOP_SPEED
        moving_speed = MOVING_SPEED
        last_seg = len(lights) - 1
        crossed_at = t + dt
        for v, sp in zip(fleet, new_speeds):
            seg_idx = v.seg
            if sp < stop_speed:
                v.idle[seg_idx] += dt
                if v.stop_armed:
                    v.stops[seg_idx] += 1
                    v.stop_armed = False
                if sp == 0.0 == v.speed:
                    continue
            elif sp > moving_speed:
                v.stop_armed = True
            v.speed = sp
            v.pos += sp * dt

            light = lights[seg_idx]
            line_at = light.line_at
            if v.pos >= line_at:
                if not gate_open(light, v):
                    v.pos = line_at - 0.01
                    v.speed = 0.0
                    continue
                light.last_cross_t = crossed_at
                light.table.release(v.vin)
                v.queued = False
                light.groups[v.lane].remove(v)
                if seg_idx != last_seg:
                    v.pos -= line_at
                    v.seg = seg_idx + 1
                    v.steady_speed = math.nan  # the next segment's grade may differ
                    insort(lights[v.seg].groups[v.lane], v, key=_pos)
                    continue
                del vehicles[v.vin]
                self.completed += 1
                for light, idle, stops, energy_j in zip(lights, v.idle, v.stops, v.energy_j):
                    light.sum_idle += idle
                    light.sum_stops += stops
                    light.sum_energy += energy_j

        self._update_queues()
        self._spawn_due()
        self.t = t + dt

    def _accrue_energy(self, fleet: list[Vehicle], new_speeds: list[float]) -> None:
        """Book each vehicle's step, from its speed now to its new speed, on
        the segment it is on; runs before either changes.  A step at rest
        is skipped: it books exactly +0.0 J, which changes no total.  A
        steady step, one that keeps a non-zero speed, depends only on that
        speed and the segment's grade (``dt`` is fixed for the run): at the
        vehicle's ``steady_speed`` it books ``steady_j`` again, the float
        ``step_energy`` gave for it, and at any other speed it calls
        ``step_energy`` and keeps the result.  Speeds are never -0.0, so
        equal speeds give equal floats."""
        energy = step_energy
        dt = self.cfg.dt_s
        lights = self.lights
        for v, sp in zip(fleet, new_speeds):
            speed = v.speed
            if sp != speed:
                seg_idx = v.seg
                v.energy_j[seg_idx] += energy(speed, sp, dt, lights[seg_idx].grade * sp * dt)
            elif sp:
                seg_idx = v.seg
                if sp != v.steady_speed:
                    v.steady_speed = sp
                    v.steady_j = energy(sp, sp, dt, lights[seg_idx].grade * sp * dt)
                v.energy_j[seg_idx] += v.steady_j

    def _update_queues(self) -> None:
        """Queue bookkeeping: join when stopped at the line or the lane's
        queue tail, leave when rolling with the discharge wave.  A crossing
        clears ``queued``, so a vehicle that crossed or left the corridor
        is out of its queue already.

        Each lane group is walked twice.  Rear to front, rolling vehicles
        leave and the first vehicle still queued gives the lane's tail.
        Front to back, each stopped vehicle that joins becomes the tail."""
        length = VEHICLE_LENGTH_M
        join_zone = length + 2.0 * STANDSTILL_GAP_M
        roll_speed = 0.5  # above this a queued vehicle is moving again
        stop_speed = STOP_SPEED
        for light in self.lights:
            line_at = light.line_at
            n = 0
            for group in light.groups:
                tail = math.inf  # rear of the lane's queue; none yet
                for v in group:
                    if v.queued:
                        if v.speed >= roll_speed:
                            v.queued = False
                            continue
                        n += 1
                        if tail == math.inf:
                            tail = v.pos - length
                for v in reversed(group):
                    if v.queued or v.speed >= stop_speed:
                        continue
                    if line_at - v.pos <= join_zone or tail - v.pos <= join_zone:
                        v.queued = True
                        light.table.release(v.vin)
                        n += 1
                        tail = v.pos - length
            light.state.queue_len = n

    def run(self) -> MetricsReport:
        steps = int(round(self.cfg.duration_s / self.cfg.dt_s))
        for _ in range(steps):
            self.step()
        return self.report()

    def report(self) -> MetricsReport:
        """Means over the completed vehicles, per intersection and in total.

        Each total adds the per-intersection sums left to right, in segment
        order, in an explicit loop: ``sum()`` compensates float error since
        Python 3.12, which would move a total by an ulp between versions."""
        n = self.completed
        per = []
        idle = energy = 0.0
        stops = 0
        for light in self.lights:
            idle += light.sum_idle
            stops += light.sum_stops
            energy += light.sum_energy
            per.append(
                IntersectionMetrics(
                    name=f"SI{light.idx + 1}",
                    vehicles=n,
                    mean_idling_s=light.sum_idle / n if n else 0.0,
                    mean_stops=light.sum_stops / n if n else 0.0,
                    mean_energy_j=light.sum_energy / n if n else 0.0,
                )
            )
        return MetricsReport(
            technique=self.cfg.technique,
            seed=self.cfg.seed,
            duration_s=self.cfg.duration_s,
            spawned=self.spawned,
            completed=n,
            in_network=len(self.vehicles),
            waiting=self._pending_spawns,
            per_intersection=per,
            total_mean_idling_s=idle / n if n else 0.0,
            total_mean_stops=stops / n if n else 0.0,
            total_mean_energy_j=energy / n if n else 0.0,
        )


def run(cfg: SimConfig) -> MetricsReport:
    """Run one scenario to completion; deterministic for a given seed."""
    return World(cfg).run()
