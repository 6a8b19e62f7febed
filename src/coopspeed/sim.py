"""Discrete-time corridor engine.

A corridor is a chain of road segments, each ending at a fixed-cycle
light.  Per step the engine advances signals, releases queued vehicles
at the service rate, lets in-range cooperative vehicles maintain or
claim time tokens (with conflicts settled by the precedence games),
plans every vehicle's speed, and integrates kinematics under density,
comfort, car-following, and stop-line constraints.

Three techniques share identical road physics:

* ``csof``  -- token table per light, conflicts resolved by games;
* ``ncso``  -- the same case-based speed planning, but every vehicle
  assumes the slot containing its own arrival is free (no table, no
  games, no exclusivity);
* ``fixed`` -- no speed optimization; cruise and react.

Each step, every light runs one round over the unqueued vehicles within
activation distance: ``tokens.allocation_round`` against its token table
for ``csof``, ``tokens.arrival_slots`` for ``ncso``.  The round returns
the slot each vehicle is left holding, and the planner aims at that
slot's ``tokens.arrival_window``.  Under ``csof`` a vehicle's token is
its claim in the light's table, released when the vehicle crosses or
joins the queue.  Tables live in per-light allocation epochs: an epoch
opens at a red start and closes when the following green ends, so slots
granted during red carry into the green they target and everything
expires with it.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter

from .energy import EnergyParams, energy_model
from .games import CreditLedger, Mode
from .planner import KinematicState, density_speed, plan
from .signals import (
    SignalConfig,
    SignalState,
    departures_per_green,
    queue_clear_time,
    state_at,
)
from .tokens import Approacher, TokenTable, allocation_round, arrival_slots, arrival_window

TECHNIQUES = ("csof", "ncso", "fixed")

KMH = 1 / 3.6

# Driver and vehicle model, the same in every scenario.
ENTRY_SPEED = 50.0 * KMH
MODE_PROBABILITIES = (0.2, 0.6, 0.2)  # relaxed, normal, rush
ACCEL_LIMIT = 2.5  # comfort bound, m/s^2
TIME_GAP_S = 2.0
REACTION_TIME_S = 1.10
STANDSTILL_GAP_M = 2.0
PLAN_MARGIN_S = 0.5  # extra slack before a green closes
ARRIVAL_BIAS_S = 0.5  # aim this far into the target window
STOP_SPEED = 0.1  # below this a vehicle counts as stopped
MOVING_SPEED = 1.0  # stop detector re-arms above this
DENSITY_CAP_RATIO = 0.85

_pos = attrgetter("pos")
_speed = attrgetter("speed")


@dataclass(frozen=True)
class SegmentConfig:
    length_m: float = 1000.0
    lanes: int = 2
    v_min: float = 10.0 * KMH
    v_max: float = 60.0 * KMH
    d_max_veh_km_lane: float = 150.0
    grade: float = 0.0  # elevation gain per meter traveled
    signal: SignalConfig = field(default_factory=SignalConfig)

    def __post_init__(self) -> None:
        if self.length_m <= 0:
            raise ValueError("segment length must be positive")
        if self.lanes < 2:
            raise ValueError("the corridor needs at least two lanes")
        if not 0 <= self.v_min <= self.v_max:
            raise ValueError("need 0 <= v_min <= v_max")
        if self.d_max_veh_km_lane <= 0:
            raise ValueError("d_max must be positive")


@dataclass(frozen=True)
class InitialVehicle:
    """Deterministically pre-placed vehicle for scripted scenarios."""

    seg: int = 0
    lane: int = 0
    pos: float = 0.0
    speed: float = 0.0
    mode: Mode = Mode.NORMAL
    credits: int = 0


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
    vehicle_length_m: float = 5.0
    segments: tuple[SegmentConfig, ...] = field(default_factory=_default_segments)
    initial_vehicles: tuple[InitialVehicle, ...] = ()
    scripted_arrivals: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.dt_s <= 0:
            raise ValueError("dt must be positive")
        if self.duration_s < 0:
            raise ValueError("duration must be non-negative")
        if self.technique not in TECHNIQUES:
            raise ValueError(f"technique must be one of {TECHNIQUES}")
        if not self.segments:
            raise ValueError("need at least one segment")
        if self.activation_distance_m < 0:
            raise ValueError("activation distance must be non-negative")
        if self.activation_distance_m > min(s.length_m for s in self.segments):
            raise ValueError("activation distance cannot exceed segment length")
        if len({seg.lanes for seg in self.segments}) > 1:
            # A vehicle crosses into the same lane of the next segment; the
            # engine has no lane-drop model.
            raise ValueError("every segment must have the same number of lanes")
        if self.arrival_rate_veh_s < 0:
            raise ValueError("arrival rate must be non-negative")
        if self.vehicle_length_m <= 0:
            # Lane order rests on vehicles never overlapping.
            raise ValueError("vehicle length must be positive")
        arrivals = self.scripted_arrivals
        if arrivals is not None and any(a > b for a, b in zip(arrivals, arrivals[1:])):
            # Spawning stops at the first arrival still in the future.
            raise ValueError("scripted arrivals must be non-decreasing")
        self._check_initial_vehicles()

    def _check_initial_vehicles(self) -> None:
        """Each pre-placed vehicle must sit on a lane of the corridor, at
        least a vehicle length from the others in its lane."""
        lanes: dict[tuple[int, int], list[float]] = {}
        for iv in self.initial_vehicles:
            if not 0 <= iv.seg < len(self.segments):
                raise ValueError(f"initial vehicle on segment {iv.seg}, which does not exist")
            seg = self.segments[iv.seg]
            if not 0 <= iv.lane < seg.lanes:
                raise ValueError(f"initial vehicle in lane {iv.lane} of a {seg.lanes}-lane segment")
            if not 0 <= iv.pos < seg.length_m:
                raise ValueError(f"initial vehicle position {iv.pos} outside [0, {seg.length_m})")
            if iv.speed < 0:
                raise ValueError("initial vehicle speed must be non-negative")
            lanes.setdefault((iv.seg, iv.lane), []).append(iv.pos)
        for (seg_idx, lane), positions in lanes.items():
            positions.sort()
            for rear, front in zip(positions, positions[1:]):
                if front - rear < self.vehicle_length_m:
                    raise ValueError(f"initial vehicles at {rear} m and {front} m overlap in "
                                     f"segment {seg_idx} lane {lane}")


class Vehicle:
    __slots__ = (
        "vin", "mode", "seg", "lane", "pos", "speed",
        "queued", "idle", "stops", "energy_j", "stop_armed", "spawned_at",
    )

    def __init__(self, vin: int, mode: Mode, seg: int, lane: int, pos: float,
                 speed: float, n_segments: int, spawned_at: float) -> None:
        self.vin = vin
        self.mode = mode
        self.seg = seg
        self.lane = lane
        self.pos = pos
        self.speed = speed
        self.queued = False
        self.idle = [0.0] * n_segments
        self.stops = [0] * n_segments
        self.energy_j = [0.0] * n_segments
        self.stop_armed = speed > MOVING_SPEED
        self.spawned_at = spawned_at


class LightAgent:
    """Per-intersection runtime: token table, queue, crossing gate."""

    def __init__(self, idx: int, seg_cfg: SegmentConfig) -> None:
        self.idx = idx
        self.cfg = seg_cfg.signal
        self.n_dep = departures_per_green(self.cfg.departure_rate, self.cfg.green_s)
        self.table = TokenTable(self.cfg.departure_rate, self.n_dep, cycle_id=-(10**9))
        self.queue: list[Vehicle] = []  # in joining order
        self.last_cross_t = -math.inf
        self.was_crossable = False
        self.was_green = False
        # Per-phase measurement counters.
        self.red_joins = 0
        self.green_crossings = 0
        self.red_join_history: list[int] = []
        self.green_crossing_history: list[int] = []

    def epoch_of(self, t: float) -> int:
        """Allocation epoch: opens at a red start, ends with its green."""
        return math.floor((t - self.cfg.offset_s - self.cfg.green_s) / self.cfg.cycle_s)


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
        self.lights = [LightAgent(i, s) for i, s in enumerate(cfg.segments)]
        self.vehicles: dict[int, Vehicle] = {}
        self.ledger = CreditLedger()
        self.next_vin = 1
        self.spawned = 0
        self.completed = 0
        base = cfg.seed
        self.rng_arrivals = random.Random(base * 6 + 0)
        self.rng_modes = random.Random(base * 6 + 1)
        self.rng_games = random.Random(base * 6 + 2)
        self.rng_tl = random.Random(base * 6 + 3)
        self._pending_spawns = 0
        self._next_arrival = self._draw_arrival(0.0)
        self._scripted_idx = 0
        n = len(cfg.segments)
        self._sum_idle = [0.0] * n
        self._sum_stops = [0] * n
        self._sum_energy = [0.0] * n
        self._energy = energy_model(EnergyParams())
        # The lane index: every (segment, lane) group, in ascending pos, kept
        # across steps.  Vehicles never overlap, so order within a lane only
        # changes where a vehicle enters or leaves it.
        self._lanes: dict[tuple[int, int], list[Vehicle]] = {
            (seg_idx, lane): [] for seg_idx, seg in enumerate(cfg.segments)
            for lane in range(seg.lanes)
        }
        for iv in cfg.initial_vehicles:
            self._place(iv.seg, iv.lane, iv.pos, iv.speed, mode=iv.mode,
                        credits=iv.credits)

    # -- spawning ----------------------------------------------------------

    def _draw_arrival(self, now: float) -> float | None:
        if self.cfg.scripted_arrivals is not None or self.cfg.arrival_rate_veh_s <= 0:
            return None
        return now + self.rng_arrivals.expovariate(self.cfg.arrival_rate_veh_s)

    def _sample_mode(self) -> Mode:
        r = self.rng_modes.random()
        p_relaxed, p_normal, _ = MODE_PROBABILITIES
        if r < p_relaxed:
            return Mode.RELAXED
        if r < p_relaxed + p_normal:
            return Mode.NORMAL
        return Mode.RUSH

    def _place(self, seg: int, lane: int, pos: float, speed: float,
               mode: Mode | None = None, credits: int = 0) -> Vehicle:
        v = Vehicle(
            vin=self.next_vin,
            mode=self._sample_mode() if mode is None else mode,
            seg=seg, lane=lane, pos=pos, speed=speed,
            n_segments=len(self.cfg.segments), spawned_at=self.t,
        )
        self.next_vin += 1
        self.spawned += 1
        self.vehicles[v.vin] = v
        insort(self._lanes[(seg, lane)], v, key=_pos)
        if credits:
            self.ledger.set(v.vin, credits)
        return v

    def _entry_lane(self) -> int | None:
        """Freest entry lane of segment 0, or None while all are blocked."""
        cfg = self.cfg
        lanes = self._lanes
        best_lane = None
        best_clear = cfg.vehicle_length_m + STANDSTILL_GAP_M - 1e-9
        for lane in range(cfg.segments[0].lanes):
            group = lanes[(0, lane)]
            rear = group[0].pos - cfg.vehicle_length_m if group else math.inf
            if rear > best_clear:
                best_lane, best_clear = lane, rear
        return best_lane

    def _spawn_due(self) -> None:
        if self.cfg.scripted_arrivals is not None:
            script = self.cfg.scripted_arrivals
            while self._scripted_idx < len(script) and script[self._scripted_idx] <= self.t:
                self._pending_spawns += 1
                self._scripted_idx += 1
        else:
            while self._next_arrival is not None and self._next_arrival <= self.t:
                self._pending_spawns += 1
                self._next_arrival = self._draw_arrival(self._next_arrival)
        while self._pending_spawns:
            lane = self._entry_lane()
            if lane is None:
                break
            self._pending_spawns -= 1
            self._place(0, lane, 0.0, ENTRY_SPEED)

    # -- token protocol ----------------------------------------------------

    def _maintain_tokens(self, states: list[SignalState], fleet: list[Vehicle],
                         caps: dict[int, float]) -> dict[int, int]:
        """Run each light's allocation round over its approaching vehicles;
        returns ``vin -> slot`` for every vehicle left holding a slot."""
        cfg = self.cfg
        reach = cfg.activation_distance_m
        lengths = [seg.length_m for seg in cfg.segments]
        per_light: list[list[Vehicle]] = [[] for _ in self.lights]
        for v in fleet:
            if not v.queued and lengths[v.seg] - v.pos <= reach:
                per_light[v.seg].append(v)
        cooperative = cfg.technique == "csof"
        slots: dict[int, int] = {}
        for light, state, approaching in zip(self.lights, states, per_light):
            seg = cfg.segments[light.idx]
            entries = [
                Approacher(v.vin, seg.length_m - v.pos, v.speed, caps[v.vin], v.mode)
                for v in approaching
            ]
            if cooperative:
                slots.update(allocation_round(light.table, state, seg.v_min, entries,
                                              self.ledger, self.rng_games, self.rng_tl))
            else:
                slots.update(arrival_slots(entries, state, light.table.mu, light.n_dep))
        return slots

    def _plan_cap(self, v: Vehicle, leader: Vehicle | None, seg: SegmentConfig) -> float:
        """Achievable speed ceiling for planning: the road limit, or what
        the leader ahead allows (its speed, or the gap-safe speed).

        Lane changes call this for one vehicle and a trial leader;
        ``_caps`` computes the same for every vehicle of the step."""
        if leader is None:
            return seg.v_max
        gap = leader.pos - self.cfg.vehicle_length_m - v.pos
        safe = max(0.0, (gap - STANDSTILL_GAP_M) / TIME_GAP_S)
        return max(seg.v_min, min(seg.v_max, max(leader.speed, safe)))

    # -- main loop ---------------------------------------------------------

    def _signal_phase_bookkeeping(self) -> list[SignalState]:
        t = self.t
        states: list[SignalState] = []
        for light in self.lights:
            state = state_at(light.cfg, t)
            state.queue_len = len(light.queue)
            state.green_end_margin_s = light.cfg.all_red_gap_s + PLAN_MARGIN_S
            states.append(state)

            epoch = light.epoch_of(t)
            if epoch != light.table.cycle_id:
                light.table.clear(epoch)

            if state.approach_green and not light.was_green:
                light.red_join_history.append(light.red_joins)
                light.red_joins = 0
            light.was_green = state.approach_green

            crossable = state.crossable
            if crossable and not light.was_crossable:
                light.green_crossings = 0
            if not crossable and light.was_crossable:
                light.green_crossing_history.append(light.green_crossings)
            light.was_crossable = crossable
        return states

    def _by_lane(self) -> dict[tuple[int, int], list[Vehicle]]:
        """The lane index: (seg, lane) -> its vehicles in ascending pos."""
        return self._lanes

    @staticmethod
    def _leaders(lanes: dict[tuple[int, int], list[Vehicle]]) -> dict[int, Vehicle]:
        out: dict[int, Vehicle] = {}
        for group in lanes.values():
            for follower, leader in zip(group, group[1:]):
                out[follower.vin] = leader
        return out

    def _caps(self, lanes: dict[tuple[int, int], list[Vehicle]]) -> dict[int, float]:
        """Planning ceiling of every vehicle, walking each non-empty sorted
        lane group from the front: the road limit for the front vehicle, and
        for each vehicle behind it the cap ``_plan_cap`` gives for its leader."""
        cfg = self.cfg
        segments = cfg.segments
        length = cfg.vehicle_length_m
        standstill = STANDSTILL_GAP_M
        time_gap = TIME_GAP_S
        caps: dict[int, float] = {}
        for (seg_idx, _), group in lanes.items():
            if not group:
                continue
            seg = segments[seg_idx]
            v_min, v_max = seg.v_min, seg.v_max
            from_front = reversed(group)
            leader = next(from_front)
            caps[leader.vin] = v_max
            for v in from_front:
                # _plan_cap's min/max chain, written out with its tie-breaks.
                safe = (leader.pos - length - v.pos - standstill) / time_gap
                safe = safe if safe > 0.0 else 0.0
                cap = safe if safe > leader.speed else leader.speed
                cap = cap if cap < v_max else v_max
                caps[v.vin] = cap if cap > v_min else v_min
                leader = v
        return caps

    def _plan_targets(self, fleet: list[Vehicle], states: list[SignalState],
                      caps: dict[int, float], slots: dict[int, int]) -> list[float]:
        """Planned speed of each vehicle of ``fleet``, in its order; a
        vehicle in ``slots`` aims at that slot's arrival window."""
        cfg = self.cfg
        reach = cfg.activation_distance_m
        lengths = [seg.length_m for seg in cfg.segments]
        # Queued vehicles wait for a crossable light; the rest cruise
        # until they are close enough to plan.
        queued_target = [seg.v_max if state.crossable else 0.0
                         for seg, state in zip(cfg.segments, states)]
        cruise = [min(ENTRY_SPEED, seg.v_max) for seg in cfg.segments]
        if cfg.technique == "fixed":
            return [queued_target[v.seg] if v.queued else cruise[v.seg] for v in fleet]
        t_qs = [queue_clear_time(len(light.queue), light.cfg.departure_rate) + ARRIVAL_BIAS_S
                for light in self.lights]
        mus = [light.table.mu for light in self.lights]
        targets: list[float] = []
        for v in fleet:
            seg_idx = v.seg
            if v.queued:
                # The stop-line gate and car-following govern discharge.
                targets.append(queued_target[seg_idx])
                continue
            d = lengths[seg_idx] - v.pos
            if d > reach:
                targets.append(cruise[seg_idx])
                continue
            seg = cfg.segments[seg_idx]
            state = states[seg_idx]
            k = KinematicState(speed=v.speed, dist=d, v_min=seg.v_min, v_max=caps[v.vin])
            slot = slots.get(v.vin)
            window = None if slot is None else arrival_window(slot, mus[seg_idx], state)
            targets.append(plan(k, state, window, t_qs[seg_idx]).speed)
        return targets

    def _lane_changes(self, fleet: list[Vehicle], lanes: dict, leaders: dict[int, Vehicle],
                      caps: dict[int, float]) -> bool:
        """Overtake when the adjacent lane allows a higher speed and has
        safe time gaps fore and aft.  Returns whether any vehicle moved.

        Until the first move, every lane group is as sorted at the start
        of the step, so a vehicle's own cap is the step's cap.  After a
        move, the own-lane leader is found by bisection and the step's cap
        stands only while that leader is the one it was taken from.
        Target-lane neighbours are found by bisecting the lane group.  The
        rear gap is kept to the nearest follower but must fit the fastest
        of all followers, whose speed is looked up only for a candidate
        that already passed the cap and front-gap tests.
        """
        cfg = self.cfg
        segments = cfg.segments
        length = cfg.vehicle_length_m
        stop_speed = STOP_SPEED
        time_gap = TIME_GAP_S
        plan_cap = self._plan_cap
        moved = False
        for v in fleet:
            if v.queued or v.speed < stop_speed:
                continue
            seg = segments[v.seg]
            if seg.length_m - v.pos < 30.0:
                continue  # no weaving on the final approach
            group = lanes[(v.seg, v.lane)]
            if moved:
                i = bisect_right(group, v.pos, key=_pos)
                lead = group[i] if i < len(group) else None
                cap_here = caps[v.vin] if lead is leaders.get(v.vin) else plan_cap(v, lead, seg)
            else:
                cap_here = caps[v.vin]
            if cap_here >= seg.v_max - 0.3:
                continue
            for other_lane in range(seg.lanes):
                if other_lane == v.lane:
                    continue
                other = lanes[(v.seg, other_lane)]
                i = bisect_left(other, v.pos, key=_pos)
                new_lead = other[i] if i < len(other) else None
                if plan_cap(v, new_lead, seg) <= cap_here + 0.5:
                    continue
                if new_lead is not None and (
                    new_lead.pos - length - v.pos < time_gap * max(v.speed, 1.0)
                ):
                    continue
                if i:
                    fastest = max(map(_speed, other[:i]))
                    if v.pos - length - other[i - 1].pos < time_gap * max(fastest, 1.0):
                        continue
                group.remove(v)
                v.lane = other_lane
                insort(other, v, key=_pos)
                moved = True
                break
        return moved

    def _gate_open(self, light: LightAgent, state: SignalState, lanes: dict,
                   v: Vehicle, lanes_sorted: bool) -> bool:
        return (
            state.crossable
            and self.t + self.cfg.dt_s - light.last_cross_t
            >= 1.0 / light.cfg.departure_rate - 1e-9
            and self._next_entry_clear(lanes, v, lanes_sorted)
        )

    def _next_entry_clear(self, lanes: dict, v: Vehicle, lanes_sorted: bool) -> bool:
        """Room to land at the start of the next segment (spillback guard).

        Before integration the lane groups are sorted, so the rearmost
        vehicle decides.  During integration they hold part-advanced
        positions, among them vehicles that have already moved on a
        segment, so every member is checked.
        """
        nxt = v.seg + 1
        if nxt >= len(self.cfg.segments):
            return True
        need = self.cfg.vehicle_length_m + STANDSTILL_GAP_M
        group = lanes.get((nxt, v.lane), ())
        if lanes_sorted:
            return not group or group[0].pos >= need
        return all(o.pos >= need for o in group)

    def step(self) -> None:
        cfg = self.cfg
        dt = cfg.dt_s
        t = self.t
        segments = cfg.segments
        vehicles = self.vehicles

        states = self._signal_phase_bookkeeping()
        lanes = self._by_lane()
        fleet = list(vehicles.values())  # vin order: vehicles are added by vin
        leaders = self._leaders(lanes)
        caps = self._caps(lanes)

        slots = self._maintain_tokens(states, fleet, caps) if cfg.technique != "fixed" else {}

        # Per-segment density speed cap (density saturates at the cap ratio).
        counts = [0] * len(segments)
        for (seg_idx, _), group in lanes.items():
            counts[seg_idx] += len(group)
        density_cap = []
        for seg, n in zip(segments, counts):
            density = n / (seg.length_m / 1000.0) / seg.lanes
            density = min(density, DENSITY_CAP_RATIO * seg.d_max_veh_km_lane)
            density_cap.append(density_speed(density, seg.d_max_veh_km_lane, seg.v_max))

        targets = self._plan_targets(fleet, states, caps, slots)
        if self._lane_changes(fleet, lanes, leaders, caps):
            leaders = self._leaders(lanes)

        # Compose clamps: comfort-limited planning, hard safety overrides.
        # Each min/max is written out with the builtin's tie-break, so a
        # tie keeps the same operand (0.0 against -0.0 included).
        limit = ACCEL_LIMIT * dt
        length = cfg.vehicle_length_m
        standstill = STANDSTILL_GAP_M
        time_gap = TIME_GAP_S
        reaction = REACTION_TIME_S
        # Per segment: stop-line position, the distance to it within which
        # the line may bind, and the density cap.
        zones = [(seg.length_m, time_gap * seg.v_max + 5.0, cap)
                 for seg, cap in zip(segments, density_cap)]
        lights = self.lights
        gate_open = self._gate_open
        leader_of = leaders.get
        new_speeds: list[float] = []
        for v, target in zip(fleet, targets):
            speed = v.speed
            line_at, zone, dcap = zones[v.seg]
            slowest = speed - limit
            fastest = speed + limit
            sp = dcap if dcap < target else target
            sp = slowest if slowest > sp else sp
            sp = fastest if fastest < sp else sp

            lead = leader_of(v.vin)
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
            d = line_at - v.pos
            if d <= zone and not gate_open(lights[v.seg], states[v.seg], lanes, v,
                                           lanes_sorted=True):
                line_safe = d / time_gap
                line_safe = line_safe if line_safe > 0.0 else 0.0
                if sp > line_safe:
                    if d < speed * reaction:
                        sp = line_safe
                    else:
                        sp = slowest if slowest > line_safe else line_safe
            new_speeds.append(sp if sp > 0.0 else 0.0)

        self._accrue_energy(fleet, new_speeds)

        # Integrate, accrue metrics, and handle crossings.
        stop_speed = STOP_SPEED
        moving_speed = MOVING_SPEED
        last_seg = len(segments) - 1
        crossed_at = t + dt
        crossed: list[tuple[Vehicle, int]] = []
        for v, sp in zip(fleet, new_speeds):
            seg_idx = v.seg
            v.speed = sp
            v.pos += sp * dt

            if sp < stop_speed:
                v.idle[seg_idx] += dt
                if v.stop_armed:
                    v.stops[seg_idx] += 1
                    v.stop_armed = False
            elif sp > moving_speed:
                v.stop_armed = True

            line_at = zones[seg_idx][0]
            if v.pos >= line_at:
                light = lights[seg_idx]
                if gate_open(light, states[seg_idx], lanes, v, lanes_sorted=False):
                    light.last_cross_t = crossed_at
                    light.green_crossings += 1
                    light.table.release(v.vin)
                    v.queued = False
                    crossed.append((v, seg_idx))
                    if seg_idx != last_seg:
                        v.pos -= line_at
                        v.seg = seg_idx + 1
                else:
                    v.pos = line_at - 0.01
                    v.speed = 0.0

        # Crossings reach the lane index only now, so the entry checks above
        # all read the groups as they stood before the integration.
        for v, seg_idx in crossed:
            lanes[(seg_idx, v.lane)].remove(v)
            if seg_idx != last_seg:
                insort(lanes[(v.seg, v.lane)], v, key=_pos)
                continue
            del vehicles[v.vin]
            self.completed += 1
            for i in range(len(segments)):
                self._sum_idle[i] += v.idle[i]
                self._sum_stops[i] += v.stops[i]
                self._sum_energy[i] += v.energy_j[i]

        self._update_queues(states)
        self._spawn_due()
        self.t = t + dt

    def _accrue_energy(self, fleet: list[Vehicle], new_speeds: list[float]) -> None:
        """Book each vehicle's step, from its speed now to its new speed, on
        the segment it is on; runs before either changes."""
        energy = self._energy
        dt = self.cfg.dt_s
        grades = [seg.grade for seg in self.cfg.segments]
        for v, sp in zip(fleet, new_speeds):
            seg_idx = v.seg
            v.energy_j[seg_idx] += energy(v.speed, sp, dt, grades[seg_idx] * sp * dt)

    def _update_queues(self, states: list[SignalState]) -> None:
        """Queue bookkeeping: join when stopped at the line or the lane's
        queue tail, leave when rolling with the discharge wave.  A crossing
        clears ``queued``, so a vehicle that crossed or left the corridor
        drops out of its queue here."""
        cfg = self.cfg
        length = cfg.vehicle_length_m
        join_zone = length + 2.0 * STANDSTILL_GAP_M
        roll_speed = 0.5  # above this a queued vehicle is moving again
        stop_speed = STOP_SPEED
        stopped: list[list[Vehicle]] = [[] for _ in self.lights]
        for v in self.vehicles.values():
            if v.speed < stop_speed and not v.queued:
                stopped[v.seg].append(v)
        for light, state, cands in zip(self.lights, states, stopped):
            line_at = cfg.segments[light.idx].length_m
            queue: list[Vehicle] = []
            tails: dict[int, float] = {}
            for q in light.queue:
                if not q.queued:
                    continue
                if q.speed >= roll_speed:
                    q.queued = False
                    continue
                queue.append(q)
                rear = q.pos - length
                if q.lane not in tails or rear < tails[q.lane]:
                    tails[q.lane] = rear
            light.queue = queue
            cands.sort(key=lambda v: -v.pos)
            for v in cands:
                tail = tails.get(v.lane)
                if line_at - v.pos <= join_zone or (tail is not None and tail - v.pos <= join_zone):
                    v.queued = True
                    light.table.release(v.vin)
                    queue.append(v)
                    tails[v.lane] = v.pos - length
                    if not state.approach_green:
                        light.red_joins += 1

    def run(self) -> MetricsReport:
        steps = int(round(self.cfg.duration_s / self.cfg.dt_s))
        for _ in range(steps):
            self.step()
        return self.report()

    def report(self) -> MetricsReport:
        n = self.completed
        per = []
        for i in range(len(self.cfg.segments)):
            per.append(
                IntersectionMetrics(
                    name=f"SI{i + 1}",
                    vehicles=n,
                    mean_idling_s=self._sum_idle[i] / n if n else 0.0,
                    mean_stops=self._sum_stops[i] / n if n else 0.0,
                    mean_energy_j=self._sum_energy[i] / n if n else 0.0,
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
            total_mean_idling_s=sum(self._sum_idle) / n if n else 0.0,
            total_mean_stops=sum(self._sum_stops) / n if n else 0.0,
            total_mean_energy_j=sum(self._sum_energy) / n if n else 0.0,
        )


def run(cfg: SimConfig) -> MetricsReport:
    """Run one scenario to completion; deterministic for a given seed."""
    return World(cfg).run()
