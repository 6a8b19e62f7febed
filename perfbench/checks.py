"""Output checks for one benchmark round, computed apart from the engine.

The checker watches a ``World`` from outside: it snapshots which segment
every vehicle is on before a step and compares after it.  Signal phases
come from the benchmark's own arithmetic on ``SignalConfig`` and arrival
counts from the benchmark's own arrival list, so a fault in the engine's
bookkeeping cannot hide itself.
"""

from __future__ import annotations

import bisect
import math

# Float slack for comparisons of times the engine accumulates step by step.
TIME_EPS = 1e-6


class RoundChecker:
    """Checks one scenario run, step by step and at its end.

    ``after_step`` returns True when the step is a failed operation: some
    light's token table holds a vehicle with two claims or a slot with two
    claimants.  Every other violation is recorded in ``errors`` and makes
    the round incorrect.
    """

    def __init__(self, world, arrivals: tuple[float, ...]) -> None:
        cfg = world.cfg
        self.arrivals = arrivals
        self.vehicle_length = cfg.vehicle_length_m
        self.signals = [seg.signal for seg in cfg.segments]
        self.last_light = len(cfg.segments) - 1
        self.last_cross = [-math.inf] * len(cfg.segments)
        self.credits = world.ledger.total()
        self.errors: list[str] = []
        self.completed_seen = 0
        self.double_claim_steps = 0
        self.contested_slot_steps = 0
        self._t = world.t
        self._seg_of: dict[int, int] = {}

    def _error(self, msg: str) -> None:
        if len(self.errors) < 20:
            self.errors.append(msg)

    def before_step(self, world) -> None:
        self._t = world.t
        self._seg_of = {vin: v.seg for vin, v in world.vehicles.items()}

    def after_step(self, world) -> bool:
        t = self._t
        vehicles = world.vehicles
        for vin, seg in self._seg_of.items():
            v = vehicles.get(vin)
            if v is not None and v.seg == seg:
                continue
            if v is None and seg != self.last_light:
                self._error(f"t={t:.1f}: vehicle {vin} left the network from segment {seg}")
            elif v is not None and v.seg != seg + 1:
                self._error(f"t={t:.1f}: vehicle {vin} jumped from segment {seg} to {v.seg}")
            self._crossing(t, vin, seg)
            if v is None:
                self.completed_seen += 1

        lanes: dict[tuple[int, int], list[float]] = {}
        for v in vehicles.values():
            lanes.setdefault((v.seg, v.lane), []).append(v.pos)
        for (seg, lane), positions in lanes.items():
            positions.sort()
            for rear, front in zip(positions, positions[1:]):
                if front - rear < self.vehicle_length - 1e-9:
                    self._error(
                        f"t={t:.1f}: segment {seg} lane {lane}: vehicles at "
                        f"{rear:.2f} m and {front:.2f} m overlap"
                    )

        if world.ledger.total() != self.credits:
            self._error(f"t={t:.1f}: credit total {world.ledger.total()} != {self.credits}")

        double_claim = contested = False
        for light in world.lights:
            requests = light.table.requests()
            vins = [vin for vin, _ in requests]
            slots = [slot for _, slot in requests]
            double_claim |= len(set(vins)) != len(vins)
            contested |= len(set(slots)) != len(slots)
        self.double_claim_steps += double_claim
        self.contested_slot_steps += contested
        return double_claim or contested

    def _crossing(self, t: float, vin: int, light: int) -> None:
        sig = self.signals[light]
        # Crossable while the east-west green runs, minus its all-red tail.
        if (t - sig.offset_s) % sig.cycle_s >= sig.green_s - sig.all_red_gap_s:
            self._error(f"t={t:.1f}: vehicle {vin} crossed light SI{light + 1} on red")
        headway = 1.0 / sig.departure_rate
        if t - self.last_cross[light] < headway - TIME_EPS:
            self._error(
                f"t={t:.1f}: vehicle {vin} crossed SI{light + 1} "
                f"{t - self.last_cross[light]:.2f} s after the previous crossing"
            )
        self.last_cross[light] = t

    def finish(self, world, report) -> int:
        """End-of-run checks; returns the arrivals still waiting to enter."""
        # The last step spawned every arrival due at its start time.
        due = bisect.bisect_right(self.arrivals, self._t)
        waiting = due - report.spawned
        if waiting < 0:
            self._error(f"{report.spawned} vehicles spawned but only {due} arrivals due")
        pending = getattr(world, "_pending_spawns", None)
        if pending is not None and pending != waiting:
            self._error(f"engine holds {pending} waiting arrivals, benchmark counts {waiting}")
        if report.spawned != report.completed + report.in_network:
            self._error(
                f"spawned {report.spawned} != completed {report.completed}"
                f" + in network {report.in_network}"
            )
        if report.in_network != len(world.vehicles):
            self._error(f"report shows {report.in_network} in network, world holds "
                        f"{len(world.vehicles)}")
        if report.completed != self.completed_seen:
            self._error(f"report shows {report.completed} completed, benchmark saw "
                        f"{self.completed_seen} leave the last light")
        if world.ledger.total() != self.credits:
            self._error(f"credit total {world.ledger.total()} != {self.credits}")
        return waiting
