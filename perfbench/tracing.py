"""Per-layer spans for the traced run, recorded from outside the engine.

The engine's phases have no public entry points, so the tracer wraps
``World`` methods and the library functions ``coopspeed.sim`` calls, by
name, for the length of one round, and restores them afterwards.  A
layer's self time is its span minus the wrapped calls inside it; nested
spans of one layer add up once.  A name a later version no longer has
marks its layer absent instead of failing the run.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# Owners: "World" and "TokenTable" are classes reached through coopspeed.sim,
# "sim" is that module's namespace, where the engine looks up library calls.
TIMED = {
    "sim.step": [("World", "step")],
    "sim.signals": [("World", "_signal_phase_bookkeeping")],
    "sim.lane_index": [("World", "_by_lane"), ("World", "_leaders")],
    "sim.token_round": [("World", "_maintain_tokens")],
    "sim.slot_search": [("World", "_first_free_reachable")],
    "sim.plan_targets": [("World", "_plan_targets"), ("World", "_virtual_token")],
    "sim.plan_cap": [("World", "_plan_cap")],
    "sim.lane_changes": [("World", "_lane_changes")],
    "sim.energy": [("World", "_accrue_energy")],
    "sim.queues": [("World", "_update_queues")],
    "sim.spawn": [("World", "_spawn_due")],
    "planner.plan": [("sim", "plan")],
    "games.resolve": [("sim", "resolve_conflict")],
    "signals.state_at": [("sim", "state_at")],
    "energy.accel_energy": [("sim", "accel_energy")],
}
# Timed layers whose call counts are reported as well.
TIMED_CALLS = ("sim.plan_cap", "sim.slot_search", "planner.plan", "games.resolve",
               "signals.state_at", "energy.accel_energy")
# Counters without a span, keyed by metric name.
COUNTED = {
    "sim.gate.calls": [("World", "_gate_open")],
    "tokens.claims": [("TokenTable", "claim")],
    "tokens.grants": [("World", "_build_token")],
    "tokens.conflicts": [("sim", "detect_conflicts")],
    "tokens.slot_for_arrival.calls": [("sim", "slot_for_arrival")],
}


class Tracer:
    """Self time and counts per layer over one traced round."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.absent: list[str] = []
        self._stack: list[list] = [["", 0.0]]  # [layer, time in wrapped children]
        self._patches: list[tuple[object, str, object]] = []

    def _timed(self, layer: str, fn):
        stack, self_s, counts = self._stack, self.self_s, self.counts
        key = layer + ".calls"

        def wrapper(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                stack[-1][1] += elapsed
                counts[key] += 1

        return wrapper

    def _counted(self, metric: str, fn):
        stack, counts = self._stack, self.counts
        if metric == "tokens.grants":
            # A token built in the allocation round is a grant; one built
            # while planning (ncso's virtual token) is not.
            def wrapper(*args, **kwargs):
                if stack[-1][0] == "sim.token_round":
                    counts[metric] += 1
                return fn(*args, **kwargs)
        elif metric == "tokens.conflicts":
            def wrapper(*args, **kwargs):
                groups = fn(*args, **kwargs)
                counts[metric] += len(groups)
                return groups
        else:
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
        return wrapper

    def _observed(self, layer: str, fn):
        """``fn`` plus the counters read off its results or effects."""
        counts = self.counts
        if layer == "planner.plan":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["planner.queue_join"] += result.case == "queue_join"
                return result
        elif layer == "games.resolve":
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts["games.pair_games"] += len(result.rounds)
                return result
        elif layer == "sim.lane_changes":
            def wrapper(world, *args, **kwargs):
                before = {vin: v.lane for vin, v in world.vehicles.items()}
                result = fn(world, *args, **kwargs)
                counts["sim.lane_changes.moves"] += sum(
                    v.lane != before[vin] for vin, v in world.vehicles.items()
                )
                return result
        else:
            return fn
        return wrapper

    def install(self) -> None:
        owners = {"sim": self.sim, "World": self.sim.World,
                  "TokenTable": getattr(self.sim, "TokenTable", None)}
        for name, targets in {**TIMED, **COUNTED}.items():
            found = [(owners[o], a) for o, a in targets
                     if owners[o] is not None and a in vars(owners[o])]
            if len(found) != len(targets):
                self.absent.append(name)
                continue
            for owner, attr in found:
                original = vars(owner)[attr]
                is_static = isinstance(original, staticmethod)
                fn = original.__func__ if is_static else original
                if name in TIMED:
                    wrapped = self._timed(name, self._observed(name, fn))
                else:
                    wrapped = self._counted(name, fn)
                setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
                self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def top_level_s(self) -> float:
        """Time inside outermost spans; in a round that is World.step."""
        return self._stack[0][1]
