"""The benchmark's tracer still finds the engine layers it times.

``perfbench/tracing.py`` wraps engine names by string and marks a name it
cannot find as an absent layer instead of failing, so a rename would drop
the layer from every traced run without a word.  This test fails instead.
"""

import sys
from pathlib import Path

import coopspeed.sim as sim
from coopspeed.games import Mode
from coopspeed.sim import SimConfig, World

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def _tracing_module():
    """``perfbench/tracing.py``, imported without writing into ``perfbench/``."""
    sys.path.insert(0, PERFBENCH)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        import tracing
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(PERFBENCH)
    return tracing


def test_tracer_times_the_planner_on_an_ncso_world():
    # A vehicle starts inside the activation distance, so the planner runs
    # from the first step.
    cfg = SimConfig(duration_s=60.0, technique="ncso", arrival_rate_veh_s=0.25, seed=1)
    world = World(cfg)
    world._place(0, 0, 600.0, 13.89, Mode.NORMAL)
    plan = sim.plan
    tracer = _tracing_module().Tracer(sim)
    tracer.install()
    try:
        while world.t < 20.0:
            world.step()
    finally:
        tracer.uninstall()
    assert sim.plan is plan
    assert "planner.plan" not in tracer.absent
    assert tracer.counts["planner.plan.calls"] > 0


# The names the tracer misses today, all of them names of code the engine
# no longer has; a layer that drops out of a traced run shows up here.
ABSENT_TODAY = {"sim.slot_search", "sim.plan_targets", "games.resolve", "energy.accel_energy",
                "tokens.grants", "tokens.conflicts", "tokens.slot_for_arrival.calls"}
ENGINE_LAYERS = ("sim.queues", "sim.spawn", "sim.energy", "sim.token_round", "sim.signals",
                 "sim.lane_index")


def test_tracer_keeps_every_engine_layer_on_a_csof_world():
    cfg = SimConfig(duration_s=60.0, technique="csof", arrival_rate_veh_s=0.25, seed=1)
    world = World(cfg)
    world._place(0, 0, 600.0, 13.89, Mode.NORMAL)
    tracer = _tracing_module().Tracer(sim)
    tracer.install()
    steps = 0
    try:
        while world.t < 20.0:
            world.step()
            steps += 1
    finally:
        tracer.uninstall()
    assert set(tracer.absent) <= ABSENT_TODAY, tracer.absent
    # The engine writes each light's phase once per step.
    assert tracer.counts["signals.state_at.calls"] == len(world.lights) * steps
    for layer in ENGINE_LAYERS:
        assert tracer.self_s[layer] > 0.0, layer


def test_tracer_counts_every_queue_join_the_planner_returns(monkeypatch):
    # csof at 900 veh/h builds a queue within four minutes.  A wrapper
    # installed under the tracer counts the planner's queue joins from the
    # results it passes on; the tracer reads the same results off its own
    # wrapper.
    cfg = SimConfig(duration_s=240.0, technique="csof", arrival_rate_veh_s=0.25, seed=1)
    world = World(cfg)
    plan, joins = sim.plan, []

    def counted_plan(*args):
        result = plan(*args)
        joins.append(result[1] == "queue_join")
        return result

    monkeypatch.setattr(sim, "plan", counted_plan)
    tracer = _tracing_module().Tracer(sim)
    tracer.install()
    longest_queue = 0
    try:
        while world.t < cfg.duration_s - 1e-9:
            world.step()
            longest_queue = max(longest_queue, *(light.state.queue_len for light in world.lights))
    finally:
        tracer.uninstall()
    assert longest_queue > 0
    assert sum(joins) > 0, len(joins)
    assert tracer.counts["planner.plan.calls"] == len(joins)
    assert tracer.counts["planner.queue_join"] == sum(joins)
