"""Corridor benchmark for the coopspeed engine.

Run from the repository root:

    python3 perfbench/run.py --workload csof_peak --seed 1 --seconds 20 --trace 0

One invocation runs one workload in this single-threaded process.  A round
builds a ``World`` at t = 0 for each of the workload's scenarios and steps
it to the end; the run repeats whole rounds until ``--seconds`` have
passed.  Every step is checked outside the timed window (see checks.py).
Host times are scaled to a nominal machine speed by a reference loop timed
between steps (see calibrate.py).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload, each in its own
process, and exits non-zero if any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

DURATION_S = 600.0
DT_S = 0.1


@dataclass(frozen=True)
class Workload:
    technique: str
    veh_per_h: float
    scenarios: int  # scenarios per round, each with its own arrival draw
    pinned: bool  # inputs drawn from workload seed 1 instead of --seed

    def seeds(self, seed: int) -> list[int]:
        base = 1 if self.pinned else seed
        return [base * self.scenarios + k for k in range(self.scenarios)]


WORKLOADS = {
    # Keeps the token-table fault as failed steps.  Their share must not
    # depend on --seed, so the inputs are pinned.
    "csof_peak": Workload("csof", 900.0, scenarios=1, pinned=True),
    # Host time of a saturated corridor swings with the arrival draw far
    # more than with machine noise, and one scenario fills half a run, so
    # the draw cannot be averaged out here: the inputs are pinned.
    "fixed_sat": Workload("fixed", 1800.0, scenarios=1, pinned=True),
    # Cheap scenarios: fourteen draws per round average out the draw, and
    # one round fills a run.
    "ncso_light": Workload("ncso", 300.0, scenarios=14, pinned=False),
}

SETUP_SAMPLES = 11
# Timed in a fresh interpreter: from just before the first coopspeed import
# until a World exists.  Interpreter start-up is left out.
SETUP_CHILD = """\
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
arrivals = tuple(map(float, sys.stdin.read().split()))
t0 = time.perf_counter()
from coopspeed.sim import SimConfig, World
World(SimConfig(duration_s=float(sys.argv[3]), dt_s=float(sys.argv[4]),
                seed=int(sys.argv[5]), technique=sys.argv[6],
                scripted_arrivals=arrivals))
elapsed = time.perf_counter() - t0
import calibrate
print(elapsed, calibrate.speed_factor([calibrate.time_reference() for _ in range(5)]))
"""
# One reference loop (about 5 ms) every this many steps and at each scenario's end.
CALIBRATE_EVERY = 100


def arrivals_for(seed: int, veh_per_h: float) -> tuple[float, ...]:
    """Poisson arrivals over the scenario, conditioned on their expected count.

    Given its count, a Poisson process places arrivals uniformly, so the
    seed moves where they bunch but not how many there are; host times of
    different seeds then compare.
    """
    rng = random.Random(seed * 100_003 + int(veh_per_h))
    n = round(veh_per_h / 3600.0 * DURATION_S)
    return tuple(sorted(rng.uniform(0.0, DURATION_S) for _ in range(n)))


@dataclass
class Round:
    """All scenarios of a workload, each from t = 0 to its end."""

    host_s: float = 0.0
    sim_s: float = 0.0
    steps: int = 0
    veh_steps: int = 0
    failed: int = 0
    double_claim_steps: int = 0
    contested_slot_steps: int = 0
    waiting: int = 0
    reports: list = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    nominal_s: float = 0.0  # host_s scaled to the nominal machine speed


def run_round(sim, checks, scenarios) -> Round:
    r = Round()
    clock = calibrate.NominalClock()
    for cfg, arrivals in scenarios:
        world = sim.World(cfg)
        checker = checks.RoundChecker(world, arrivals)
        steps = round(cfg.duration_s / cfg.dt_s)
        for k in range(1, steps + 1):
            checker.before_step(world)
            r.veh_steps += len(world.vehicles)
            t0 = perf_counter()
            world.step()
            clock.add(perf_counter() - t0)
            r.failed += checker.after_step(world)
            if k % CALIBRATE_EVERY == 0 or k == steps:
                clock.mark()
        report = world.report()
        r.waiting += checker.finish(world, report)
        r.sim_s += cfg.duration_s
        r.steps += steps
        r.double_claim_steps += checker.double_claim_steps
        r.contested_slot_steps += checker.contested_slot_steps
        r.reports.append(report)
        r.errors += [f"seed {cfg.seed}: {e}" for e in checker.errors]
    r.host_s, r.nominal_s = clock.host_s, clock.nominal_s
    return r


def measure_setup(cfg, arrivals) -> list[float]:
    args = [sys.executable, "-c", SETUP_CHILD, str(SRC), str(HERE), repr(cfg.duration_s),
            repr(cfg.dt_s), str(cfg.seed), cfg.technique]
    text = " ".join(map(repr, arrivals))
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(args, input=text, capture_output=True, text=True,
                              timeout=60, check=True)
        elapsed, factor = map(float, done.stdout.split())
        samples.append(elapsed * factor)
    return samples


def end_to_end(rounds: list[Round], setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "sim_s_per_s": (median(r.sim_s / r.nominal_s for r in rounds), "s/s"),
        "veh_steps_per_s": (median(r.veh_steps / r.nominal_s for r in rounds), "1/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracing, tracers, plain: list[Round], traced: list[Round]):
    factors = [r.nominal_s / r.host_s for r in traced]

    def nominal(seconds_of) -> float:
        return median(seconds_of(t) * f for t, f in zip(tracers, factors))

    counts = tracers[0].counts
    out = {name + ".self_s": (nominal(lambda t: t.self_s[name]), "s")
           for name in tracing.TIMED}
    out.update({name + ".calls": (counts[name + ".calls"], "count")
                for name in tracing.TIMED_CALLS})
    out.update({name: (counts[name], "count") for name in tracing.COUNTED})
    out["sim.lane_changes.moves"] = (counts["sim.lane_changes.moves"], "count")
    out["games.pair_games"] = (counts["games.pair_games"], "count")
    plans = counts["planner.plan.calls"]
    out["planner.queue_join_ratio"] = (
        counts["planner.queue_join"] / plans if plans else 0.0, "ratio")
    out["sim.vehicles_mean"] = (traced[0].veh_steps / traced[0].steps, "count")
    out["trace.step_s"] = (nominal(lambda t: t.top_level_s()), "s")
    out["trace.overhead_ratio"] = (
        median(r.nominal_s for r in traced) / median(r.nominal_s for r in plain), "ratio")
    out["trace.absent_layers"] = (len(tracers[0].absent), "count")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "coopspeed" / "sim.py").is_file():
        print(f"error: no engine source at {SRC / 'coopspeed'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import checks
    import coopspeed.sim as sim
    import tracing

    wl = WORKLOADS[name]
    scenarios = []
    for scenario_seed in wl.seeds(seed):
        arrivals = arrivals_for(scenario_seed, wl.veh_per_h)
        scenarios.append((sim.SimConfig(duration_s=DURATION_S, dt_s=DT_S, seed=scenario_seed,
                                        technique=wl.technique,
                                        scripted_arrivals=arrivals), arrivals))

    plain: list[Round] = []
    traced: list[Round] = []
    tracers = []
    start = perf_counter()
    while not plain or perf_counter() - start < seconds:
        plain.append(run_round(sim, checks, scenarios))
        if trace:
            tracer = tracing.Tracer(sim)
            tracer.install()
            try:
                traced.append(run_round(sim, checks, scenarios))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
    rounds = plain + traced

    errors = [f"round {i}: {e}" for i, r in enumerate(rounds) for e in r.errors]
    ref = rounds[0]
    for i, r in enumerate(rounds[1:], 1):
        if (r.reports, r.failed, r.veh_steps) != (ref.reports, ref.failed, ref.veh_steps):
            errors.append(f"round {i}: reports differ from round 0")

    print(f"workload {name}: {wl.technique} at {wl.veh_per_h:.0f} veh/h, "
          f"{DURATION_S:.0f} s at dt {DT_S} s, scenario seeds {wl.seeds(seed)}")
    for (cfg, arrivals), rep in zip(scenarios, ref.reports):
        print(f"  seed {cfg.seed}: {len(arrivals)} arrivals, spawned {rep.spawned} "
              f"completed {rep.completed} in network {rep.in_network}; idling "
              f"{rep.total_mean_idling_s:.3f} s stops {rep.total_mean_stops:.4f} "
              f"energy {rep.total_mean_energy_j:.1f} J")
    print(f"rounds: {len(plain)} plain, {len(traced)} traced; per plain round, host s "
          + " ".join(f"{r.host_s:.3f}" for r in plain) + ", speed factor "
          + " ".join(f"{r.nominal_s / r.host_s:.3f}" for r in plain))
    print(f"per round: {ref.waiting} arrivals waiting at the end; failed steps "
          f"{ref.failed} of {ref.steps} (double claim {ref.double_claim_steps}, "
          f"contested slot {ref.contested_slot_steps}); vehicles mean "
          f"{ref.veh_steps / ref.steps:.1f}")
    for e in errors:
        print(f"CHECK FAILED {e}")

    if trace:
        metrics = per_layer(tracing, tracers, plain, traced)
        if tracers[0].absent:
            print("absent layers: " + " ".join(tracers[0].absent))
    else:
        metrics = end_to_end(plain, measure_setup(*scenarios[0]))
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")

    OUT.mkdir(exist_ok=True)
    result = {
        "correct": not errors,
        "attempted": sum(r.steps for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    kind = "trace" if trace else "run"
    (OUT / f"{kind}_{name}_{seed}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        sys.stderr.write(done.stderr)
        if done.returncode == 2 or not lines:
            return done.returncode or 1
        status = status or done.returncode
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
