"""Digest of the engine's reports on a fixed set of configs.

Run from the repository root:

    python3 tools/report_digest.py                                  # print the digests
    python3 tools/report_digest.py --check tools/report_digests.txt  # compare

Each output line is ``<config name> <sha256 of repr(report)>``.  A change
that must keep every ``MetricsReport`` identical by ``repr`` keeps every
line: ``--check`` exits 1 and names each config whose digest differs from
the file, or is missing from either side.  The configs:

* the benchmark's inputs at ``--seed 1``, taken from ``perfbench/run.py``;
* 900 s at 600 veh/h, seed 2, for every technique;
* 300 s on graded segments (+1 %, -1 %, flat), seed 2, for every technique;
* 300 s at dt 0.2 s, seed 2, for every technique;
* the ``csof_peak`` input at seeds 2 and 3, and 600 s at 900 veh/h on a
  three-lane corridor (``SimConfig(lanes=3)``), seed 2, for ``csof`` and
  ``ncso``: runs that play games, move holders up and reassign losers;
* 300 s at 600 veh/h on a mixed corridor, seed 2, for every technique:
  segments of 700, 1000 and 600 m with different speed bands, grades and
  signal timings, so a phase that reads one segment's facts for another
  light changes a report;
* 300 s on a random corridor per technique, drawn from a fixed-seed
  generator: 2-3 lanes, 1-3 segments, random lengths, grades, speed
  bands, signal timings and offsets, activation distance and demand, so a
  change to the order of a step's phases shows where the defaults hide it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coopspeed.signals import SignalConfig  # noqa: E402
from coopspeed.sim import KMH, TECHNIQUES, SegmentConfig, SimConfig, run  # noqa: E402

ARRIVAL_RATE = 600.0 / 3600.0  # veh/s: 600 veh/h


def _benchmark_module():
    """``perfbench/run.py``, imported without running it."""
    bench_dir = ROOT / "perfbench"
    sys.path.insert(0, str(bench_dir))  # run.py imports its sibling calibrate.py
    spec = importlib.util.spec_from_file_location("perfbench_run", bench_dir / "run.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _random_corridor(rng: random.Random, technique: str) -> SimConfig:
    """A 300 s run of ``technique`` on a corridor drawn from ``rng``."""
    lanes = rng.choice((2, 3))
    segments = []
    for _ in range(rng.randint(1, 3)):
        green, red = rng.uniform(15.0, 45.0), rng.uniform(15.0, 45.0)
        signal = SignalConfig(green_s=green, red_s=red,
                              all_red_gap_s=rng.uniform(0.0, min(green, red, 3.0)),
                              offset_s=rng.uniform(0.0, green + red),
                              departure_rate=rng.uniform(0.25, 0.6))
        segments.append(SegmentConfig(length_m=rng.uniform(300.0, 1200.0),
                                      v_min=rng.uniform(0.0, 15.0) * KMH,
                                      v_max=rng.uniform(30.0, 80.0) * KMH,
                                      grade=rng.uniform(-0.02, 0.02), signal=signal))
    return SimConfig(duration_s=300.0, seed=rng.randint(1, 10**6), technique=technique,
                     activation_distance_m=rng.uniform(100.0, min(s.length_m for s in segments)),
                     arrival_rate_veh_s=rng.uniform(0.15, 0.4), lanes=lanes,
                     segments=tuple(segments))


def configs() -> list[tuple[str, SimConfig]]:
    bench = _benchmark_module()
    out = []
    for name, wl in bench.WORKLOADS.items():
        for seed in wl.seeds(1):
            arrivals = bench.arrivals_for(seed, wl.veh_per_h)
            out.append((f"bench-{name}-{seed}", SimConfig(
                duration_s=bench.DURATION_S, dt_s=bench.DT_S, seed=seed,
                technique=wl.technique, scripted_arrivals=arrivals)))
    graded = tuple(SegmentConfig(grade=g) for g in (0.01, -0.01, 0.0))
    for technique in TECHNIQUES:
        out.append((f"900s-{technique}", SimConfig(
            duration_s=900.0, seed=2, technique=technique, arrival_rate_veh_s=ARRIVAL_RATE)))
        out.append((f"graded-{technique}", SimConfig(
            duration_s=300.0, seed=2, technique=technique, arrival_rate_veh_s=ARRIVAL_RATE,
            segments=graded)))
        out.append((f"dt0.2-{technique}", SimConfig(
            duration_s=300.0, dt_s=0.2, seed=2, technique=technique,
            arrival_rate_veh_s=ARRIVAL_RATE)))
    peak = bench.WORKLOADS["csof_peak"]
    for seed in (2, 3):
        out.append((f"bench-csof_peak-{seed}", SimConfig(
            duration_s=bench.DURATION_S, dt_s=bench.DT_S, seed=seed,
            technique=peak.technique, scripted_arrivals=bench.arrivals_for(seed, peak.veh_per_h))))
    for technique in ("csof", "ncso"):
        out.append((f"3lane-{technique}", SimConfig(
            duration_s=600.0, seed=2, technique=technique,
            arrival_rate_veh_s=900.0 / 3600.0, lanes=3)))
    mixed = (
        SegmentConfig(length_m=700.0, grade=0.01),
        SegmentConfig(length_m=1000.0, v_min=5 * KMH, v_max=40 * KMH,
                      signal=SignalConfig(green_s=30.0, red_s=30.0, offset_s=12.0,
                                          departure_rate=0.4)),
        SegmentConfig(length_m=600.0, v_max=70 * KMH, grade=-0.01,
                      signal=SignalConfig(green_s=20.0, red_s=40.0, all_red_gap_s=2.0,
                                          offset_s=30.0)),
    )
    for technique in TECHNIQUES:
        out.append((f"mixed-{technique}", SimConfig(
            duration_s=300.0, seed=2, technique=technique, arrival_rate_veh_s=ARRIVAL_RATE,
            segments=mixed)))
    rng = random.Random(5)
    for technique in TECHNIQUES:
        out.append((f"random-{technique}", _random_corridor(rng, technique)))
    return out


def digest(cfg: SimConfig) -> str:
    return hashlib.sha256(repr(run(cfg)).encode()).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare against the digests recorded in FILE")
    args = parser.parse_args(argv)
    expected = None
    if args.check is not None:
        expected = dict(line.split() for line in args.check.read_text().splitlines()
                        if line.strip())
    got = {}
    for name, cfg in configs():
        got[name] = digest(cfg)
        print(name, got[name], flush=True)
    if expected is None:
        return 0
    differ = sorted(name for name in got.keys() | expected.keys()
                    if got.get(name) != expected.get(name))
    for name in differ:
        print(f"DIGEST DIFFERS {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
