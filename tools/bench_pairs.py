"""Alternating benchmark pairs of two checkouts of this repository.

Run from the repository root:

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W [--pairs 10] [--seed 1]

W is a workload of BENCHMARK.json, or ``all``: then every workload of the
file gets its pairs and its summary in turn, in the file's order.  Each
pair runs the benchmark command of BENCHMARK.json with ``--workload W
--seed S --seconds R`` once in each checkout, one process at a time,
where R is the file's ``run_seconds``, the run length of the benchmark
itself.  The side that runs first alternates from pair to pair, and
``PYTHONDONTWRITEBYTECODE=1`` keeps both sides without a bytecode cache,
which would move ``setup_s`` and ``peak_rss_mb``.  The script exits 1 as
soon as a run is not ``correct`` or the two runs of a pair differ in their
share of failed steps, ``failed / attempted``: a run repeats whole rounds
until its seconds pass, so a faster side runs more rounds and fails more
steps at the same share.

For each end-to-end metric of BENCHMARK.json it prints every pair, each
side's median and quartiles, the change/parent ratio of the medians, the
pairs the change wins (ties count for neither) and a verdict:

* ``gain``: the change wins at least 9 pairs in 10 and its median beats
  the parent's by more than the parent's interquartile range;
* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a share of the parent's median;
* ``unchanged``: not worse, and the parent's interquartile range is within
  that bound, or every run of the change beats every run of the parent;
* ``unresolved``: anything else, where the runs spread wider than the
  bound and cannot tell "no worse" from noise.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import quantiles

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summarize(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """Medians, quartiles, ratio, wins and verdict of paired runs of one
    metric; ``parent[k]`` and ``change[k]`` are the runs of pair ``k``."""
    sign = 1.0 if better == "higher" else -1.0
    p_q1, p_med, p_q3 = quantiles(parent, n=4)  # the middle cut is the median
    c_q1, c_med, c_q3 = quantiles(change, n=4)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    gap = sign * (c_med - p_med)  # positive when the change is better
    if 10 * wins >= 9 * len(parent) and gap > p_q3 - p_q1:
        verdict = "gain"
    elif -gap > bound * abs(p_med):
        verdict = "worse"
    elif (p_q3 - p_q1 <= bound * abs(p_med)
          or min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unchanged"
    else:
        verdict = "unresolved"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "ratio": c_med / p_med, "wins": wins, "verdict": verdict}


def failed_share(result: dict) -> float:
    """The share of a run's attempted steps that failed its checks."""
    return result["failed"] / result["attempted"]


def run_once(spec: dict, checkout: Path, workload: str, seed: int) -> dict:
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"])]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True,
                          timeout=600)
    if done.returncode != 0:
        sys.exit(f"{checkout}: exited {done.returncode}\n{done.stdout}{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{checkout}: run is not correct\n{done.stdout}")
    return result


def run_pairs(spec: dict, args: argparse.Namespace, workload: str) -> None:
    """Run the alternating pairs of one workload; print each pair and the
    summary of every end-to-end metric."""
    metrics = spec["end_to_end"]
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_once(spec, getattr(args, side), workload, args.seed))
        parent, change = runs["parent"][-1], runs["change"][-1]
        p_share, c_share = failed_share(parent), failed_share(change)
        if p_share != c_share:
            sys.exit(f"pair {k + 1}: failed {parent['failed']} of {parent['attempted']} "
                     f"(parent) against {change['failed']} of {change['attempted']} (change)")
        print(f"pair {k + 1} ({order[0]} first): failed {p_share:.3%}/{c_share:.3%}  "
              + "  ".join(f"{m['name']} {parent['metrics'][m['name']]['value']:.5g}/"
                          f"{change['metrics'][m['name']]['value']:.5g}" for m in metrics),
              flush=True)
    print(f"{workload}, {args.pairs} pairs, parent/change; "
          "median [quartiles] parent -> change:")
    for m in metrics:
        name = m["name"]
        s = summarize([r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]],
                      m["better"], m["bound"])
        (p1, p2, p3), (c1, c2, c3) = s["parent"], s["change"]
        print(f"  {name:16s} {p2:.5g} [{p1:.5g}, {p3:.5g}] -> {c2:.5g} [{c1:.5g}, {c3:.5g}]  "
              f"ratio {s['ratio']:.3f}  change wins {s['wins']}/{args.pairs}  {s['verdict']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or all of them in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")
    spec = json.loads(SPEC.read_text())
    if args.workload == "all":
        workloads = [w["name"] for w in spec["workloads"]]
    else:
        workloads = [args.workload]
    for workload in workloads:
        run_pairs(spec, args, workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
