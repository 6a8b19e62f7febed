"""Run-to-run spread of the benchmark's end-to-end metrics.

    python3 perfbench/spread.py --label a --seeds 1-10 [--workloads csof_peak,...]
    python3 perfbench/spread.py --compare a b

The first form runs every workload once per seed, one run at a time, and
writes the results to perfbench/out/spread_<label>.json.  For each metric
it prints the median, the quartiles and the distance between the
quartiles as a share of the median, beside the metric's bound from
BENCHMARK.json.  The second form compares the medians of two such sets:
a metric whose second median is worse than the first by more than its
bound is flagged, as is a workload whose share of failed operations
differs between the sets.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(spec: dict, workloads: list[str], seeds: list[int]) -> dict:
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=600)
            if done.returncode != 0:
                sys.exit(f"{w} seed {seed} exited {done.returncode}:\n"
                         f"{done.stdout}{done.stderr}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            runs[w].append(result)
            print(w, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
    return runs


def summarize(spec: dict, runs: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for w, results in runs.items():
        row = {"failed_share": sorted({r["failed"] / r["attempted"] for r in results})}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quantiles(values, n=4)
            row[name] = {"median": median(values), "q1": q1, "q3": q3,
                         "iqr_share": (q3 - q1) / median(values),
                         "bound": bounds[name]}
        summary[w] = row
    return summary


def print_summary(summary: dict) -> None:
    for w, row in summary.items():
        print(f"{w}: failed share {row['failed_share']}")
        for name, s in row.items():
            if name == "failed_share":
                continue
            flag = "" if s["iqr_share"] <= s["bound"] / 3 else "  <- above a third of bound"
            print(f"  {name:16s} median {s['median']:.5g}  q1 {s['q1']:.5g}  "
                  f"q3 {s['q3']:.5g}  spread {s['iqr_share']:.4f}  "
                  f"bound {s['bound']}{flag}")


def compare(spec: dict, a: dict, b: dict) -> int:
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    status = 0
    for w in a:
        if a[w]["failed_share"] != b[w]["failed_share"]:
            print(f"{w}: failed share {a[w]['failed_share']} vs {b[w]['failed_share']}")
            status = 1
        for name, direction in better.items():
            m1, m2 = a[w][name]["median"], b[w][name]["median"]
            worse = (m1 - m2) / m1 if direction == "higher" else (m2 - m1) / m1
            ok = worse <= a[w][name]["bound"]
            status |= not ok
            print(f"{w:11s} {name:16s} {m1:.5g} -> {m2:.5g}  worse by {worse:+.4f}"
                  f"{'' if ok else '  <- beyond bound'}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads")
    parser.add_argument("--compare", nargs=2, metavar="LABEL")
    args = parser.parse_args()
    spec = load_spec()
    if args.compare:
        a, b = (json.loads((OUT / f"spread_{x}.json").read_text())["summary"]
                for x in args.compare)
        return compare(spec, a, b)
    if not args.label:
        parser.error("--label is required unless --compare is given")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    runs = collect(spec, workloads, parse_seeds(args.seeds))
    summary = summarize(spec, runs)
    OUT.mkdir(exist_ok=True)
    (OUT / f"spread_{args.label}.json").write_text(
        json.dumps({"runs": runs, "summary": summary}, indent=1) + "\n")
    print_summary(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
