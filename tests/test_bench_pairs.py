"""The verdict of ``tools/bench_pairs.py`` on fixed paired runs, and the
command it runs."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _bench_pairs():
    path = list(sys.path)
    dont_write = sys.dont_write_bytecode
    sys.path.insert(0, str(TOOLS))
    sys.dont_write_bytecode = True
    try:
        import bench_pairs
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
    return bench_pairs


bench_pairs = _bench_pairs()
summarize = bench_pairs.summarize


def test_each_run_lasts_the_benchmarks_own_run_length(monkeypatch):
    # BENCHMARK.json runs each workload for 20 s; a pair must time the same
    # run, not the single round of ``--seconds 0``.  The fake starts no
    # process.
    commands = []

    def fake_run(cmd, **kwargs):
        commands.append(cmd)
        return subprocess.CompletedProcess(cmd, 0, stdout='{"correct": true}\n', stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    spec = json.loads(bench_pairs.SPEC.read_text())
    assert bench_pairs.run_once(spec, Path("."), "csof_peak", 3) == {"correct": True}
    assert commands == [[*spec["command"], "--workload", "csof_peak", "--seed", "3",
                         "--seconds", "20"]]


def test_all_runs_every_workload_in_the_files_order(monkeypatch, capsys):
    # ``--workload all`` gives each workload of BENCHMARK.json its pairs and
    # its summary in turn.  The fake starts no process; its result line
    # carries every end-to-end metric.
    spec = json.loads(bench_pairs.SPEC.read_text())
    line = json.dumps({"correct": True, "attempted": 6000, "failed": 0, "metrics": {
        m["name"]: {"value": 1.0} for m in spec["end_to_end"]}})
    workloads = []

    def fake_run(cmd, **kwargs):
        workloads.append(cmd[cmd.index("--workload") + 1])
        return subprocess.CompletedProcess(cmd, 0, stdout=f"warm-up\n{line}\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", ".", ".", "--workload", "all",
                                      "--pairs", "2"])
    assert bench_pairs.main() == 0
    names = [w["name"] for w in spec["workloads"]]
    assert workloads == [name for name in names for _ in range(4)]
    summaries = [line for line in capsys.readouterr().out.splitlines() if "pairs" in line]
    assert [line.split(",")[0] for line in summaries] == names


def _pairs_with_failures(monkeypatch, parent, change):
    """Run two pairs of ``csof_peak`` whose parent runs fail ``parent`` and
    whose change runs fail ``change``, each a (failed, attempted) count.
    The fake starts no process; it tells the sides by their directory."""
    spec = json.loads(bench_pairs.SPEC.read_text())
    metrics = {m["name"]: {"value": 1.0} for m in spec["end_to_end"]}

    def fake_run(cmd, cwd, **kwargs):
        failed, attempted = parent if cwd == Path("parent") else change
        line = json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                           "metrics": metrics})
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{line}\n", stderr="")

    monkeypatch.setattr(subprocess, "run", fake_run)
    monkeypatch.setattr(sys, "argv", ["bench_pairs.py", "parent", "change", "--workload",
                                      "csof_peak", "--pairs", "2"])
    return bench_pairs.main()


def test_a_pair_compares_the_share_of_failed_steps(monkeypatch, capsys):
    # A faster side runs more rounds in the same seconds: twice the rounds
    # fail twice the steps at the same share, and the pair goes on.
    assert _pairs_with_failures(monkeypatch, (3, 6000), (6, 12000)) == 0
    pairs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("pair")]
    assert len(pairs) == 2
    assert all("failed 0.050%/0.050%" in line for line in pairs)
    # A higher share on either side stops the script with exit status 1.
    for parent, change in [((3, 6000), (7, 12000)), ((4, 6000), (6, 12000))]:
        with pytest.raises(SystemExit) as stop:
            _pairs_with_failures(monkeypatch, parent, change)
        assert isinstance(stop.value.code, str) and stop.value.code.startswith("pair 1:")


# Parent runs with median 100 and quartiles 97.75 and 102.25.
PARENT = [96.0, 97.0, 98.0, 99.0, 100.0, 100.0, 101.0, 102.0, 103.0, 104.0]


def test_a_clear_gain_wins_nine_pairs_and_beats_the_spread():
    change = [x + 5.0 for x in PARENT]
    change[0] = 95.0  # loses one pair
    s = summarize(PARENT, change, "higher", 0.2)
    assert s["parent"] == (97.75, 100.0, 102.25)
    assert s["wins"] == 9
    assert s["change"][1] == 105.0
    assert s["ratio"] == 1.05
    assert s["verdict"] == "gain"


def test_eight_wins_are_not_a_gain():
    change = [x + 5.0 for x in PARENT]
    change[0] = change[1] = 90.0
    assert summarize(PARENT, change, "higher", 0.2)["verdict"] == "unchanged"


def test_a_gap_within_the_spread_is_not_a_gain():
    # Ten wins, but a median gap of 4 against an interquartile range of 4.5.
    change = [x + 4.0 for x in PARENT]
    s = summarize(PARENT, change, "higher", 0.2)
    assert s["wins"] == 10
    assert s["verdict"] == "unchanged"


def test_ties_count_for_neither_side():
    s = summarize(PARENT, list(PARENT), "higher", 0.2)
    assert s["wins"] == 0
    assert s["verdict"] == "unchanged"


def test_worse_means_beyond_the_bound():
    assert summarize(PARENT, [x * 0.79 for x in PARENT], "higher", 0.2)["verdict"] == "worse"
    assert summarize(PARENT, [x * 0.81 for x in PARENT], "higher", 0.2)["verdict"] == "unchanged"


def test_lower_is_better_turns_the_comparison_round():
    assert summarize(PARENT, [x - 5.0 for x in PARENT], "lower", 0.05)["verdict"] == "gain"
    assert summarize(PARENT, [x - 5.0 for x in PARENT], "lower", 0.05)["wins"] == 10
    assert summarize(PARENT, [x + 6.0 for x in PARENT], "lower", 0.05)["verdict"] == "worse"
    assert summarize(PARENT, [x + 4.0 for x in PARENT], "lower", 0.05)["verdict"] == "unchanged"


# Parent runs with median 97 and quartiles 91.75 and 102.25: an
# interquartile range of 10.5, wider than a 5 % bound of 4.85.
WIDE = [90.0, 91.0, 92.0, 93.0, 94.0, 100.0, 101.0, 102.0, 103.0, 104.0]


def test_a_spread_wider_than_the_bound_leaves_no_worse_unresolved():
    s = summarize(WIDE, [x - 2.0 for x in WIDE], "higher", 0.05)
    assert s["parent"] == (91.75, 97.0, 102.25)
    assert s["verdict"] == "unresolved"
    # Even a change that reads the same in every pair.
    assert summarize(WIDE, list(WIDE), "higher", 0.05)["verdict"] == "unresolved"
    # Beyond the bound it is still worse.
    assert summarize(WIDE, [x - 5.0 for x in WIDE], "higher", 0.05)["verdict"] == "worse"


def test_every_change_run_beating_every_parent_run_is_unchanged_under_a_wide_spread():
    # A median gap of 7.5 is within the parent's spread, so not a gain.
    s = summarize(WIDE, [104.5] * 10, "higher", 0.05)
    assert s["wins"] == 10
    assert s["verdict"] == "unchanged"
    assert summarize(WIDE, [89.5] * 10, "lower", 0.05)["verdict"] == "unchanged"
    # One change run level with the parent's best is not enough.
    assert summarize(WIDE, [104.0] + [104.5] * 9, "higher", 0.05)["verdict"] == "unresolved"
