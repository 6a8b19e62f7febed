"""Fifteen configs of ``tools/report_digest.py`` still give their recorded
reports.

The 300 s graded runs (+1 %, -1 % and flat segments), coarse-step runs
(dt 0.2 s) and mixed-corridor runs (segments that differ in length, speed
band, grade and signal timing) of every technique take about three
seconds together, the 300 s random-corridor runs (random lane counts,
offsets, all-red gaps and departure rates, the per-light constants each
light computes once) about 1.3 s, the benchmark's saturated ``fixed`` input
(``bench-fixed_sat-1``, where lane changes and steps at rest dominate)
about 2.5 s more, one of its light-traffic ``ncso`` inputs
(``bench-ncso_light-14``, where the arrival-window lookup and cruising
steps weigh most) about 1 s, and its ``csof`` input
(``bench-csof_peak-1``, where the token round moves holders up and the
games settle contested slots) about 1.5 s, so report drift on them shows
in the tier-1 tests.  The full set, with the other benchmark and longer runs, is
``python3 tools/report_digest.py --check tools/report_digests.txt``; here
a cheaper test only checks that the tool builds every recorded config once.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool_configs():
    """The tool's digest function, its configs and the digests recorded
    by config name, with the tool (and the benchmark module it reads)
    imported without writing bytecode into the repository."""
    path = list(sys.path)
    dont_write = sys.dont_write_bytecode
    sys.path.insert(0, str(TOOLS))
    sys.dont_write_bytecode = True
    try:
        import report_digest

        configs = report_digest.configs()
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path[:] = path
    recorded = dict(line.split() for line in
                    (TOOLS / "report_digests.txt").read_text().splitlines() if line.strip())
    return report_digest.digest, configs, recorded


DIGEST, ALL_CONFIGS, RECORDED = _tool_configs()
CONFIGS = [(name, cfg, RECORDED[name]) for name, cfg in ALL_CONFIGS
           if name.startswith(("graded-", "dt0.2-", "mixed-", "random-"))
           or name in ("bench-fixed_sat-1", "bench-ncso_light-14", "bench-csof_peak-1")]


def test_the_tool_builds_every_recorded_config_once():
    # Only the full ``--check`` runs the other configs; this notices, without
    # running any, a config the tool drops, renames or builds twice.
    names = sorted(name for name, _ in ALL_CONFIGS)
    assert len(names) == 35 and names == sorted(RECORDED)


def test_the_fifteen_tier1_configs_are_checked():
    assert sorted(name for name, _, _ in CONFIGS) == sorted(
        [f"{kind}-{technique}" for kind in ("graded", "dt0.2", "mixed", "random")
         for technique in ("csof", "ncso", "fixed")]
        + ["bench-fixed_sat-1", "bench-ncso_light-14", "bench-csof_peak-1"])


@pytest.mark.parametrize("name, cfg, expected", CONFIGS, ids=[c[0] for c in CONFIGS])
def test_report_matches_its_recorded_digest(name, cfg, expected):
    assert DIGEST(cfg) == expected, name
