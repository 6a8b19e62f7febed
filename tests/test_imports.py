import json
import subprocess
import sys
from pathlib import Path

import coopspeed

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh, isolated interpreter: which modules does importing the
# package load on top of what the interpreter itself started with?  ``-B``
# keeps it from writing bytecode into the source tree, which ``-I`` would
# otherwise do whatever PYTHONDONTWRITEBYTECODE says.
PROBE = """\
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import coopspeed
new = set(sys.modules) - before
print(json.dumps(["coopspeed.sim" in new, sorted({name.partition(".")[0] for name in new})]))
"""


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, and the benchmark's set-up
    # time and peak memory budgets assume none gets pulled in.
    done = subprocess.run([sys.executable, "-I", "-B", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    engine_loaded, loaded = json.loads(done.stdout)
    # The package imports its API from the engine, so the whole engine,
    # and everything it imports, is loaded.
    assert engine_loaded
    assert "coopspeed" in loaded
    foreign = [name for name in loaded
               if name != "coopspeed" and name not in sys.stdlib_module_names]
    assert not foreign, foreign


def test_package_exports_the_documented_api():
    # README.md documents these names; the submodules are not exports.
    # Each is the engine's own object.
    assert coopspeed.__all__ == ["SimConfig", "SegmentConfig", "SignalConfig", "MetricsReport",
                                 "TECHNIQUES", "run"]
    for name in coopspeed.__all__:
        assert getattr(coopspeed, name) is getattr(coopspeed.sim, name), name
