import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs in a fresh, isolated interpreter: which modules does importing the
# package load on top of what the interpreter itself started with?
PROBE = """\
import json, sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import coopspeed
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies, and the benchmark's set-up
    # time and peak memory budgets assume none gets pulled in.
    done = subprocess.run([sys.executable, "-I", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    loaded = json.loads(done.stdout)
    assert "coopspeed" in loaded
    foreign = [name for name in loaded
               if name != "coopspeed" and name not in sys.stdlib_module_names]
    assert not foreign, foreign
