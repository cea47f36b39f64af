"""The benchmark harness under perfbench/ still runs against the library:
its self-test passes and its machine record reads every name it needs.
Both run in a subprocess because importing perfbench/run.py clears the
PERMDESIGN_* variables of the importing process."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def _run(args):
    return subprocess.run([sys.executable, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)


def test_benchmark_smoke_test_passes():
    done = _run([os.path.join(PERFBENCH, "test_smoke.py")])
    assert done.returncode == 0, done.stderr[-2000:]


def test_benchmark_machine_record():
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import run; "
            "run.import_library(); print(json.dumps(run.machine_record()))")
    done = _run(["-c", code, PERFBENCH])
    assert done.returncode == 0, done.stderr[-2000:]
    limits = json.loads(done.stdout)["limits"]
    assert set(limits) == {"element_limit", "index_limit", "point_limit",
                           "exhaustive_limit"}
