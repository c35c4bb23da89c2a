"""The shipped configs still learn as the committed trained-result record says.

``tests/trained_results.py`` trains every configured seed of ``match.cfg``,
``classify_linear.cfg`` and ``classify_oglu.cfg`` to its target accuracy, in
a subprocess that pins BLAS to one thread and shares the runs between two
worker processes (about 30 s), and ``tests/trained_results.json`` keeps the
stop step and final eval accuracy of each run, with the environment it was
written in. Where the running environment equals the recorded one in every
field the record holds (Python, NumPy, machine, CPU model and BLAS thread
count), the determinism contract holds every run to its recorded step and
accuracy exactly. Anywhere else a run must stop within twice its recorded
step count, and its final accuracy must stay within 0.01 of the record: 5
of the 500 eval examples. A change that moves results on purpose rewrites the record with
``PYTHONPATH=src python tests/trained_results.py --write`` and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "trained_results.py"
RECORD = ROOT / "tests" / "trained_results.json"
STEP_FACTOR = 2
ACCURACY_TOL = 0.01


def test_shipped_configs_train_to_the_record():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    got = json.loads(done.stdout)
    record = json.loads(RECORD.read_text())
    want = record["runs"]
    assert sorted(got["runs"]) == sorted(want)
    assert len(want) == 13
    if record["environment"].items() <= got["environment"].items():
        assert got["runs"] == want
        return
    gaps = []
    for run, expected in want.items():
        actual = got["runs"][run]
        if actual["steps"] > STEP_FACTOR * expected["steps"]:
            gaps.append(f"{run}: stopped at step {actual['steps']}, over {STEP_FACTOR} x "
                        f"{expected['steps']}")
        # The slack keeps a gap of exactly 5 examples inside the band.
        if abs(actual["accuracy"] - expected["accuracy"]) > ACCURACY_TOL + 1e-9:
            gaps.append(f"{run}: final accuracy {actual['accuracy']} is more than "
                        f"{ACCURACY_TOL} from {expected['accuracy']}")
    assert not gaps, "\n".join(gaps)
