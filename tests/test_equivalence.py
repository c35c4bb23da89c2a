"""The shipped configs still train to the committed equivalence record.

``tests/equivalence.py`` runs every shipped config for 3 steps in float32
and float64, in a subprocess that pins BLAS to one thread, and
``tests/equivalence.json`` keeps the numbers of the last intended change.
Each value must match within a relative tolerance per dtype. OpenBLAS picks
its kernels by CPU at run time, so the record keeps numbers, not digests:
float32 and float64 runs of the same config differ by up to 3.4e-6 (on
x86-64 OpenBLAS), and the float32 tolerance leaves thirty times that for
another CPU's kernels.
A change that moves results on purpose rewrites the record with
``PYTHONPATH=src python tests/equivalence.py --write`` and says why.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tests" / "equivalence.py"
RECORD = ROOT / "tests" / "equivalence.json"
RTOL = {"float32": 1e-4, "float64": 1e-10}


def test_shipped_configs_match_the_record():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    got = json.loads(done.stdout)
    want = json.loads(RECORD.read_text())["runs"]
    assert sorted(got) == sorted(want) == sorted(
        f"{p.stem}-{dtype}" for p in (ROOT / "configs").glob("*.cfg") for dtype in RTOL)
    gaps = []
    for run, values in want.items():
        rtol = RTOL[run.rsplit("-", 1)[1]]
        for key, expected in values.items():
            expected, actual = np.asarray(expected), np.asarray(got[run][key])
            if actual.shape != expected.shape or np.any(
                    np.abs(actual - expected) > rtol * np.abs(expected)):
                gaps.append(f"{run} {key}: {actual.tolist()} != {expected.tolist()} "
                            f"(rtol {rtol:g})")
    assert not gaps, "\n".join(gaps)
