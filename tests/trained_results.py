"""The trained-result records: full training runs of the shipped configs,
whose results ``trained_results.json`` and ``listops_results.json`` keep.

By default, each run trains one configured seed of ``match.cfg``,
``classify_linear.cfg`` or ``classify_oglu.cfg`` exactly as the config says
(3 + 5 + 5 runs), in float32, until it reaches the config's target accuracy
or its last step, and keeps the step it stopped at and its final eval
accuracy. The runs are independent, so two worker processes share them:
about 30 s in all on a 2-core VM, against 51 s one after another.
``test_trained_results.py`` holds each change to this record.

With ``--listops``, each run trains one of the seeds 1-5 of ``listops.cfg``
exactly as configured (3000 steps, no target), and keeps each eval's step
and accuracy, the best accuracy and its step, and the final accuracy. One
seed takes about 3 min, so no tier-1 test runs these; a change that moves
bits runs them and quotes the record.

Print the runs and the environment as JSON, or rewrite a record after a
change that moves results on purpose (say why in CHANGES.md):

    PYTHONPATH=src python tests/trained_results.py [--listops] [--write]

BLAS runs on one thread, because the determinism contract names the thread
count: the variables are set here, before numpy loads, and the workers
inherit them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from multiprocessing import get_context  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from linattn.config import parse_config_file  # noqa: E402
from linattn.tensor import BLAS_THREADS  # noqa: E402
from linattn.training import train  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("trained_results.json")
LISTOPS_RECORD = Path(__file__).with_name("listops_results.json")
CONFIGS = ("match", "classify_linear", "classify_oglu")


def run(cfg, seed: int) -> dict:
    """The step one training run stopped at and its final eval accuracy."""
    result = train(cfg, seed)
    return {"steps": result.records[-1].step, "accuracy": result.final_accuracy}


def listops_run(cfg, seed: int) -> dict:
    """Each eval's [step, accuracy] of one training run, the best accuracy
    (its first step on a tie) and the final accuracy."""
    result = train(cfg, seed)
    evals = [[r.step, r.eval_accuracy] for r in result.records if r.eval_accuracy is not None]
    best = max(evals, key=lambda e: e[1])
    return {"evals": evals, "best_step": best[0], "best_accuracy": best[1],
            "final_accuracy": result.final_accuracy}


def runs(names, fn) -> dict:
    """``fn(cfg, seed)`` for every configured seed of each config in
    ``names``, keyed ``<config>-seed<seed>``, in two worker processes."""
    jobs = []
    for name in names:
        cfg = parse_config_file(ROOT / "configs" / f"{name}.cfg")
        jobs += [(f"{name}-seed{seed}", cfg, seed) for seed in cfg.seeds]
    keys, cfgs, seeds = zip(*jobs)
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        return dict(zip(keys, pool.map(fn, cfgs, seeds)))


def cpu_model() -> str:
    """The CPU's model name from ``/proc/cpuinfo``, else ``platform.processor()``:
    OpenBLAS picks its kernels by CPU at run time."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def environment() -> dict:
    """What a run's exact results depend on besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "cpu": cpu_model(), "blas_threads": BLAS_THREADS}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Train the shipped configs' seeds.")
    parser.add_argument("--listops", action="store_true",
                        help="train listops.cfg's seeds instead, for listops_results.json")
    parser.add_argument("--write", action="store_true", help="rewrite the record")
    args = parser.parse_args(argv)
    if args.listops:
        record, path = runs(["listops"], listops_run), LISTOPS_RECORD
    else:
        record, path = runs(CONFIGS, run), RECORD
    if args.write:
        commit = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                                capture_output=True, text=True, check=True).stdout.strip()
        command = "PYTHONPATH=src python tests/trained_results.py " + " ".join(argv)
        path.write_text(json.dumps({"command": command, "commit": commit,
                                    "environment": environment(), "runs": record},
                                   indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps({"environment": environment(), "runs": record}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
