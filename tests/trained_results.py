"""The trained-result record: full training runs of the shipped configs that
stop at a target accuracy, whose stop steps and final eval accuracies
``trained_results.json`` keeps and ``test_trained_results.py`` holds each
change to.

Each run trains one configured seed of ``match.cfg``, ``classify_linear.cfg``
or ``classify_oglu.cfg`` exactly as the config says (3 + 5 + 5 runs), in
float32, until it reaches the config's target accuracy or its last step.
The runs are independent, so two worker processes share them: about 30 s
in all on a 2-core VM, against 51 s one after another. ``listops.cfg``
is left out: one seed takes about 3 min.

Print the runs as JSON, or rewrite the record after a change that moves
results on purpose (say why in CHANGES.md):

    PYTHONPATH=src python tests/trained_results.py [--write]

BLAS runs on one thread, because the determinism contract names the thread
count: the variables are set here, before numpy loads, and the workers
inherit them.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from concurrent.futures import ProcessPoolExecutor  # noqa: E402
from multiprocessing import get_context  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from linattn.config import parse_config_file  # noqa: E402
from linattn.training import train  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("trained_results.json")
CONFIGS = ("match", "classify_linear", "classify_oglu")


def run(cfg, seed: int) -> dict:
    """The step one training run stopped at and its final eval accuracy."""
    result = train(cfg, seed)
    return {"steps": result.records[-1].step, "accuracy": result.final_accuracy}


def runs() -> dict:
    """``run`` for every configured seed of each config in ``CONFIGS``,
    keyed ``<config>-seed<seed>``, in two worker processes."""
    jobs = []
    for name in CONFIGS:
        cfg = parse_config_file(ROOT / "configs" / f"{name}.cfg")
        jobs += [(f"{name}-seed{seed}", cfg, seed) for seed in cfg.seeds]
    keys, cfgs, seeds = zip(*jobs)
    with ProcessPoolExecutor(2, mp_context=get_context("spawn")) as pool:
        return dict(zip(keys, pool.map(run, cfgs, seeds)))


def main(argv: list[str]) -> int:
    record = runs()
    if argv == ["--write"]:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "blas_threads": 1}
        RECORD.write_text(json.dumps({"command": "PYTHONPATH=src python tests/trained_results.py "
                                                 "--write",
                                      "commit": commit, "environment": env, "runs": record},
                                     indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
