"""The equivalence record: short training runs of every shipped config, in
float32 and float64, whose numbers ``equivalence.json`` keeps and
``test_equivalence.py`` holds each change to.

Each run trains the config's first seed for 3 optimizer steps (warmup 1,
no periodic eval, no early stop) at the config's model, optimizer,
micro-batch and accumulation. The training set is shrunk to 1.5 steps of
examples, so the second step already draws from a reshuffled second
epoch, and the eval set to 80 examples, so ``evaluate`` averages a full
batch of 64 and a partial one of 16. A run records each step's
``train_loss``, ``task_loss`` and ``ortho_penalty`` and the post-run
``evaluate`` loss.

Print the runs as JSON, or rewrite the record after a change that moves
results on purpose (say why in CHANGES.md):

    PYTHONPATH=src python tests/equivalence.py [--write]

BLAS runs on one thread, because the determinism contract names the thread
count: the variables are set here, before numpy loads.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from linattn.config import parse_config_file  # noqa: E402
from linattn.training import evaluate, train  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RECORD = Path(__file__).with_name("equivalence.json")
STEPS = 3
EVAL_COUNT = 80


def run(path: Path, dtype) -> dict:
    cfg = parse_config_file(path)
    cfg.schedule.warmup_steps = 1
    cfg.schedule.total_steps = STEPS
    cfg.eval_every = 0
    cfg.target_accuracy = None
    cfg.task.count = 3 * cfg.micro_batch * cfg.accumulation_steps // 2
    cfg.task.eval_count = EVAL_COUNT
    result = train(cfg, cfg.seeds[0], dtype=dtype, override_budget=True)
    _, eval_loss = evaluate(result.model, cfg.task.build_eval())
    return {"train_loss": [r.train_loss for r in result.records],
            "task_loss": [r.task_loss for r in result.records],
            "ortho_penalty": [r.ortho_penalty for r in result.records],
            "eval_loss": eval_loss}


def runs() -> dict:
    """Every shipped config in both precisions, keyed ``<config>-<dtype>``."""
    return {f"{path.stem}-{np.dtype(dtype).name}": run(path, dtype)
            for path in sorted((ROOT / "configs").glob("*.cfg"))
            for dtype in (np.float32, np.float64)}


def main(argv: list[str]) -> int:
    record = runs()
    if argv == ["--write"]:
        env = {"python": platform.python_version(), "numpy": np.__version__,
               "machine": platform.machine(), "blas_threads": 1}
        RECORD.write_text(json.dumps({"command": "PYTHONPATH=src python tests/equivalence.py "
                                                 "--write",
                                      "environment": env, "runs": record},
                                     indent=1, sort_keys=True) + "\n")
    else:
        print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
