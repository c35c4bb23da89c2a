"""Command-line interface.

Subcommands: ``train``, ``eval``, ``seeds``, ``bench``, ``verify``,
``params``. Metrics stream as JSON lines to ``<out-dir>/metrics.jsonl``;
``train``, ``seeds`` and ``bench`` record the environment they ran in as
``<out-dir>/env.json``; a human summary goes to stdout. Exit codes: 0
success, 1 config/data error or an OS error on a given path, 2 usage
error, 3 diverged training run (for ``seeds``: no seed finished).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .bench import bench_environment, bench_scaling, check_scaling_args
from .config import check_rows_fit_model, check_task_fits_model, int_list, parse_config_file
from .errors import ConfigError, ContractError, DataError
from .model import BUDGET_LIMIT, closed_form_params, load_checkpoint
from .training import evaluate, run_seeds, train
from .verify import run_verify

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_USAGE = 2
EXIT_DIVERGED = 3
_PRECISIONS = {"f32": np.float32, "f64": np.float64}


def _build_parser() -> argparse.ArgumentParser:
    configured = argparse.ArgumentParser(add_help=False)
    configured.add_argument("--config", required=True,
                            help="path to a key=value config file")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out-dir", default="runs", help="output directory")
    output.add_argument("--precision", choices=tuple(_PRECISIONS), default="f32")
    training = argparse.ArgumentParser(add_help=False, parents=[configured, output])
    training.add_argument("--override-budget", action="store_true",
                          help="train even when the kernel parameter budget fails")

    parser = argparse.ArgumentParser(
        prog="linattn",
        description="Kernelized linear attention: train, verify, and benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", parents=[training], help="train one model")
    p_train.add_argument("--seed", type=int, default=None,
                         help="train with this seed instead of the first configured one")
    p_eval = sub.add_parser("eval", parents=[configured], help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True, help="checkpoint file to load")
    sub.add_parser("seeds", parents=[training],
                   help="train across all configured seeds and aggregate")
    p_bench = sub.add_parser("bench", parents=[output], help="sequence-length scaling benchmark")
    p_bench.add_argument("--lengths", default="256,512,1024,2048",
                         help="comma-separated sequence lengths")
    p_bench.add_argument("--repeats", type=int, default=5)
    sub.add_parser("verify", help="run the oracle/gradient/positivity battery")
    sub.add_parser("params", parents=[configured],
                   help="print parameter accounts and the budget verdict")
    return parser


def _shown(path: str) -> str:
    """``path`` as text any stdout can encode: the bytes of a non-UTF-8 name,
    which argv holds as surrogates, as ``\\xNN`` escapes."""
    return os.fsencode(path).decode("utf-8", "backslashreplace")


def _write_environment(out_dir: str) -> str:
    """Record ``bench_environment()`` in ``<out_dir>/env.json``; returns the path."""
    path = os.path.join(out_dir, "env.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bench_environment(), fh, indent=2, sort_keys=True)
    return path


def _cmd_train(args) -> int:
    config = parse_config_file(args.config)
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {args.seed}")
    seed = args.seed if args.seed is not None else config.seeds[0]
    result = train(config, seed, out_dir=args.out_dir, dtype=_PRECISIONS[args.precision],
                   override_budget=args.override_budget, log=print)
    if args.out_dir:
        _write_environment(args.out_dir)
    if result.diverged:
        print(f"run diverged at step {result.records[-1].step} "
              f"(non-finite loss, orthogonality penalty or eval loss)")
        return EXIT_DIVERGED
    print(f"finished after {result.records[-1].step} steps: "
          f"eval accuracy {result.final_accuracy:.4f}")
    if result.checkpoint_path:
        print(f"checkpoint: {_shown(result.checkpoint_path)}")
        print(f"metrics: {_shown(os.path.join(args.out_dir, 'metrics.jsonl'))}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    config = parse_config_file(args.config)
    model = load_checkpoint(args.checkpoint)
    try:  # the checkpoint's model scores the task, not the config's [model]
        check_task_fits_model(config.task, model.config)
    except ConfigError as exc:
        raise ConfigError(f"{args.checkpoint}: {exc}") from None
    eval_ds = config.task.build_eval()
    check_rows_fit_model(eval_ds, model.config)
    accuracy, loss = evaluate(model, eval_ds, batch_size=64)
    print(f"eval accuracy {accuracy:.4f}  mean loss {loss:.4f} "
          f"({len(eval_ds)} examples)")
    return EXIT_OK


def _cmd_seeds(args) -> int:
    config = parse_config_file(args.config)
    summary = run_seeds(config, out_dir=args.out_dir, dtype=_PRECISIONS[args.precision],
                        override_budget=args.override_budget)
    if args.out_dir:
        _write_environment(args.out_dir)
    for row in summary.rows:
        note = "  DIVERGED" if row["diverged"] else ""
        print(f"seed {row['seed']:>4d}  accuracy {row['accuracy']:.4f}  "
              f"steps {row['steps']}{note}")
    if summary.mean is None:
        print(f"all {len(summary.rows)} seeds diverged: no aggregate (null in summary.json)")
        return EXIT_DIVERGED
    flag = "  (high variance)" if summary.high_variance else ""
    print(f"aggregate over {len(summary.rows) - len(summary.diverged_seeds)} runs: "
          f"mean {summary.mean:.4f}  best {summary.best:.4f}  std {summary.std:.4f}{flag}")
    if summary.diverged_seeds:
        print(f"diverged seeds excluded from the aggregate: {summary.diverged_seeds}")
    return EXIT_OK


def _cmd_bench(args) -> int:
    try:
        lengths = int_list(args.lengths)
    except ValueError:
        raise ConfigError(f"--lengths takes comma-separated integers, "
                          f"got {args.lengths!r}") from None
    check_scaling_args(lengths, args.repeats)
    os.makedirs(args.out_dir, exist_ok=True)
    result = bench_scaling(lengths, repeats=args.repeats, dtype=_PRECISIONS[args.precision])
    csv_path = os.path.join(args.out_dir, "bench.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(result.csv())
    env_path = _write_environment(args.out_dir)
    print(result.csv(), end="")
    for kind, slope in result.exponents.items():
        print(f"fitted exponent {kind}: {slope:.3f}")
    for warning in result.resolution_warnings:
        print(f"warning: {warning}")
    print(f"csv written to {_shown(csv_path)}, environment to {_shown(env_path)}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    return EXIT_OK if run_verify(log=print) else EXIT_ERROR


def _cmd_params(args) -> int:
    config = parse_config_file(args.config)
    account = closed_form_params(config.model)  # builds no model
    print(f"base parameters:   {account.base_params}")
    print(f"kernel parameters: {account.kernel_params}")
    print(f"ratio:             {account.ratio:.4f}")
    print(f"{'PASS' if account.within_budget else 'FAIL'}: kernel/base parameter ratio "
          f"{account.ratio:.4f} vs limit {BUDGET_LIMIT:.2f}")
    return EXIT_OK


_COMMANDS = {"train": _cmd_train, "eval": _cmd_eval, "seeds": _cmd_seeds,
             "bench": _cmd_bench, "verify": _cmd_verify, "params": _cmd_params}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ContractError, DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
