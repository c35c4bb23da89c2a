"""Span tracing for the linattn benchmark, applied from outside the package.

A ``Tracer`` replaces public functions of the linattn modules with timing
wrappers while it is installed, then puts the originals back. Nothing in
``src/`` knows about it. Two kinds of span are kept apart:

* module spans (``data.*``, ``model.*``, ``attention.*``, ``kernels.*``,
  ``training.*``, ``tensor.backward``): a module's self time is its
  duration minus the durations of the module spans it encloses, so tensor
  ops are charged to the module that called them and the self times of
  all module spans plus the unattributed remainder add up to wall time;
* op spans (``tensor.<op>``): the forward time of each public tensor op,
  a second view across the same wall time.

The harness marks which unit of work (optimizer step or eval batch) is
running and whether it is timed; self times and call counts are summed
over timed units only, inclusive times per call over everything.
The batch wrapper also counts real and padded token slots per unit; a
tracer built with ``spans=False`` installs nothing else, so untraced runs
still get exact token counts at the cost of one generator frame per batch.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import defaultdict
from contextlib import contextmanager

# (module, attribute, span name). Attributes are patched where the caller
# looks them up: ``training.py`` binds names from ``model``/``kernels``/
# ``tensor`` at import time, so those are patched in ``training`` too.
MODULE_SPANS = (
    ("config", "TaskSpec.build", "data.gen"),
    ("training", "build_model", "model.build"),
    ("model", "build_model", "model.build"),
    ("training", "save_checkpoint", "model.checkpoint_save"),
    ("model", "save_checkpoint", "model.checkpoint_save"),
    ("model", "load_checkpoint", "model.checkpoint_load"),
    ("training", "forward_classify", "model.head"),
    ("training", "forward_match", "model.head"),
    ("model", "Model.encode", "model.encode"),
    ("model", "multi_head_kernel_attention", "attention.mh_kernel_self"),
    ("attention", "kernel_attention_linear", "attention.linear"),
    ("attention", "kernel_stack_forward", "kernels.stack"),
    ("training", "orthogonality_penalty", "kernels.penalty"),
    ("training", "backward", "tensor.backward"),
    ("training", "Adam.step", "training.adam"),
    ("training", "evaluate", "training.evaluate"),
)
BATCH_SPAN = "data.batch"
NOT_OPS = {"no_grad", "backward", "finite_difference_check"}


def tensor_ops(tensor_module) -> list[str]:
    """Public functions of the tensor module that build tensors."""
    return sorted(name for name, fn in vars(tensor_module).items()
                  if inspect.isfunction(fn) and fn.__module__ == tensor_module.__name__
                  and not name.startswith("_") and name not in NOT_OPS)


def _resolve(owner, dotted: str):
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Aggregated spans and token counts for one phase of a run."""

    def __init__(self, spans: bool):
        self.spans = spans
        self.unit = 0           # index of the running unit, set by the harness
        self.timed = False      # whether that unit counts towards the figures
        self.self_ms = defaultdict(float)   # span -> self ms over timed units
        self.calls = defaultdict(int)       # span -> calls in timed units
        self.inclusive = defaultdict(lambda: [0, 0.0])  # span -> [calls, ms], all units
        self.top_ms = 0.0       # module spans with no enclosing module, timed units
        self.flops = 0.0        # computed attention.linear flops, timed units
        self.tokens = defaultdict(int)      # unit -> real tokens pulled by batch_iter
        self.slots = defaultdict(int)       # unit -> padded token slots
        self.first_batch = None
        self._modules: list[list[float]] = []   # open module spans: [child_s, start]
        self._ops: list[list[float]] = []       # open op spans

    # -- wrappers ------------------------------------------------------------

    def _record(self, name: str, dur: float, self_s: float, top: bool):
        if self.timed:
            self.self_ms[name] += self_s * 1e3
            self.calls[name] += 1
            if top:
                self.top_ms += dur * 1e3
        entry = self.inclusive[name]
        entry[0] += 1
        entry[1] += dur * 1e3

    def _wrap(self, fn, name: str, stack: list, measure=None):
        clock = time.perf_counter
        record = self._record
        is_module = stack is self._modules

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[1]
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                record(name, dur, dur - frame[0], is_module and not stack)
                if measure is not None and self.timed:
                    self.flops += measure(*args)
        return wrapper

    def _wrap_batches(self, fn):
        clock = time.perf_counter
        spans, modules = self.spans, self._modules

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                if spans:
                    frame = [0.0, clock()]
                    modules.append(frame)
                try:
                    batch = next(it, None)
                finally:
                    if spans:
                        modules.pop()
                        dur = clock() - frame[1]
                        if modules:
                            modules[-1][0] += dur
                if batch is None:
                    return
                if spans:
                    self._record(BATCH_SPAN, dur, dur - frame[0], not modules)
                self._count(batch)
                yield batch
        return wrapper

    def _count(self, batch):
        masks = [batch.mask] if hasattr(batch, "mask") else [batch.mask_a, batch.mask_b]
        for m in masks:
            self.tokens[self.unit] += int(m.sum())
            self.slots[self.unit] += int(m.size)
        if self.first_batch is None:
            self.first_batch = batch

    # -- installation --------------------------------------------------------

    @contextmanager
    def installed(self, pkg, flops_of=None):
        """Patch ``pkg``'s modules for the duration of the block.

        ``flops_of(qf, kf, v, mask, ...)`` gives the computed flop count
        of one ``kernel_attention_linear`` call.
        """
        patches = [(pkg.training, "batch_iter", self._wrap_batches(pkg.training.batch_iter))]
        if self.spans:
            for module, dotted, name in MODULE_SPANS:
                owner, attr = _resolve(getattr(pkg, module), dotted)
                measure = flops_of if name == "attention.linear" else None
                patches.append((owner, attr, self._wrap(getattr(owner, attr), name,
                                                        self._modules, measure)))
            for op in tensor_ops(pkg.tensor):
                patches.append((pkg.tensor, op, self._wrap(getattr(pkg.tensor, op),
                                                           f"tensor.{op}", self._ops)))
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)

