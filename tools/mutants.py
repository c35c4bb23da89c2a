"""Mutants the test suite must kill.

Each row of ``MUTANTS`` names a file, a piece of its text, the text to put
in its place, and the test node that must fail once it is there. The script
copies the repository (without ``.git``) to a temporary directory, then for
each row writes the mutated file, runs the node there with pytest and puts
the file back. It exits 1 if a row's old text does not occur exactly once
in its file, or if a mutant survives: its node passes. Each node must pass
in the unmutated copy first; a row whose node does not is reported as
broken, not as killed.

Run from anywhere, after the tier-1 tests::

    python tools/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file, old text, new text, test node that must fail)
MUTANTS = [
    ("lane does not join", "src/linattn/tensor.py",
     "self._pool.shutdown()", "self._pool.shutdown(wait=False)",
     "tests/test_tensor.py::TestLane::test_joined_on_every_exit"),
    ("lane thread records a graph", "src/linattn/tensor.py",
     "        if _LANE_THREAD.on:", "        if False:",
     "tests/test_tensor.py::TestLane::test_recording_op_on_the_lane_raises"),
    ("reverse pass not awaited", "src/linattn/training.py",
     "            if pending is not None:\n                pending.result()\n", "",
     "tests/test_training.py::TestPipelinedAccumulation"
     "::test_reverse_passes_run_in_order_and_the_last_on_the_caller"),
    ("row cut at n // 2", "src/linattn/model.py",
     "n // 2 // 64 * 64", "n // 2",
     "tests/test_model.py::TestRowSplit::test_halves_keep_every_bit"),
    ("encoder floor > for >=", "src/linattn/model.py",
     "n * cfg.d_model >= OVERLAP_MIN_ELEMENTS", "n * cfg.d_model > OVERLAP_MIN_ELEMENTS",
     "tests/test_model.py::TestRowSplit::test_worker_runs_at_the_floor"),
    ("encoder passes its lane while a graph is recorded", "src/linattn/model.py",
     "overlap = submit if split else None",
     "overlap = submit if split or T._GRAD_ENABLED else None",
     "tests/test_model.py::TestRowSplit::test_no_worker[graph]"),
    ("encoder passes its lane with an rng", "src/linattn/model.py",
     "overlap = submit if split else None",
     "overlap = submit if split or rng is not None else None",
     "tests/test_model.py::TestRowSplit::test_no_worker[rng]"),
    ("layer cuts its sequence halves without a lane", "src/linattn/attention.py",
     "if submit is not None and m.ndim >= 2 else 0", "if m.ndim >= 2 else 0",
     "tests/test_attention.py::TestFeatureOverlap"
     "::test_serial_layer_builds_queries_first_on_the_caller"),
    # Five mutants that once passed every tier-1 test.
    ("dropout not inverted", "src/linattn/model.py",
     "[mask].astype(dtype) / (1.0 - rate)", "[mask].astype(dtype)",
     "tests/test_model.py::TestDropoutStream::test_scales_and_stream_match_the_padded_draw"),
    ("eval loss not weighted by batch size", "src/linattn/training.py",
     ".item()) * len(batch.labels)", ".item()) * batch_size",
     "tests/test_equivalence.py"),
    ("penalty measured at weight 2", "src/linattn/training.py",
     "orthogonality_penalty(model.regularized_matrices(), 1.0)",
     "orthogonality_penalty(model.regularized_matrices(), 2.0)",
     "tests/test_equivalence.py"),
    ("every epoch reuses epoch 0's shuffle", "src/linattn/training.py",
     "shuffle_seed = seed * 1_000_003 + epoch", "shuffle_seed = seed * 1_000_003",
     "tests/test_equivalence.py"),
    ("inner linear_softplus layers without gelu", "src/linattn/kernels.py",
     "T.gelu if len(layer) == 1 else None", "None",
     "tests/test_kernels.py::TestKernelStack"
     "::test_depth3_linear_softplus_runs_inner_layers_under_gelu"),
    # Hand mutants of the tape, the accumulation and the encoder's row split.
    ("div's gradient for b with its sign flipped", "src/linattn/tensor.py",
     "db = -_unbroadcast(ga * quotient, b_shape)", "db = _unbroadcast(ga * quotient, b_shape)",
     "tests/test_tensor.py::TestConstantOperands::test_both_trainable_still_get_both"),
    ("accumulated gradient aliases the first reverse pass", "src/linattn/training.py",
     "grad_sum[name] = grads[p].copy()", "grad_sum[name] = grads[p]",
     "tests/test_fuzz.py::TestTapeBattery::test_accumulated_gradients_share_no_memory"),
    ("swapaxes copies", "src/linattn/tensor.py",
     "x.data.swapaxes(a, b)", "x.data.swapaxes(a, b).copy()",
     "tests/test_tensor.py::TestSwapaxesView::test_returns_a_view_of_its_operand"),
    ("mean divides by the last axis's length", "src/linattn/tensor.py",
     "    out /= count", "    out /= x.shape[-1]",
     "tests/test_tensor.py::TestReductions::test_mean_divides_by_the_reduced_axis_length"),
    ("reduction of a strided view without its contiguous copy", "src/linattn/tensor.py",
     "_unbroadcast(np.ascontiguousarray(x.data), kept)", "_unbroadcast(x.data, kept)",
     "tests/test_tensor.py::TestReductions::test_strided_views_give_the_bits_of_contiguous_copies"),
    ("encoder rows split at a cut of 0", "src/linattn/model.py",
     "                if not cut:\n                    return fn(x, *args)\n", "",
     "tests/test_model.py::TestPooling::test_mean_averages_real_positions"),
    # The motif tasks' block decoder.
    ("block decoder keeps a rejected draw", "src/linattn/data.py",
     "if not (low[near] < (_TWO32 - n[near]) % n[near]).any():", "if True:",
     "tests/test_data.py::TestDrawRows::test_rejection_half_the_time"),
    ("block decoder falls back without restoring the state", "src/linattn/data.py",
     "        bitgen.state = saved\n", "",
     "tests/test_data.py::TestDrawRows::test_rejection_half_the_time"),
    ("block decoder maps ranges of 2**32 and more", "src/linattn/data.py",
     "if n.max(initial=0) < _TWO32:", "if True:",
     "tests/test_data.py::TestDrawRows::test_wide_ranges_fall_back"),
    ("block decoder leaves the state's half-word as it was", "src/linattn/data.py",
     "            bitgen.state = state\n", "",
     "tests/test_data.py::TestDrawRows::test_mixed_ranges"),
]


def run_node(copy: Path, node: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           node], cwd=copy, env=env, capture_output=True, text=True,
                          timeout=600)


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory(prefix="linattn-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "runs", ".perfbench-*"))
        broken = {}
        for node in dict.fromkeys(row[4] for row in MUTANTS):
            done = run_node(copy, node)
            if done.returncode != 0:
                broken[node] = done
        for name, rel, old, new, node in MUTANTS:
            if node in broken:
                failures.append(f"{name}: {node} exited {broken[node].returncode} unmutated\n"
                                f"{broken[node].stdout[-1500:]}{broken[node].stderr[-1500:]}")
                print(f"BROKEN   {name}")
                continue
            path = copy / rel
            original = path.read_text()
            if original.count(old) != 1:
                failures.append(f"{name}: its old text occurs {original.count(old)} times "
                                f"in {rel}, not once")
                print(f"STALE    {name}")
                continue
            start = time.monotonic()
            path.write_text(original.replace(old, new))
            try:
                done = run_node(copy, node)
            finally:
                path.write_text(original)
            killed = done.returncode == 1  # tests failed; other codes are usage errors
            print(f"{'killed' if killed else 'SURVIVED':8} {name} "
                  f"({time.monotonic() - start:.1f} s, pytest exit {done.returncode})")
            if not killed:
                failures.append(f"{name}: {node} exited {done.returncode}\n"
                                f"{done.stdout[-1500:]}{done.stderr[-1500:]}")
    for failure in failures:
        print(failure, file=sys.stderr)
    print(f"{len(MUTANTS) - len(failures)} of {len(MUTANTS)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
