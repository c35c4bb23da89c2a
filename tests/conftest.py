"""Helpers shared by the tests of the package's lane threads."""

import contextlib
import os
import threading
import time
from concurrent.futures import Future

# Importing scipy.special starts an OS thread that stays. Import it before
# any test counts threads, so that the first float64 gelu (which imports it)
# does not read as a lane thread left running when a test runs alone.
import scipy.special  # noqa: F401

import linattn.tensor as T


def os_threads():
    """The process's OS threads, where the platform lists them."""
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None


def assert_threads_back(threads):
    """The thread counts are back at ``threads``, as read by
    ``threading.active_count()`` and ``os_threads()``. A joined thread leaves
    ``threading`` at once, but its OS thread can still be exiting, so the OS
    count gets up to a second to settle."""
    assert threading.active_count() == threads[0]
    deadline = time.monotonic() + 1.0
    while os_threads() != threads[1] and time.monotonic() < deadline:
        time.sleep(1e-3)
    assert os_threads() == threads[1]


def lanes_off(monkeypatch):
    """Patch ``linattn.tensor.lane`` so that each task runs on the caller as
    it is submitted, returning a finished future: the serial reference of a
    site, with the same node order. Returns the list of functions submitted,
    in submit order: the tasks that would have run on a lane thread."""
    threaded = []

    def submit(fn, *args):
        threaded.append(fn)
        done = Future()
        done.set_result(fn(*args))
        return done

    monkeypatch.setattr(T, "lane", lambda: contextlib.nullcontext(submit))
    return threaded
