"""Stacked solves split into part solves across the CPUs of the process.

Each entry of a stacked fixed-point solve gets the bits of its one-entry
solve (test_batch_invariance), so the solve of a stack is the solves of its
contiguous parts, joined in entry order.  The solver driver
(subordination._picard_stack) finishes a solve whose first step cost
SPLIT_MIN_S or more as one part solve per CPU of the process's affinity
mask, each with its own Anderson mixing and Newton derivatives, through
run_parts; there is no option, and an affinity mask (taskset) limits it.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Sequence

import numpy as np

# A solve whose first step costs this many seconds or more, estimated from
# the CPU time of the calling thread, is split into part solves.  A split
# starts and joins its threads once per solve, about 50 us for two parts
# (2-vCPU Xeon, Python 3.11).
SPLIT_MIN_S = 1e-3


def cpus() -> int:
    """The number of CPUs in the process's affinity mask (os.cpu_count()
    where the platform has no affinity mask)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_errstate(err: dict, fn: Callable, *args):
    with np.errstate(**err):
        return fn(*args)


def run_parts(fn: Callable, parts: Sequence[tuple]) -> list:
    """[fn(*part) for part in parts], the first part on the calling thread
    and each other one on a thread started for it, under the caller's numpy
    error state.

    Every thread has joined before this returns or raises, and an exception
    raised by a part is raised again here once they have: the calling
    thread's own first, then the others' in part order.
    """
    err = np.geterr()
    results, errors = [None] * len(parts), [None] * len(parts)

    def run(k: int) -> None:
        try:
            results[k] = _in_errstate(err, fn, *parts[k])
        except BaseException as exc:   # raised again on the calling thread
            errors[k] = exc

    started = []
    try:
        for k in range(1, len(parts)):
            thread = threading.Thread(target=run, args=(k,), name=f"freeconv-split-{k}")
            thread.start()
            started.append(thread)
        results[0] = fn(*parts[0])
    finally:   # no part outlives the call, even when one raised
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return results
