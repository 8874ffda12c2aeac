"""Stacked steps split across the CPUs of the process.

A stacked fixed-point solve evaluates its step on every active entry at
once, and each entry's step computes the same bits on any part of the
stack (test_batch_invariance).  SplitStep evaluates an expensive step in
parts, one per CPU of the process's affinity mask, on a small pool of
worker threads, and joins them in entry order, so the split changes no
output bit.  The solver driver (subordination._picard_stack) wraps every
step in it; there is no option, and an affinity mask (taskset) limits it.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable

import numpy as np

# A step whose serial cost, estimated from its last evaluation, reaches this
# many seconds is split across the CPUs (see SplitStep).
SPLIT_MIN_S = 1e-3

_workers = (None, 1, None)    # (pid, CPUs, _Workers or None) of this process
_workers_lock = threading.Lock()
_thread = threading.local()   # .worker is set on the threads of _Workers
if hasattr(os, "register_at_fork"):   # a child does not inherit a held lock
    os.register_at_fork(before=_workers_lock.acquire, after_in_parent=_workers_lock.release,
                        after_in_child=_workers_lock.release)


def _split_workers(start: bool = False):
    """(CPUs, workers) of this process.  The CPUs are those of its affinity
    mask; with start, the workers are one thread per CPU but one, made at
    their first use (none with one CPU).  Both are keyed by the process id,
    so a forked child makes its own."""
    global _workers
    with _workers_lock:
        pid, cpus, workers = _workers
        if pid != os.getpid():
            pid, workers = os.getpid(), None
            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else \
                os.cpu_count() or 1
        if start and cpus > 1 and workers is None:
            workers = _Workers(cpus - 1)
        _workers = (pid, cpus, workers)
    return cpus, workers


def _in_errstate(err: dict, step, w, idx):
    with np.errstate(**err):
        return step(w, idx)


class _Workers:
    """Daemon threads that take the parts of split steps from one queue and
    put each part's result, or the exception it raised, on the queue its
    caller waits on."""

    def __init__(self, count: int):
        from queue import SimpleQueue

        self.parts, self._queue = SimpleQueue(), SimpleQueue
        for k in range(count):
            threading.Thread(target=self._serve, name=f"freeconv-split-{k}", daemon=True).start()

    def _serve(self) -> None:
        _thread.worker = True
        while True:
            done, err, step, w, idx = self.parts.get()
            try:
                done.put((_in_errstate(err, step, w, idx), None))
            except BaseException as exc:   # raised again on the caller's thread
                done.put((None, exc))

    def submit(self, *part):
        """Queue err, step, w, idx of a part; returns the queue of its result."""
        done = self._queue()
        self.parts.put((done, *part))
        return done


class SplitStep:
    """step(w, idx) of a stacked solve, evaluated in parts across the CPUs.

    An evaluation is split when the last one cost SPLIT_MIN_S or more for
    the entries now active (its seconds per entry times their number), into
    one part per CPU of the affinity mask, as long as each part keeps two
    entries or more.  The cost is the CPU time of the calling thread
    (time.thread_time), which a thread does not accrue while it is
    preempted, so a busy machine does not make a cheap step look dear.  The
    first evaluation of a solve has no cost to go by and is not split: it
    evaluates its first part and then the others, one after the other, so
    that no evaluation holds the temporaries of the whole stack, and the
    cost of the others, taken once the first part has filled the caches a
    step keeps (an eigendecomposition, say), decides for the next one.
    When split, the first part runs here and the others on the threads of
    _Workers, under the caller's numpy error state; the parts are joined in
    entry order.  Every entry's step computes the same bits on a part of
    the stack as on the whole (test_batch_invariance), so the split changes
    no output bit.  A step that runs on a worker thread never splits again:
    a solve inside a step (r_transform_eval) would otherwise wait for the
    threads it occupies.

    One hand-off of a part to an idle worker and back, submit(...).get(),
    costs 12-30 us (a 2-vCPU Xeon shared with other jobs, means over 5 000;
    concurrent.futures took 31-45 us), and a step on the M_3 density sheet
    of the benchmark (a (B, 30, 30) resolvent inverse and eta with 90 Kraus
    operators), serial against split in halves, medians of 30:

        entries          4      8     12     16     24     41
        serial (ms)   0.39   0.74   1.03   1.28   2.26   3.76
        split (ms)    0.49   0.78   0.84   1.08   1.63   2.28

    The split pays from about 0.8 ms of serial cost, so SPLIT_MIN_S = 1 ms,
    30 hand-offs or more, splits only where it gains.  Steps of 1 x 1 and
    2 x 2 points, and stacks of a few entries, stay far below it.
    """

    def __init__(self, step: Callable[[np.ndarray, np.ndarray], np.ndarray]):
        self.step = step
        # the CPUs it may take: one on a worker thread
        self.cpus = 1 if getattr(_thread, "worker", False) else _split_workers()[0]
        self.cost = None   # serial seconds per entry of the last evaluation

    def __call__(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        n = len(w)
        if n < 4 or self.cpus == 1:
            return self.step(w, idx)
        if self.cost is None:
            k = max(2, n // self.cpus)
            head = self.step(w[:k], idx[:k])
            return np.concatenate([head, self._timed(w[k:], idx[k:])])
        if self.cost * n < SPLIT_MIN_S:
            return self._timed(w, idx)
        workers = _split_workers(start=True)[1]
        parts = min(self.cpus, n // 2)
        cut = [n * p // parts for p in range(parts + 1)]
        err = np.geterr()
        pending = [workers.submit(err, self.step, w[a:b], idx[a:b])
                   for a, b in zip(cut[1:-1], cut[2:])]
        try:
            head = self._timed(w[:cut[1]], idx[:cut[1]])
        finally:   # the workers finish before an error leaves
            results = [done.get() for done in pending]
        for _, exc in results:
            if exc is not None:
                raise exc
        return np.concatenate([head] + [out for out, _ in results])

    def _timed(self, w: np.ndarray, idx: np.ndarray) -> np.ndarray:
        start = time.thread_time()
        out = self.step(w, idx)
        self.cost = (time.thread_time() - start) / len(w)
        return out
