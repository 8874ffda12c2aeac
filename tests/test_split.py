"""Stacked solves split into part solves across the CPUs, with the same bits.

The gate SPLIT_MIN_S is forced to 0 (split every solve of four entries or
more after its first step) or to inf (never split), and the two solves are
compared with np.array_equal.  On one CPU both run serially, and the tests
check that no thread is started.
"""

import multiprocessing
import os
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

import freeconv.parallel as parallel
from freeconv import SolverConfig, solve_omega_stack
from freeconv.subordination import _newton_budget, _picard_stack, solve_gq_stack

from helpers import random_hermitian, random_psd
from test_cauchy_record import _points, _problem

CPUS = len(os.sched_getaffinity(0))
SIZE = 7
FORMS = ("level 1", "level 2 dense", "level 2 block")


@pytest.fixture
def parts(monkeypatch):
    """Count the part solves that run on threads of their own."""
    calls = []
    original = parallel._in_errstate

    def counting(err, fn, w, *rest):
        calls.append((threading.current_thread().name, len(w)))
        return original(err, fn, w, *rest)

    monkeypatch.setattr(parallel, "_in_errstate", counting)
    return calls


def _split_threads():
    return [t.name for t in threading.enumerate() if t.name.startswith("freeconv-split")]


def _split_and_serial(monkeypatch, parts, solve):
    """solve() with the gate forced open, then closed; the parts a split ran."""
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
    split = solve()
    assert not _split_threads()
    ran = list(parts)
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", np.inf)
    serial = solve()
    assert len(parts) == len(ran)
    if CPUS > 1:
        assert ran and all(name.startswith("freeconv-split") and size >= 2
                           for name, size in ran)
    else:
        assert not ran
    return split, serial


def _assert_identical(split, serial):
    for got, want in zip(split, serial):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("form", FORMS)
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["eta", "beta", "power"])
def test_split_omega_solves_match_serial_solves(monkeypatch, parts, variant, n, form):
    rng = np.random.default_rng([31, n, FORMS.index(form)])
    prob = _problem(variant, rng, n)
    b = np.concatenate([_points(rng, n, form) for _ in range(2)])[:SIZE]
    level = 1 if form == "level 1" else 2
    for anderson in (False, True):
        for cfg in (SolverConfig(damping=0.5), SolverConfig(max_iter=3)):
            def solve():
                G = np.empty_like(b)
                return (*solve_omega_stack(prob, b, cfg, level, anderson, cauchy_out=G), G)

            _assert_identical(*_split_and_serial(monkeypatch, parts, solve))


@pytest.mark.parametrize("variant", ["eta", "beta", "power"])
@pytest.mark.parametrize("n", [1, 2])
def test_split_solves_with_newton_steps_match_serial_solves(monkeypatch, parts, variant, n):
    # just above the real axis, undamped Picard steps run out of the Newton
    # budget, so the solves take Newton steps between split steps
    rng = np.random.default_rng([32, n])
    prob = _problem(variant, rng, n)
    b = (np.linspace(-1.0, 1.0, SIZE)[:, None, None] + 1e-5j) * np.eye(n)
    cfg = SolverConfig(max_iter=400)
    split, serial = _split_and_serial(
        monkeypatch, parts, lambda: solve_omega_stack(prob, b, cfg))
    _assert_identical(split, serial)
    assert serial.iterations.max() > _newton_budget(n)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["eta", "beta", "power"])
def test_split_vq_solves_match_serial_solves(monkeypatch, parts, variant, n, level):
    rng = np.random.default_rng([33, n, level])
    prob = _problem(variant, rng, n)
    d = level * n
    q = np.stack([0.2 * np.eye(d) + random_psd(rng, d, 0.5) for _ in range(SIZE)])
    u = np.stack([random_hermitian(rng, d, 0.5 + j) for j in range(SIZE)])
    for cfg in (SolverConfig(), SolverConfig(damping=0.5, max_iter=200)):
        _assert_identical(*_split_and_serial(
            monkeypatch, parts, lambda: solve_gq_stack(prob, q, u, cfg, level)))


def test_split_step_keeps_the_callers_numpy_error_state(monkeypatch, parts):
    # every step overflows; under the caller's errstate the parts on
    # threads of their own do not warn either (RuntimeWarnings are errors in
    # this suite)
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)

    def step(w, idx):
        np.full(len(w), 1e308) * 10.0
        return 0.5 * w + 1j

    with np.errstate(over="ignore"):
        solve = _picard_stack(step, np.full((SIZE, 1, 1), 1j), SolverConfig())
    assert solve.converged.all()
    assert bool(parts) == (CPUS > 1)


def test_a_solve_in_a_split_step_finishes(monkeypatch, parts):
    # each outer step runs a stacked solve; the outer solve splits, and the
    # inner solves of its part on a thread of its own split again, on
    # threads of their own
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
    rng = np.random.default_rng(35)
    prob = _problem("beta", rng, 2)
    b = _points(rng, 2, "level 1")
    b = np.concatenate([b, b])[:SIZE]
    inner = []

    def step(w, idx):
        omega = solve_omega_stack(prob, b, SolverConfig(damping=0.5)).require("inner")
        inner.append(threading.current_thread().name)
        return 0.5 * w + omega[:1]

    result = []
    thread = threading.Thread(
        target=lambda: result.append(_picard_stack(step, np.repeat(b[:1], 6, 0), SolverConfig())),
        daemon=True)
    thread.start()
    thread.join(120)
    assert not thread.is_alive(), "a nested split solve did not finish"
    assert result[0].converged.all()
    if CPUS > 1:
        assert any(name.startswith("freeconv-split") for name in inner)


@pytest.mark.skipif(CPUS == 1, reason="a solve splits on two CPUs or more")
@pytest.mark.parametrize("caller_raises", [False, True], ids=["part raises", "caller raises"])
def test_a_part_that_raises_raises_at_the_caller_once_every_part_joined(
        monkeypatch, caller_raises):
    # the part on a freeconv-split thread raises after a pause; with
    # caller_raises, the caller's own part raises first, at its first step,
    # while the other part still runs
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
    on_caller = []

    def step(w, idx):
        if threading.current_thread().name.startswith("freeconv-split"):
            time.sleep(0.2)
            raise ValueError("split part")
        on_caller.append(len(w))
        if caller_raises and len(on_caller) > 2:   # after the solve's first step
            raise ValueError("caller part")
        return w + 1j   # never converges

    with pytest.raises(ValueError, match="caller part" if caller_raises else "split part"):
        _picard_stack(step, np.full((SIZE, 1, 1), 1j), SolverConfig(max_iter=50))
    assert not _split_threads()


def test_concurrent_split_solves_each_get_the_serial_record(monkeypatch, parts):
    # more threads than CPUs split their solves at once, with short switch
    # intervals
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", np.inf)
    rng = np.random.default_rng(38)
    prob = _problem("beta", rng, 2)
    b = np.concatenate([_points(rng, 2, "level 1") for _ in range(2)])[:SIZE]
    serial = solve_omega_stack(prob, b, SolverConfig(damping=0.5))
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
    results = []
    start = threading.Barrier(2 * CPUS + 2, timeout=60)

    def solve():
        start.wait()
        results.append(solve_omega_stack(prob, b, SolverConfig(damping=0.5)))

    threads = [threading.Thread(target=solve, daemon=True) for _ in range(start.parties)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(results) == len(threads)
    for got in results:
        _assert_identical(got, serial)
    assert bool(parts) == (CPUS > 1)
    assert not _split_threads()


def _child_solve(conn, prob, b, parts):
    parts.clear()
    conn.send((solve_omega_stack(prob, b, SolverConfig(damping=0.5)), parts))
    conn.close()


def test_a_forked_child_splits_as_its_parent_does(monkeypatch, parts):
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", 0.0)
    rng = np.random.default_rng(36)
    prob = _problem("eta", rng, 2)
    b = np.concatenate([_points(rng, 2, "level 1") for _ in range(2)])[:SIZE]
    parent = solve_omega_stack(prob, b, SolverConfig(damping=0.5))
    ctx = multiprocessing.get_context("fork")
    here, there = ctx.Pipe(duplex=False)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)   # fork of a threaded process
        child = ctx.Process(target=_child_solve, args=(there, prob, b, parts))
        child.start()
    there.close()
    try:
        assert here.poll(120), "the forked child did not finish its solve"
        got, child_parts = here.recv()
        child.join(60)
        assert child.exitcode == 0
    finally:
        child.kill()
    _assert_identical(got, parent)
    assert child_parts == parts and bool(parts) == (CPUS > 1)


def test_one_cpu_starts_no_thread():
    script = (
        "import os, threading\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        "import numpy as np\n"
        "import freeconv.parallel as s\n"
        "from freeconv import SolverConfig, solve_omega_stack\n"
        "from helpers import random_problem, random_upper\n"
        "s.SPLIT_MIN_S = 0.0\n"
        "rng = np.random.default_rng(37)\n"
        "b = np.stack([random_upper(rng, 2) for _ in range(8)])\n"
        "solve = solve_omega_stack(random_problem(rng, n=2, m=3), b, SolverConfig(damping=0.5))\n"
        "assert solve.converged.all()\n"
        "assert threading.active_count() == 1, threading.enumerate()\n"
    )
    here = Path(__file__).parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
