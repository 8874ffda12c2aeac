"""Anderson mixing in the shared fixed-point driver (anderson=True)."""

from fractions import Fraction

import numpy as np
import pytest

from freeconv import (
    CPMap,
    ScalarMeasure,
    SolverConfig,
    SubordinationProblem,
    scalar_to_model,
    solve_omega_stack,
)
from freeconv.subordination import ANDERSON_DEPTH, _AndersonHistory, _omega_step, _picard_stack
from freeconv.transforms import DENSITY_CONFIG, density_grid, semicircle_problem

from _oracles import semicircle_density
from helpers import random_model, random_problem

PICARD = SolverConfig(damping=0.5)


def _power_problem(rng, n):
    return SubordinationProblem.power(random_model(rng, n, 3), CPMap.scaled_identity(2.0, n))


# Anderson against Picard steps on 41-point stacks at eps 2e-2 and 1e-2,
# seeds 0-5: about 0.3 over M_1 and for the power problem, 0.45-0.51 over
# M_2 and 0.49-0.59 over M_3, where a residual has d^2 coordinates and a
# history of depth 3 spans few of them.
@pytest.mark.parametrize("make, ratio", [
    (lambda rng: random_problem(rng, n=1), 0.5),
    (lambda rng: random_problem(rng, n=2), 0.6),
    (lambda rng: random_problem(rng, n=3), 0.6),
    (lambda rng: _power_problem(rng, 1), 0.5),
], ids=["generic M_1", "generic M_2", "generic M_3", "power M_1"])
def test_anderson_agrees_with_picard_in_fewer_steps(make, ratio):
    prob = make(np.random.default_rng(2011))
    us = np.linspace(-3.0, 3.0, 41)
    for eps in (2e-2, 1e-2):
        b = (us[:, None, None] + 1j * eps) * np.eye(prob.base_dim)
        picard = solve_omega_stack(prob, b, PICARD)
        anderson = solve_omega_stack(prob, b, PICARD, anderson=True)
        assert picard.converged.all() and anderson.converged.all()
        assert np.max(np.abs(anderson.value - picard.value)) <= 1e-10
        assert anderson.iterations.sum() <= ratio * picard.iterations.sum()


# The mixing extrapolates the undamped images (mixing parameter 1).  Mixing
# the damped points, as the driver once did (parameter 1 - damping = 0.5),
# took 0.435-0.527 of Picard's steps here; the undamped images take
# 0.284-0.364 (M_2 0.28-0.35, M_3 0.32-0.36, the power 0.29-0.33).
@pytest.mark.parametrize("make", [
    lambda rng: random_problem(rng, n=2),
    lambda rng: random_problem(rng, n=3),
    lambda rng: _power_problem(rng, 2),
], ids=["generic M_2", "generic M_3", "power M_2"])
@pytest.mark.parametrize("seed", [2011, 0, 1, 2, 3, 4, 5])
def test_anderson_extrapolates_the_undamped_steps(make, seed):
    prob = make(np.random.default_rng(seed))
    us = np.linspace(-3.0, 3.0, 41)
    for eps in (2e-2, 1e-2):
        b = (us[:, None, None] + 1j * eps) * np.eye(prob.base_dim)
        picard = solve_omega_stack(prob, b, PICARD)
        anderson = solve_omega_stack(prob, b, PICARD, anderson=True)
        assert picard.converged.all() and anderson.converged.all()
        assert np.max(np.abs(anderson.value - picard.value)) <= 1e-10
        assert anderson.iterations.sum() <= 0.4 * picard.iterations.sum()


def test_mixing_takes_the_fallback_where_it_has_no_history_or_no_admissible_candidate():
    rng = np.random.default_rng(30)
    nb, size = 6, 4

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    hist = _AndersonHistory(nb, size)
    allowed = np.ones(nb, bool)

    def admissible(w):
        assert w.shape == (nb, 2, 2)
        return allowed.copy()

    x, fallback = draw(nb, 2, 2), draw(nb, 2, 2)
    first = hist.mix(draw(nb, 2, 2), np.ones(nb), x, admissible, fallback=fallback)
    assert np.array_equal(first, fallback) and first is not fallback   # first step
    for it in range(3):
        diff, x, fallback = draw(nb, 2, 2), draw(nb, 2, 2), draw(nb, 2, 2)
        res2 = hist.res2 * 0.5
        if it == 1:
            res2[1] = hist.res2[1] * 2.0        # grew: restarts with no difference
            allowed[2] = False                  # candidate refused: clears
        else:
            allowed[:] = True
        cand = hist.mix(diff, res2, x, admissible, fallback=fallback)
        for i in range(nb):
            if it == 1 and i in (1, 2):
                assert np.array_equal(cand[i], fallback[i])
                assert not hist.df[i].any() and not hist.dp[i].any()
                continue
            # x - dX gamma, gamma the least-squares fit of f by dF
            gamma = np.linalg.lstsq(hist.df[i].T, diff[i].ravel(), rcond=None)[0]
            want = x[i].ravel() - hist.dp[i].T @ gamma
            assert np.allclose(cand[i].ravel(), want, rtol=1e-9, atol=1e-9), (it, i)
            assert not np.allclose(cand[i], fallback[i])


def test_rejected_anderson_candidates_leave_plain_damped_picard():
    prob = random_problem(np.random.default_rng(3), n=2)
    b = (np.linspace(-2.0, 2.0, 9)[:, None, None] + 2e-2j) * np.eye(2)
    step = _omega_step(prob, b, 1)
    runs = []
    for anderson in (False, True):   # Picard with no derivative never calls admissible
        iterates = []

        def recorded(w, idx):
            iterates.append(w.copy())
            return step(w, idx)

        out = _picard_stack(recorded, b, PICARD, admissible=lambda w: np.zeros(len(w), bool),
                            anderson=anderson)
        runs.append((out, iterates))
    (picard, seen), (anderson, seen_anderson) = runs
    assert picard.converged.all()
    assert np.array_equal(anderson.iterations, picard.iterations)
    assert np.array_equal(anderson.value, picard.value)
    assert len(seen_anderson) == len(seen)
    assert all(np.array_equal(x, y) for x, y in zip(seen, seen_anderson))


def test_anderson_restarts_when_the_residual_grows():
    # on this point the mixed iterates drift towards the boundary of the
    # half-plane with a growing residual; without the restart the solve took
    # 13 682 steps (Picard with the Newton switch: 56)
    rng = np.random.default_rng([5, 9])
    random_model(rng, 1, 3)
    prob = _power_problem(rng, 2)
    b = (0.15 + 1e-3j) * np.eye(2)[None]
    picard = solve_omega_stack(prob, b, PICARD)
    anderson = solve_omega_stack(prob, b, PICARD, anderson=True)
    assert anderson.converged[0] and anderson.iterations[0] <= 60
    assert np.max(np.abs(anderson.value - picard.value)) <= 1e-10


class _Recording:
    """A source that records the anderson argument of each cauchy_stack call."""

    def __init__(self, source):
        self.source, self.base_dim, self.anderson = source, source.base_dim, []

    def cauchy_stack(self, b_stack, level=1, cfg=None, anderson=False):
        self.anderson.append(anderson)
        return self.source.cauchy_stack(b_stack, level, cfg, anderson)


def test_density_sheets_mix_and_match_picard():
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    us = np.linspace(-2.5, 2.5, 301)
    eps = (2e-3, 1e-3)
    source = _Recording(prob)
    grid = density_grid(source, us, eps)
    assert source.anderson == [True, True] and not grid.failures
    for l, e in enumerate(eps):
        solve = prob.cauchy_stack((us[:, None, None] + 1j * e), 1, DENSITY_CONFIG)
        assert solve.converged.all()
        assert np.max(np.abs(grid.raw[:, l] + solve.value[:, 0, 0].imag / np.pi)) <= 1e-10
    interior = np.abs(np.abs(us) - 2.0) > 0.1
    assert np.max(np.abs(grid.density - semicircle_density(us))[interior]) <= 1e-3


def _exact_ridge_solution(df: np.ndarray, f: complex) -> list[complex]:
    """gamma of the ridge normal equations (dF* dF + r) gamma = dF* f of one
    entry with a one-coordinate residual, r = 1e-13 trace(dF* dF) + tiny,
    solved in exact rational arithmetic as a real 2 ANDERSON_DEPTH system."""
    x = [Fraction(float(v.real)) for v in df]
    y = [Fraction(float(v.imag)) for v in df]
    fx, fy = Fraction(float(f.real)), Fraction(float(f.imag))
    k = len(df)
    ridge = Fraction(1e-13) * sum(a * a + b * b for a, b in zip(x, y)) \
        + Fraction(np.finfo(float).tiny)
    gr = [[x[i] * x[j] + y[i] * y[j] + (ridge if i == j else 0) for j in range(k)]
          for i in range(k)]
    gi = [[x[i] * y[j] - y[i] * x[j] for j in range(k)] for i in range(k)]
    rows = [gr[i] + [-v for v in gi[i]] + [x[i] * fx + y[i] * fy] for i in range(k)]
    rows += [gi[i] + gr[i] + [x[i] * fy - y[i] * fx] for i in range(k)]
    for c in range(2 * k):          # Gauss-Jordan; the system is positive definite
        rows[c] = [v / rows[c][c] for v in rows[c]]
        for r in range(2 * k):
            if r != c and rows[r][c]:
                rows[r] = [a - rows[r][c] * b for a, b in zip(rows[r], rows[c])]
    return [complex(float(rows[i][-1]), float(rows[k + i][-1])) for i in range(k)]


def test_one_coordinate_mixing_is_the_ridge_solution_in_closed_form():
    # at d = 1 the mixing takes gamma = conj(dF) f / ((1 + 1e-13) ||dF||^2 + tiny)
    # in place of a batched 3 x 3 solve; against the exact solution of the
    # normal equations on random histories with unused slots (never
    # written), entries cleared before this step and entries whose residual
    # grew, which the step clears itself
    rng = np.random.default_rng(2024)
    nb = 8

    def draw(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    hist = _AndersonHistory(nb, 1)
    hist.df[:], hist.dp[:] = draw(nb, ANDERSON_DEPTH, 1), draw(nb, ANDERSON_DEPTH, 1)
    hist.df[:3, 2] = hist.dp[:3, 2] = 0.0       # a slot not written yet
    hist.df[3:5] = hist.dp[3:5] = 0.0           # cleared earlier
    hist.f, hist.p, hist.res2 = draw(nb, 1), draw(nb, 1), np.full(nb, 2.0)
    hist.f[4] = 0.3 + 0.1j                      # so its new slot is zero too
    diff, p = draw(nb, 1, 1), draw(nb, 1, 1)
    diff[4, 0, 0] = 0.3 + 0.1j
    res2 = np.ones(nb)
    res2[5:7] = 3.0                             # grew: cleared by this step
    cand = hist.mix(diff, res2, p, lambda w: np.ones(len(w), bool))
    assert np.all(np.isfinite(cand))
    for i in range(nb):
        gamma = _exact_ridge_solution(hist.df[i, :, 0], diff[i, 0, 0])
        want = p[i, 0, 0] - sum(g * d for g, d in zip(gamma, hist.dp[i, :, 0]))
        scale = abs(p[i, 0, 0]) + sum(abs(g * d) for g, d in zip(gamma, hist.dp[i, :, 0]))
        assert abs(cand[i, 0, 0] - want) <= 1e-14 * scale, i
    assert np.array_equal(cand[4:7], p[4:7])    # empty histories give gamma = 0
