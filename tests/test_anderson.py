"""Anderson mixing in the shared fixed-point driver (anderson=True)."""

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
from freeconv.subordination import _omega_step, _picard_stack
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
