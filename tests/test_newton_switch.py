"""The Newton switch of `_picard_stack`, for the omega and v_q solves.

An entry still unconverged after _newton_budget(d) Picard steps takes Newton
steps.  The budget is 6 (1 + r(d)), with r(d) the measured cost of one
Newton step in Picard steps, and the v_q solve takes the same switch with a
positive definite safeguard.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freeconv import CPMap, ScalarMeasure, SolverConfig, scalar_to_model, solve_omega, solve_vq
from freeconv.algebra import imag_part, real_part
from freeconv.subordination import (
    _newton_budget,
    _omega_derivative,
    _omega_step,
    _picard_stack,
)
from freeconv.transforms import semicircle_problem

from _oracles import point_vq_at_zero
from helpers import random_hermitian, random_power_problem, random_problem


def test_newton_budget_is_monotone_and_keeps_the_pinned_values():
    budgets = [_newton_budget(d) for d in range(1, 17)]
    assert budgets == sorted(budgets)
    assert budgets[0] == 54
    assert budgets[2] >= 65


def test_near_axis_matrix_entries_switch_to_newton_and_finish_sooner():
    rng = np.random.default_rng(0)
    prob = random_problem(rng, n=3, m=10)
    b = np.stack([random_hermitian(rng, 3, scale=1.5) + 1e-2j * np.eye(3) for _ in range(6)])
    cfg = SolverConfig(damping=0.5)
    step = _omega_step(prob, b, 1)
    plain = _picard_stack(step, b, cfg)
    calls = []
    derivative = _omega_derivative(prob, 1)

    def counting(w, idx):
        calls.append(idx)
        return derivative(w, idx)

    switched = _picard_stack(step, b, cfg, counting)
    assert plain.converged.all() and switched.converged.all()
    late = plain.iterations > _newton_budget(3)
    assert calls and late.any()
    assert np.all(switched.iterations[late] < plain.iterations[late])
    assert np.array_equal(switched.iterations[~late], plain.iterations[~late])
    assert np.max(np.abs(switched.value - plain.value)) <= 1e-10


@pytest.mark.parametrize("q", [1e-2, 1e-3, 1e-4])
def test_undamped_vq_near_the_boundary_takes_newton_steps(q):
    # v -> q + 1/v oscillates about its fixed point as q -> 0: Picard took
    # 2 303 steps at q = 1e-2 and about 183 000 at q = 1e-4
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    rep = solve_vq(prob, np.array([[q]]), np.array([[0.0]]), SolverConfig(damping=0.0))
    assert rep.converged and rep.iterations <= 100
    assert abs(rep.value[0, 0] - point_vq_at_zero(q)) <= 1e-10


@settings(max_examples=10, deadline=None, database=None)
@given(n=st.integers(1, 2), m=st.integers(1, 3), log_q=st.floats(1.0, 4.0),
       seed=st.integers(0, 2**32 - 1), power=st.booleans())
@example(n=1, m=1, log_q=3.5, seed=4, power=False)
@example(n=2, m=1, log_q=2.5, seed=4, power=False)
@example(n=2, m=2, log_q=3.5, seed=4, power=True)
def test_vq_graph_identity(n, m, log_q, seed, power):
    # Im omega(r + iq) = v_q(Re omega(r + iq)) for both variants; at small q
    # the v_q solve often passes its Newton budget
    rng = np.random.default_rng(seed)
    prob = (random_power_problem if power else random_problem)(rng, n=n, m=m)
    q = 10.0 ** -log_q * np.eye(n)
    r = random_hermitian(rng, n)
    omega = solve_omega(prob, r + 1j * q).require("omega solve did not converge")
    v = solve_vq(prob, q, real_part(omega)).require("v_q solve did not converge")
    assert np.max(np.abs(v - imag_part(omega))) <= 1e-9
