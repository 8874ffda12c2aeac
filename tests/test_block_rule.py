"""One rule for block upper triangular points.

A map given a BlockUpper computes on the blocks and returns a BlockUpper; a
map given an array computes on the array and returns an array.  The dense
solver splits its amplified iterates before each map call, so every map
call of an amplified solve sees the blocks.
"""

import numpy as np
import pytest

import freeconv.subordination as subordination
from freeconv import CPMap, ScalarMeasure, SubordinationProblem, scalar_to_model
from freeconv.algebra import BlockUpper, dense, identity_kron, split, upper_block
from freeconv.subordination import _omega_derivative, solve_gq_stack, solve_omega_stack
from freeconv.transforms import semicircle_problem

from helpers import random_hermitian, random_problem, random_psd, random_upper

STACK = 3


def _record(monkeypatch, owner, name):
    """Wrap owner.name so that every call's positional arguments are kept."""
    calls = []
    original = getattr(owner, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recording)
    return calls


def _amplified(rng, draw, n, scale=1.0):
    """A stack of dense level-2 points [[x1, scale c], [0, x2]]."""
    return np.stack([upper_block(draw(), scale * rng.standard_normal((n, n)) + 0j, draw())
                     for _ in range(STACK)])


@pytest.mark.parametrize("case", ["generic n=2", "power n=2", "scalar edge"])
def test_amplified_omega_solve_calls_h_map_with_blocks(case, monkeypatch):
    rng = np.random.default_rng(11)
    if case == "scalar edge":
        # near the edge Picard stalls, so the solve also takes Newton steps,
        # whose derivative calls h_map at level 4; the corner is scaled with
        # the height to keep the point in the half-plane
        prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                                  CPMap.scaled_identity(1.0, 1))
        points = _amplified(rng, lambda: np.array([[2.0 + 1e-6j]]), 1, scale=1e-6)
    else:
        prob = random_problem(rng, n=2, m=3)
        if case.startswith("power"):
            K = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            prob = SubordinationProblem.power(prob.model, CPMap.from_kraus([np.eye(2), 0.5 * K]))
        points = _amplified(rng, lambda: random_upper(rng, 2), 2)
    calls = _record(monkeypatch, SubordinationProblem, "h_map")
    solved = solve_omega_stack(prob, points, level=2)
    assert solved.converged.all()
    assert calls and all(isinstance(args[1], BlockUpper) for args in calls)
    levels = {args[2] for args in calls}
    assert levels == ({2, 4} if case == "scalar edge" else {2})


def test_amplified_vq_solve_calls_g_q_with_blocks(monkeypatch):
    rng = np.random.default_rng(12)
    prob = random_problem(rng, n=2, m=3)
    q = np.stack([identity_kron(2, 0.1 * np.eye(2) + random_psd(rng, 2))
                  for _ in range(STACK)])
    u = _amplified(rng, lambda: random_hermitian(rng, 2), 2)
    calls = _record(monkeypatch, SubordinationProblem, "h_map")
    solved = solve_gq_stack(prob, q, u, level=2)
    assert solved.converged.all()
    assert calls
    for _, w_arg, level in calls:
        assert isinstance(w_arg, BlockUpper)
        assert level == 2


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("kind", ["h generic", "h power", "cauchy", "g_q"])
def test_dense_points_give_arrays_equal_to_the_blockwise_value(kind, n):
    rng = np.random.default_rng(13 + n)
    prob = random_problem(rng, n=n, m=3)
    w = _amplified(rng, lambda: random_upper(rng, n), n)
    if kind == "h generic":
        def fmap(x):
            return prob.h_map(x, 2)
    elif kind == "h power":
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        power = SubordinationProblem.power(prob.model, CPMap.from_kraus([np.eye(n), 0.5 * K]))

        def fmap(x):
            return power.h_map(x, 2)
    elif kind == "cauchy":
        def fmap(x):
            return prob.model.cauchy(x, 2)
    else:
        q = identity_kron(2, 0.1 * np.eye(n) + random_psd(rng, n))
        u = _amplified(rng, lambda: random_hermitian(rng, n), n)

        def fmap(x):
            return subordination.g_q(prob, q, split(u, 2) if isinstance(x, BlockUpper) else u,
                                     x, 2)

        w = _amplified(rng, lambda: np.eye(n) + random_psd(rng, n), n)
    got = fmap(w)
    blockwise = fmap(split(w, 2))
    assert isinstance(got, np.ndarray) and not isinstance(got, BlockUpper)
    assert isinstance(blockwise, BlockUpper)
    want = dense(blockwise)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_scalar_base_derivative_inverts_no_dense_block(monkeypatch):
    bernoulli = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    generic = semicircle_problem(bernoulli, CPMap.scaled_identity(1.0, 1))
    power = SubordinationProblem.power(bernoulli, CPMap.scaled_identity(2.0, 1))
    w = np.array([0.3 + 0.5j, -1.2 + 0.1j, 2.0 + 1e-3j])[:, None, None]
    shapes = []
    original = np.linalg.inv

    def counting(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    J = _omega_derivative(generic, 1)(w, np.arange(len(w)))
    assert shapes == []
    # h(w) = -sum_j c_j (w - lambda_j)^{-1}, so h'(w) = sum_j c_j (w - lambda_j)^{-2}
    lam = bernoulli.spectrum[0]
    want = (generic._eta_weights / (w[:, :, 0] - lam) ** 2).sum(axis=-1)
    assert np.max(np.abs(J[:, 0, 0] - want)) <= 1e-12 * np.max(np.abs(want))

    _omega_derivative(power, 1)(w, np.arange(len(w)))
    assert shapes == []


def test_scalar_power_solve_inverts_by_division(monkeypatch):
    bernoulli = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    power = SubordinationProblem.power(bernoulli, CPMap.scaled_identity(2.0, 1))
    # Picard steps only: a Newton derivative inverts its 1 x 1 blocks with
    # np.linalg.inv (see test_scalar_base_derivative_inverts_no_dense_block)
    b = np.array([0.5 + 1j, -1.2 + 0.5j, 3.0 + 0.2j])[:, None, None]
    calls = _record(monkeypatch, np.linalg, "inv")
    solved = solve_omega_stack(power, b)
    assert solved.converged.all()
    assert solved.iterations.max() <= subordination._newton_budget(1)
    assert calls == []


@pytest.mark.parametrize("solve", ["omega", "v_q"])
def test_newton_steps_of_an_amplified_solve_keep_the_block_form(solve, monkeypatch):
    # point mass at 0 plus the semicircle, with corners large against the
    # diagonal: both solves take Newton steps, whose dense d^2 x d^2 systems
    # leave about 1e-31 in the lower-left block unless it is set to zero
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    if solve == "omega":
        z = np.array([[2.0 + 1e-6j]])
        points = np.stack([upper_block(z, np.array([[c]]), z) for c in (1.0, -1.0, 1j)])
        calls = _record(monkeypatch, SubordinationProblem, "h_map")
        solved = solve_omega_stack(prob, points, level=2)
        args = [x for _, x, level in calls if level == 2]
    else:
        q, u = np.array([[1e-2]]), np.array([[0.1]])
        points = np.stack([upper_block(u, np.array([[c]]), u) for c in (100.0, -100.0)])
        calls = _record(monkeypatch, SubordinationProblem, "h_map")
        solved = solve_gq_stack(prob, np.stack([identity_kron(2, q)] * 2), points, level=2)
        args = [x for _, x, level in calls if level == 2]
    assert solved.converged.all()
    assert solved.iterations.max() > subordination._newton_budget(2)
    assert args and all(isinstance(x, BlockUpper) for x in args)
    assert np.all(solved.value[:, 1, 0] == 0)
