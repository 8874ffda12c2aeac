"""g_q, its derivatives and Phi_q through the problem's own h.

(X - u + iv) v^{-1} (X - u - iv) = (X - u) v^{-1} (X - u) + v, so
eta[((X - u) v^{-1} (X - u) + v)^{-1}] = (h(u + iv) - h(u - iv))/2i, which is
Im h(u + iv) for selfadjoint u and v.  The oracle inverts
(X - u) v^{-1} (X - u) + v as a dense ambient matrix written out with
np.kron, so the library is never checked against itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import freeconv.subordination as subordination
from freeconv import (CPMap, OperatorModel, ScalarMeasure, SolverConfig, SubordinationProblem,
                      phi_q, scalar_to_model, solve_vq)
from freeconv.algebra import (BlockUpper, dense, identity_kron, imag_part, split, unvec,
                              upper_block, vec)
from freeconv.subordination import _gq_jacobians, _newton_budget, g_q, solve_gq_stack
from freeconv.transforms import semicircle_problem

from helpers import random_hermitian, random_power_problem, random_problem, random_psd
from test_block_rule import _record


def _oracle(prob, q, u, v):
    """q + eta[((X - u) v^{-1} (X - u) + v)^{-1}] at one dense point of M_k(B),
    with 1_k otimes X, x otimes 1_m and 1_k otimes K_j written out."""
    n, m = prob.model.base_dim, prob.model.factor_dim
    k = u.shape[-1] // n
    Y = np.kron(np.eye(k), prob.model.X) - np.kron(u, np.eye(m))
    inner = Y @ np.kron(np.linalg.inv(v), np.eye(m)) @ Y + np.kron(v, np.eye(m))
    R = np.linalg.inv(inner)
    out = q + 0
    for K in prob.eta.kraus:
        A = np.kron(np.eye(k), K)
        out = out + A @ R @ A.conj().T
    return out


def _close(got, want, tol=1e-10):
    assert np.max(np.abs(got - want)) <= tol * (1.0 + np.max(np.abs(want)))


def _data(n, m, seed):
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, n=n, m=m)
    q = 0.1 * np.eye(n) + random_psd(rng, n, scale=0.3)
    return rng, prob, q


def _positive(rng, n):
    return 0.05 * np.eye(n) + random_psd(rng, n)


def _complex(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


@settings(max_examples=20, deadline=None, database=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_gq_is_q_plus_im_h_at_selfadjoint_points(n, m, seed):
    rng, prob, q = _data(n, m, seed)
    u, v = random_hermitian(rng, n), _positive(rng, n)
    want = _oracle(prob, q, u, v)
    _close(imag_part(prob.h_map(u + 1j * v)), want - q)
    _close(g_q(prob, q, u, v), want)


@pytest.mark.parametrize("kind", ["general", "adjoint diagonals"])
@settings(max_examples=15, deadline=None, database=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_gq_matches_the_oracle_at_block_points(kind, n, m, seed):
    # general: [[u1, c], [0, u2]] with any corner, where g_q takes h at u + iv
    # and u - iv; adjoint diagonals: [[a, c], [0, a*]] with c selfadjoint,
    # where dag(u) = u (algebra.dag) and one h_map call serves
    rng, prob, q = _data(n, m, seed)
    if kind == "general":
        u = upper_block(random_hermitian(rng, n), _complex(rng, n), random_hermitian(rng, n))
        v = upper_block(_positive(rng, n), _complex(rng, n, 0.3), _positive(rng, n))
    else:
        a = random_hermitian(rng, n) + 0.3j * random_hermitian(rng, n)
        c = _complex(rng, n)
        b = np.eye(n) + 0.3 * c / np.linalg.norm(c, 2)
        u = upper_block(a, random_hermitian(rng, n), a.conj().T)
        v = upper_block(b, random_hermitian(rng, n, 0.3), b.conj().T)
    q2 = identity_kron(2, q)
    want = _oracle(prob, q2, u, v)
    _close(g_q(prob, q2, u, v, 2), want)
    blocks = g_q(prob, q2, split(u, 2), split(v, 2), 2)
    assert isinstance(blocks, BlockUpper)
    _close(dense(blocks), want)


@pytest.mark.parametrize("kind", ["selfadjoint", "general"])
@settings(max_examples=15, deadline=None, database=None)
@given(n=st.integers(1, 3), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_gq_jacobians_are_divided_differences_of_the_oracle(kind, n, m, seed):
    # D_v g_q = (J + P conj(J) P)/2 and D_u g_q = Im J at selfadjoint points,
    # (Dh(u + iv) +- Dh(u - iv)) at others; the oracle's derivative in a
    # direction c is the corner of its value at [[x, c], [0, x]]
    rng, prob, q = _data(n, m, seed)
    u, v = random_hermitian(rng, n), _positive(rng, n)
    if kind == "general":
        u = u + 0.02j * random_hermitian(rng, n)
    dv, du = (J[0] for J in _gq_jacobians(prob, u[None], v[None], 1))
    q2, u2, v2 = (identity_kron(2, x) for x in (q, u, v))
    for _ in range(2):
        c = _complex(rng, n)
        along_v = _oracle(prob, q2, u2, upper_block(v, c, v))[:n, n:]
        along_u = _oracle(prob, q2, upper_block(u, c, u), v2)[:n, n:]
        _close(unvec(dv @ vec(c), n), along_v)
        _close(unvec(du @ vec(c), n), along_u)


@pytest.mark.parametrize("case", ["48 atoms", "point mass, Newton steps"])
def test_scalar_base_vq_and_phi_q_invert_no_matrix(case, monkeypatch):
    if case == "48 atoms":
        model = OperatorModel.partial_trace(np.diag(np.linspace(-1.5, 1.5, 48)) + 0j, 1)
        q, u = 1e-2, 0.1
    else:
        # undamped Picard oscillates here, so the solve takes Newton steps
        model, q, u = scalar_to_model(ScalarMeasure.point(0.0)), 1e-2, 0.0
    prob = semicircle_problem(model, CPMap.scaled_identity(1.0, 1))
    calls = _record(monkeypatch, np.linalg, "inv")
    rep = solve_vq(prob, np.array([[q]]), np.array([[u]]))
    assert rep.converged
    if case != "48 atoms":
        assert rep.iterations > 54
    phi_q(prob, np.array([[q]]), np.array([[u]]))
    assert calls == []


def test_vq_solve_tests_selfadjointness_once_not_at_every_step(monkeypatch):
    # q, u and the start decide once per solve whether h(u - iv) is taken
    # as dag(h(u + iv)); the count of tests does not grow with the steps,
    # Picard or Newton, and a Picard step then calls h_map once
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    calls = _record(monkeypatch, subordination, "_selfadjoint")
    h_calls = _record(monkeypatch, SubordinationProblem, "h_map")
    seen = []
    for q in (3.0, 1.0, 1e-2):
        calls.clear()
        h_calls.clear()
        rep = solve_vq(prob, np.array([[q]]), np.array([[0.3]]))
        assert rep.converged
        if rep.iterations <= _newton_budget(1):
            assert len(h_calls) == rep.iterations
        seen.append((rep.iterations, len(calls)))
    steps = [it for it, _ in seen]
    assert len(set(steps)) == len(steps) and max(steps) > _newton_budget(1)
    assert len({count for _, count in seen}) == 1, seen


def test_each_entry_of_a_stack_is_tested_for_selfadjointness():
    # a large selfadjoint u entry must not let a small non-selfadjoint one
    # pass a test taken on the norms of the whole stack
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    q = np.full((2, 1, 1), 0.5 + 0j)
    u = np.array([[[1e10]], [[0.3 + 0.2j]]])
    v = np.ones((2, 1, 1), dtype=complex)
    _close(g_q(prob, q, u, v)[1], g_q(prob, q[1:], u[1:], v[1:])[0], 1e-14)
    stacked, alone = solve_gq_stack(prob, q, u), solve_gq_stack(prob, q[1:], u[1:])
    assert stacked.converged.all() and alone.converged.all()
    _close(stacked.value[1], alone.value[0], 1e-12)


@pytest.mark.parametrize("make", [
    lambda: random_problem(np.random.default_rng(3), n=2, m=2),
    lambda: random_power_problem(np.random.default_rng(1), 2, 3),
    lambda: random_problem(np.random.default_rng(5), n=3, m=2),
    lambda: random_power_problem(np.random.default_rng(2), 3, 2),
], ids=["generic M_2", "power M_2", "generic M_3", "power M_3"])
@pytest.mark.parametrize("q", [1e-3, 1e-6, 1e-9, 1e-12])
def test_damped_vq_solves_near_the_edge_keep_their_iterates_selfadjoint(make, q):
    # 60 points u of growing norm reach the edge of the support; a Newton
    # candidate is selfadjoint only up to rounding, and without taking its
    # selfadjoint part the mirrored steps blew that defect up until solves
    # ran out of steps with v not positive (at 1e-3 up to 20 000 steps)
    prob = make()
    n = prob.base_dim
    rng = np.random.default_rng(0)
    u = np.stack([random_hermitian(rng, n, scale=s) for s in np.linspace(0.2, 4, 60)])
    v, iterations, _, converged = solve_gq_stack(
        prob, np.broadcast_to(q * np.eye(n), u.shape), u, SolverConfig(damping=0.5, max_iter=400))
    assert converged.all() and iterations.max() <= 80, np.flatnonzero(~converged)
    assert np.array_equal(v, np.conj(np.swapaxes(v, -1, -2)))
    assert np.all(np.linalg.eigvalsh(v)[:, 0] > 0)
