"""Certificates solve their independent points as one stack.

nc_function_axioms_check solves omega at [a, b] and at
[a + b, T^{-1}(a + b)T] and delta_omega_spectrum its two reference points,
each as one stacked call, and vq_derivative v_q at u alone.  Every entry
of a stack takes the steps of its one-point solve, so the results agree with
one-point solves to rounding.  Block upper triangular stacks are solved on
their own domain: the Newton safeguard tests the diagonal blocks, not the
whole point, so a large corner does not stall the solve.
"""

import numpy as np
import pytest

import freeconv.diagnostics as diagnostics
from freeconv import (
    CPMap,
    ScalarMeasure,
    SolverConfig,
    delta_omega,
    delta_omega_spectrum,
    nc_function_axioms_check,
    scalar_to_model,
    solve_omega,
    solve_omega_stack,
    solve_vq,
    vq_derivative,
)
from freeconv.algebra import direct_sum, upper_block
from freeconv.subordination import solve_gq_stack
from freeconv.transforms import semicircle_problem

from helpers import random_hermitian, random_problem, random_psd, random_upper
from test_block_rule import _record


def _case(n: int):
    rng = np.random.default_rng(40 + n)
    prob = random_problem(rng, n=n, m=3)
    q = random_psd(rng, n, scale=0.3) + 0.1 * np.eye(n)
    u, c = random_hermitian(rng, n, scale=0.5), random_hermitian(rng, n)
    a = 0.3 * random_hermitian(rng, n) + 2.0j * np.eye(n)
    return prob, random_upper(rng, n), random_upper(rng, n), q, u, c, a, 0.3 * u + 2.2j * np.eye(n)


def _keep_results(monkeypatch, name):
    """Wrap diagnostics.name so that every call's result is kept."""
    results = []
    original = getattr(diagnostics, name)

    def keeping(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(diagnostics, name, keeping)
    return results


def test_each_certificate_makes_two_stacked_solves(monkeypatch):
    omega = _record(monkeypatch, diagnostics, "solve_omega_stack")
    vq = _record(monkeypatch, diagnostics, "solve_gq_stack")
    for n in (1, 2, 3):
        prob, b1, b2, q, u, c, a, b = _case(n)
        del omega[:], vq[:]
        nc_function_axioms_check(prob, a, b)
        # [a, b] at level 1, then [a + b, T^{-1}(a + b)T] at level 2
        assert [np.shape(args[1]) for args in omega] == [(2, n, n), (2, 2 * n, 2 * n)]
        assert not vq
        del omega[:]
        delta_omega_spectrum(prob, b1, b2)
        # the amplified solve in one direction, then omega(b1) and omega(b2)
        assert [np.shape(args[1]) for args in omega] == [(1, 2 * n, 2 * n), (2, n, n)]
        assert not vq
        del omega[:]
        delta_omega(prob, b1, b2, c)
        # the same two solves, the amplified one at the unit direction only
        assert [np.shape(args[1]) for args in omega] == [(1, 2 * n, 2 * n), (2, n, n)]
        assert not vq
        del omega[:]
        vq_derivative(prob, q, u, c)
        # v_q at u, then the amplified solve
        assert [np.shape(args[2]) for args in vq] == [(1, n, n), (1, 2 * n, 2 * n)]
        assert not omega


@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_certificate_solves_match_one_point_solves(n, monkeypatch):
    prob, b1, b2, q, u, c, a, b = _case(n)
    solved = _keep_results(monkeypatch, "solve_gq_stack")
    vq_derivative(prob, q, u, c)
    v = solve_vq(prob, q, u).require("v_q solve failed")
    assert np.max(np.abs(solved[0].value[0] - v)) <= 1e-12

    deviations = nc_function_axioms_check(prob, a, b)["deviations"]["omega"]
    T = np.kron(np.array([[1.0, 1.0], [0.0, 1.0]]), np.eye(n))
    Tinv = np.linalg.inv(T)
    D = direct_sum(a, b)
    wa, wb, wD, wconj = (solve_omega(prob, x).require("omega solve failed")
                         for x in (a, b, D, Tinv @ D @ T))
    assert abs(deviations["direct_sum"] - np.linalg.norm(wD - direct_sum(wa, wb), 2)) <= 1e-12
    assert abs(deviations["similarity"] - np.linalg.norm(wconj - Tinv @ wD @ T, 2)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3])
def test_delta_omega_reference_points_match_one_point_solves(n, monkeypatch):
    prob, b1, b2, *_ = _case(n)
    solved = _keep_results(monkeypatch, "solve_omega_stack")
    delta_omega_spectrum(prob, b1, b2)
    reference = solved[1].value
    for i, b in enumerate((b1, b2)):
        one = solve_omega(prob, b, SolverConfig(tol=1e-13)).require("omega solve failed")
        assert np.max(np.abs(reference[i] - one)) <= 1e-12


def test_amplified_solve_with_a_large_corner_converges_at_the_edge():
    # point mass at 0 plus the semicircle at 2 + 1e-6 i: the corner
    # omega'(z) c is about 500 |c|, far above Im omega of about 7e-4, so the
    # amplified fixed point lies outside the upper half-plane although its
    # diagonal blocks lie inside
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    z = 2.0 + 1e-6j
    corners = np.array([1.0, -1.0, 1j])
    points = np.stack([upper_block(np.array([[z]]), np.array([[cc]]), np.array([[z]]))
                       for cc in corners])
    solved = solve_omega_stack(prob, points, level=2)
    assert solved.converged.all()
    assert np.all(solved.iterations < 100)
    dw = 0.5 * (1.0 + z / np.sqrt(z * z - 4.0))
    want = corners * dw
    assert np.all(np.abs(solved.value[:, 0, 1] - want) <= 1e-9 * np.abs(want))


def test_amplified_vq_solve_with_a_large_corner_converges():
    # point mass at 0 plus the semicircle, q = 1e-2 and u = 0.1: undamped
    # Picard oscillates, so the solve takes Newton steps, and with the
    # direction 100 the corner 100 v_q'(u), about -10, leaves Re v indefinite
    # although both diagonal blocks are v_q(u), about 1
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    q, u = np.array([[1e-2]]), np.array([[0.1]])
    u2 = upper_block(u, np.array([[100.0]]), u)[None]
    solved = solve_gq_stack(prob, np.kron(np.eye(2), q)[None], u2, level=2)
    assert solved.converged.all() and solved.iterations[0] < 100
    w = solved.value[0]
    assert np.linalg.eigvalsh(0.5 * (w + w.conj().T))[0] < 0.0
    v = solve_vq(prob, q, u).require("v_q solve failed")
    assert np.max(np.abs(w[:1, :1] - v)) <= 1e-12
    slope = vq_derivative(prob, q, u, np.array([[1.0]])).value
    assert abs(w[0, 1] - 100.0 * slope[0, 0]) <= 1e-9 * abs(w[0, 1])
