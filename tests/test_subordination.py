import numpy as np
import pytest

from freeconv import (
    CPMap,
    OperatorModel,
    ScalarMeasure,
    SolverConfig,
    SubordinationProblem,
    phi_q,
    residual_h,
    scalar_to_model,
    solve_omega,
    solve_omega_alpha,
    solve_omega_stack,
    solve_vq,
)
from freeconv.algebra import imag_part, opnorm, real_part, unvec, vec
from freeconv.subordination import _omega_derivative, _picard_stack
from freeconv.transforms import ConvolutionPower, semicircle_problem

from _oracles import arcsine2_g, point_gamma_omega, point_vq_at_zero, semicircle_g
from helpers import random_hermitian, random_model, random_problem, random_upper


def point_gamma_problem(t: float = 1.0):
    model = scalar_to_model(ScalarMeasure.point(0.0))
    return semicircle_problem(model, CPMap.scaled_identity(t, 1))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.0)


def test_omega_point_mass_plus_semicircle_closed_form():
    prob = point_gamma_problem()
    for z in (2j, 3j, 1.0 + 1.5j, -0.7 + 0.4j):
        rep = solve_omega(prob, np.array([[z]]))
        assert rep.converged
        assert abs(rep.value[0, 0] - point_gamma_omega(z)) < 5e-12
    # the classic value at 2i
    rep = solve_omega(prob, np.array([[2j]]))
    assert abs(rep.value[0, 0] - 1j * (1 + np.sqrt(2))) < 5e-12


def test_residual_h_vanishes_at_solution_only():
    prob = point_gamma_problem()
    b = np.array([[2j]])
    rep = solve_omega(prob, b)
    assert residual_h(prob, rep.value, b) <= 1e-11
    assert residual_h(prob, rep.value + 0.01 * 1j, b) > 1e-4


def test_solve_omega_validates_domain():
    prob = point_gamma_problem()
    with pytest.raises(ValueError, match="half-plane"):
        solve_omega(prob, np.array([[1.0 + 0j]]))
    with pytest.raises(ValueError, match="half-plane"):
        solve_omega(prob, np.array([[-2j]]))


def test_fixed_point_independent_of_damping_and_start():
    rng = np.random.default_rng(10)
    prob = random_problem(rng, n=2, m=2)
    b = random_upper(rng, 2)
    w0 = solve_omega(prob, b, SolverConfig(damping=0.0)).value
    w5 = solve_omega(prob, b, SolverConfig(damping=0.5)).value
    warm = solve_omega(prob, b, SolverConfig(start=w0 + 1e-3)).value
    assert opnorm(w0 - w5) < 1e-10
    assert opnorm(w0 - warm) < 1e-10


def test_imaginary_part_grows_under_subordination():
    rng = np.random.default_rng(11)
    for _ in range(8):
        prob = random_problem(rng)
        n = prob.model.base_dim
        b = random_upper(rng, n)
        w = solve_omega(prob, b).value
        gap = imag_part(w) - imag_part(b)
        assert np.linalg.eigvalsh(gap)[0] >= -1e-11


def test_level_consistency_of_subordination():
    rng = np.random.default_rng(12)
    prob = random_problem(rng, n=2, m=2)
    b = random_upper(rng, 2)
    w1 = solve_omega(prob, b).value
    w2 = solve_omega(prob, np.kron(np.eye(2), b)).value
    assert opnorm(w2 - np.kron(np.eye(2), w1)) < 1e-10


def test_stack_solve_matches_single_solves():
    rng = np.random.default_rng(13)
    prob = random_problem(rng, n=2, m=3)
    bs = np.stack([random_upper(rng, 2) for _ in range(4)])
    w, iters, res, ok = solve_omega_stack(prob, bs)
    assert ok.all() and (res <= 1e-12).all()
    for k in range(4):
        single = solve_omega(prob, bs[k])
        assert opnorm(w[k] - single.value) < 1e-10


def test_non_convergence_is_reported_not_raised():
    prob = point_gamma_problem()
    rep = solve_omega(prob, np.array([[2j]]), SolverConfig(max_iter=2))
    assert not rep.converged
    assert rep.iterations == 2
    assert np.isfinite(rep.residual)


def _edge_cases():
    """(problem, b, closed-form omega, closed-form G) at the edge of the
    spectrum, b = alpha + i y v, for three problems with known transforms."""
    c = 0.3
    point = semicircle_problem(scalar_to_model(ScalarMeasure.point(c)),
                               CPMap.scaled_identity(1.0, 1))
    # alpha = 2: omega + 1/omega = z, the same quadratic as the point mass
    bern = ConvolutionPower(scalar_to_model(ScalarMeasure.symmetric_bernoulli()),
                            CPMap.scaled_identity(2.0, 1)).problem()
    # c 1_2 plus the M_2 semicircle with covariance Id is diagonal along a
    # diagonal approach: each entry is a shifted point-mass problem
    m2 = semicircle_problem(OperatorModel.partial_trace(c * np.eye(2), 2),
                            CPMap.scaled_identity(1.0, 2))
    v = np.array([1.0, 0.5])
    for y in (1e-2, 1e-4, 1e-6):
        z = c + 2.0 + 1j * y
        yield point, np.array([[z]]), point_gamma_omega(z - c) + c, semicircle_g(z - c)
        z = 2.0 + 1j * y
        yield bern, np.array([[z]]), point_gamma_omega(z), arcsine2_g(z)
        z = c + 2.0 + 1j * y * v
        yield m2, np.diag(z), np.diag(point_gamma_omega(z - c) + c), np.diag(semicircle_g(z - c))


@pytest.mark.parametrize("damping", [0.0, 0.5])
def test_cold_solves_at_the_spectral_edge_match_closed_forms(damping):
    for prob, b, omega, g in _edge_cases():
        rep = solve_omega(prob, b, SolverConfig(damping=damping))
        assert rep.converged and rep.iterations <= 400
        assert np.max(np.abs(rep.value - omega)) <= 1e-10
        G = prob.model.cauchy(rep.value)
        assert np.max(np.abs(G - g)) <= 1e-7 * np.max(np.abs(g))


def test_fast_solves_take_only_picard_steps():
    # at Im b = 0.5 every entry converges before its Newton budget (438
    # steps at d = 3), so the driver is plain Picard; a strong eta makes
    # them take 41-64 steps
    rng = np.random.default_rng(18)
    prob = random_problem(rng, n=3, m=2, strength=8.0)
    bs = np.stack([random_hermitian(rng, 3) + 0.5j * np.eye(3) for _ in range(3)])
    w, iters, _, ok = solve_omega_stack(prob, bs)
    assert ok.all()
    for k, b in enumerate(bs):
        x = b.copy()
        for it in range(1, 439):
            fx = b + prob.shift() + prob.h_map(x[None])[0]
            if np.linalg.norm(fx - x) <= 1e-12:
                break
            x = fx
        assert it < 438 and iters[k] == it
        assert np.max(np.abs(w[k] - x)) <= 1e-14


def test_omega_derivative_matches_difference_quotients():
    rng = np.random.default_rng(19)
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    cases = [
        (random_problem(rng, n=2, m=2), 1),
        (SubordinationProblem.power(random_model(rng, 2, 2), CPMap.scaled_identity(2.0, 2)), 1),
        (random_problem(rng, n=1, m=3), 2),
        (SubordinationProblem.power(bern, CPMap.scaled_identity(1.5, 1)), 2),
    ]
    t = 1e-5
    for prob, level in cases:
        d = prob.base_dim * level
        w = random_upper(rng, d)
        J = _omega_derivative(prob, level)(w[None], np.arange(1))[0]
        for _ in range(3):
            c = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            quotient = (prob.h_map(w + t * c, level) - prob.h_map(w - t * c, level)) / (2 * t)
            assert opnorm(unvec(J @ vec(c), d) - quotient) <= 1e-7 * (1 + opnorm(quotient))


def test_newton_safeguard_falls_back_to_damped_picard():
    # point mass at 0 plus the semicircle near its edge: Picard takes 346
    # steps, past the Newton budget of 54 at d = 1
    b = np.array([[[2.0 + 1e-2j]]])

    def step(w, idx):
        return b[idx] - 1.0 / w

    cfg = SolverConfig(damping=0.5)
    picard = _picard_stack(step, b, cfg)
    assert picard[3][0] and picard[1][0] > 54

    def singular(w, idx):
        return np.ones((len(w), 1, 1))

    def to_lower_halfplane(w, idx):   # Newton candidate conj(w)
        return 1.0 - (step(w, idx) - w) / (w.conj() - w)

    for derivative in (singular, to_lower_halfplane):
        out = _picard_stack(step, b, cfg, derivative)
        assert out[1][0] == picard[1][0]
        assert np.array_equal(out[0], picard[0])

    calls = []

    def upward(w, idx):   # Newton candidate w + 10i: in the half-plane, larger residual
        calls.append(len(w))
        return 1.0 - (step(w, idx) - w) / 10j

    out = _picard_stack(step, b, SolverConfig(damping=0.5, max_iter=60), upward)
    assert not out[3][0]
    assert len(calls) == 3   # Newton at steps 55, 57 and 59, Picard after each


def test_power_variant_validation():
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    with pytest.raises(ValueError, match="completely positive"):
        SubordinationProblem.power(model, CPMap.scaled_identity(0.5, 1))
    with pytest.raises(ValueError):
        SubordinationProblem(model=model, alpha=CPMap.scaled_identity(2.0, 1),
                             eta=CPMap.scaled_identity(1.0, 2), variant="power")
    with pytest.raises(ValueError, match="eta map"):
        SubordinationProblem(model=model, variant="generic")


def test_power_fixed_point_bernoulli_alpha_two():
    # for the symmetric Bernoulli law h(w) = -1/w, so the alpha = 2 equation
    # is w = b - 1/w with solution w = (b + sqrt(b^2 - 4))/2
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    rep = solve_omega_alpha(model, CPMap.scaled_identity(2.0, 1), np.array([[1j]]))
    assert rep.converged
    expected = 1j * (1 + np.sqrt(5)) / 2
    assert abs(rep.value[0, 0] - expected) < 5e-12


def test_power_h_map_matches_hand_value():
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    prob = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    h = prob.h_map(np.array([[1j]]), 1)
    assert abs(h[0, 0] - 1j) < 1e-13  # (alpha - Id) h = h = -1/i = i


def test_vq_scalar_closed_form_and_positivity():
    prob = point_gamma_problem()
    rep = solve_vq(prob, np.array([[0.1]]), np.array([[0.0]]))
    assert rep.converged
    assert abs(rep.value[0, 0] - point_vq_at_zero(0.1)) < 1e-11
    rng = np.random.default_rng(14)
    for _ in range(5):
        gen = random_problem(rng, n=2, m=2)
        q = 0.05 + 0.5 * rng.random()
        u = random_hermitian(rng, 2)
        rep = solve_vq(gen, q * np.eye(2), u)
        assert rep.converged
        assert np.linalg.eigvalsh(real_part(rep.value))[0] > 0


def test_vq_validation():
    prob = point_gamma_problem()
    with pytest.raises(ValueError, match="strictly positive"):
        solve_vq(prob, np.array([[-0.1]]), np.array([[0.0]]))
    with pytest.raises(ValueError, match="matching shapes"):
        solve_vq(prob, np.array([[0.1]]), np.zeros((2, 2)))
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    power = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    with pytest.raises(ValueError, match="generic-variant"):
        solve_vq(power, np.array([[0.1]]), np.array([[0.0]]))
    with pytest.raises(ValueError, match="generic-variant"):
        phi_q(power, np.array([[0.1]]), np.array([[0.0]]))


def test_graph_property_links_vq_to_omega():
    rng = np.random.default_rng(15)
    for _ in range(10):
        prob = random_problem(rng)
        n = prob.model.base_dim
        q = 0.05 + rng.random()
        r = random_hermitian(rng, n, scale=0.6)
        w = solve_omega(prob, r + 1j * q * np.eye(n)).value
        v = solve_vq(prob, q * np.eye(n), real_part(w)).value
        assert opnorm(v - imag_part(w)) < 1e-9


def test_phi_q_inverts_the_boundary_curve():
    rng = np.random.default_rng(16)
    for _ in range(10):
        prob = random_problem(rng, n=int(rng.integers(1, 3)))
        n = prob.model.base_dim
        q = 0.05 + rng.random()
        r = random_hermitian(rng, n, scale=0.6)
        w = solve_omega(prob, r + 1j * q * np.eye(n)).value
        back = phi_q(prob, q * np.eye(n), real_part(w))
        assert opnorm(back - r) < 1e-9
