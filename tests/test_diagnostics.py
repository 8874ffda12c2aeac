import numpy as np
import pytest

from freeconv import (
    CPMap,
    ConvergenceError,
    OperatorModel,
    ScalarMeasure,
    SolverConfig,
    SubordinationProblem,
    delta_omega,
    delta_omega_spectrum,
    dvg_spectrum,
    horodisc_membership,
    jc_probe,
    nc_function_axioms_check,
    phi_q,
    scalar_to_model,
    semicircle_problem,
    solve_omega,
    solve_vq,
    vq_derivative,
)
from freeconv.algebra import opnorm
from freeconv.subordination import DEFAULT_CONFIG

from _oracles import point_dvg_eigenvalue, point_gamma_omega
from helpers import random_hermitian, random_model, random_problem, random_upper


def point_plus_semicircle(t=1.0):
    return semicircle_problem(
        scalar_to_model(ScalarMeasure.point(0.0)), CPMap.scaled_identity(t, 1)
    )


def test_delta_omega_matches_scalar_difference_quotient():
    prob = point_plus_semicircle()
    b1 = np.array([[2j]])
    b2 = np.array([[3j]])
    d = delta_omega(prob, b1, b2, np.array([[1.0]]))
    w1 = point_gamma_omega(2j)
    w2 = point_gamma_omega(3j)
    expect = (w1 - w2) / (2j - 3j)
    assert abs(d[0, 0] - expect) < 1e-10
    # frozen value for the quotient between 2i and 3i
    assert abs(d[0, 0] - 0.8885620753588999) < 1e-9


def test_delta_omega_collapses_to_derivative_on_diagonal():
    prob = point_plus_semicircle()
    b = np.array([[0.3 + 1.2j]])
    c = np.array([[1.0]])
    d = delta_omega(prob, b, b, c)
    step = 1e-6
    w_plus = solve_omega(prob, b + step * c).value
    w_minus = solve_omega(prob, b - step * c).value
    fd = (w_plus - w_minus) / (2 * step)
    assert abs(d[0, 0] - fd[0, 0]) < 1e-7


def test_delta_omega_linear_in_direction():
    rng = np.random.default_rng(7)
    prob = random_problem(rng, n=2, m=2)
    n = prob.model.base_dim
    b1 = random_upper(rng, n)
    b2 = random_upper(rng, n)
    c1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    zeta = 0.7 - 0.4j
    lhs = delta_omega(prob, b1, b2, c1 + zeta * c2)
    rhs = delta_omega(prob, b1, b2, c1) + zeta * delta_omega(prob, b1, b2, c2)
    assert np.max(np.abs(lhs - rhs)) < 1e-8
    # homogeneity exercises a second rescaling of the off-diagonal block
    double = delta_omega(prob, b1, b2, 2.0 * c1)
    assert np.max(np.abs(double - 2.0 * delta_omega(prob, b1, b2, c1))) < 1e-8


def test_delta_omega_rejects_points_outside_domain():
    prob = point_plus_semicircle()
    good = np.array([[1j]])
    bad = np.array([[1.0 - 1j]])
    with pytest.raises(ValueError):
        delta_omega(prob, bad, good, np.array([[1.0]]))
    with pytest.raises(ValueError):
        delta_omega(prob, good, bad, np.array([[1.0]]))


def test_amplified_points_are_checked_as_one_stack(monkeypatch):
    # a direction scaled past the half-plane is named by its index in the stack
    import freeconv.diagnostics as diagnostics

    prob = point_plus_semicircle()
    monkeypatch.setattr(diagnostics, "c_scale", lambda cs, m1, m2: np.array([1e-3, 1e3]))
    with pytest.raises(ValueError, match="amplified point 1 is not in the upper half-plane"):
        delta_omega(prob, np.array([[1j]]), np.array([[2j]]), np.array([[1.0]]))
    # margin 0 is excluded, any positive margin accepted; one eigvalsh call
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    points = np.zeros((3, 2, 2), dtype=complex)
    points[:] = np.diag([1e-300j, 1j])
    diagnostics._require_upper_stack(points, "p")
    points[2] = np.diag([0.0, 1j])
    with pytest.raises(ValueError, match="p 2 is not"):
        diagnostics._require_upper_stack(points, "p")
    assert calls == [(3, 2, 2), (3, 2, 2)]


def test_delta_omega_spectrum_certificate():
    rng = np.random.default_rng(21)
    for _ in range(6):
        prob = random_problem(rng)
        n = prob.model.base_dim
        b1 = random_upper(rng, n)
        b2 = random_upper(rng, n)
        cert = delta_omega_spectrum(prob, b1, b2)
        assert cert.passed
        assert cert.min_real > 0.5
        assert cert.details["inverse_composition_error"] < 1e-8
        # the right inverse acts as the identity plus a contraction
        assert cert.details["right_inverse_spectrum_max_dist_to_1"] <= 1.0 + 1e-8


def test_delta_omega_spectrum_power_variant():
    rng = np.random.default_rng(3)
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    prob = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    b1 = np.array([[0.4 + 1.1j]])
    b2 = np.array([[-0.2 + 0.9j]])
    cert = delta_omega_spectrum(prob, b1, b2)
    assert cert.passed
    assert cert.details["inverse_composition_error"] < 1e-8
    del rng


def test_delta_omega_spectrum_power_variant_matrix_base():
    rng = np.random.default_rng(4)
    prob = SubordinationProblem.power(random_model(rng, 2, 2), CPMap.scaled_identity(1.5, 2))
    cert = delta_omega_spectrum(prob, random_upper(rng, 2), random_upper(rng, 2))
    assert cert.passed
    assert cert.details["inverse_composition_error"] < 1e-8


def test_dvg_spectrum_scalar_eigenvalue():
    prob = point_plus_semicircle()
    q = np.array([[0.1]])
    u = np.array([[0.0]])
    cert = dvg_spectrum(prob, q, u)
    assert cert.passed
    assert cert.spectral_radius < 1.0
    oracle = point_dvg_eigenvalue(0.1)
    assert abs(oracle - (-0.9048750780274959)) < 1e-12
    eigs = np.asarray(cert.eigenvalues)
    assert np.min(np.abs(eigs - oracle)) < 1e-9
    assert cert.details["resolvent_min_real"] > 0.5


def test_dvg_spectrum_random_draws():
    rng = np.random.default_rng(11)
    for _ in range(5):
        prob = random_problem(rng)
        n = prob.model.base_dim
        q = np.eye(n) * rng.uniform(0.05, 0.5) + 0.02 * random_hermitian(rng, n) @ np.eye(n)
        q = 0.5 * (q + q.conj().T) + 0.3 * np.eye(n)
        u = random_hermitian(rng, n, scale=0.4)
        cert = dvg_spectrum(prob, q, u)
        assert cert.spectral_radius < 1.0
        assert cert.passed


def test_vq_derivative_routes_agree():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, n=2, m=2)
    n = prob.model.base_dim
    q = 0.2 * np.eye(n)
    u = random_hermitian(rng, n, scale=0.3)
    c = random_hermitian(rng, n)
    out = vq_derivative(prob, q, u, c)
    assert out.agreement_error < 1e-8
    assert out.fd_relative_error < 1e-5
    assert np.max(np.abs(out.value - out.amplified)) < 1e-7
    # derivative of a selfadjoint-valued map along a selfadjoint direction
    assert np.max(np.abs(out.value - out.value.conj().T)) < 1e-8


def test_vq_derivative_scalar_against_implicit_formula():
    prob = point_plus_semicircle()
    q = np.array([[0.1]])
    u = np.array([[0.2]])
    c = np.array([[1.0]])
    out = vq_derivative(prob, q, u, c)
    v = solve_vq(prob, q, u).value[0, 0].real
    # scalar fixed point v = q + t v / (u^2 + v^2), t = 1
    x = u[0, 0].real
    dg_du = -2 * x * v / (x * x + v * v) ** 2
    dg_dv = (x * x - v * v) / (x * x + v * v) ** 2
    expect = dg_du / (1 - dg_dv)
    assert abs(out.value[0, 0] - expect) < 1e-9


def test_vq_derivative_requires_selfadjoint_direction():
    prob = point_plus_semicircle()
    q = np.array([[0.1]])
    u = np.array([[0.0]])
    with pytest.raises(ValueError):
        vq_derivative(prob, q, u, np.array([[1j]]))


def test_nc_axioms_generic_and_power():
    rng = np.random.default_rng(17)
    prob = random_problem(rng, n=2, m=2)
    n = prob.model.base_dim
    # conjugating the direct sum by the unit triangle mixes the two points;
    # they must sit high enough that the mixed point stays in the half-plane
    a = 0.3 * random_hermitian(rng, n) + 1j * (2.0 * np.eye(n) + 0.2 * random_hermitian(rng, n))
    b = 0.3 * random_hermitian(rng, n) + 2.2j * np.eye(n)
    out = nc_function_axioms_check(prob, a, b)
    assert out["passed"]
    assert out["max_deviation"] <= 1e-10

    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    power = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    out2 = nc_function_axioms_check(
        power, np.array([[0.2 + 1.3j]]), np.array([[-0.4 + 1.1j]])
    )
    assert out2["passed"]
    assert out2["max_deviation"] <= 1e-10


def test_nc_axioms_input_validation():
    prob = point_plus_semicircle()
    a = np.array([[1j]])
    b = np.array([[0.5 + 1j]])
    with pytest.raises(ValueError):
        nc_function_axioms_check(prob, np.kron(np.eye(2), a), b)
    with pytest.raises(ValueError):
        nc_function_axioms_check(prob, a, b, T=np.eye(3))
    # a similarity that throws the conjugated direct sum out of the domain
    bad_T = np.array([[1.0, 5.0], [0.0, 1.0]])
    far_a = np.array([[2.0 + 1j]])
    far_b = np.array([[-2.0 + 1j]])
    with pytest.raises(ValueError):
        nc_function_axioms_check(prob, far_a, far_b, T=bad_T)


@pytest.mark.parametrize("call", [
    pytest.param(lambda p, cfg: delta_omega(p, [[2j]], [[3j]], [[1.0]], cfg), id="delta_omega"),
    pytest.param(lambda p, cfg: dvg_spectrum(p, [[0.1]], [[0.0]], cfg), id="dvg_spectrum"),
    pytest.param(lambda p, cfg: vq_derivative(p, [[0.1]], [[0.2]], [[1.0]], cfg),
                 id="vq_derivative"),
    pytest.param(lambda p, cfg: phi_q(p, [[0.1]], [[0.2]], cfg), id="phi_q"),
    pytest.param(lambda p, cfg: nc_function_axioms_check(
        p, [[0.1 + 2.0j]], [[-0.2 + 2.2j]], cfg=cfg), id="nc_function_axioms_check"),
])
def test_certificates_raise_convergence_error_with_the_failed_report(call):
    with pytest.raises(ConvergenceError) as err:
        call(point_plus_semicircle(), SolverConfig(max_iter=3))
    report = err.value.report
    assert report.converged is False
    assert report.iterations == 3
    assert np.isfinite(report.residual) and report.residual > 1e-12


def test_horodisc_membership_scalar_geometry():
    center = np.array([[0.0]])
    ell = np.array([[1.0]])
    # the sublevel set {|w|^2 <= im w} is the disc of radius 1/2 about i/2
    inside = np.array([[0.3j]])
    boundary = np.array([[1j]])
    outside = np.array([[0.4 + 0.1j]])
    assert horodisc_membership(center, ell, inside)
    assert horodisc_membership(center, ell, inside, strict=True)
    assert horodisc_membership(center, ell, boundary)
    assert not horodisc_membership(center, ell, boundary, strict=True)
    assert not horodisc_membership(center, ell, outside)
    with pytest.raises(ValueError):
        horodisc_membership(center, ell, np.array([[1.0 - 1j]]))


def test_horodisc_membership_matrix_case():
    rng = np.random.default_rng(2)
    n = 2
    center = random_hermitian(rng, n, scale=0.3)
    ell = np.eye(n)
    deep = center + 0.2j * np.eye(n)
    assert horodisc_membership(center, ell, deep, strict=True)
    shifted = center + 0.2j * np.eye(n) + 5.0 * np.eye(n)
    assert not horodisc_membership(center, ell, shifted)


def test_boundary_horodiscs_map_into_horodiscs():
    # h(w) = -1/w fixes the regular boundary point (3+sqrt(5))/2 of the
    # shifted equation w = 3 - 1/w, with |h'| < 1 there; open horodiscs at
    # the point must map into the closed horodiscs at its image.
    prob = point_plus_semicircle()
    omega_star = (3.0 + np.sqrt(5.0)) / 2.0
    h_star = -1.0 / omega_star
    hprime = 1.0 / omega_star**2
    center = np.array([[omega_star]])
    image_center = np.array([[h_star]])
    for kappa in (1.0, 2.0, 10.0):
        r = 1.0 / kappa
        for rho in (0.25, 0.6, 0.95):
            for theta in np.linspace(0.0, 2.0 * np.pi, 17):
                w = omega_star + 0.5j * r + rho * 0.5 * r * np.exp(1j * theta)
                w = np.array([[w]])
                assert horodisc_membership(center, r * np.eye(1), w, strict=True)
                hw = prob.h_map(w)
                assert horodisc_membership(
                    image_center, r * np.eye(1), hw, tol=1e-8
                )
                # the contraction factor |h'| sharpens the image radius
                assert horodisc_membership(
                    image_center, hprime * r * np.eye(1), hw, tol=1e-8
                )


def test_jc_probe_at_regular_exterior_point():
    model = scalar_to_model(ScalarMeasure.point(0.0))
    prob = SubordinationProblem.generic(
        model, CPMap.scaled_identity(1.0, 1), a=np.zeros((1, 1))
    )
    schedule = tuple(10.0 ** (-k) for k in range(0, 7))
    out = jc_probe(prob, np.array([[3.0]]), np.eye(1), np.eye(1), schedule)
    assert out.applicable
    assert all(out.verdicts.values())
    assert abs(out.omega_limit[0, 0] - (3.0 + np.sqrt(5.0)) / 2.0) < 1e-5
    assert abs(out.hprime_norms[-1] - 0.1458980337503155) < 1e-4
    assert out.quotient[-1] < 1.0
    assert out.truncated_at is None


def test_jc_probe_interior_point_not_applicable():
    model = scalar_to_model(ScalarMeasure.point(0.0))
    prob = SubordinationProblem.generic(
        model, CPMap.scaled_identity(1.0, 1), a=np.zeros((1, 1))
    )
    schedule = tuple(10.0 ** (-k) for k in range(0, 7))
    cfg = SolverConfig(damping=0.5, max_iter=200000)
    out = jc_probe(prob, np.zeros((1, 1)), np.eye(1), np.eye(1), schedule, cfg)
    assert not out.applicable
    assert out.reason == "omega limit not selfadjoint"
    assert out.truncated_at is None
    # inside the support Im(omega) stays bounded away from zero
    assert out.im_norms[-1] > 0.5


def test_jc_probe_reports_truncation():
    model = scalar_to_model(ScalarMeasure.point(0.0))
    prob = SubordinationProblem.generic(
        model, CPMap.scaled_identity(1.0, 1), a=np.zeros((1, 1))
    )
    schedule = (1.0, 1e-2, 1e-4, 1e-6)
    cfg = SolverConfig(max_iter=50)
    out = jc_probe(prob, np.zeros((1, 1)), np.eye(1), np.eye(1), schedule, cfg)
    assert not out.applicable
    assert out.truncated_at is not None
    assert "solver failed" in out.reason


def test_jc_probe_truncates_at_the_first_failing_height():
    model = scalar_to_model(ScalarMeasure.point(0.0))
    prob = SubordinationProblem.generic(
        model, CPMap.scaled_identity(1.0, 1), a=np.zeros((1, 1))
    )
    schedule = (1.0, 1e-2, 1e-4, 1e-6)
    out = jc_probe(prob, np.zeros((1, 1)), np.eye(1), np.eye(1), schedule,
                   SolverConfig(max_iter=50))
    assert out.truncated_at == 1e-2
    assert len(out.omega_values) == 1
    assert out.reason == "solver failed at y=0.01"


@pytest.mark.parametrize("case", ["point mass", "M_2"])
def test_jc_probe_heights_match_one_point_solves(case):
    # the heights are solved as one stack; each must be the fixed point a
    # solve at that height alone finds
    schedule = tuple(10.0 ** (-k) for k in range(0, 7))
    cfg = SolverConfig(damping=0.5, max_iter=200000)
    if case == "point mass":
        prob = point_plus_semicircle()
        alpha, v = 2.0 * np.eye(1), np.eye(1)
    else:
        c = 0.3
        prob = semicircle_problem(OperatorModel.partial_trace(c * np.eye(2), 2),
                                  CPMap.scaled_identity(1.0, 2))
        alpha = (c + 2.0) * np.eye(2)
        Q = np.linalg.qr(np.array([[1.0, 2.0], [-0.5, 1.0]]) + 0.3j)[0]
        v = Q @ np.diag([1.0, 0.5]) @ Q.conj().T
    out = jc_probe(prob, alpha, v, np.eye(v.shape[0]), schedule, cfg)
    assert out.applicable and out.truncated_at is None
    assert len(out.omega_values) == len(schedule)
    for y, w in zip(schedule, out.omega_values):
        ref = solve_omega(prob, alpha + 1j * y * v, cfg).require("reference solve")
        assert opnorm(w - ref) <= 1e-10 * opnorm(ref)


def test_jc_probe_matrix_valued_point():
    X = np.diag([1.0, -1.0])
    model = OperatorModel.partial_trace(X, base_dim=2)
    prob = semicircle_problem(model, CPMap.scaled_identity(1.0, 2))
    schedule = tuple(10.0 ** (-k) for k in range(0, 7))
    out = jc_probe(prob, 4.0 * np.eye(2), np.eye(2), np.eye(2), schedule)
    assert out.applicable
    assert all(out.verdicts.values())
    assert out.hprime_norms[-1] <= 1.0 + 1e-3


def test_jc_probe_input_validation():
    prob = point_plus_semicircle()
    alpha = np.array([[3.0]])
    eye = np.eye(1)
    with pytest.raises(ValueError):
        jc_probe(prob, alpha, eye, eye, (1e-1, 1e-1))
    with pytest.raises(ValueError):
        jc_probe(prob, alpha, eye, eye, (1e-2, 1e-1))
    with pytest.raises(ValueError):
        jc_probe(prob, alpha, np.zeros((1, 1)), eye, (1.0, 0.1))
    with pytest.raises(ValueError):
        jc_probe(prob, alpha, eye, -eye, (1.0, 0.1))


def free_increment_zero():
    # eta = 0: omega(b) = b exactly, h = 0, v_q(u) = q for every u.
    return SubordinationProblem.generic(
        scalar_to_model(ScalarMeasure.point(0.0)), CPMap.scaled_identity(0.0, 1)
    )


def test_delta_omega_degenerate_cases():
    prob0 = free_increment_zero()
    b1 = np.array([[0.4 + 1.2j]])
    b2 = np.array([[-0.1 + 0.9j]])
    c = np.array([[0.3 - 0.7j]])
    d = delta_omega(prob0, b1, b2, c)
    assert abs(d[0, 0] - c[0, 0]) == 0.0

    prob = point_plus_semicircle()
    z = delta_omega(prob, np.array([[2j]]), np.array([[3j]]), np.zeros((1, 1)))
    assert abs(z[0, 0]) == 0.0


def test_delta_omega_spectrum_limits():
    prob0 = free_increment_zero()
    cert = delta_omega_spectrum(
        prob0, np.array([[0.4 + 1.2j]]), np.array([[-0.1 + 0.9j]])
    )
    assert np.max(np.abs(cert.eigenvalues - 1.0)) == 0.0

    # deep in the upper half-plane the quotient map tends to the identity
    prob = point_plus_semicircle()
    deep = np.array([[1000j]])
    cert = delta_omega_spectrum(prob, deep, deep)
    assert np.max(np.abs(cert.eigenvalues - 1.0)) <= 1e-5
    assert cert.min_real >= 1.0 - 1e-5


def test_dvg_spectrum_degenerate_and_far_point():
    prob0 = free_increment_zero()
    cert = dvg_spectrum(prob0, np.array([[0.1]]), np.array([[0.5]]))
    assert cert.spectral_radius == 0.0
    assert np.max(np.abs(cert.eigenvalues)) == 0.0

    # far outside the bulk the fixed-point map is a mild contraction
    prob = point_plus_semicircle()
    cert = dvg_spectrum(prob, np.array([[0.1]]), np.array([[3.0]]))
    assert 0.0 < cert.spectral_radius < 0.2


def test_vq_derivative_vanishes_when_flat_or_symmetric():
    one = np.array([[1.0]])
    der = vq_derivative(free_increment_zero(), 0.1 * one, 0.5 * one, one)
    assert abs(der.value[0, 0]) <= 1e-12
    assert der.agreement_error <= 1e-12
    assert der.fd_relative_error <= 1e-10

    # u -> v_q(u) is even for a symmetric source, so the slope at 0 vanishes
    der = vq_derivative(point_plus_semicircle(), 0.1 * one, 0.0 * one, one)
    assert abs(der.value[0, 0]) <= 1e-10
    assert abs(der.finite_difference[0, 0]) <= 1e-8


def test_nc_axioms_identity_conjugation_and_coinciding_points():
    prob = point_plus_semicircle()
    out = nc_function_axioms_check(prob, np.array([[1j]]), np.array([[1j]]), T=np.eye(2))
    assert out["passed"]
    assert out["max_deviation"] <= 1e-10

    out = nc_function_axioms_check(prob, np.array([[2j]]), np.array([[3j]]))
    assert out["passed"]


def test_horodisc_scaled_direction_threshold():
    rng = np.random.default_rng(7)
    center = random_hermitian(rng, 2)
    ell = np.diag([1.0, 2.0])
    # center + i eps ell lies in the horodisc iff eps <= 1 (strictly iff < 1)
    for eps, inside, strict_inside in ((0.5, True, True), (1.0, True, False), (1.5, False, False)):
        w = center + 1j * eps * ell
        assert horodisc_membership(center, ell, w) is inside
        assert horodisc_membership(center, ell, w, strict=True) is strict_inside


def test_jc_probe_degenerate_problem_trivially_regular():
    prob0 = free_increment_zero()
    one = np.eye(1)
    schedule = tuple(10.0 ** (-k) for k in range(0, 7))
    out = jc_probe(prob0, np.array([[0.3]]), one, one, schedule)
    assert out.applicable
    assert all(out.verdicts.values())
    assert abs(out.omega_limit[0, 0] - 0.3) == 0.0
    assert out.hprime_norms[-1] == 0.0
    assert out.quotient[-1] == 0.0
