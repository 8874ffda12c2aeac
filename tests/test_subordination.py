import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import (
    CPMap,
    ConvergenceError,
    OperatorModel,
    ScalarMeasure,
    SolveStack,
    SolverConfig,
    SubordinationProblem,
    phi_q,
    residual_h,
    scalar_to_model,
    solve_omega,
    solve_omega_stack,
    solve_vq,
)
from freeconv.algebra import (
    direct_sum,
    divided_difference,
    identity_kron,
    imag_part,
    opnorm,
    real_part,
    unvec,
    upper_block,
    vec,
)
from freeconv.subordination import _omega_derivative, _picard_stack, g_q, solve_gq_stack
from freeconv.transforms import ConvolutionPower, semicircle_problem

from _oracles import (arcsine2_density, arcsine2_g, point_gamma_omega, point_vq_at_zero,
                      semicircle_g)
from helpers import random_hermitian, random_model, random_problem, random_psd, random_upper


def point_gamma_problem(t: float = 1.0):
    model = scalar_to_model(ScalarMeasure.point(0.0))
    return semicircle_problem(model, CPMap.scaled_identity(t, 1))


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_iter=0)
    with pytest.raises(ValueError, match="max_iter must be an integer"):
        SolverConfig(max_iter=2.5)
    with pytest.raises(ValueError):
        SolverConfig(damping=1.0)


@pytest.mark.parametrize("tol", [np.inf, np.nan, -np.inf])
def test_solver_config_refuses_a_non_finite_tol(tol):
    # tol = inf let every solve stop as converged after one step
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        SolverConfig(tol=tol)


def _diagonal_semicircle_problem():
    model = OperatorModel.partial_trace(np.diag([1.0, 2.0, 3.0, 4.0]), 2)
    return semicircle_problem(model, CPMap.scaled_identity(1.0, 2))


def test_gq_stack_rejects_an_unstacked_q():
    # broadcast against u, this q gave a v that is not selfadjoint, with
    # v_22 about -1e-4, flagged converged; solve_vq gives diag(0.9026, 0.122)
    prob = _diagonal_semicircle_problem()
    with pytest.raises(ValueError, match=r"one shape \(B, d, d\), got q \(2, 2\), u \(1, 2, 2\)"):
        solve_gq_stack(prob, 0.1 * np.eye(2), np.eye(2)[None])


@pytest.mark.parametrize("lengths", [(1, 2), (2, 3)])
def test_gq_stacks_of_different_lengths_are_rejected(lengths):
    prob = _diagonal_semicircle_problem()
    q, u = (np.stack([0.1 * np.eye(2)] * k) for k in lengths)
    with pytest.raises(ValueError, match=rf"got q \({lengths[0]}, 2, 2\), u \({lengths[1]}, 2, 2\)"):
        solve_gq_stack(prob, q, u)


@pytest.mark.parametrize("u", [0.0, 3.0])
def test_gq_stack_refuses_a_q_that_is_not_positive_definite(u):
    # q = -0.5 gave v = -1.2808 (u = 0) and -0.5601 (u = 3), flagged converged
    prob = point_gamma_problem()
    q = np.array([[[0.5]], [[-0.5]], [[0.0]]])
    with pytest.raises(ValueError, match=r"q is not strictly positive at entries \[1, 2\]"):
        solve_gq_stack(prob, q, np.full((3, 1, 1), u))
    # a block upper triangular q is tested on its diagonal blocks
    eye2, u2 = np.eye(2), upper_block(np.array([[u]]), np.array([[1.0]]), np.array([[u]]))
    q2 = np.stack([upper_block(np.array([[s]]), np.array([[5.0]]), np.array([[0.1]]))
                   for s in (0.1, -0.1)])
    with pytest.raises(ValueError, match=r"at entries \[1\]"):
        solve_gq_stack(prob, q2, np.stack([u2, u2]), level=2)
    assert solve_gq_stack(prob, 0.1 * eye2[None], u2[None], level=2).converged.all()


@pytest.mark.parametrize("name", ["b", "q", "u"])
def test_non_finite_stack_entries_are_named(name):
    prob = _diagonal_semicircle_problem()
    stacks = {"b": np.stack([1j * np.eye(2)] * 3), "q": np.broadcast_to(0.1 * np.eye(2), (3, 2, 2)),
              "u": np.stack([np.eye(2)] * 3)}
    stacks[name] = stacks[name].copy()
    stacks[name][2, 1, 0] = np.nan
    with pytest.raises(ValueError, match=rf"{name} has entries that are not finite: \[2\]"):
        if name == "b":
            solve_omega_stack(prob, stacks["b"])
        else:
            solve_gq_stack(prob, stacks["q"], stacks["u"])


def test_g_q_rejects_points_of_mismatched_sizes():
    prob = _diagonal_semicircle_problem()
    with pytest.raises(ValueError, match=r"level 2 takes points of size 4, got shapes \(2, 2\)"):
        g_q(prob, 0.1 * np.eye(2), np.eye(4), np.eye(4), 2)
    with pytest.raises(ValueError, match=r"level 1 takes points of size 2"):
        g_q(prob, 0.1 * np.eye(2), np.eye(2), np.eye(4))


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


@settings(max_examples=20, deadline=None, database=None)
@given(n=st.integers(2, 3), m=st.integers(1, 3), level=st.integers(1, 2),
       margin=st.floats(0.05, 1.0), seed=st.integers(0, 2**32 - 1))
def test_imaginary_part_grows_under_subordination_property(n, m, level, margin, seed):
    # Im omega(b) - Im b is positive semidefinite for b in the upper half-plane
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, n=n, m=m)
    b = random_upper(rng, n * level, margin=margin)
    rep = solve_omega(prob, b)
    assert rep.converged
    gap = imag_part(rep.value) - imag_part(b)
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


def test_solve_stack_record_reports_and_requires_per_entry():
    prob = point_gamma_problem()
    bs = np.array([[[2j]], [[2.0 + 1e-2j]]])
    out = solve_omega_stack(prob, bs, SolverConfig(max_iter=30))
    assert isinstance(out, SolveStack)
    w, iters, res, ok = out
    assert out[0] is w and out[1] is iters and out[3] is ok
    assert ok.tolist() == [True, False] and iters.tolist() == [17, 30]
    rep = out.report(1)
    assert (rep.iterations, rep.residual, rep.converged) == (30, res[1], False)
    assert np.array_equal(rep.value, w[1])
    with pytest.raises(ConvergenceError, match="second point") as err:
        out.require("second point")
    assert err.value.report.iterations == 30 and np.array_equal(err.value.report.value, w[1])
    with pytest.raises(ConvergenceError, match="one point") as err:
        rep.require("one point")
    assert err.value.report is rep
    first = solve_omega_stack(prob, bs[:1])
    assert first.require("unused") is first.value
    single = solve_omega(prob, bs[0])
    assert single.require("unused") is single.value
    assert np.array_equal(single.value, w[0]) and single.iterations == 17


def test_empty_stacks_return_at_once():
    prob = point_gamma_problem()
    empty = np.zeros((0, 1, 1))
    for out in (solve_omega_stack(prob, empty), solve_gq_stack(prob, empty, empty)):
        assert out.value.shape == (0, 1, 1) and out.iterations.shape == (0,)
        assert out.residual.shape == out.converged.shape == (0,)
        assert out.require("unused") is out.value

    def step(w, idx):
        raise AssertionError("an empty stack takes no step")

    assert _picard_stack(step, empty, SolverConfig(), anderson=True).value.shape == (0, 1, 1)


def test_a_start_that_does_not_broadcast_names_start_and_the_shape():
    rng = np.random.default_rng(12)
    prob = random_problem(rng, n=2, m=2)
    b = np.stack([random_upper(rng, 2) for _ in range(3)])
    q = np.broadcast_to(0.1 * np.eye(2), b.shape)
    u = np.stack([random_hermitian(rng, 2) for _ in range(3)])
    message = r"start has shape \(2, 2, 2\), .* stack's shape \(3, 2, 2\)"
    bad = SolverConfig(start=np.stack([np.eye(2)] * 2))
    with pytest.raises(ValueError, match=message):
        solve_omega_stack(prob, b, bad)
    with pytest.raises(ValueError, match=message):
        solve_gq_stack(prob, q, u, bad)
    # one point, or one per entry, is a start
    for start in (b[0], b + 0.1j):
        assert solve_omega_stack(prob, b, SolverConfig(start=start)).converged.all()
    assert solve_gq_stack(prob, q, u, SolverConfig(start=np.eye(2))).converged.all()


def test_a_start_outside_the_half_plane_names_its_entries():
    # point mass plus semicircle at b = i: omega = b - 1/omega has the roots
    # 1.618i and -0.618i; Picard from the lower root stays there, and from
    # -0.5i it steps to 0 and then to NaN
    prob = point_gamma_problem()
    b = np.array([[[1j]], [[2j]], [[1j]]])
    outside = r"outside the solve's half-plane at entries \[0, 1, 2\]"
    for start in (-0.618j, -0.5j, 0.0):
        with pytest.raises(ValueError, match=outside):
            solve_omega_stack(prob, b, SolverConfig(start=np.array([[start]])))
    with pytest.raises(ValueError, match=r"at entries \[1, 2\]"):
        solve_omega_stack(prob, b, SolverConfig(start=np.array([[[1j]], [[-1j]], [[np.nan]]])))
    q = np.full((3, 1, 1), 0.1)
    with pytest.raises(ValueError, match=r"at entries \[2\]"):
        solve_gq_stack(prob, q, np.zeros((3, 1, 1)),
                       SolverConfig(start=np.array([[[1.0]], [[0.5]], [[-0.5]]])))
    # a block upper triangular start is tested on its diagonal blocks, so a
    # corner of any size is admissible, and a lower diagonal block is not
    top = upper_block(np.array([[1j]]), np.array([[1.0]]), np.array([[2j]]))[None]
    corner = upper_block(np.array([[0.5j]]), np.array([[40.0]]), np.array([[0.5j]]))
    assert solve_omega_stack(prob, top, SolverConfig(start=corner)).converged.all()
    with pytest.raises(ValueError, match=r"at entries \[0\]"):
        solve_omega_stack(prob, top, SolverConfig(start=corner - 1j * np.diag([0.0, 1.0])))
    assert solve_omega_stack(prob, b, SolverConfig(start=np.array([[0.5j]]))).converged.all()


def test_an_entry_whose_step_is_not_finite_stops_unconverged():
    # entry 1 of this contraction turns NaN at its third step; entry 0 goes on
    calls = []

    def step(w, idx):
        calls.append(idx.copy())
        out = 0.5 * w
        if len(calls) == 3:
            out[idx == 1] = np.nan
        return out

    w0 = np.array([[[1.0 + 1j]], [[2.0 + 2j]]])
    out = _picard_stack(step, w0, SolverConfig(tol=1e-6))
    assert out.converged.tolist() == [True, False]
    assert out.iterations[1] == 3 and out.residual[1] == np.inf
    assert out.value[1, 0, 0] == (2.0 + 2j) / 4   # its last finite iterate
    assert out.iterations[0] > 3 and all(idx.tolist() == [0] for idx in calls[3:])


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
                            CPMap.scaled_identity(2.0, 1))
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
    # at Im b = 0.5 every entry converges before its Newton budget (66
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


def _map_and_points(kind, n, m, level, rng):
    """(f at level k, f at level 2k, w1, w2) for one map of the library.

    g_q is taken as a function of v at fixed u and of u at fixed v; q and
    the fixed argument enter the level-2k map amplified by 1_2.
    """
    d = n * level
    if kind in ("h dense", "h spectral"):
        prob = random_problem(rng, n=n, m=m)
        return (lambda x: prob.h_map(x, level), lambda x: prob.h_map(x, 2 * level),
                random_upper(rng, d), random_upper(rng, d))
    if kind == "h power":
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prob = SubordinationProblem.power(random_model(rng, n, m),
                                          CPMap.from_kraus([np.eye(n), 0.5 * K]))
        return (lambda x: prob.h_map(x, level), lambda x: prob.h_map(x, 2 * level),
                random_upper(rng, d), random_upper(rng, d))
    if kind == "cauchy":
        model = random_model(rng, n, m)
        return (lambda x: model.cauchy(x, level), lambda x: model.cauchy(x, 2 * level),
                random_upper(rng, d), random_upper(rng, d))
    prob = random_problem(rng, n=n, m=m)
    q = 0.1 * np.eye(d) + random_psd(rng, d)
    q2 = identity_kron(2, q)
    if kind == "g_q in v":
        u = random_hermitian(rng, d)
        u2 = identity_kron(2, u)
        return (lambda v: g_q(prob, q, u, v, level), lambda v: g_q(prob, q2, u2, v, 2 * level),
                np.eye(d) + random_psd(rng, d), np.eye(d) + random_psd(rng, d))
    v = np.eye(d) + random_psd(rng, d)
    v2 = identity_kron(2, v)
    return (lambda u: g_q(prob, q, u, v, level), lambda u: g_q(prob, q2, u, v2, 2 * level),
            random_hermitian(rng, d), random_hermitian(rng, d))


@pytest.mark.parametrize("kind", ["h dense", "h spectral", "h power", "cauchy",
                                  "g_q in v", "g_q in u"])
@settings(max_examples=15, deadline=None, database=None)
@given(n=st.integers(2, 3), m=st.integers(1, 3), level=st.integers(1, 2),
       seed=st.integers(0, 2**32 - 1))
def test_divided_difference_of_distinct_points_is_the_difference(kind, n, m, level, seed):
    # Delta f(w1, w2)[w1 - w2] = f(w1) - f(w2) for every nc function f
    n = 1 if kind == "h spectral" else n
    f, f2, w1, w2 = _map_and_points(kind, n, m, level, np.random.default_rng(seed))
    got = divided_difference(f2, w1, w2, (w1 - w2)[None])[0]
    f1, fw2 = f(w1), f(w2)
    assert opnorm(got - (f1 - fw2)) <= 1e-10 * (opnorm(f1) + opnorm(fw2))


def _embed2(b, m):
    """b otimes 1_m entry by entry, written with np.kron."""
    return np.stack([np.kron(x, np.eye(m)) for x in b])


def _eta2(eta, x):
    """eta at level 2 as sum_j (1_2 otimes K_j) x (1_2 otimes K_j)*."""
    out = 0
    for K in eta.kraus:
        A = np.kron(np.eye(2), K)
        out = out + A @ x @ A.conj().T
    return out


def _block_points(rng, n, shared, diagonal):
    """Four points [[w1, c], [0, w2]] with w1, w2 drawn by diagonal(); with
    shared, every entry has the same w1 and w2."""
    def draws():
        return np.stack([diagonal() for _ in range(4)]) if not shared else \
            np.broadcast_to(diagonal(), (4, n, n))
    cs = rng.standard_normal((4, n, n)) + 1j * rng.standard_normal((4, n, n))
    return upper_block(draws(), cs, draws())


@pytest.mark.parametrize("kind", ["h_map", "cauchy", "g_q"])
@pytest.mark.parametrize("shared", [True, False])
@settings(max_examples=10, deadline=None, database=None)
@given(n=st.integers(2, 3), m=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_block_triangular_level_two_maps_match_dense_inverses(kind, shared, n, m, seed):
    # at [[w1, c], [0, w2]] the resolvents go through algebra.inv's diagonal
    # blocks; the oracle inverts the whole 2N x 2N matrix
    rng = np.random.default_rng(seed)
    prob = random_problem(rng, n=n, m=m)
    model, eta = prob.model, prob.eta
    X2 = np.kron(np.eye(2), model.X)
    if kind == "g_q":
        q2 = identity_kron(2, 0.1 * np.eye(n) + random_psd(rng, n))
        U = _block_points(rng, n, shared, lambda: random_hermitian(rng, n))
        V = _block_points(rng, n, shared, lambda: np.eye(n) + random_psd(rng, n))
        Y = X2 - _embed2(U, m)
        inner = Y @ _embed2(np.linalg.inv(V), m) @ Y + _embed2(V, m)
        got, want = g_q(prob, q2, U, V, 2), q2 + _eta2(eta, np.linalg.inv(inner))
    else:
        W = _block_points(rng, n, shared, lambda: random_upper(rng, n))
        if kind == "h_map":
            got, want = prob.h_map(W, 2), _eta2(eta, np.linalg.inv(X2 - _embed2(W, m)))
        else:
            got = model.cauchy(W, 2)
            want = model.expect(np.linalg.inv(_embed2(W, m) - X2), 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    assert not got[:, n:, :n].any()


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
    rep = solve_omega(SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1)),
                      np.array([[1j]]))
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
    # a power problem takes the same route: Bernoulli boxplus 2 is the
    # arcsine law, whose density at x = Phi_q(u) is -Im G_mu(u + i v_q(u))/pi
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    power = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    q = np.array([[1e-8]])
    for u in np.linspace(-0.95, 0.95, 39):
        rep = solve_vq(power, q, np.array([[u]]))
        assert rep.converged and rep.iterations <= 100
        x = phi_q(power, q, np.array([[u]]))[0, 0].real
        density = -model.cauchy(u + 1j * rep.value)[0, 0].imag / np.pi
        assert abs(density / arcsine2_density(x) - 1.0) <= 1e-12


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


@pytest.mark.parametrize("problem", [
    semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)), CPMap.scaled_identity(1.0, 1)),
    SubordinationProblem.power(scalar_to_model(ScalarMeasure.symmetric_bernoulli()),
                               CPMap.scaled_identity(2.0, 1)),
], ids=["point-semicircle", "bernoulli-power"])
def test_phi_q_respects_direct_sums(problem):
    # Phi_q at level 2 on diag(w1, w2) is the direct sum of the two level-1 values
    q, w1, w2 = 0.1, 0.3, -0.2
    both = phi_q(problem, q * np.eye(2), np.diag([w1, w2]))
    parts = [phi_q(problem, np.array([[q]]), np.array([[w]])) for w in (w1, w2)]
    assert np.max(np.abs(both - direct_sum(*parts))) <= 1e-12


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
