import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import (
    CPMap,
    ConvergenceError,
    OperatorModel,
    ScalarMeasure,
    SemicircularConvolution,
    SolveStack,
    SolverConfig,
    SubordinationProblem,
    biane_v_scalar,
    cauchy_eval,
    convolution_power_g,
    density_grid,
    r_transform_eval,
    scalar_to_model,
    semicircular_convolve_g,
)
from freeconv.algebra import direct_sum, imag_part
from freeconv.serialize import problem_from_json, problem_to_json
from freeconv.transforms import DENSITY_CONFIG, ConvolutionPower, DensityGrid, semicircle_problem

from _oracles import (
    arcsine2_density,
    arcsine2_g,
    bernoulli_r,
    point_v_curve,
    semicircle_density,
    semicircle_g,
)
from helpers import (random_hermitian, random_model, random_power_problem, random_problem,
                     random_psd, random_upper)


def point_model():
    return scalar_to_model(ScalarMeasure.point(0.0))


def grid_points(nx: int = 20, ny: int = 5):
    xs = np.linspace(-2.0, 2.0, nx)
    ys = np.geomspace(0.2, 3.0, ny)
    return [x + 1j * y for x in xs for y in ys]


def test_semicircle_cauchy_closed_form():
    model = point_model()
    for t in (0.5, 1.0, 1.3):
        worst = 0.0
        for z in grid_points():
            G = semicircular_convolve_g(model, t, np.array([[z]]))
            worst = max(worst, abs(G[0, 0] - semicircle_g(z, t)))
        assert worst <= 1e-10


def test_semicircular_semigroup_through_wrapper():
    model = point_model()
    inner = SemicircularConvolution(model, CPMap.scaled_identity(0.6, 1))
    for z in (2j, 1.0 + 0.8j, -1.4 + 0.5j):
        G_nested = semicircular_convolve_g(inner, 0.7, np.array([[z]]))
        G_direct = semicircular_convolve_g(model, 1.3, np.array([[z]]))
        assert abs(G_nested[0, 0] - G_direct[0, 0]) <= 1e-10
    nested = SemicircularConvolution(inner, CPMap.scaled_identity(0.7, 1))
    assert nested.model is model
    problem = semicircle_problem(model, CPMap.scaled_identity(1.0, 1))
    G = semicircular_convolve_g(problem, 0.5, np.array([[2j]]))
    assert abs(G[0, 0] - semicircle_g(2j, 1.5)) <= 1e-10
    power = ConvolutionPower(model, CPMap.scaled_identity(2.0, 1))
    with pytest.raises(TypeError):
        SemicircularConvolution(power, CPMap.scaled_identity(0.5, 1))


def test_convolution_power_matches_arcsine():
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    for z in (2j, 0.5 + 1.0j, -1.0 + 0.7j, 3.0 + 0.2j):
        G = convolution_power_g(model, 2.0, np.array([[z]]))
        assert abs(G[0, 0] - arcsine2_g(z)) < 1e-10


def test_cauchy_eval_dispatch_and_nonconvergence():
    model = point_model()
    b = np.array([[1.5j]])
    assert abs(cauchy_eval(model, b)[0, 0] - 1 / 1.5j) < 1e-14
    prob = semicircle_problem(model, CPMap.scaled_identity(1.0, 1))
    G = cauchy_eval(prob, b)
    assert abs(G[0, 0] - semicircle_g(1.5j)) < 1e-11
    with pytest.raises(ConvergenceError):
        cauchy_eval(prob, b, SolverConfig(max_iter=1))
    with pytest.raises(TypeError):
        cauchy_eval("not a source", b)
    with pytest.raises(ValueError, match="not an amplification of B"):
        cauchy_eval(OperatorModel.partial_trace(np.eye(4), 2), 1j * np.eye(3))


def test_cauchy_eval_refuses_a_point_without_definite_imaginary_part():
    # the solve took this point and returned a G whose imaginary part has
    # eigenvalues -0.61 and 0.83
    prob = random_problem(np.random.default_rng(3), n=2, m=2)
    b = np.diag([0.3 + 1j, -0.2 - 1j])
    for source in (prob, prob.model):
        with pytest.raises(ValueError, match="b must have a definite imaginary part"):
            cauchy_eval(source, b)


@pytest.mark.parametrize("variant", ["generic", "power"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_cauchy_eval_at_the_adjoint_point_is_the_adjoint(variant, n):
    # the solve at a lower half-plane point b* returns omega(b)*, so G(b*) = G(b)*
    rng = np.random.default_rng(n)
    prob = (random_problem if variant == "generic" else random_power_problem)(rng, n, 2)
    b = random_upper(rng, n)
    G = cauchy_eval(prob, b)
    assert np.max(np.abs(cauchy_eval(prob, b.conj().T) - G.conj().T)) <= 1e-14


def test_convergence_errors_carry_the_report_of_the_solve():
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    conv = SemicircularConvolution(point_model(), CPMap.scaled_identity(1.0, 1))
    cfg = SolverConfig(max_iter=3)
    b = np.array([[0.01j]])
    for evaluate in (lambda: convolution_power_g(bern, 2.0, b, cfg),
                     lambda: cauchy_eval(conv, b, cfg)):
        with pytest.raises(ConvergenceError) as err:
            evaluate()
        report = err.value.report
        assert report.iterations == 3 and not report.converged
        assert np.isfinite(report.residual) and report.residual > cfg.tol


def test_r_transform_inner_failure_carries_the_inner_report():
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    source = ConvolutionPower(bern, CPMap.scaled_identity(2.0, 1))
    cfg = SolverConfig(max_iter=2)
    with pytest.raises(ConvergenceError, match="Cauchy transform") as err:
        r_transform_eval(source, np.array([[-0.02j]]), cfg)
    report = err.value.report
    assert report.iterations == 2 and not report.converged
    assert np.isfinite(report.residual) and report.residual > cfg.tol


def _sources():
    rng = np.random.default_rng(11)
    model = random_model(rng, 2, 2)
    beta = CPMap.scaled_identity(0.4, 2)
    return {
        "model": model,
        "problem": random_problem(rng, 2, 2),
        "semicircular": SemicircularConvolution(model, beta),
        "power": ConvolutionPower(model, CPMap.scaled_identity(1.5, 2)),
        "nested-semicircular": SemicircularConvolution(
            SemicircularConvolution(model, beta), CPMap.scaled_identity(0.3, 2)),
    }


SOURCES = _sources()


@st.composite
def upper_points(draw, n: int = 2):
    """Points of M_n(C) with Im >= margin, margin >= 0.3, and bounded size."""
    entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=4 * n * n, max_size=4 * n * n))
    A = np.reshape(entries[:2 * n * n], (2, n, n))
    C = np.reshape(entries[2 * n * n:], (2, n, n))
    A, C = A[0] + 1j * A[1], C[0] + 1j * C[1]
    margin = draw(st.floats(0.3, 2.0))
    return (A + A.conj().T) / 2 + 1j * (margin * np.eye(n) + C @ C.conj().T / (2 * n))


@pytest.mark.parametrize("name", sorted(SOURCES))
@settings(max_examples=10, deadline=None, database=None)
@given(b1=upper_points(), b2=upper_points())
def test_cauchy_sources_map_halfplanes_and_respect_direct_sums(name, b1, b2):
    source = SOURCES[name]
    G1, G2 = cauchy_eval(source, b1), cauchy_eval(source, b2)
    for G in (G1, G2):
        assert np.max(np.linalg.eigvalsh(imag_part(G))) < 0
    G12 = cauchy_eval(source, direct_sum(b1, b2))
    assert np.max(np.abs(G12 - direct_sum(G1, G2))) <= 1e-10


def test_r_transform_closed_forms():
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    for gv in (-0.01j, -0.02j, -0.05j, 0.03j - 0.01, 0.05j):
        R = r_transform_eval(bern, np.array([[gv]]))
        assert abs(R[0, 0] - bernoulli_r(gv)) < 1e-9
    # semicircular R is linear: R(g) = t g
    conv = SemicircularConvolution(point_model(), CPMap.scaled_identity(0.8, 1))
    for gv in (-0.02j, -0.05j):
        R = r_transform_eval(conv, np.array([[gv]]))
        assert abs(R[0, 0] - 0.8 * gv) < 1e-9


def test_r_transform_additivity_under_power():
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    power = ConvolutionPower(bern, CPMap.scaled_identity(2.0, 1))
    for gv in (-0.01j, -0.02j, -0.03j, -0.04j, -0.05j):
        R1 = r_transform_eval(bern, np.array([[gv]]))
        R2 = r_transform_eval(power, np.array([[gv]]))
        assert abs(R2[0, 0] - 2.0 * R1[0, 0]) < 1e-8


def test_r_transform_domain_guard():
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    with pytest.raises(ValueError, match="outside R-domain"):
        r_transform_eval(bern, np.array([[0.5j]]))


@pytest.mark.parametrize("gv", [-1e-3j, -1e-4j])
def test_r_transform_at_small_g_matches_closed_form(gv):
    # G(1/g) - g = O(|g|^3): only a stopping test on the error of R resolves R here
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    power = ConvolutionPower(bern, CPMap.scaled_identity(2.0, 1))
    for source, scale in ((bern, 1.0), (power, 2.0)):
        R = r_transform_eval(source, np.array([[gv]]))[0, 0]
        target = scale * bernoulli_r(gv)
        assert abs(R - target) <= 1e-6 * abs(target)


class _CountingSource:
    def __init__(self, source):
        self.source, self.base_dim, self.calls = source, source.base_dim, []

    def norm_bound(self):
        return self.source.norm_bound()

    def cauchy_stack(self, b_stack, level=1, cfg=SolverConfig()):
        self.calls.append((b_stack.shape, level))
        return self.source.cauchy_stack(b_stack, level, cfg)


def test_r_transform_evaluates_g_once_per_step_at_the_level_of_g():
    bern = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    for source in (bern, ConvolutionPower(bern, CPMap.scaled_identity(2.0, 1))):
        counting = _CountingSource(source)
        r_transform_eval(counting, np.array([[-0.02j]]))
        assert counting.calls
        assert all(call == ((1, 1, 1), 1) for call in counting.calls)
    counting = _CountingSource(bern)
    r_transform_eval(counting, direct_sum(np.array([[-0.02j]]), np.array([[-0.03j]])))
    assert all(call == ((1, 2, 2), 2) for call in counting.calls)


@pytest.mark.parametrize("g", [np.zeros((1, 1)), np.diag([-0.02j, 0.0]),
                               -0.02j * np.outer([0.6, 0.8j], [0.6, -0.8j])],
                         ids=["zero", "rank-one", "rank-one-rounded"])
def test_r_transform_rejects_a_singular_g(g):
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli()) if g.shape[0] == 1 \
        else random_model(np.random.default_rng(3), 2, 2)
    with pytest.raises(ValueError, match="g must be invertible"):
        r_transform_eval(model, g)


# b* has Im b* negative definite; norm 0.04 keeps g in the R-domain of every source below
small_lower_points = upper_points().map(lambda b: 0.04 * b.conj().T / np.linalg.norm(b, 2))


@settings(max_examples=10, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), g1=small_lower_points, g2=small_lower_points,
       t=st.floats(1.0, 3.0))
def test_matrix_r_transform_inverts_g_and_respects_direct_sums_and_powers(seed, g1, g2, t):
    model = random_model(np.random.default_rng(seed), 2, 2)
    R1, R2 = r_transform_eval(model, g1), r_transform_eval(model, g2)
    # G is flat near infinity (G' ~ g^2): scale the inverse residual into an R error
    ginv = np.linalg.inv(g1)
    implied = np.linalg.norm(cauchy_eval(model, R1 + ginv) - g1, 2) * np.linalg.norm(ginv, 2) ** 2
    assert implied <= 1e-8 * (1.0 + np.max(np.abs(R1)))
    R12 = r_transform_eval(model, direct_sum(g1, g2))
    assert np.max(np.abs(R12 - direct_sum(R1, R2))) <= 1e-10
    power = ConvolutionPower(model, CPMap.scaled_identity(t, 2))
    assert np.max(np.abs(r_transform_eval(power, g1) - t * R1)) <= 1e-8


def test_r_transforms_of_problems_add_the_covariance_and_scale_under_powers():
    # operator-valued R-additivity: free semicircular noise of covariance beta adds beta to R
    rng = np.random.default_rng(21)
    model = random_model(rng, 2, 2)
    beta = CPMap.from_kraus([0.6 * random_hermitian(rng, 2), 0.4 * random_psd(rng, 2)])
    one = beta.apply(np.eye(2))
    assert np.max(np.abs(one - one[0, 0] * np.eye(2))) > 1e-3     # beta is not scalar
    b = random_upper(rng, 2)
    g = 0.04 * b.conj().T / np.linalg.norm(b, 2)
    R_model = r_transform_eval(model, g)
    gap = r_transform_eval(semicircle_problem(model, beta), g) - R_model
    assert np.max(np.abs(gap - beta.apply(g))) <= 1e-10
    # a power problem read back from its file keeps its norm bound: R becomes t R
    t = 2.5
    data = problem_to_json(SubordinationProblem.power(model, CPMap.scaled_identity(t, 2)))
    power, _ = problem_from_json(data)
    assert np.max(np.abs(r_transform_eval(power, g) - t * R_model)) <= 1e-8


def test_biane_curve_point_mass():
    us = np.linspace(-2.0, 2.0, 101)
    vals = np.array([biane_v_scalar(ScalarMeasure.point(0.0), 1.0, u) for u in us])
    assert np.max(np.abs(vals - point_v_curve(us))) <= 1e-10


def test_biane_curve_two_atoms():
    m = ScalarMeasure.symmetric_bernoulli()
    t = 0.1
    assert biane_v_scalar(m, t, 3.0) == 0.0       # far outside both atoms
    v_atom = biane_v_scalar(m, t, 1.0)            # on an atom: strictly positive
    assert v_atom > 0
    total = t * (0.5 / ((1.0 - (-1.0)) ** 2 + v_atom**2) + 0.5 / v_atom**2)
    assert abs(total - 1.0) <= 1e-12
    with pytest.raises(ValueError):
        biane_v_scalar(m, 0.0, 0.0)


def test_biane_curve_rejects_bad_input_and_starts_near_atoms():
    m = ScalarMeasure.point(0.0)
    for t, u in [(np.inf, 0.0), (np.nan, 0.0), (-1.0, 0.0), (1.0, np.nan), (1.0, -np.inf)]:
        with pytest.raises(ValueError, match="must be"):
            biane_v_scalar(m, t, u)
    # u a hair off the atom: v = sqrt(t - u^2) without overflow in the Newton step
    assert abs(biane_v_scalar(m, 1e6, 1e-140) - 1e3) <= 1e-12 * 1e3
    # an atom of weight zero at u does not count
    gap = ScalarMeasure(((-1.0, 0.5), (0.0, 0.0), (1.0, 0.5)))
    assert biane_v_scalar(gap, 0.5, 0.0) == 0.0
    assert abs(biane_v_scalar(gap, 1.5, 0.0) - np.sqrt(0.5)) <= 1e-12


def test_density_grid_semicircle_and_invariants():
    prob = semicircle_problem(point_model(), CPMap.scaled_identity(1.0, 1))
    us = np.linspace(-2.5, 2.5, 301)
    grid = density_grid(prob, us, (2e-3, 1e-3))
    assert grid.method == "richardson"
    assert grid.epsilons == (2e-3, 1e-3)
    assert not grid.failures
    assert np.all(grid.raw >= -1e-10)
    assert np.all(grid.density >= -1e-6)
    interior = np.abs(np.abs(us) - 2.0) > 0.1
    assert np.max(np.abs(grid.density - semicircle_density(us))[interior]) <= 1e-3
    assert abs(grid.mass() - 1.0) <= 5e-3
    cdf = grid.cdf(us)
    assert np.all(np.diff(cdf) >= -1e-15)
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) <= 5e-3


def test_density_grid_arcsine_from_power_problem():
    model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    prob = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    us = np.linspace(-1.8, 1.8, 101)
    grid = density_grid(prob, us, (1e-2, 5e-3))
    assert np.max(np.abs(grid.density - arcsine2_density(us))) <= 1e-3


def test_density_grid_single_epsilon_and_validation():
    prob = semicircle_problem(point_model(), CPMap.scaled_identity(1.0, 1))
    us = np.linspace(-1.0, 1.0, 11)
    grid = density_grid(prob, us, (1e-3,))
    assert grid.method == "none"
    with pytest.raises(ValueError):
        density_grid(prob, [0.0], (1e-3,))
    with pytest.raises(ValueError):
        density_grid(prob, us, ())
    with pytest.raises(ValueError):
        density_grid(prob, us, (1e-3, -1e-4))
    with pytest.raises(ValueError, match="epsilons must be positive and finite"):
        density_grid(prob, us, (1e-2, np.nan))
    for eps in [(1e-2, 1e-2), (2e-2, 1e-2, 2e-2)]:
        with pytest.raises(ValueError, match="epsilons must be distinct"):
            density_grid(prob, us, eps)
    for bad in [us[::-1], np.linspace(-1.0, np.nan, 11), [0.0, np.inf],
                [0.0, 0.5, 0.5, 1.0]]:
        with pytest.raises(ValueError, match="abscissae must be finite and strictly increasing"):
            density_grid(prob, bad, (1e-2, 5e-3))
    with pytest.raises(TypeError, match="str"):
        density_grid("x", us, (1e-2,))


class _LeftHalfFails:
    """A scalar source G(z) = 1/z whose record flags every point with
    Re z < 0 as not converged."""

    base_dim = 1

    def cauchy_stack(self, b_stack, level=1, cfg=None, anderson=False):
        ok = b_stack[:, 0, 0].real >= 0
        return SolveStack(1.0 / b_stack, np.where(ok, 1, 3), np.where(ok, 0.0, 1.0), ok)


def test_density_grid_callable_source_records_failures():
    us = np.linspace(-1.0, 1.0, 5)
    grid = density_grid(_LeftHalfFails(), us, (1e-2, 5e-3))
    bad = {j for j, _ in grid.failures}
    assert bad == {0, 1}
    assert np.all(np.isnan(grid.density[[0, 1]]))
    assert np.all(np.isfinite(grid.density[2:]))
    assert np.isfinite(grid.mass())
    with pytest.raises(TypeError, match="function"):
        density_grid(lambda z: np.array([[1.0 / z]]), us, (1e-2, 5e-3))


class _RecordingStarts:
    """A source that keeps the points, cfg.start and record of each
    cauchy_stack call."""

    def __init__(self, source):
        self.source, self.base_dim, self.calls = source, source.base_dim, []

    def cauchy_stack(self, b_stack, level=1, cfg=None, anderson=False):
        solve = self.source.cauchy_stack(b_stack, level, cfg, anderson)
        self.calls.append((b_stack, cfg.start, solve))
        return solve


def test_density_sheets_start_from_the_fixed_points_of_the_sheet_above():
    prob = semicircle_problem(point_model(), CPMap.scaled_identity(1.0, 1))
    source = _RecordingStarts(prob)
    # 12 steps leave most entries of the first sheet unconverged
    density_grid(source, np.linspace(-2.5, 2.5, 41), (2e-2, 1e-2),
                 SolverConfig(damping=0.5, max_iter=12))
    (_, first, above), (b, start, _) = source.calls
    ok = above.converged
    assert first is None and ok.any() and not ok.all()
    assert np.array_equal(start[ok], above.omega[ok])
    assert np.array_equal(start[~ok], b[~ok])
    assert above._replace(value=b).omega is above.omega


@pytest.mark.parametrize("source", [point_model(), _LeftHalfFails()],
                         ids=["model", "record-without-omega"])
def test_density_sheets_of_sources_without_omega_start_cold(source):
    recording = _RecordingStarts(source)
    density_grid(recording, np.linspace(-1.0, 1.0, 5), (1e-2, 5e-3, 2e-3))
    assert [start for _, start, _ in recording.calls] == [None, None, None]


def test_continued_sheets_match_cold_solves_in_fewer_steps():
    prob = random_problem(np.random.default_rng(3), n=2, m=2)
    us = np.linspace(-3.0, 3.0, 41)
    eps = (2e-2, 1e-2, 5e-3)
    source = _RecordingStarts(prob)
    grid = density_grid(source, us, eps)
    assert not grid.failures
    cold_steps = 0
    for l, e in enumerate(eps):
        cold = prob.cauchy_stack((us[:, None, None] + 1j * e) * np.eye(2), 1,
                                 DENSITY_CONFIG, anderson=True)
        assert cold.converged.all()
        raw = -np.imag(np.trace(cold.value, axis1=-2, axis2=-1) / 2) / np.pi
        assert np.max(np.abs(grid.raw[:, l] - raw)) <= 1e-10
        if l == 0:      # the first sheet is solved cold
            assert np.array_equal(grid.raw[:, l], raw)
        cold_steps += cold.iterations.sum()
    assert sum(solve.iterations.sum() for _, _, solve in source.calls) < cold_steps


def test_density_grid_model_source():
    model = scalar_to_model(ScalarMeasure.point(0.0))
    us = np.linspace(0.5, 1.5, 21)
    grid = density_grid(model, us, (1e-3, 5e-4))
    assert np.max(np.abs(grid.density)) <= 1e-5  # no spectrum away from 0
