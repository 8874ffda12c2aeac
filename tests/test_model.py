import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import (
    CPMap,
    MomentRequest,
    OperatorModel,
    ScalarMeasure,
    SubordinationProblem,
    cauchy_transform,
    h_transform,
    moment,
    moment_growth_bound,
    scalar_to_model,
)
from freeconv.algebra import BlockUpper, dag, identity_kron, imag_part, opnorm

from helpers import random_hermitian, random_model, random_psd, random_upper


def bernoulli_model():
    return scalar_to_model(ScalarMeasure.symmetric_bernoulli())


def test_scalar_measure_validation():
    with pytest.raises(ValueError):
        ScalarMeasure(atoms=((0.0, 0.7), (1.0, 0.7)))
    with pytest.raises(ValueError):
        ScalarMeasure(atoms=((0.0, -0.1), (1.0, 1.1)))
    with pytest.raises(ValueError, match="atom weights"):
        ScalarMeasure(atoms=((0.0, np.nan),))
    m = ScalarMeasure.symmetric_bernoulli()
    assert np.allclose(m.locations, [-1.0, 1.0])
    assert np.allclose(m.weights, [0.5, 0.5])


def test_scalar_to_model_is_diagonal_with_atom_weights():
    model = bernoulli_model()
    assert model.base_dim == 1 and model.ambient_dim == 2
    assert np.allclose(model.X, np.diag([-1.0, 1.0]))
    assert np.allclose(model.weights, [0.5, 0.5])


def test_expectation_is_unital_positive_bimodule():
    rng = np.random.default_rng(0)
    for uniform in (True, False):
        model = random_model(rng, 2, 3, uniform=uniform)
        N, n = model.ambient_dim, model.base_dim
        assert np.allclose(model.expect(np.eye(N)), np.eye(n))
        p = random_psd(rng, N)
        assert np.linalg.eigvalsh(model.expect(p))[0] >= -1e-12
        x = rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        lhs = model.expect(model.embed(b) @ x @ model.embed(c))
        assert np.allclose(lhs, b @ model.expect(x) @ c, atol=1e-12)
        assert np.allclose(model.expect(model.embed(b)), b)


def test_expectation_kraus_reproduces_expect():
    rng = np.random.default_rng(1)
    model = random_model(rng, 2, 3, uniform=False)
    from freeconv.algebra import CPMap
    em = CPMap.from_kraus(model.expectation_kraus(), to_base=True)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.allclose(em.apply(x), model.expect(x))


def test_model_validation_errors():
    with pytest.raises(ValueError):
        OperatorModel.partial_trace(np.eye(5), 2)  # 5 not divisible by 2
    with pytest.raises(ValueError):
        OperatorModel(X=np.eye(4), base_dim=2, weights=np.array([0.5, 0.6]))
    with pytest.raises(ValueError, match="nonnegative and sum to 1"):
        OperatorModel(X=np.eye(2), base_dim=1, weights=np.array([np.nan, 1.0]))
    with pytest.raises(ValueError, match="not selfadjoint"):
        OperatorModel.partial_trace(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)


def test_bernoulli_cauchy_values_by_hand():
    model = bernoulli_model()
    G_i = cauchy_transform(model, np.array([[1j]]))
    assert abs(G_i[0, 0] - (-0.5j)) < 1e-14
    G_2i = cauchy_transform(model, np.array([[2j]]))
    assert abs(G_2i[0, 0] - (-0.4j)) < 1e-14


def test_bernoulli_h_transform_values_by_hand():
    model = bernoulli_model()
    h_i = h_transform(model, np.array([[1j]]))
    assert abs(h_i[0, 0] - 1j) < 1e-13
    h_2i = h_transform(model, np.array([[2j]]))
    assert abs(h_2i[0, 0] - 0.5j) < 1e-13


def test_cauchy_maps_halfplanes_and_conjugates():
    rng = np.random.default_rng(2)
    model = random_model(rng, 2, 2)
    b = random_upper(rng, 2)
    G = cauchy_transform(model, b)
    assert np.linalg.eigvalsh(imag_part(G))[-1] < 0  # strictly lower half-plane
    G_conj = cauchy_transform(model, dag(b))
    assert np.allclose(G_conj, dag(G))
    with pytest.raises(ValueError, match="definite imaginary part"):
        cauchy_transform(model, random_hermitian(rng, 2))


def test_h_transform_has_nonnegative_imaginary_part():
    rng = np.random.default_rng(3)
    for _ in range(5):
        model = random_model(rng, 2, 3)
        w = random_upper(rng, 2)
        h = h_transform(model, w)
        assert np.linalg.eigvalsh(imag_part(h))[0] >= -1e-11


def test_cauchy_level_consistency():
    rng = np.random.default_rng(4)
    model = random_model(rng, 2, 2)
    b = random_upper(rng, 2)
    lifted = np.kron(np.eye(2), b)
    G2 = model.cauchy(lifted, 2)
    assert np.allclose(G2, np.kron(np.eye(2), model.cauchy(b, 1)), atol=1e-12)


@st.composite
def scalar_base_problems(draw):
    """A generic problem over a scalar base: X with repeated eigenvalues (N <= 12)
    and non-uniform weights from scalar_to_model, possibly rotated, and eta
    with 1-3 Kraus rows of shape 1 x N; plus a seed for the points."""
    N = draw(st.integers(1, 12))
    levels = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=N))
    mass = draw(st.lists(st.floats(0.05, 1.0), min_size=N, max_size=N))
    weights = np.array(mass) / np.sum(mass)
    atoms = tuple((levels[s % len(levels)], float(w)) for s, w in enumerate(weights))
    model = scalar_to_model(ScalarMeasure(atoms))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        V = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))[0]
        model = OperatorModel(X=V @ model.X @ dag(V), base_dim=1, weights=model.weights)
    kraus = [rng.standard_normal((1, N)) + 1j * rng.standard_normal((1, N))
             for _ in range(draw(st.integers(1, 3)))]
    eta = CPMap.from_kraus(kraus, to_base=True)
    return SubordinationProblem.generic(model, eta), rng


@pytest.mark.parametrize("level", [1, 2])
@settings(max_examples=20, deadline=None, database=None)
@given(drawn=scalar_base_problems())
def test_scalar_base_spectral_sums_match_dense_resolvents(level, drawn):
    problem, rng = drawn
    model, eta = problem.model, problem.eta
    b = np.stack([random_upper(rng, level) for _ in range(3)])
    G_dense = model.expect(model.resolvent(b, level), level)
    h_dense = eta.apply(np.linalg.inv(identity_kron(level, model.X) - model.embed(b)), level)
    for got, want in ((model.cauchy(b, level), G_dense), (problem.h_map(b, level), h_dense)):
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("point, level", [
    (1j * np.eye(3), 1),
    (1j * np.eye(4), 1),
    (BlockUpper(1j * np.eye(3), np.zeros((3, 3)), 1j * np.eye(3)), 2),
], ids=["dense", "dense level", "block"])
def test_resolvent_names_a_point_of_the_wrong_size(point, level):
    # the size is checked against level * base_dim before the subtraction,
    # which raised numpy's broadcast error
    model = OperatorModel.partial_trace(np.eye(4), 2)
    size = point.shape[-1]
    with pytest.raises(ValueError, match=f"size {size} does not match level {level} "
                                         f"over base_dim 2"):
        model.cauchy(point, level)


def test_resolvent_identity():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 3)
    b = random_upper(rng, 2)
    R = model.resolvent(b)
    assert np.allclose((model.embed(b) - model.X) @ R, np.eye(6), atol=1e-12)


def test_moments_match_hand_values():
    model = bernoulli_model()
    assert np.allclose(moment(model, MomentRequest(0, ())), np.eye(1))
    assert np.allclose(moment(model, MomentRequest(1, ())), np.zeros((1, 1)))
    one = np.eye(1)
    assert np.allclose(moment(model, MomentRequest(2, (one,))), np.eye(1))
    with pytest.raises(ValueError):
        MomentRequest(3, (one,))  # needs two interleaving arguments


def test_moment_growth_bound_bernoulli():
    model = bernoulli_model()
    bound = moment_growth_bound(model)
    assert bound <= 1.0 + 1e-12
    assert model.norm_bound() == pytest.approx(1.0)


def test_moment_symmetry_under_adjoint():
    rng = np.random.default_rng(6)
    model = random_model(rng, 2, 2)
    b1 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b2 = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    m = moment(model, MomentRequest(3, (b1, b2)))
    m_rev = moment(model, MomentRequest(3, (dag(b2), dag(b1))))
    assert np.allclose(dag(m), m_rev, atol=1e-12)
