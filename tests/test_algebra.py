import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from freeconv.algebra import (
    CPMap,
    LinearMapOnB,
    as_element,
    choi_minus_identity_min,
    dag,
    direct_sum,
    divided_difference,
    halfplane_margin,
    identity_kron,
    imag_part,
    in_halfplane,
    inv,
    is_hermitian,
    kron_with_identity,
    linearize_on_basis,
    matrix_units,
    opnorm,
    real_part,
    require_halfplane,
    require_hermitian,
    unvec,
    vec,
)

from helpers import random_hermitian, random_psd


def test_as_element_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        as_element(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        as_element(np.array([[np.nan, 0], [0, 1]]))


def test_hermitian_check_and_symmetrization():
    rng = np.random.default_rng(0)
    h = random_hermitian(rng, 3)
    assert is_hermitian(h + 1e-12 * 1j * np.eye(3))
    sym = require_hermitian(h + 1e-12 * 1j * np.eye(3))
    assert opnorm(sym - dag(sym)) == 0.0
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError, match="not selfadjoint"):
        require_hermitian(h + skew)


def test_halfplane_margins():
    rng = np.random.default_rng(1)
    im = random_psd(rng, 2, scale=0.5) + 0.3 * np.eye(2)
    w = random_hermitian(rng, 2) + 1j * im
    assert halfplane_margin(w, "upper") == pytest.approx(
        np.linalg.eigvalsh(imag_part(w))[0])
    assert in_halfplane(w, "upper")
    assert not in_halfplane(w, "lower")
    assert in_halfplane(dag(w), "lower")
    assert in_halfplane(im + 0.1 * 1j * random_hermitian(rng, 2), "right")
    with pytest.raises(ValueError, match="half-plane"):
        require_halfplane(w, "lower")
    with pytest.raises(ValueError):
        halfplane_margin(w, "sideways")


def test_kron_with_identity_matches_kron_and_batches():
    rng = np.random.default_rng(2)
    b = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
    lifted = kron_with_identity(b, 3)
    for k in range(3):
        assert np.allclose(lifted[k], np.kron(b[k], np.eye(3)))
    assert np.allclose(identity_kron(2, b[0]), np.kron(np.eye(2), b[0]))
    for m in range(1, 5):
        lifted = kron_with_identity(b, m)
        assert lifted.shape == (3, 2 * m, 2 * m)
        for k in range(3):
            assert np.array_equal(lifted[k], np.kron(b[k], np.eye(m)))


def test_direct_sum_blocks():
    a = np.ones((2, 2))
    b = 2.0 * np.ones((1, 1))
    s = direct_sum(a, b)
    assert s.shape == (3, 3)
    assert np.allclose(s[:2, :2], a) and s[2, 2] == 2.0 and np.all(s[:2, 2] == 0)


def test_cp_map_positivity_and_unitality():
    rng = np.random.default_rng(3)
    kraus = [rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
             for _ in range(3)]
    m = CPMap.from_kraus(kraus, to_base=True)
    p = random_psd(rng, 4)
    out = m.apply(p)
    assert np.linalg.eigvalsh(real_part(out))[0] >= -1e-12
    ident = CPMap.scaled_identity(1.0, 3)
    x = random_hermitian(rng, 3)
    assert np.allclose(ident.apply(x), x)
    with pytest.raises(ValueError):
        CPMap.scaled_identity(-0.5, 2)


def test_cp_map_amplified_apply_is_blockwise():
    rng = np.random.default_rng(4)
    kraus = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
    m = CPMap.from_kraus(kraus)
    x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    y = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    block = direct_sum(x, y)
    out = m.apply(block, level=2)
    assert np.allclose(out, direct_sum(m.apply(x), m.apply(y)))


def test_cp_compose_matches_sequential_application():
    rng = np.random.default_rng(5)
    inner = CPMap.from_kraus([rng.standard_normal((2, 6)) * 0.3
                              for _ in range(2)], to_base=True)
    outer = CPMap.from_kraus([rng.standard_normal((2, 2)) + 0.5j * np.eye(2)])
    comp = outer.compose(inner)
    x = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert np.allclose(comp.apply(x), outer.apply(inner.apply(x)))


def test_cp_map_rejects_bad_kraus_families():
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        CPMap(kraus=(), out_dim=2, in_dim=2)
    with pytest.raises(ValueError, match="at least one Kraus operator"):
        CPMap.from_kraus([])
    with pytest.raises(ValueError, match="must be matrices"):
        CPMap.from_kraus([np.ones(3)])
    with pytest.raises(ValueError, match="must be matrices"):
        CPMap.from_kraus([np.eye(2), np.ones((1, 2, 2))])
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite entries"):
            CPMap.from_kraus([np.eye(2), np.array([[1.0, bad], [0.0, 1.0]])])


def _kraus_loop(kraus, x, level):
    """sum_j (1_k otimes K_j) x (1_k otimes K_j)*, written out directly."""
    out = 0
    for K in kraus:
        A = np.kron(np.eye(level), K)
        out = out + A @ x @ A.conj().T
    return out


@st.composite
def kraus_shapes(draw):
    """(out_dim, in_dim, operators): square maps with 1-2 operators on M_n,
    n <= 4, or maps into a smaller B with 3-12 operators.  Both sides of
    the kernel rule out*in < m*(in + out) occur."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 4))
        return n, n, draw(st.integers(1, 2))
    out = draw(st.integers(1, 4))
    return out, draw(st.integers(out + 1, 16)), draw(st.integers(3, 12))


@settings(max_examples=60, deadline=None, database=None)
@given(shape=kraus_shapes(), level=st.integers(1, 3),
       batch=st.sampled_from([(), (2,), (2, 3)]), seed=st.integers(0, 2**32 - 1))
@example(shape=(4, 4, 1), level=2, batch=(2,), seed=0)     # Kraus loop
@example(shape=(3, 3, 2), level=3, batch=(), seed=1)      # natural matrix
@example(shape=(4, 16, 3), level=2, batch=(2,), seed=2)   # Kraus loop
@example(shape=(3, 30, 12), level=2, batch=(2,), seed=3)  # natural matrix
def test_cp_apply_matches_amplified_kraus_loop(shape, level, batch, seed):
    out_dim, in_dim, m = shape
    rng = np.random.default_rng(seed)
    kraus = [rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
             for _ in range(m)]
    cp = CPMap.from_kraus(kraus, to_base=out_dim != in_dim)
    d = level * in_dim
    x = rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))
    got = cp.apply(x, level)
    want = _kraus_loop(kraus, x, level)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("level", [1, 2, 3])
def test_scaled_identity_applies_as_its_scale(level):
    rng = np.random.default_rng(level)
    for n in (1, 2, 4):
        d = level * n
        x = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        got = CPMap.scaled_identity(2.5, n).apply(x, level)
        assert np.max(np.abs(got - 2.5 * x)) <= 1e-14 * np.max(np.abs(x))


def test_natural_matrix_is_read_only_and_cached():
    rng = np.random.default_rng(9)
    cp = CPMap.from_kraus([rng.standard_normal((2, 5)) for _ in range(3)], to_base=True)
    assert cp.natural.shape == (4, 25)
    assert cp.natural is cp.natural
    with pytest.raises(ValueError):
        cp.natural[0, 0] = 1.0


def test_choi_certifies_alpha_minus_identity():
    assert choi_minus_identity_min(CPMap.scaled_identity(2.0, 2)) >= -1e-10
    assert choi_minus_identity_min(CPMap.scaled_identity(1.0, 3)) >= -1e-10
    # alpha = 0.5 Id has alpha - Id completely negative
    assert choi_minus_identity_min(CPMap.scaled_identity(0.5, 2)) < -0.4


def test_choi_of_a_random_map_is_the_matrix_unit_sum():
    rng = np.random.default_rng(10)
    kraus = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3)]
    choi = CPMap.from_kraus(kraus).choi()
    want = sum(np.kron(E, _kraus_loop(kraus, E, 1)) for E in matrix_units(3))
    assert np.max(np.abs(choi - want)) <= 1e-13 * np.max(np.abs(want))
    # alpha = 0.5 Id on M_3: alpha - Id is completely negative
    assert choi_minus_identity_min(CPMap.scaled_identity(0.5, 3)) < -0.4


@st.composite
def amplified_stacks(draw):
    """(stack, level, kind): points of M_level(M_n) with n <= 3, level <= 4,
    in a stack of shape (), (1,), (4,) or (2, 3).  kind "dense" has a nonzero
    lower-left half block; "shared" and "unshared" zero it (at even levels)
    with the diagonal blocks equal across the stack or drawn per entry, and
    at level 4 the diagonal blocks may be block upper triangular too."""
    n, level = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    batch = draw(st.sampled_from([(), (1,), (4,), (2, 3)]))
    kind = draw(st.sampled_from(["dense", "shared", "unshared"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = n * level
    # unit-size entries plus a shift: well conditioned, so the two routes
    # agree to rounding
    a = (rng.standard_normal(batch + (d, d)) + 1j * rng.standard_normal(batch + (d, d))) / d
    a = a + (2.0 + 1.0j) * np.eye(d)
    h = d // 2
    if kind != "dense" and level % 2 == 0:
        a[..., h:, :h] = 0.0
        if level == 4 and draw(st.booleans()):
            q = h // 2
            a[..., q:h, :q] = 0.0
            a[..., h + q:, h:h + q] = 0.0
        if kind == "shared" and batch:
            first = a.reshape((-1, d, d))[0]
            a[..., :h, :h] = first[:h, :h]
            a[..., h:, h:] = first[h:, h:]
    return a, level, kind


@settings(max_examples=80, deadline=None, database=None)
@given(drawn=amplified_stacks())
def test_inv_matches_dense_inverse(drawn):
    a, level, kind = drawn
    got = inv(a, level)
    want = np.linalg.inv(a)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
    h = a.shape[-1] // 2
    if level % 2 == 0 and kind != "dense":
        assert not got[..., h:, :h].any()


def test_inv_of_a_block_triangular_point_by_hand():
    # [[a, c], [0, d]]^{-1} = [[1/a, -c/(a d)], [0, 1/d]], shared diagonal blocks
    a = np.array([[[2.0, 3.0], [0.0, 4.0]], [[2.0, -1.0], [0.0, 4.0]]], dtype=complex)
    want = np.array([[[0.5, -3.0 / 8.0], [0.0, 0.25]],
                     [[0.5, 1.0 / 8.0], [0.0, 0.25]]], dtype=complex)
    assert np.array_equal(inv(a, 2), want)
    with pytest.raises(np.linalg.LinAlgError):
        inv(np.array([[0.0, 1.0], [0.0, 1.0]], dtype=complex), 2)


@pytest.mark.parametrize("shape", [(3, 3, 1), (2, 6, 5)])
def test_cp_apply_keeps_a_zero_lower_left_block(shape):
    # (3, 3, 1) takes the Kraus loop, (2, 6, 5) the natural matrix
    out_dim, in_dim, m = shape
    rng = np.random.default_rng(13)
    kraus = [rng.standard_normal((out_dim, in_dim)) + 1j * rng.standard_normal((out_dim, in_dim))
             for _ in range(m)]
    cp = CPMap.from_kraus(kraus, to_base=out_dim != in_dim)
    x = rng.standard_normal((4, 2 * in_dim, 2 * in_dim)) \
        + 1j * rng.standard_normal((4, 2 * in_dim, 2 * in_dim))
    x[:, in_dim:, :in_dim] = 0.0
    got = cp.apply(x, 2)
    assert not got[:, out_dim:, :out_dim].any()
    want = _kraus_loop(kraus, x, 2)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_divided_difference_of_a_cubic():
    # f(x) = x^3 has Delta f(w1, w2)[c] = w1^2 c + w1 c w2 + c w2^2
    rng = np.random.default_rng(12)
    w1 = rng.standard_normal((2, 1, 3, 3)) + 1j * rng.standard_normal((2, 1, 3, 3))
    w2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    cs = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    got = divided_difference(lambda x: x @ x @ x, w1, w2, cs)
    want = w1 @ w1 @ cs + w1 @ cs @ w2 + cs @ w2 @ w2
    assert got.shape == (2, 4, 3, 3)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_vec_unvec_column_stacking():
    c = np.array([[1.0, 2.0], [3.0, 4.0]])
    v = vec(c)
    assert np.allclose(v, [1.0, 3.0, 2.0, 4.0])
    assert np.allclose(unvec(v, 2), c)


def test_linearize_reproduces_two_sided_multiplication():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    lin = linearize_on_basis(lambda c: A @ c @ B, 3)
    # on vec with column stacking, c -> A c B has matrix B^T kron A
    assert np.allclose(lin.matrix, np.kron(B.T, A))
    c = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert np.allclose(lin(c), A @ c @ B)
    assert lin.spectral_radius() == pytest.approx(
        np.max(np.abs(np.linalg.eigvals(lin.matrix))))


def test_linearize_batch_path_and_nonlinear_rejection():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((2, 2))
    lin = linearize_on_basis(lambda c: A @ c, 2,
                             batch=lambda cs: A[None] @ cs)
    assert np.allclose(lin.matrix, np.kron(np.eye(2), A))
    with pytest.raises(ValueError, match="map not linear"):
        linearize_on_basis(lambda c: c @ c, 2)


def test_linear_map_compose():
    rng = np.random.default_rng(8)
    m1 = LinearMapOnB(2, rng.standard_normal((4, 4)))
    m2 = LinearMapOnB(2, rng.standard_normal((4, 4)))
    c = rng.standard_normal((2, 2))
    assert np.allclose(m1.compose(m2)(c), m1(m2(c)))


def test_inv_divides_a_one_by_one_point():
    rng = np.random.default_rng(21)
    a = (rng.standard_normal((5, 1, 1)) + 1j * rng.standard_normal((5, 1, 1))) \
        * 10.0 ** rng.uniform(-6, 6, (5, 1, 1))
    want = np.linalg.inv(a)
    assert np.max(np.abs(inv(a, 1) - want) / np.abs(want)) <= 1e-15
    with pytest.raises(np.linalg.LinAlgError):
        inv(np.array([[[1.0]], [[0.0]]], dtype=complex), 1)
