"""The 2x2 block upper triangular value and the maps that act on it blockwise.

Every map is compared with a written-out formula on the dense matrix:
np.linalg.inv, np.kron and Kraus sums of 1_k (x) K_j.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from freeconv import CPMap, SubordinationProblem
from freeconv.algebra import BlockUpper, dense, divided_difference, inv, split, upper_block
from freeconv.subordination import _gq_jacobians, _omega_derivative, g_q

from helpers import random_hermitian, random_model, random_problem, random_psd, random_upper

STACK = 3


def _kron_stack(x, m):
    """x otimes 1_m entry by entry, written with np.kron."""
    return np.stack([np.kron(e, np.eye(m)) for e in x.reshape((-1,) + x.shape[-2:])])


def _kraus_sum(kraus, x, level):
    """sum_j (1_k otimes K_j) x (1_k otimes K_j)*, entry by entry."""
    out = 0
    for K in kraus:
        A = np.kron(np.eye(level), K)
        out = out + A @ x @ A.conj().T
    return out


def _point(rng, level, n, sharing, diagonal):
    """A BlockUpper at level 2 or 4 over M_n; diagonal(d) draws an innermost
    diagonal block.  At level 4 the diagonal blocks are level-2 points whose
    own lower-left block is zero.  sharing: "shared" (2-d diagonal blocks),
    "per-entry" (one per entry of the stack) or "equal" (one 2-d block on both
    diagonals)."""
    d = n * level // 2

    def block():
        if level == 2:
            return diagonal(n)
        c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        return upper_block(diagonal(n), c, diagonal(n))

    def diag():
        return block() if sharing != "per-entry" else np.stack([block() for _ in range(STACK)])

    corner = rng.standard_normal((STACK, d, d)) + 1j * rng.standard_normal((STACK, d, d))
    top = diag()
    return BlockUpper(top, corner, top if sharing == "equal" else diag())


def _check(got, want, point):
    assert isinstance(got, BlockUpper)
    if point.bottom is point.top:
        assert got.bottom is got.top
    full = got.dense()
    h = full.shape[-1] // 2
    assert not full[..., h:, :h].any()
    assert np.max(np.abs(full - want)) <= 1e-12 * np.max(np.abs(want))


def _upper(rng):
    return lambda d: random_upper(rng, d, margin=0.3)


MAPS = ["inv", "embed", "apply", "expect", "cauchy", "h dense", "h spectral", "h power",
        "g_q in u", "g_q in v"]


@pytest.mark.parametrize("kind", MAPS)
@settings(max_examples=12, deadline=None, database=None)
@given(level=st.sampled_from([2, 4]), n=st.integers(1, 3), m=st.integers(1, 3),
       sharing=st.sampled_from(["shared", "per-entry", "equal"]),
       seed=st.integers(0, 2**32 - 1))
def test_maps_on_a_block_upper_match_dense_formulas(kind, level, n, m, sharing, seed):
    rng = np.random.default_rng(seed)
    if kind == "h spectral":
        n = 1
    model = random_model(rng, n, m)
    Xk = np.kron(np.eye(level), model.X)

    def resolvent(w):
        return np.linalg.inv(_kron_stack(w, m) - Xk)

    if kind.startswith("g_q"):
        prob = random_problem(rng, n=n, m=m)
        q = np.kron(np.eye(level), 0.1 * np.eye(n) + random_psd(rng, n))
        sa = _point(rng, level, n, sharing, lambda d: random_hermitian(rng, d))
        pd = _point(rng, level, n, sharing, lambda d: np.eye(d) + random_psd(rng, d))
        if kind == "g_q in u":
            point, u, v = sa, sa, np.kron(np.eye(level), np.eye(n) + random_psd(rng, n))
        else:
            point, u, v = pd, np.kron(np.eye(level), random_hermitian(rng, n)), pd
        X2 = np.kron(np.eye(level), prob.model.X)
        Y = X2 - _kron_stack(dense(u), m)
        inner = Y @ _kron_stack(np.linalg.inv(dense(v)), m) @ Y + _kron_stack(dense(v), m)
        got = g_q(prob, q, u, v, level)
        want = q + _kraus_sum(prob.eta.kraus, np.linalg.inv(inner), level)
        _check(got, want, point)
        return

    point = _point(rng, level, n, sharing, _upper(rng))
    w = point.dense()
    if kind == "inv":
        got, want = inv(point, level), np.linalg.inv(w)
    elif kind == "embed":
        got, want = model.embed(point), _kron_stack(w, m)
    elif kind == "apply":
        K = [rng.standard_normal((n, n * m)) + 1j * rng.standard_normal((n, n * m))
             for _ in range(int(rng.integers(1, 4)))]
        cp = CPMap.from_kraus(K, to_base=True)
        x = _point(rng, level, n * m, sharing, _upper(rng))
        got, want, point = cp.apply(x, level), _kraus_sum(K, x.dense(), level), x
    elif kind == "expect":
        x = _point(rng, level, n * m, sharing, _upper(rng))
        got = model.expect(x, level)
        want, point = _kraus_sum(model.expectation_kraus(), x.dense(), level), x
    elif kind == "cauchy":
        got = model.cauchy(point, level)
        want = _kraus_sum(model.expectation_kraus(), resolvent(w), level)
    elif kind in ("h dense", "h spectral"):
        prob = random_problem(rng, n=n, m=m)
        Xk = np.kron(np.eye(level), prob.model.X)
        got = prob.h_map(point, level)
        want = _kraus_sum(prob.eta.kraus, np.linalg.inv(Xk - _kron_stack(w, m)), level)
    else:
        K = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        prob = SubordinationProblem.power(model, CPMap.from_kraus([np.eye(n), 0.5 * K]))
        G = _kraus_sum(model.expectation_kraus(), resolvent(w), level)
        h = np.linalg.inv(G) - w
        got = prob.h_map(point, level)
        want = _kraus_sum(prob.alpha.kraus, h, level) - h
    _check(got, want, point)


def test_arithmetic_matches_the_dense_matrices():
    rng = np.random.default_rng(3)
    x = _point(rng, 2, 2, "shared", lambda d: random_upper(rng, d))
    y = _point(rng, 2, 2, "per-entry", lambda d: random_upper(rng, d))
    a, b = x.dense(), y.dense()
    for got, want in [(x + y, a + b), (x - y, a - b), (x @ y, a @ b), (-x, -a),
                      (b[0] @ x, b[0] @ a), (x + 0.0, a), (a - y, a - b)]:
        _check(got, want, y)
    full = rng.standard_normal((4, 4)) + 0j        # lower-left not zero: dense result
    assert np.array_equal(x + full, a + full)
    assert x.shape == (STACK, 4, 4) and len(x) == STACK


def test_split_and_dense_round_trip():
    rng = np.random.default_rng(4)
    x = _point(rng, 2, 2, "shared", lambda d: random_upper(rng, d))
    a = x.dense()
    back = split(a, 2)
    assert isinstance(back, BlockUpper) and back.top.ndim == 2
    assert np.array_equal(back.dense(), a)
    assert split(a, 1) is a and split(a, 3) is a
    a[0, 2, 0] = 1e-300
    assert split(a, 2) is a
    same = split(np.kron(np.eye(2), a[1, :2, :2]), 2)
    assert same.bottom is same.top


def _count_inverses(monkeypatch):
    sizes = []
    original = np.linalg.inv

    def counting(a):
        sizes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(np.linalg, "inv", counting)
    return sizes


def test_divided_difference_at_one_point_inverts_the_ambient_block_once(monkeypatch):
    # the d^2 matrix units share w on both diagonals: one N x N inverse
    n, m = 2, 3
    rng = np.random.default_rng(5)
    prob = random_problem(rng, n=n, m=m)
    w = random_upper(rng, n)
    sizes = _count_inverses(monkeypatch)
    J = _omega_derivative(prob, 1)(w[None], np.arange(1))[0]
    assert sizes == [(n * m, n * m)]
    assert J.shape == (n * n, n * n)

    del sizes[:]
    v = np.eye(n) + random_psd(rng, n)
    _gq_jacobians(prob, random_hermitian(rng, n)[None], v[None], 1)
    assert sizes == [(n * m, n * m)]

    del sizes[:]
    divided_difference(lambda x: prob.model.cauchy(x, 2), w, w, np.eye(n)[None] + 0j)
    assert sizes == [(n * m, n * m)]
