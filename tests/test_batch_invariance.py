"""A stacked call gives every entry the bits of its one-entry call.

CP maps multiply each point (or block) by the natural matrix in a product
of its own, so no entry's sums depend on the other entries of its stack,
and the solves that apply them inherit that.  The values are compared with
np.array_equal, not to a tolerance.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from freeconv import SolverConfig, solve_omega_stack
from freeconv.subordination import solve_gq_stack
from freeconv.transforms import semicircle_problem

from helpers import (random_eta, random_hermitian, random_model, random_power_problem,
                     random_problem, random_psd, random_upper)

CFG = SolverConfig(tol=1e-12, max_iter=3000)


def _problem(rng, variant: str, n: int, m: int):
    if variant == "power":
        return random_power_problem(rng, n, m)
    if variant == "beta":
        return semicircle_problem(random_model(rng, n, m), random_eta(rng, n, n, terms=3))
    return random_problem(rng, n=n, m=m)


def _cp_maps(problem):
    if problem.variant == "power":
        return (problem.alpha,)
    return (problem.eta,) if problem.beta is None else (problem.eta, problem.beta)


def _assert_entrywise(stacked, single):
    """Each field of a stacked record equals that of the one-entry record."""
    for i, one in enumerate(single):
        for got, want in zip(stacked, one):
            assert np.array_equal(got[i], want[0]), (i, got[i], want[0])


@settings(max_examples=60, deadline=None, database=None)
@given(variant=st.sampled_from(["generic", "beta", "power"]), n=st.integers(1, 3),
       m=st.integers(1, 4), size=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_stacked_entries_match_one_entry_calls(variant, n, m, size, seed):
    rng = np.random.default_rng(seed)
    problem = _problem(rng, variant, n, m)
    for cp in _cp_maps(problem):
        for level in (1, 2):
            d = level * cp.in_dim
            x = rng.standard_normal((size, d, d)) + 1j * rng.standard_normal((size, d, d))
            out = cp.apply(x, level)
            for i in range(size):
                assert np.array_equal(out[i], cp.apply(x[i], level))
    b = np.stack([random_upper(rng, n) for _ in range(size)])
    for anderson in (False, True):
        _assert_entrywise(solve_omega_stack(problem, b, CFG, anderson=anderson),
                          [solve_omega_stack(problem, b[i:i + 1], CFG, anderson=anderson)
                           for i in range(size)])
    q = np.stack([0.2 * np.eye(n) + random_psd(rng, n, 0.5) for _ in range(size)])
    u = np.stack([random_hermitian(rng, n) for _ in range(size)])
    _assert_entrywise(solve_gq_stack(problem, q, u, CFG),
                      [solve_gq_stack(problem, q[i:i + 1], u[i:i + 1], CFG)
                       for i in range(size)])
