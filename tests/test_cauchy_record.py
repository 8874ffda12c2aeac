"""A problem's Cauchy record takes G from the last step of its solve.

The step that evaluated an entry's returned omega already inverted the
resolvent (or G_X) there, so cauchy_stack returns the G_X that step
recorded and makes no closing OperatorModel.cauchy call, except for a
generic problem over a scalar base, whose step is a spectral sum.
"""

import numpy as np
import pytest

import freeconv.parallel as parallel
from freeconv import CPMap, OperatorModel, SolverConfig, SubordinationProblem, solve_omega_stack
from freeconv.algebra import dense, split, upper_block
from freeconv.transforms import semicircle_problem

from helpers import random_eta, random_model, random_upper

STACK = 5
CONFIGS = (SolverConfig(damping=0.5), SolverConfig(max_iter=3))


def _problem(variant, rng, n, model=None):
    model = random_model(rng, n, 3) if model is None else model
    if variant == "eta":
        return SubordinationProblem.generic(model, random_eta(rng, n, 3 * n), 0.3 * np.eye(n))
    if variant == "beta":
        return semicircle_problem(model, CPMap.from_kraus(random_eta(rng, n, n).kraus))
    return SubordinationProblem.power(
        model, CPMap.from_kraus([np.eye(n), *random_eta(rng, n, n).kraus]))


def _points(rng, n, form):
    if form == "level 1":
        return np.stack([random_upper(rng, n) for _ in range(STACK)])
    if form == "level 2 dense":
        return np.stack([random_upper(rng, 2 * n) for _ in range(STACK)])
    return np.stack([upper_block(random_upper(rng, n), rng.standard_normal((n, n)) + 0j,
                                 random_upper(rng, n)) for _ in range(STACK)])


def _count_cauchy(monkeypatch):
    # a step split across CPUs calls once per part, as its timing decides
    monkeypatch.setattr(parallel, "SPLIT_MIN_S", np.inf)
    calls = []
    original = OperatorModel.cauchy

    def counting(self, b, level=1):
        calls.append(level)
        return original(self, b, level)

    monkeypatch.setattr(OperatorModel, "cauchy", counting)
    return calls


def _check_record(monkeypatch, prob, b, level):
    """The record's value equals model.cauchy at its omega, bit for bit,
    and its solve makes no closing model.cauchy call off the scalar
    generic path (the parent made one)."""
    calls = _count_cauchy(monkeypatch)
    closing = int(prob.variant == "generic" and prob.base_dim == 1)
    for anderson in (False, True):
        for cfg in CONFIGS:
            calls.clear()
            record = prob.cauchy_stack(b, level, cfg, anderson)
            in_record = len(calls)
            calls.clear()
            solve = solve_omega_stack(prob, b, cfg, level, anderson)
            assert in_record == len(calls) + closing
            assert np.array_equal(record.omega, solve.value)
            assert np.array_equal(record.iterations, solve.iterations)
            want = dense(prob.model.cauchy(split(record.omega, level), level))
            np.testing.assert_array_equal(record.value, want)
            if cfg.max_iter == 3:
                assert not record.converged.any()


@pytest.mark.parametrize("form", ["level 1", "level 2 dense", "level 2 block upper"])
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["eta", "beta", "power"])
def test_cauchy_record_is_model_cauchy_at_omega(monkeypatch, variant, n, form):
    rng = np.random.default_rng([n, len(form), len(variant)])
    prob = _problem(variant, rng, n)
    b = _points(rng, n, form)
    _check_record(monkeypatch, prob, b, 1 if form == "level 1" else 2)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("variant", ["eta", "beta", "power"])
def test_cauchy_record_of_an_entry_whose_step_is_not_finite(monkeypatch, variant, n):
    # X is diagonal, so at b = (x_0 + 5e-324 i) 1 the resolvent has the
    # entry 1/(5e-324 i), which overflows: the first step is not finite and
    # the entry stops at b with an infinite residual; the others converge
    # (a scalar base divides, and numpy warns of the overflow)
    rng = np.random.default_rng([7, n])
    X = np.diag(rng.uniform(-1.5, 1.5, 3 * n)).astype(complex)
    prob = _problem(variant, rng, n, OperatorModel.partial_trace(X, n))
    b = _points(rng, n, "level 1")
    b[2] = (X[0, 0] + 5e-324j) * np.eye(n)
    with np.errstate(over="ignore", invalid="ignore"):
        record = prob.cauchy_stack(b, 1, CONFIGS[0], anderson=True)
        assert record.converged.tolist() == [True, True, False, True, True]
        assert record.iterations[2] == 1 and record.residual[2] == np.inf
        assert not np.all(np.isfinite(record.value[2]))
        _check_record(monkeypatch, prob, b, 1)
