import numpy as np
import pytest

from freeconv import (
    CPMap,
    EmpiricalSpectrum,
    EnsembleSpec,
    ScalarMeasure,
    compare_density,
    density_grid,
    sample_rmt_spectrum,
    scalar_to_model,
)
from freeconv.harness import (
    RNG_ALGORITHM,
    _atom_counts,
    _rng,
    gue_sample,
    haar_unitary,
    semicircle_quantiles,
)
from freeconv.transforms import semicircle_problem

BERN = ScalarMeasure.symmetric_bernoulli()


@pytest.fixture(scope="module")
def bernoulli_grid():
    prob = semicircle_problem(scalar_to_model(BERN), CPMap.scaled_identity(1.0, 1))
    return density_grid(prob, np.linspace(-3.8, 3.8, 761), (2e-2, 1e-2))


@pytest.fixture(scope="module")
def wide_semicircle_grid():
    prob = semicircle_problem(
        scalar_to_model(ScalarMeasure.point(0.0)), CPMap.scaled_identity(1.0, 1)
    )
    return density_grid(prob, np.linspace(-3.0, 13.0, 3201), (1e-2, 5e-3))


def test_ensemble_spec_validation():
    with pytest.raises(ValueError):
        EnsembleSpec("white_noise", BERN, 1.0, 10, 1, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic_plus_gue", BERN, -0.5, 10, 1, 0)
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="t must be finite and nonnegative"):
            EnsembleSpec("deterministic_plus_gue", BERN, t, 10, 1, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic_plus_gue", BERN, 1.0, 1, 1, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic_plus_gue", BERN, 1.0, 10, 0, 0)
    with pytest.raises(ValueError):
        EnsembleSpec("deterministic_plus_gue", np.eye(3), 1.0, 4, 1, 0)
    with pytest.raises(ValueError):
        EnsembleSpec(
            "deterministic_plus_gue", np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, 2, 1, 0
        )


# matrix_size 10.5 failed in sample_rmt_spectrum with "slice indices must be
# integers", samples 2.0 with a TypeError and seed 1.5 in SeedSequence
@pytest.mark.parametrize("field, value", [
    ("matrix_size", 10.5), ("samples", 2.0), ("seed", 1.5), ("samples", True),
], ids=["matrix_size", "samples", "seed", "bool"])
def test_ensemble_spec_refuses_non_integers(field, value):
    fields = {"matrix_size": 10, "samples": 2, "seed": 0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        EnsembleSpec("deterministic_plus_gue", BERN, 1.0, **fields)


def test_ensemble_spec_takes_numpy_integers_as_ints():
    spec = EnsembleSpec("deterministic_plus_gue", BERN, 1.0, np.int64(10), np.int32(2),
                        np.uint8(3))
    assert (spec.matrix_size, spec.samples, spec.seed) == (10, 2, 3)
    assert all(type(x) is int for x in (spec.matrix_size, spec.samples, spec.seed))


def test_atom_counts_largest_remainder():
    counts = _atom_counts(np.array([0.7, 0.2, 0.1]), 10)
    assert counts.tolist() == [7, 2, 1]
    # remainders 0.3, 0.8, 0.9 -> the two largest get the spare slots
    counts = _atom_counts(np.array([0.7, 0.2, 0.1]), 9)
    assert counts.tolist() == [6, 2, 1]
    counts = _atom_counts(np.array([0.5, 0.5]), 5)
    assert counts.sum() == 5
    assert set(counts.tolist()) == {2, 3}


def test_deterministic_matrix_from_measure():
    spec = EnsembleSpec("deterministic_plus_gue", BERN, 0.0, 6, 1, 0)
    D = spec.deterministic_matrix()
    diag = np.sort(np.diagonal(D).real)
    assert np.array_equal(diag, np.array([-1.0, -1.0, -1.0, 1.0, 1.0, 1.0]))
    assert np.max(np.abs(D - np.diag(np.diagonal(D)))) == 0.0


def test_zero_noise_repeats_deterministic_spectrum():
    A = np.diag([0.5, -1.5, 2.0, 0.0])
    spec = EnsembleSpec("deterministic_plus_gue", A, 0.0, 4, 3, seed=44)
    emp = sample_rmt_spectrum(spec)
    expect = np.sort(np.tile(np.sort(np.diagonal(A).real), 3))
    assert np.max(np.abs(emp.eigenvalues - expect)) < 1e-14
    assert emp.eigenvalues.size == 12


def test_same_seed_is_bit_identical():
    spec = EnsembleSpec("deterministic_plus_gue", BERN, 1.0, 50, 4, seed=7)
    emp1 = sample_rmt_spectrum(spec)
    emp2 = sample_rmt_spectrum(spec)
    assert np.array_equal(emp1.eigenvalues, emp2.eigenvalues)
    assert emp1.eigenvalues.size == 200
    assert np.all(np.diff(emp1.eigenvalues) >= 0)
    assert emp1.rng_algorithm == RNG_ALGORITHM
    other = sample_rmt_spectrum(
        EnsembleSpec("deterministic_plus_gue", BERN, 1.0, 50, 4, seed=8)
    )
    assert not np.array_equal(emp1.eigenvalues, other.eigenvalues)


def test_gue_entry_normalization():
    size, t = 2000, 2.0
    H = gue_sample(_rng(11), size, t)
    assert np.max(np.abs(H - H.conj().T)) < 1e-14
    off = H[~np.eye(size, dtype=bool)]
    assert abs(np.mean(np.abs(off) ** 2) * size / t - 1.0) < 0.1
    assert abs(np.var(np.diagonal(H).real) * size / t - 1.0) < 0.15


def test_pure_gue_matches_semicircle_support():
    spec = EnsembleSpec(
        "deterministic_plus_gue", np.zeros((1000, 1000)), 1.0, 1000, 2, seed=5
    )
    emp = sample_rmt_spectrum(spec)
    assert abs(np.mean(emp.eigenvalues)) <= 0.05
    assert np.max(np.abs(emp.eigenvalues)) <= 2.2


def test_haar_unitary_is_unitary():
    U = haar_unitary(_rng(3), 60)
    assert np.max(np.abs(U.conj().T @ U - np.eye(60))) < 1e-12


def test_semicircle_quantiles():
    assert np.array_equal(semicircle_quantiles(7, 0.0), np.zeros(7))
    t = 1.3
    q = semicircle_quantiles(101, t)
    r = 2.0 * np.sqrt(t)
    assert np.all(np.diff(q) > 0)
    assert np.max(np.abs(q + q[::-1])) < 1e-10
    assert np.max(np.abs(q)) < r
    # closed-form CDF evaluated at the quantiles returns the target ranks
    cdf = 0.5 + (q * np.sqrt(r * r - q * q) / (r * r) + np.arcsin(q / r)) / np.pi
    assert np.max(np.abs(cdf - (np.arange(101) + 0.5) / 101)) < 1e-10


def test_semicircle_quantiles_rejects_bad_input():
    assert semicircle_quantiles(0, 1.0).shape == (0,)
    for size, t in [(-1, 1.0), (5, -1.0), (5, np.nan), (5, np.inf)]:
        with pytest.raises(ValueError, match="must be"):
            semicircle_quantiles(size, t)


def test_haar_rotated_variant(bernoulli_grid):
    spec = EnsembleSpec(
        "deterministic_plus_haar_rotated", BERN, 1.0, 300, 2, seed=19
    )
    emp = sample_rmt_spectrum(spec)
    again = sample_rmt_spectrum(spec)
    assert np.array_equal(emp.eigenvalues, again.eigenvalues)
    assert emp.eigenvalues.size == 600
    ks = compare_density(emp, bernoulli_grid)
    assert ks < 0.1


def test_compare_density_synthetic_self_test(wide_semicircle_grid):
    grid = wide_semicircle_grid
    xs = grid.abscissae
    F = grid.cdf(xs)
    keep = np.concatenate(([True], np.diff(F) > 0))
    m = 100000
    u = (np.arange(m) + 0.5) / m * F[keep][-1]
    samples = np.interp(u, F[keep], xs[keep])
    emp = EmpiricalSpectrum(np.sort(samples), m, 1, 0, "synthetic")
    assert compare_density(emp, grid) <= 0.01


def test_compare_density_disjoint_supports(wide_semicircle_grid):
    grid = wide_semicircle_grid
    xs = grid.abscissae
    F = grid.cdf(xs)
    keep = np.concatenate(([True], np.diff(F) > 0))
    m = 2000
    u = (np.arange(m) + 0.5) / m * F[keep][-1]
    samples = np.interp(u, F[keep], xs[keep]) + 10.0
    emp = EmpiricalSpectrum(np.sort(samples), m, 1, 0, "synthetic")
    assert compare_density(emp, grid) >= 0.99


def test_compare_density_coverage_error(wide_semicircle_grid):
    emp = EmpiricalSpectrum(np.array([-2.9, 0.0, 12.8]), 3, 1, 0, "synthetic")
    with pytest.raises(ValueError):
        compare_density(emp, wide_semicircle_grid)


def test_ks_decreases_with_matrix_size(bernoulli_grid):
    values = []
    pooled = []
    for size in (200, 500, 1000):
        spec = EnsembleSpec("deterministic_plus_gue", BERN, 1.0, size, 5, seed=902)
        emp = sample_rmt_spectrum(spec)
        values.append(compare_density(emp, bernoulli_grid))
        pooled.append(emp.eigenvalues.size)
    # recorded trend: monotone within twice the sampling noise of the
    # coarser run (noise ~ 1/sqrt(pooled count))
    for i in range(2):
        assert values[i + 1] <= values[i] + 2.0 / np.sqrt(pooled[i])
    assert values[-1] <= 0.05
