"""Random-matrix sampling for validating predicted spectral densities.

Ensembles are a deterministic selfadjoint part plus an independent random
part: either a GUE matrix with variance t/size per entry, or a Haar-rotated
diagonal matrix whose entries are semicircle quantiles (same limit, but the
noise is exactly rotation-invariant with a deterministic spectrum).  Sampling
uses the counter-based Philox generator so that runs are reproducible from
the recorded seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import require_hermitian
from .model import ScalarMeasure
from .transforms import DensityGrid

RNG_ALGORITHM = "philox4x64"

ENSEMBLE_KINDS = ("deterministic_plus_gue", "deterministic_plus_haar_rotated")


@dataclass(frozen=True)
class EnsembleSpec:
    """Recipe for one random-matrix ensemble.

    deterministic is a selfadjoint matrix (its size fixes matrix_size) or a
    ScalarMeasure, realized as a diagonal matrix with atom multiplicities
    assigned by largest remainder.
    """

    kind: str
    deterministic: object
    t: float
    matrix_size: int
    samples: int
    seed: int

    def __post_init__(self):
        if self.kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if not 0 <= self.t < np.inf:
            raise ValueError("t must be finite and nonnegative")
        for name in ("matrix_size", "samples", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.matrix_size < 2:
            raise ValueError("matrix_size must be at least 2")
        if self.samples < 1:
            raise ValueError("samples must be positive")
        if isinstance(self.deterministic, ScalarMeasure):
            return
        mat = require_hermitian(self.deterministic, name="deterministic part")
        if mat.shape[0] != self.matrix_size:
            raise ValueError("deterministic matrix size must equal matrix_size")
        object.__setattr__(self, "deterministic", mat)

    def deterministic_matrix(self) -> np.ndarray:
        if not isinstance(self.deterministic, ScalarMeasure):
            return np.asarray(self.deterministic, dtype=complex)
        counts = _atom_counts(self.deterministic.weights, self.matrix_size)
        diag = np.repeat(self.deterministic.locations, counts)
        return np.diag(diag.astype(complex))


@dataclass
class EmpiricalSpectrum:
    """Pooled sorted eigenvalues of sampled ensemble realizations."""

    eigenvalues: np.ndarray
    matrix_size: int
    samples: int
    seed: int
    kind: str
    rng_algorithm: str = RNG_ALGORITHM


def _atom_counts(weights: np.ndarray, size: int) -> np.ndarray:
    """Integer multiplicities proportional to weights (largest remainder)."""
    ideal = np.asarray(weights, dtype=float) * size
    counts = np.floor(ideal).astype(int)
    short = size - int(counts.sum())
    if short:
        order = np.argsort(-(ideal - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def gue_sample(rng: np.random.Generator, size: int, t: float) -> np.ndarray:
    """One GUE matrix: selfadjoint, entry variance t/size, semicircle limit."""
    A = (rng.standard_normal((size, size)) +
         1j * rng.standard_normal((size, size))) / np.sqrt(2.0)
    H = (A + A.conj().T) / np.sqrt(2.0)
    return H * np.sqrt(t / size)


def haar_unitary(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a Ginibre matrix with phase fix."""
    Z = (rng.standard_normal((size, size)) +
         1j * rng.standard_normal((size, size))) / np.sqrt(2.0)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def semicircle_quantiles(size: int, t: float) -> np.ndarray:
    """Quantiles of the semicircle law of variance t at (j - 1/2)/size.

    All quantiles are bisected together on the closed-form CDF over
    [-2 sqrt(t), 2 sqrt(t)]; 64 halvings take the bracket below one ulp.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    if not (np.isfinite(t) and t >= 0):
        raise ValueError("t must be nonnegative and finite")
    if t == 0.0:
        return np.zeros(size)
    r = 2.0 * np.sqrt(t)
    ps = (np.arange(size) + 0.5) / size
    lo, hi = np.full(size, -r), np.full(size, r)
    for _ in range(64):
        x = 0.5 * (lo + hi)
        below = 0.5 + (x * np.sqrt(r * r - x * x) / (r * r)
                       + np.arcsin(x / r)) / np.pi < ps
        lo, hi = np.where(below, x, lo), np.where(below, hi, x)
    return 0.5 * (lo + hi)


def sample_rmt_spectrum(spec: EnsembleSpec) -> EmpiricalSpectrum:
    """Pool eigenvalues of `samples` independent realizations of the ensemble."""
    rng = _rng(spec.seed)
    D = spec.deterministic_matrix()
    size = spec.matrix_size
    pooled = []
    if spec.kind == "deterministic_plus_haar_rotated":
        S = semicircle_quantiles(size, spec.t)
    for _ in range(spec.samples):
        if spec.kind == "deterministic_plus_gue":
            H = D + gue_sample(rng, size, spec.t)
        else:
            U = haar_unitary(rng, size)
            H = D + (U * S) @ U.conj().T
        pooled.append(np.linalg.eigvalsh(H))
    eigs = np.sort(np.concatenate(pooled))
    return EmpiricalSpectrum(eigenvalues=eigs, matrix_size=size,
                             samples=spec.samples, seed=spec.seed, kind=spec.kind)


def compare_density(emp: EmpiricalSpectrum, grid: DensityGrid) -> float:
    """Kolmogorov-Smirnov distance between pooled eigenvalues and a predicted
    density, integrated to a CDF on the grid.

    The grid must cover the sampled spectrum with half a unit of margin so
    that the predicted CDF has flattened out at both ends, and must list no
    failed points, whose density the CDF would count as zero.
    """
    if grid.failures:
        raise ValueError(f"density grid lists {len(grid.failures)} failed points")
    eigs = emp.eigenvalues
    lo, hi = float(grid.abscissae[0]), float(grid.abscissae[-1])
    if eigs[0] - 0.5 < lo or eigs[-1] + 0.5 > hi:
        raise ValueError(
            f"density grid [{lo:g}, {hi:g}] does not cover the sampled spectrum "
            f"[{eigs[0]:g}, {eigs[-1]:g}] with 0.5 margin")
    F = grid.cdf(eigs)
    k = eigs.size
    upper = np.abs(F - np.arange(1, k + 1) / k)
    lower = np.abs(F - np.arange(0, k) / k)
    return float(np.max(np.maximum(upper, lower)))
