"""Finite-dimensional operator models.

A model is a Hermitian element X of an ambient matrix algebra A = M_N(C)
together with a trace-preserving conditional expectation E: A -> B onto
B = M_n(C).  The ambient algebra factors as M_n otimes M_m (N = n * m) and E
is a weighted partial trace over the second factor; uniform weights give the
normalized partial trace and n = 1 with atom weights encodes a scalar measure
with finitely many atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .algebra import (
    HERMITIAN_TOL,
    POSITIVITY_TOL,
    BlockUpper,
    amplification_level,
    as_element,
    dag,
    identity_kron,
    in_halfplane,
    inv,
    kron_with_identity,
    opnorm,
    require_hermitian,
)
from .subordination import SolveStack


@dataclass(frozen=True)
class ScalarMeasure:
    """Compactly supported probability measure with finitely many atoms."""

    atoms: tuple[tuple[float, float], ...]  # (location, weight) pairs

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("a scalar measure needs at least one atom")
        locs = np.array([a[0] for a in self.atoms], dtype=float)
        wts = np.array([a[1] for a in self.atoms], dtype=float)
        if not np.all(np.isfinite(locs)):
            raise ValueError("atom locations must be finite")
        if not np.all(wts >= 0):        # NaN fails both tests
            raise ValueError("atom weights must be nonnegative")
        if not abs(wts.sum() - 1.0) <= 1e-12:
            raise ValueError("atom weights must sum to 1")

    @property
    def locations(self) -> np.ndarray:
        return np.array([a[0] for a in self.atoms], dtype=float)

    @property
    def weights(self) -> np.ndarray:
        return np.array([a[1] for a in self.atoms], dtype=float)

    @classmethod
    def point(cls, c: float) -> "ScalarMeasure":
        return cls(atoms=((float(c), 1.0),))

    @classmethod
    def symmetric_bernoulli(cls) -> "ScalarMeasure":
        return cls(atoms=((-1.0, 0.5), (1.0, 0.5)))


@dataclass(frozen=True)
class OperatorModel:
    """Hermitian X in M_N(C) with a weighted partial-trace expectation onto M_n(C)."""

    X: np.ndarray
    base_dim: int
    weights: np.ndarray

    def __post_init__(self):
        X = require_hermitian(self.X, HERMITIAN_TOL, name="X")
        object.__setattr__(self, "X", X)
        n = int(self.base_dim)
        if n < 1:
            raise ValueError("base_dim must be positive")
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise ValueError("weights must be a nonempty vector")
        if not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-12):   # NaN fails both
            raise ValueError("weights must be nonnegative and sum to 1")
        object.__setattr__(self, "weights", w)
        if X.shape[0] != n * w.size:
            raise ValueError(
                f"ambient dimension {X.shape[0]} is not base_dim {n} "
                f"times factor dimension {w.size}")

    @classmethod
    def partial_trace(cls, X, base_dim: int) -> "OperatorModel":
        X = as_element(X, "X")
        if X.shape[0] % base_dim:
            raise ValueError("ambient dimension must be a multiple of base_dim")
        m = X.shape[0] // base_dim
        return cls(X=X, base_dim=base_dim, weights=np.full(m, 1.0 / m))

    @property
    def factor_dim(self) -> int:
        return self.weights.size

    @property
    def ambient_dim(self) -> int:
        return self.base_dim * self.factor_dim

    @property
    def uniform(self) -> bool:
        w = self.weights
        return bool(np.allclose(w, 1.0 / w.size, atol=1e-15))

    def embed(self, b):
        """B -> A (or M_k(B) -> M_k(A)): tensor with the identity factor;
        a BlockUpper is embedded block by block."""
        return kron_with_identity(b, self.factor_dim)

    def expect(self, x, level: int = 1):
        """Weighted partial trace, applied blockwise at amplification level k;
        a BlockUpper point at level k is mapped block by block at level k/2."""
        if isinstance(x, BlockUpper):
            return x.map_blocks(lambda blk: self._expect(blk, level // 2))
        return self._expect(x, level)

    def _expect(self, x: np.ndarray, level: int) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        n, m = self.base_dim, self.factor_dim
        d = level * n * m
        if x.shape[-1] != d or x.shape[-2] != d:
            raise ValueError(f"expectation input shape {x.shape} does not match level {level}")
        xr = x.reshape(x.shape[:-2] + (level, n, m, level, n, m))
        out = np.einsum("...pisqjs,s->...piqj", xr, self.weights)
        return out.reshape(x.shape[:-2] + (level * n, level * n))

    def expectation_kraus(self) -> list[np.ndarray]:
        """Kraus operators of E: slices weighted by sqrt(w_s)."""
        n, m = self.base_dim, self.factor_dim
        ops = []
        for s in range(m):
            sel = np.zeros((1, m), dtype=complex)
            sel[0, s] = 1.0
            ops.append(np.sqrt(self.weights[s]) * np.kron(np.eye(n, dtype=complex), sel))
        return ops

    def norm_bound(self) -> float:
        return opnorm(self.X)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """(eigenvalues, eigenvectors) of X, computed on first use and kept
        read-only, since every later call shares them."""
        lam, U = np.linalg.eigh(self.X)
        lam.flags.writeable = U.flags.writeable = False
        return lam, U

    def spectral_sum(self, c: np.ndarray, b, level: int = 1):
        """sum_j c_j (b - lambda_j)^{-1} over the eigenvalues lambda_j of X.

        b is a (stacked) point of M_k(C); at level 1 each term is a scalar
        division, at level k > 1 one k x k inverse per eigenvalue.  With
        base_dim 1 the Cauchy transform and the generic nonlinearity of a
        subordination problem have this form.  The corner of a BlockUpper
        sum is -sum_j c_j R1_j C R2_j, with R1_j and R2_j the eigenvalue
        resolvents of its diagonal blocks.
        """
        if not isinstance(b, BlockUpper):
            b = np.asarray(b, dtype=complex)
        if b.shape[-2:] != (level, level):
            raise ValueError(f"spectral sum input shape {b.shape} does not match level {level}")
        if isinstance(b, BlockUpper):
            R1 = self._eigen_resolvents(b.top, level // 2)
            R2 = R1 if b.bottom is b.top else self._eigen_resolvents(b.bottom, level // 2)
            top = np.einsum("j,...jpq->...pq", c, R1)
            bottom = top if R2 is R1 else np.einsum("j,...jpq->...pq", c, R2)
            C = b.corner[..., None, :, :]
            corner = R1 * C * R2 if level == 2 else R1 @ C @ R2   # 1 x 1 blocks commute
            return BlockUpper(top, -np.einsum("j,...jpq->...pq", c, corner), bottom)
        if level == 1:
            return ((1.0 / (b - self.spectrum[0])) @ c)[..., None]
        return np.einsum("j,...jpq->...pq", c, self._eigen_resolvents(b, level))

    def _eigen_resolvents(self, b: np.ndarray, level: int) -> np.ndarray:
        """(b - lambda_j)^{-1} for every eigenvalue lambda_j of X, stacked on
        axis -3: a division at level 1, a batched inverse otherwise."""
        x = b[..., None, :, :] - self.spectrum[0][:, None, None] * np.eye(level)
        return 1.0 / x if level == 1 else np.linalg.inv(x)

    @cached_property
    def _cauchy_weights(self) -> np.ndarray:
        """p_j = E(u_j u_j*) for the eigenvectors u_j of X (base_dim 1)."""
        return self.weights @ np.abs(self.spectrum[1]) ** 2

    def resolvent(self, b, level: int = 1):
        """(b - X otimes 1_k)^{-1}, batched; block by block for a BlockUpper b.
        A point whose size is not level * base_dim is a ValueError."""
        size = 2 * b.corner.shape[-1] if isinstance(b, BlockUpper) else np.shape(b)[-1]
        if size != level * self.base_dim:
            raise ValueError(f"resolvent point of size {size} does not match level {level} "
                             f"over base_dim {self.base_dim} (size {level * self.base_dim})")
        if isinstance(b, BlockUpper):
            Xh = identity_kron(level // 2, self.X)
            return inv(self.embed(b).map_blocks(lambda blk: blk - Xh, lambda c: c), level)
        return inv(self.embed(b) - identity_kron(level, self.X), level)

    def cauchy(self, b, level: int = 1):
        """(E otimes Id_k)[(b - X otimes 1_k)^{-1}]; a scalar base sums over
        the spectrum of X, a larger base inverts the resolvent."""
        if self.base_dim == 1:
            return self.spectral_sum(self._cauchy_weights, b, level)
        return self.expect(self.resolvent(b, level), level)

    def cauchy_stack(self, b_stack: np.ndarray, level: int = 1, cfg=None,
                     anderson: bool = False) -> SolveStack:
        """G on a stack, as the record of a solve of zero steps: a model
        needs no solve."""
        m = len(b_stack)
        return SolveStack(self.cauchy(b_stack, level), np.zeros(m, dtype=np.int64),
                          np.zeros(m), np.ones(m, dtype=bool))


def cauchy_transform(model: OperatorModel, b, level: int | None = None) -> np.ndarray:
    """Matricial Cauchy transform G(b) = (E otimes Id_k)[(b - X otimes 1_k)^{-1}].

    Defined for b with definite imaginary part; maps the upper half-plane of
    M_k(B) into the lower one and satisfies G(b*) = G(b)*.
    """
    b = as_element(b, "b")
    k = amplification_level(b, model.base_dim) if level is None else level
    if b.shape[-1] != k * model.base_dim:
        raise ValueError("level does not match the size of b")
    _require_definite(b)
    return model.cauchy(b, k)


def _require_definite(b: np.ndarray) -> None:
    """ValueError unless Im b is positive or negative definite, where a
    Cauchy transform is defined."""
    if not (in_halfplane(b, "upper", POSITIVITY_TOL)
            or in_halfplane(b, "lower", POSITIVITY_TOL)):
        raise ValueError("b must have a definite imaginary part")


def h_transform(model: OperatorModel, b, level: int | None = None) -> np.ndarray:
    """h(b) = G(b)^{-1} - b; has positive semidefinite imaginary part on the upper half-plane."""
    b = as_element(b, "b")
    k = amplification_level(b, model.base_dim) if level is None else level
    G = cauchy_transform(model, b, k)
    return np.linalg.inv(G) - b


@dataclass(frozen=True)
class MomentRequest:
    """Mixed moment E[X b_1 X ... b_{order-1} X]; order 0 is the unit of B."""

    order: int
    args: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        if self.order < 0:
            raise ValueError("order must be nonnegative")
        expected = max(self.order - 1, 0)
        if len(self.args) != expected:
            raise ValueError(
                f"order {self.order} needs {expected} interleaved arguments, "
                f"got {len(self.args)}")


def moment(model: OperatorModel, request: MomentRequest) -> np.ndarray:
    n = model.base_dim
    if request.order == 0:
        return np.eye(n, dtype=complex)
    acc = model.X.copy()
    for b in request.args:
        b = as_element(b, "moment argument")
        if b.shape[0] != n:
            raise ValueError("moment arguments live in B")
        acc = acc @ model.embed(b) @ model.X
    return model.expect(acc)


def moment_growth_bound(model: OperatorModel, k_max: int = 6, trials: int = 8,
                        seed: int = 0) -> float:
    """Empirical exponential-growth proxy max ||moment||^(1/(k+1)).

    Sampled over random unit-norm argument tuples at orders 1..k_max; the
    sampling is deterministic for a fixed seed.  For bounded X the value is
    dominated by ||X||.
    """
    rng = np.random.default_rng(seed)
    n = model.base_dim
    bound = 0.0
    for order in range(1, k_max + 1):
        for _ in range(trials):
            args = []
            for _ in range(order - 1):
                c = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
                args.append(c / opnorm(c))
            val = opnorm(moment(model, MomentRequest(order, tuple(args))))
            bound = max(bound, val ** (1.0 / (order + 1)))
    return bound


def scalar_to_model(measure: ScalarMeasure) -> OperatorModel:
    """Diagonal model of a scalar measure: X = diag(locations), atom-weighted trace."""
    locs = measure.locations
    return OperatorModel(X=np.diag(locs).astype(complex), base_dim=1,
                         weights=measure.weights)
