"""Dense complex matrix algebra over B = M_n(C).

Half-plane geometry, completely positive maps in Kraus form, and
linearization of maps on B via the matrix-unit basis.  Everything here is
plain numpy; matrices are ndarrays of complex dtype and functions accept
stacked arrays (leading batch axes) wherever that is cheap to support.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

# tolerance for accepting an almost-Hermitian input before symmetrizing
HERMITIAN_TOL = 1e-10
# default margin for membership in an open cone / half-plane
POSITIVITY_TOL = 1e-12


def as_element(x, name: str = "matrix") -> np.ndarray:
    """Validate and return a square complex matrix."""
    arr = np.asarray(x, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} has non-finite entries")
    return arr


def dag(x: np.ndarray) -> np.ndarray:
    return np.conjugate(np.swapaxes(x, -1, -2))


def real_part(x: np.ndarray) -> np.ndarray:
    return 0.5 * (x + dag(x))


def imag_part(x: np.ndarray) -> np.ndarray:
    return (x - dag(x)) / 2j


def opnorm(x: np.ndarray) -> float:
    """Operator (spectral) norm of a single matrix."""
    return float(np.linalg.norm(x, 2))


def opnorm_stack(x: np.ndarray) -> np.ndarray:
    """Largest singular value along the last two axes."""
    return np.linalg.svd(x, compute_uv=False)[..., 0]


def is_hermitian(x: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    x = as_element(x)
    return opnorm(x - dag(x)) <= tol * (1.0 + opnorm(x))


def require_hermitian(x, tol: float = HERMITIAN_TOL, name: str = "matrix") -> np.ndarray:
    """Symmetrize an almost-Hermitian matrix; reject anything farther away."""
    x = as_element(x, name)
    if not is_hermitian(x, tol):
        raise ValueError(f"{name} is not selfadjoint")
    return real_part(x)


def lambda_min(h: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (not checked)."""
    return float(np.linalg.eigvalsh(h)[0])


def lambda_max(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(h)[-1])


def is_strictly_positive(h, tol: float = POSITIVITY_TOL) -> bool:
    """True iff h is selfadjoint (within HERMITIAN_TOL) with lambda_min > tol."""
    h = require_hermitian(h, name="positivity candidate")
    return lambda_min(h) > tol


# Half-plane membership.  "upper"/"lower" refer to the sign of the imaginary
# part, "right" to the sign of the real part.

_SIDES = ("upper", "lower", "right")


def halfplane_margin(x: np.ndarray, side: str = "upper") -> float:
    x = as_element(x)
    if side == "upper":
        return lambda_min(imag_part(x))
    if side == "lower":
        return -lambda_max(imag_part(x))
    if side == "right":
        return lambda_min(real_part(x))
    raise ValueError(f"unknown half-plane side {side!r}")


def in_halfplane(x, side: str = "upper", tol: float = POSITIVITY_TOL) -> bool:
    return halfplane_margin(x, side) > tol


def require_halfplane(x, side: str = "upper", tol: float = POSITIVITY_TOL,
                      name: str = "point") -> np.ndarray:
    x = as_element(x, name)
    if not in_halfplane(x, side, tol):
        raise ValueError(f"{name} is not in the {side} half-plane (margin tolerance {tol:g})")
    return x


def kron_with_identity(b: np.ndarray, m: int) -> np.ndarray:
    """b otimes 1_m, batched over leading axes of b.

    With the (level, base, factor) index ordering used throughout, this is
    both the embedding of B into the ambient algebra and its lift to any
    amplification level.
    """
    if m == 1:
        return b
    b = np.asarray(b, dtype=complex)
    d = b.shape[-1]
    out = np.einsum("...ij,st->...isjt", b, np.eye(m))
    return out.reshape(b.shape[:-2] + (d * m, d * m))


def amplification_level(point: np.ndarray, base_dim: int) -> int:
    """Level k of a (stacked) point of M_k(B), B = M_n(C) with n = base_dim."""
    d = point.shape[-1]
    if d % base_dim:
        raise ValueError(f"point of size {d} is not an amplification of B (dim {base_dim})")
    return d // base_dim


def identity_kron(k: int, x: np.ndarray) -> np.ndarray:
    """1_k otimes x (diagonal block repetition)."""
    if k == 1:
        return np.asarray(x, dtype=complex)
    return np.kron(np.eye(k), x)


def direct_sum(*blocks: np.ndarray) -> np.ndarray:
    """Block-diagonal direct sum of square matrices."""
    blocks = [as_element(b) for b in blocks]
    d = sum(b.shape[0] for b in blocks)
    out = np.zeros((d, d), dtype=complex)
    pos = 0
    for b in blocks:
        s = b.shape[0]
        out[pos:pos + s, pos:pos + s] = b
        pos += s
    return out


def upper_block(top_left, top_right, bottom_right) -> np.ndarray:
    """[[top_left, top_right], [0, bottom_right]], batched over leading axes."""
    d = top_left.shape[-1]
    out = np.zeros(top_left.shape[:-2] + (2 * d, 2 * d), dtype=complex)
    out[..., :d, :d] = top_left
    out[..., :d, d:] = top_right
    out[..., d:, d:] = bottom_right
    return out


def c_scale(c: np.ndarray, margin1: float, margin2: float) -> np.ndarray:
    """Scale lam that keeps [[b1, lam c], [0, b2]] in the half-plane of b1 and b2,
    given their half-plane margins; batched over leading axes of c."""
    return min(1.0, margin1 * margin2) / (2.0 * opnorm_stack(c) + 1.0)


# ---------------------------------------------------------------------------
# Completely positive maps
# ---------------------------------------------------------------------------

CP_KINDS = ("scaled_identity", "kraus_on_B", "kraus_to_B")


@dataclass(frozen=True)
class CPMap:
    """Completely positive map x -> sum_j K_j x K_j* given by Kraus operators.

    Kraus operators are (out_dim, in_dim) matrices; maps into B from a larger
    ambient algebra are the kraus_to_B kind.  Application at amplification
    level k acts blockwise, i.e. with the operators 1_k otimes K_j.
    """

    kraus: tuple[np.ndarray, ...]
    out_dim: int
    in_dim: int
    kind: str = "kraus_on_B"
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in CP_KINDS:
            raise ValueError(f"unknown CP map kind {self.kind!r}")
        for K in self.kraus:
            if K.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {K.shape} does not match "
                    f"({self.out_dim}, {self.in_dim})")

    @classmethod
    def scaled_identity(cls, scale: float, dim: int) -> "CPMap":
        scale = float(scale)
        if scale < 0:
            raise ValueError("scale must be nonnegative")
        K = np.sqrt(scale) * np.eye(dim, dtype=complex)
        return cls(kraus=(K,), out_dim=dim, in_dim=dim,
                   kind="scaled_identity", scale=scale)

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray], to_base: bool = False) -> "CPMap":
        ops = tuple(np.asarray(K, dtype=complex) for K in kraus)
        if not ops:
            raise ValueError("at least one Kraus operator is required")
        out_dim, in_dim = ops[0].shape
        kind = "kraus_to_B" if (to_base or out_dim != in_dim) else "kraus_on_B"
        return cls(kraus=ops, out_dim=out_dim, in_dim=in_dim, kind=kind)

    def amplified_kraus(self, level: int) -> list[np.ndarray]:
        return [identity_kron(level, K) for K in self.kraus]

    def apply(self, x: np.ndarray, level: int = 1) -> np.ndarray:
        """Evaluate the map (blockwise at amplification level > 1)."""
        x = np.asarray(x, dtype=complex)
        d = self.in_dim * level
        if x.shape[-1] != d or x.shape[-2] != d:
            raise ValueError(
                f"input of shape {x.shape} does not match in_dim {self.in_dim} "
                f"at level {level}")
        out = None
        for K in self.amplified_kraus(level):
            term = (K @ x) @ dag(K)
            out = term if out is None else out + term
        return out

    def __call__(self, x: np.ndarray, level: int = 1) -> np.ndarray:
        return self.apply(x, level)

    def compose(self, other: "CPMap") -> "CPMap":
        """self after other, by multiplying out the Kraus families."""
        if other.out_dim != self.in_dim:
            raise ValueError("dimension mismatch in CP map composition")
        ops = tuple(K @ L for K in self.kraus for L in other.kraus)
        return CPMap.from_kraus(ops, to_base=(self.out_dim != other.in_dim))

    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij E_ij otimes map(E_ij); square maps only."""
        if self.in_dim != self.out_dim:
            raise ValueError("Choi matrix is only assembled for maps on B")
        units = matrix_units(self.in_dim)
        return sum(np.kron(E, F) for E, F in zip(units, self.apply(units)))

    def norm_bound(self) -> float:
        """Operator norm of map(1), a convenient size proxy."""
        return opnorm(self.apply(np.eye(self.in_dim, dtype=complex)))


def choi_minus_identity_min(alpha: CPMap, tol: float = HERMITIAN_TOL) -> float:
    """lambda_min of Choi(alpha) - Choi(Id); >= -1e-10 certifies alpha - Id CP."""
    n = alpha.in_dim
    ident = CPMap.scaled_identity(1.0, n)
    gap = alpha.choi() - ident.choi()
    return lambda_min(require_hermitian(gap, tol, name="Choi difference"))


# ---------------------------------------------------------------------------
# Linearization on the matrix-unit basis
# ---------------------------------------------------------------------------


def vec(c: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization (E_ij basis, row index fastest),
    batched over leading axes."""
    c = np.asarray(c, dtype=complex)
    return np.swapaxes(c, -1, -2).reshape(c.shape[:-2] + (-1,))


def unvec(v: np.ndarray, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=complex)
    return np.swapaxes(v.reshape(v.shape[:-1] + (n, n)), -1, -2)


def matrix_units(n: int) -> np.ndarray:
    """Stack of the n^2 matrix units E_ij of M_n(C), in vec order."""
    return np.swapaxes(np.eye(n * n, dtype=complex).reshape(n * n, n, n), -1, -2)


@dataclass(frozen=True)
class LinearMapOnB:
    """A linear map on B = M_n(C) stored as an n^2 x n^2 matrix on vec(B)."""

    n: int
    matrix: np.ndarray

    def __call__(self, c: np.ndarray) -> np.ndarray:
        return unvec(self.matrix @ vec(c), self.n)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def spectral_radius(self) -> float:
        return float(np.max(np.abs(self.eigenvalues())))

    def compose(self, other: "LinearMapOnB") -> "LinearMapOnB":
        if other.n != self.n:
            raise ValueError("dimension mismatch")
        return LinearMapOnB(self.n, self.matrix @ other.matrix)


LINEARITY_TOL = 1e-10


def linearize_on_basis(f: Callable[[np.ndarray], np.ndarray], n: int,
                       batch: Callable[[np.ndarray], np.ndarray] | None = None,
                       check: bool = True) -> LinearMapOnB:
    """Sample a map on matrix units and assemble its matrix on vec(B).

    A cheap superposition check on random inputs guards against passing a
    nonlinear map; ``batch``, when given, evaluates a stack of inputs in one
    call and must agree with ``f`` pointwise.
    """
    rng = np.random.default_rng(0)
    checks = []
    if check:
        for _ in range(2):
            x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            zeta = complex(rng.standard_normal(), rng.standard_normal())
            checks.append((x, y, zeta))

    inputs = list(matrix_units(n))
    for x, y, zeta in checks:
        inputs.extend([x, y, x + zeta * y])
    stacked = np.stack(inputs)
    outputs = batch(stacked) if batch is not None else np.stack([f(c) for c in stacked])

    pos = n * n
    for x, y, zeta in checks:
        fx, fy, fxy = outputs[pos], outputs[pos + 1], outputs[pos + 2]
        pos += 3
        scale = 1.0 + opnorm(fx) + abs(zeta) * opnorm(fy)
        if opnorm(fxy - fx - zeta * fy) > LINEARITY_TOL * scale:
            raise ValueError("map not linear")

    cols = [vec(outputs[idx]) for idx in range(n * n)]
    return LinearMapOnB(n, np.stack(cols, axis=1))
