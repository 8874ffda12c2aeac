"""Dense complex matrix algebra over B = M_n(C).

Half-plane geometry, completely positive maps, difference quotients of nc
functions, and linearization of maps on B via the matrix-unit basis.
Everything here is plain numpy; matrices are ndarrays of complex dtype and
functions accept stacked arrays (leading batch axes) wherever that is cheap
to support.

A completely positive map is stored by its Kraus operators K_1..K_m, of
shape out x in.  It is applied by whichever of two kernels costs less per
point: the loop x -> sum_j K_j x K_j*, about m*out*in*(in + out) flops, or
one product with the cached natural matrix S = sum_j K_j (x) conj(K_j),
out^2 * in^2 flops.  S is used when out*in < m*(in + out); the same rule
keeps S within (in + out) times the storage of the Kraus operators.  At
level k > 1 both kernels act on the k x k blocks of the input.

Derivatives are read off 2x2 block upper triangular points
[[w1, c], [0, w2]] (divided_difference), held as a BlockUpper: the three
blocks top, corner and bottom, without the zero lower-left block.  A
diagonal block shared by a whole stack of directions is held once as a 2-d
array, and one shared by both diagonals (w1 = w2) is one array.  inv,
kron_with_identity, CPMap.apply and + - @ act on the blocks, so the maps
built from them (the resolvents, h_map, g_q) never form the 2N x 2N point.
Those maps also split a dense point at an even level whose lower-left half
block is exactly zero (split), as the iterates of an amplified solve are,
and assemble the result (dense).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

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
    if isinstance(b, BlockUpper):
        return b.map_blocks(lambda blk: kron_with_identity(blk, m))
    b = np.asarray(b, dtype=complex)
    d = b.shape[-1]
    out = np.zeros(b.shape[:-2] + (d, m, d, m), dtype=complex)
    for s in range(m):
        out[..., s, :, s] = b
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


class BlockUpper:
    """A (stacked) 2x2 block upper triangular point [[top, corner], [0, bottom]].

    It stands for its dense matrix (dense()) without storing the zero
    lower-left block.  A diagonal block that every entry of the
    stack shares is held once as a 2-d array and broadcasts against the
    corner stack; a block shared by both diagonals is the same object in
    top and bottom, and every operation computes its image once.  + - @ act
    blockwise on another BlockUpper, or on a dense operand whose lower-left
    half block is exactly zero; with any other operand the result is the
    dense one.  The blocks are read-only values: no operation writes into
    them.
    """

    __slots__ = ("top", "corner", "bottom")
    __array_ufunc__ = None      # ndarray op BlockUpper defers to the reflected method

    def __init__(self, top, corner, bottom):
        self.top, self.corner, self.bottom = top, corner, bottom

    @property
    def shape(self) -> tuple:
        d = self.corner.shape[-1]
        lead = np.broadcast_shapes(self.top.shape[:-2], self.corner.shape[:-2],
                                   self.bottom.shape[:-2])
        return lead + (2 * d, 2 * d)

    @property
    def ndim(self) -> int:
        return len(self.shape)

    def __len__(self) -> int:
        return self.shape[0]

    def dense(self) -> np.ndarray:
        d = self.corner.shape[-1]
        out = np.zeros(self.shape, dtype=complex)
        out[..., :d, :d] = self.top
        out[..., :d, d:] = self.corner
        out[..., d:, d:] = self.bottom
        return out

    def map_blocks(self, diagonal: Callable, corner: Callable | None = None) -> "BlockUpper":
        """[[diagonal(top), corner(c)], [0, diagonal(bottom)]]; corner defaults
        to diagonal, as for a linear map applied blockwise."""
        top = diagonal(self.top)
        bottom = top if self.bottom is self.top else diagonal(self.bottom)
        return BlockUpper(top, (corner or diagonal)(self.corner), bottom)

    def _pairwise(self, other, op, reverse: bool = False):
        if not isinstance(other, BlockUpper):
            other = np.asarray(other)
            blocks = split(np.broadcast_to(other, np.broadcast_shapes(
                other.shape, self.shape[-2:])), 2)
            if not isinstance(blocks, BlockUpper):
                x = self.dense()
                return op(other, x) if reverse else op(x, other)
            other = blocks
        x, y = (other, self) if reverse else (self, other)
        top = op(x.top, y.top)
        shared = x.bottom is x.top and y.bottom is y.top
        bottom = top if shared else op(x.bottom, y.bottom)
        if op is np.matmul:
            corner = x.top @ y.corner + x.corner @ y.bottom
        else:
            corner = op(x.corner, y.corner)
        return BlockUpper(top, corner, bottom)

    def __add__(self, other):
        return self._pairwise(other, np.add)

    def __radd__(self, other):
        return self._pairwise(other, np.add, reverse=True)

    def __sub__(self, other):
        return self._pairwise(other, np.subtract)

    def __rsub__(self, other):
        return self._pairwise(other, np.subtract, reverse=True)

    def __matmul__(self, other):
        return self._pairwise(other, np.matmul)

    def __rmatmul__(self, other):
        return self._pairwise(other, np.matmul, reverse=True)

    def __neg__(self):
        return self.map_blocks(np.negative)


def _shared_block(block: np.ndarray) -> np.ndarray:
    """The first entry (2-d) when every entry of a stacked block equals it."""
    if block.ndim > 2:
        first = block.reshape((-1,) + block.shape[-2:])[0]
        if (block == first).all():
            return first
    return block


def split(a, level: int):
    """The BlockUpper form of a dense (stacked) point at an even level whose
    lower-left half block is exactly zero; every other point is returned as
    it is.  A diagonal block equal in every entry of the stack is kept once
    (2-d), and equal diagonal blocks become one array."""
    if level % 2 or isinstance(a, BlockUpper):
        return a
    d = a.shape[-1] // 2
    if a.shape[-1] % 2 or a[..., d:, :d].any():
        return a
    top = _shared_block(a[..., :d, :d])
    bottom = _shared_block(a[..., d:, d:])
    if top.shape == bottom.shape and np.array_equal(top, bottom):
        bottom = top
    return BlockUpper(top, a[..., :d, d:], bottom)


def dense(x) -> np.ndarray:
    """The dense matrix of a BlockUpper; an array is returned as it is."""
    return x.dense() if isinstance(x, BlockUpper) else x


def inv(a, level: int):
    """Inverse of a (stacked) point of an amplification at level k.

    A BlockUpper point, and a dense point at an even level whose lower-left
    half block is exactly zero (split), is [[A, C], [0, D]], with inverse
    [[A^-1, -A^-1 C D^-1], [0, D^-1]]: the diagonal blocks, points at level
    k/2, are inverted the same way, a block shared by the stack or by both
    diagonals only once.  A BlockUpper gives a BlockUpper, a dense point a
    dense point whose lower-left block is exactly zero again.  Any other
    point goes to np.linalg.inv.
    """
    x = split(a, level)
    if not isinstance(x, BlockUpper):
        return np.linalg.inv(a)
    top = inv(x.top, level // 2)
    bottom = top if x.bottom is x.top else inv(x.bottom, level // 2)
    out = BlockUpper(top, -(top @ x.corner) @ bottom, bottom)
    return out if x is a else out.dense()


def _diagonal_block(w, d: int) -> np.ndarray:
    """A diagonal block for divided_difference: 2-d when it is one matrix,
    else as given, so that it broadcasts against the corner stack instead of
    being repeated for every direction."""
    w = np.asarray(w, dtype=complex)
    return w.reshape(d, d) if w.size == d * d else w


def divided_difference(fmap: Callable, w1: np.ndarray, w2: np.ndarray,
                       cs: np.ndarray) -> np.ndarray:
    """Delta f(w1, w2)[c] for each direction c in the stack cs.

    For an nc function f the (1, 2) block of f([[w1, c], [0, w2]]) is the
    difference quotient Delta f(w1, w2)[c], linear in c, and at w1 = w2 = w
    the derivative Df(w)[c].  fmap evaluates f on a stack of such points in
    one call, given as a BlockUpper, and returns a BlockUpper or a dense
    stack.  The corner is cs broadcast against w1 and w2; the diagonals keep
    their own shapes, so a batch of w1 of shape (B, 1, d, d) against d^2
    directions (B, d^2, d, d) is one block per entry, and a diagonal that is
    one matrix is passed once (2-d).  w1 is w2 passes one block for both
    diagonals.  The stack is flat (one leading axis) when w1, w2 and cs are.
    """
    d = cs.shape[-1]
    shape = np.broadcast_shapes(np.shape(w1), np.shape(w2), cs.shape)
    top = _diagonal_block(w1, d)
    bottom = top if w2 is w1 else _diagonal_block(w2, d)
    corner = np.broadcast_to(np.asarray(cs, dtype=complex), shape)
    out = fmap(BlockUpper(top, corner, bottom))
    corner = out.corner if isinstance(out, BlockUpper) else out[..., :d, d:]
    return corner.reshape(shape)


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
    level k acts on each of the k x k blocks of the input, as the operators
    1_k otimes K_j would, without forming them.  It multiplies by the scale
    for a scaled identity, contracts with the natural matrix when
    out*in < m*(in + out) for m operators (many operators, or a 1x1 map),
    and loops over the Kraus operators otherwise (a few operators on M_n,
    n >= 2).  Both kernels keep a zero block of the input zero in the output.
    """

    kraus: tuple[np.ndarray, ...]
    out_dim: int
    in_dim: int
    kind: str = "kraus_on_B"
    scale: float | None = None

    def __post_init__(self):
        if self.kind not in CP_KINDS:
            raise ValueError(f"unknown CP map kind {self.kind!r}")
        if not self.kraus:
            raise ValueError("at least one Kraus operator is required")
        for K in self.kraus:
            if np.ndim(K) != 2:
                raise ValueError(f"Kraus operators must be matrices, got shape {np.shape(K)}")
            if K.shape != (self.out_dim, self.in_dim):
                raise ValueError(
                    f"Kraus operator shape {K.shape} does not match "
                    f"({self.out_dim}, {self.in_dim})")

    @classmethod
    def scaled_identity(cls, scale: float, dim: int) -> "CPMap":
        scale = float(scale)
        if not (np.isfinite(scale) and scale >= 0):
            raise ValueError("scale must be finite and nonnegative")
        K = np.sqrt(scale) * np.eye(dim, dtype=complex)
        return cls(kraus=(K,), out_dim=dim, in_dim=dim,
                   kind="scaled_identity", scale=scale)

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray], to_base: bool = False) -> "CPMap":
        ops = tuple(np.asarray(K, dtype=complex) for K in kraus)
        # an empty or non-matrix family is rejected by __post_init__
        out_dim, in_dim = ops[0].shape if ops and ops[0].ndim == 2 else (0, 0)
        kind = "kraus_to_B" if (to_base or out_dim != in_dim) else "kraus_on_B"
        return cls(kraus=ops, out_dim=out_dim, in_dim=in_dim, kind=kind)

    @cached_property
    def natural(self) -> np.ndarray:
        """Natural matrix S[(a,b),(c,d)] = sum_j K_j[a,c] conj(K_j[b,d]), read-only.

        vec(map(x)) = S vec(x) with row-major vec; shape out^2 x in^2.
        """
        o, i = self.out_dim, self.in_dim
        K = np.stack(self.kraus)
        # rows (a,c), columns (b,d): one product over the operator index
        prod = K.transpose(1, 2, 0).reshape(o * i, -1) @ K.conj().reshape(-1, o * i)
        S = prod.reshape(o, i, o, i).transpose(0, 2, 1, 3).reshape(o * o, i * i)
        S.flags.writeable = False
        return S

    def apply(self, x, level: int = 1):
        """Evaluate the map (blockwise at amplification level > 1); a
        BlockUpper point at level k is mapped block by block at level k/2."""
        if isinstance(x, BlockUpper):
            return x.map_blocks(lambda blk: self._apply(blk, level // 2))
        return self._apply(x, level)

    def _apply(self, x: np.ndarray, level: int) -> np.ndarray:
        x = np.asarray(x, dtype=complex)
        o, i = self.out_dim, self.in_dim
        d = i * level
        if x.shape[-1] != d or x.shape[-2] != d:
            raise ValueError(
                f"input of shape {x.shape} does not match in_dim {i} "
                f"at level {level}")
        if self.kind == "scaled_identity":
            return self.scale * x
        batch = x.shape[:-2]
        if o * i < len(self.kraus) * (i + o):
            if level == 1:
                return (x.reshape(batch + (i * i,)) @ self.natural.T).reshape(batch + (o, o))
            k = level
            blocks = np.swapaxes(x.reshape(batch + (k, i, k, i)), -3, -2)
            out = blocks.reshape(batch + (k, k, i * i)) @ self.natural.T
            out = np.swapaxes(out.reshape(batch + (k, k, o, o)), -3, -2)
            return out.reshape(batch + (k * o, k * o))
        if level == 1:      # the reshapes below cost more than they save here
            out = None
            for K in self.kraus:
                term = (K @ x) @ dag(K)
                out = term if out is None else out + term
            return out
        # the block rows (k, in, k*in) times K, then every block column times K*
        k = level
        rows = x.reshape(batch + (k, i, k * i))
        out = None
        for K in self.kraus:
            term = (K @ rows).reshape(-1, i) @ dag(K)
            out = term if out is None else out + term
        return out.reshape(batch + (k * o, k * o))

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
        n = self.in_dim
        # Choi[(i,a),(j,b)] = map(E_ij)[a,b] = S[(a,b),(i,j)]
        return self.natural.reshape(n, n, n, n).transpose(2, 0, 3, 1).reshape(n * n, n * n)

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
                       batch: Callable[[np.ndarray], np.ndarray] | None = None
                       ) -> LinearMapOnB:
    """Sample a map on matrix units and assemble its matrix on vec(B).

    A cheap superposition check on random inputs guards against passing a
    nonlinear map; ``batch``, when given, evaluates a stack of inputs in one
    call and must agree with ``f`` pointwise.
    """
    rng = np.random.default_rng(0)
    checks = []
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
