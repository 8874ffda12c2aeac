"""Reference values computed apart from freeconv.

Nothing here imports freeconv: each function solves the defining equation of
the quantity the benchmark checks, by a method of its own (Newton steps along
a continuation in Im z, or a closed form), so that a check compares the
program with an independent computation.
"""

from __future__ import annotations

import numpy as np

NEWTON_TOL = 1e-15
NEWTON_MAX = 60
Y_START, Y_RATIO = 8.0, 0.7     # continuation heights: Y_START * Y_RATIO**s


def block_semicircle_g(z, blocks, A):
    """Solve g_i = mean_k 1/(z - (A g)_i - lam_ik) at every point z.

    blocks is an (n, m) array: row i holds the eigenvalues lam_ik of the i-th
    diagonal block of X in a frame where the covariance acts on diagonals by
    the nonnegative n x n matrix A.  This is the operator-valued semicircle
    equation G = E[(z - beta(G) - X)^{-1}] restricted to diagonal G.  With
    n = 1 and A = [[t]] it is the scalar subordination equation for a
    measure with atoms lam_1k (repeated by multiplicity) plus free
    semicircular noise of variance t.

    The solve follows y = Im z down from Y_START in geometric steps, taking
    Newton steps at each height from the previous solution, which keeps it on
    the branch with Im g < 0.  Returns an array of shape z.shape + (n,).
    """
    z = np.asarray(z, dtype=complex)
    lam = np.asarray(blocks, dtype=float)
    A = np.asarray(A, dtype=float)
    n = lam.shape[0]
    flat = z.reshape(-1)
    re, y_end = flat.real, flat.imag
    if np.any(y_end <= 0):
        raise ValueError("points must lie in the upper half-plane")
    steps = int(np.ceil(np.log(max(Y_START / y_end.min(), 1.0)) / np.log(1.0 / Y_RATIO)))
    g = np.repeat((1.0 / (re + 1j * max(Y_START, y_end.max())))[:, None], n, axis=1)
    for s in range(steps + 1):
        y = np.maximum(Y_START * Y_RATIO ** s, y_end)
        g = _newton_blocks(re + 1j * y, g, lam, A)
    return g.reshape(z.shape + (n,))


def _newton_blocks(zs, g, lam, A):
    eye = np.eye(lam.shape[0])
    for _ in range(NEWTON_MAX):
        w = zs[:, None] - g @ A.T                       # w_i = z - (A g)_i
        inv = 1.0 / (w[:, :, None] - lam[None, :, :])
        phi = inv.mean(axis=2)
        dphi = -(inv * inv).mean(axis=2)
        F = g - phi
        J = eye[None] + dphi[:, :, None] * A[None]       # I + diag(phi') A
        delta = np.linalg.solve(J, F[..., None])[..., 0]
        g = g - delta
        if np.max(np.abs(delta)) <= NEWTON_TOL * (1.0 + np.max(np.abs(g))):
            break
    w = zs[:, None] - g @ A.T
    residual = np.max(np.abs(g - (1.0 / (w[:, :, None] - lam[None])).mean(axis=2)))
    if residual > 1e-12 or np.any(g.imag > 0):
        raise ArithmeticError(f"reference solve left the branch (residual {residual:.2e})")
    return g


def density_sheet(us, epsilons, blocks, A) -> np.ndarray:
    """-(1/pi) Im tr G(u + i eps) for each eps, extrapolated linearly to 0.

    The two smallest epsilons give d(0) = d2 + (d2 - d1) e2 / (e1 - e2), the
    extrapolation a density sheet declares as its method; negative values
    are clipped to zero as they are on output.
    """
    us = np.asarray(us, dtype=float)
    eps = sorted((float(e) for e in epsilons), reverse=True)
    raw = [-np.imag(block_semicircle_g(us + 1j * e, blocks, A).mean(axis=-1)) / np.pi
           for e in eps]
    if len(eps) == 1:
        dens = raw[0]
    else:
        (e1, d1), (e2, d2) = (eps[-2], raw[-2]), (eps[-1], raw[-1])
        dens = d2 + (d2 - d1) * e2 / (e1 - e2)
    return np.clip(dens, 0.0, None)


def trapezoid_mass(us, density) -> float:
    us = np.asarray(us, dtype=float)
    density = np.asarray(density, dtype=float)
    return float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(us)))


# ---------------------------------------------------------------------------
# Closed forms at the edge of a semicircle-type spectrum
# ---------------------------------------------------------------------------


def edge_f(x):
    """(x + sqrt(x - 2) sqrt(x + 2))/2: the root of s^2 - x s + 1 = 0 that
    behaves like x at infinity."""
    x = np.asarray(x, dtype=complex)
    return (x + np.sqrt(x - 2.0) * np.sqrt(x + 2.0)) / 2.0


def point_semicircle_omega(b, c: float = 0.0):
    """Subordination value of a point mass at c plus a semicircle of variance 1.

    w = b + 1/(c - w) gives (w - c)^2 - (b - c)(w - c) + 1 = 0.
    """
    return c + edge_f(np.asarray(b, dtype=complex) - c)


def bernoulli_square_omega(b, c: float = 0.0):
    """Subordination value of the free convolution square of the symmetric
    Bernoulli law with atoms c - 1 and c + 1.

    The square is the arcsine law on (2c - 2, 2c + 2), G = 1/sqrt((b-2c)^2 - 4),
    and G_mu(w) = (w - c)/((w - c)^2 - 1) equals it at w = c + f(b - 2c).
    """
    return c + edge_f(np.asarray(b, dtype=complex) - 2.0 * c)


def normal_function(f, alpha: float, y: float, v: np.ndarray) -> np.ndarray:
    """f applied to the normal matrix alpha + i y v through the eigenvectors of v."""
    vals, Q = np.linalg.eigh(np.asarray(v, dtype=complex))
    return (Q * f(alpha + 1j * y * vals)) @ Q.conj().T


def point_semicircle_h(w, c: float = 0.0) -> np.ndarray:
    """The nonlinearity (c - w)^{-1} of the point-mass problem."""
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    return np.linalg.inv(c * np.eye(w.shape[0]) - w)


def point_semicircle_dh(w, e, c: float = 0.0) -> np.ndarray:
    """Derivative of (c - w)^{-1} at w in direction e: R e R, R = (c - w)^{-1}."""
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    R = np.linalg.inv(c * np.eye(w.shape[0]) - w)
    return R @ np.atleast_2d(e) @ R


def bernoulli_h(w, c: float = 0.0) -> np.ndarray:
    """h(w) = G(w)^{-1} - w = -c - 1/(w - c) for atoms c -+ 1 (scalar w)."""
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    return -c - 1.0 / (w - c)


def bernoulli_dh(w, e, c: float = 0.0) -> np.ndarray:
    w = np.atleast_2d(np.asarray(w, dtype=complex))
    return np.atleast_2d(e) / (w - c) ** 2


def probe_quantities(omega_last, ys, h, dh):
    """The jc-probe regularity quantities at the limit read from omega_last.

    With omega_limit = Re omega_last and ell = Im omega_last / ||Im omega_last||,
    returns (quotient, hprime): quotient_j = tr Im h(omega_limit + i y_j)/(n y_j)
    (the probe direction u is 1) and hprime_j = ||Dh(omega_limit + i y_j ell)[ell]||.
    """
    omega_last = np.atleast_2d(omega_last)
    n = omega_last.shape[0]
    re = (omega_last + omega_last.conj().T) / 2.0
    im = (omega_last - omega_last.conj().T) / 2.0j
    ell = im / np.linalg.norm(im, 2)
    quotient, hprime = [], []
    for y in ys:
        hq = h(re + 1j * y * np.eye(n))
        quotient.append(float(np.real(np.trace((hq - hq.conj().T) / 2.0j)) / n / y))
        hprime.append(float(np.linalg.norm(dh(re + 1j * y * ell, ell), 2)))
    return np.array(quotient), np.array(hprime)


# ---------------------------------------------------------------------------
# Cauchy transform of a finite model, for R-transform inverse checks
# ---------------------------------------------------------------------------


def model_cauchy(X: np.ndarray, n: int, b: np.ndarray) -> np.ndarray:
    """(id_n tensor tr_m)[(b tensor 1_m - X)^{-1}] with the normalized trace."""
    N = X.shape[0]
    m = N // n
    R = np.linalg.inv(np.kron(b, np.eye(m)) - X)
    return np.einsum("iaja->ij", R.reshape(n, m, n, m)) / m
