"""Seeded random generators for models, problems, and half-plane points."""

import numpy as np

from freeconv import CPMap, OperatorModel, SubordinationProblem


def random_hermitian(rng, d: int, scale: float = 1.0) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (x + x.conj().T) / 2.0
    return scale * h / max(np.linalg.norm(h, 2), 1e-12)


def random_psd(rng, d: int, scale: float = 1.0) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = x @ x.conj().T
    return scale * p / max(np.linalg.norm(p, 2), 1e-12)


def random_model(rng, n: int, m: int, norm: float = 1.5,
                 uniform: bool = True) -> OperatorModel:
    X = random_hermitian(rng, n * m, scale=norm)
    if uniform:
        return OperatorModel.partial_trace(X, n)
    w = rng.random(m) + 0.2
    return OperatorModel(X=X, base_dim=n, weights=w / w.sum())


def random_eta(rng, n: int, N: int, strength: float = 0.8,
               terms: int = 2) -> CPMap:
    """CP map from the ambient algebra into B with ||eta(1)|| <= strength."""
    kraus = [rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N))
             for _ in range(terms)]
    eta = CPMap.from_kraus(kraus, to_base=True)
    return CPMap.from_kraus([K * np.sqrt(strength / eta.norm_bound())
                             for K in kraus], to_base=True)


def random_problem(rng, n: int | None = None, m: int | None = None,
                   strength: float = 0.8) -> SubordinationProblem:
    n = int(rng.integers(1, 4)) if n is None else n
    m = int(rng.integers(1, 5)) if m is None else m
    model = random_model(rng, n, m)
    eta = random_eta(rng, n, n * m, strength=strength)
    a = random_hermitian(rng, n, scale=0.5)
    return SubordinationProblem.generic(model, eta, a)


def random_power_problem(rng, n: int, m: int, strength: float = 0.8) -> SubordinationProblem:
    """Convolution power with alpha = Id + sum_j K_j x K_j*, the K_j those of
    random_eta on B, so that alpha - Id is completely positive."""
    kraus = random_eta(rng, n, n, strength=strength).kraus
    return SubordinationProblem.power(random_model(rng, n, m),
                                      CPMap.from_kraus([np.eye(n), *kraus]))


def random_upper(rng, d: int, margin: float = 0.1, spread: float = 0.7) -> np.ndarray:
    """Point of M_d with Im >= margin strictly (margin * I plus a PSD part)."""
    re = random_hermitian(rng, d, scale=spread)
    im = margin * np.eye(d) + random_psd(rng, d, scale=spread)
    return re + 1j * im
