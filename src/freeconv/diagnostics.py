"""Derivative spectra, noncommutative-function checks, and boundary probes.

Difference quotients of the subordination map come from the chain rule:
omega(b) = b + a + h(omega(b)) gives Delta omega(b1, b2) =
(I - Delta h(omega(b1), omega(b2)))^{-1}.  The nonlinearity h is
differentiated by algebra.divided_difference, sampled on the matrix units
by subordination._jacobians; the v_q update g_q by the Jacobian of h at
u + iv (subordination._gq_jacobians).  Fixed-point solves amplified to upper
triangular 2x2 block arguments are the independent route: the (1, 2) block
of omega([[b1, c], [0, b2]]) is linear in c and equals Delta omega(b1, b2)[c],
so each certificate compares an amplified solve with the derivative of its
map.  Such a point lies in the domain of the map whenever b1 and b2 lie in
the half-plane, whatever the size of c, so the amplified solves take the
unit direction c/||c|| and multiply the corner by ||c||: the corner stays
of the size of the derivative, which the solver's absolute residual test
resolves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    POSITIVITY_TOL,
    amplification_level,
    as_element,
    dag,
    direct_sum,
    divided_difference,
    identity_kron,
    imag_part,
    is_strictly_positive,
    lambda_min,
    opnorm,
    opnorm_stack,
    real_part,
    require_halfplane,
    require_hermitian,
    unvec,
    upper_block,
    vec,
)
from .model import OperatorModel
from .subordination import (
    DEFAULT_CONFIG,
    SolverConfig,
    SubordinationProblem,
    _gq_jacobians,
    _jacobians,
    _vq_arguments,
    solve_gq_stack,
    solve_omega_stack,
    solve_vq,
)


@dataclass
class SpectrumCertificate:
    """Eigenvalue evidence for one spectral claim about a linearized map."""

    eigenvalues: np.ndarray
    min_real: float
    spectral_radius: float
    claim: str
    passed: bool
    details: dict


def _require_same_shape(names: str, *points: np.ndarray) -> None:
    """ValueError naming the arguments unless the points share one shape."""
    if len({p.shape for p in points}) > 1:
        raise ValueError(f"{names} must have matching shapes, got "
                         + ", ".join(str(p.shape) for p in points))


def _delta_omega_stack(problem: SubordinationProblem, b1: np.ndarray,
                       b2: np.ndarray, cs: np.ndarray, cfg: SolverConfig):
    """Difference quotients Delta omega(b1, b2)(c) for a stack of nonzero
    directions, each the (1, 2) block of the solve at the unit direction
    c/||c|| times ||c||."""
    d = b1.shape[0]
    norms = opnorm_stack(cs)
    tops = upper_block(np.broadcast_to(b1, cs.shape), cs / norms[:, None, None],
                       np.broadcast_to(b2, cs.shape))
    w = solve_omega_stack(problem, tops, replace(cfg, start=None)).require(
        "amplified subordination solve did not converge")
    w1, w2 = solve_omega_stack(problem, np.stack([b1, b2]),
                               replace(cfg, tol=cfg.tol * 0.1, start=None)).require(
        "subordination solve did not converge")
    scale = 1.0 + opnorm(w1) + opnorm(w2)
    mismatch = max(float(np.max(np.abs(w[:, :d, :d] - w1))),
                   float(np.max(np.abs(w[:, d:, d:] - w2))))
    if mismatch > 10.0 * cfg.tol * scale:
        raise ArithmeticError(
            f"amplified solve diagonal blocks drifted from omega values "
            f"({mismatch:.3e})")
    deltas = w[:, :d, d:] * norms[:, None, None]
    return deltas, w1, w2


def delta_omega(problem: SubordinationProblem, b1, b2, c,
                cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Difference quotient of the subordination map in direction c.

    Computed as ||c|| times the (1, 2) block of the solve at
    [[b1, c/||c||], [0, b2]]; its diagonal blocks are checked against the
    solves at b1 and b2.
    """
    b1 = require_halfplane(as_element(b1, "b1"), "upper", POSITIVITY_TOL, name="b1")
    b2 = require_halfplane(as_element(b2, "b2"), "upper", POSITIVITY_TOL, name="b2")
    c = as_element(c, "c")
    _require_same_shape("b1, b2 and c", b1, b2, c)
    if opnorm(c) == 0.0:
        return np.zeros_like(c)
    deltas, _, _ = _delta_omega_stack(problem, b1, b2, c[None], cfg)
    return deltas[0]


def delta_omega_spectrum(problem: SubordinationProblem, b1, b2,
                         cfg: SolverConfig = DEFAULT_CONFIG) -> SpectrumCertificate:
    """Spectrum of the difference quotient of the subordination map.

    omega(b) = b + a + h(omega(b)) gives Delta omega(b1, b2) =
    (I - Delta h(w1, w2))^{-1} at w1 = omega(b1), w2 = omega(b2), so Delta
    omega is read as the inverse of the divided difference Delta H of the
    right inverse H(w) = w - a - h(w), taken on h itself at the reference
    solves.  Certifies Re(spectrum) > 1/2.  inverse_composition_error
    compares this with an independent route: the amplified solve at
    [[b1, c/||c||], [0, b2]] in a seeded random direction c gives Delta
    omega[c], and the field is ||Delta H vec(Delta omega[c]) - vec(c)|| /
    ||vec(c)||.
    """
    b1 = require_halfplane(as_element(b1, "b1"), "upper", POSITIVITY_TOL, name="b1")
    b2 = require_halfplane(as_element(b2, "b2"), "upper", POSITIVITY_TOL, name="b2")
    _require_same_shape("b1 and b2", b1, b2)
    d = b1.shape[0]
    level = d // problem.base_dim
    # a fixed seed keeps the certificate identical across reruns
    rng = np.random.default_rng(0)
    cs = rng.standard_normal((1, d, d)) + 1j * rng.standard_normal((1, d, d))
    amplified, w1, w2 = _delta_omega_stack(problem, b1, b2, cs, cfg)

    delta_h = _jacobians(lambda x: problem.h_map(x, 2 * level), w1[None], w2[None])[0]
    delta_H = np.eye(d * d) - delta_h
    residual = vec(amplified) @ delta_H.T - vec(cs)
    inverse_error = np.max(np.linalg.norm(residual, axis=-1)
                           / np.linalg.norm(vec(cs), axis=-1))

    right_inverse_eigs = np.linalg.eigvals(delta_H)
    eigs = 1.0 / right_inverse_eigs
    min_real = float(np.min(eigs.real))
    return SpectrumCertificate(
        eigenvalues=eigs,
        min_real=min_real,
        spectral_radius=float(np.max(np.abs(eigs))),
        claim="difference quotient spectrum lies in the half-plane Re > 1/2",
        passed=bool(min_real > 0.5),
        details={
            "inverse_composition_error": float(inverse_error),
            "right_inverse_spectrum_max_dist_to_1": float(
                np.max(np.abs(right_inverse_eigs - 1.0))),
        },
    )


# ---------------------------------------------------------------------------
# Derivatives of the v_q fixed point
# ---------------------------------------------------------------------------


def dvg_spectrum(problem: SubordinationProblem, q, u,
                 cfg: SolverConfig = DEFAULT_CONFIG) -> SpectrumCertificate:
    """Spectrum of the linearized v-update at the fixed point v_q(u).

    The claim is spectral radius < 1, which certifies local geometric
    convergence of the iteration and invertibility of Id - (derivative).
    """
    v = solve_vq(problem, q, u, cfg).require("v_q solve did not converge")
    u = require_hermitian(u, name="u")
    level = amplification_level(u, problem.base_dim)
    eigs = np.linalg.eigvals(_gq_jacobians(problem, u[None], v[None], level)[0][0])  # D_v g_q
    radius = float(np.max(np.abs(eigs)))
    resolvent_eigs = 1.0 / (1.0 - eigs)
    return SpectrumCertificate(
        eigenvalues=eigs,
        min_real=float(np.min(eigs.real)),
        spectral_radius=radius,
        claim="v-update derivative has spectral radius < 1",
        passed=bool(radius < 1.0),
        details={
            # recorded, not asserted: (Id - derivative)^{-1} spectrum sits in Re > 1/2
            "resolvent_min_real": float(np.min(resolvent_eigs.real)),
            "fixed_point_norm": opnorm(v),
        },
    )


@dataclass
class VqDerivative:
    """Directional derivative of u -> v_q(u) computed two ways."""

    value: np.ndarray            # implicit-formula value
    amplified: np.ndarray        # from the 2x2 block fixed point
    agreement_error: float       # implicit vs amplified, operator norm


def vq_derivative(problem: SubordinationProblem, q, u, c,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> VqDerivative:
    """Derivative of the v_q fixed point in a selfadjoint direction c, for a
    problem of either variant.

    The implicit formula solves (Id - dv) deriv = du(c) at the fixed point
    v_q(u), both from one Jacobian of h; the amplified route reads the
    (1, 2) block of the level-2 solve at [[u, c/||c||], [0, u]] times ||c||,
    independently of the level-1 solve.  Disagreement between the two beyond
    1e-8 raises an ArithmeticError.
    """
    q, u = _vq_arguments(q, u)
    c = require_hermitian(c, name="c")
    _require_same_shape("c and u", c, u)
    d = u.shape[0]
    v = solve_gq_stack(problem, q[None], u[None], cfg).require("v_q solve did not converge")

    level = amplification_level(u, problem.base_dim)
    dv, du = (J[0] for J in _gq_jacobians(problem, u[None], v, level))
    implicit = unvec(np.linalg.solve(np.eye(d * d) - dv, du @ vec(c)), d)

    lam = 1.0 / (opnorm(c) or 1.0)
    w2 = solve_gq_stack(problem, identity_kron(2, q)[None], upper_block(u, lam * c, u)[None],
                        replace(cfg, start=None)).require("amplified v_q solve did not converge")
    amplified = w2[0, :d, d:] / lam

    agreement = opnorm(implicit - amplified)
    if agreement > 1e-8 * (1.0 + opnorm(implicit)):
        raise ArithmeticError(
            f"derivative cross-check failed (implicit vs amplified: {agreement:.3e})")
    return VqDerivative(value=implicit, amplified=amplified,
                        agreement_error=float(agreement))


# ---------------------------------------------------------------------------
# Noncommutative function axioms
# ---------------------------------------------------------------------------


def nc_function_axioms_check(source, a, b, T=None,
                             cfg: SolverConfig = DEFAULT_CONFIG) -> dict:
    """Measure direct-sum and scalar-similarity deviations at level 2.

    source is an OperatorModel (checks G and h) or a SubordinationProblem
    (additionally checks the subordination map).  T is an invertible 2x2
    scalar matrix; the conjugated point T^{-1}(a + b)T must stay in the
    upper half-plane.
    """
    problem = source if isinstance(source, SubordinationProblem) else None
    model = problem.model if problem is not None else source
    if not isinstance(model, OperatorModel):
        raise TypeError("source must be an OperatorModel or SubordinationProblem")
    a = require_halfplane(as_element(a, "a"), "upper", POSITIVITY_TOL, name="a")
    b = require_halfplane(as_element(b, "b"), "upper", POSITIVITY_TOL, name="b")
    n = model.base_dim
    if a.shape[0] != n or b.shape[0] != n:
        raise ValueError("a and b must be level-1 points")
    T = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex) if T is None \
        else as_element(T, "T")
    if T.shape != (2, 2):
        raise ValueError("T must be a 2x2 scalar matrix")
    Tk = np.kron(T, np.eye(n))
    Tinv = np.linalg.inv(Tk)
    D = direct_sum(a, b)
    conj = Tinv @ D @ Tk
    require_halfplane(conj, "upper", POSITIVITY_TOL, name="conjugated point")

    def measure(f) -> dict:
        """f(stack, level) at [a, b] and at [a + b, T^{-1}(a + b)T]; for an
        upper triangular T both level-2 points have diagonal blocks a and b,
        which split holds once for the stack."""
        fa, fb = f(np.stack([a, b]), 1)
        fD, fconj = f(np.stack([D, conj]), 2)
        return {
            "direct_sum": opnorm(fD - direct_sum(fa, fb)),
            "similarity": opnorm(fconj - Tinv @ fD @ Tk),
        }

    deviations = {
        "G": measure(model.cauchy),
        "h": measure(lambda x, level: np.linalg.inv(model.cauchy(x, level)) - x),
    }
    if problem is not None:
        deviations["omega"] = measure(
            lambda x, level: solve_omega_stack(problem, x, cfg, level).require(
                "subordination solve did not converge"))

    worst = max(v for dev in deviations.values() for v in dev.values())
    return {
        "deviations": deviations,
        "max_deviation": float(worst),
        "passed": bool(worst <= 1e-10),
    }


# ---------------------------------------------------------------------------
# Horodiscs and the boundary probe
# ---------------------------------------------------------------------------


def horodisc_membership(center, ell, w, strict: bool = False,
                        tol: float = 1e-10) -> bool:
    """Membership of w in the horodisc (w-c)* (Im w)^{-1} (w-c) <= ell."""
    center = require_hermitian(center, name="center")
    ell = require_hermitian(ell, name="ell")
    w = require_halfplane(as_element(w, "w"), "upper", POSITIVITY_TOL, name="w")
    _require_same_shape("center, ell and w", center, ell, w)
    shift = w - center
    quad = dag(shift) @ np.linalg.inv(imag_part(w)) @ shift
    gap = real_part(ell - quad)
    low = lambda_min(gap)
    return bool(low > tol) if strict else bool(low >= -tol)


@dataclass
class JCProbeResult:
    """Record of one boundary approach omega(alpha + i y v), y decreasing.

    applicable is False when the hypotheses (norm convergence of omega to a
    selfadjoint limit, strictly positive normalized imaginary direction)
    fail numerically; conclusion verdicts are still recorded but carry no
    weight in that case.
    """

    y_schedule: tuple[float, ...]
    omega_values: list
    im_norms: list
    increments: list
    omega_limit: np.ndarray | None
    ell_estimate: np.ndarray | None
    quotient: list
    hprime_norms: list
    verdicts: dict
    applicable: bool
    reason: str
    truncated_at: float | None = None


# largest ||Im omega|| at the last height of a probe that counts as a
# selfadjoint limit
SELFADJOINT_TOL = 1e-3

# the verdicts a probe needs to be applicable, in the order their failures
# are reported: the reason of a probe that converged at every height is
# that of the first verdict here that fails, "" when none does
REQUIRED_VERDICTS = {
    "omega_selfadjoint_limit": "omega limit not selfadjoint",
    "omega_cauchy": "omega values not settling",
    "ell_strictly_positive": "normalized imaginary direction not strictly positive",
}


def jc_probe(problem: SubordinationProblem, alpha, v, u, y_schedule,
             cfg: SolverConfig = DEFAULT_CONFIG) -> JCProbeResult:
    """Probe the boundary behavior of the subordination map at a real point.

    Solves omega(alpha + i y v) at every height of the decreasing schedule
    as one batched solve, each height from the cold start b itself,
    estimates the limit and the normalized imaginary direction ell, and
    evaluates the two regularity quantities the limit should control: the
    normalized trace of Im h(omega_limit + i y u) divided by y, and the norm
    of the derivative of the nonlinearity h at omega_limit + i y ell applied
    to ell (via the 2x2 amplification of h), both batched over the heights.
    The probe is applicable when every verdict of REQUIRED_VERDICTS holds.

    truncated_at is the first height whose solve did not converge;
    omega_values keeps the heights before it, and the probe is then not
    applicable.  A height that fails runs to max_iter beside the later
    heights, whose results are discarded, so a truncated probe costs
    max_iter steps on every height from the failing one on.
    """
    alpha = require_hermitian(alpha, name="alpha")
    v = require_hermitian(v, name="v")
    u = require_hermitian(u, name="u")
    _require_same_shape("alpha, v and u", alpha, v, u)
    if alpha.shape[0] != problem.base_dim:
        raise ValueError(f"alpha, v and u must be points of B (size {problem.base_dim}), "
                         f"got size {alpha.shape[0]}")
    if not (is_strictly_positive(v) and is_strictly_positive(u)):
        raise ValueError("directions v and u must be strictly positive")
    ys = tuple(float(y) for y in y_schedule)
    if not ys or any(y <= 0 for y in ys) or any(
            ys[i + 1] >= ys[i] for i in range(len(ys) - 1)):
        raise ValueError("y_schedule must be positive and strictly decreasing")

    y_arr = np.array(ys)
    iy = 1j * y_arr[:, None, None]
    # alpha + i y v has imaginary part y v > 0 at every height
    solved = solve_omega_stack(problem, alpha + iy * v, replace(cfg, start=None))
    failed = np.flatnonzero(~solved.converged)
    cut = int(failed[0]) if failed.size else len(ys)
    truncated_at = ys[cut] if failed.size else None
    W = solved.value[:cut]
    omegas = list(W)
    im_norms = opnorm_stack(imag_part(W)).tolist()
    increments = opnorm_stack(np.diff(W, axis=0)).tolist()

    def trend_ok(seq) -> bool:
        tail = seq[-3:]
        return all(tail[i + 1] <= 1.05 * tail[i] + 1e-12 for i in range(len(tail) - 1))

    verdicts: dict[str, bool] = {}
    omega_limit = ell = None
    quotient: list[float] = []
    hprime_norms: list[float] = []
    if truncated_at is None:
        omega_limit = real_part(W[-1])
        scale = im_norms[-1]
        ell = imag_part(W[-1]) / scale if scale > 1e-300 else None
        verdicts = {
            "omega_selfadjoint_limit": scale <= SELFADJOINT_TOL,
            "omega_cauchy": len(increments) >= 1 and trend_ok(increments),
            "ell_strictly_positive": ell is not None and lambda_min(ell) > 1e-10,
        }
    if ell is not None:
        n = omega_limit.shape[0]
        hq = problem.h_map(omega_limit + iy * u, 1)
        tau = np.real(np.trace(imag_part(hq), axis1=-2, axis2=-1)) / n
        quotient = (tau / y_arr).tolist()
        hw = omega_limit + iy * ell
        hprime = divided_difference(lambda x: problem.h_map(x, 2), hw, hw, ell[None])
        hprime_norms = opnorm_stack(hprime).tolist()
        verdicts["quotient_bounded"] = trend_ok(quotient)
        verdicts["hprime_bound"] = bool(hprime_norms[-1] <= 1.0 + 1e-3)

    reason = f"solver failed at y={truncated_at:g}" if truncated_at is not None else next(
        (why for name, why in REQUIRED_VERDICTS.items() if not verdicts[name]), "")
    return JCProbeResult(
        y_schedule=ys,
        omega_values=omegas,
        im_norms=im_norms,
        increments=increments,
        omega_limit=omega_limit,
        ell_estimate=ell,
        quotient=quotient,
        hprime_norms=hprime_norms,
        verdicts=verdicts,
        applicable=not reason,
        reason=reason,
        truncated_at=truncated_at,
    )
