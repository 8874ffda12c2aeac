"""Derivative spectra, noncommutative-function checks, and boundary probes.

Difference quotients of the subordination map are extracted from fixed-point
solves amplified to upper-triangular 2x2 block arguments: the (1, 2) block of
omega([[b1, c], [0, b2]]) is linear in c and recovers the difference quotient
Delta omega(b1, b2).  The maps with a closed form (the right inverse H, the
v_q update g_q, the nonlinearity h) are differentiated by
algebra.divided_difference on the maps themselves, so each certificate still
compares an amplified solve with an independent derivative of its map.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    LinearMapOnB,
    POSITIVITY_TOL,
    as_element,
    c_scale,
    dag,
    direct_sum,
    divided_difference,
    identity_kron,
    imag_part,
    is_strictly_positive,
    lambda_min,
    linearize_on_basis,
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
    g_q,
    solve_gq_stack,
    solve_omega,
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


def _require_upper_stack(points: np.ndarray, name: str) -> None:
    """Every entry of a stack in the open upper half-plane (margin 0), by one
    batched eigvalsh; the error names the first entry that is not."""
    margins = np.linalg.eigvalsh(imag_part(points))[:, 0]
    bad = np.flatnonzero(~(margins > 0.0))
    if bad.size:
        raise ValueError(f"{name} {bad[0]} is not in the upper half-plane "
                         f"(margin tolerance 0, margin {margins[bad[0]]:.3e})")


def _delta_omega_stack(problem: SubordinationProblem, b1: np.ndarray,
                       b2: np.ndarray, cs: np.ndarray, cfg: SolverConfig):
    """Difference quotients Delta omega(b1, b2)(c) for a stack of directions."""
    d = b1.shape[0]
    m1 = lambda_min(imag_part(b1))
    m2 = lambda_min(imag_part(b2))
    lams = c_scale(cs, m1, m2)
    tops = upper_block(np.broadcast_to(b1, cs.shape),
                       lams[:, None, None] * cs,
                       np.broadcast_to(b2, cs.shape))
    _require_upper_stack(tops, "amplified point")

    w = solve_omega_stack(problem, tops, replace(cfg, start=None)).require(
        "amplified subordination solve did not converge")
    # b1 and b2 are solved one at a time: a stack of two rounds CPMap.apply's
    # natural-matrix product differently from a stack of one over M_n, n > 1,
    # which would move the last bits of the certificate
    ref_cfg = replace(cfg, tol=cfg.tol * 0.1, start=None)
    w1, w2 = (solve_omega(problem, b, ref_cfg).require("subordination solve did not converge")
              for b in (b1, b2))
    scale = 1.0 + opnorm(w1) + opnorm(w2)
    mismatch = max(float(np.max(np.abs(w[:, :d, :d] - w1))),
                   float(np.max(np.abs(w[:, d:, d:] - w2))))
    if mismatch > 10.0 * cfg.tol * scale:
        raise ArithmeticError(
            f"amplified solve diagonal blocks drifted from omega values "
            f"({mismatch:.3e})")
    deltas = w[:, :d, d:] / lams[:, None, None]
    return deltas, w1, w2


def delta_omega(problem: SubordinationProblem, b1, b2, c,
                cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Difference quotient of the subordination map in direction c.

    Computed as the (1, 2) block of the solve at [[b1, lam c], [0, b2]] with
    the direction rescaled to keep the block point in the half-plane; the
    result is checked to be independent of that rescaling.
    """
    b1 = require_halfplane(as_element(b1, "b1"), "upper", POSITIVITY_TOL, name="b1")
    b2 = require_halfplane(as_element(b2, "b2"), "upper", POSITIVITY_TOL, name="b2")
    c = as_element(c, "c")
    if opnorm(c) == 0.0:
        return np.zeros_like(c)
    cs = np.stack([c, 0.5 * c])
    deltas, _, _ = _delta_omega_stack(problem, b1, b2, cs, cfg)
    scale = 1.0 + opnorm(deltas[0])
    if opnorm(deltas[0] - 2.0 * deltas[1]) > 1e3 * cfg.tol * scale:
        raise ArithmeticError("difference quotient depends on the direction rescaling")
    return deltas[0]


def _delta_h_right_inverse(problem: SubordinationProblem, w1: np.ndarray,
                           w2: np.ndarray) -> LinearMapOnB:
    """Difference quotient of H(w) = w - a - (nonlinearity), read off the map."""
    d = w1.shape[0]
    level = d // problem.base_dim

    def h2(x):
        return problem.h_map(x, 2 * level)

    def batch(cs):
        return cs - divided_difference(h2, w1, w2, cs)

    return linearize_on_basis(lambda c: None, d, batch=batch)


def delta_omega_spectrum(problem: SubordinationProblem, b1, b2,
                         cfg: SolverConfig = DEFAULT_CONFIG) -> SpectrumCertificate:
    """Spectrum of the linearized difference quotient of the subordination map.

    Certifies Re(spectrum) > 1/2 and verifies the inverse relation against
    the divided difference of the right inverse H, taken on H itself.
    """
    b1 = require_halfplane(as_element(b1, "b1"), "upper", POSITIVITY_TOL, name="b1")
    b2 = require_halfplane(as_element(b2, "b2"), "upper", POSITIVITY_TOL, name="b2")
    d = b1.shape[0]
    holder: dict = {}

    def batch(cs):
        deltas, w1, w2 = _delta_omega_stack(problem, b1, b2, cs, cfg)
        holder.setdefault("w", (w1, w2))
        return deltas

    lin = linearize_on_basis(lambda c: None, d, batch=batch)
    w1, w2 = holder["w"]
    lin_h = _delta_h_right_inverse(problem, w1, w2)
    inverse_error = opnorm(lin_h.matrix @ lin.matrix - np.eye(d * d))

    eigs = lin.eigenvalues()
    min_real = float(np.min(eigs.real))
    cert = SpectrumCertificate(
        eigenvalues=eigs,
        min_real=min_real,
        spectral_radius=float(np.max(np.abs(eigs))),
        claim="difference quotient spectrum lies in the half-plane Re > 1/2",
        passed=bool(min_real > 0.5),
        details={
            "inverse_composition_error": float(inverse_error),
            "right_inverse_spectrum_max_dist_to_1": float(
                np.max(np.abs(lin_h.eigenvalues() - 1.0))),
        },
    )
    return cert


# ---------------------------------------------------------------------------
# Derivatives of the v_q fixed point
# ---------------------------------------------------------------------------


def _dv_map(problem: SubordinationProblem, u: np.ndarray, v: np.ndarray) -> LinearMapOnB:
    """Partial derivative of g_q in the fixed-point variable.

    q only shifts the diagonal blocks, so it drops out of the difference
    quotient and is passed as 0.
    """
    u2 = identity_kron(2, u)

    def batch(cs):
        return divided_difference(lambda x: g_q(problem, 0.0, u2, x, 2), v, v, cs)

    return linearize_on_basis(lambda c: None, u.shape[0], batch=batch)


def dvg_spectrum(problem: SubordinationProblem, q, u,
                 cfg: SolverConfig = DEFAULT_CONFIG) -> SpectrumCertificate:
    """Spectrum of the linearized v-update at the fixed point v_q(u).

    The claim is spectral radius < 1, which certifies local geometric
    convergence of the iteration and invertibility of Id - (derivative).
    """
    v = solve_vq(problem, q, u, cfg).require("v_q solve did not converge")
    u = require_hermitian(u, name="u")
    lin = _dv_map(problem, u, v)
    eigs = lin.eigenvalues()
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
    """Directional derivative of u -> v_q(u) computed three ways."""

    value: np.ndarray            # implicit-formula value
    amplified: np.ndarray        # from the 2x2 block fixed point
    finite_difference: np.ndarray
    agreement_error: float       # implicit vs amplified, operator norm
    fd_relative_error: float


def vq_derivative(problem: SubordinationProblem, q, u, c,
                  cfg: SolverConfig = DEFAULT_CONFIG) -> VqDerivative:
    """Derivative of the v_q fixed point in a selfadjoint direction c.

    The implicit formula solves (Id - dv) deriv = du(c) at the fixed point;
    the amplified route reads the (1, 2) block of the level-2 solve at
    [[u, lam c], [0, u]]; central finite differences cross-check both.
    Disagreement between the first two beyond 1e-8 raises an error.
    """
    q = require_hermitian(q, name="q")
    u = require_hermitian(u, name="u")
    c = require_hermitian(c, name="c")
    v = solve_vq(problem, q, u, cfg).require("v_q solve did not converge")
    d = u.shape[0]

    dv = _dv_map(problem, u, v)
    v2 = identity_kron(2, v)
    du_c = divided_difference(lambda x: g_q(problem, 0.0, x, v2, 2), u, u, c[None])[0]
    implicit = unvec(np.linalg.solve(np.eye(d * d) - dv.matrix, vec(du_c)), d)

    lam = 1.0 / (1.0 + opnorm(c))
    u2 = upper_block(u, lam * c, u)
    q2 = identity_kron(2, q)
    w2 = solve_gq_stack(problem, q2[None], u2[None], replace(cfg, start=None)).require(
        "amplified v_q solve did not converge")
    amplified = w2[0, :d, d:] / lam

    step = 1e-5 * max(1.0, opnorm(u)) / max(opnorm(c), 1e-300)
    vp, vm = solve_gq_stack(problem, np.stack([q, q]), np.stack([u + step * c, u - step * c]),
                            cfg).require("finite-difference v_q solve did not converge")
    fd = (vp - vm) / (2.0 * step)

    agreement = opnorm(implicit - amplified)
    scale = 1.0 + opnorm(implicit)
    if agreement > 1e-8 * scale:
        raise ArithmeticError(
            f"derivative cross-check failed (implicit vs amplified: {agreement:.3e})")
    fd_rel = opnorm(fd - implicit) / scale
    return VqDerivative(value=implicit, amplified=amplified, finite_difference=fd,
                        agreement_error=float(agreement),
                        fd_relative_error=float(fd_rel))


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

    def measure(f1, f2) -> dict:
        fa, fb = f1(a), f1(b)
        fD = f2(D)
        fconj = f2(conj)
        return {
            "direct_sum": opnorm(fD - direct_sum(fa, fb)),
            "similarity": opnorm(fconj - Tinv @ fD @ Tk),
        }

    deviations = {
        "G": measure(lambda x: model.cauchy(x, 1), lambda x: model.cauchy(x, 2)),
        "h": measure(
            lambda x: np.linalg.inv(model.cauchy(x, 1)) - x,
            lambda x: np.linalg.inv(model.cauchy(x, 2)) - x),
    }
    if problem is not None:
        def omega_at(x, level):
            return solve_omega(problem, x, cfg).require("subordination solve did not converge")

        deviations["omega"] = measure(lambda x: omega_at(x, 1), lambda x: omega_at(x, 2))

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


def jc_probe(problem: SubordinationProblem, alpha, v, u, y_schedule,
             cfg: SolverConfig = DEFAULT_CONFIG, sa_tol: float = 1e-3) -> JCProbeResult:
    """Probe the boundary behavior of the subordination map at a real point.

    Solves omega(alpha + i y v) at every height of the decreasing schedule
    as one batched solve, each height from the cold start b itself,
    estimates the limit and the normalized imaginary direction ell, and
    evaluates the two regularity quantities the limit should control: the
    normalized trace of Im h(omega_limit + i y u) divided by y, and the norm
    of the derivative of the nonlinearity h at omega_limit + i y ell applied
    to ell (via the 2x2 amplification of h), both batched over the heights.

    truncated_at is the first height whose solve did not converge;
    omega_values keeps the heights before it, and the probe is then not
    applicable.  A height that fails runs to max_iter beside the later
    heights, whose results are discarded, so a truncated probe costs
    max_iter steps on every height from the failing one on.
    """
    alpha = require_hermitian(alpha, name="alpha")
    v = require_hermitian(v, name="v")
    u = require_hermitian(u, name="u")
    if not (is_strictly_positive(v) and is_strictly_positive(u)):
        raise ValueError("directions v and u must be strictly positive")
    ys = tuple(float(y) for y in y_schedule)
    if not ys or any(y <= 0 for y in ys) or any(
            ys[i + 1] >= ys[i] for i in range(len(ys) - 1)):
        raise ValueError("y_schedule must be positive and strictly decreasing")

    y_arr = np.array(ys)
    points = np.stack([require_halfplane(alpha + 1j * y * v, "upper", POSITIVITY_TOL,
                                         name=f"probe point at y={y:g}") for y in ys])
    solved = solve_omega_stack(problem, points, replace(cfg, start=None))
    failed = np.flatnonzero(~solved.converged)
    cut = int(failed[0]) if failed.size else len(ys)
    truncated_at = ys[cut] if failed.size else None
    omegas = list(solved.value[:cut])

    im_norms = [opnorm(imag_part(w)) for w in omegas]
    increments = [opnorm(omegas[i + 1] - omegas[i]) for i in range(len(omegas) - 1)]

    def trend_ok(seq) -> bool:
        tail = seq[-3:]
        return all(tail[i + 1] <= 1.05 * tail[i] + 1e-12 for i in range(len(tail) - 1))

    verdicts: dict[str, bool] = {}
    reason = ""
    omega_limit = None
    ell = None
    quotient: list[float] = []
    hprime_norms: list[float] = []

    if truncated_at is not None:
        reason = f"solver failed at y={truncated_at:g}"
        applicable = False
    else:
        selfadjoint_ok = im_norms[-1] <= sa_tol
        cauchy_ok = len(increments) >= 1 and trend_ok(increments)
        verdicts["omega_selfadjoint_limit"] = bool(selfadjoint_ok)
        verdicts["omega_cauchy"] = bool(cauchy_ok)
        omega_limit = real_part(omegas[-1])
        im_last = imag_part(omegas[-1])
        scale = opnorm(im_last)
        if scale <= 1e-300:
            ell = None
            verdicts["ell_strictly_positive"] = False
        else:
            ell = im_last / scale
            verdicts["ell_strictly_positive"] = bool(lambda_min(ell) > 1e-10)

        if ell is not None:
            n = omega_limit.shape[0]
            hq = problem.h_map(omega_limit + 1j * y_arr[:, None, None] * u, 1)
            tau = np.real(np.trace(imag_part(hq), axis1=-2, axis2=-1)) / n
            quotient = (tau / y_arr).tolist()
            W = omega_limit + 1j * y_arr[:, None, None] * ell
            hprime = divided_difference(lambda x: problem.h_map(x, 2), W, W, ell[None])
            hprime_norms = opnorm_stack(hprime).tolist()
            verdicts["quotient_bounded"] = trend_ok(quotient)
            verdicts["hprime_bound"] = bool(hprime_norms[-1] <= 1.0 + 1e-3)

        if not selfadjoint_ok:
            applicable = False
            reason = "omega limit not selfadjoint"
        elif not cauchy_ok:
            applicable = False
            reason = "omega values not settling"
        elif not verdicts.get("ell_strictly_positive", False):
            applicable = False
            reason = "normalized imaginary direction not strictly positive"
        else:
            applicable = True

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
        applicable=applicable,
        reason=reason,
        truncated_at=truncated_at,
    )
