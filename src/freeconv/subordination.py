"""Subordination fixed points for operator-valued free convolutions.

The central objects are fixed-point equations on the noncommutative upper
half-plane.  The generic problem iterates

    w  <-  b + a + eta[(X otimes 1_k - w)^{-1}]

for a completely positive eta from the ambient algebra into B and a
selfadjoint shift a; the convolution-power variant iterates

    w  <-  b + (alpha - Id)[h(w)],    h(w) = G(w)^{-1} - w,

for a completely positive alpha on B with alpha - Id completely positive.
Both maps send the upper half-plane strictly inside itself, so damped Picard
iteration from w = b converges; damping 0.5 is useful near the boundary where
the contraction factor approaches an oscillation.  Near a spectral edge the
contraction factor tends to 1 and Picard needs about y^(-1/2) steps at height
y, so a solve that has taken 6 (1 + 8 d^2) Picard steps on a d x d point
without converging (about the cost of one Newton solve) switches to Newton
steps, with the derivative of the nonlinearity read from the 2x2 upper
triangular amplification.  The fixed point in the upper half-plane is unique,
so a Newton iterate that stays there and passes the same residual test is
that fixed point; a damped Picard step stands in for any Newton step that
would leave the half-plane or that follows one which did not lower the
residual.  The v_q solve stays on Picard.

The auxiliary map g_q(u, v) = q + eta[((X-u) v^{-1} (X-u) + v)^{-1}] has, for
each selfadjoint u and positive q, a unique positive fixed point v_q(u); the
graph of v_q over u = Re omega(r + iq) recovers Im omega(r + iq).  Phi_q is
the associated right inverse of r -> Re omega(r + iq) on the real axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .algebra import (
    CPMap,
    HERMITIAN_TOL,
    POSITIVITY_TOL,
    amplification_level,
    as_element,
    choi_minus_identity_min,
    dag,
    identity_kron,
    imag_part,
    is_strictly_positive,
    matrix_units,
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


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration settings.

    Convergence is declared on the residual of the fixed-point equation, not
    on step size.  start, when given, replaces the default initial point (b
    itself for subordination solves, q + 1 for v_q solves).  Subordination
    solves on a d x d point switch from Picard to Newton steps after
    6 (1 + 8 d^2) steps without converging; max_iter counts both kinds of
    step, and damping applies to the Picard steps only.
    """

    tol: float = 1e-12
    max_iter: int = 20000
    damping: float = 0.0
    start: np.ndarray | None = None

    def __post_init__(self):
        if not (self.tol > 0):
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")


DEFAULT_CONFIG = SolverConfig()


@dataclass
class SolveReport:
    value: np.ndarray
    iterations: int
    residual: float
    converged: bool


class ConvergenceError(RuntimeError):
    """Raised by operations that need a converged solve; carries the report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class SubordinationProblem:
    """A model together with the data of one fixed-point equation.

    variant "generic" uses (a, eta); variant "power" uses alpha, with the
    nonlinearity (alpha - Id) h(w) derived from the model's own h-transform.
    """

    model: OperatorModel
    eta: CPMap | None = None
    a: np.ndarray | None = None
    alpha: CPMap | None = None
    variant: str = "generic"

    def __post_init__(self):
        n, N = self.model.base_dim, self.model.ambient_dim
        if self.variant == "generic":
            if self.eta is None:
                raise ValueError("generic problems need an eta map")
            if self.eta.out_dim != n or self.eta.in_dim != N:
                raise ValueError(
                    f"eta must map the ambient algebra (dim {N}) to B (dim {n})")
            a = np.zeros((n, n), dtype=complex) if self.a is None else \
                require_hermitian(self.a, HERMITIAN_TOL, name="a")
            if a.shape[0] != n:
                raise ValueError("a must live in B")
            object.__setattr__(self, "a", a)
        elif self.variant == "power":
            if self.alpha is None:
                raise ValueError("power problems need an alpha map")
            if self.alpha.in_dim != n or self.alpha.out_dim != n:
                raise ValueError("alpha must act on B")
            if self.eta is not None or self.a is not None:
                raise ValueError("power problems take no eta or shift")
            gap = choi_minus_identity_min(self.alpha)
            if gap < -1e-10:
                raise ValueError(
                    f"alpha - Id is not completely positive (Choi minimum {gap:.3e})")
        else:
            raise ValueError(f"unknown variant {self.variant!r}")

    @classmethod
    def generic(cls, model: OperatorModel, eta: CPMap, a=None) -> "SubordinationProblem":
        return cls(model=model, eta=eta, a=a, variant="generic")

    @classmethod
    def power(cls, model: OperatorModel, alpha: CPMap) -> "SubordinationProblem":
        return cls(model=model, alpha=alpha, variant="power")

    @property
    def base_dim(self) -> int:
        return self.model.base_dim

    def cauchy_stack(self, b_stack: np.ndarray, level: int = 1,
                     cfg: SolverConfig = DEFAULT_CONFIG):
        """(G values, converged mask): G(b) = G_X(omega(b)) after a batched solve."""
        w, _, _, ok = solve_omega_stack(self, b_stack, cfg, level)
        return self.model.cauchy(w, level), ok

    # -- the nonlinear part of the fixed-point map ------------------------

    @cached_property
    def _eta_weights(self) -> np.ndarray:
        """c_j = eta(u_j u_j*) for the eigenvectors u_j of X (base_dim 1)."""
        KU = np.stack(self.eta.kraus) @ self.model.spectrum[1]
        return np.sum(np.abs(KU) ** 2, axis=(0, 1))

    def h_map(self, w: np.ndarray, level: int = 1) -> np.ndarray:
        """Evaluate the problem's nonlinearity on a (stacked) half-plane point.

        Over a scalar base the generic eta[(X - w)^{-1}] is the spectral sum
        -sum_j c_j (w - lambda_j)^{-1}; a larger base inverts the dense
        resolvent and applies eta's Kraus operators.
        """
        if self.variant == "generic":
            if self.base_dim == 1:
                return -self.model.spectral_sum(self._eta_weights, w, level)
            Xk = identity_kron(level, self.model.X)
            R = np.linalg.inv(Xk - self.model.embed(w))
            return self.eta.apply(R, level)
        G = self.model.cauchy(w, level)
        h = np.linalg.inv(G) - w
        return self.alpha.apply(h, level) - h

    def shift(self, level: int = 1) -> np.ndarray:
        n = self.model.base_dim
        a = self.a if self.variant == "generic" else np.zeros((n, n), dtype=complex)
        return identity_kron(level, a)


# ---------------------------------------------------------------------------
# Fixed-point driver (stacked): damped Picard, then safeguarded Newton
# ---------------------------------------------------------------------------


def _newton_budget(d: int) -> int:
    """Picard steps after which an unconverged d x d entry switches to Newton.

    One Newton step costs one level-k evaluation plus d^2 directional
    derivatives at level 2k, each about 8 level-k evaluations since the work
    is cubic, and about six Newton steps finish a solve.  Switching once
    Picard has spent that much bounds the loss at about 2x when Newton was
    not needed (a ski-rental rule).
    """
    return 6 * (1 + 8 * d * d)


def _newton_points(derivative, w: np.ndarray, diff: np.ndarray,
                   idx: np.ndarray) -> np.ndarray:
    """w + (I - Dstep(w))^{-1} (step(w) - w) per entry; NaN where singular."""
    A = np.eye(diff.shape[-1] ** 2) - derivative(w, idx)
    rhs = vec(diff)[..., None]
    try:
        x = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError:
        x = np.full_like(rhs, np.nan)
        for i in range(len(A)):
            try:
                x[i] = np.linalg.solve(A[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    return w + unvec(x[..., 0], w.shape[-1])


def _in_upper_halfplane(w: np.ndarray) -> np.ndarray:
    """Mask of the finite entries of a stack with Im w positive definite."""
    ok = np.all(np.isfinite(w), axis=(-2, -1))
    ok[ok] = np.linalg.eigvalsh(imag_part(w[ok]))[:, 0] > 0
    return ok


def _picard_stack(step: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  w0: np.ndarray, cfg: SolverConfig,
                  derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None):
    """Solve w = step(w) entrywise on a batch.

    step(w_active, idx) evaluates the fixed-point map on the active subset;
    idx holds the original batch indices so that closures can slice their
    constants.  Entries freeze at the first iterate whose equation residual
    drops below tol (Frobenius test, spectral norm reported).

    Steps are damped Picard steps w <- (1 - damping) step(w) + damping w.
    When derivative(w_active, idx) is given (the Jacobian of step on vec(M_d)
    as a stack of d^2 x d^2 matrices), an entry still unconverged after
    _newton_budget(d) steps takes Newton steps
    w <- w + (I - Dstep(w))^{-1} (step(w) - w) instead.  A damped Picard step
    replaces the Newton step when the candidate is not in the upper
    half-plane or the linear system is singular, and when the previous
    Newton step did not lower the residual.  max_iter counts both kinds.
    """
    w = np.array(w0, dtype=complex)
    nbatch = w.shape[0]
    iterations = np.full(nbatch, cfg.max_iter, dtype=np.int64)
    residual = np.full(nbatch, np.inf)
    converged = np.zeros(nbatch, dtype=bool)
    budget = cfg.max_iter if derivative is None else _newton_budget(w.shape[-1])
    tol2 = cfg.tol * cfg.tol
    active = np.arange(nbatch)
    wa = w.copy()                  # iterates of the active entries
    before = np.full(nbatch, np.inf)   # squared residual before the last Newton step
    for it in range(1, cfg.max_iter + 1):
        fw = step(wa, active)
        diff = fw - wa
        res2 = np.sum(diff.real ** 2 + diff.imag ** 2, axis=(-2, -1))
        done = res2 <= tol2
        if done.any():
            sel = active[done]
            iterations[sel] = it
            residual[sel] = opnorm_stack(diff[done])
            converged[sel] = True
            w[sel] = wa[done]
            rest = ~done
            active, wa, fw, diff, res2, before = (
                x[rest] for x in (active, wa, fw, diff, res2, before))
            if active.size == 0:
                break
        nxt = (1.0 - cfg.damping) * fw + cfg.damping * wa
        if it > budget:
            newton = np.flatnonzero(res2 < before)
            before = np.full(active.size, np.inf)
            if newton.size:
                cand = _newton_points(derivative, wa[newton], diff[newton], active[newton])
                ok = _in_upper_halfplane(cand)
                nxt[newton[ok]] = cand[ok]
                before[newton[ok]] = res2[newton[ok]]
        wa = nxt
    if active.size:
        w[active] = wa
        residual[active] = opnorm_stack(step(wa, active) - wa)
    return w, iterations, residual, converged


def _single(w, iterations, residual, converged) -> SolveReport:
    return SolveReport(value=w[0], iterations=int(iterations[0]),
                       residual=float(residual[0]), converged=bool(converged[0]))


# ---------------------------------------------------------------------------
# Subordination solves
# ---------------------------------------------------------------------------


def _omega_step(problem: SubordinationProblem, b_stack: np.ndarray, level: int):
    ak = problem.shift(level)

    def step(w, idx):
        return b_stack[idx] + ak + problem.h_map(w, level)

    return step


def _omega_derivative(problem: SubordinationProblem, level: int):
    """Jacobian of the fixed-point map on vec(M_d), d = n k at level k.

    Dh(w)[E_ij] is the top-right block of h at [[w, E_ij], [0, w]]: one
    batched h_map call at level 2k over the matrix units serves every variant.
    """
    d = problem.base_dim * level
    units = matrix_units(d)

    def derivative(w, idx):
        m = len(w)
        wb = np.broadcast_to(w[:, None], (m, d * d, d, d))
        blocks = upper_block(wb, units, wb).reshape(m * d * d, 2 * d, 2 * d)
        top = problem.h_map(blocks, 2 * level)[:, :d, d:]
        return np.swapaxes(vec(top.reshape(m, d * d, d, d)), -1, -2)

    return derivative


def solve_omega_stack(problem: SubordinationProblem, b_stack: np.ndarray,
                      cfg: SolverConfig = DEFAULT_CONFIG, level: int | None = None):
    """Batched solve over a stack of upper half-plane points (shared level)."""
    b_stack = np.asarray(b_stack, dtype=complex)
    k = amplification_level(b_stack, problem.base_dim) if level is None else level
    step = _omega_step(problem, b_stack, k)
    w0 = b_stack if cfg.start is None else np.broadcast_to(
        np.asarray(cfg.start, dtype=complex), b_stack.shape).copy()
    return _picard_stack(step, w0, cfg, _omega_derivative(problem, k))


def solve_omega(problem: SubordinationProblem, b,
                cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Solve the subordination fixed point at one point b with Im b > 0.

    Returns a report whose value satisfies the fixed-point equation to the
    configured residual tolerance; non-convergence is reported, not raised.
    """
    b = require_halfplane(as_element(b, "b"), "upper", POSITIVITY_TOL, name="b")
    return _single(*solve_omega_stack(problem, b[None], cfg))


def residual_h(problem: SubordinationProblem, w, b) -> float:
    """Residual of the right-inverse equation, ||H(w) - b|| with
    H(w) = w - a - eta[(X - w)^{-1}] (or its convolution-power analogue)."""
    w = require_halfplane(as_element(w, "w"), "upper", POSITIVITY_TOL, name="w")
    b = as_element(b, "b")
    if b.shape != w.shape:
        raise ValueError("w and b must live at the same amplification level")
    k = amplification_level(w, problem.base_dim)
    Hw = w - problem.shift(k) - problem.h_map(w, k)
    return opnorm(Hw - b)


def solve_omega_alpha(model: OperatorModel, alpha: CPMap, b,
                      cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Subordination for convolution powers: w* = b + (alpha - Id)[h(w*)]."""
    problem = SubordinationProblem.power(model, alpha)
    return solve_omega(problem, b, cfg)


# ---------------------------------------------------------------------------
# The v_q fixed point and its right inverse
# ---------------------------------------------------------------------------


def _require_generic(problem: SubordinationProblem, op: str) -> None:
    if problem.variant != "generic":
        raise ValueError(f"{op} requires a generic-variant problem with an explicit eta map")


def _gq_step(problem: SubordinationProblem, q_stack: np.ndarray,
             u_stack: np.ndarray, level: int):
    model = problem.model
    Xk = identity_kron(level, model.X)
    Y = Xk - model.embed(u_stack)   # constant per batch entry

    def step(v, idx):
        vh = model.embed(v)
        inner = Y[idx] @ np.linalg.inv(vh) @ Y[idx] + vh
        return q_stack[idx] + problem.eta.apply(np.linalg.inv(inner), level)

    return step


def solve_gq_stack(problem: SubordinationProblem, q_stack: np.ndarray,
                   u_stack: np.ndarray, cfg: SolverConfig = DEFAULT_CONFIG,
                   level: int | None = None):
    """Batched v_q solves; u entries may be non-selfadjoint amplifications."""
    _require_generic(problem, "solve_vq")
    q_stack = np.asarray(q_stack, dtype=complex)
    u_stack = np.asarray(u_stack, dtype=complex)
    k = amplification_level(u_stack, problem.base_dim) if level is None else level
    d = u_stack.shape[-1]
    if cfg.start is None:
        v0 = np.broadcast_to(np.eye(d), u_stack.shape) + q_stack
    else:
        v0 = np.broadcast_to(np.asarray(cfg.start, dtype=complex), u_stack.shape)
    step = _gq_step(problem, q_stack, u_stack, k)
    return _picard_stack(step, np.array(v0, dtype=complex), cfg)


def solve_vq(problem: SubordinationProblem, q, u,
             cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Positive fixed point of g_q(u, .) for selfadjoint u and positive q.

    The iteration starts at v = q + 1 and stays in the positive definite
    cone; near the spectral boundary (small q) the linearization approaches
    an oscillation, where damping 0.5 restores fast convergence.
    """
    _require_generic(problem, "solve_vq")
    q = require_hermitian(q, name="q")
    if not is_strictly_positive(q, POSITIVITY_TOL):
        raise ValueError("q must be strictly positive")
    u = require_hermitian(u, name="u")
    if q.shape != u.shape:
        raise ValueError("q and u must have matching shapes")
    return _single(*solve_gq_stack(problem, q[None], u[None], cfg))


def phi_q(problem: SubordinationProblem, q, w,
          cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Right inverse of the boundary curve r -> Re omega(r + iq).

    Phi_q(w) = w - a - eta[v^{-1} (X - w) ((X - w) v^{-1} (X - w) + v)^{-1}]
    with v = v_q(w); applied to w = Re omega(u + iq) it returns u.
    """
    _require_generic(problem, "phi_q")
    w = require_hermitian(w, name="w")
    report = solve_vq(problem, q, w, cfg)
    if not report.converged:
        raise ConvergenceError("v_q solve did not converge inside phi_q", report)
    model = problem.model
    v = model.embed(report.value)
    Y = model.X - model.embed(w)
    vinv = np.linalg.inv(v)
    inner = np.linalg.inv(Y @ vinv @ Y + v)
    return w - problem.a - problem.eta.apply(vinv @ Y @ inner)
