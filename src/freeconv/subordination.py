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
y, so a solve that has taken 6 (9 + d^4/32) Picard steps on a d x d point
without converging (about the measured cost of six Newton steps) switches to
Newton steps, with the derivative of the nonlinearity read from the 2x2 upper
triangular amplification.  The fixed point in the upper half-plane is unique,
so a Newton iterate that stays there and passes the same residual test is
that fixed point; a damped Picard step stands in for any Newton step that
would leave the half-plane or that follows one which did not lower the
residual.  The v_q solve takes the same switch, with the positive definite
cone (Re v > 0) in place of the half-plane.  A stack of block upper
triangular points [[b1, c], [0, b2]] is tested on its diagonal blocks
alone, since its fixed point keeps that form and its corner may be large
against the imaginary parts of the diagonal.

A caller that passes anderson=True gets Anderson mixing of the undamped
images with the last three residuals, under the same half-plane
safeguard, and a damped Picard step wherever the mixing has no history or
no admissible candidate.  Density sheets pass it: on an M_3-valued sheet it
takes under a quarter of the steps, so that the Newton switch is rarely
reached.  Other solves take plain damped Picard steps: on single points and
small stacks the mixing's bookkeeping costs more than the steps it saves,
and near a spectral edge its iterate is less accurate at the same residual.
A stack whose first step costs a millisecond or more is solved after that
step as one part solve per CPU, each with its own Anderson mixing and Newton
derivatives, with the bits of the serial solve (see _picard_stack).

The auxiliary map g_q(u, v) = q + Im h(u + iv), with h the nonlinearity of
either variant, has for each selfadjoint u and positive q a unique positive
fixed point v_q(u), and w = u + iv solves the fixed-point equation at a b
with Im b = q exactly when v = g_q(u, v).  So the graph of v_q over
u = Re omega(r + iq) recovers Im omega(r + iq), and Phi_q(w) = w - a -
Re h(w + i v_q(w)) (a = 0 for a power) is the associated right inverse of
r -> Re omega(r + iq) on the real axis.
"""

from __future__ import annotations

import time
from dataclasses import InitVar, dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Callable, NamedTuple

import numpy as np

from . import parallel
from .algebra import (
    BlockUpper,
    CPMap,
    HERMITIAN_TOL,
    POSITIVITY_TOL,
    amplification_level,
    as_element,
    choi_minus_identity_min,
    dag,
    dense,
    divided_difference,
    identity_kron,
    imag_part,
    inv,
    is_block_upper,
    is_strictly_positive,
    matrix_units,
    opnorm,
    opnorm_stack,
    real_part,
    require_halfplane,
    require_hermitian,
    split,
    unvec,
    vec,
)

if TYPE_CHECKING:
    from .model import OperatorModel


@dataclass(frozen=True)
class SolverConfig:
    """Fixed-point iteration settings.

    Convergence is declared on the residual of the fixed-point equation, not
    on step size.  start, when given, replaces the default initial point (b
    itself for subordination solves, q + 1 for v_q solves); it is one point
    for every entry or a stack of per-entry starts, which must broadcast to
    the stack's shape and lie in the solve's half-plane (ValueError
    otherwise).  Density sheets pass the fixed points of the sheet above as
    per-entry starts.  Both solves on a d x d point switch from Picard to
    Newton steps after 6 (9 + d^4/32) steps without converging (54 at d = 1
    and 2, 66 at d = 3); max_iter counts both kinds of step, and damping
    applies to the Picard steps only.
    """

    tol: float = 1e-12
    max_iter: int = 20000
    damping: float = 0.0
    start: np.ndarray | None = None

    def __post_init__(self):
        if not (0 < self.tol < np.inf):
            raise ValueError("tol must be positive and finite")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 1):
            raise ValueError(f"max_iter must be an integer of at least 1, got {self.max_iter!r}")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")


DEFAULT_CONFIG = SolverConfig()


@dataclass
class SolveReport:
    value: np.ndarray
    iterations: int
    residual: float
    converged: bool

    def require(self, message: str) -> np.ndarray:
        """The value, or ConvergenceError(message) carrying this report."""
        if not self.converged:
            raise ConvergenceError(message, self)
        return self.value


class ConvergenceError(RuntimeError):
    """Raised by operations that need a converged solve; carries the report."""

    def __init__(self, message: str, report: SolveReport):
        super().__init__(message)
        self.report = report


class SolveStack(NamedTuple):
    """One batched solve, entry by entry: the final iterates, the steps
    taken (max_iter where unconverged, or the step that was not finite),
    the final residual in spectral norm (inf after a step that was not
    finite) and the converged flag."""

    value: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray
    converged: np.ndarray

    def report(self, i: int) -> SolveReport:
        return SolveReport(value=self.value[i], iterations=int(self.iterations[i]),
                           residual=float(self.residual[i]),
                           converged=bool(self.converged[i]))

    def require(self, message: str) -> np.ndarray:
        """The values, or ConvergenceError(message) carrying the report of
        the first entry that did not converge."""
        bad = np.flatnonzero(~self.converged)
        if bad.size:
            raise ConvergenceError(message, self.report(bad[0]))
        return self.value


class CauchyStack(SolveStack):
    """The record of a Cauchy source that solves a fixed point: value is
    G(b) = G_X(omega(b)), and omega holds the fixed points omega(b) it was
    read from (the final iterates where unconverged)."""

    def __new__(cls, value, iterations, residual, converged, omega):
        record = super().__new__(cls, value, iterations, residual, converged)
        record.omega = omega
        return record

    def _replace(self, **changes) -> "CauchyStack":
        return CauchyStack(*super()._replace(**changes), omega=self.omega)


@dataclass(frozen=True)
class SubordinationProblem:
    """A model together with the data of one fixed-point equation.

    variant "generic" uses (a, eta); variant "power" uses alpha, with the
    nonlinearity (alpha - Id) h(w) derived from the model's own h-transform.
    A generic problem for the model plus a semicircular element of
    covariance beta (a CP map on B) is given by beta in place of eta, and
    keeps it: eta = beta o E is derived from it here, with E the model's
    conditional expectation.  dataclasses.replace hands the derived eta back
    together with beta, and _derived_eta (which only replace passes) tells it
    apart from an eta given with beta, which is a ValueError; the eta is then
    derived anew, so replace gives the problem built anew from its fields.
    """

    model: OperatorModel
    eta: CPMap | None = None
    a: np.ndarray | None = None
    alpha: CPMap | None = None
    variant: str = "generic"
    beta: CPMap | None = None
    _derived_eta: InitVar[CPMap | None] = None

    def __post_init__(self, _derived_eta):
        n, N = self.model.base_dim, self.model.ambient_dim
        if self.variant == "generic":
            if self.beta is not None:
                if self.eta is not None and self.eta is not _derived_eta:
                    raise ValueError("give eta or beta, not both")
                if self.beta.in_dim != n or self.beta.out_dim != n:
                    raise ValueError(f"beta must act on B (dim {n})")
                expectation = CPMap.from_kraus(self.model.expectation_kraus(), to_base=True)
                object.__setattr__(self, "eta", self.beta.compose(expectation))
                object.__setattr__(self, "_derived_eta", self.eta)
            if self.eta is None:
                raise ValueError("generic problems need an eta map or a beta map")
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
            if self.eta is not None or self.beta is not None or self.a is not None:
                raise ValueError("power problems take no eta, beta or shift")
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

    def norm_bound(self) -> float:
        """A bound on the norm of the convolution's element: a generic problem
        is X + a plus a semicircular of covariance eta, of norm at most
        2 ||eta(1)||^(1/2); a power problem is bounded by ||X|| (1 + ||alpha(1)||)."""
        if self.variant == "power":
            return self.model.norm_bound() * (1.0 + self.alpha.norm_bound())
        return self.model.norm_bound() + opnorm(self.a) + 2.0 * np.sqrt(self.eta.norm_bound())

    def cauchy_stack(self, b_stack: np.ndarray, level: int = 1,
                     cfg: SolverConfig = DEFAULT_CONFIG, anderson: bool = False) -> CauchyStack:
        """The record of a batched solve, with G(b) = G_X(omega(b)) as its
        value and the fixed points as its omega; the solve takes dense points
        (a BlockUpper stack is assembled).  G comes from the solve's last
        step at each omega (see solve_omega_stack's cauchy_out)."""
        b_stack = dense(b_stack)
        G = np.empty(np.shape(b_stack), dtype=complex)
        w, iterations, residual, converged = solve_omega_stack(
            self, b_stack, cfg, level, anderson, cauchy_out=G)
        return CauchyStack(G, iterations, residual, converged, omega=w)

    # -- the nonlinear part of the fixed-point map ------------------------

    @cached_property
    def _eta_weights(self) -> np.ndarray:
        """c_j = eta(u_j u_j*) for the eigenvectors u_j of X (base_dim 1)."""
        KU = np.stack(self.eta.kraus) @ self.model.spectrum[1]
        return np.sum(np.abs(KU) ** 2, axis=(0, 1))

    def h_map(self, w, level: int = 1):
        """Evaluate the problem's nonlinearity on a (stacked) half-plane point.

        Over a scalar base the generic eta[(X - w)^{-1}] is the spectral sum
        -sum_j c_j (w - lambda_j)^{-1}; a larger base inverts the resolvent
        and applies eta (through its natural matrix when eta has many Kraus
        operators, see CPMap.apply).
        """
        if self.variant == "generic" and self.base_dim == 1:
            return -self.model.spectral_sum(self._eta_weights, w, level)
        if self.variant == "generic":
            return -self.eta.apply(self.model.resolvent(w, level), level)
        return self._h_and_cauchy(w, level)[0]

    def _h_and_cauchy(self, w, level: int):
        """(h(w), G_X(w)) from the calls of one nonlinearity evaluation:
        the power variant inverts G_X(w), and the generic one takes the
        expectation of the resolvent it applies eta to, which only this
        pays for.  G_X(w) has the bits of model.cauchy(w, level).  Not for
        a generic problem over a scalar base, whose h is a spectral sum."""
        if self.variant == "generic":
            R = self.model.resolvent(w, level)
            return -self.eta.apply(R, level), self.model.expect(R, level)
        G = self.model.cauchy(w, level)
        h = inv(G, level) - w
        return self.alpha.apply(h, level) - h, G

    def shift(self, level: int = 1) -> np.ndarray:
        n = self.model.base_dim
        a = self.a if self.variant == "generic" else np.zeros((n, n), dtype=complex)
        return identity_kron(level, a)


# ---------------------------------------------------------------------------
# Fixed-point driver (stacked): damped Picard, then safeguarded Newton
# ---------------------------------------------------------------------------


def _newton_budget(d: int) -> int:
    """Picard steps after which an unconverged d x d entry switches to Newton.

    About six Newton steps finish a solve, and one Newton step costs r(d)
    Picard steps, so switching once Picard has spent 6 (1 + r(d)) steps
    bounds the loss at about 2x when Newton was not needed (a ski-rental
    rule).  The d^2 directional derivatives of a Newton step are one
    evaluation at level 2k on a BlockUpper stack that holds the diagonal
    once (divided_difference), so r(d) stays far below the d^2 level-k
    evaluations of a dense derivative.  One Newton step (_newton_points)
    against one Picard step (_omega_step), timeit minima, one BLAS thread,
    2-vCPU Xeon; random m = 3 problems, and at d = 3 an M_3 model with 90
    Kraus operators; level-2 points are block upper triangular:

        d (level)    1 (1)  2 (1)  3 (1)  4 (1)  4 (2)  6 (1)  8 (1)  8 (2)  16 (2)
        1 entry       9.6    3.6    4.5    5.1    2.6   10.5   17.2   12.3   203
        20 entries    3.7    6.6    6.9    8.7    7.8   28.4   51.4   57.0   442

    r(d) = 8 + d^4 / 32 lies above these except at d = 1 on one entry, and
    gives budgets of 54 at d = 1 and 2, 66 at d = 3, 102 at d = 4, 294 at
    d = 6 and 12 342 at d = 16.
    """
    return 6 * (9 + d ** 4 // 32)


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


def _admissible(part: Callable[[np.ndarray], np.ndarray], level: int = 1,
                stacks: tuple = (), mirrored: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """The admissible test of one solve, built once its input stacks and its
    start are known: the mask of the finite entries w of a stack with part(w)
    positive definite (for 1 x 1 entries, read off the one real number).

    At an even level where every stack has an exactly zero lower-left half
    block, the fixed point is block upper triangular [[w1, c], [0, w2]].
    Such a point lies in the domain of an nc function on a half-plane when
    w1 and w2 do, whatever the size of c (Kaliuzhnyi-Verbovetskyi and
    Vinnikov, Foundations of Free Noncommutative Function Theory, 2014), and
    the corner may be large against them, so the test is then taken on the
    diagonal blocks alone, with a finite corner.  The test first zeroes the
    lower-left block that a Newton step leaves at rounding size, so steps
    stay on blocks.  For a mirrored solve (see solve_gq_stack) it then
    replaces each candidate, in place, by its real part in the sense of the
    solve's dag, dense(real_part(split(w, level))).
    """
    d = stacks[0].shape[-1] // 2 if stacks and all(is_block_upper(s, level) for s in stacks) else 0

    def positive(w: np.ndarray) -> np.ndarray:
        ok = np.all(np.isfinite(w), axis=(-2, -1))
        p = part(w[ok])
        ok[ok] = (p[:, 0, 0].real if w.shape[-1] == 1 else np.linalg.eigvalsh(p)[:, 0]) > 0
        return ok

    def admissible(w: np.ndarray) -> np.ndarray:
        if d:
            w[..., d:, :d] = 0.0
        if mirrored:
            w[...] = dense(real_part(split(w, level)))
        if not d:
            return positive(w)
        return (positive(w[..., :d, :d]) & positive(w[..., d:, d:])
                & np.all(np.isfinite(w[..., :d, d:]), axis=(-2, -1)))

    return admissible


# fewest steps on the M_3 density sheet of the benchmark among depths 1-6:
# 927, 770, 734, 796, 850 and 896 steps for its two eps-sheets
ANDERSON_DEPTH = 3


class _AndersonHistory:
    """Anderson mixing (Walker and Ni, SIAM J. Numer. Anal. 49, 2011) of
    the points x of a stacked solve, which are its undamped images step(w)
    (mixing parameter 1).

    Per active entry it keeps the last ANDERSON_DEPTH differences of the
    residuals f = step(w) - w and of the points x, vectorized, in
    preallocated slots written in turn; unused and cleared slots hold
    zeros, which the ridge gives zero weight.
    """

    def __init__(self, nbatch: int, size: int):
        shape = (nbatch, ANDERSON_DEPTH, size)
        self.df = np.zeros(shape, dtype=complex)
        self.dp = np.zeros(shape, dtype=complex)
        self.f = self.p = self.res2 = None
        self.slot = 0

    def keep(self, rows: np.ndarray) -> None:
        """Drop the history of the entries that froze."""
        self.df, self.dp = self.df[rows], self.dp[rows]
        if self.f is not None:
            self.f, self.p, self.res2 = self.f[rows], self.p[rows], self.res2[rows]

    def _clear(self, rows: np.ndarray) -> None:
        if rows.any():
            self.df[rows] = 0.0
            self.dp[rows] = 0.0

    def mix(self, diff: np.ndarray, res2: np.ndarray, x: np.ndarray,
            admissible, fallback: np.ndarray | None = None) -> np.ndarray:
        """x - dP gamma with gamma = argmin ||f - dF gamma|| per entry.

        An entry with no difference in its history takes fallback (x when
        not given): on the first step, and on a step where its squared
        residual res2 grew since the last one, which clears its history.
        One whose candidate is not admissible also takes fallback and
        clears its history.
        """
        fallback = x if fallback is None else fallback
        f = diff.reshape(len(diff), -1)
        xv = x.reshape(len(x), -1)
        if self.f is None:
            self.f, self.p, self.res2 = f, xv, res2
            return fallback.copy()   # the driver writes Newton points into the result
        self.df[:, self.slot] = f - self.f
        self.dp[:, self.slot] = xv - self.p
        self.slot = (self.slot + 1) % ANDERSON_DEPTH
        grown = res2 > self.res2
        self._clear(grown)
        self.f, self.p, self.res2 = f, xv, res2
        dfh = self.df.conj()
        if f.shape[-1] == 1:
            # push-through: (dF* dF + r)^-1 dF* f = dF* (dF dF* + r)^-1 f, and
            # dF dF* is the number ||dF||^2; the product comes first, so
            # that a cleared slot gives 0 and not inf * 0
            norm2 = np.sum(self.df.real ** 2 + self.df.imag ** 2, axis=(-2, -1))
            den = (1.0 + 1e-13) * norm2 + np.finfo(float).tiny
            gamma = dfh * f[:, None] / den[:, None, None]
        else:
            gram = dfh @ self.df.swapaxes(-1, -2)
            ridge = 1e-13 * np.trace(gram.real, axis1=-2, axis2=-1) + np.finfo(float).tiny
            gram[:, range(ANDERSON_DEPTH), range(ANDERSON_DEPTH)] += ridge[:, None]
            gamma = np.linalg.solve(gram, dfh @ f[..., None])
        cand = (xv - (gamma.swapaxes(-1, -2) @ self.dp)[:, 0]).reshape(x.shape)
        bad = ~admissible(cand)
        self._clear(bad)
        bad |= grown
        cand[bad] = fallback[bad]
        return cand


def _picard_stack(step: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  w0: np.ndarray, cfg: SolverConfig,
                  derivative: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
                  admissible: Callable[[np.ndarray], np.ndarray] = _admissible(imag_part),
                  anderson: bool = False) -> SolveStack:
    """Solve w = step(w) entrywise on a batch.

    The result is one SolveStack record: per entry the final iterate, the
    steps taken (max_iter where it ran out of steps), the final residual and
    the converged flag; an entry whose step is not finite stops there, with
    its last finite iterate and an infinite residual.  It unpacks as
    (w, iterations, residual, converged);
    report(i) gives entry i as a SolveReport, and require(message) returns
    the values or raises ConvergenceError with the first unconverged entry.

    step(w_active, idx) evaluates the fixed-point map on the active subset;
    idx holds the original batch indices so that closures can slice their
    constants.  Entries freeze at the first iterate whose equation residual
    drops below tol (Frobenius test, spectral norm reported).

    Steps are damped Picard steps p = (1 - damping) step(w) + damping w.
    With anderson each step extrapolates the undamped images over the last
    ANDERSON_DEPTH steps: with f = step(w) - w, the next iterate is
    step(w) - dF^ gamma, where dF and dF^ hold the differences of the
    recent f and step(w) and gamma minimizes ||f - dF gamma|| (normal
    equations with a small relative ridge).  That is Anderson mixing with
    mixing parameter 1; mixing the damped points instead (parameter
    1 - damping) took 1.1-1.6 times as many steps on M_2 and M_3 stacks.
    An entry whose history holds no difference takes the damped Picard step
    p: on its first step, and when its residual grew, which restarts it
    from an empty history and stops the mixed iterates from drifting with a
    growing residual.  An entry whose candidate is not admissible takes p
    and clears its history; the fixed point in the half-plane is unique, so
    this keeps a solve from converging to one outside it, and the damping
    still guards the steps near the real axis.

    When derivative(w_active, idx) is given (the Jacobian of step on vec(M_d)
    as a stack of d^2 x d^2 matrices), an entry still unconverged after
    _newton_budget(d) steps takes Newton steps
    w <- w + (I - Dstep(w))^{-1} (step(w) - w) instead.  A damped Picard step
    replaces the Newton step when the candidate is not admissible (by
    default: not in the upper half-plane) or the linear system is singular,
    and when the previous Newton step did not lower the residual.  max_iter
    counts every kind of step.

    On two CPUs or more, a stack of four entries or more evaluates its first
    step on the calling thread in two pieces: the entries of a first part,
    then the rest, timed by the CPU time of the thread (time.thread_time,
    which a preempted thread does not accrue), so that a cache the first
    piece filled (an eigendecomposition, say) is not counted.  When that
    time per entry times the number of entries reaches parallel.SPLIT_MIN_S
    (a millisecond), the solve goes on as part solves, one per CPU of the
    process's affinity mask, on contiguous parts of two entries or more,
    each from its slice of the first step; the first part runs on the
    calling thread and the others on threads started for this solve
    (parallel.run_parts), and their records are joined in entry order.
    Each entry's solve computes the same bits in a part as in the whole
    stack, so the split changes no bit of the result.  It serves every
    solve, omega and v_q, and the Anderson mixing and the Newton
    derivatives run in the parts.  With one CPU no thread is started, and
    an affinity mask (taskset -c 0) keeps a process on one.  The threads
    add to those of a multi-threaded BLAS, which can then oversubscribe
    the CPUs.
    """
    w = np.array(w0, dtype=complex)
    n = len(w)
    cpus = 1 if n < 4 else parallel.cpus()
    if cpus == 1:
        return _picard_run(step, w, None, cfg, derivative, admissible, anderson)
    k = max(2, n // cpus)
    head = step(w[:k], np.arange(k))
    start = time.thread_time()
    first = np.concatenate([head, step(w[k:], np.arange(k, n))])
    if (time.thread_time() - start) / (n - k) * n < parallel.SPLIT_MIN_S:
        return _picard_run(step, w, first, cfg, derivative, admissible, anderson)

    def part(w: np.ndarray, first: np.ndarray, offset: int) -> SolveStack:
        # the entries offset, offset + 1, ... of the stack, indexed from 0
        def shift(f):
            return f and (lambda x, idx: f(x, idx + offset))

        return _picard_run(shift(step), w, first, cfg, shift(derivative), admissible, anderson)

    parts = min(cpus, n // 2)
    cut = [n * p // parts for p in range(parts + 1)]
    solves = parallel.run_parts(part, [(w[a:b], first[a:b], a) for a, b in zip(cut, cut[1:])])
    return SolveStack(*(np.concatenate(field) for field in zip(*solves)))


def _picard_run(step, w: np.ndarray, first: np.ndarray | None, cfg: SolverConfig,
                derivative, admissible, anderson: bool) -> SolveStack:
    """The solve of _picard_stack on the calling thread, from the iterates
    w, which it overwrites; first, when given, is step(w)."""
    nbatch = w.shape[0]
    iterations = np.full(nbatch, cfg.max_iter, dtype=np.int64)
    residual = np.full(nbatch, np.inf)
    converged = np.zeros(nbatch, dtype=bool)
    if nbatch == 0:
        return SolveStack(w, iterations, residual, converged)
    budget = cfg.max_iter if derivative is None else _newton_budget(w.shape[-1])
    tol2 = cfg.tol * cfg.tol
    active = np.arange(nbatch)
    wa = w.copy()                  # iterates of the active entries
    before = np.full(nbatch, np.inf)   # squared residual before the last Newton step
    history = _AndersonHistory(nbatch, w[0].size) if anderson else None
    fw = step(wa, active) if first is None else first
    for it in range(1, cfg.max_iter + 1):
        diff = fw - wa
        res2 = np.sum(diff.real ** 2 + diff.imag ** 2, axis=(-2, -1))
        rest = (res2 > tol2) & (res2 < np.inf)   # neither converged nor failed
        if not rest.all():
            done, stop = res2 <= tol2, ~rest
            iterations[active[stop]] = it
            residual[active[done]] = opnorm_stack(diff[done])
            converged[active[done]] = True
            w[active[stop]] = wa[stop]
            active, wa, fw, diff, res2, before = (
                x[rest] for x in (active, wa, fw, diff, res2, before))
            if active.size == 0:
                break
            if history is not None:
                history.keep(rest)
        nxt = (1.0 - cfg.damping) * fw + cfg.damping * wa
        if history is not None:
            nxt = history.mix(diff, res2, fw, admissible, fallback=nxt)
        if it > budget:
            newton = np.flatnonzero(res2 < before)
            before = np.full(active.size, np.inf)
            if newton.size:
                cand = _newton_points(derivative, wa[newton], diff[newton], active[newton])
                ok = admissible(cand)
                nxt[newton[ok]] = cand[ok]
                before[newton[ok]] = res2[newton[ok]]
        wa = nxt
        fw = step(wa, active)
    if active.size:
        w[active] = wa
        residual[active] = opnorm_stack(fw - wa)
    return SolveStack(w, iterations, residual, converged)


# ---------------------------------------------------------------------------
# Subordination solves
# ---------------------------------------------------------------------------


def _omega_step(problem: SubordinationProblem, b_stack: np.ndarray, level: int,
                record: np.ndarray | None = None):
    """The fixed-point map on the active entries; with record, each step
    also writes G_X of its points into record at their batch indices, so
    that record ends with G_X at each entry's returned iterate, the last
    one its step evaluated (see SubordinationProblem._h_and_cauchy)."""
    shifted = b_stack + problem.shift(level)

    def step(w, idx):
        if record is None:
            return shifted[idx] + dense(problem.h_map(split(w, level), level))
        h, G = problem._h_and_cauchy(split(w, level), level)
        record[idx] = dense(G)
        return shifted[idx] + dense(h)

    return step


def _jacobians(fmap: Callable, w: np.ndarray, w2: np.ndarray | None = None) -> np.ndarray:
    """Delta f(w, w2) on vec(M_d) for each entry of the stacks w and w2, as
    d^2 x d^2 matrices; w2 None gives the derivative Df(w).

    Column ij is the divided difference of f at (w, w2) on the matrix unit
    E_ij: one fmap call at the doubled level over the matrix units, with
    each entry's diagonals held once (divided_difference), and a single
    entry's diagonals passed as one matrix each.  The Newton steps and the
    derivative certificates take every Jacobian from here.
    """
    wk = w[:, None]
    w2k = wk if w2 is None else w2[:, None]
    top = divided_difference(fmap, wk, w2k, matrix_units(w.shape[-1]))
    return np.swapaxes(vec(top), -1, -2)


def _omega_derivative(problem: SubordinationProblem, level: int):
    """Jacobian of the fixed-point map on vec(M_d), d = n k at level k: one
    batched h_map call at level 2k serves every variant."""

    def derivative(w, idx):
        return _jacobians(lambda x: problem.h_map(x, 2 * level), w)

    return derivative


def _stacks(**stacks) -> list[np.ndarray]:
    """The named stacks as complex arrays; a ValueError names the shapes
    unless they share one shape (B, d, d), or the entries that are not finite."""
    arrays = [np.asarray(x, dtype=complex) for x in stacks.values()]
    shape = arrays[0].shape
    if len(shape) != 3 or shape[1] != shape[2] or any(a.shape != shape for a in arrays):
        shapes = ", ".join(f"{name} {a.shape}" for name, a in zip(stacks, arrays))
        raise ValueError(f"stacks must share one shape (B, d, d), got {shapes}")
    for name, a in zip(stacks, arrays):
        bad = np.flatnonzero(~np.isfinite(a).all(axis=(-2, -1)))
        if bad.size:
            raise ValueError(f"{name} has entries that are not finite: {bad.tolist()}")
    return arrays


def _start_stack(cfg: SolverConfig, default: np.ndarray) -> np.ndarray:
    """The first iterate of a solve: the default start, or cfg.start
    broadcast to its shape as a new array (a ValueError names the shapes)."""
    if cfg.start is None:
        return default
    start = np.asarray(cfg.start, dtype=complex)
    try:
        return np.broadcast_to(start, default.shape).copy()
    except ValueError:
        raise ValueError(f"start has shape {start.shape}, which does not broadcast "
                         f"to the stack's shape {default.shape}") from None


def _require_start(cfg: SolverConfig, start: np.ndarray, admissible):
    """The admissible test of a solve, returned once the start that cfg
    gives, if any, passes it in each entry: a start outside the half-plane
    can reach a fixed point outside it (a ValueError names the entries)."""
    bad = np.flatnonzero(~admissible(start)) if cfg.start is not None else []
    if len(bad):
        raise ValueError(f"start lies outside the solve's half-plane at entries {bad.tolist()}")
    return admissible


def solve_omega_stack(problem: SubordinationProblem, b_stack: np.ndarray,
                      cfg: SolverConfig = DEFAULT_CONFIG,
                      level: int | None = None, anderson: bool = False, *,
                      cauchy_out: np.ndarray | None = None) -> SolveStack:
    """Batched solve over a (B, d, d) stack of points of one level; anderson
    mixes the steps (see _picard_stack).

    Only the shape and the finiteness of the stack are checked (ValueError
    otherwise), not the half-plane: a point b of the lower half-plane gives
    omega(b*)*, so cauchy_stack at b* is G(b)*.  r_transform_eval relies on
    this for a g outside the lower half-plane, whose points g^{-1} lie near
    infinity, where G is analytic even when Im b is not definite.  Elsewhere
    such a point has no Cauchy transform, and cauchy_eval refuses it.

    cauchy_out, a complex array of the stack's shape, receives G_X(omega)
    of each entry's returned omega, with the bits of model.cauchy there.
    The step that evaluated omega already inverted the resolvent or G_X
    at it, so the solve records G_X at every step (one expectation per
    step on the generic dense path) and needs no closing inverse; over a
    scalar base the generic step forms no G_X, and one closing spectral
    sum gives it.
    """
    b_stack, = _stacks(b=b_stack)
    k = amplification_level(b_stack, problem.base_dim) if level is None else level
    w0 = _start_stack(cfg, b_stack)
    admissible = _require_start(cfg, w0, _admissible(imag_part, k, (b_stack, w0)))
    scalar_sum = problem.variant == "generic" and problem.base_dim == 1
    record = None if scalar_sum else cauchy_out
    solve = _picard_stack(_omega_step(problem, b_stack, k, record), w0, cfg,
                          _omega_derivative(problem, k), admissible, anderson)
    if scalar_sum and cauchy_out is not None:
        cauchy_out[...] = dense(problem.model.cauchy(split(solve.value, k), k))
    return solve


def solve_omega(problem: SubordinationProblem, b,
                cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Solve the subordination fixed point at one point b with Im b > 0.

    Returns a report whose value satisfies the fixed-point equation to the
    configured residual tolerance; non-convergence is reported, not raised.
    """
    b = require_halfplane(as_element(b, "b"), "upper", POSITIVITY_TOL, name="b")
    return solve_omega_stack(problem, b[None], cfg).report(0)


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


# ---------------------------------------------------------------------------
# The v_q fixed point and its right inverse
# ---------------------------------------------------------------------------


def _vq_arguments(q, u) -> tuple[np.ndarray, np.ndarray]:
    """q and u as arrays, or ValueError unless q is strictly positive, u is
    selfadjoint and both have one shape."""
    q = require_hermitian(q, name="q")
    if not is_strictly_positive(q, POSITIVITY_TOL):
        raise ValueError("q must be strictly positive")
    u = require_hermitian(u, name="u")
    if q.shape != u.shape:
        raise ValueError("q and u must have matching shapes")
    return q, u


def _selfadjoint(*points) -> bool:
    """Whether dag fixes every point within HERMITIAN_TOL, each entry of a
    stack against its own norm, with one dag for all of them: either every
    point is a BlockUpper, whose dag swaps its halves ([[a, c], [0, a*]],
    c = c*), or none is."""
    if len({isinstance(x, BlockUpper) for x in points}) > 1:
        return False
    pairs = [pair for x in points for pair in (
        ((x.top, x.bottom), (x.corner, x.corner)) if isinstance(x, BlockUpper) else ((x, x),))]
    return all(np.all(np.linalg.norm(a - dag(b), axis=(-2, -1))
                      <= HERMITIAN_TOL * (1.0 + np.linalg.norm(a, axis=(-2, -1))))
               for a, b in pairs)


def g_q(problem: SubordinationProblem, q, u, v, level: int = 1):
    """g_q(u, v) = q + (h(u + iv) - h(u - iv))/2i at level k, batched over
    leading axes of u and v, with h the nonlinearity of either variant.

    h(u - iv) = dag(h(u + iv)) when u and v equal their dag, as in v_q solves
    and their amplifications, so that g_q is q + Im h(u + iv).
    """
    d = level * problem.base_dim
    if any(np.shape(x)[-2:] != (d, d) for x in (q, u, v)):
        raise ValueError(f"g_q at level {level} takes points of size {d}, got shapes "
                         f"{np.shape(q)}, {np.shape(u)} and {np.shape(v)}")
    return _g_q(problem, q, u, v, level, _selfadjoint(u, v))


def _g_q(problem: SubordinationProblem, q, u, v, level: int, mirrored: bool):
    """g_q with h(u - iv) taken as dag(h(u + iv)) when mirrored."""
    h_plus = problem.h_map(u + 1j * v, level)
    h_minus = dag(h_plus) if mirrored else problem.h_map(u - 1j * v, level)
    return q + 0.5j * (h_minus - h_plus)


def _entries(x, idx: np.ndarray):
    """Entries idx of a stack; a BlockUpper keeps a block its stack shares."""
    if isinstance(x, BlockUpper):
        return x.map_blocks(lambda blk: blk if blk.ndim == 2 else blk[idx])
    return x[idx]


def _gq_step(problem: SubordinationProblem, q, u, level: int, mirrored: bool):
    """The v_q step on the split stacks q and u; mirrored is decided once per
    solve (see solve_gq_stack)."""

    def step(v, idx):
        return dense(_g_q(problem, _entries(q, idx), _entries(u, idx), split(v, level),
                          level, mirrored))

    return step


def _gq_jacobians(problem: SubordinationProblem, u, v: np.ndarray,
                  level: int, mirrored: bool | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(D_v g_q, D_u g_q) on vec(M_d), d = n k at level k, at each entry of
    the stacks u and v; q drops out.  u is a dense stack, or the split u
    entries of a solve that passes its mirrored.

    With J+- = Dh(u +- iv), D_v g_q = (J+ + J-)/2 and D_u g_q =
    (J+ - J-)/2i.  When the split u and v equal their dag (mirrored; tested
    here when None), h(u - iv) = dag(h(u + iv)), so J- = P conj(J+) P with P
    the vec form of dag: the transpose, composed with the swap of the halves
    when u is a BlockUpper.  One Jacobian then serves; otherwise one
    _jacobians call takes both points.
    """
    if mirrored is None:
        u = split(u, level)
        mirrored = _selfadjoint(u, split(v, level))
    w = dense(u) + 1j * v
    if not mirrored:
        pair = np.concatenate([w, dense(u) - 1j * v])
        jp, jm = np.split(_jacobians(lambda x: problem.h_map(x, 2 * level), pair), 2)
    else:
        jp = _jacobians(lambda x: problem.h_map(x, 2 * level), w)
        p = np.arange(jp.shape[-1]).reshape(w.shape[-2:]).T    # the transpose on vec,
        half = len(p) // 2 if isinstance(u, BlockUpper) else 0  # then the swap of the halves
        p = np.roll(p, half, (0, 1)).ravel()
        jm = jp[..., p[:, None], p].conj()
    return 0.5 * (jp + jm), -0.5j * (jp - jm)


def solve_gq_stack(problem: SubordinationProblem, q_stack: np.ndarray,
                   u_stack: np.ndarray, cfg: SolverConfig = DEFAULT_CONFIG,
                   level: int | None = None) -> SolveStack:
    """Batched v_q solves for a problem of either variant, over q and u stacks
    of one shape (B, d, d) with finite entries and each q in the solve's
    cone, Re q > 0 (on the diagonal blocks of a block upper triangular
    stack; ValueError otherwise); u entries may be non-selfadjoint
    amplifications.

    When q, u and the start equal their dag, so does every iterate, and each
    step takes h(u - iv) as dag(h(u + iv)): one h_map call.  That is decided
    once, here, on the split points, where dag swaps the halves of a block
    point, and the one decision (mirrored) serves the steps, the Newton
    derivatives, which mirror through the vec form of that dag, and the
    admissible test.  A Newton step solves a complex linear system, so its
    candidate equals its dag only up to rounding, and the mirrored step
    would let that defect grow about a hundredfold per step while the
    positive definite test does not see it.  So the test of a mirrored solve
    first replaces each candidate v by its real part (v + dag(v))/2.
    """
    q_stack, u_stack = _stacks(q=q_stack, u=u_stack)
    k = amplification_level(u_stack, problem.base_dim) if level is None else level
    v0 = _start_stack(cfg, np.broadcast_to(np.eye(u_stack.shape[-1]), u_stack.shape) + q_stack)
    points = (q_stack, u_stack, v0)
    q, u, start = (split(x, k) for x in points)
    mirrored = _selfadjoint(q, u, start)
    admissible = _require_start(cfg, v0, _admissible(real_part, k, points, mirrored))
    bad = np.flatnonzero(~admissible(q_stack.copy()))
    if bad.size:
        raise ValueError(f"q is not strictly positive at entries {bad.tolist()}")
    return _picard_stack(_gq_step(problem, q, u, k, mirrored), v0, cfg,
                         lambda v, idx: _gq_jacobians(problem, _entries(u, idx), v, k,
                                                      mirrored)[0],
                         admissible)


def solve_vq(problem: SubordinationProblem, q, u,
             cfg: SolverConfig = DEFAULT_CONFIG) -> SolveReport:
    """Positive fixed point of g_q(u, .) for selfadjoint u and positive q.

    The iteration starts at v = q + 1 and stays in the positive definite
    cone.  Near the spectral boundary (small q) the linearization approaches
    an oscillation, where damping 0.5 restores fast convergence, and a solve
    still unconverged after the Newton budget of SolverConfig takes Newton
    steps, each kept only when Re v stays positive definite.  On the point
    mass plus semicircle at u = 0 with damping 0, q = 1e-2 to 1e-6 converge
    in 56-58 steps (Picard alone: 2 303 steps at q = 1e-2, about 183 000 at
    q = 1e-4).
    """
    q, u = _vq_arguments(q, u)
    return solve_gq_stack(problem, q[None], u[None], cfg).report(0)


def phi_q(problem: SubordinationProblem, q, w,
          cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Right inverse of the boundary curve r -> Re omega(r + iq).

    Phi_q(w) = w - a - Re h(w + iv) with v = v_q(w), h the problem's
    nonlinearity and a its shift (0 for a power problem), both at the level
    of w; applied to w = Re omega(u + iq) it returns u.
    """
    w = require_hermitian(w, name="w")
    v = solve_vq(problem, q, w, cfg).require("v_q solve did not converge inside phi_q")
    level = amplification_level(w, problem.base_dim)
    return w - problem.shift(level) - real_part(problem.h_map(w + 1j * v, level))
