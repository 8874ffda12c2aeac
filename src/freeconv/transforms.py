"""Free-convolution transforms built on the subordination solvers.

Provides Cauchy transforms of semicircular convolutions and convolution
powers, numerical R-transforms, the scalar boundary curve of a measure, and
spectral-density recovery on grids near the real axis.

A Cauchy source is anything with ``base_dim`` and
``cauchy_stack(b_stack, level, cfg, anderson=False) -> SolveStack``, the
record of the source's solve with G as its value: a model (an OperatorModel,
whose record has zero steps, since a model solves nothing), a problem (a
SubordinationProblem, G(b) = G_X(omega(b))) or a user source.  The two
convolutions are problems: SemicircularConvolution is semicircle_problem and
ConvolutionPower is SubordinationProblem.power.  A source that solves a
fixed point returns a CauchyStack, whose omega holds the fixed points, and
starts its solve from cfg.start when that is given.  A problem's G is the
G_X(omega) that the last step of its solve formed at each omega, so the
record costs no inverse after the solve (see solve_omega_stack).  anderson
asks such a source to mix its steps (see subordination._picard_stack);
density sheets ask for it, and a source that solves nothing ignores it.
Density sheets continue in eps: each sheet after the first starts from the
omega of the sheet above it, and a record without omega leaves the next
sheet cold.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .algebra import (
    CPMap,
    POSITIVITY_TOL,
    amplification_level,
    as_element,
    opnorm,
    require_halfplane,
)
from .model import OperatorModel, ScalarMeasure, _require_definite
from .subordination import (
    DEFAULT_CONFIG,
    SolverConfig,
    SubordinationProblem,
    _picard_stack,
)

_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def _as_cp_map(value, dim: int) -> CPMap:
    """A CPMap as given, or a scalar t as t times the identity on B."""
    if isinstance(value, CPMap):
        return value
    return CPMap.scaled_identity(float(value), dim)


def semicircle_problem(base, beta: CPMap) -> SubordinationProblem:
    """Generic subordination problem for base plus semicircular noise of
    covariance beta.  The problem keeps beta, from which it derives eta =
    beta composed with the conditional expectation (so a problem file stores
    the n x n Kraus operators of beta, not those of eta).  base is an
    OperatorModel (a = 0) or a problem that keeps its beta: free semicirculars
    add their covariances, so that gives one problem over base.model with the
    Kraus operators of both covariances and the shift of base."""
    if isinstance(base, SubordinationProblem) and base.beta is not None:
        summed = CPMap.from_kraus(base.beta.kraus + beta.kraus)
        return SubordinationProblem(model=base.model, beta=summed, a=base.a)
    if not isinstance(base, OperatorModel):
        raise TypeError("semicircular noise is added to an OperatorModel or to a "
                        f"problem that keeps its beta, not {type(base).__name__}")
    return SubordinationProblem(model=base, beta=beta)


# the constructors under the names of the two convolutions of the paper
SemicircularConvolution = semicircle_problem
ConvolutionPower = SubordinationProblem.power


def _require_source(source) -> None:
    if not hasattr(source, "cauchy_stack"):
        raise TypeError(f"cannot evaluate a Cauchy transform of {type(source).__name__}")


def cauchy_eval(source, b, cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Cauchy transform of any source at one point b with definite imaginary
    part; the level is read from b.  A point of the lower half-plane gives
    G(b) = G(b*)*."""
    b = as_element(b, "b")
    _require_source(source)
    level = amplification_level(b, source.base_dim)
    _require_definite(b)
    solve = source.cauchy_stack(b[None], level, cfg)
    return solve.require("Cauchy transform evaluation did not converge")[0]


def semicircular_convolve_g(source, beta, b,
                            cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """G of source plus a free semicircular element with covariance beta.

    source is an OperatorModel or a problem that keeps its beta (see
    semicircle_problem); beta may be a CPMap on B or a scalar variance t.
    """
    conv = semicircle_problem(source, _as_cp_map(beta, source.base_dim))
    b = require_halfplane(as_element(b, "b"), "upper", POSITIVITY_TOL, name="b")
    return cauchy_eval(conv, b, cfg)


def convolution_power_g(model: OperatorModel, alpha, b,
                        cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """G of the free convolution power of a model, via subordination."""
    conv = SubordinationProblem.power(model, _as_cp_map(alpha, model.base_dim))
    b = require_halfplane(as_element(b, "b"), "upper", POSITIVITY_TOL, name="b")
    return cauchy_eval(conv, b, cfg)


# ---------------------------------------------------------------------------
# R-transform
# ---------------------------------------------------------------------------


def r_transform_eval(source, g, cfg: SolverConfig = DEFAULT_CONFIG) -> np.ndarray:
    """R(g) = G^{<-1>}(g) - g^{-1} for a small invertible g.

    With h(w) = G(w)^{-1} - w, R(g) = w - g^{-1} at the fixed point of
    w = g^{-1} - h(w), which Picard iteration solves from w = g^{-1}.  On the
    R-domain ||g|| (||X|| + 2) < 1/2 the map contracts strongly, and each
    step costs one Cauchy evaluation at the level of g.  The step
    g^{-1} - G(w)^{-1} is the error it implies for R, so cfg.tol bounds the
    error of R; the outer solve takes at most 60 undamped steps, and
    cfg.max_iter and cfg.damping govern the inner subordination solves.
    """
    g = as_element(g, "g")
    if not hasattr(source, "norm_bound"):
        raise TypeError(f"no norm bound for {type(source).__name__}")
    if opnorm(g) * (source.norm_bound() + 2.0) >= 0.5:
        raise ValueError("outside R-domain")
    if not np.linalg.cond(g) < 1.0 / np.finfo(float).eps:
        raise ValueError("g must be invertible")
    ginv = np.linalg.inv(g)
    level = amplification_level(g, source.base_dim)
    inner_cfg = replace(cfg, start=None)

    def step(w, idx):
        G = source.cauchy_stack(w, level, inner_cfg).require(
            "Cauchy transform evaluation did not converge")
        return w + ginv - np.linalg.inv(G)

    solve = _picard_stack(step, ginv[None], SolverConfig(tol=cfg.tol, max_iter=60))
    return solve.require("R-transform fixed point did not converge")[0] - ginv


# ---------------------------------------------------------------------------
# Scalar boundary curve
# ---------------------------------------------------------------------------


def biane_v_scalar(measure: ScalarMeasure, t: float, u: float) -> float:
    """inf{v >= 0 : t * sum_j w_j / ((u - x_j)^2 + v^2) <= 1}.

    In s = v^2 the defining sum is convex and strictly decreasing, so the
    infimum is 0 or the unique root of sum = 1, and Newton's method started
    left of that root climbs to it without overshooting.  One atom alone
    keeps the sum >= 1 up to s = t w_j - (u - x_j)^2, so Newton starts at the
    largest of these (or 0); the result is checked to satisfy sum = 1 to 1e-12.
    """
    if not (np.isfinite(t) and t > 0):
        raise ValueError("t must be positive and finite")
    if not np.isfinite(u):
        raise ValueError("u must be finite")
    pos = measure.weights > 0
    wts = measure.weights[pos]
    du2 = (u - measure.locations[pos]) ** 2
    s = max(float(np.max(t * wts - du2)), 0.0)
    if s == 0.0 and float(t * np.sum(wts / du2)) <= 1.0:
        return 0.0
    while True:
        q = wts / (du2 + s)
        gap = float(t * np.sum(q)) - 1.0
        if not gap > 0.0:
            break
        s_next = s + gap / float(t * np.sum(q / (du2 + s)))
        if not s_next > s:
            break
        s = s_next
    v = float(np.sqrt(s))
    if not abs(float(t * np.sum(wts / (du2 + v * v))) - 1.0) <= 1e-12:
        raise ArithmeticError("boundary curve refinement stalled")
    return v


# ---------------------------------------------------------------------------
# Density recovery
# ---------------------------------------------------------------------------


@dataclass
class DensityGrid:
    """Spectral density samples recovered from G just above the real axis.

    raw[j, l] holds -(1/pi) Im tau(G(u_j + i eps_l)); density extrapolates
    the two smallest eps linearly to eps = 0 ("richardson" method tag).
    Non-converged entries are NaN and listed in failures, never fabricated.
    """

    abscissae: np.ndarray
    epsilons: tuple[float, ...]
    raw: np.ndarray
    density: np.ndarray
    method: str
    failures: tuple[tuple[int, int], ...] = ()

    def mass(self) -> float:
        """Trapezoid integral of the extrapolated density over the grid."""
        good = np.isfinite(self.density)
        return float(_trapezoid(np.where(good, self.density, 0.0), self.abscissae))

    def cdf(self, x: np.ndarray) -> np.ndarray:
        dens = np.where(np.isfinite(self.density), np.clip(self.density, 0.0, None), 0.0)
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (dens[1:] + dens[:-1]) * np.diff(self.abscissae))])
        return np.interp(x, self.abscissae, cum)


DENSITY_CONFIG = SolverConfig(damping=0.5)


def density_grid(source, abscissae, epsilons,
                 cfg: SolverConfig | None = None) -> DensityGrid:
    """Evaluate -(1/pi) Im tau(G(u + i eps)) on a grid and extrapolate to eps = 0.

    source may be any Cauchy source: a model, a problem or a user source.
    Entries its record flags as not converged are NaN and listed in failures.
    The default solver configuration, DENSITY_CONFIG, uses damping 0.5,
    which keeps the fixed-point iteration contractive arbitrarily close to
    the real axis.  Each sheet is one batched solve per eps with Anderson
    mixing (the source's cauchy_stack with anderson=True), which
    extrapolates the undamped steps and falls back to the damped one where
    it has no history or no admissible candidate: on M_2 and M_3 stacks it
    takes 0.28-0.36 of the steps of damped Picard steps alone, and under a
    quarter on the M_3 sheet of the benchmark.  A sheet whose first step
    costs a millisecond or more is solved after that step as one part solve
    per CPU of the process's affinity mask, bit for bit (see
    subordination._picard_stack): the 41-point M_3 sheet of the benchmark
    is solved in halves on two CPUs, while the steps of a sheet over a
    scalar base stay far below that cost.
    The sheets are solved from the largest eps down, and each sheet after
    the first continues from the one above: its solve starts (cfg.start)
    from the fixed points omega of the sheet above where those converged,
    and from its own b elsewhere.  Im omega >= eps_above > eps, so the start
    lies in the upper half-plane, where the fixed point is unique, and the
    sheet converges to the same omega under the same residual test as a
    cold solve, in about a fifth fewer steps.  A source whose record carries
    no omega (a model, or a plain SolveStack) has every sheet solved cold.
    The abscissae must be finite and strictly increasing, and the epsilons
    positive, finite and distinct; anything else is a ValueError.
    """
    cfg = DENSITY_CONFIG if cfg is None else cfg
    us = np.asarray(abscissae, dtype=float)
    eps = tuple(sorted((float(e) for e in epsilons), reverse=True))
    if us.ndim != 1 or us.size < 2:
        raise ValueError("abscissae must be a vector with at least two points")
    if not (np.all(np.isfinite(us)) and np.all(np.diff(us) > 0)):
        raise ValueError("abscissae must be finite and strictly increasing")
    if not eps or not np.all(np.isfinite(eps)) or eps[-1] <= 0:
        raise ValueError("epsilons must be positive and finite")
    if len(set(eps)) < len(eps):
        raise ValueError("epsilons must be distinct")

    _require_source(source)
    eye = np.eye(source.base_dim, dtype=complex)
    raw = np.empty((us.size, len(eps)))
    failures = []
    above = None        # the record of the sheet above, when it carries omega
    for l, e in enumerate(eps):
        b = (us[:, None, None] + 1j * e) * eye
        sheet_cfg = cfg if above is None else replace(
            cfg, start=np.where(above.converged[:, None, None], above.omega, b))
        solve = source.cauchy_stack(b, 1, sheet_cfg, anderson=True)
        G, _, _, ok = solve
        above = solve if hasattr(solve, "omega") else None
        tau = np.trace(G, axis1=-2, axis2=-1) / G.shape[-1]
        raw[:, l] = -np.imag(tau) / np.pi
        raw[~ok, l] = np.nan
        failures.extend((int(j), l) for j in np.where(~ok)[0])

    if len(eps) >= 2:
        e1, e2 = eps[-2], eps[-1]
        d1, d2 = raw[:, -2], raw[:, -1]
        density = d2 + (d2 - d1) * e2 / (e1 - e2)
        method = "richardson"
    else:
        density = raw[:, 0].copy()
        method = "none"
    return DensityGrid(abscissae=us, epsilons=eps, raw=raw, density=density,
                       method=method, failures=tuple(failures))
