"""JSON and CSV formats for models, problems, ensembles, and results.

Matrices are stored entrywise as [re, im] pairs so files are valid JSON and
diff cleanly; all writers sort keys and avoid timestamps, making repeated
runs byte-identical.  Files are strict JSON: a non-finite number is written
as null, and a null matrix entry is refused on reading.  CSV density sheets
carry their provenance in leading comment lines and list failed points.

A generic problem file holds its nonlinearity under exactly one of two keys:
"eta", the CP map from the ambient algebra into B, or "beta", the covariance
on B of a semicircular element added to the model, with eta = beta o E.  A
problem that keeps its beta (semicircle_problem) is written with "beta":
r Kraus operators of size n x n in place of the r m operators of size
n x nm that eta has.
"""

from __future__ import annotations

import hashlib
import json
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import CPMap
from .diagnostics import JCProbeResult, SpectrumCertificate
from .harness import EnsembleSpec
from .model import OperatorModel, ScalarMeasure
from .subordination import SolverConfig, SubordinationProblem
from .transforms import DensityGrid


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------


def _finite_or_null(x: float) -> float | None:
    return float(x) if np.isfinite(x) else None


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise ValueError("only 2d matrices serialize")
    entries = [[[_finite_or_null(v.real), _finite_or_null(v.imag)] for v in row]
               for row in m]
    if m.shape[0] == m.shape[1]:
        return {"dim": m.shape[0], "entries": entries}
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": entries}


def matrix_from_json(d: dict) -> np.ndarray:
    if "dim" in d:
        rows = cols = _integral(d, "dim")
    else:
        rows, cols = _integral(d, "rows"), _integral(d, "cols")
    entries = d["entries"]
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ValueError("matrix entries do not match the declared shape")
    out = np.empty((rows, cols), dtype=complex)
    for i, row in enumerate(entries):
        for j, (re, im) in enumerate(row):
            if re is None or im is None:
                raise ValueError(f"matrix entry ({i}, {j}) is null, a non-finite value")
            out[i, j] = complex(re, im)
    return out


# ---------------------------------------------------------------------------
# Measures, CP maps, models, problems
# ---------------------------------------------------------------------------


def measure_to_json(measure: ScalarMeasure) -> dict:
    return {"atoms": [[float(x), float(w)] for x, w in measure.atoms]}


def measure_from_json(d: dict) -> ScalarMeasure:
    return ScalarMeasure(atoms=tuple((float(x), float(w)) for x, w in d["atoms"]))


def cp_map_to_json(m: CPMap) -> dict:
    if m.kind == "scaled_identity":
        return {"kind": "scaled_identity", "scale": m.scale, "dim": m.in_dim}
    return {"kind": m.kind, "kraus": [matrix_to_json(K) for K in m.kraus]}


def cp_map_from_json(d: dict) -> CPMap:
    kind = d["kind"]
    if kind == "scaled_identity":
        return CPMap.scaled_identity(float(d["scale"]), _integral(d, "dim"))
    if kind in ("kraus_on_B", "kraus_to_B"):
        kraus = [matrix_from_json(K) for K in d["kraus"]]
        return CPMap.from_kraus(kraus, to_base=(kind == "kraus_to_B"))
    raise ValueError(f"unknown CP map kind {kind!r}")


def model_to_json(model: OperatorModel) -> dict:
    expectation = "partial_trace" if model.uniform else \
        {"weights": [float(w) for w in model.weights]}
    return {
        "base_dim": model.base_dim,
        "ambient_dim": model.ambient_dim,
        "X": matrix_to_json(model.X),
        "expectation": expectation,
    }


def model_from_json(d: dict) -> OperatorModel:
    X = matrix_from_json(d["X"])
    n = _integral(d, "base_dim")
    if "ambient_dim" in d and _integral(d, "ambient_dim") != X.shape[0]:
        raise ValueError(f"ambient_dim {d['ambient_dim']!r} is not the size {X.shape[0]} of X")
    expectation = d.get("expectation", "partial_trace")
    if expectation == "partial_trace":
        return OperatorModel.partial_trace(X, n)
    weights = np.asarray(expectation["weights"], dtype=float)
    return OperatorModel(X=X, base_dim=n, weights=weights)


def solver_config_to_json(cfg: SolverConfig) -> dict:
    return {"tol": cfg.tol, "max_iter": cfg.max_iter, "damping": cfg.damping}


def solver_config_from_json(d: dict | None, base: SolverConfig | None = None) -> SolverConfig:
    """A solver block read over base: a key the block leaves out keeps the
    value of base."""
    base = base if base is not None else SolverConfig()
    if not d:
        return base
    read = {"tol": _real, "max_iter": _integral, "damping": _real}
    return replace(base, **{key: read[key](d, key) for key in read if key in d})


def problem_to_json(problem: SubordinationProblem,
                    solver: SolverConfig | None = None) -> dict:
    out: dict = {"model": model_to_json(problem.model), "variant": problem.variant}
    if problem.variant == "generic":
        if problem.beta is not None:
            out["beta"] = cp_map_to_json(problem.beta)
        else:
            out["eta"] = cp_map_to_json(problem.eta)
        if np.any(problem.a):
            out["a"] = matrix_to_json(problem.a)
    else:
        out["alpha"] = cp_map_to_json(problem.alpha)
    if solver is not None:
        out["solver"] = solver_config_to_json(solver)
    return out


def problem_from_json(d: dict, base: SolverConfig | None = None
                      ) -> tuple[SubordinationProblem, SolverConfig | None]:
    """Parse a problem file; returns the problem and its solver block, if
    any, read over base (default SolverConfig()).  A generic problem needs
    exactly one of the keys "eta" and "beta"."""
    model = model_from_json(d["model"])
    variant = d.get("variant", "generic")
    if variant == "generic":
        if ("eta" in d) == ("beta" in d):
            raise ValueError('a generic problem needs exactly one of "eta" and "beta"')
        maps = {key: cp_map_from_json(d[key]) for key in ("eta", "beta") if key in d}
        a = matrix_from_json(d["a"]) if "a" in d else None
        problem = SubordinationProblem(model=model, a=a, **maps)
    elif variant == "power":
        alpha = cp_map_from_json(d["alpha"]) if isinstance(d["alpha"], dict) \
            else CPMap.scaled_identity(_real(d, "alpha"), model.base_dim)
        problem = SubordinationProblem.power(model, alpha)
    else:
        raise ValueError(f"unknown problem variant {variant!r}")
    solver = solver_config_from_json(d["solver"], base) if "solver" in d else None
    return problem, solver


def ensemble_to_json(spec: EnsembleSpec) -> dict:
    if isinstance(spec.deterministic, ScalarMeasure):
        deterministic = {"measure": measure_to_json(spec.deterministic)}
    else:
        deterministic = {"matrix": matrix_to_json(spec.deterministic)}
    return {
        "kind": spec.kind,
        "deterministic": deterministic,
        "t": spec.t,
        "matrix_size": spec.matrix_size,
        "samples": spec.samples,
        "seed": spec.seed,
    }


def ensemble_from_json(d: dict) -> EnsembleSpec:
    det = d["deterministic"]
    if "measure" in det:
        deterministic = measure_from_json(det["measure"])
    else:
        deterministic = matrix_from_json(det["matrix"])
    return EnsembleSpec(
        kind=d["kind"],
        deterministic=deterministic,
        t=float(d["t"]),
        matrix_size=_integral(d, "matrix_size"),
        samples=_integral(d, "samples"),
        seed=_integral(d, "seed"),
    )


def _integral(d: dict, key: str) -> int:
    """d[key] as an int when it is an integral number (2 or 2.0), else a
    ValueError naming the key (2.7 is not truncated to 2)."""
    value = d[key]
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(d: dict, key: str) -> float:
    """d[key] as a float when it is a number, else a ValueError naming the
    key (float() would take true as 1.0 and "1e-10" as 1e-10)."""
    value = d[key]
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


def certificate_to_json(cert: SpectrumCertificate) -> dict:
    return {
        "claim": cert.claim,
        "pass": cert.passed,
        "min_real": cert.min_real,
        "spectral_radius": cert.spectral_radius,
        "eigenvalues": [[float(ev.real), float(ev.imag)] for ev in cert.eigenvalues],
        "details": {k: float(v) for k, v in cert.details.items()},
    }


def jc_probe_to_json(result: JCProbeResult) -> dict:
    return {
        "applicable": result.applicable,
        "reason": result.reason,
        "truncated_at": result.truncated_at,
        "verdicts": dict(result.verdicts),
        "y_schedule": list(result.y_schedule),
        "im_norms": [float(v) for v in result.im_norms],
        "increments": [float(v) for v in result.increments],
        "quotient": [float(v) for v in result.quotient],
        "hprime_norms": [float(v) for v in result.hprime_norms],
        "omega_limit": None if result.omega_limit is None
        else matrix_to_json(result.omega_limit),
        "ell_estimate": None if result.ell_estimate is None
        else matrix_to_json(result.ell_estimate),
        "omega_values": [matrix_to_json(w) for w in result.omega_values],
    }


# ---------------------------------------------------------------------------
# Files, hashing, provenance
# ---------------------------------------------------------------------------


def _strict(data):
    """data with every non-finite float replaced by None."""
    if isinstance(data, dict):
        return {k: _strict(v) for k, v in data.items()}
    if isinstance(data, (list, tuple)):
        return [_strict(v) for v in data]
    if isinstance(data, float):
        return _finite_or_null(data)
    return data


def dump_json(data: dict, path) -> None:
    text = json.dumps(_strict(data), sort_keys=True, indent=2, allow_nan=False)
    Path(path).write_text(text + "\n")


def load_json(path) -> dict:
    return json.loads(Path(path).read_text())


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def versions_block() -> dict:
    return {
        "freeconv": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
    }


def provenance_block(command: str, inputs: dict, config: dict,
                     rng_algorithm: str | None = None) -> dict:
    block = {
        "command": command,
        "inputs": {name: {"path": str(p), "sha256": sha256_of(p)}
                   for name, p in inputs.items()},
        "config": config,
        "versions": versions_block(),
    }
    if rng_algorithm is not None:
        block["rng_algorithm"] = rng_algorithm
    return block


# ---------------------------------------------------------------------------
# Density CSV
# ---------------------------------------------------------------------------


def density_to_csv(grid: DensityGrid, path, provenance: dict | None = None) -> None:
    """Write the extrapolated sheet to path and the raw sheet alongside it.

    Negative extrapolated values are clipped to zero on output, with the
    number of clipped entries recorded in a comment; raw values are written
    untouched.  Non-converged points are left as nan and also listed in a
    comment so that downstream readers cannot mistake them for data.
    """
    path = Path(path)
    clipped = int(np.sum(np.isfinite(grid.density) & (grid.density < 0.0)))
    lines = []
    if provenance is not None:
        lines.append("# provenance: " + json.dumps(provenance, sort_keys=True))
    lines.append(f"# method: {grid.method}")
    lines.append("# epsilons: " + ",".join(f"{e:.17g}" for e in grid.epsilons))
    lines.append(f"# clipped_negative: {clipped}")
    if grid.failures:
        lines.append("# failures: " + ";".join(f"{j},{l}" for j, l in grid.failures))
    lines.append("u,density")
    for u, rho in zip(grid.abscissae, grid.density):
        val = max(rho, 0.0) if np.isfinite(rho) else float("nan")
        lines.append(f"{u:.17g},{val:.17g}")
    path.write_text("\n".join(lines) + "\n")

    raw_path = path.with_name(path.stem + ".raw" + path.suffix)
    raw_lines = []
    if provenance is not None:
        raw_lines.append("# provenance: " + json.dumps(provenance, sort_keys=True))
    raw_lines.append("u,epsilon,raw")
    for j, u in enumerate(grid.abscissae):
        for l, e in enumerate(grid.epsilons):
            raw_lines.append(f"{u:.17g},{e:.17g},{grid.raw[j, l]:.17g}")
    raw_path.write_text("\n".join(raw_lines) + "\n")


def density_from_csv(path) -> DensityGrid:
    """Load an extrapolated density sheet written by density_to_csv."""
    method = "loaded"
    epsilons: tuple[float, ...] = ()
    failures: tuple[tuple[int, int], ...] = ()
    us, rhos = [], []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("method:"):
                method = body.split(":", 1)[1].strip()
            elif body.startswith("epsilons:"):
                epsilons = tuple(float(tok) for tok in
                                 body.split(":", 1)[1].split(",") if tok.strip())
            elif body.startswith("failures:"):
                failures = tuple((int(j), int(l)) for j, l in
                                 (pair.split(",") for pair in
                                  body.split(":", 1)[1].split(";") if pair.strip()))
            continue
        if line.startswith("u,"):
            continue
        u_tok, rho_tok = line.split(",")
        us.append(float(u_tok))
        rhos.append(float(rho_tok))
    if len(us) < 2:
        raise ValueError("density sheet holds fewer than two rows")
    density = np.asarray(rhos)
    return DensityGrid(
        abscissae=np.asarray(us),
        epsilons=epsilons if epsilons else (float("nan"),),
        raw=density[:, None],
        density=density,
        method=method,
        failures=failures,
    )


def gnuplot_data(grid: DensityGrid, path) -> None:
    """Two-column whitespace-separated density data for gnuplot."""
    lines = ["# u density"]
    for u, rho in zip(grid.abscissae, grid.density):
        val = max(rho, 0.0) if np.isfinite(rho) else float("nan")
        lines.append(f"{u:.17g} {val:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")
