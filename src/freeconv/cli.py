"""Command-line front end.

Subcommands read problem/model/ensemble JSON files, write JSON or CSV
results with a provenance block (input hashes, configuration, versions — no
timestamps, so reruns are byte-identical), and honor one exit-code contract:
0 success, 2 non-convergence or a failed numerical threshold, 1 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .diagnostics import (
    delta_omega_spectrum,
    dvg_spectrum,
    jc_probe,
    nc_function_axioms_check,
)
from .harness import RNG_ALGORITHM, compare_density, sample_rmt_spectrum
from .serialize import (
    certificate_to_json,
    cp_map_from_json,
    density_from_csv,
    density_to_csv,
    dump_json,
    ensemble_from_json,
    gnuplot_data,
    jc_probe_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    problem_from_json,
    provenance_block,
    solver_config_to_json,
)
from .subordination import DEFAULT_CONFIG, ConvergenceError, SolverConfig, solve_omega
from .transforms import (
    DENSITY_CONFIG,
    convolution_power_g,
    density_grid,
    r_transform_eval,
    semicircular_convolve_g,
)


class InputError(Exception):
    """Bad file contents or inconsistent flags; maps to exit code 1."""


def _load(path, reader, what: str):
    try:
        return reader(load_json(path))
    except FileNotFoundError as exc:
        raise InputError(f"{what} file {path} not found") from exc
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"could not parse {what} file {path}: {exc}") from exc


def _load_matrix(path, what: str = "matrix") -> np.ndarray:
    return _load(path, matrix_from_json, what)


def _resolve_config(args, base: SolverConfig = DEFAULT_CONFIG) -> SolverConfig:
    """base with the solver flags given on the command line in place of its
    values; every other field of base is kept."""
    flags = {name: getattr(args, name, None) for name in ("tol", "max_iter", "damping")}
    return replace(base, **{name: v for name, v in flags.items() if v is not None})


def _load_problem(args, base: SolverConfig = DEFAULT_CONFIG):
    """The problem of --problem and its solver settings: the command's base,
    then the keys of the file's solver block, then the solver flags."""
    problem, file_cfg = _load(args.problem, lambda d: problem_from_json(d, base), "problem")
    return problem, _resolve_config(args, base if file_cfg is None else file_cfg)


def _floats_csv(text: str, flag: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not vals:
        raise InputError(f"{flag} is empty")
    return vals


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _alpha_or_point(value: str, dim: int) -> np.ndarray:
    """A real number (scaled identity point) or a path to a matrix file."""
    x = _number(value)
    return _load_matrix(value, "alpha") if x is None else x * np.eye(dim)


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    for name, outcome in rows:
        print(f"{name.ljust(width)}  {outcome}")


def _provenance(args, config: dict, **extra) -> dict:
    """The provenance block of a command: every input file given on its
    command line, hashed, and the configuration.  --alpha takes a number or
    a path, and only a path is an input file."""
    inputs = {}
    for name in args.files:
        path = getattr(args, name)
        if path and not (name == "alpha" and _number(path) is not None):
            inputs[name] = path
    return provenance_block(args.command, inputs, config, **extra)


def _write(args, payload: dict, config: dict, **extra) -> None:
    dump_json({**payload, "provenance": _provenance(args, config, **extra)}, args.out)


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    problem, cfg = _load_problem(args)
    b = _load_matrix(args.point, "point")
    rep = solve_omega(problem, b, cfg)
    _write(args, {
        "omega": matrix_to_json(rep.value),
        "iterations": rep.iterations,
        "residual": rep.residual,
        "converged": rep.converged,
    }, solver_config_to_json(cfg))
    if not rep.converged:
        print(f"did not converge within {cfg.max_iter} iterations "
              f"(residual {rep.residual:.3e})", file=sys.stderr)
        return 2
    print(f"converged in {rep.iterations} iterations, residual {rep.residual:.3e}")
    return 0


def _cmd_density(args) -> int:
    problem, cfg = _load_problem(args, DENSITY_CONFIG)
    if args.steps < 2:
        raise InputError("--steps must be at least 2")
    us = np.linspace(args.xmin, args.xmax, args.steps)
    eps = _floats_csv(args.eps, "--eps")
    grid = density_grid(problem, us, eps, cfg)
    density_to_csv(grid, args.out, _provenance(
        args, {"solver": solver_config_to_json(cfg), "xmin": args.xmin,
               "xmax": args.xmax, "steps": args.steps, "eps": eps}))
    if args.plot:
        gnuplot_data(grid, Path(args.out).with_suffix(".dat"))
    if grid.failures:
        print(f"{len(grid.failures)} grid evaluations did not converge",
              file=sys.stderr)
        return 2
    print(f"wrote {us.size} density values (mass {grid.mass():.6f})")
    return 0


def _cmd_power(args) -> int:
    model = _load(args.model, model_from_json, "model")
    alpha = _number(args.alpha)
    if alpha is None:
        alpha = _load(args.alpha, cp_map_from_json, "alpha")
    b = _load_matrix(args.point, "point")
    cfg = _resolve_config(args)
    G = convolution_power_g(model, alpha, b, cfg)
    _write(args, {"G": matrix_to_json(G)},
           {"solver": solver_config_to_json(cfg), "alpha": args.alpha})
    print("wrote G")
    return 0


def _cmd_convolve(args) -> int:
    model = _load(args.model, model_from_json, "model")
    if (args.t is None) == (args.beta is None):
        raise InputError("exactly one of --t and --beta is required")
    beta = args.t if args.t is not None else _load(args.beta, cp_map_from_json, "beta")
    b = _load_matrix(args.point, "point")
    cfg = _resolve_config(args)
    G = semicircular_convolve_g(model, beta, b, cfg)
    _write(args, {"G": matrix_to_json(G)},
           {"solver": solver_config_to_json(cfg), "t": args.t})
    print("wrote G")
    return 0


def _cmd_rtransform(args) -> int:
    model = _load(args.model, model_from_json, "model")
    g = _load_matrix(args.arg, "argument")
    cfg = _resolve_config(args)
    try:
        R = r_transform_eval(model, g, cfg)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _write(args, {"R": matrix_to_json(R)}, {"solver": {"tol": cfg.tol}})
    print("wrote R")
    return 0


def _cmd_diagnose(args) -> int:
    problem, cfg = _load_problem(args)
    b1 = _load_matrix(args.b1, "b1")
    b2 = _load_matrix(args.b2, "b2")
    if (args.q is None) != (args.u is None):
        raise InputError("--q and --u must be given together")
    certs = {"delta_omega": delta_omega_spectrum(problem, b1, b2, cfg)}
    if args.q is not None:
        q = _load_matrix(args.q, "q")
        u = _load_matrix(args.u, "u")
        certs["dvg"] = dvg_spectrum(problem, q, u, cfg)
    _write(args, {name: certificate_to_json(cert) for name, cert in certs.items()},
           {"solver": solver_config_to_json(cfg)})
    _print_table([(cert.claim, "PASS" if cert.passed else "FAIL")
                  for cert in certs.values()])
    return 0 if all(cert.passed for cert in certs.values()) else 2


def _cmd_jc_probe(args) -> int:
    problem, cfg = _load_problem(args)
    n = problem.model.base_dim
    alpha = _alpha_or_point(args.alpha, n)
    v = _load_matrix(args.v, "v") if args.v else np.eye(n)
    u = _load_matrix(args.u, "u") if args.u else np.eye(n)
    ys = _floats_csv(args.schedule, "--schedule")
    result = jc_probe(problem, alpha, v, u, ys, cfg)
    _write(args, {"probe": jc_probe_to_json(result)},
           {"solver": solver_config_to_json(cfg), "alpha": args.alpha, "schedule": ys})
    if result.truncated_at is not None:
        print(result.reason, file=sys.stderr)
        return 2
    if not result.applicable:
        print(f"not applicable: {result.reason}")
        return 0
    _print_table([(name, "PASS" if ok else "FAIL")
                  for name, ok in result.verdicts.items()])
    return 0


def _cmd_axioms(args) -> int:
    problem, cfg = _load_problem(args)
    a = _load_matrix(args.a, "a")
    b = _load_matrix(args.b, "b")
    T = _load_matrix(args.T, "T") if args.T else None
    res = nc_function_axioms_check(problem, a, b, T, cfg)
    _write(args, {
        "deviations": {name: {k: float(v) for k, v in dev.items()}
                       for name, dev in res["deviations"].items()},
        "max_deviation": res["max_deviation"],
        "pass": res["passed"],
    }, {"solver": solver_config_to_json(cfg)})
    rows = [(f"{name} {kind}", f"{value:.3e}")
            for name, dev in res["deviations"].items()
            for kind, value in dev.items()]
    rows.append(("overall", "PASS" if res["passed"] else "FAIL"))
    _print_table(rows)
    return 0 if res["passed"] else 2


def _cmd_validate_rmt(args) -> int:
    spec = _load(args.ensemble, ensemble_from_json, "ensemble")
    try:
        grid = density_from_csv(args.against)
    except (OSError, ValueError) as exc:
        raise InputError(f"could not load density sheet {args.against}: {exc}") from exc
    emp = sample_rmt_spectrum(spec)
    try:
        ks = compare_density(emp, grid)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    passed = ks <= args.threshold
    print(f"KS distance: {ks:.6f} (threshold {args.threshold:g}) "
          f"-> {'PASS' if passed else 'FAIL'}")
    if args.out:
        _write(args, {
            "ks_distance": ks,
            "threshold": args.threshold,
            "pass": passed,
            "eigenvalue_count": int(emp.eigenvalues.size),
        }, {"threshold": args.threshold}, rng_algorithm=RNG_ALGORITHM)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_REQUIRED = {"required": True}
_OPTIONAL = {"default": None}
_SOLVER_FLAGS = {"--tol": float, "--max-iter": int, "--damping": float}


def _subcommand(sub, name: str, func, help: str, files: dict, flags: dict | None = None,
                solver: tuple[str, ...] = tuple(_SOLVER_FLAGS)) -> None:
    """Add a subcommand: its input-file flags, which are also its provenance
    inputs, its other flags (both flag -> add_argument keywords) and --out.
    A command that solves a fixed point takes the solver flags it uses
    (solver, all three by default) and requires --out; one without solver
    flags takes --out as an option."""
    p = sub.add_parser(name, help=help)
    for flag, kwargs in {**files, **(flags or {})}.items():
        p.add_argument(flag, **kwargs)
    p.add_argument("--out", required=bool(solver), default=None)
    for flag in solver:
        p.add_argument(flag, type=_SOLVER_FLAGS[flag], default=None)
    p.set_defaults(func=func, files=[flag[2:] for flag in files])


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every command shares it."""
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Numerics for operator-valued free convolutions")
    sub = parser.add_subparsers(dest="command", required=True)

    _subcommand(sub, "solve", _cmd_solve, "solve the subordination fixed point at one point",
                {"--problem": _REQUIRED, "--point": _REQUIRED})
    _subcommand(sub, "density", _cmd_density, "recover a spectral density on a grid",
                {"--problem": _REQUIRED},
                {"--xmin": {"type": float, "required": True},
                 "--xmax": {"type": float, "required": True},
                 "--steps": {"type": int, "required": True},
                 "--eps": {"required": True,
                           "help": "comma-separated offsets above the real axis"},
                 "--plot": {"action": "store_true",
                            "help": "also write a gnuplot data file next to the CSV"}})
    _subcommand(sub, "power", _cmd_power, "Cauchy transform of a free convolution power",
                {"--model": _REQUIRED,
                 "--alpha": {"required": True,
                             "help": "a number >= 1 or a path to a CP-map file"},
                 "--point": _REQUIRED})
    _subcommand(sub, "convolve", _cmd_convolve,
                "Cauchy transform of model plus free semicircular noise",
                {"--model": _REQUIRED,
                 "--beta": {"default": None, "help": "path to a CP-map covariance file"},
                 "--point": _REQUIRED},
                {"--t": {"type": float, "default": None, "help": "scalar covariance"}})
    _subcommand(sub, "rtransform", _cmd_rtransform, "evaluate the R-transform near zero",
                {"--model": _REQUIRED,
                 "--arg": {"required": True, "help": "path to the argument matrix file"}},
                solver=("--tol",))
    _subcommand(sub, "diagnose", _cmd_diagnose,
                "spectrum certificates for the difference quotient maps",
                {"--problem": _REQUIRED, "--b1": _REQUIRED, "--b2": _REQUIRED,
                 "--q": _OPTIONAL, "--u": _OPTIONAL})
    _subcommand(sub, "jc-probe", _cmd_jc_probe, "boundary regularity probe at a real point",
                {"--problem": _REQUIRED,
                 "--alpha": {"required": True,
                             "help": "a real number or a path to a selfadjoint matrix file"},
                 "--v": {"default": None, "help": "approach direction (default identity)"},
                 "--u": {"default": None, "help": "probe direction (default identity)"}},
                {"--schedule": {"required": True,
                                "help": "comma-separated decreasing heights y"}})
    _subcommand(sub, "validate-rmt", _cmd_validate_rmt,
                "sample an ensemble and compare against a density sheet",
                {"--ensemble": _REQUIRED, "--against": _REQUIRED},
                {"--threshold": {"type": float, "default": 0.05}}, solver=())
    _subcommand(sub, "axioms", _cmd_axioms,
                "direct-sum and similarity deviations for G, h, omega",
                {"--problem": _REQUIRED, "--a": _REQUIRED, "--b": _REQUIRED, "--T": _OPTIONAL})
    return parser


def run_command(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as exc:
        # argparse already printed usage/help; fold parse failures into the
        # input-error exit code and let --help stay a success
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        report = exc.report
        print(f"did not converge: {exc} ({report.iterations} steps, "
              f"residual {report.residual:.3e})", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"numerical check failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
