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
from .subordination import ConvergenceError, SolverConfig, solve_omega
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


def _load_problem(path):
    return _load(path, problem_from_json, "problem")


def _resolve_config(file_cfg: SolverConfig | None, args,
                    base: SolverConfig | None = None) -> SolverConfig:
    cfg = file_cfg if file_cfg is not None else (base or SolverConfig())
    return SolverConfig(
        tol=args.tol if args.tol is not None else cfg.tol,
        max_iter=args.max_iter if args.max_iter is not None else cfg.max_iter,
        damping=args.damping if args.damping is not None else cfg.damping,
    )


def _floats_csv(text: str, flag: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InputError(f"{flag} expects comma-separated numbers, got {text!r}") from exc
    if not vals:
        raise InputError(f"{flag} is empty")
    return vals


def _alpha_or_point(value: str, dim: int) -> np.ndarray:
    """A real number (scaled identity point) or a path to a matrix file."""
    try:
        return float(value) * np.eye(dim)
    except ValueError:
        return _load_matrix(value, "alpha")


def _print_table(rows: list[tuple[str, str]]) -> None:
    width = max(len(name) for name, _ in rows)
    for name, outcome in rows:
        print(f"{name.ljust(width)}  {outcome}")


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_solve(args) -> int:
    problem, file_cfg = _load_problem(args.problem)
    cfg = _resolve_config(file_cfg, args)
    b = _load_matrix(args.point, "point")
    rep = solve_omega(problem, b, cfg)
    dump_json({
        "omega": matrix_to_json(rep.value),
        "iterations": rep.iterations,
        "residual": rep.residual,
        "converged": rep.converged,
        "provenance": provenance_block(
            "solve", {"problem": args.problem, "point": args.point},
            solver_config_to_json(cfg)),
    }, args.out)
    if not rep.converged:
        print(f"did not converge within {cfg.max_iter} iterations "
              f"(residual {rep.residual:.3e})", file=sys.stderr)
        return 2
    print(f"converged in {rep.iterations} iterations, residual {rep.residual:.3e}")
    return 0


def _cmd_density(args) -> int:
    problem, file_cfg = _load_problem(args.problem)
    cfg = _resolve_config(file_cfg, args, base=DENSITY_CONFIG)
    if args.steps < 2:
        raise InputError("--steps must be at least 2")
    us = np.linspace(args.xmin, args.xmax, args.steps)
    eps = _floats_csv(args.eps, "--eps")
    grid = density_grid(problem, us, eps, cfg)
    prov = provenance_block(
        "density", {"problem": args.problem},
        {"solver": solver_config_to_json(cfg), "xmin": args.xmin,
         "xmax": args.xmax, "steps": args.steps, "eps": eps})
    density_to_csv(grid, args.out, prov)
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
    try:
        alpha = float(args.alpha)
    except ValueError:
        alpha = _load(args.alpha, cp_map_from_json, "alpha")
    b = _load_matrix(args.point, "point")
    cfg = _resolve_config(None, args)
    G = convolution_power_g(model, alpha, b, cfg)
    dump_json({
        "G": matrix_to_json(G),
        "provenance": provenance_block(
            "power", {"model": args.model, "point": args.point},
            {"solver": solver_config_to_json(cfg), "alpha": args.alpha}),
    }, args.out)
    print("wrote G")
    return 0


def _cmd_convolve(args) -> int:
    model = _load(args.model, model_from_json, "model")
    if (args.t is None) == (args.beta is None):
        raise InputError("exactly one of --t and --beta is required")
    beta = args.t if args.t is not None else _load(args.beta, cp_map_from_json, "beta")
    b = _load_matrix(args.point, "point")
    cfg = _resolve_config(None, args)
    G = semicircular_convolve_g(model, beta, b, cfg)
    inputs = {"model": args.model, "point": args.point}
    if args.beta is not None:
        inputs["beta"] = args.beta
    dump_json({
        "G": matrix_to_json(G),
        "provenance": provenance_block(
            "convolve", inputs,
            {"solver": solver_config_to_json(cfg), "t": args.t}),
    }, args.out)
    print("wrote G")
    return 0


def _cmd_rtransform(args) -> int:
    model = _load(args.model, model_from_json, "model")
    g = _load_matrix(args.arg, "argument")
    cfg = _resolve_config(None, args)
    try:
        R = r_transform_eval(model, g, cfg)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    dump_json({
        "R": matrix_to_json(R),
        "provenance": provenance_block(
            "rtransform", {"model": args.model, "arg": args.arg},
            {"solver": solver_config_to_json(cfg)}),
    }, args.out)
    print("wrote R")
    return 0


def _cmd_diagnose(args) -> int:
    problem, file_cfg = _load_problem(args.problem)
    cfg = _resolve_config(file_cfg, args)
    b1 = _load_matrix(args.b1, "b1")
    b2 = _load_matrix(args.b2, "b2")
    inputs = {"problem": args.problem, "b1": args.b1, "b2": args.b2}
    if (args.q is None) != (args.u is None):
        raise InputError("--q and --u must be given together")
    certs = {"delta_omega": delta_omega_spectrum(problem, b1, b2, cfg)}
    if args.q is not None:
        q = _load_matrix(args.q, "q")
        u = _load_matrix(args.u, "u")
        inputs.update({"q": args.q, "u": args.u})
        certs["dvg"] = dvg_spectrum(problem, q, u, cfg)
    dump_json({
        **{name: certificate_to_json(cert) for name, cert in certs.items()},
        "provenance": provenance_block(
            "diagnose", inputs, {"solver": solver_config_to_json(cfg)}),
    }, args.out)
    _print_table([(cert.claim, "PASS" if cert.passed else "FAIL")
                  for cert in certs.values()])
    return 0 if all(cert.passed for cert in certs.values()) else 2


def _cmd_jc_probe(args) -> int:
    problem, file_cfg = _load_problem(args.problem)
    cfg = _resolve_config(file_cfg, args)
    n = problem.model.base_dim
    alpha = _alpha_or_point(args.alpha, n)
    v = _load_matrix(args.v, "v") if args.v else np.eye(n)
    u = _load_matrix(args.u, "u") if args.u else np.eye(n)
    ys = _floats_csv(args.schedule, "--schedule")
    result = jc_probe(problem, alpha, v, u, ys, cfg)
    inputs = {"problem": args.problem}
    if args.v:
        inputs["v"] = args.v
    if args.u:
        inputs["u"] = args.u
    dump_json({
        "probe": jc_probe_to_json(result),
        "provenance": provenance_block(
            "jc-probe", inputs,
            {"solver": solver_config_to_json(cfg), "alpha": args.alpha,
             "schedule": ys}),
    }, args.out)
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
    problem, file_cfg = _load_problem(args.problem)
    cfg = _resolve_config(file_cfg, args)
    a = _load_matrix(args.a, "a")
    b = _load_matrix(args.b, "b")
    T = _load_matrix(args.T, "T") if args.T else None
    res = nc_function_axioms_check(problem, a, b, T, cfg)
    inputs = {"problem": args.problem, "a": args.a, "b": args.b}
    if args.T:
        inputs["T"] = args.T
    dump_json({
        "deviations": {name: {k: float(v) for k, v in dev.items()}
                       for name, dev in res["deviations"].items()},
        "max_deviation": res["max_deviation"],
        "pass": res["passed"],
        "provenance": provenance_block(
            "axioms", inputs, {"solver": solver_config_to_json(cfg)}),
    }, args.out)
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
        dump_json({
            "ks_distance": ks,
            "threshold": args.threshold,
            "pass": passed,
            "eigenvalue_count": int(emp.eigenvalues.size),
            "provenance": provenance_block(
                "validate-rmt",
                {"ensemble": args.ensemble, "against": args.against},
                {"threshold": args.threshold},
                rng_algorithm=RNG_ALGORITHM),
        }, args.out)
    return 0 if passed else 2


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iter", type=int, default=None)
    p.add_argument("--damping", type=float, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every command shares it."""
    parser = argparse.ArgumentParser(
        prog="freeconv",
        description="Numerics for operator-valued free convolutions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the subordination fixed point at one point")
    p.add_argument("--problem", required=True)
    p.add_argument("--point", required=True)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("density", help="recover a spectral density on a grid")
    p.add_argument("--problem", required=True)
    p.add_argument("--xmin", type=float, required=True)
    p.add_argument("--xmax", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--eps", required=True,
                   help="comma-separated offsets above the real axis")
    p.add_argument("--out", required=True)
    p.add_argument("--plot", action="store_true",
                   help="also write a gnuplot data file next to the CSV")
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("power", help="Cauchy transform of a free convolution power")
    p.add_argument("--model", required=True)
    p.add_argument("--alpha", required=True,
                   help="a number >= 1 or a path to a CP-map file")
    p.add_argument("--point", required=True)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("convolve",
                       help="Cauchy transform of model plus free semicircular noise")
    p.add_argument("--model", required=True)
    p.add_argument("--t", type=float, default=None, help="scalar covariance")
    p.add_argument("--beta", default=None, help="path to a CP-map covariance file")
    p.add_argument("--point", required=True)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_convolve)

    p = sub.add_parser("rtransform", help="evaluate the R-transform near zero")
    p.add_argument("--model", required=True)
    p.add_argument("--arg", required=True, help="path to the argument matrix file")
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_rtransform)

    p = sub.add_parser("diagnose",
                       help="spectrum certificates for the difference quotient maps")
    p.add_argument("--problem", required=True)
    p.add_argument("--b1", required=True)
    p.add_argument("--b2", required=True)
    p.add_argument("--q", default=None)
    p.add_argument("--u", default=None)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("jc-probe", help="boundary regularity probe at a real point")
    p.add_argument("--problem", required=True)
    p.add_argument("--alpha", required=True,
                   help="a real number or a path to a selfadjoint matrix file")
    p.add_argument("--schedule", required=True,
                   help="comma-separated decreasing heights y")
    p.add_argument("--v", default=None, help="approach direction (default identity)")
    p.add_argument("--u", default=None, help="probe direction (default identity)")
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_jc_probe)

    p = sub.add_parser("validate-rmt",
                       help="sample an ensemble and compare against a density sheet")
    p.add_argument("--ensemble", required=True)
    p.add_argument("--against", required=True)
    p.add_argument("--threshold", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate_rmt)

    p = sub.add_parser("axioms",
                       help="direct-sum and similarity deviations for G, h, omega")
    p.add_argument("--problem", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--T", default=None)
    p.add_argument("--out", required=True)
    _add_solver_flags(p)
    p.set_defaults(func=_cmd_axioms)

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
        print(f"did not converge: {exc}", file=sys.stderr)
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
