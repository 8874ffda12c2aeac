"""The benchmark's workloads: seeded inputs, the operations of one round,
and the check each operation's output must pass.

A workload function takes the imported freeconv package, a seed and a work
directory, writes the input files there and returns the operations of one
round.  Every round of a run repeats the same operations on the same
inputs.  The program is reached through attribute lookups on its modules
at call time (fc.X, fc.serialize.X, fc.cli.run_command), so a traced run
sees every call.
"""

from __future__ import annotations

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import references


class OpFailed(Exception):
    """The program reported a failure: a non-zero exit code or failed grid points."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list]


def run_cli(fc, argv) -> None:
    """Run one freeconv command in-process; a non-zero exit raises OpFailed."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = fc.cli.run_command([str(a) for a in argv])
    if code != 0:
        msg = (err.getvalue() or out.getvalue()).strip().splitlines()
        raise OpFailed(f"freeconv {argv[0]} exited with {code}: {msg[-1] if msg else ''}")


def load(path) -> dict:
    return json.loads(Path(path).read_text())


def write_matrix(fc, path: Path, m: np.ndarray) -> Path:
    fc.serialize.dump_json(fc.serialize.matrix_to_json(m), path)
    return path


def haar(rng, n: int) -> np.ndarray:
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def hermitian(rng, d: int, scale: float) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = (x + x.conj().T) / 2.0
    return scale * h / np.linalg.norm(h, 2)


def psd(rng, d: int, scale: float) -> np.ndarray:
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    p = x @ x.conj().T
    return scale * p / np.linalg.norm(p, 2)


def similar(U: np.ndarray, M: np.ndarray) -> np.ndarray:
    """U M U*, made exactly Hermitian."""
    x = U @ M @ U.conj().T
    return (x + x.conj().T) / 2.0


# ---------------------------------------------------------------------------
# density-scalar: library sheets over a scalar base, then validate-rmt
# ---------------------------------------------------------------------------

# The seed draws eigenvectors, unitary frames and random-matrix samples.
# Spectra, couplings and base problems come from this fixed generator, so
# that every seed asks for the same amount of solver work: the iteration
# counts of these solves change a lot with the spectrum, and a benchmark
# whose work changed with the seed would measure the draw, not the program.
SHAPE_SEED = 2015

SCALAR_N = 48            # size of X
SCALAR_ATOMS = 12
SCALAR_T = 1.0           # variance of the semicircular noise
SCALAR_GRID = (-4.6, 4.6, 61)
SCALAR_EPS = (2e-2, 1e-2)
RMT_SAMPLES = 20


def density_scalar(fc, seed: int, workdir: Path) -> list[Op]:
    shape = np.random.default_rng([SHAPE_SEED, 1])
    locs = np.sort(shape.uniform(-1.5, 1.5, SCALAR_ATOMS))
    mult = 1 + shape.multinomial(SCALAR_N - SCALAR_ATOMS,
                                 np.full(SCALAR_ATOMS, 1.0 / SCALAR_ATOMS))
    lam = np.repeat(locs, mult)
    rng = np.random.default_rng([1, seed])
    X = similar(haar(rng, SCALAR_N), np.diag(lam))
    problem = fc.semicircle_problem(fc.OperatorModel.partial_trace(X, 1),
                                    fc.CPMap.scaled_identity(SCALAR_T, 1))
    spec = fc.EnsembleSpec("deterministic_plus_gue", X, SCALAR_T, SCALAR_N, RMT_SAMPLES, seed)
    ensemble = workdir / "ensemble.json"
    fc.serialize.dump_json(fc.serialize.ensemble_to_json(spec), ensemble)
    us = np.linspace(*SCALAR_GRID)
    sheet, report = workdir / "sheet.csv", workdir / "validate.json"
    reference = functools.cache(
        lambda: references.density_sheet(us, SCALAR_EPS, lam[None], [[SCALAR_T]]))

    def run_sheet():
        grid = fc.density_grid(problem, us, SCALAR_EPS)
        fc.serialize.density_to_csv(grid, sheet)
        if grid.failures:
            raise OpFailed(f"{len(grid.failures)} grid points did not converge")
        return sheet

    def check_sheet(path):
        return checks.check_sheet(*checks.read_sheet(path), us, reference())

    def run_validate():
        run_cli(fc, ["validate-rmt", "--ensemble", ensemble, "--against", sheet,
                     "--out", report])
        return load(report)

    return [
        Op("sheet", run_sheet, check_sheet),
        Op("validate-rmt", run_validate,
           lambda rep: checks.check_validate(rep, SCALAR_N * RMT_SAMPLES)),
    ]


# ---------------------------------------------------------------------------
# density-matrix: an M_3-valued model, one `freeconv density` sheet per round
# ---------------------------------------------------------------------------

MATRIX_N, MATRIX_M = 3, 10      # base M_3, factor M_10
MATRIX_GRID = (-4.5, 4.5, 41)
MATRIX_EPS = (2e-2, 1e-2)


def density_matrix(fc, seed: int, workdir: Path) -> list[Op]:
    n, m = MATRIX_N, MATRIX_M
    shape = np.random.default_rng([SHAPE_SEED, 2])
    blocks = shape.uniform(-1.5, 1.5, (n, m))
    A = shape.uniform(0.1, 0.5, (n, n))
    rng = np.random.default_rng([2, seed])
    W = haar(rng, n)
    D = np.zeros((n * m, n * m), dtype=complex)
    for i in range(n):
        D[i * m:(i + 1) * m, i * m:(i + 1) * m] = similar(haar(rng, m), np.diag(blocks[i]))
    X = similar(np.kron(W, np.eye(m)), D)
    # beta(b) = W diag(A diag(W* b W)) W*, with Kraus operators sqrt(A_ij) W e_i e_j* W*
    beta = fc.CPMap.from_kraus([np.sqrt(A[i, j]) * np.outer(W[:, i], W[:, j].conj())
                                for i in range(n) for j in range(n)])
    problem = fc.semicircle_problem(fc.OperatorModel.partial_trace(X, n), beta)
    path = workdir / "problem.json"
    fc.serialize.dump_json(fc.serialize.problem_to_json(problem), path)
    lo, hi, steps = MATRIX_GRID
    us = np.linspace(lo, hi, steps)
    sheet = workdir / "sheet.csv"
    reference = functools.cache(lambda: references.density_sheet(us, MATRIX_EPS, blocks, A))

    def run_sheet():
        run_cli(fc, ["density", "--problem", path, "--xmin", repr(lo), "--xmax", repr(hi),
                     "--steps", steps, "--eps", ",".join(map(repr, MATRIX_EPS)),
                     "--out", sheet])
        return sheet

    def check_sheet(out):
        return checks.check_sheet(*checks.read_sheet(out), us, reference())

    return [Op("sheet", run_sheet, check_sheet)]


# ---------------------------------------------------------------------------
# edge-approach: `freeconv jc-probe` at the spectral edge of three problems
# ---------------------------------------------------------------------------

SCHEDULE = tuple(10.0 ** -k for k in range(7))
PROBE_FLAGS = ("--damping", "0.5", "--max-iter", "200000")
M2_DIRECTION = (1.0, 0.5)       # eigenvalues of the approach direction v


def edge_approach(fc, seed: int, workdir: Path) -> list[Op]:
    rng = np.random.default_rng([3, seed])
    c_point, c_bern, c_m2 = (float(c) for c in rng.uniform(-1.0, 1.0, 3))
    v = similar(haar(rng, 2), np.diag(M2_DIRECTION))
    ser = fc.serialize
    one = fc.CPMap.scaled_identity(1.0, 1)
    point = fc.semicircle_problem(fc.scalar_to_model(fc.ScalarMeasure.point(c_point)), one)
    bern = fc.SubordinationProblem.power(
        fc.scalar_to_model(fc.ScalarMeasure(((c_bern - 1.0, 0.5), (c_bern + 1.0, 0.5)))),
        fc.CPMap.scaled_identity(2.0, 1))
    m2 = fc.semicircle_problem(fc.OperatorModel.partial_trace(c_m2 * np.eye(2), 2),
                               fc.CPMap.scaled_identity(1.0, 2))
    files = {}
    for name, prob in (("point", point), ("bernoulli", bern), ("m2", m2)):
        files[name] = workdir / f"{name}.json"
        ser.dump_json(ser.problem_to_json(prob), files[name])
    v_path = write_matrix(fc, workdir / "v.json", v)
    schedule = ",".join(repr(y) for y in SCHEDULE)

    def scalar(f):
        return lambda alpha: [np.atleast_2d(f(alpha + 1j * y)) for y in SCHEDULE]

    point_omegas = scalar(lambda b: references.point_semicircle_omega(b, c_point))
    bern_omegas = scalar(lambda b: references.bernoulli_square_omega(b, c_bern))

    def m2_omegas(alpha):
        f = lambda x: c_m2 + references.edge_f(x - c_m2)
        return [references.normal_function(f, alpha, y, v) for y in SCHEDULE]

    h_point = (lambda w: references.point_semicircle_h(w, c_point),
               lambda w, e: references.point_semicircle_dh(w, e, c_point))
    h_bern = (lambda w: references.bernoulli_h(w, c_bern),
              lambda w, e: references.bernoulli_dh(w, e, c_bern))
    h_m2 = (lambda w: references.point_semicircle_h(w, c_m2),
            lambda w, e: references.point_semicircle_dh(w, e, c_m2))

    def probe_op(name, problem_name, alpha, omegas, h, extra=(), verdict=None):
        out = workdir / f"probe-{name}.json"
        reference = functools.cache(lambda: _probe_reference(omegas(alpha), h))

        def run():
            run_cli(fc, ["jc-probe", "--problem", files[problem_name], "--alpha", repr(alpha),
                         "--schedule", schedule, *PROBE_FLAGS, *extra, "--out", out])
            return load(out)["probe"]

        def check(probe):
            ref_omegas, quotient, hprime = reference()
            problems = checks.check_probe(probe, ref_omegas, quotient, hprime)
            return problems + (verdict(probe) if verdict else [])

        return Op(name, run, check)

    return [
        probe_op("edge-point", "point", c_point + 2.0, point_omegas, h_point),
        probe_op("edge-bernoulli-square", "bernoulli", 2.0 * c_bern + 2.0, bern_omegas, h_bern),
        probe_op("edge-m2", "m2", c_m2 + 2.0, m2_omegas, h_m2, ("--v", v_path)),
        probe_op("exterior", "point", c_point + 3.0, point_omegas, h_point,
                 verdict=checks.check_exterior),
        probe_op("interior", "point", c_point, point_omegas, None,
                 verdict=checks.check_interior),
    ]


def _probe_reference(omegas, h):
    if h is None:
        return omegas, None, None
    return (omegas, *references.probe_quantities(omegas[-1], SCHEDULE, *h))


# ---------------------------------------------------------------------------
# certificates: derivative-spectrum certificates and R-transforms
# ---------------------------------------------------------------------------

CERT_DIMS = (2, 3, 4, 5, 6, 8)
CERT_FACTOR = 3                  # factor dimension m of each model
R_DIMS = (1, 2, 3)


def certificates(fc, seed: int, workdir: Path) -> list[Op]:
    shape = np.random.default_rng([SHAPE_SEED, 4])
    rng = np.random.default_rng([4, seed])
    ops = [_certificate_op(fc, shape, rng, n, workdir) for n in CERT_DIMS]
    ops += [_r_transform_op(fc, shape, rng, n) for n in R_DIMS]
    return ops


def _certificate_op(fc, shape, rng, n: int, workdir: Path) -> Op:
    """A random generic problem over M_n, seen in a seeded frame V (x) U.

    The problem and its points are drawn from `shape`; the seed draws the
    unitaries V on B and U on the factor, and every input is conjugated by
    them, so the certificates hold the same spectra in another basis.
    """
    N = n * CERT_FACTOR
    V, U = haar(rng, n), haar(rng, CERT_FACTOR)
    T = np.kron(V, U)

    def frame(b):
        return V @ b @ V.conj().T

    model = fc.OperatorModel.partial_trace(similar(T, hermitian(shape, N, 1.5)), n)
    kraus = [shape.standard_normal((n, N)) + 1j * shape.standard_normal((n, N))
             for _ in range(2)]
    size = np.linalg.norm(sum(K @ K.conj().T for K in kraus), 2)
    eta = fc.CPMap.from_kraus([V @ K @ T.conj().T * np.sqrt(0.8 / size) for K in kraus],
                              to_base=True)
    problem = fc.SubordinationProblem.generic(model, eta, frame(hermitian(shape, n, 0.5)))

    def upper():
        return frame(hermitian(shape, n, 0.7) + 1j * (0.2 * np.eye(n) + psd(shape, n, 0.7)))

    q = frame(psd(shape, n, 0.3) + 0.1 * np.eye(n))
    u, c = frame(hermitian(shape, n, 0.5)), frame(hermitian(shape, n, 1.0))
    points = {
        "b1": upper(), "b2": upper(), "q": q, "u": u,
        "a": frame(0.3 * hermitian(shape, n, 1.0)
                   + 1j * (2.0 * np.eye(n) + 0.2 * psd(shape, n, 1.0))),
        "b": frame(0.3 * hermitian(shape, n, 1.0) + 2.2j * np.eye(n)),
    }
    d = workdir / f"cert-n{n}"
    d.mkdir()
    prob_path = d / "problem.json"
    fc.serialize.dump_json(fc.serialize.problem_to_json(problem), prob_path)
    paths = {k: write_matrix(fc, d / f"{k}.json", val) for k, val in points.items()}
    cert_out, axioms_out = d / "diagnose.json", d / "axioms.json"

    def run():
        run_cli(fc, ["diagnose", "--problem", prob_path, "--b1", paths["b1"],
                     "--b2", paths["b2"], "--q", paths["q"], "--u", paths["u"],
                     "--out", cert_out])
        vq = fc.vq_derivative(problem, q, u, c)
        run_cli(fc, ["axioms", "--problem", prob_path, "--a", paths["a"], "--b", paths["b"],
                     "--out", axioms_out])
        return load(cert_out), vq.agreement_error, load(axioms_out)

    def check(out):
        certs, agreement, axioms = out
        return (checks.check_delta_omega(certs["delta_omega"]) + checks.check_dvg(certs["dvg"])
                + checks.check_vq(agreement) + checks.check_axioms(axioms))

    return Op(f"certificates-n{n}", run, check)


def _r_transform_op(fc, shape, rng, n: int) -> Op:
    V, U = haar(rng, n), haar(rng, 2)
    X = similar(np.kron(V, U), hermitian(shape, 2 * n, 1.0))
    model = fc.OperatorModel.partial_trace(X, n)
    power = fc.ConvolutionPower(model, fc.CPMap.scaled_identity(2.0, n))
    g = V @ (hermitian(shape, n, 0.005) - 1j * (0.03 * np.eye(n) + psd(shape, n, 0.01))) \
        @ V.conj().T

    def run():
        return fc.r_transform_eval(model, g), fc.r_transform_eval(power, g)

    def check(out):
        R_model, R_power = out
        return checks.check_r_transform(R_model, R_power, lambda R: 2.0 * R,
                                        lambda b: references.model_cauchy(X, n, b), g)

    return Op(f"r-transform-n{n}", run, check)


WORKLOADS = {
    "density-scalar": density_scalar,
    "density-matrix": density_matrix,
    "edge-approach": edge_approach,
    "certificates": certificates,
}
