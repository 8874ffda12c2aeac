import hashlib
import json
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import freeconv.cli
from freeconv import (
    CPMap,
    DensityGrid,
    EnsembleSpec,
    OperatorModel,
    ScalarMeasure,
    SolverConfig,
    SpectrumCertificate,
    SubordinationProblem,
    density_grid,
    scalar_to_model,
)
from freeconv.cli import build_parser, run_command
from freeconv.subordination import solve_omega_stack
from freeconv.serialize import (
    cp_map_from_json,
    cp_map_to_json,
    density_from_csv,
    density_to_csv,
    dump_json,
    ensemble_from_json,
    ensemble_to_json,
    load_json,
    matrix_from_json,
    matrix_to_json,
    measure_from_json,
    measure_to_json,
    model_from_json,
    model_to_json,
    problem_from_json,
    problem_to_json,
    provenance_block,
    sha256_of,
    solver_config_from_json,
)
from freeconv.transforms import DENSITY_CONFIG, semicircle_problem

from _oracles import arcsine2_g, bernoulli_r
from helpers import random_hermitian


# ---------------------------------------------------------------------------
# JSON round trips
# ---------------------------------------------------------------------------


def test_matrix_roundtrip():
    rng = np.random.default_rng(0)
    square = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rect = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
    for m in (square, rect):
        back = matrix_from_json(matrix_to_json(m))
        assert np.array_equal(back, m)
    assert "dim" in matrix_to_json(square)
    assert "rows" in matrix_to_json(rect)
    bad = matrix_to_json(square)
    bad["entries"] = bad["entries"][:2]
    with pytest.raises(ValueError):
        matrix_from_json(bad)


def test_non_finite_values_are_written_as_strict_json(tmp_path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    data = matrix_to_json(np.array([[np.nan]]))
    assert json.loads(json.dumps(data), parse_constant=reject) == {
        "dim": 1, "entries": [[[None, 0.0]]]}
    with pytest.raises(ValueError, match="null"):
        matrix_from_json(data)
    out = tmp_path / "strict.json"
    dump_json({"residual": float("inf"), "values": [1.0, float("nan")]}, out)
    assert json.loads(out.read_text(), parse_constant=reject) == {
        "residual": None, "values": [1.0, None]}


def test_measure_and_cp_map_roundtrip():
    measure = ScalarMeasure(atoms=((-1.0, 0.25), (0.5, 0.75)))
    back = measure_from_json(measure_to_json(measure))
    assert back.atoms == measure.atoms

    scaled = CPMap.scaled_identity(1.7, 3)
    back = cp_map_from_json(cp_map_to_json(scaled))
    assert back.kind == "scaled_identity" and back.scale == 1.7 and back.in_dim == 3

    rng = np.random.default_rng(1)
    K = [rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))]
    on_b = CPMap.from_kraus(K, to_base=False)
    to_b = CPMap.from_kraus([rng.standard_normal((2, 6))], to_base=True)
    for m in (on_b, to_b):
        back = cp_map_from_json(cp_map_to_json(m))
        assert back.kind == m.kind
        x = rng.standard_normal((m.in_dim, m.in_dim))
        x = x + x.T
        assert np.max(np.abs(back.apply(x) - m.apply(x))) < 1e-14

    with pytest.raises(ValueError):
        cp_map_from_json({"kind": "nonsense"})


def test_model_and_problem_roundtrip():
    rng = np.random.default_rng(2)
    X = rng.standard_normal((6, 6))
    X = X + X.T
    uniform = OperatorModel.partial_trace(X, base_dim=2)
    weighted = OperatorModel(X=X, base_dim=2, weights=np.array([0.2, 0.3, 0.5]))
    for model in (uniform, weighted):
        back = model_from_json(model_to_json(model))
        assert np.max(np.abs(back.X - model.X)) < 1e-15
        assert back.base_dim == model.base_dim
        assert np.allclose(back.weights, model.weights)

    prob = semicircle_problem(uniform, CPMap.scaled_identity(0.8, 2))
    prob = SubordinationProblem.generic(uniform, prob.eta, a=np.diag([0.1, -0.1]))
    data = problem_to_json(prob, solver=SolverConfig(tol=1e-10, damping=0.25))
    back, solver = problem_from_json(data)
    assert back.variant == "generic"
    assert np.max(np.abs(back.a - prob.a)) < 1e-15
    assert solver.tol == 1e-10 and solver.damping == 0.25

    power = SubordinationProblem.power(
        scalar_to_model(ScalarMeasure.symmetric_bernoulli()),
        CPMap.scaled_identity(2.0, 1),
    )
    back, solver = problem_from_json(problem_to_json(power))
    assert back.variant == "power" and solver is None
    # a bare number is accepted for alpha on input
    data = problem_to_json(power)
    data["alpha"] = 2.0
    back, _ = problem_from_json(data)
    assert back.alpha.scale == 2.0
    with pytest.raises(ValueError):
        problem_from_json({"model": model_to_json(uniform), "variant": "cubic"})


def test_solver_block_roundtrip_reads_missing_keys_from_the_base():
    prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))
    cfg = SolverConfig(tol=1e-10, max_iter=500, damping=0.25)
    data = json.loads(json.dumps(problem_to_json(prob, solver=cfg)))
    assert problem_from_json(data)[1] == cfg
    assert problem_from_json(data, DENSITY_CONFIG)[1] == cfg
    # a block without a key reads as the base's value
    del data["solver"]["damping"]
    assert problem_from_json(data)[1].damping == 0.0
    assert problem_from_json(data, DENSITY_CONFIG)[1].damping == 0.5
    assert solver_config_from_json({"tol": 1e-10}, DENSITY_CONFIG) == \
        replace(DENSITY_CONFIG, tol=1e-10)


def _semicircle_matrix_problem(rng, n: int, m: int) -> SubordinationProblem:
    """An M_n-valued model with an M_m factor plus a semicircular element
    whose covariance beta(b) = W diag(A diag(W* b W)) W* has n^2 Kraus
    operators, as in the density-matrix benchmark (n = 3, m = 10)."""
    X = rng.standard_normal((n * m, n * m)) + 1j * rng.standard_normal((n * m, n * m))
    W = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    A = rng.uniform(0.1, 0.5, (n, n))
    beta = CPMap.from_kraus([np.sqrt(A[i, j]) * np.outer(W[:, i], W[:, j].conj())
                             for i in range(n) for j in range(n)])
    return semicircle_problem(OperatorModel.partial_trace((X + X.conj().T) / 4, n), beta)


def _eta_form(problem: SubordinationProblem) -> dict:
    """The problem's file with eta = beta o E written out, the form that
    files of semicircle problems took before they kept beta."""
    data = problem_to_json(problem)
    del data["beta"]
    data["eta"] = cp_map_to_json(problem.eta)
    return json.loads(json.dumps(data))


def _same_kraus(f, g) -> bool:
    return len(f.kraus) == len(g.kraus) and all(
        np.array_equal(K, L) for K, L in zip(f.kraus, g.kraus))


def _points(n: int) -> np.ndarray:
    return (np.linspace(-2.0, 2.0, 5)[:, None, None] + 0.05j) * np.eye(n)


def test_semicircle_problem_files_keep_beta():
    prob = _semicircle_matrix_problem(np.random.default_rng(24), 2, 3)
    data = json.loads(json.dumps(problem_to_json(prob)))
    assert "beta" in data and "eta" not in data
    back, _ = problem_from_json(data)
    assert _same_kraus(back.beta, prob.beta) and _same_kraus(back.eta, prob.eta)
    want, got = solve_omega_stack(prob, _points(2)), solve_omega_stack(back, _points(2))
    assert want.converged.all()
    assert all(np.array_equal(x, y) for x, y in zip(want, got))


def test_problem_files_with_eta_still_load():
    prob = _semicircle_matrix_problem(np.random.default_rng(25), 2, 3)
    back, _ = problem_from_json(_eta_form(prob))
    assert back.beta is None and _same_kraus(back.eta, prob.eta)
    want, got = solve_omega_stack(prob, _points(2)), solve_omega_stack(back, _points(2))
    assert all(np.array_equal(x, y) for x, y in zip(want, got))


def test_problems_take_eta_or_beta_not_both():
    prob = _semicircle_matrix_problem(np.random.default_rng(26), 2, 3)
    with pytest.raises(ValueError, match="not both"):
        SubordinationProblem(model=prob.model, eta=prob.eta, beta=prob.beta)
    with pytest.raises(ValueError, match="act on B"):
        SubordinationProblem(model=prob.model, beta=CPMap.scaled_identity(1.0, 3))
    with pytest.raises(ValueError, match="beta"):
        SubordinationProblem(model=prob.model, alpha=CPMap.scaled_identity(2.0, 2),
                             beta=prob.beta, variant="power")


def test_replace_on_a_beta_problem_builds_it_anew():
    rng = np.random.default_rng(28)
    prob = _semicircle_matrix_problem(rng, 2, 3)
    a = random_hermitian(rng, 2, scale=0.5)
    shifted = replace(prob, a=a)
    fresh = SubordinationProblem(model=prob.model, beta=prob.beta, a=a)
    assert shifted.beta is prob.beta and np.array_equal(shifted.a, a)
    assert _same_kraus(shifted.eta, fresh.eta) and _same_kraus(shifted.eta, prob.eta)
    want, got = solve_omega_stack(fresh, _points(2)), solve_omega_stack(shifted, _points(2))
    assert want.converged.all()
    assert all(np.array_equal(x, y) for x, y in zip(want, got))
    # a new beta derives a new eta; an eta given with beta is still refused
    half = CPMap.from_kraus([K / np.sqrt(2.0) for K in prob.beta.kraus])
    assert _same_kraus(replace(prob, beta=half).eta,
                       SubordinationProblem(model=prob.model, beta=half).eta)
    other = _semicircle_matrix_problem(rng, 2, 3)
    with pytest.raises(ValueError, match="not both"):
        SubordinationProblem(model=prob.model, eta=other.eta, beta=prob.beta)
    with pytest.raises(ValueError, match="not both"):
        replace(prob, eta=other.eta)


@pytest.mark.parametrize("keys", [("eta", "beta"), ()], ids=["both", "neither"])
def test_problem_file_needs_exactly_one_of_eta_and_beta(keys, tmp_path, capsys):
    prob = _semicircle_matrix_problem(np.random.default_rng(27), 2, 3)
    data = _eta_form(prob)
    del data["eta"]
    for key in keys:
        data[key] = cp_map_to_json(getattr(prob, key))
    with pytest.raises(ValueError, match="exactly one"):
        problem_from_json(data)
    dump_json(data, tmp_path / "p.json")
    rc = run_command(["density", "--problem", str(tmp_path / "p.json"), "--xmin", "-1",
                      "--xmax", "1", "--steps", "3", "--eps", "1e-2",
                      "--out", str(tmp_path / "rho.csv")])
    assert rc == 1
    assert "exactly one" in capsys.readouterr().err
    assert not (tmp_path / "rho.csv").exists()


def test_density_sheets_of_both_problem_forms_agree(tmp_path):
    prob = _semicircle_matrix_problem(np.random.default_rng(28), 2, 3)
    rows = []
    for name, data in (("beta", problem_to_json(prob)), ("eta", _eta_form(prob))):
        dump_json(data, tmp_path / f"{name}.json")
        sheet = tmp_path / f"{name}.csv"
        assert run_command(["density", "--problem", str(tmp_path / f"{name}.json"),
                            "--xmin", "-2", "--xmax", "2", "--steps", "9",
                            "--eps", "2e-2,1e-2", "--out", str(sheet)]) == 0
        rows.append([line for line in sheet.read_text().splitlines()
                     if not line.startswith("# provenance")])
    assert rows[0] == rows[1]


def test_beta_form_of_a_density_matrix_size_problem_is_a_fifth_of_the_eta_form(tmp_path):
    prob = _semicircle_matrix_problem(np.random.default_rng(29), 3, 10)
    dump_json(problem_to_json(prob), tmp_path / "beta.json")
    dump_json(_eta_form(prob), tmp_path / "eta.json")
    assert 5 * (tmp_path / "beta.json").stat().st_size <= (tmp_path / "eta.json").stat().st_size


def test_ensemble_roundtrip():
    by_measure = EnsembleSpec(
        "deterministic_plus_gue", ScalarMeasure.symmetric_bernoulli(), 1.0, 100, 5, 42
    )
    back = ensemble_from_json(ensemble_to_json(by_measure))
    assert isinstance(back.deterministic, ScalarMeasure)
    assert back.seed == 42 and back.matrix_size == 100

    by_matrix = EnsembleSpec(
        "deterministic_plus_haar_rotated", np.diag([1.0, -1.0]), 0.5, 2, 3, 7
    )
    back = ensemble_from_json(ensemble_to_json(by_matrix))
    assert np.array_equal(back.deterministic, np.diag([1.0, -1.0]).astype(complex))
    assert back.kind == "deterministic_plus_haar_rotated"


@pytest.mark.parametrize("field, value", [("samples", 2.7), ("matrix_size", "100"),
                                          ("seed", None)])
def test_ensemble_reader_refuses_non_integral_numbers(field, value):
    # int() truncated "samples": 2.7 to 2 without a word
    data = ensemble_to_json(EnsembleSpec(
        "deterministic_plus_gue", ScalarMeasure.symmetric_bernoulli(), 1.0, 100, 5, 42))
    assert getattr(ensemble_from_json({**data, field: 2.0}), field) == 2
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        ensemble_from_json({**data, field: value})


def test_dump_json_is_deterministic(tmp_path):
    data = {"b": 1, "a": {"z": [1, 2], "y": 0.5}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(data, p1)
    dump_json(data, p2)
    assert p1.read_bytes() == p2.read_bytes()
    text = p1.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert load_json(p1) == data


def test_provenance_block(tmp_path):
    f = tmp_path / "input.json"
    f.write_text("{}\n")
    block = provenance_block("solve", {"problem": f}, {"tol": 1e-12})
    assert block["inputs"]["problem"]["sha256"] == hashlib.sha256(
        f.read_bytes()
    ).hexdigest()
    assert sha256_of(f) == block["inputs"]["problem"]["sha256"]
    assert set(block["versions"]) == {"freeconv", "numpy", "python"}
    assert "rng_algorithm" not in block
    flat = json.dumps(block)
    assert "time" not in flat and "date" not in flat
    with_rng = provenance_block("x", {}, {}, rng_algorithm="philox4x64")
    assert with_rng["rng_algorithm"] == "philox4x64"


# ---------------------------------------------------------------------------
# Density CSV
# ---------------------------------------------------------------------------


def test_density_csv_roundtrip(tmp_path):
    prob = semicircle_problem(
        scalar_to_model(ScalarMeasure.point(0.0)), CPMap.scaled_identity(1.0, 1)
    )
    grid = density_grid(prob, np.linspace(-2.5, 2.5, 41), (1e-2, 5e-3))
    out = tmp_path / "rho.csv"
    density_to_csv(grid, out, provenance={"command": "density"})
    loaded = density_from_csv(out)
    assert loaded.method == grid.method == "richardson"
    assert loaded.epsilons == grid.epsilons
    assert np.max(np.abs(loaded.abscissae - grid.abscissae)) < 1e-15
    assert np.max(np.abs(loaded.density - np.maximum(grid.density, 0.0))) < 1e-15
    raw = tmp_path / "rho.raw.csv"
    assert raw.exists()
    rows = [l for l in raw.read_text().splitlines() if not l.startswith("#")]
    assert rows[0] == "u,epsilon,raw"
    assert len(rows) == 1 + 41 * 2


def test_density_csv_records_clipping_and_failures(tmp_path):
    grid = DensityGrid(
        abscissae=np.array([0.0, 1.0, 2.0]),
        epsilons=(1e-2,),
        raw=np.array([[0.5], [-1e-8], [np.nan]]),
        density=np.array([0.5, -1e-8, np.nan]),
        method="none",
        failures=((2, 0),),
    )
    out = tmp_path / "clip.csv"
    density_to_csv(grid, out)
    text = out.read_text()
    assert "# clipped_negative: 1" in text
    assert "# failures: 2,0" in text
    loaded = density_from_csv(out)
    assert loaded.density[1] == 0.0
    assert np.isnan(loaded.density[2])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    point_model = scalar_to_model(ScalarMeasure.point(0.0))
    bern_model = scalar_to_model(ScalarMeasure.symmetric_bernoulli())
    paths = {}

    def put(name, data):
        p = root / name
        dump_json(data, p)
        paths[name] = str(p)
        return p

    put("gamma.json", problem_to_json(
        semicircle_problem(point_model, CPMap.scaled_identity(1.0, 1))))
    put("bern_gamma.json", problem_to_json(
        semicircle_problem(bern_model, CPMap.scaled_identity(1.0, 1))))
    put("bern.json", model_to_json(bern_model))
    put("b_2i.json", matrix_to_json(np.array([[2j]])))
    put("b_i.json", matrix_to_json(np.array([[1j]])))
    put("g_small.json", matrix_to_json(np.array([[-0.02j]])))
    put("g_large.json", matrix_to_json(np.array([[-0.9j]])))
    put("q.json", matrix_to_json(np.array([[0.2]])))
    put("u.json", matrix_to_json(np.array([[0.0]])))
    put("a_high.json", matrix_to_json(np.array([[0.1 + 2.0j]])))
    put("b_high.json", matrix_to_json(np.array([[-0.2 + 2.2j]])))
    put("ensemble.json", ensemble_to_json(EnsembleSpec(
        "deterministic_plus_gue", ScalarMeasure.symmetric_bernoulli(),
        1.0, 200, 3, seed=902)))
    paths["root"] = str(root)
    return paths


def test_cli_solve_fixture(fixtures, tmp_path, capsys):
    out = tmp_path / "w.json"
    rc = run_command([
        "solve", "--problem", fixtures["gamma.json"],
        "--point", fixtures["b_2i.json"], "--out", str(out)])
    assert rc == 0
    data = load_json(out)
    omega = matrix_from_json(data["omega"])
    assert abs(omega[0, 0] - 1j * (1 + np.sqrt(2))) < 1e-10
    assert data["converged"] is True
    assert "provenance" in data
    assert "converged" in capsys.readouterr().out
    # reruns are byte-identical
    out2 = tmp_path / "w2.json"
    run_command(["solve", "--problem", fixtures["gamma.json"],
                 "--point", fixtures["b_2i.json"], "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_cli_solve_non_convergence(fixtures, tmp_path):
    out = tmp_path / "w.json"
    rc = run_command([
        "solve", "--problem", fixtures["gamma.json"],
        "--point", fixtures["b_2i.json"], "--out", str(out),
        "--max-iter", "2"])
    assert rc == 2
    assert load_json(out)["converged"] is False


def test_cli_density_with_plot(fixtures, tmp_path):
    out = tmp_path / "rho.csv"
    argv = ["density", "--problem", fixtures["gamma.json"],
            "--xmin", "-2.5", "--xmax", "2.5", "--steps", "41",
            "--eps", "1e-2,5e-3", "--out", str(out), "--plot"]
    assert run_command(argv) == 0
    assert out.exists() and (tmp_path / "rho.dat").exists()
    grid = density_from_csv(out)
    assert grid.density.size == 41
    first = out.read_bytes()
    assert run_command(argv) == 0
    assert out.read_bytes() == first
    rc = run_command(["density", "--problem", fixtures["gamma.json"],
                      "--xmin", "-2.5", "--xmax", "2.5", "--steps", "1",
                      "--eps", "1e-2", "--out", str(out)])
    assert rc == 1


def test_cli_density_non_convergence(fixtures, tmp_path):
    out = tmp_path / "rho.csv"
    rc = run_command(["density", "--problem", fixtures["gamma.json"],
                      "--xmin", "-1", "--xmax", "1", "--steps", "5",
                      "--eps", "1e-3", "--max-iter", "3", "--out", str(out)])
    assert rc == 2
    assert "# failures:" in out.read_text()


@pytest.mark.parametrize("flags, message", [
    (["--xmin", "-1", "--xmax", "1", "--eps", "0.01,0.01"], "epsilons must be distinct"),
    (["--xmin", "1", "--xmax", "-1", "--eps", "1e-2,5e-3"], "abscissae"),
    (["--xmin", "-1", "--xmax", "nan", "--eps", "1e-2,5e-3"], "abscissae"),
])
def test_cli_density_rejects_bad_grids(fixtures, tmp_path, capsys, flags, message):
    out = tmp_path / "rho.csv"
    rc = run_command(["density", "--problem", fixtures["gamma.json"],
                      "--steps", "5", "--out", str(out)] + flags)
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_cli_power(fixtures, tmp_path):
    out = tmp_path / "g.json"
    rc = run_command(["power", "--model", fixtures["bern.json"],
                      "--alpha", "2", "--point", fixtures["b_i.json"],
                      "--out", str(out)])
    assert rc == 0
    G = matrix_from_json(load_json(out)["G"])
    assert abs(G[0, 0] - arcsine2_g(1j)) < 1e-10


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_cli_power_rejects_a_non_finite_alpha(fixtures, tmp_path, capsys, alpha):
    out = tmp_path / "g.json"
    rc = run_command(["power", "--model", fixtures["bern.json"],
                      "--alpha", alpha, "--point", fixtures["b_i.json"],
                      "--out", str(out)])
    assert rc == 1
    assert "scale must be finite and nonnegative" in capsys.readouterr().err
    assert not out.exists()


def test_cli_power_reports_the_steps_and_residual_of_a_failed_solve(fixtures, tmp_path, capsys):
    out = tmp_path / "g.json"
    rc = run_command(["power", "--model", fixtures["bern.json"],
                      "--alpha", "2", "--point", fixtures["b_i.json"],
                      "--max-iter", "3", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "did not converge" in err and "(3 steps, residual " in err
    residual = float(err.split("residual ")[1].split(")")[0])
    assert np.isfinite(residual) and residual > 1e-12
    assert not out.exists()


def test_cli_convolve(fixtures, tmp_path):
    out = tmp_path / "g.json"
    rc = run_command(["convolve", "--model", fixtures["bern.json"],
                      "--t", "1.0", "--point", fixtures["b_2i.json"],
                      "--out", str(out)])
    assert rc == 0
    G = matrix_from_json(load_json(out)["G"])
    # free additive convolution of +-1 with the semicircle at 2i
    assert abs(G[0, 0].real) < 1e-12
    assert -0.5 < G[0, 0].imag < 0.0
    assert run_command(["convolve", "--model", fixtures["bern.json"],
                        "--point", fixtures["b_2i.json"], "--out", str(out)]) == 1
    assert run_command(["convolve", "--model", fixtures["bern.json"],
                        "--t", "1.0", "--beta", fixtures["bern.json"],
                        "--point", fixtures["b_2i.json"], "--out", str(out)]) == 1


def test_cli_rtransform(fixtures, tmp_path):
    out = tmp_path / "r.json"
    rc = run_command(["rtransform", "--model", fixtures["bern.json"],
                      "--arg", fixtures["g_small.json"], "--out", str(out)])
    assert rc == 0
    R = matrix_from_json(load_json(out)["R"])
    assert abs(R[0, 0] - bernoulli_r(-0.02j)) < 1e-9
    rc = run_command(["rtransform", "--model", fixtures["bern.json"],
                      "--arg", fixtures["g_large.json"], "--out", str(out)])
    assert rc == 1


def test_cli_rtransform_rejects_a_singular_argument(fixtures, tmp_path, capsys):
    arg = tmp_path / "g_zero.json"
    dump_json(matrix_to_json(np.zeros((1, 1))), arg)
    out = tmp_path / "r.json"
    rc = run_command(["rtransform", "--model", fixtures["bern.json"],
                      "--arg", str(arg), "--out", str(out)])
    assert rc == 1
    assert "error: g must be invertible" in capsys.readouterr().err
    assert not out.exists()


def test_cli_diagnose(fixtures, tmp_path, capsys):
    out = tmp_path / "certs.json"
    rc = run_command(["diagnose", "--problem", fixtures["gamma.json"],
                      "--b1", fixtures["b_i.json"], "--b2", fixtures["b_2i.json"],
                      "--q", fixtures["q.json"], "--u", fixtures["u.json"],
                      "--out", str(out)])
    assert rc == 0
    data = load_json(out)
    assert data["delta_omega"]["pass"] is True
    assert data["delta_omega"]["min_real"] > 0.5
    assert data["dvg"]["pass"] is True
    assert "PASS" in capsys.readouterr().out
    rc = run_command(["diagnose", "--problem", fixtures["gamma.json"],
                      "--b1", fixtures["b_i.json"], "--b2", fixtures["b_2i.json"],
                      "--q", fixtures["q.json"], "--out", str(out)])
    assert rc == 1


def _failing_certificate(*args, **kwargs):
    return SpectrumCertificate(eigenvalues=np.array([0.25 + 0j]), min_real=0.25,
                               spectral_radius=0.25, claim="a claim that fails",
                               passed=False, details={})


def test_cli_diagnose_exits_2_on_a_failed_certificate(fixtures, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(freeconv.cli, "delta_omega_spectrum", _failing_certificate)
    out = tmp_path / "certs.json"
    rc = run_command(["diagnose", "--problem", fixtures["gamma.json"],
                      "--b1", fixtures["b_i.json"], "--b2", fixtures["b_2i.json"],
                      "--q", fixtures["q.json"], "--u", fixtures["u.json"],
                      "--out", str(out)])
    assert rc == 2
    data = load_json(out)
    assert data["delta_omega"]["pass"] is False
    assert data["dvg"]["pass"] is True
    assert "FAIL" in capsys.readouterr().out


def test_cli_diagnose_checks_q_and_u_before_solving(fixtures, tmp_path, monkeypatch):
    calls = []
    monkeypatch.setattr(freeconv.cli, "delta_omega_spectrum",
                        lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "certs.json"
    rc = run_command(["diagnose", "--problem", fixtures["gamma.json"],
                      "--b1", fixtures["b_i.json"], "--b2", fixtures["b_2i.json"],
                      "--u", fixtures["u.json"], "--out", str(out)])
    assert rc == 1
    assert calls == [] and not out.exists()


def test_cli_axioms_exits_2_on_a_failed_check(fixtures, tmp_path, monkeypatch, capsys):
    def failing(*args, **kwargs):
        return {"deviations": {"G": {"direct_sum": 0.5}}, "max_deviation": 0.5,
                "passed": False}

    monkeypatch.setattr(freeconv.cli, "nc_function_axioms_check", failing)
    out = tmp_path / "axioms.json"
    rc = run_command(["axioms", "--problem", fixtures["gamma.json"],
                      "--a", fixtures["a_high.json"], "--b", fixtures["b_high.json"],
                      "--out", str(out)])
    assert rc == 2
    data = load_json(out)
    assert data["pass"] is False and data["max_deviation"] == 0.5
    assert "FAIL" in capsys.readouterr().out


def test_cli_jc_probe(fixtures, tmp_path):
    out = tmp_path / "probe.json"
    rc = run_command(["jc-probe", "--problem", fixtures["gamma.json"],
                      "--alpha", "3", "--schedule", "1,1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
                      "--out", str(out)])
    assert rc == 0
    probe = load_json(out)["probe"]
    assert probe["applicable"] is True
    assert all(probe["verdicts"].values())
    rc = run_command(["jc-probe", "--problem", fixtures["gamma.json"],
                      "--alpha", "0", "--schedule", "1,1e-1,1e-2",
                      "--max-iter", "40", "--out", str(out)])
    assert rc == 2


def test_cli_jc_probe_semicircle_edge_at_default_max_iter(fixtures, tmp_path):
    # the last height, y = 1e-6 at the edge alpha = 2, needs 27 710 Picard
    # steps; Newton steps finish it inside the default max_iter
    out = tmp_path / "edge.json"
    rc = run_command(["jc-probe", "--problem", fixtures["gamma.json"],
                      "--alpha", "2", "--schedule", "1,1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
                      "--damping", "0.5", "--out", str(out)])
    assert rc == 0
    data = load_json(out)
    assert data["provenance"]["config"]["solver"]["max_iter"] == SolverConfig().max_iter
    assert data["probe"]["applicable"] is True
    assert all(data["probe"]["verdicts"].values())


def test_cli_jc_probe_reruns_are_byte_identical(fixtures, tmp_path):
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    for out in outs:
        rc = run_command(["jc-probe", "--problem", fixtures["gamma.json"],
                          "--alpha", "2", "--schedule", "1,1e-2,1e-4,1e-6",
                          "--damping", "0.5", "--out", str(out)])
        assert rc == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_cli_axioms(fixtures, tmp_path, capsys):
    out = tmp_path / "axioms.json"
    rc = run_command(["axioms", "--problem", fixtures["gamma.json"],
                      "--a", fixtures["a_high.json"], "--b", fixtures["b_high.json"],
                      "--out", str(out)])
    assert rc == 0
    data = load_json(out)
    assert data["pass"] is True
    assert data["max_deviation"] <= 1e-10
    assert "overall" in capsys.readouterr().out


def test_cli_validate_rmt(fixtures, tmp_path, capsys):
    rho = tmp_path / "rho.csv"
    rc = run_command(["density", "--problem", fixtures["bern_gamma.json"],
                      "--xmin", "-3.8", "--xmax", "3.8", "--steps", "761",
                      "--eps", "2e-2,1e-2", "--out", str(rho)])
    assert rc == 0
    out = tmp_path / "ks.json"
    rc = run_command(["validate-rmt", "--ensemble", fixtures["ensemble.json"],
                      "--against", str(rho), "--out", str(out)])
    assert rc == 0
    data = load_json(out)
    assert data["pass"] is True and data["ks_distance"] <= 0.05
    assert data["provenance"]["rng_algorithm"] == "philox4x64"
    assert "KS distance" in capsys.readouterr().out
    rc = run_command(["validate-rmt", "--ensemble", fixtures["ensemble.json"],
                      "--against", str(rho), "--threshold", "1e-6"])
    assert rc == 2


def test_cli_validate_rmt_refuses_a_fractional_sample_count(fixtures, tmp_path, capsys):
    data = load_json(fixtures["ensemble.json"])
    data["samples"] = 2.7
    ensemble = tmp_path / "fractional.json"
    dump_json(data, ensemble)
    rc = run_command(["validate-rmt", "--ensemble", str(ensemble),
                      "--against", str(tmp_path / "unread.csv")])
    assert rc == 1
    assert "samples must be an integer, got 2.7" in capsys.readouterr().err


def test_cli_validate_rmt_refuses_sheet_with_failures(fixtures, tmp_path, capsys):
    us = np.linspace(-3.8, 3.8, 77)
    dens = np.exp(-us ** 2 / 2) / np.sqrt(2 * np.pi)
    raw = np.stack([dens, dens], axis=1)
    raw[30, 1] = np.nan
    dens[30] = np.nan
    grid = DensityGrid(abscissae=us, epsilons=(2e-2, 1e-2), raw=raw, density=dens,
                       method="richardson", failures=((30, 1),))
    rho = tmp_path / "failed.csv"
    density_to_csv(grid, rho)
    assert density_from_csv(rho).failures == ((30, 1),)
    rc = run_command(["validate-rmt", "--ensemble", fixtures["ensemble.json"],
                      "--against", str(rho)])
    assert rc == 1
    assert "failed points" in capsys.readouterr().err


def test_cli_input_error_paths(fixtures, tmp_path):
    garbage = tmp_path / "garbage.json"
    garbage.write_text("this is not json")
    out = str(tmp_path / "out.json")
    assert run_command(["solve", "--problem", str(garbage),
                        "--point", fixtures["b_2i.json"], "--out", out]) == 1
    assert run_command(["solve", "--problem", str(tmp_path / "missing.json"),
                        "--point", fixtures["b_2i.json"], "--out", out]) == 1
    bad_matrix = tmp_path / "bad_matrix.json"
    dump_json({"dim": 2, "entries": [[[0.0, 0.0]]]}, bad_matrix)
    assert run_command(["solve", "--problem", fixtures["gamma.json"],
                        "--point", str(bad_matrix), "--out", out]) == 1
    assert run_command(["frobnicate"]) == 1
    assert run_command(["solve", "--bogus-flag"]) == 1
    assert run_command(["--help"]) == 0
    assert run_command(["solve", "--help"]) == 0


def test_cli_parser_is_shared_without_leaking_state(fixtures, tmp_path):
    # the parser is built once; flags of one command do not reach the next
    assert build_parser() is build_parser()
    first, again = tmp_path / "first.json", tmp_path / "again.json"
    solve = ["solve", "--problem", fixtures["gamma.json"], "--point", fixtures["b_2i.json"]]
    assert run_command(solve + ["--out", str(first)]) == 0
    assert run_command(solve + ["--out", str(tmp_path / "short.json"), "--max-iter", "2",
                                "--tol", "1e-9", "--damping", "0.3"]) == 2
    density = ["density", "--problem", fixtures["gamma.json"], "--xmin", "-2",
               "--xmax", "2", "--steps", "5", "--eps", "1e-2"]
    assert run_command(density + ["--out", str(tmp_path / "rho.csv"), "--plot"]) == 0
    assert run_command(solve + ["--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()
    assert run_command(density + ["--out", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "rho.dat").exists() and not (tmp_path / "plain.dat").exists()


@pytest.fixture(scope="module")
def optional_inputs(fixtures, tmp_path_factory):
    """The fixture files plus files for the optional and number-or-file
    flags, and a density sheet for validate-rmt."""
    root = tmp_path_factory.mktemp("optional")
    paths = dict(fixtures)
    for name, data in [
            ("alpha_map.json", cp_map_to_json(CPMap.scaled_identity(2.0, 1))),
            ("beta_map.json", cp_map_to_json(CPMap.scaled_identity(1.0, 1))),
            ("alpha3.json", matrix_to_json(np.array([[3.0]]))),
            ("v.json", matrix_to_json(np.array([[1.5]]))),
            ("T.json", matrix_to_json(np.array([[2.0, 1.0], [0.0, 1.0]])))]:
        dump_json(data, root / name)
        paths[name] = str(root / name)
    rho = root / "rho.csv"
    assert run_command(["density", "--problem", fixtures["bern_gamma.json"],
                        "--xmin", "-3.8", "--xmax", "3.8", "--steps", "41",
                        "--eps", "2e-2,1e-2", "--out", str(rho)]) == 0
    paths["rho.csv"] = str(rho)
    return paths


def _provenance_of(out):
    if out.suffix == ".csv":
        first = out.read_text().splitlines()[0]
        return json.loads(first.removeprefix("# provenance: "))
    return load_json(out)["provenance"]


# command, the flags whose value is a file name (or a number for --alpha),
# and the other arguments
PROVENANCE_CASES = [
    pytest.param("solve", {"--problem": "gamma.json", "--point": "b_2i.json"}, [],
                 id="solve"),
    pytest.param("density", {"--problem": "gamma.json"},
                 ["--xmin", "-2", "--xmax", "2", "--steps", "5", "--eps", "1e-2"],
                 id="density"),
    pytest.param("power", {"--model": "bern.json", "--alpha": "2", "--point": "b_i.json"},
                 [], id="power-alpha-number"),
    pytest.param("power", {"--model": "bern.json", "--alpha": "alpha_map.json",
                           "--point": "b_i.json"}, [], id="power-alpha-file"),
    pytest.param("convolve", {"--model": "bern.json", "--point": "b_2i.json"},
                 ["--t", "1.0"], id="convolve-t"),
    pytest.param("convolve", {"--model": "bern.json", "--beta": "beta_map.json",
                              "--point": "b_2i.json"}, [], id="convolve-beta"),
    pytest.param("rtransform", {"--model": "bern.json", "--arg": "g_small.json"}, [],
                 id="rtransform"),
    pytest.param("diagnose", {"--problem": "gamma.json", "--b1": "b_i.json",
                              "--b2": "b_2i.json"}, [], id="diagnose"),
    pytest.param("diagnose", {"--problem": "gamma.json", "--b1": "b_i.json",
                              "--b2": "b_2i.json", "--q": "q.json", "--u": "u.json"}, [],
                 id="diagnose-q-u"),
    pytest.param("jc-probe", {"--problem": "gamma.json", "--alpha": "3"},
                 ["--schedule", "1,1e-1"], id="jc-probe-alpha-number"),
    pytest.param("jc-probe", {"--problem": "gamma.json", "--alpha": "alpha3.json",
                              "--v": "v.json", "--u": "v.json"},
                 ["--schedule", "1,1e-1"], id="jc-probe-alpha-file-v-u"),
    pytest.param("axioms", {"--problem": "gamma.json", "--a": "a_high.json",
                            "--b": "b_high.json"}, [], id="axioms"),
    pytest.param("axioms", {"--problem": "gamma.json", "--a": "a_high.json",
                            "--b": "b_high.json", "--T": "T.json"}, [], id="axioms-T"),
    pytest.param("validate-rmt", {"--ensemble": "ensemble.json", "--against": "rho.csv"},
                 ["--threshold", "1.0"], id="validate-rmt"),
]


@pytest.mark.parametrize("command, flags, rest", PROVENANCE_CASES)
def test_cli_provenance_names_exactly_the_input_files(optional_inputs, tmp_path,
                                                      command, flags, rest):
    argv = [command]
    for flag, value in flags.items():
        argv += [flag, optional_inputs.get(value, value)]
    out = tmp_path / ("out.csv" if command == "density" else "out.json")
    assert run_command(argv + rest + ["--out", str(out)]) == 0
    prov = _provenance_of(out)
    assert prov["command"] == command
    expected = {flag[2:]: optional_inputs[value] for flag, value in flags.items()
                if value in optional_inputs}
    assert prov["inputs"] == {name: {"path": path, "sha256": sha256_of(path)}
                              for name, path in expected.items()}


@pytest.mark.parametrize("command, rest, data, edited", [
    ("power", ["--model", "bern.json", "--point", "b_i.json"],
     cp_map_to_json(CPMap.scaled_identity(2.0, 1)),
     cp_map_to_json(CPMap.scaled_identity(3.0, 1))),
    ("jc-probe", ["--problem", "gamma.json", "--schedule", "1,1e-1"],
     matrix_to_json(np.array([[3.0]])), matrix_to_json(np.array([[3.5]]))),
], ids=["power", "jc-probe"])
def test_cli_alpha_file_is_hashed_into_provenance(fixtures, tmp_path, command, rest,
                                                  data, edited):
    alpha = tmp_path / "alpha.json"
    argv = [command, "--alpha", str(alpha), "--out", str(tmp_path / "out.json")]
    argv += [fixtures.get(arg, arg) for arg in rest]
    shas = []
    for content in (data, edited):
        dump_json(content, alpha)
        assert run_command(argv) == 0
        prov = load_json(tmp_path / "out.json")["provenance"]
        assert prov["inputs"]["alpha"] == {"path": str(alpha), "sha256": sha256_of(alpha)}
        shas.append(prov["inputs"]["alpha"]["sha256"])
    assert shas[0] != shas[1]


def test_cli_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "freeconv.cli", "--help"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "freeconv" in proc.stdout


@pytest.mark.parametrize("command", ["jc-probe", "diagnose"])
def test_cli_mismatched_point_shapes_exit_1_naming_the_flag(command, tmp_path, capsys):
    model = OperatorModel.partial_trace(np.diag([1.0, -1.0]), base_dim=2)
    problem = tmp_path / "m2.json"
    dump_json(problem_to_json(semicircle_problem(model, CPMap.scaled_identity(1.0, 2))), problem)
    big, small = tmp_path / "big.json", tmp_path / "small.json"
    dump_json(matrix_to_json(1j * np.eye(3) if command == "diagnose" else np.eye(3)), big)
    dump_json(matrix_to_json(2j * np.eye(2)), small)
    out = tmp_path / "out.json"
    if command == "jc-probe":
        argv = ["jc-probe", "--alpha", str(big), "--schedule", "1,0.1"]
        flags = ["alpha"]
    else:
        argv = ["diagnose", "--b1", str(big), "--b2", str(small)]
        flags = ["b1", "b2"]
    rc = run_command(argv + ["--problem", str(problem), "--out", str(out)])
    assert rc == 1 and not out.exists()
    err = capsys.readouterr().err
    assert "matching shapes" in err and all(flag in err for flag in flags)


DENSITY_ARGS = ["--xmin", "-2.5", "--xmax", "2.5", "--steps", "21", "--eps", "1e-2,5e-3"]


def test_cli_solver_flags_keep_the_other_config_fields(fixtures, tmp_path):
    out = tmp_path / "rho.csv"
    assert run_command(["density", "--problem", fixtures["gamma.json"], *DENSITY_ARGS,
                        "--tol", "1e-10", "--out", str(out)]) == 0
    assert _provenance_of(out)["config"]["solver"] == {
        "tol": 1e-10, "max_iter": 20000, "damping": 0.5}


def test_cli_reads_a_partial_solver_block_over_the_command_base(fixtures, tmp_path):
    data = load_json(fixtures["gamma.json"])
    data["solver"] = {"tol": 1e-10}
    problem = tmp_path / "p.json"
    dump_json(data, problem)
    out = tmp_path / "rho.csv"
    assert run_command(["density", "--problem", str(problem), *DENSITY_ARGS,
                        "--out", str(out)]) == 0
    assert _provenance_of(out)["config"]["solver"] == {
        "tol": 1e-10, "max_iter": 20000, "damping": 0.5}
    # solve reads the same block over the default configuration
    out = tmp_path / "w.json"
    assert run_command(["solve", "--problem", str(problem),
                        "--point", fixtures["b_2i.json"], "--out", str(out)]) == 0
    assert _provenance_of(out)["config"] == {
        "tol": 1e-10, "max_iter": 20000, "damping": 0.0}


def _solve_exits_1_naming(problem_data, point, key, tmp_path, capsys):
    problem, out = tmp_path / "p.json", tmp_path / "w.json"
    dump_json(problem_data, problem)
    dump_json(matrix_to_json(point), tmp_path / "b.json")
    assert run_command(["solve", "--problem", str(problem), "--point",
                        str(tmp_path / "b.json"), "--out", str(out)]) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("max_iter", 2.7), ("max_iter", True), ("max_iter", "3"), ("tol", True), ("tol", "1e-10"),
    ("damping", False), ("damping", "0.5")])
def test_solver_blocks_refuse_booleans_strings_and_fractions(fixtures, tmp_path, capsys,
                                                              key, value):
    # float() and int() read true as 1, "3" as 3 and 2.7 as 2; "tol": true
    # let every solve stop as converged at a residual up to 1
    with pytest.raises(ValueError, match=key):
        solver_config_from_json({key: value})
    data = load_json(fixtures["gamma.json"])
    data["solver"] = {key: value}
    _solve_exits_1_naming(data, np.array([[2j]]), key, tmp_path, capsys)


def test_solver_blocks_read_numpy_numbers():
    # a block built in memory may hold numpy scalars, which float() and int()
    # read too
    cfg = solver_config_from_json({"tol": np.float32(0.5), "max_iter": np.int64(7),
                                   "damping": np.int64(0)})
    assert (cfg.tol, cfg.max_iter, cfg.damping) == (0.5, 7, 0.0)
    assert type(cfg.max_iter) is int


def test_solver_config_refuses_a_boolean_max_iter():
    with pytest.raises(ValueError, match="max_iter"):
        SolverConfig(max_iter=True)


@pytest.mark.parametrize("where, key, value", [
    ("model", "base_dim", 2.7), ("model", "base_dim", True), ("model", "ambient_dim", 9),
    ("beta", "dim", 2.5)])
def test_problem_files_refuse_non_integral_and_mismatched_sizes(tmp_path, capsys,
                                                                where, key, value):
    # int() read base_dim 2.7 and a scaled identity's dim 2.5 as 2, and
    # an ambient_dim of 9 beside a 4 x 4 X went unread
    prob = semicircle_problem(OperatorModel.partial_trace(np.diag([1.0, 2.0, 3.0, 4.0]), 2),
                              CPMap.scaled_identity(1.0, 2))
    data = json.loads(json.dumps(problem_to_json(prob)))
    assert problem_from_json(data)[0].model.ambient_dim == 4
    data[where][key] = value
    with pytest.raises(ValueError, match=key):
        problem_from_json(data)
    _solve_exits_1_naming(data, 2j * np.eye(2), key, tmp_path, capsys)


@pytest.mark.parametrize("sizes, rows, key", [
    ({"dim": 2.5}, 2, "dim"), ({"dim": True}, 1, "dim"), ({"dim": "2"}, 2, "dim"),
    ({"rows": 2, "cols": 2.5}, 2, "cols"), ({"rows": True, "cols": 1}, 1, "rows")])
def test_matrix_files_refuse_non_integral_sizes(sizes, rows, key):
    # int() read "dim": 2.5 as 2 and true as 1, so a matrix with entries of
    # the truncated size loaded
    entries = [[[1.0, 0.0]] * rows] * rows
    assert matrix_from_json({"dim": np.int64(rows), "entries": entries}).shape == (rows, rows)
    assert matrix_from_json({"dim": float(rows), "entries": entries}).shape == (rows, rows)
    with pytest.raises(ValueError, match=f"{key} must be an integer"):
        matrix_from_json({**sizes, "entries": entries})


@pytest.mark.parametrize("alpha", [True, "2"])
def test_power_problem_files_refuse_a_boolean_or_string_alpha(tmp_path, capsys, alpha):
    # isinstance(True, int) holds, so "alpha": true read as the scaled
    # identity 1.0
    power = SubordinationProblem.power(scalar_to_model(ScalarMeasure.symmetric_bernoulli()),
                                       CPMap.scaled_identity(2.0, 1))
    data = {**problem_to_json(power), "alpha": alpha}
    with pytest.raises(ValueError, match="alpha must be a number"):
        problem_from_json(data)
    _solve_exits_1_naming(data, np.array([[2j]]), "alpha", tmp_path, capsys)
