"""Acceptance gate: thirteen end-to-end criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL table.
Each criterion computes its quantity honestly and asserts the stated
threshold; the printed line carries the measured number for the record.
"""

import time

import numpy as np

from freeconv import (
    CPMap,
    ConvolutionPower,
    EnsembleSpec,
    ScalarMeasure,
    SemicircularConvolution,
    SolverConfig,
    compare_density,
    delta_omega_spectrum,
    density_grid,
    dvg_spectrum,
    imag_part,
    jc_probe,
    nc_function_axioms_check,
    opnorm,
    phi_q,
    r_transform_eval,
    real_part,
    residual_h,
    sample_rmt_spectrum,
    scalar_to_model,
    semicircle_problem,
    semicircular_convolve_g,
    solve_omega,
    solve_vq,
    vq_derivative,
)
from freeconv.subordination import SubordinationProblem
from freeconv.transforms import biane_v_scalar, convolution_power_g

from _oracles import arcsine2_density, bernoulli_r, point_v_curve, semicircle_g
from helpers import random_hermitian, random_problem, random_psd, random_upper

POINT = ScalarMeasure.point(0.0)
BERN = ScalarMeasure.symmetric_bernoulli()


def _report(k: int, label: str, ok: bool, detail: str) -> None:
    print(f"AC{k:02d} {label}: {'PASS' if ok else 'FAIL'}  [{detail}]")
    assert ok, f"AC{k:02d} {label}: {detail}"


def _grid_100() -> np.ndarray:
    xs = np.linspace(-3.0, 3.0, 10)
    ys = np.logspace(-1.0, 1.0, 10)
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def test_ac01_fixed_point_residuals():
    rng = np.random.default_rng(101)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        prob = random_problem(rng)
        b = random_upper(rng, prob.model.base_dim, margin=0.05)
        rep = solve_omega(prob, b)
        worst = max(worst, residual_h(prob, rep.value, b))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    _report(1, "fixed-point residual on 50 random problems", ok,
            f"max residual {worst:.2e}, {elapsed:.1f}s")


def test_ac02_semicircle_closed_form():
    model = scalar_to_model(POINT)
    worst = 0.0
    for z in _grid_100():
        G = semicircular_convolve_g(model, 1.0, np.array([[z]]))
        worst = max(worst, abs(G[0, 0] - semicircle_g(z, 1.0)))
    _report(2, "semicircle Cauchy transform closed form", worst <= 1e-10,
            f"sup error {worst:.2e}")


def test_ac03_semigroup():
    model = scalar_to_model(POINT)
    s, t = 0.6, 0.7
    inner = SemicircularConvolution(model, CPMap.scaled_identity(s, 1))
    worst = 0.0
    for z in _grid_100():
        G2 = semicircular_convolve_g(inner, t, np.array([[z]]))
        worst = max(worst, abs(G2[0, 0] - semicircle_g(z, s + t)))
    _report(3, "semicircular semigroup composition", worst <= 1e-8,
            f"sup error {worst:.2e}")


def test_ac04_convolution_power_density():
    model = scalar_to_model(BERN)
    prob = SubordinationProblem.power(model, CPMap.scaled_identity(2.0, 1))
    interior = density_grid(prob, np.linspace(-1.8, 1.8, 201), (1e-2, 5e-3))
    sup = float(np.max(np.abs(interior.density - arcsine2_density(interior.abscissae))))
    mass_grid = density_grid(prob, np.linspace(-2.4, 2.4, 1601), (1e-2, 5e-3))
    mass = mass_grid.mass()
    ok = sup <= 1e-3 and 0.99 <= mass <= 1.01
    _report(4, "Bernoulli convolution-square density", ok,
            f"sup error {sup:.2e}, mass {mass:.7f}")


def test_ac05_biane_scalar_identity():
    us = np.linspace(-1.5, 1.5, 101)
    worst = max(abs(biane_v_scalar(POINT, 1.0, u) - point_v_curve(u, 1.0))
                for u in us)
    prob = semicircle_problem(scalar_to_model(POINT), CPMap.scaled_identity(1.0, 1))
    cfg = SolverConfig(damping=0.5)
    q = np.array([[1e-5]])
    check_us = np.concatenate([np.linspace(-0.95, 0.95, 15),
                               [-1.5, -1.3, -1.15, 1.15, 1.3, 1.5]])
    worst_q = 0.0
    for u in check_us:
        v = solve_vq(prob, q, np.array([[u]]), cfg).value[0, 0].real
        worst_q = max(worst_q, abs(v - point_v_curve(u, 1.0)))
    ok = worst <= 1e-10 and worst_q <= 1e-4
    _report(5, "boundary curve scalar identity", ok,
            f"closed-form error {worst:.2e}, q=1e-5 error {worst_q:.2e}")


def test_ac06_graph_property():
    rng = np.random.default_rng(606)
    worst = 0.0
    for _ in range(50):
        prob = random_problem(rng)
        n = prob.model.base_dim
        r = random_hermitian(rng, n, scale=0.6)
        q = random_psd(rng, n, scale=0.4) + 0.1 * np.eye(n)
        omega = solve_omega(prob, r + 1j * q).value
        v = solve_vq(prob, q, real_part(omega)).value
        worst = max(worst, float(np.max(np.abs(v - imag_part(omega)))))
    _report(6, "graph property of the boundary solution", worst <= 1e-8,
            f"max deviation {worst:.2e} over 50 draws")


def test_ac07_phi_roundtrip():
    rng = np.random.default_rng(707)
    worst = 0.0
    for i in range(50):
        prob = random_problem(rng, n=1 + (i % 2))
        n = prob.model.base_dim
        u = random_hermitian(rng, n, scale=0.6)
        q = random_psd(rng, n, scale=0.4) + 0.1 * np.eye(n)
        omega = solve_omega(prob, u + 1j * q).value
        back = phi_q(prob, q, real_part(omega))
        worst = max(worst, float(np.max(np.abs(back - u))))
    _report(7, "inverse map round trip", worst <= 1e-8,
            f"max deviation {worst:.2e} over 50 draws, n in {{1,2}}")


def test_ac08_difference_quotient_spectrum():
    rng = np.random.default_rng(808)
    min_real = np.inf
    worst_comp = 0.0
    for _ in range(100):
        prob = random_problem(rng)
        n = prob.model.base_dim
        cert = delta_omega_spectrum(prob, random_upper(rng, n), random_upper(rng, n))
        min_real = min(min_real, cert.min_real)
        worst_comp = max(worst_comp, cert.details["inverse_composition_error"])
    ok = min_real > 0.5 and worst_comp <= 1e-8
    _report(8, "difference-quotient spectrum certificate", ok,
            f"min Re {min_real:.4f} over 100 pairs, composition error {worst_comp:.2e}")


def test_ac09_v_update_derivative():
    rng = np.random.default_rng(909)
    max_radius = 0.0
    for _ in range(30):
        prob = random_problem(rng)
        n = prob.model.base_dim
        q = random_psd(rng, n, scale=0.3) + 0.1 * np.eye(n)
        u = random_hermitian(rng, n, scale=0.5)
        max_radius = max(max_radius, dvg_spectrum(prob, q, u).spectral_radius)
    worst_fd, worst_amp = 0.0, 0.0
    for _ in range(10):
        prob = random_problem(rng)
        n = prob.model.base_dim
        q = random_psd(rng, n, scale=0.3) + 0.1 * np.eye(n)
        u = random_hermitian(rng, n, scale=0.5)
        c = random_hermitian(rng, n)
        out = vq_derivative(prob, q, u, c)
        # a central difference of two v_q solves
        step = 1e-5 * max(1.0, opnorm(u)) / opnorm(c)
        vp, vm = (solve_vq(prob, q, u + s * c).value for s in (step, -step))
        fd = (vp - vm) / (2.0 * step)
        worst_fd = max(worst_fd, opnorm(fd - out.value) / (1.0 + opnorm(out.value)))
        worst_amp = max(worst_amp, out.agreement_error)
    ok = max_radius < 1.0 and worst_fd <= 1e-5 and worst_amp <= 1e-8
    _report(9, "v-update derivative certificates", ok,
            f"max radius {max_radius:.4f}, fd rel {worst_fd:.2e}, block {worst_amp:.2e}")


def test_ac10_nc_function_axioms():
    rng = np.random.default_rng(1010)
    worst = 0.0
    fixtures = []
    for n, m in ((1, 3), (2, 2)):
        fixtures.append(random_problem(rng, n=n, m=m))
    fixtures.append(semicircle_problem(scalar_to_model(POINT),
                                       CPMap.scaled_identity(1.0, 1)))
    fixtures.append(SubordinationProblem.power(
        scalar_to_model(BERN), CPMap.scaled_identity(2.0, 1)))
    for prob in fixtures:
        n = prob.model.base_dim
        a = 0.3 * random_hermitian(rng, n) + 1j * (
            2.0 * np.eye(n) + 0.2 * random_psd(rng, n))
        b = 0.3 * random_hermitian(rng, n) + 2.2j * np.eye(n)
        out = nc_function_axioms_check(prob, a, b)
        worst = max(worst, out["max_deviation"])
    _report(10, "noncommutative function axioms", worst <= 1e-10,
            f"max deviation {worst:.2e} over {len(fixtures)} fixtures")


def test_ac11_r_transform():
    model = scalar_to_model(BERN)
    points = [-0.01j, -0.02j, -0.03j, -0.04j, -0.05j]
    worst = max(abs(r_transform_eval(model, np.array([[g]]))[0, 0] - bernoulli_r(g))
                for g in points)
    doubled = ConvolutionPower(model, CPMap.scaled_identity(2.0, 1))
    worst_add = max(
        abs(r_transform_eval(doubled, np.array([[g]]))[0, 0] - 2.0 * bernoulli_r(g))
        for g in points)
    ok = worst <= 1e-8 and worst_add <= 1e-8
    _report(11, "R-transform closed form and additivity", ok,
            f"closed form {worst:.2e}, additivity {worst_add:.2e}")


def test_ac12_jc_probe():
    prob = semicircle_problem(scalar_to_model(POINT), CPMap.scaled_identity(1.0, 1))
    cfg = SolverConfig(damping=0.5, max_iter=200000)
    schedule = tuple(10.0 ** (-k) for k in range(0, 7))
    eye = np.eye(1)
    outside = jc_probe(prob, 3.0 * eye, eye, eye, schedule, cfg)
    inside = jc_probe(prob, 0.0 * eye, eye, eye, schedule, cfg)
    ok = (outside.applicable and all(outside.verdicts.values())
          and outside.hprime_norms[-1] <= 1.0 + 1e-3
          and not inside.applicable)
    _report(12, "boundary regularity probe", ok,
            f"exterior |h'| {outside.hprime_norms[-1]:.4f}, "
            f"interior: {inside.reason}")


def test_ac13_rmt_end_to_end():
    t0 = time.time()
    prob = semicircle_problem(scalar_to_model(BERN), CPMap.scaled_identity(1.0, 1))
    grid = density_grid(prob, np.linspace(-3.8, 3.8, 761), (2e-2, 1e-2))
    spec = EnsembleSpec("deterministic_plus_gue", BERN, 1.0, 1000, 20, seed=1234)
    ks = compare_density(sample_rmt_spectrum(spec), grid)
    elapsed = time.time() - t0
    ok = ks <= 0.05 and elapsed < 120.0
    _report(13, "random-matrix end-to-end validation", ok,
            f"KS {ks:.5f}, {elapsed:.1f}s")
