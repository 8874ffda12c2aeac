"""Tests of the benchmark's references, checks and tracer.

Run from the root of the checkout:  python3 -m pytest bench -q

The closed forms below are derived again here (roots of the defining
polynomial, or the defining equation itself), so the references are not
tested against copies of their own formulas.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
import references  # noqa: E402
import workloads  # noqa: E402

Z = np.array([0.3 + 1e-2j, -1.7 + 2e-2j, 2.5 + 0.1j, 0.0 + 1.0j, 4.0 + 1e-3j])


def quadratic_root_above(b, coeffs):
    """The root of a polynomial in w (coefficients in w, highest first) in Im w > Im b."""
    roots = np.roots(coeffs)
    above = roots[roots.imag > b.imag - 1e-12]
    assert above.size == 1
    return above[0]


def semicircle_g(z, t):
    # G solves t G^2 - z G + 1 = 0 with G ~ 1/z, i.e. Im G < 0 above the axis
    roots = np.roots([t, -z, 1.0])
    return roots[roots.imag < 0][0]


# ---------------------------------------------------------------------------
# references against closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("t", [1.0, 0.6])
def test_block_solver_reduces_to_the_semicircle(t):
    g = references.block_semicircle_g(Z, np.zeros((1, 3)), [[t]])
    expected = np.array([semicircle_g(z, t) for z in Z])
    assert np.max(np.abs(g[:, 0] - expected)) < 1e-12


def test_block_solver_couples_blocks_through_the_covariance():
    # zero blocks and equal row sums s: every g_i is the semicircle of variance s
    A = np.array([[0.2, 0.5], [0.4, 0.3]])
    g = references.block_semicircle_g(Z, np.zeros((2, 4)), A)
    expected = np.array([semicircle_g(z, 0.7) for z in Z])
    assert np.max(np.abs(g - expected[:, None])) < 1e-12


def test_block_solver_solves_its_equation_with_atoms():
    lam = np.array([[-1.0, -1.0, 0.5, 2.0], [0.0, 0.3, 0.3, 1.0]])
    A = np.array([[0.3, 0.1], [0.2, 0.4]])
    g = references.block_semicircle_g(Z, lam, A)
    for z, gz in zip(Z, g):
        w = z - A @ gz
        assert np.max(np.abs(gz - np.mean(1.0 / (w[:, None] - lam), axis=1))) < 1e-13
    assert np.all(g.imag < 0)


def test_density_sheet_of_a_point_mass_is_the_semicircle_at_height_eps():
    us = np.linspace(-2.5, 2.5, 11)
    sheet = references.density_sheet(us, (1e-2,), [[0.0]], [[1.0]])
    expected = np.array([-semicircle_g(u + 1e-2j, 1.0).imag / np.pi for u in us])
    assert np.max(np.abs(sheet - expected)) < 1e-12
    # extrapolating two heights to 0 approaches sqrt(4 - u^2)/(2 pi) inside the bulk
    inside = np.abs(us) < 1.5
    sheet2 = references.density_sheet(us, (2e-2, 1e-2), [[0.0]], [[1.0]])
    exact = np.sqrt(np.clip(4.0 - us ** 2, 0.0, None)) / (2.0 * np.pi)
    assert np.max(np.abs(sheet2 - exact)[inside]) < 1e-4


@pytest.mark.parametrize("c", [0.0, 0.7])
def test_point_mass_omega_is_the_attracting_root(c):
    for b in 2.0 + c + 1j * np.array([1.0, 1e-3, 1e-6]):
        expected = c + quadratic_root_above(b - c, [1.0, -(b - c), 1.0])
        assert abs(references.point_semicircle_omega(b, c) - expected) < 1e-12


@pytest.mark.parametrize("c", [0.0, -0.4])
def test_bernoulli_square_omega_subordinates_the_arcsine_law(c):
    for b in 2.0 + 2.0 * c + 1j * np.array([1.0, 1e-2, 1e-6]):
        w = references.bernoulli_square_omega(b, c)
        g_mu = 0.5 / (w - c + 1.0) + 0.5 / (w - c - 1.0)
        x = b - 2.0 * c
        g_arcsine = 1.0 / (np.sqrt(x - 2.0) * np.sqrt(x + 2.0))
        assert abs(g_mu - g_arcsine) < 1e-9 * abs(g_arcsine)
        assert w.imag >= b.imag


def test_matrix_point_mass_omega_solves_the_matrix_equation():
    v = np.array([[0.8, 0.3j], [-0.3j, 0.6]])
    c = 0.25
    for y in (1.0, 1e-3, 1e-6):
        w = references.normal_function(lambda x: c + references.edge_f(x - c), c + 2.0, y, v)
        b = (c + 2.0) * np.eye(2) + 1j * y * v
        assert np.max(np.abs(w - (b + np.linalg.inv(c * np.eye(2) - w)))) < 1e-10


def test_probe_quotient_and_derivative_match_closed_forms():
    c, alpha, ys = 0.3, 3.3, (1.0, 1e-2, 1e-5)
    omega = references.point_semicircle_omega(alpha + 1e-9j, c)
    h = lambda w: references.point_semicircle_h(w, c)
    dh = lambda w, e: references.point_semicircle_dh(w, e, c)
    quotient, hprime = references.probe_quantities(omega, ys, h, dh)
    x = omega.real
    # the scalar direction ell is 1; Im 1/(c - x - iy) = y/((c - x)^2 + y^2),
    # and |d/dw 1/(c - w)| = 1/|c - w|^2
    assert np.allclose(quotient, [1.0 / ((c - x) ** 2 + y * y) for y in ys], rtol=1e-12)
    assert np.allclose(hprime, [1.0 / abs(c - x - 1j * y) ** 2 for y in ys], rtol=1e-12)


def test_model_cauchy_is_the_partial_trace_of_the_resolvent():
    lam = np.array([[-1.0, 0.5, 2.0], [0.0, 0.25, 1.0]])
    X = np.diag(lam.reshape(-1)).astype(complex)
    b = np.diag([0.4 + 0.5j, -0.2 + 1.0j])
    G = references.model_cauchy(X, 2, b)
    expected = np.diag([np.mean(1.0 / (b[i, i] - lam[i])) for i in range(2)])
    assert np.max(np.abs(G - expected)) < 1e-15


# ---------------------------------------------------------------------------
# each check rejects a wrong answer
# ---------------------------------------------------------------------------

US = np.linspace(-4.0, 4.0, 81)


def test_sheet_check_rejects_a_sheet_at_another_variance():
    ref = references.density_sheet(US, (2e-2, 1e-2), [[0.0, 1.0]], [[1.0]])
    other = references.density_sheet(US, (2e-2, 1e-2), [[0.0, 1.0]], [[1.1]])
    assert checks.check_sheet(US, ref, [], US, ref) == []
    assert any("differs" in p for p in checks.check_sheet(US, other, [], US, ref))


def test_sheet_check_rejects_lost_mass_failures_and_another_grid():
    ref = references.density_sheet(US, (2e-2, 1e-2), [[0.0]], [[1.0]])
    half = np.where(US < 0, ref, 0.0)
    assert any("mass" in p for p in checks.check_sheet(US, half, [], US, half))
    assert checks.check_sheet(US, ref, ["# failures: 3,0"], US, ref)
    assert checks.check_sheet(US + 0.01, ref, [], US, ref)


def test_read_sheet_reads_the_written_format(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# method: richardson\n# failures: 1,0\nu,density\n0,0.5\n1,nan\n")
    us, dens, failures = checks.read_sheet(path)
    assert us.tolist() == [0.0, 1.0] and dens[0] == 0.5 and np.isnan(dens[1])
    assert failures == ["# failures: 1,0"]


def test_validate_check_rejects_a_failed_comparison():
    good = {"pass": True, "ks_distance": 0.02, "threshold": 0.05, "eigenvalue_count": 960}
    assert checks.check_validate(good, 960) == []
    assert checks.check_validate({**good, "pass": False, "ks_distance": 0.07}, 960)
    assert checks.check_validate(good, 480)


def _probe(omegas, quotient=(), hprime=(), **extra):
    as_json = lambda w: {"entries": [[[float(x.real), float(x.imag)] for x in row]
                                     for row in np.atleast_2d(w)]}
    return {"truncated_at": None, "omega_values": [as_json(w) for w in omegas],
            "quotient": list(quotient), "hprime_norms": list(hprime), **extra}


def test_probe_check_rejects_omega_at_another_alpha_and_wrong_quantities():
    ys = np.array([1.0, 1e-3, 1e-6])
    ref = references.point_semicircle_omega(2.0 + 1j * ys)
    off = references.point_semicircle_omega(2.001 + 1j * ys)
    q = np.array([1.0, 0.9, 0.8])
    assert checks.check_probe(_probe(ref, q, q), list(ref), q, q) == []
    assert checks.check_probe(_probe(off, q, q), list(ref), q, q)
    assert checks.check_probe(_probe(ref, q * 1.001, q), list(ref), q, q)
    assert checks.check_probe(_probe(ref, q, q[:2]), list(ref), q, q)
    assert checks.check_probe({**_probe(ref), "truncated_at": 1e-6}, list(ref))


def test_verdict_checks_reject_the_wrong_applicability():
    ok = {"applicable": True, "verdicts": {"a": True, "b": True}}
    assert checks.check_exterior(ok) == []
    assert checks.check_exterior({**ok, "verdicts": {"a": True, "b": False}})
    assert checks.check_exterior({**ok, "applicable": False, "reason": "x"})
    assert checks.check_interior({"applicable": False}) == []
    assert checks.check_interior({"applicable": True})


def test_certificate_checks_reject_violated_bounds():
    cert = {"pass": True, "min_real": 0.8, "details": {"inverse_composition_error": 1e-12}}
    assert checks.check_delta_omega(cert) == []
    assert checks.check_delta_omega({**cert, "pass": False, "min_real": 0.45})
    assert checks.check_delta_omega({**cert, "details": {"inverse_composition_error": 1e-6}})
    dvg = {"pass": True, "spectral_radius": 0.3}
    assert checks.check_dvg(dvg) == []
    assert checks.check_dvg({"pass": False, "spectral_radius": 1.01})
    assert checks.check_vq(1e-12) == [] and checks.check_vq(1e-6)
    ax = {"pass": True, "max_deviation": 1e-15}
    assert checks.check_axioms(ax) == []
    assert checks.check_axioms({"pass": False, "max_deviation": 1e-9})


def test_r_transform_check_rejects_a_wrong_power_and_a_wrong_inverse():
    # point mass at x0: G(b) = 1/(b - x0), so R(g) = x0 and R of the square is 2 x0
    x0 = 0.4
    G_at = lambda b: np.linalg.inv(b - x0 * np.eye(1))
    g = np.array([[-0.03j]])
    R = np.array([[x0 + 0j]])
    double = lambda r: 2.0 * r
    assert checks.check_r_transform(R, 2.0 * R, double, G_at, g) == []
    assert checks.check_r_transform(R, 3.0 * R, double, G_at, g)
    assert checks.check_r_transform(R + 1e-6, 2.0 * R + 2e-6, double, G_at, g)


# ---------------------------------------------------------------------------
# the tracer, and whole rounds against the program
# ---------------------------------------------------------------------------


def test_tracer_subtracts_wrapped_children_and_restores_patches():
    import freeconv
    import freeconv.cli
    from tracing import Tracer

    original = freeconv.serialize.load_json
    tracer = Tracer()
    tracer.install()
    try:
        assert freeconv.cli.load_json is freeconv.serialize.load_json is not original
        inner = tracer.wrap("x.inner", lambda: sum(range(20000)))
        outer = tracer.wrap("x.outer", lambda: inner() + inner())
        outer()
        assert tracer.calls["x.inner"] == 2 and tracer.calls["x.outer"] == 1
        names = [span[0] for span in tracer.spans]
        assert names[0].startswith("x.outer") and tracer.spans[1][3] == 0
        assert 0.0 <= tracer.self_time["x.outer"] < tracer.spans[0][2] - tracer.spans[0][1]
    finally:
        tracer.uninstall()
    assert freeconv.cli.load_json is original


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_round_passes_every_check(name, seed, tmp_path):
    import freeconv
    import freeconv.cli  # noqa: F401

    for op in workloads.WORKLOADS[name](freeconv, seed, tmp_path):
        assert op.check(op.run()) == [], op.name
