"""Checks on the program's outputs.

Each check takes what the program produced (parsed from its output files,
or the objects the library returned) and the reference or bound it must
meet, and returns a list of problems; an empty list means the output passed.
The tolerances are fixed here, apart from the workloads that use them.
"""

from __future__ import annotations

import numpy as np

import references

SHEET_TOL = 1e-8          # density values against the reference sheet
MASS_TOL = 1e-2           # trapezoid mass of a sheet against 1
OMEGA_TOL = 1e-7          # omega(alpha + i y v) against its closed form
PROBE_REL_TOL = 1e-6      # probe quotient and h' norms against their closed forms
INVERSE_COMPOSITION_TOL = 1e-8
VQ_AGREEMENT_TOL = 1e-8
AXIOM_TOL = 1e-10
R_TOL = 1e-8


def read_sheet(path):
    """(u, density, failure lines) from a density CSV, read without freeconv."""
    us, dens, failures = [], [], []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if line[1:].strip().startswith("failures:"):
                    failures.append(line)
                continue
            if line.startswith("u,"):
                continue
            u_tok, rho_tok = line.split(",")
            us.append(float(u_tok))
            dens.append(float(rho_tok))
    return np.array(us), np.array(dens), failures


def check_sheet(us, dens, failures, expected_us, reference) -> list[str]:
    problems = []
    if failures:
        problems.append(f"sheet lists failed points: {failures[0][:80]}")
    if us.shape != expected_us.shape or np.max(np.abs(us - expected_us)) > 1e-12:
        return problems + ["sheet abscissae differ from the requested grid"]
    if not np.all(np.isfinite(dens)):
        return problems + ["sheet holds non-finite densities"]
    err = float(np.max(np.abs(dens - reference)))
    if err > SHEET_TOL:
        problems.append(f"sheet differs from the reference by {err:.3e} (> {SHEET_TOL:g})")
    mass = references.trapezoid_mass(us, dens)
    if abs(mass - 1.0) > MASS_TOL:
        problems.append(f"sheet mass {mass:.6f} is not within {MASS_TOL:g} of 1")
    return problems


def check_validate(report: dict, expected_count: int) -> list[str]:
    problems = []
    if report.get("pass") is not True or not report["ks_distance"] <= report["threshold"]:
        problems.append(f"KS distance {report.get('ks_distance')} above threshold")
    if report.get("eigenvalue_count") != expected_count:
        problems.append(f"validate-rmt pooled {report.get('eigenvalue_count')} eigenvalues, "
                        f"expected {expected_count}")
    return problems


def _matrix(d) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in d["entries"]])


def check_probe(probe: dict, ref_omegas, ref_quotient=None, ref_hprime=None) -> list[str]:
    """omega values, and when given the quotient and h' norms, against references."""
    if probe.get("truncated_at") is not None:
        return [f"probe truncated at y={probe['truncated_at']}"]
    omegas = [_matrix(w) for w in probe["omega_values"]]
    if len(omegas) != len(ref_omegas):
        return [f"probe returned {len(omegas)} omega values, expected {len(ref_omegas)}"]
    problems = []
    err = max(float(np.max(np.abs(w - np.atleast_2d(r)))) for w, r in zip(omegas, ref_omegas))
    if not err <= OMEGA_TOL:
        problems.append(f"omega differs from the closed form by {err:.3e} (> {OMEGA_TOL:g})")
    for name, ref in (("quotient", ref_quotient), ("hprime_norms", ref_hprime)):
        if ref is None:
            continue
        got = np.asarray(probe[name], dtype=float)
        if got.shape != np.shape(ref):
            problems.append(f"probe {name} has {got.size} entries, expected {np.size(ref)}")
            continue
        rel = float(np.max(np.abs(got - ref) / (1.0 + np.abs(ref))))
        if not rel <= PROBE_REL_TOL:
            problems.append(f"probe {name} differs from the closed form by {rel:.3e}")
    return problems


def check_exterior(probe: dict) -> list[str]:
    if probe.get("applicable") is not True:
        return [f"exterior probe not applicable: {probe.get('reason')}"]
    bad = [name for name, ok in probe["verdicts"].items() if ok is not True]
    return [f"exterior probe verdicts false: {bad}"] if bad else []


def check_interior(probe: dict) -> list[str]:
    return ["interior probe reported applicable"] if probe.get("applicable") is not False else []


def check_delta_omega(cert: dict) -> list[str]:
    problems = []
    if not (cert["pass"] is True and cert["min_real"] > 0.5):
        problems.append(f"delta-omega spectrum min Re {cert['min_real']:.4f} is not > 1/2")
    err = cert["details"]["inverse_composition_error"]
    if not err <= INVERSE_COMPOSITION_TOL:
        problems.append(f"inverse composition error {err:.3e} > {INVERSE_COMPOSITION_TOL:g}")
    return problems


def check_dvg(cert: dict) -> list[str]:
    if cert["pass"] is True and cert["spectral_radius"] < 1.0:
        return []
    return [f"v-update derivative spectral radius {cert['spectral_radius']:.4f} is not < 1"]


def check_vq(agreement_error: float) -> list[str]:
    if agreement_error <= VQ_AGREEMENT_TOL:
        return []
    return [f"implicit and amplified v_q derivatives differ by {agreement_error:.3e}"]


def check_axioms(result: dict) -> list[str]:
    worst = result["max_deviation"]
    if result["pass"] is True and worst <= AXIOM_TOL:
        return []
    return [f"nc-function axiom deviation {worst:.3e} > {AXIOM_TOL:g}"]


def check_r_transform(R_model, R_power, alpha_of, G_at, g) -> list[str]:
    """R_model inverts G at g, and R of the power equals alpha(R_model).

    G is flat near infinity (G' ~ g^2), so the inverse residual is scaled
    by ||g^{-1}||^2 into the error it implies for R.
    """
    problems = []
    ginv = np.linalg.inv(g)
    implied = float(np.linalg.norm(G_at(R_model + ginv) - g, 2)
                    * np.linalg.norm(ginv, 2) ** 2)
    if not implied <= R_TOL * (1.0 + float(np.max(np.abs(R_model)))):
        problems.append(f"G(R(g) + 1/g) - g implies an R error of {implied:.3e}")
    target = alpha_of(R_model)
    add_err = float(np.max(np.abs(R_power - target)))
    if not add_err <= R_TOL * (1.0 + float(np.max(np.abs(target)))):
        problems.append(f"R of the power differs from alpha(R) by {add_err:.3e}")
    return problems

