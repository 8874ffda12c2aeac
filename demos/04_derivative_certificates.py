"""
Difference quotients and derivative spectrum certificates
=========================================================

Derivatives of the subordination map are extracted from 2x2 upper-triangular
amplifications: solve at [[b1, c], [0, b2]] and read the (1,2) block.  Two
spectrum certificates come out of this: the difference quotient of omega has
spectrum in Re > 1/2, and the linearized v-update is a strict contraction,
which is what makes the boundary fixed points computable at all.
"""

import numpy as np

from freeconv import (
    CPMap,
    OperatorModel,
    ScalarMeasure,
    delta_omega,
    delta_omega_spectrum,
    dvg_spectrum,
    scalar_to_model,
    semicircle_problem,
    solve_vq,
    vq_derivative,
)

np.set_printoptions(precision=6, suppress=True)

prob = semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                          CPMap.scaled_identity(1.0, 1))

# -- the difference quotient against the hand value ---------------------------
# for the semicircle, omega(b) = (b + sqrt(b^2 - 4)) / 2, so the quotient
# between 2i and 3i is (omega(2i) - omega(3i)) / (2i - 3i).
d = delta_omega(prob, np.array([[2j]]), np.array([[3j]]), np.array([[1.0]]))
w2, w3 = 1j * (1 + np.sqrt(2)), 0.5j * (3 + np.sqrt(13))
print(f"Delta omega(2i,3i)[1] = {d[0,0]:.10f}  hand value {(w2-w3)/(-1j):.10f}")

cert = delta_omega_spectrum(prob, np.array([[2j]]), np.array([[3j]]))
print(f"claim: {cert.claim}")
print(f"  min Re = {cert.min_real:.6f} -> {'PASS' if cert.passed else 'FAIL'}")
print(f"  right-inverse composition error: "
      f"{cert.details['inverse_composition_error']:.2e}")

# -- the v-update contraction --------------------------------------------------
# at q = 0.1, u = 0 the scalar fixed point is v = q + 1/v and the update
# derivative is -1/v^2, safely inside the unit disc.
q, u = np.array([[0.1]]), np.array([[0.0]])
cert = dvg_spectrum(prob, q, u)
v = solve_vq(prob, q, u).value[0, 0].real
print(f"\nclaim: {cert.claim}")
print(f"  spectral radius = {cert.spectral_radius:.6f} "
      f"(hand value {1.0 / v ** 2:.6f}) -> {'PASS' if cert.passed else 'FAIL'}")

# -- two routes to the derivative of u -> v_q(u) -------------------------------
out = vq_derivative(prob, q, np.array([[0.2]]), np.array([[1.0]]))
print(f"\ndv_q/du at u = 0.2 (q = 0.1):")
print(f"  implicit formula      {out.value[0,0]: .10f}")
print(f"  2x2 block fixed point {out.amplified[0,0]: .10f}")
print(f"  agreement {out.agreement_error:.2e}")

# the same certificates over a matrix-valued random problem
rng = np.random.default_rng(4)
A = rng.standard_normal((6, 6))
X = (A + A.T) / np.sqrt(12.0)
model = OperatorModel.partial_trace(X, base_dim=2)
prob2 = semicircle_problem(model, CPMap.scaled_identity(0.8, 2))
b1 = 0.3 * np.diag([1.0, -1.0]) + 1.2j * np.eye(2)
b2 = 1.1j * np.eye(2)
cert = delta_omega_spectrum(prob2, b1, b2)
print(f"\n2x2 base algebra: min Re sigma(Delta omega) = {cert.min_real:.4f}, "
      f"radius of v-update = "
      f"{dvg_spectrum(prob2, 0.2 * np.eye(2), np.zeros((2, 2))).spectral_radius:.4f}")
