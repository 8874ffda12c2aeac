"""Amplified derivatives are solved at the unit direction.

delta_omega, delta_omega_spectrum and vq_derivative read a derivative as
||c|| times the corner of the amplified solve at the unit direction c/||c||.
The amplified point lies in the solver's domain whatever the size of c, and
the unit direction keeps the corner of the size of the derivative, where the
absolute residual test resolves it: at the spectral edge a corner of about
1e-10 (a margin-based rescaling) or 5e5 (no scaling, c = 1e3) does not.
"""

import numpy as np
import pytest

from freeconv import (
    CPMap,
    ScalarMeasure,
    delta_omega,
    delta_omega_spectrum,
    scalar_to_model,
    semicircle_problem,
    vq_derivative,
)

EDGE = 2.0 + 1e-6j


def point_plus_semicircle():
    return semicircle_problem(scalar_to_model(ScalarMeasure.point(0.0)),
                              CPMap.scaled_identity(1.0, 1))


def omega_prime(z):
    """The derivative of omega(z) = (z + sqrt(z^2 - 4))/2, point mass at 0 plus the semicircle."""
    return 0.5 * (1.0 + z / np.sqrt(z * z - 4.0))


@pytest.mark.parametrize("c", [1e-6, 1.0, 1e3])
def test_delta_omega_at_the_edge_is_accurate_for_every_direction_size(c):
    b = np.array([[EDGE]])
    got = delta_omega(point_plus_semicircle(), b, b, np.array([[c]]))[0, 0] / c
    want = omega_prime(EDGE)
    assert abs(got - want) <= 1e-9 * abs(want)


def test_delta_omega_spectrum_at_the_edge_composes_to_the_identity():
    b = np.array([[EDGE]])
    cert = delta_omega_spectrum(point_plus_semicircle(), b, b)
    assert cert.details["inverse_composition_error"] < 1e-8


def test_vq_derivative_in_a_small_direction_agrees_to_its_size():
    c = np.array([[1e-6]])
    out = vq_derivative(point_plus_semicircle(), [[1e-2]], [[0.3]], c)
    assert out.agreement_error <= 1e-12 * abs(c[0, 0])
