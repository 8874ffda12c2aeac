"""Numerics for operator-valued free convolutions.

Subordination fixed points over a matrix base algebra, Cauchy transforms
of semicircular convolutions and convolution powers (each one subordination
problem), spectral density recovery, derivative-spectrum certificates,
boundary probes, and a random-matrix validation harness.
"""

__version__ = "0.1.0"

from .algebra import (
    CPMap,
    HERMITIAN_TOL,
    LinearMapOnB,
    POSITIVITY_TOL,
    choi_minus_identity_min,
    dag,
    direct_sum,
    halfplane_margin,
    identity_kron,
    imag_part,
    in_halfplane,
    is_hermitian,
    is_strictly_positive,
    kron_with_identity,
    linearize_on_basis,
    opnorm,
    real_part,
)
from .model import (
    MomentRequest,
    OperatorModel,
    ScalarMeasure,
    cauchy_transform,
    h_transform,
    moment,
    moment_growth_bound,
    scalar_to_model,
)
from .subordination import (
    CauchyStack,
    ConvergenceError,
    DEFAULT_CONFIG,
    SolveReport,
    SolveStack,
    SolverConfig,
    SubordinationProblem,
    phi_q,
    residual_h,
    solve_omega,
    solve_omega_stack,
    solve_vq,
)
from .transforms import (
    ConvolutionPower,
    DensityGrid,
    SemicircularConvolution,
    biane_v_scalar,
    cauchy_eval,
    convolution_power_g,
    density_grid,
    r_transform_eval,
    semicircle_problem,
    semicircular_convolve_g,
)
from .diagnostics import (
    JCProbeResult,
    SpectrumCertificate,
    VqDerivative,
    delta_omega,
    delta_omega_spectrum,
    dvg_spectrum,
    horodisc_membership,
    jc_probe,
    nc_function_axioms_check,
    vq_derivative,
)
from .harness import (
    EmpiricalSpectrum,
    EnsembleSpec,
    compare_density,
    gue_sample,
    haar_unitary,
    sample_rmt_spectrum,
    semicircle_quantiles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
