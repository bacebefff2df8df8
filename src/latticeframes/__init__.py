"""Numerical classification of lattice translate systems.

For a generator f on R^d and an invertible matrix B, the translates
{f(. - B k)} form a Bessel sequence, frame sequence, Riesz sequence, or
orthonormal system exactly according to the essential range of the
periodization of |fhat|^2 over the unit frequency cell.  This package
tabulates that periodization with certified truncation, classifies the
system, and cross-checks the verdict against brute-force Gram matrices.
"""

from . import errors
from .classify import (
    Classification,
    PerturbationCheck,
    RieszCheck,
    SpectralBounds,
    Verdict,
    classify_table,
    classify_translates,
    classify_weighted_exponentials,
    compact_support_riesz_check,
    perturbation_frame_check,
    spectral_bounds,
)
from .generators import (
    BSpline,
    CompactFrequencySupport,
    DecayBound,
    FrequencyBox,
    Gaussian,
    GaussianDecay,
    Generator,
    PolynomialDecay,
    SampledSpatial,
    Sinc,
    load_sampled_csv,
    tail_bound,
)
from .lattice import LatticeSpec, new_lattice
from .oracle import (
    CoefficientVector,
    GramMatrix,
    ProjectionResult,
    analysis_coefficients,
    gram_eigen_bounds,
    gram_matrix,
    project_onto_span,
    synthesis_norm,
)
from .periodization import (
    PeriodizationTable,
    autocorrelation,
    compute_phi,
    periodize_l1,
    perturbed_phi,
    phi_fourier_coeffs,
    table_to_csv,
    table_to_json,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
