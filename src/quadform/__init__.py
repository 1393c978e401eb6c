"""Quadratic forms in Gaussian vectors: distributions, transforms, ratios.

The central object is the reduced representation
Q ~ sum_l omega_l chi2_{nu_l}(delta2_l) + sigma N(0,1) + const,
obtained from raw (matrix) inputs by :func:`reduce_raw` /
:func:`reduce_complex`.  CDF/PDF evaluation dispatches across exact
partial fractions, definite-form series, numerical CF inversion and
saddlepoint approximations; ratios of forms get CDFs, saddlepoint
densities and two independent moment algorithms.
"""

from .errors import (
    ConvergenceFailureError,
    DegenerateConstantError,
    DomainError,
    InvalidInputError,
    NotApplicableError,
    QuadFormError,
)
from .forms import (
    CumulantSet,
    DaviesParams,
    FormClass,
    ImhofParams,
    MatchedSurrogate,
    McResult,
    MethodResult,
    MgfDomain,
    MomentExistence,
    PartialFractionExpansion,
    RatioSpec,
    RawComplexForm,
    RawForm,
    ReducedForm,
    SaddlepointSolution,
    SeriesCoefficients,
)
from .reduction import (
    classify,
    factor_covariance,
    group_eigenvalues,
    reduce_complex,
    reduce_raw,
    reduce_real,
)
from .transforms import (
    cf,
    cgf_derivative,
    chernoff_log_tail,
    cumulants,
    log_mgf,
    mgf,
    mgf_domain,
    raw_moments,
)
from .series import (
    cdf_central_even,
    cdf_series,
    partial_fractions,
    pdf_central_even,
    pdf_series,
    series_coefficients,
)
from .inversion import cdf_davies, cdf_imhof, imhof_integrand, pdf_imhof, quantile
from .approx import (
    cdf_matched,
    cdf_spa,
    match,
    pdf_spa,
    saddlepoint_solve,
    surrogate_cumulants,
)
from .ratio import (
    cdf_ratio,
    moment_exists,
    pdf_ratio_spa,
    ratio_moment_integral,
    ratio_moment_series,
    ratio_to_indefinite,
)
from .reference import grid_cdf, mc_cdf, mc_ratio_moment
from .select import cdf, pdf, select_method

__version__ = "0.1.0"

__all__ = [
    "QuadFormError", "InvalidInputError", "DomainError", "NotApplicableError",
    "ConvergenceFailureError", "DegenerateConstantError",
    "RawForm", "RawComplexForm", "ReducedForm", "FormClass",
    "CumulantSet", "MgfDomain", "MethodResult", "RatioSpec", "MomentExistence",
    "McResult", "PartialFractionExpansion", "SeriesCoefficients", "ImhofParams",
    "DaviesParams", "MatchedSurrogate", "SaddlepointSolution",
    "factor_covariance", "reduce_real", "reduce_complex", "reduce_raw",
    "group_eigenvalues", "classify",
    "mgf", "log_mgf", "mgf_domain", "cf", "cgf_derivative", "cumulants",
    "raw_moments", "chernoff_log_tail",
    "partial_fractions", "cdf_central_even", "pdf_central_even",
    "series_coefficients", "cdf_series", "pdf_series",
    "imhof_integrand", "cdf_imhof", "pdf_imhof", "cdf_davies", "quantile",
    "match", "surrogate_cumulants", "cdf_matched", "saddlepoint_solve",
    "pdf_spa", "cdf_spa",
    "ratio_to_indefinite", "cdf_ratio", "pdf_ratio_spa", "moment_exists",
    "ratio_moment_series", "ratio_moment_integral",
    "mc_cdf", "mc_ratio_moment", "grid_cdf",
    "cdf", "pdf", "select_method",
]
