"""Domain types: raw quadratic forms, canonical representations, results.

A quadratic form is Q = x'Ax + b'x + c with x ~ N(mu, Sigma).  Reduction
rewrites it as a weighted sum of independent noncentral chi-squares plus
an independent Gaussian plus a constant, one ``ReducedForm``

    Q ~ sum_l omega_l chi2_{nu_l}(delta_l^2) + sigma N(0,1) + const.

Both canonical representations are of this type: the effective one has
one chi2_1(h_n^2) per nonzero eigenvalue (every nu_l = 1), and the
reduced one groups repeated weights (nu_l multiplicities, delta_l^2 the
summed noncentralities of a group).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import InvalidInputError

_SYM_TOL = 1e-10
ZERO_EIG_TOL = 1e-12       # |w| <= tol * max|w| counts as zero


def _as_matrix(m, name, dtype=float):
    a = np.asarray(m, dtype=dtype)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInputError(f"{name} must be a square matrix, got shape {a.shape}")
    return a


def _as_vector(v, n, name, dtype=float):
    a = np.asarray(v, dtype=dtype)
    if a.ndim != 1 or a.shape[0] != n:
        raise InvalidInputError(f"{name} must be a length-{n} vector, got shape {a.shape}")
    return a


def _check_hermitian(a, name, tol=_SYM_TOL):
    scale = max(1.0, float(np.linalg.norm(a, np.inf)))
    dev = float(np.linalg.norm(a - a.conj().T, np.inf))
    if dev > tol * scale:
        raise InvalidInputError(
            f"{name} is not symmetric/Hermitian within tolerance "
            f"(deviation {dev:.3e} > {tol:.1e} * scale)"
        )
    return (a + a.conj().T) / 2.0


def _psd_factor(s, name):
    """B of full column rank with s = B B^H, from one eigendecomposition of
    the Hermitian s.

    One tolerance decides both questions: an eigenvalue below
    -ZERO_EIG_TOL * max|w| means s is not positive semidefinite, and one
    within ZERO_EIG_TOL * max|w| of zero is a null direction of s.  A
    diagonal s needs no eigh: its eigenvalues are its diagonal, ascending
    (stable for ties), and B the kept columns of diag(sqrt(s_ii)).
    """
    diag = np.diagonal(s).real
    diagonal = np.count_nonzero(s) == np.count_nonzero(diag) and np.isfinite(diag).all()
    order = np.argsort(diag, kind="stable") if diagonal else None
    w, u = (diag[order], None) if diagonal else np.linalg.eigh(s)
    scale = float(np.max(np.abs(w), initial=0.0))
    if w.min(initial=0.0) < -ZERO_EIG_TOL * scale:
        raise InvalidInputError(
            f"{name} must be positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    keep = w > ZERO_EIG_TOL * scale
    u = u[:, keep] if order is None else np.eye(s.shape[0], dtype=s.dtype)[:, order[keep]]
    return u * np.sqrt(w[keep])


def _init_raw(form, dtype):
    """Validate and normalize the fields of a RawForm or RawComplexForm and
    factor its covariance."""
    a = _check_hermitian(_as_matrix(form.a, "a", dtype), "a")
    n = a.shape[0]
    object.__setattr__(form, "a", a)
    object.__setattr__(form, "b", _as_vector(form.b, n, "b", dtype))
    object.__setattr__(form, "c", float(form.c))
    object.__setattr__(form, "mu", _as_vector(form.mu, n, "mu", dtype))
    _set_covariance(form, n, dtype)


def _set_covariance(form, n, dtype=float):
    """Validate form.sigma_mat as an n x n PSD matrix and store its factor."""
    s = _check_hermitian(_as_matrix(form.sigma_mat, "sigma_mat", dtype), "sigma_mat")
    if s.shape[0] != n:
        raise InvalidInputError(f"sigma_mat must be {n} x {n}, got shape {s.shape}")
    object.__setattr__(form, "sigma_factor", _psd_factor(s, "sigma_mat"))
    object.__setattr__(form, "sigma_mat", s)


@dataclass(frozen=True)
class RawForm:
    """Real quadratic form x'Ax + b'x + c, x ~ N(mu, sigma_mat).

    ``sigma_factor`` is the full-column-rank B with sigma_mat = B B',
    computed once here; the reduction and the samplers read it.
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    mu: np.ndarray
    sigma_mat: np.ndarray
    sigma_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _init_raw(self, float)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class RawComplexForm:
    """Hermitian form x^H A x + Re(b^H x) + c, x ~ CN(mu, sigma_mat).

    ``sigma_factor`` is the complex B with sigma_mat = B B^H.
    """

    a: np.ndarray
    b: np.ndarray
    c: float
    mu: np.ndarray
    sigma_mat: np.ndarray
    sigma_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _init_raw(self, complex)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class ReducedForm:
    """Canonical representation sum_l omega_l chi2_{nu_l}(delta2_l) + sigma
    N(0,1) + const, grouped or (every nu_l = 1) effective."""

    omega: np.ndarray
    nu: np.ndarray
    delta2: np.ndarray
    sigma_gauss: float = 0.0
    const: float = 0.0

    def __post_init__(self):
        omega = np.atleast_1d(np.asarray(self.omega, dtype=float))
        nu = np.atleast_1d(np.asarray(self.nu))
        delta2 = np.atleast_1d(np.asarray(self.delta2, dtype=float))
        if not (omega.shape == nu.shape == delta2.shape):
            raise InvalidInputError("omega, nu and delta2 must have matching shapes")
        if np.any(omega == 0.0):
            raise InvalidInputError("weights omega must be nonzero")
        nu_f = np.asarray(nu, dtype=float)
        if np.any(nu_f != np.round(nu_f)) or np.any(nu_f < 1):
            raise InvalidInputError("degrees of freedom nu must be positive integers")
        if np.any(delta2 < 0.0):
            raise InvalidInputError("noncentralities delta2 must be nonnegative")
        if self.sigma_gauss < 0.0:
            raise InvalidInputError("sigma_gauss must be nonnegative")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "nu", np.asarray(np.round(nu), dtype=int))
        object.__setattr__(self, "delta2", delta2)
        object.__setattr__(self, "sigma_gauss", float(self.sigma_gauss))
        object.__setattr__(self, "const", float(self.const))

    @property
    def n_groups(self) -> int:
        return self.omega.shape[0]

    @property
    def total_dof(self) -> int:
        return int(self.nu.sum())

    def shifted(self, const: float) -> "ReducedForm":
        return ReducedForm(self.omega, self.nu, self.delta2, self.sigma_gauss, const)


@dataclass(frozen=True)
class FormClass:
    """Classification flags of a reduced form."""

    centrality: str        # "central" | "noncentral"
    definiteness: str      # "positive" | "negative" | "indefinite"
    has_gaussian: bool
    even_degrees: bool


@dataclass(frozen=True)
class CumulantSet:
    """Cumulants kappa_1..kappa_J; ``get(j)`` is 1-indexed."""

    kappa: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "kappa", np.atleast_1d(np.asarray(self.kappa, dtype=float)))

    @property
    def order(self) -> int:
        return self.kappa.shape[0]

    def get(self, j: int) -> float:
        if not 1 <= j <= self.order:
            raise InvalidInputError(f"cumulant order {j} outside 1..{self.order}")
        return float(self.kappa[j - 1])


@dataclass(frozen=True)
class MgfDomain:
    """Open interval (t_left, t_right) on which the MGF is finite."""

    t_left: float
    t_right: float

    def contains(self, t: float) -> bool:
        return self.t_left < t < self.t_right


@dataclass(frozen=True)
class MethodResult:
    """A computed value with its accuracy provenance.

    ``provenance`` is one of "exact" (closed form, floating point only),
    "rigorous" (error_bound is a proven bound), "heuristic" (error_bound
    is an estimate), "approximate" (method has no error control at all).
    Raw unclamped probabilities are kept in diagnostics when the public
    value is clamped to [0, 1].
    """

    value: float
    error_bound: float | None
    method: str
    provenance: str = "rigorous"
    diagnostics: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class RatioSpec:
    """Ratio R = (x'Ax)/(x'Bx) with x ~ N(mu, sigma_mat); ``sigma_factor``
    as on RawForm."""

    a: np.ndarray
    b: np.ndarray
    mu: np.ndarray
    sigma_mat: np.ndarray
    sigma_factor: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _check_hermitian(_as_matrix(self.a, "a"), "a")
        n = a.shape[0]
        b = _check_hermitian(_as_matrix(self.b, "b"), "b")
        if b.shape[0] != n:
            raise InvalidInputError("a and b must have the same dimension")
        _psd_factor(b, "b")
        if not np.any(np.abs(b) > 0.0):
            raise InvalidInputError("denominator matrix b must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "mu", _as_vector(self.mu, n, "mu"))
        _set_covariance(self, n)

    @property
    def dim(self) -> int:
        return self.a.shape[0]


@dataclass(frozen=True)
class MomentExistence:
    """Outcome of the ratio-moment existence decision tree."""

    exists: bool
    condition: str
    r_b: int


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate with standard error, reproducible from (seed, n)."""

    estimate: float
    std_error: float
    n: int
    seed: int
    generator: str = "numpy PCG64"


@dataclass(frozen=True)
class PartialFractionExpansion:
    """Terms (omega_l, order k, coefficient A_lk) of a rational MGF."""

    terms: tuple

    def coefficient_sum(self) -> float:
        return float(sum(t[2] for t in self.terms))


@dataclass(frozen=True)
class SeriesCoefficients:
    """Coefficients of a chi-square / power / Laguerre expansion.

    ``c[k]`` multiplies the k-th basis function; ``d[k]`` (k >= 1) are the
    log-derivative coefficients driving the recursion.  ``beta`` is the
    free scale parameter (None for the power series, which has none).
    """

    kind: str
    beta: float | None
    c: np.ndarray
    d: np.ndarray
    n_vars: int

    def __post_init__(self):
        object.__setattr__(self, "c", np.asarray(self.c, dtype=float))
        object.__setattr__(self, "d", np.asarray(self.d, dtype=float))


@dataclass(frozen=True)
class ImhofParams:
    """Truncation point U and trapezoid panel count K."""

    u_max: float
    panels: int

    def __post_init__(self):
        if self.u_max <= 0 or self.panels < 2:
            raise InvalidInputError("need u_max > 0 and panels >= 2")


@dataclass(frozen=True)
class DaviesParams:
    """Lattice spacing and truncation index."""

    delta: float
    k_max: int

    def __post_init__(self):
        if self.delta <= 0 or self.k_max < 1:
            raise InvalidInputError("need delta > 0 and k_max >= 1")


@dataclass(frozen=True)
class MatchedSurrogate:
    """A fitted moment-matching surrogate distribution."""

    family: str
    params: dict[str, float]


@dataclass(frozen=True)
class SaddlepointSolution:
    """Root of K'(t) = q with the derived tail statistics."""

    t0: float
    w: float
    v: float
    cgf_value: float
    cgf_second: float
