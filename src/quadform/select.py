"""Automatic method selection and name-based dispatch for CDF/PDF queries.

Selection heuristics: far tails (Chernoff estimate below 1e-8) go to the
saddlepoint, which keeps the exact exponential decay rate; central forms
with even degrees of freedom use the finite partial-fraction formula;
positive (or negative) definite forms use the chi-square-density
expansion; everything else, including Gaussian components, uses the
Davies lattice.
"""

from __future__ import annotations

import math

from . import approx, inversion, series, transforms
from .errors import DomainError, InvalidInputError
from .forms import MethodResult, ReducedForm
from .reduction import classify

TAIL_THRESHOLD = 1e-8

CDF_METHODS = ("auto", "central_even", "ruben", "kotz", "laguerre", "imhof",
               "davies", "spa_lr", "spa_bn", "satterthwaite", "pearson", "hbe",
               "wood", "liu")
PDF_METHODS = ("auto", "central_even", "ruben", "kotz", "laguerre", "imhof",
               "spa_lr")


def _negate(red: ReducedForm) -> ReducedForm:
    return ReducedForm(-red.omega, red.nu, red.delta2, red.sigma_gauss, -red.const)


def select_method(red: ReducedForm, quantity: str = "cdf", q: float = 0.0,
                  tail_hint: str | None = None) -> str:
    """Pick a method identifier for the given form and evaluation point.

    tail_hint: "left"/"right" force the tail route, "none" suppresses the
    Chernoff pre-check, None (default) lets the pre-check decide.
    """
    cls = classify(red)
    tail = tail_hint in ("left", "right")
    if tail_hint != "none" and not tail and red.n_groups > 0:
        log_l = transforms.chernoff_log_tail(red, q, "left")
        log_r = transforms.chernoff_log_tail(red, q, "right")
        tail = min(log_l, log_r) < math.log(TAIL_THRESHOLD)
    if tail:
        return "spa_lr" if quantity == "cdf" else "spa"
    if red.n_groups == 0:
        return "davies"
    if (cls.centrality == "central" and cls.even_degrees and not cls.has_gaussian):
        return "central_even"
    if cls.definiteness in ("positive", "negative") and not cls.has_gaussian:
        return "ruben"
    if quantity == "pdf":
        return "imhof" if not cls.has_gaussian else "spa"
    return "davies"


def cdf(red: ReducedForm, q: float, method: str = "auto",
        tol: float = 1e-8) -> MethodResult:
    """CDF dispatch by method name (method="auto" applies select_method)."""
    if method == "auto":
        method = select_method(red, "cdf", q)
        if method in ("spa_lr", "spa_bn"):
            # extreme points can sit at the support edge where the
            # saddlepoint has no root; fall back to the generic routing
            try:
                return cdf(red, q, method, tol)
            except DomainError:
                fallback = select_method(red, "cdf", q, tail_hint="none")
                return cdf(red, q, fallback, tol)
    if method == "central_even":
        return series.cdf_central_even(red, q)
    if method in ("ruben", "kotz", "laguerre"):
        return _definite_series(red, q, method, tol, cumulative=True)
    if method == "imhof":
        return inversion.cdf_imhof(red, q, tol=tol)
    if method == "davies":
        return inversion.cdf_davies(red, q, tol=tol)
    if method == "spa_lr":
        return approx.cdf_spa(red, q, "lugannani_rice")
    if method == "spa_bn":
        return approx.cdf_spa(red, q, "barndorff_nielsen")
    if method in approx.FAMILIES:
        return approx.cdf_matched(red, q, method)
    raise InvalidInputError(f"unknown CDF method {method!r}")


def pdf(red: ReducedForm, q: float, method: str = "auto",
        tol: float = 1e-8) -> MethodResult:
    """PDF dispatch by method name."""
    if method == "auto":
        lo_s, hi_s = transforms.support(red)
        if not lo_s < q < hi_s:
            return MethodResult(0.0, 0.0, "support", "exact",
                                {"note": "outside the support"})
        method = select_method(red, "pdf", q)
    if method == "central_even":
        return series.pdf_central_even(red, q)
    if method in ("ruben", "kotz", "laguerre"):
        return _definite_series(red, q, method, tol, cumulative=False)
    if method == "imhof":
        return inversion.pdf_imhof(red, q, tol=tol)
    if method in ("spa", "spa_lr"):
        return approx.pdf_spa(red, q)
    raise InvalidInputError(f"unknown PDF method {method!r}")


def _definite_series(red: ReducedForm, q: float, kind: str, tol: float,
                     cumulative: bool) -> MethodResult:
    """Series evaluation, mapping negative definite forms to negated ones."""
    cls = classify(red)
    if cls.definiteness == "negative":
        res = _definite_series(_negate(red), -q, kind, tol, cumulative)
        if cumulative:
            # P(Q <= q) = P(-Q >= -q); the negated form is continuous
            value = 1.0 - res.value
            raw = 1.0 - res.diagnostics.get("raw_value", res.value)
            return MethodResult(value, res.error_bound, res.method, res.provenance,
                                dict(res.diagnostics, raw_value=raw, negated=True))
        return MethodResult(res.value, res.error_bound, res.method, res.provenance,
                            dict(res.diagnostics, negated=True))
    eff = red.effective()
    fn = series.cdf_series if cumulative else series.pdf_series
    return fn(eff, q, kind=kind, tol=tol)

