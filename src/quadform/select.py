"""Automatic method selection and name-based dispatch for CDF/PDF queries.

One policy routes every point: far tails (Chernoff estimate below 1e-8)
go to the saddlepoint, which keeps the exact exponential decay rate;
forms with a Gaussian term use Davies (CDF) or the saddlepoint (PDF);
otherwise central even-dof forms use the partial-fraction formula (past
tol, the route below it is also tried and the smaller bound kept),
definite forms the chi-square-density expansion and all others Imhof.
An auto Imhof CDF point runs ``inversion.cdf_auto_inversion`` (Imhof,
then Davies); a saddlepoint point without a root takes the route it
would have outside the tails.

The tails come from two points per form, where the left and the right
Chernoff log-tails cross log(1e-8) (``transforms.chernoff_crossing``): a
point is in a tail iff it lies beyond a crossing.  Only a point within
the crossing margin has its own Chernoff bound computed.

A ``Plan`` holds what the points of a form share: the classification,
the crossings, the partial-fraction expansion, the series form and
poles, and the inversion set-up per tol, each built on first use.
``cdf`` and ``pdf`` take a scalar point or an array of points and build
one plan per call; a caller that evaluates one form many times (the
quantile search) passes its own.  An array is routed once and evaluated
per route: the expansion and the series coefficients are shared by all
points.  Imhof points are evaluated one call each, and share through the
inversion set-up the rungs of its U ladder (the tail record's x-free part
and the integrand's modulus and phase at the rung's nodes).  Davies and
the saddlepoint run point by point.  Each point gets the route, method,
provenance and bound that a call with that point alone gives.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import approx, inversion, series, transforms
from .errors import DomainError, InvalidInputError, QuadFormError
from .forms import EffectiveForm, FormClass, MethodResult, ReducedForm
from .reduction import classify

TAIL_THRESHOLD = 1e-8
_LOG_TAIL = math.log(TAIL_THRESHOLD)

CDF_METHODS = ("auto", "central_even", "ruben", "kotz", "laguerre", "imhof",
               "davies", "spa_lr", "spa_bn", "satterthwaite", "pearson", "hbe",
               "wood", "liu")


def _negate(red: ReducedForm) -> ReducedForm:
    return ReducedForm(-red.omega, red.nu, red.delta2, red.sigma_gauss, -red.const)


class Plan:
    """What the CDF/PDF evaluations of one form share, each part built on
    first use.  Results do not depend on whether a plan is reused."""

    def __init__(self, red: ReducedForm):
        self.red = red
        self._inversion: dict = {}

    @functools.cached_property
    def cls(self) -> FormClass:
        return classify(self.red)

    @functools.cached_property
    def crossings(self) -> tuple:
        """(x, margin) of the left and the right crossing of log(TAIL_THRESHOLD)."""
        out = []
        for side in ("left", "right"):
            x = transforms.chernoff_crossing(self.red, _LOG_TAIL, side)
            out.append((x, transforms.crossing_margin(self.red, x)))
        return tuple(out)

    @functools.cached_property
    def pfe(self):
        return series.partial_fractions(self.red)

    @functools.cached_property
    def series_form(self) -> EffectiveForm:
        """The effective form of the series routes; of the negated form when
        the form is negative definite."""
        red = _negate(self.red) if self.cls.definiteness == "negative" else self.red
        return red.effective()

    @functools.cached_property
    def ruben_poles(self):
        """The poles of the chi-square expansion's remainder bound at its
        default beta; None where that bound does not apply."""
        eff = self.series_form
        if (self.cls.definiteness == "indefinite" or not eff.n_terms or eff.h2.any()
                or eff.n_terms % 2):
            return None
        return series._ruben_poles(eff, series.default_beta(eff, "ruben"))

    def inversion_setup(self, tol: float) -> inversion.InversionSetup:
        """The Imhof and Davies set-up at tol."""
        return self._inversion.setdefault(tol, inversion.InversionSetup(self.red, tol))


def _generic_method(red: ReducedForm, quantity: str, central_even: bool = True,
                    cls: FormClass | None = None) -> str:
    """The route of a point outside the far tails (central_even=False skips
    the partial-fraction formula); cls is classify(red) when known."""
    cls = classify(red) if cls is None else cls
    if cls.has_gaussian or red.n_groups == 0:
        return "davies" if quantity == "cdf" else "spa"
    if central_even and cls.centrality == "central" and cls.even_degrees:
        return "central_even"
    if cls.definiteness in ("positive", "negative"):
        return "ruben"
    return "imhof"


def select_method(red: ReducedForm, quantity: str = "cdf", q=0.0,
                  tail_hint: str | None = None, plan: Plan | None = None):
    """Pick a method identifier for the given form and evaluation point.

    q may be an array; the result is then a list with one identifier per
    point.  A point is in the far tails iff it lies beyond one of the form's
    two Chernoff crossings (see the module docstring).  tail_hint="none"
    suppresses the tail check (the saddlepoint fallback's route); None
    (default) lets it decide.  plan is a Plan of red to reuse.
    """
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    plan = plan if plan is not None else Plan(red)
    tail = np.zeros(pts.shape, dtype=bool)
    if tail_hint != "none" and red.n_groups > 0:
        tail = _in_tail(plan, pts)
    spa = "spa_lr" if quantity == "cdf" else "spa"
    generic = _generic_method(red, quantity, cls=plan.cls) if not tail.all() else spa
    methods = [spa if t else generic for t in tail]
    return methods[0] if qs.ndim == 0 else methods


def _in_tail(plan: Plan, pts: np.ndarray) -> np.ndarray:
    """Whether a Chernoff tail bound at each point is below TAIL_THRESHOLD:
    the point lies beyond a crossing, or, within the crossing's margin, its
    own log-tail says so."""
    tail = np.zeros(pts.shape, dtype=bool)
    for side, (x, margin) in zip(("left", "right"), plan.crossings):
        beyond = pts - x if side == "right" else x - pts
        tail |= beyond > margin
        near = np.abs(beyond) <= margin
        if near.any():
            tail[near] = transforms.chernoff_log_tail(plan.red, pts[near], side) < _LOG_TAIL
    return tail


def cdf(red: ReducedForm, q, method: str = "auto", tol: float = 1e-8,
        plan: Plan | None = None):
    """CDF dispatch by method name (method="auto" applies select_method).

    q may be an array: the result is then a list of MethodResult, one per
    point, and the error of the first point that fails is raised.  plan is a
    Plan of red to reuse across calls; results do not depend on it.
    """
    return _dispatch(red, q, method, tol, "cdf", plan)


def pdf(red: ReducedForm, q, method: str = "auto", tol: float = 1e-8,
        plan: Plan | None = None):
    """PDF dispatch by method name (q scalar or array, plan as for cdf)."""
    return _dispatch(red, q, method, tol, "pdf", plan)


def _dispatch(red: ReducedForm, q, method: str, tol: float, quantity: str,
              plan: Plan | None):
    plan = plan if plan is not None else Plan(red)
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    out: list = [None] * pts.size
    todo = np.arange(pts.size)
    if quantity == "pdf" and method == "auto":
        lo_s, hi_s = transforms.support(red)
        inside = (lo_s < pts) & (pts < hi_s)
        for i in np.flatnonzero(~inside):
            out[i] = MethodResult(0.0, 0.0, "support", "exact",
                                  {"note": "outside the support"})
        todo = np.flatnonzero(inside)
    auto = method == "auto"
    methods = select_method(red, quantity, pts[todo], plan=plan) if auto and todo.size else \
        [method] * todo.size
    for name in dict.fromkeys(methods):
        idx = todo[[m == name for m in methods]]
        for i, res in zip(idx, _evaluate(plan, pts[idx], name, tol, quantity, auto)):
            out[i] = res
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out[0] if qs.ndim == 0 else out


def _each(fn, red: ReducedForm, xs: np.ndarray, *args, **kwargs) -> list:
    """fn at every point; a point's library error takes its slot."""
    out = []
    for x in xs:
        try:
            out.append(fn(red, float(x), *args, **kwargs))
        except QuadFormError as exc:
            out.append(exc)
    return out


def _evaluate(plan: Plan, xs: np.ndarray, method: str, tol: float,
              quantity: str, auto: bool) -> list:
    """One outcome (MethodResult or library error) per point of one route."""
    red = plan.red
    cumulative = quantity == "cdf"
    if method == "central_even":
        fn = series.cdf_central_even if cumulative else series.pdf_central_even
        out = fn(red, xs, plan.pfe)
        # the terms cancel when there are many distinct weights: past tol,
        # auto also tries the route the point would take without the formula
        # and keeps whichever result reports the smaller bound
        redo = [i for i, res in enumerate(out) if auto and res.error_bound > tol]
        if redo:
            alt = _generic_method(red, quantity, central_even=False, cls=plan.cls)
            for i, res in zip(redo, _evaluate(plan, xs[redo], alt, tol, quantity, auto)):
                if (isinstance(res, MethodResult) and res.error_bound is not None
                        and res.error_bound < out[i].error_bound):
                    out[i] = MethodResult(
                        res.value, res.error_bound, res.method, res.provenance,
                        dict(res.diagnostics, central_even_bound=out[i].error_bound))
        return out
    if method in ("ruben", "kotz", "laguerre"):
        return _definite_series(plan, xs, method, tol, cumulative)
    if method == "imhof":
        fn = inversion.cdf_imhof if cumulative else inversion.pdf_imhof
        if cumulative and auto:
            fn = inversion.cdf_auto_inversion
        return _each(fn, red, xs, tol=tol, setup=plan.inversion_setup(tol))
    if cumulative:
        if method == "davies":
            return _each(inversion.cdf_davies, red, xs, tol=tol, setup=plan.inversion_setup(tol))
        if method in ("spa_lr", "spa_bn"):
            variant = "lugannani_rice" if method == "spa_lr" else "barndorff_nielsen"
            return _each(_cdf_spa, red, xs, variant, tol, auto, plan)
        if method in approx.FAMILIES:
            return _each(approx.cdf_matched, red, xs, method)
        raise InvalidInputError(f"unknown CDF method {method!r}")
    if method in ("spa", "spa_lr"):
        return _each(approx.pdf_spa, red, xs)
    raise InvalidInputError(f"unknown PDF method {method!r}")


def _cdf_spa(red: ReducedForm, q: float, variant: str, tol: float,
             auto: bool, plan: Plan) -> MethodResult:
    try:
        return approx.cdf_spa(red, q, variant)
    except DomainError:
        if not auto:
            raise
        # extreme points can sit at the support edge where the
        # saddlepoint has no root; evaluate by the route outside the tails
        fallback = select_method(red, "cdf", q, tail_hint="none", plan=plan)
        res = _evaluate(plan, np.array([q]), fallback, tol, "cdf", auto)[0]
        if isinstance(res, Exception):
            raise res
        return res


def _definite_series(plan: Plan, xs: np.ndarray, kind: str, tol: float,
                     cumulative: bool) -> list:
    """Series outcomes at the points xs, mapping negative definite forms to
    negated ones."""
    negative = plan.cls.definiteness == "negative"
    fn = series.cdf_series if cumulative else series.pdf_series
    res = fn(plan.series_form, -xs if negative else xs, kind=kind, tol=tol,
             poles=plan.ruben_poles if kind == "ruben" else None)
    if not negative:
        return res
    return [r if isinstance(r, Exception) else _negated(r, cumulative) for r in res]


def _negated(res: MethodResult, cumulative: bool) -> MethodResult:
    if cumulative:
        # P(Q <= q) = P(-Q >= -q); the negated form is continuous
        value = 1.0 - res.value
        raw = 1.0 - res.diagnostics.get("raw_value", res.value)
        return MethodResult(value, res.error_bound, res.method, res.provenance,
                            dict(res.diagnostics, raw_value=raw, negated=True))
    return MethodResult(res.value, res.error_bound, res.method, res.provenance,
                        dict(res.diagnostics, negated=True))
