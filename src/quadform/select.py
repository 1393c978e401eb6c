"""Automatic method selection and name-based dispatch for CDF/PDF queries.

Auto, like every engine, first answers +-inf and the points on or
outside the support exactly (``transforms.exact_point``), here tagged
"support".  One policy routes every other point: far tails (Chernoff
estimate below 1e-8; a density has none on a side with a finite support
end) go to the saddlepoint, which keeps the exact exponential decay rate;
central even-dof forms use the partial-fraction formula, definite forms
the chi-square-density expansion where it is expected to certify the point
at the least cost (``_ruben_admits``), and all others Imhof, which is also
the route of every form with a Gaussian term (the series have none).
Imhof answers a pure normal (no groups) in closed form.

The auto ladder (``_walk``) is one rule: a point whose route is not Imhof
and whose outcome misses (a library error, also one the route raises for
the whole call, or an error bound not at most tol; NaN misses) runs again
on Imhof, which applies to every form and has a computable bound, and
Imhof's outcome replaces the miss.  Its result records the bound it
replaced as ``<route>_bound`` (inf for an error without one); a double
miss is Imhof's failure.  A result without a bound (the saddlepoint's)
is kept.

The tails come from two points per form, where the left and the right
Chernoff log-tails cross log(1e-8) (``transforms.chernoff_crossing``): a
point is in a tail iff it lies beyond a crossing.  Only a point within
the crossing margin has its own Chernoff bound computed.

A ``Plan`` is the one per-form set-up: it holds what the points of a form
share, each part built on first use (see its docstring).  ``cdf`` and
``pdf`` take a scalar point or an array of points and build one plan per
call; a caller that evaluates one form many times (the quantile search)
passes its own.  An array is routed once and evaluated per route: the
expansion and the series coefficients are shared by all points; every
engine reads the plan's form, and the series negate a negative definite
one themselves (``Plan.series_form``).  The saddlepoint routes solve
K'(t) = q once for all their points.  Imhof points are the rows of one
trapezoid pass (``inversion.cdf_imhof``), and share through the plan the
rungs of its U ladder (the tail's x-free part and the integrand's modulus
and phase at the rung's nodes).
Each point gets the route, method, provenance, bound and diagnostics that
a call with that point alone gives.  A NaN point is invalid input.
"""

from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
from scipy import special

from . import approx, inversion, series, transforms
from .errors import InvalidInputError, QuadFormError
from .forms import FormClass, MethodResult, ReducedForm
from .reduction import classify

TAIL_THRESHOLD = 1e-8
_LOG_TAIL = math.log(TAIL_THRESHOLD)

CDF_METHODS = ("auto", "central_even", "ruben", "kotz", "laguerre", "imhof",
               "davies", "spa_lr", "spa_bn", "satterthwaite", "pearson", "hbe",
               "wood", "liu")
PDF_METHODS = ("auto", "central_even", "ruben", "kotz", "laguerre", "imhof", "spa", "spa_lr")


class Plan:
    """The set-up of one form that its CDF/PDF evaluations share, each part
    built on first use:

    * routing: the classification, the support and the two crossings;
    * the partial fractions, the series form (the form, negated when it is
      negative definite) and its coefficient sets, one per series kind at
      its default beta, grown in place as the truncation K doubles;
    * Imhof's tail constants and its rungs U = 2^j (``inversion._Rung``),
      by j alone: a rung holds no tol, so every tol shares it.

    Results do not depend on whether a plan is reused."""

    def __init__(self, red: ReducedForm):
        self.red = red
        self._coefficients: dict = {}
        self._rungs: dict = {}

    @functools.cached_property
    def cls(self) -> FormClass:
        return classify(self.red)

    @functools.cached_property
    def support(self) -> tuple:
        return transforms.support(self.red)

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
    def series_form(self) -> ReducedForm:
        """The form the series expand: the negated form when the form is
        negative definite, else the form."""
        red = self.red
        if self.cls.definiteness != "negative":
            return red
        return ReducedForm(-red.omega, red.nu, red.delta2, red.sigma_gauss, -red.const)

    def coefficients(self, kind: str, k_terms: int):
        """The first k_terms + 1 coefficients of the series form's set of
        ``kind``, which ``series.series_coefficients`` grows in place: each
        is computed once, and a shorter request is a slice."""
        held = self._coefficients.get(kind)
        if held is None or held.d.size < k_terms:
            held = self._coefficients[kind] = series.series_coefficients(
                self.series_form, kind, None, k_terms, held)
        return held if held.d.size == k_terms else dataclasses.replace(
            held, c=held.c[:k_terms + 1], d=held.d[:k_terms])

    @functools.cached_property
    def tail_form(self):
        """Imhof's U- and x-free tail constants (``inversion._tail_form``)."""
        return inversion._tail_form(self.red)

    def rung(self, j: int):
        """Imhof's rung U = 2^j."""
        if j not in self._rungs:
            self._rungs[j] = inversion._Rung(self.red, math.ldexp(1.0, j), self.tail_form)
        return self._rungs[j]


def _generic_method(red: ReducedForm, cls: FormClass | None = None) -> str:
    """The route of a point outside the far tails; cls is classify(red) when
    known."""
    cls = classify(red) if cls is None else cls
    if cls.has_gaussian:   # the series have no Gaussian term
        return "imhof"
    if cls.centrality == "central" and cls.even_degrees:
        return "central_even"
    if cls.definiteness in ("positive", "negative"):
        return "ruben"
    return "imhof"


def select_method(red: ReducedForm, quantity: str = "cdf", q=0.0,
                  plan: Plan | None = None, tol: float = 1e-8):
    """Pick a method identifier for the given form and evaluation point.

    q may be an array; the result is then a list with one identifier per
    point.  A point is in the far tails iff it lies beyond one of the form's
    two Chernoff crossings, and a definite form's point goes to Ruben only
    where ``_ruben_admits`` holds at tol (see the module docstring).  plan
    is a Plan of red to reuse.
    """
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    plan = plan if plan is not None else Plan(red)
    tail = _in_tail(plan, pts, quantity) if red.n_groups > 0 else np.zeros(pts.shape, bool)
    spa = "spa_lr" if quantity == "cdf" else "spa"
    generic = _generic_method(red, cls=plan.cls) if not tail.all() else spa
    routes = np.full(pts.shape, generic, dtype=object)
    if generic == "ruben":
        inner = ~tail
        routes[np.flatnonzero(inner)[~_ruben_admits(plan, pts[inner], tol, quantity)]] = "imhof"
    methods = [spa if t else r for t, r in zip(tail, routes)]
    return methods[0] if qs.ndim == 0 else methods


def _ruben_admits(plan: Plan, pts: np.ndarray, tol: float, quantity: str) -> np.ndarray:
    """Whether a definite form's points go to Ruben, which should certify
    them at the lower cost: the K at which its CDF remainder's chi-square
    factor F_{n+2K+2}(x/beta) falls to tol (for a density too, as an
    estimate) is at most series.K_MAX, and the
    mean mixture index min(k_x, m) is at most series.INDEX_MAX or below the
    panels Imhof would start on (computed past INDEX_MAX only).  At
    beta = min(w), Q - const = beta chi2_{n+2J}: the terms peak near
    k_x = (x/beta - n)/2, and m = (E[Q - const]/beta - n)/2 is the mean of J."""
    pos = plan.series_form
    beta, n = float(pos.omega.min()), pos.total_dof
    with np.errstate(over="ignore"):   # an inf index is past every limit
        y = ((-pts if plan.cls.definiteness == "negative" else pts) - pos.const) / beta
        mean = float(pos.omega @ (pos.nu + pos.delta2)) / beta
    index = (np.minimum(y, mean) - n) / 2.0
    # F_m is 0 on or below the support; need is NaN where y is inf
    need = (special.chdtriv(min(tol, 0.5), np.maximum(y, np.finfo(float).tiny)) - n) / 2.0 - 1.0
    admitted = (need <= series.K_MAX) & (index <= series.INDEX_MAX)
    for i in np.flatnonzero((need <= series.K_MAX) & ~admitted):
        x = float(pts[i]) - plan.red.const
        admitted[i] = index[i] < inversion._imhof_start(plan, tol, x, quantity == "pdf")[2]
    return admitted


def _in_tail(plan: Plan, pts: np.ndarray, quantity: str) -> np.ndarray:
    """Whether a Chernoff tail bound at each point is below TAIL_THRESHOLD:
    the point lies beyond a crossing, or, within the crossing's margin, its
    own log-tail says so.  A density has no tail on a side with a finite
    support end, where the saddlepoint density is off and the series
    answer."""
    tail = np.zeros(pts.shape, dtype=bool)
    for side, (x, margin), end in zip(("left", "right"), plan.crossings, plan.support):
        if quantity == "pdf" and math.isfinite(end):
            continue
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
    qs = np.asarray(q, dtype=float)
    plan = plan if plan is not None else Plan(red)
    auto = method == "auto"
    if auto:
        pts, out = transforms.exact_points(red, qs, quantity == "pdf", "support", plan.support)
    else:   # the engine answers these points itself
        pts = transforms.points(qs)
        out = [None] * pts.size
    todo = np.array([i for i, res in enumerate(out) if res is None], dtype=int)
    methods = select_method(red, quantity, pts[todo], plan, tol) if auto and todo.size else \
        [method] * todo.size
    evaluate = _walk if auto else _evaluate
    for name in dict.fromkeys(methods):
        idx = todo[[m == name for m in methods]]
        for i, res in zip(idx, evaluate(plan, pts[idx], name, tol, quantity)):
            out[i] = res
    for res in out:
        if isinstance(res, Exception):
            raise res
    return out[0] if qs.ndim == 0 else out


def _walk(plan: Plan, xs: np.ndarray, method: str, tol: float, quantity: str) -> list:
    """The auto ladder (see the module docstring) from the route ``method``:
    one outcome per point."""
    try:
        out = _evaluate(plan, xs, method, tol, quantity)
    except QuadFormError as exc:   # the route's error is every point's outcome
        out = [exc] * xs.size
    redo = [i for i, res in enumerate(out) if method != "imhof" and (isinstance(
        res, QuadFormError) or res.error_bound is not None and not res.error_bound <= tol)]
    if redo:
        for i, res in zip(redo, _evaluate(plan, xs[redo], "imhof", tol, quantity)):
            if isinstance(res, MethodResult):
                bound = getattr(getattr(out[i], "result", out[i]), "error_bound", None)
                res = MethodResult(res.value, res.error_bound, res.method, res.provenance, dict(
                    res.diagnostics, **{f"{method}_bound": math.inf if bound is None else bound}))
            out[i] = res
    return out


def _evaluate(plan: Plan, xs: np.ndarray, method: str, tol: float, quantity: str) -> list:
    """One outcome (MethodResult or library error) per point of one route."""
    red = plan.red
    cumulative = quantity == "cdf"
    if method == "central_even":
        fn = series.cdf_central_even if cumulative else series.pdf_central_even
        return fn(red, xs, plan.pfe)
    if method in ("ruben", "kotz", "laguerre"):
        fn = series.cdf_series if cumulative else series.pdf_series
        return fn(red, xs, method, tol, plan)
    if method == "imhof":
        fn = inversion.cdf_imhof if cumulative else inversion.pdf_imhof
        return fn(red, xs, tol=tol, plan=plan)
    if cumulative:
        if method == "davies":
            return inversion.cdf_davies(red, xs, tol=tol)
        if method in ("spa_lr", "spa_bn"):
            variant = "lugannani_rice" if method == "spa_lr" else "barndorff_nielsen"
            return approx.cdf_spa(red, xs, variant)
        if method in approx.FAMILIES:
            return approx.cdf_matched(red, xs, method)
        raise InvalidInputError(f"unknown CDF method {method!r}")
    if method in ("spa", "spa_lr"):
        return approx.pdf_spa(red, xs)
    raise InvalidInputError(f"unknown PDF method {method!r}")
