"""Exact and convergent-series CDF/PDF evaluation.

Two families:

* central forms with even degrees of freedom: the MGF is rational, a
  finite partial-fraction expansion gives closed-form CDF/PDF as mixtures
  of scaled chi-square distributions with even dofs;
* definite forms: infinite expansions in chi-square densities (Ruben),
  powers (Kotz) or Laguerre polynomials, driven by a shared
  exp-of-log-series coefficient recursion, with adaptive truncation.  A
  negative definite form is evaluated as its negation at -q.

Ruben's expansion at its default beta = min(lam) is a mixture: every c_k
is >= 0 and they sum to 1, so the mass the first K + 1 terms leave bounds
the remainder at every point (``_ruben_remainder``), and every Ruben
result is rigorous.  Kotz and Laguerre stop on a run of tiny terms and
are heuristic.

Like the inversion engines, the series take a ReducedForm and a
``select.Plan`` of it (one of their own when none is given).  The
expansions' power sums run over the groups with their counts nu; only
the sums over the form's chi2_1 variables (``_variables``) read one
weight per degree of freedom.  The plan's coefficient sets grow in place
as the truncation doubles, and a doubling evaluates only the new terms of
the expansion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import transforms
from .errors import ConvergenceFailureError, NotApplicableError, one_or_all
from .forms import (
    MethodResult,
    PartialFractionExpansion,
    ReducedForm,
    SeriesCoefficients,
)
from .inversion import _own_plan

K_MAX = 5000
INDEX_MAX = 800             # auto's Ruben index that needs no cost comparison
HEURISTIC_RUN = 20          # consecutive tiny terms before the heuristic stop fires
KOTZ_MAX_Q_FACTOR = 10.0    # power series rejected beyond this multiple of the mean


def _require_central_even(red: ReducedForm, op: str) -> None:
    if red.sigma_gauss != 0.0:
        raise NotApplicableError(f"{op} requires sigma = 0", condition="sigma=0")
    if np.any(red.delta2 != 0.0):
        raise NotApplicableError(f"{op} requires a central form", condition="central")
    if np.any(red.nu % 2 != 0):
        raise NotApplicableError(
            f"{op} requires even degrees of freedom", condition="even degrees"
        )
    if red.n_groups == 0:
        raise NotApplicableError(f"{op} requires a chi-square part", condition="nonempty form")


def _exp_series(log_coeffs: np.ndarray, c0: float, head=None) -> np.ndarray:
    """Taylor coefficients of c0 * exp(sum_{n>=1} g_n s^n) up to len(g).

    Standard recursion n c_n = sum_{r=1}^{n} r g_r c_{n-r}, one dot
    product per coefficient.  The recursion continues after head, the
    leading c_n of the same g_n, as it would from scratch, bit for bit.
    """
    n = log_coeffs.shape[0]
    rg = np.arange(1, n + 1) * log_coeffs
    c = np.zeros(n + 1)
    start = 1 if head is None else head.size
    c[:start] = c0 if head is None else head
    for k in range(start, n + 1):
        c[k] = rg[:k] @ c[k - 1::-1] / k
    return c


def partial_fractions(red: ReducedForm) -> PartialFractionExpansion:
    """Expand M(t) = prod (1-2 w_l t)^(-m_l) as sum A_lk (1-2 w_l t)^(-k).

    m_l = nu_l / 2 must be integers (even dofs).  For pole l the
    coefficients follow from the Taylor expansion, in s = 1 - 2 w_l t,
    of G_l(s) = prod_{j != l} (alpha_j + r_j s)^(-m_j) with
    r_j = w_j / w_l and alpha_j = 1 - r_j:  A_{l,k} = G_l^{(m_l - k)}(0)/(m_l-k)!.
    """
    _require_central_even(red, "partial fractions")
    omega = red.omega
    m = red.nu // 2
    # all poles at once: row l holds r_j, alpha_j and m_j over the j != l
    size = omega.size
    off = ~np.eye(size, dtype=bool)
    r = (omega[None, :] / omega[:, None])[off].reshape(size, size - 1)
    alpha = 1.0 - r
    if np.any(alpha == 0.0):
        raise NotApplicableError(
            "repeated weights must be grouped before partial fractions",
            condition="distinct weights",
        )
    mj = np.broadcast_to(m.astype(float), (size, size))[off].reshape(size, size - 1)
    ratio = r / alpha
    # log G_l(s) = sum_j -m_j [log alpha_j + log(1 + (r_j/alpha_j) s)]
    log_c0 = -np.sum(mj * np.log(np.abs(alpha)), axis=1)
    odd = np.sum(np.where(alpha < 0, mj, 0.0), axis=1) % 2 == 1
    g = np.zeros((size, int(m.max()) - 1))
    for n in range(1, g.shape[1] + 1):
        g[:, n - 1] = -np.sum(mj * (-1.0) ** (n + 1) * ratio**n / n, axis=1)
    terms = []
    for l, (w_l, m_l) in enumerate(zip(omega, m)):
        order = int(m_l)
        c0 = -math.exp(log_c0[l]) if odd[l] else math.exp(log_c0[l])
        coeffs_full = _exp_series(g[l, :order - 1], c0)
        for k in range(1, order + 1):
            terms.append((float(w_l), int(k), float(coeffs_full[order - k])))
    return PartialFractionExpansion(tuple(terms))


# scipy.stats.chi2 by the formulas it uses internally, with its support
# masks: chdtr, chdtrc and xlogy give nan below 0, where stats gives cdf 0,
# sf 1 and pdf 0
def _chi2_cdf(dof, y):
    return np.where(y > 0.0, special.chdtr(dof, y), 0.0)


def _chi2_sf(dof, y):
    return np.where(y > 0.0, special.chdtrc(dof, y), 1.0)


def _chi2_pdf(dof, y, with_error: bool = False):
    """The chi-square density; with_error, also a bound on its relative
    error where y > 0: it exponentiates a sum of logs, each a few ulp off,
    so 4 eps times the sum of their sizes."""
    # exponentiated only where y >= 0: exp(-y/2) overflows far below it
    inside = y >= 0.0
    y = np.where(inside, y, 0.0)
    logs = (special.xlogy(dof / 2. - 1, y), y / 2., special.gammaln(dof / 2.),
            (np.log(2) * dof) / 2.)
    f = np.where(inside, np.exp(logs[0] - logs[1] - logs[2] - logs[3]), 0.0)
    if not with_error:
        return f
    sizes = np.abs(logs[0]) + logs[1] + np.abs(logs[2]) + logs[3]
    return f, 4.0 * np.finfo(float).eps * sizes


def _central_even(red: ReducedForm, q, pfe: PartialFractionExpansion | None,
                  density: bool):
    """Partial-fraction CDF/PDF at a scalar q or elementwise over an array.

    The (points x terms) matrix of A_lk F_lk(x) is summed along the term axis
    in term order.  The terms cancel when there are many distinct weights;
    the error bound n_terms * eps * (sum |A_lk F_lk| - |sum A_lk F_lk|) is
    the rounding error that cancellation adds to the value's own relative
    rounding (a few ulp, unreported as for every exact result).
    """
    pfe = pfe if pfe is not None else partial_fractions(red)
    w, k, a = (np.array(v) for v in zip(*pfe.terms))
    pts, out = transforms.exact_points(red, q, density, "central_even")
    inside = [i for i, res in enumerate(out) if res is None]
    y = (pts[inside] - red.const)[:, None] / w
    if density:
        terms = a / np.abs(w) * _chi2_pdf(2 * k, y)
    else:
        terms = a * np.where(w > 0, _chi2_cdf(2 * k, y), _chi2_sf(2 * k, y))
    raw = np.cumsum(terms, axis=1)[:, -1]
    bound = w.size * np.finfo(float).eps * (np.abs(terms).sum(axis=1) - np.abs(raw))
    hi = math.inf if density else 1.0
    for i, v, b in zip(inside, raw.tolist(), bound.tolist()):
        out[i] = MethodResult(min(max(v, 0.0), hi), max(b, 0.0), "central_even", "exact",
                              {"raw_value": v, "floating_point_caveat": True, "n_terms": w.size})
    return one_or_all(out, np.ndim(q) == 0)


def cdf_central_even(red: ReducedForm, q, pfe: PartialFractionExpansion | None = None):
    """Closed-form CDF of a central even-dof form, exact up to floating point.

    q may be an array: one MethodResult per point, sharing the expansion.
    A NaN point is invalid input; on or outside the support the CDF is
    exactly 0 or 1 (``transforms.exact_point``).
    """
    return _central_even(red, q, pfe, density=False)


def pdf_central_even(red: ReducedForm, q, pfe: PartialFractionExpansion | None = None):
    """Closed-form PDF of a central even-dof form (q scalar or array)."""
    return _central_even(red, q, pfe, density=True)


def _require_positive_definite(red: ReducedForm, op: str) -> None:
    if red.sigma_gauss != 0.0:
        raise NotApplicableError(f"{op} requires sigma = 0", condition="sigma=0")
    if red.n_groups == 0 or np.any(red.omega <= 0.0):
        raise NotApplicableError(
            f"{op} requires a positive definite form", condition="all weights positive"
        )


def _variables(red: ReducedForm):
    """One weight and one noncentrality per degree of freedom, a group's
    delta2 on its first: the sums over the form's chi2_1 variables below add
    them in this order."""
    lam = np.repeat(red.omega, red.nu)
    h2 = np.zeros(lam.size)
    h2[np.cumsum(red.nu) - red.nu] = red.delta2
    return lam, h2


def default_beta(red: ReducedForm, kind: str) -> float | None:
    """Free scale parameter: the smallest weight for the chi-square
    expansion, which makes it a mixture, the mean of the extreme weights for
    Laguerre, none for Kotz."""
    lmax, lmin = float(red.omega.max()), float(red.omega.min())
    if kind == "ruben":
        return lmin
    if kind == "laguerre":
        return 0.5 * (lmax + lmin)
    return None


def _powers(base: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """(hi - lo) x base.size table of base_i^k, k = lo..hi-1: a row is one
    pow anchor base^k0 at the block start k0 (a multiple of 64) times the
    cumulative product base^(k - k0), so it depends on k alone and has a
    relative error of about 64 eps (outside the subnormal range)."""
    steps = np.cumprod(np.vstack([np.ones(base.size), np.broadcast_to(base, (63, base.size))]),
                       axis=0)
    first = lo - lo % 64
    table = base ** np.arange(first, hi, 64)[:, None, None] * steps
    return table.reshape(table.shape[0] * 64, base.size)[lo - first:hi - first]


def series_coefficients(red: ReducedForm, kind: str, beta: float | None = None,
                        k_terms: int = 64, prefix: SeriesCoefficients | None = None
                        ) -> SeriesCoefficients:
    """First k_terms+1 expansion coefficients for one of the three series.

    All share the pipeline: expand log B(theta) = d0 + sum g_k theta^k for
    the appropriate change of variables theta(s), then exponentiate the
    series by the Cauchy-product recursion.  prefix, a shorter set of the
    same form, kind and beta, is grown: only the new power sums (``_powers``)
    and coefficients are computed, and its terms are kept bit for bit.
    """
    _require_positive_definite(red, f"{kind} series")
    lam, h2 = _variables(red)
    # the log-coefficients are power sums over the weights: sum them over the
    # groups, ascending, with their counts, and the noncentral terms over the
    # groups that carry a noncentrality
    up = np.argsort(red.omega, kind="stable")
    lam_u, counts = red.omega[up], red.nu[up]
    noncentral = red.delta2 != 0.0
    lam_h, h2_h = red.omega[noncentral], red.delta2[noncentral]
    k_from = 0 if prefix is None else prefix.d.size
    ks = np.arange(k_from + 1, k_terms + 1)

    def psum(base, weight, shift=0):
        """sum_i weight_i base_i^(k - shift) for the new k."""
        return _powers(base, k_from + 1 - shift, k_terms + 1 - shift) @ weight.astype(float)

    if kind == "ruben":
        beta = default_beta(red, kind) if beta is None else float(beta)
        if not 0.0 < beta < 2.0 * lam.min():
            raise NotApplicableError(
                "chi-square expansion needs 0 < beta < 2 min(lam)", condition="beta range"
            )
        c0 = math.exp(-0.5 * float(h2.sum())
                      + 0.5 * float((math.log(beta) - np.log(lam)).sum()))
        if c0 < np.finfo(float).tiny:
            raise NotApplicableError(
                "chi-square expansion's leading coefficient underflows", condition="normal c0")
        d = psum(1.0 - beta / lam_u, counts) + ks * beta * psum(
            1.0 - beta / lam_h, h2_h / lam_h, shift=1)
    elif kind == "kotz":
        beta = None
        d = 0.5 * (psum(1.0 / (2.0 * lam_u), counts) - ks * psum(1.0 / (2.0 * lam_h), h2_h))
        c0 = math.exp(-0.5 * float(h2.sum()) - 0.5 * float(np.log(2.0 * lam).sum()))
    elif kind == "laguerre":
        beta = default_beta(red, kind) if beta is None else float(beta)
        if beta <= lam.max() / 2.0:
            raise NotApplicableError(
                "Laguerre series needs beta > max(lam)/2", condition="beta range"
            )
        d = 0.5 * (psum(1.0 - lam_u / beta, counts)
                   - ks / beta * psum(1.0 - lam_h / beta, lam_h * h2_h, shift=1))
        c0 = 1.0
    else:
        raise NotApplicableError(f"unknown series kind {kind!r}", condition="kind")
    if prefix is not None:
        d = np.concatenate([prefix.d, d])
    per_k = np.arange(1, k_terms + 1) * (2.0 if kind == "ruben" else 1.0)
    c = _exp_series(d / per_k, c0, None if prefix is None else prefix.c)
    return SeriesCoefficients(kind=kind, beta=beta, c=c, d=d, n_vars=lam.size)


def _series_terms(coeffs: SeriesCoefficients, x: np.ndarray, cumulative: bool,
                  start: int = 0) -> tuple:
    """(points x terms) contributions k = start..K of the truncated expansion
    at shifted points x > 0 (log-gamma arithmetic throughout), a column
    depending on its k alone, and per point a bound on the rounding error
    of their sum's terms: the Ruben density's (``_chi2_pdf``), else 0."""
    kind, beta, c = coeffs.kind, coeffs.beta, coeffs.c[start:]
    n = coeffs.n_vars
    kk = np.arange(start, coeffs.c.shape[0])
    x = x[:, None]
    if kind == "ruben":
        y = x / beta
        if cumulative:
            return c * _chi2_cdf(n + 2 * kk, y), 0.0
        f, error = _chi2_pdf(n + 2 * kk, y, with_error=True)
        terms = c * (f / beta)
        return terms, (error * terms).sum(axis=1)
    if kind == "kotz":
        expo = (n / 2.0 + kk) if cumulative else (n / 2.0 + kk - 1.0)
        lg = special.gammaln(n / 2.0 + kk + (1.0 if cumulative else 0.0))
        return (-1.0) ** kk * c * np.exp(expo * np.log(x) - lg), 0.0
    # laguerre
    y = x / (2.0 * beta)
    if cumulative:
        # integrating the density term by parts gives
        # d/dy [y^{a} e^{-y} L_{k-1}^{(a)}(y)] = k y^{a-1} e^{-y} L_k^{(a-1)}(y)
        # with a = N/2, so the k-th CDF term carries L_{k-1}^{(N/2)}; the
        # 0-th is the chi-square CDF
        k = np.maximum(kk, 1)
        lg = special.gammaln(k) - special.gammaln(n / 2.0 + k)
        lpow = (n / 2.0) * np.log(y) - y
        out = c * np.exp(lg + lpow) * special.eval_genlaguerre(k - 1, n / 2.0, y)
        if start == 0:
            out[:, 0] = c[0] * _chi2_cdf(n, x[:, 0] / beta)
        return out, 0.0
    lg = special.gammaln(kk + 1.0) - special.gammaln(n / 2.0 + kk)
    lpow = (n / 2.0 - 1.0) * np.log(y) - y
    lag = special.eval_genlaguerre(kk, n / 2.0 - 1.0, y)
    return c * np.exp(lg + lpow) * lag / (2.0 * beta), 0.0


def _ruben_remainder(coeffs: SeriesCoefficients, x: np.ndarray, partial: np.ndarray,
                     slack: np.ndarray, cumulative: bool) -> np.ndarray:
    """Bound on the chi-square expansion's error after its K + 1 terms at
    the shifted points x, whose partial sums are partial; slack bounds the
    error of the density's terms (``_series_terms``), and is 0 for the CDF.

    At beta = min(lam) the expansion is a mixture: Q - const is
    beta chi2_{n+2J} with P(J = k) = c_k >= 0.  The remainder is then at
    most the leftover mass 1 - sum_{k<=K} c_k times the largest later term:
    F_{n+2K+2}(x/beta) for the CDF, as F_m(y) falls with m, and
    f_{m*}(y)/beta for the density, m* the first of n+2K+2, n+2K+4, ...
    at least y, as f_{m+2}(y)/f_m(y) = y/m.  The mass and the partial sums
    add nonnegative terms, and (nonzero terms - 1) eps of each sum is added
    for its rounding and the c_k's: a first-order worst case of the
    recursion grows as K^2 eps/2, but its errors grow linearly, and the
    tests check this allowance against the exact coefficients up to K_MAX.
    The slack is added too.  When every weight equals beta, c0 = 1 is the
    only term, the chi-square value itself, and the bound is 0.
    """
    n, beta, c = coeffs.n_vars, coeffs.beta, coeffs.c
    m = n + 2 * c.size
    y = x / beta
    rounding = (np.count_nonzero(c) - 1) * np.finfo(float).eps
    mass = float(c.sum())
    leftover = max(1.0 - mass + rounding * mass, 0.0)
    if cumulative:
        later = _chi2_cdf(m, y)
    else:
        later = _chi2_pdf(np.maximum(m, m + 2.0 * np.ceil((y - m) / 2.0)), y) / beta
    return leftover * later + (rounding * partial + slack if rounding else 0.0)


def _evaluate_series(red: ReducedForm, q, kind: str, tol: float, cumulative: bool, plan):
    """Series CDF/PDF at a scalar q, or at every point of an array.

    The points share the plan's coefficient sets (a plan of this call only
    when none is given).  A negative definite form is evaluated as its
    negation, ``plan.series_form``, at -q: its CDF is 1 - F(-q) and its
    density f(-q).  Each point keeps the truncation K that its own
    64 -> 130 -> ... doubling picks: a point leaves the batch once it
    converges, a Ruben point once its remainder bound is at most tol, a
    Kotz or Laguerre point once its last HEURISTIC_RUN terms are all below
    tol/100 (its heuristic bound is the largest of them).  Only the points
    inside the open support are summed; the others have their exact answer
    (``transforms.exact_point``).  A scalar q raises a point's failure; an
    array returns it in that point's slot.  A form that is not definite or
    has a Gaussian term or no groups raises NotApplicableError for the whole
    call (NaN aside).
    """
    plan = _own_plan(red, plan)
    negative = plan.cls.definiteness == "negative"
    pos = plan.series_form
    name = f"{kind}_{'cdf' if cumulative else 'pdf'}"
    pts, out = transforms.exact_points(red, q, not cumulative, name, plan.support)
    _require_positive_definite(pos, f"{kind} series")
    xs = (-pts if negative else pts) - pos.const
    active = np.array([i for i, res in enumerate(out) if res is None], dtype=int)
    if kind == "kotz" and active.size:
        lam, h2 = _variables(pos)
        k1 = float(np.sum(lam * (1.0 + h2)))
        far = xs[active] > KOTZ_MAX_Q_FACTOR * max(k1, 0.0)
        for i in active[far]:
            out[i] = NotApplicableError(
                "power series is ill-conditioned far beyond the mean "
                f"(q - const = {xs[i]:.3g} > {KOTZ_MAX_Q_FACTOR} * mean)",
                condition="q range",
            )
        active = active[~far]
    k_used, k_terms, partial = -1, 64, np.zeros((active.size, 0))
    slack = np.zeros(active.size)
    while active.size and k_used < K_MAX:
        coeffs = plan.coefficients(kind, k_terms)
        x = xs[active]
        # only the new terms; the running sum continues, so each partial sum
        # equals the sum of all K + 1 terms in order, bit for bit
        terms, rounding = _series_terms(coeffs, x, cumulative, k_used + 1)
        partial = np.cumsum(np.hstack([partial, terms]), axis=1)[:, -1:]
        slack = slack + rounding
        k_used = coeffs.c.shape[0] - 1
        if kind == "ruben":
            bound = _ruben_remainder(coeffs, x, partial[:, 0], slack, cumulative)
            provenance, done = "rigorous", bound <= tol
        else:
            last = np.abs(terms[:, -HEURISTIC_RUN:])
            bound = np.max(last, axis=1)
            provenance, done = "heuristic", np.all(last < tol / 100.0, axis=1)
        for j in np.flatnonzero(done | (k_used >= K_MAX)):
            raw = float(partial[j, 0])
            diagnostics = {"raw_value": raw, "k_truncation": k_used, "beta": coeffs.beta}
            if done[j]:
                value = min(max(raw, 0.0), 1.0) if cumulative else max(raw, 0.0)
                res = MethodResult(value, float(bound[j]), name, provenance, diagnostics)
                out[active[j]] = _mirrored(res, cumulative) if negative else res
            else:
                out[active[j]] = ConvergenceFailureError(
                    f"{name} did not reach tol={tol} within {K_MAX} terms",
                    result=MethodResult(raw, float(bound[j]), name, provenance, diagnostics))
        active, partial, slack = active[~done], partial[~done], slack[~done]
        k_terms = min(2 * (k_used + 1), K_MAX)
    return one_or_all(out, np.ndim(q) == 0)


def _mirrored(res: MethodResult, cumulative: bool) -> MethodResult:
    """A result of the negated form at -q as one of the form at q."""
    diagnostics = dict(res.diagnostics, negated=True)
    if not cumulative:
        return MethodResult(res.value, res.error_bound, res.method, res.provenance,
                            diagnostics)
    # P(Q <= q) = P(-Q >= -q); the negated form is continuous
    diagnostics["raw_value"] = 1.0 - res.diagnostics["raw_value"]
    return MethodResult(1.0 - res.value, res.error_bound, res.method, res.provenance,
                        diagnostics)


def cdf_series(red: ReducedForm, q, kind: str = "ruben", tol: float = 1e-10, plan=None):
    """Truncated-series CDF of a definite form at q.

    q may be an array: one entry per point, a MethodResult or the error
    (ConvergenceFailureError, NotApplicableError) that point alone raised.
    plan is a ``select.Plan`` of red, to reuse its coefficient sets;
    results do not depend on it.  A negative definite
    form's results carry diagnostics["negated"], but for the points on or
    outside the support, which have their exact answer at q itself
    (``transforms.exact_point``).  A NaN point is invalid input.
    """
    return _evaluate_series(red, q, kind, tol, True, plan)


def pdf_series(red: ReducedForm, q, kind: str = "ruben", tol: float = 1e-10, plan=None):
    """Truncated-series PDF of a definite form at q (scalar or array, plan
    as for cdf_series)."""
    return _evaluate_series(red, q, kind, tol, False, plan)
