"""Approximate CDF/PDF methods: moment matching and saddlepoint.

Moment matching replaces the form by a surrogate whose first few
cumulants agree: a scaled chi-square (Satterthwaite), a shifted scaled
chi-square (Pearson), a standardized chi-square (Hall-Buckley-Eagleson),
a corrected F variable (Wood), or a standardized noncentral chi-square
(Liu).  None carry error control; results are flagged approximate.

The saddlepoint family solves K'(t0) = q and uses the local expansion of
the inversion integral: the density approximation, the Lugannani-Rice
CDF with its mean-point limit, and the Barndorff-Nielsen variant.  Each
takes a scalar point or an array: an array's saddlepoints come from one
K'(t) = q solve and one K(t0), K''(t0) evaluation, then the formula runs
per point.  A scalar call is the one-point case.

Both answer +-inf and the points on or outside the support exactly under
their own method name (``transforms.exact_point``).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import transforms
from .errors import DomainError, InvalidInputError, NotApplicableError, one_or_all
from .forms import (
    CumulantSet,
    MatchedSurrogate,
    MethodResult,
    ReducedForm,
    SaddlepointSolution,
)

FAMILIES = ("satterthwaite", "pearson", "hbe", "wood", "liu")


def match(kappas: CumulantSet, family: str) -> MatchedSurrogate:
    """Fit a surrogate family to the target cumulants.

    Required orders: 2 (satterthwaite), 3 (pearson, hbe, wood),
    4 (liu).  Violated positivity raises NotApplicableError naming the
    offending cumulant.
    """
    if family not in FAMILIES:
        raise NotApplicableError(f"unknown family {family!r}", condition="family")
    need = {"satterthwaite": 2, "pearson": 3, "hbe": 3, "wood": 3, "liu": 4}[family]
    if kappas.order < need:
        raise InvalidInputError(f"{family} needs {need} cumulants, got {kappas.order}")
    k1 = kappas.get(1)
    k2 = kappas.get(2)
    if k2 <= 0.0:
        raise NotApplicableError("matching needs kappa_2 > 0", condition="kappa_2 > 0")

    if family == "satterthwaite":
        if k1 <= 0.0:
            raise NotApplicableError("satterthwaite needs kappa_1 > 0",
                                     condition="kappa_1 > 0")
        return MatchedSurrogate("scaled_chisq",
                                {"a": 0.5 * k2 / k1, "b": 2.0 * k1**2 / k2})

    k3 = kappas.get(3)
    if family == "pearson":
        if k3 == 0.0:
            raise NotApplicableError("pearson needs kappa_3 != 0",
                                     condition="kappa_3 != 0")
        return MatchedSurrogate(
            "shifted_scaled_chisq",
            {"a": k3 / (4.0 * k2), "b": 8.0 * k2**3 / k3**2,
             "c": k1 - 2.0 * k2**2 / k3},
        )
    if family == "hbe":
        if k3 == 0.0:
            raise NotApplicableError("hbe needs kappa_3 != 0", condition="kappa_3 != 0")
        return MatchedSurrogate(
            "standardized_chisq",
            {"b": 8.0 * k2**3 / k3**2, "k1": k1, "k2": k2},
        )
    if family == "wood":
        denom_beta = k1 * k3 - 2.0 * k2**2
        num_beta = 4.0 * k1 * k2**2 + k3 * (k2 - k1**2)
        if denom_beta == 0.0 or num_beta == 0.0:
            raise NotApplicableError("wood parameters degenerate",
                                     condition="kappa_1 kappa_3 != 2 kappa_2^2")
        alpha1 = 2.0 * k1 * (k1 * k3 + k1**2 * k2 - k2**2) / num_beta
        alpha2 = 3.0 + 2.0 * k2 * (k2 + k1**2) / denom_beta
        beta = num_beta / denom_beta
        if alpha1 <= 0.0 or alpha2 <= 0.0 or beta <= 0.0:
            raise NotApplicableError(
                "wood corrected-F parameters must be positive "
                f"(got alpha1={alpha1:.3g}, alpha2={alpha2:.3g}, beta={beta:.3g})",
                condition="wood positivity",
            )
        return MatchedSurrogate("corrected_f",
                                {"alpha1": alpha1, "alpha2": alpha2, "beta": beta})

    # liu: match skewness exactly, minimize the kurtosis discrepancy
    k4 = kappas.get(4)
    s1 = k3 / (2.0 * math.sqrt(2.0) * k2**1.5)
    s2 = k4 / (12.0 * k2**2)
    if s1 <= 0.0:
        raise NotApplicableError("liu needs kappa_3 > 0", condition="kappa_3 > 0")
    if s1**2 > s2:
        a = 1.0 / (s1 - math.sqrt(s1**2 - s2))
        ncp = s1 * a**3 - a**2
        dof = a**2 - 2.0 * ncp
    else:
        a = 1.0 / s1
        ncp = 0.0
        dof = a**2
    if dof <= 0.0 or ncp < 0.0:
        raise NotApplicableError(
            f"liu parameters degenerate (dof={dof:.3g}, ncp={ncp:.3g})",
            condition="liu positivity",
        )
    return MatchedSurrogate("noncentral_chisq",
                            {"a": a, "ncp": ncp, "dof": dof, "k1": k1, "k2": k2})


def surrogate_cumulants(sur: MatchedSurrogate, order: int) -> CumulantSet:
    """Cumulants of a fitted surrogate, from its own closed-form CGF.

    Used to verify that matching is exact at the matched orders.
    """
    p = sur.params
    if sur.family == "scaled_chisq":
        ks = [2.0 ** (j - 1) * math.gamma(j) * p["a"] ** j * p["b"]
              for j in range(1, order + 1)]
        return CumulantSet(np.array(ks))
    if sur.family == "shifted_scaled_chisq":
        ks = [2.0 ** (j - 1) * math.gamma(j) * p["a"] ** j * p["b"]
              for j in range(1, order + 1)]
        ks[0] += p["c"]
        return CumulantSet(np.array(ks))
    if sur.family == "standardized_chisq":
        b = p["b"]
        scale = math.sqrt(p["k2"] / (2.0 * b))
        shift = p["k1"] - b * scale
        ks = [2.0 ** (j - 1) * math.gamma(j) * scale**j * b for j in range(1, order + 1)]
        ks[0] += shift
        return CumulantSet(np.array(ks))
    if sur.family == "noncentral_chisq":
        scale = math.sqrt(p["k2"]) / (math.sqrt(2.0) * p["a"])
        shift = p["k1"] - (p["dof"] + p["ncp"]) * scale
        ks = [
            2.0 ** (j - 1) * math.gamma(j) * scale**j * (p["dof"] + j * p["ncp"])
            for j in range(1, order + 1)
        ]
        ks[0] += shift
        return CumulantSet(np.array(ks))
    if sur.family == "corrected_f":
        a1, a2, beta = p["alpha1"], p["alpha2"], p["beta"]
        if order >= a2:
            raise InvalidInputError(
                f"corrected-F surrogate has only {math.floor(a2)} moments"
            )
        raw = [
            beta**k * math.exp(
                math.lgamma(a1 + k) + math.lgamma(a2 - k)
                - math.lgamma(a1) - math.lgamma(a2)
            )
            for k in range(1, order + 1)
        ]
        # cumulants from raw moments (inverse of the moment recursion)
        ks = []
        m = [1.0] + raw
        for k in range(1, order + 1):
            acc = m[k]
            for l in range(1, k):
                acc -= math.comb(k - 1, l) * m[l] * ks[k - l - 1]
            ks.append(acc)
        return CumulantSet(np.array(ks))
    raise InvalidInputError(f"unknown surrogate family {sur.family!r}")


def surrogate_cdf(sur: MatchedSurrogate, q: float) -> float:
    from scipy import stats  # heavy import, needed only by moment matching

    p = sur.params
    if sur.family == "scaled_chisq":
        return float(stats.chi2.cdf(q / p["a"], p["b"]))
    if sur.family == "shifted_scaled_chisq":
        arg = (q - p["c"]) / p["a"]
        if p["a"] > 0:
            return float(stats.chi2.cdf(arg, p["b"]))
        return float(stats.chi2.sf(arg, p["b"]))
    if sur.family == "standardized_chisq":
        b = p["b"]
        z = b + math.sqrt(2.0 * b) * (q - p["k1"]) / math.sqrt(p["k2"])
        return float(stats.chi2.cdf(z, b))
    if sur.family == "noncentral_chisq":
        z = p["dof"] + p["ncp"] + math.sqrt(2.0) * p["a"] * (q - p["k1"]) / math.sqrt(p["k2"])
        if p["ncp"] > 0.0:
            return float(stats.ncx2.cdf(z, p["dof"], p["ncp"]))
        return float(stats.chi2.cdf(z, p["dof"]))
    if sur.family == "corrected_f":
        return float(stats.f.cdf(p["alpha2"] / (p["alpha1"] * p["beta"]) * q,
                                 2.0 * p["alpha1"], 2.0 * p["alpha2"]))
    raise InvalidInputError(f"unknown surrogate family {sur.family!r}")


def cdf_matched(red: ReducedForm, q, family: str):
    """Moment-matching CDF approximation (no error control; flagged).

    Per the applicability table the target must be positive definite with
    no Gaussian term.  q may be an array: the form is classified, and its
    cumulants taken and matched, once per call, and the result is a list
    with each point's MethodResult.  A NaN point is invalid input; on or
    outside the support the CDF is exactly 0 or 1 (``transforms.exact_point``).
    """
    from .reduction import classify

    cls = classify(red)
    if cls.definiteness != "positive" or cls.has_gaussian:
        raise NotApplicableError(
            "moment matching requires a positive definite form without a "
            "Gaussian term",
            condition="positive definite, sigma=0",
        )
    sur = match(transforms.cumulants(red, 4), family)
    pts, out = transforms.exact_points(red, q, False, family)
    out = [res or MethodResult(surrogate_cdf(sur, x), None, family, "approximate",
                               {"surrogate": sur.family, "params": dict(sur.params)})
           for res, x in zip(out, pts.tolist())]
    return one_or_all(out, np.ndim(q) == 0)


def saddlepoint_solve(red: ReducedForm, q):
    """Solve the saddlepoint equation K'(t0) = q on the MGF strip.

    K' is strictly increasing (K'' > 0), so the safeguarded Newton
    iteration of transforms._cgf_prime_root converges from t = 0; q
    outside the interior of the support has no root and raises DomainError.
    q may be an array: one K'(t) = q solve serves all its points, and the
    result is a list with each point's SaddlepointSolution or DomainError.
    """
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    lo_s, hi_s = transforms.support(red)
    inside = (lo_s < pts) & (pts < hi_s)
    # nan where there is no root; a point outside the support has none
    t0 = transforms._cgf_prime_root(red, np.where(inside, pts, math.nan))
    kval, cgf2 = transforms._cgf(red, t0), transforms._cgf_derivative(red, t0, 2)
    out: list = []
    for x, t, k, k2, ok in zip(pts.tolist(), t0.tolist(), kval.tolist(), cgf2.tolist(),
                               inside.tolist()):
        if not ok:
            out.append(DomainError(f"q={x} outside the open support ({lo_s}, {hi_s})",
                                   interval=(lo_s, hi_s)))
        elif math.isnan(t):
            out.append(DomainError(f"saddlepoint equation has no root for q={x}"))
        else:
            w = math.copysign(math.sqrt(max(2.0 * (t * x - k), 0.0)), t)
            out.append(SaddlepointSolution(t0=t, w=w, v=t * math.sqrt(k2), cgf_value=k,
                                           cgf_second=k2))
    return one_or_all(out, qs.ndim == 0)


def _solutions(red: ReducedForm, q, density: bool, method: str) -> tuple:
    """(``transforms.exact_points``' slots, the scaled form Q/s and s
    (``transforms._scaled``), and (slot, q/s, saddlepoint_solve outcome on
    Q/s) for each point inside the open support, whose slot is None)."""
    pts, out = transforms.exact_points(red, q, density, method)
    inside = [i for i, res in enumerate(out) if res is None]
    scaled, scale = transforms._scaled(red)
    xs = pts[inside] / scale
    sols = saddlepoint_solve(scaled, xs) if inside else []
    return out, scaled, scale, zip(inside, xs.tolist(), sols)


def pdf_spa(red: ReducedForm, q):
    """Saddlepoint density [2 pi K''(t0)]^(-1/2) exp(K(t0) - t0 q).

    q may be an array: one MethodResult or DomainError per point, from one
    saddlepoint_solve call.  On or outside the support the density is
    ``transforms.exact_point``'s.  It is taken on the scaled form
    (``transforms._scaled``): f(q) = f_s(q/s) / s.
    """
    out, _, scale, inside = _solutions(red, q, True, "spa")
    for i, x, sol in inside:
        if isinstance(sol, DomainError):
            out[i] = sol
            continue
        log_f = (sol.cgf_value - sol.t0 * x - 0.5 * math.log(2.0 * math.pi * sol.cgf_second)
                 - math.log(scale))
        out[i] = MethodResult(math.exp(log_f), None, "spa", "approximate",
                              {"t0": sol.t0, "log_pdf": log_f, "cgf_second": sol.cgf_second})
    return one_or_all(out, np.ndim(q) == 0)


def _spa_mean_limit(red: ReducedForm) -> float:
    k2 = transforms.cgf_derivative(red, 0.0, 2)
    k3 = transforms.cgf_derivative(red, 0.0, 3)
    return 0.5 + k3 / (6.0 * math.sqrt(2.0 * math.pi) * k2**1.5)


def cdf_spa(red: ReducedForm, q, variant: str = "lugannani_rice"):
    """Saddlepoint CDF approximation.

    variant="lugannani_rice": Phi(w) + phi(w) (1/w - 1/v), with the
    mean-point limit 1/2 + K'''(0)/(6 sqrt(2 pi) K''(0)^(3/2)) blended in
    linearly for |t0| within [eps, 2 eps] of zero (w = v = 0 makes the
    formula singular there).  variant="barndorff_nielsen":
    Phi(w + log(v/w)/w).

    Diagnostics carry log_ccdf, computed through the Mills ratio so far
    upper tails keep full relative accuracy.  q may be an array: one
    MethodResult or DomainError per point, from one saddlepoint_solve call;
    the switch scale and the mean-point limit are computed once.  On or
    outside the support the CDF is exactly 0 or 1.  It is taken on the
    scaled form (``transforms._scaled``) at q/s.
    """
    if variant not in ("lugannani_rice", "barndorff_nielsen"):
        raise InvalidInputError(f"unknown saddlepoint variant {variant!r}")
    method = "spa_lr" if variant == "lugannani_rice" else "spa_bn"
    out, scaled, _, inside = _solutions(red, q, False, method)
    eps = _switch_scale(scaled)
    limit = None
    for i, _, sol in inside:
        if isinstance(sol, DomainError):
            out[i] = sol
            continue
        if limit is None and abs(sol.t0) < 2.0 * eps:
            limit = _spa_mean_limit(scaled)
        out[i] = _cdf_spa_point(sol, variant, eps, limit)
    return one_or_all(out, np.ndim(q) == 0)


def _cdf_spa_point(sol: SaddlepointSolution, variant: str, eps: float,
                   limit: float | None) -> MethodResult:
    """cdf_spa at one saddlepoint; limit is the mean-point limit wherever
    |t0| < 2 eps."""
    t0, w, v = sol.t0, sol.w, sol.v
    diagnostics = {"t0": t0, "w": w, "v": v}
    method = "spa_lr" if variant == "lugannani_rice" else "spa_bn"

    if abs(t0) < 2.0 * eps:
        if abs(t0) <= eps:
            value = limit
        else:
            lam = (abs(t0) - eps) / eps
            value = (1.0 - lam) * limit + lam * _spa_point(variant, w, v)
        diagnostics["mean_limit"] = limit
        return MethodResult(min(max(value, 0.0), 1.0), None, method, "approximate",
                            dict(diagnostics, raw_value=value))

    value = _spa_point(variant, w, v)
    if variant == "lugannani_rice":
        if w > 0.0:
            # log CCDF via the Mills ratio: 1 - F = phi(w) [M(w) - 1/w + 1/v],
            # M(w) = (1 - Phi(w)) / phi(w) = sqrt(pi/2) erfcx(w / sqrt(2))
            mills = math.sqrt(math.pi / 2.0) * float(special.erfcx(w / math.sqrt(2.0)))
            rest = mills - 1.0 / w + 1.0 / v
            if rest > 0:
                diagnostics["log_ccdf"] = _norm_logpdf(w) + math.log(rest)
    elif v / w > 0:
        diagnostics["log_ccdf"] = float(special.log_ndtr(-(w + math.log(v / w) / w)))
    return MethodResult(min(max(value, 0.0), 1.0), None, method, "approximate",
                        dict(diagnostics, raw_value=value))


# the standard normal density as scipy.stats.norm evaluates it
_NORM_PDF_C = np.sqrt(2 * np.pi)
_NORM_PDF_LOGC = np.log(_NORM_PDF_C)


def _norm_logpdf(x: float) -> float:
    return -x**2 / 2.0 - _NORM_PDF_LOGC


def _spa_point(variant: str, w: float, v: float) -> float:
    if variant == "lugannani_rice":
        return float(special.ndtr(w) + np.exp(-w**2 / 2.0) / _NORM_PDF_C * (1.0 / w - 1.0 / v))
    return float(special.ndtr(w + math.log(v / w) / w))


def _switch_scale(red: ReducedForm) -> float:
    """1e-4 min(|t_L|, t_R, 1/sd): |t0| below it is near the mean, by the
    MGF strip and by the spread alike (a Gaussian term beside tiny weights
    has a wide strip but a t0 of order (q - mean)/sd^2)."""
    dom = transforms.mgf_domain(red)
    sd = math.sqrt(max(transforms.cgf_derivative(red, 0.0, 2), 1e-300))
    return 1e-4 * min(-dom.t_left, dom.t_right, 1.0 / sd)
