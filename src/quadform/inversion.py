"""Numerical characteristic-function inversion for CDF/PDF evaluation.

Two engines built on the one-sided real inversion formula
F(q) = 1/2 - (1/pi) int_0^inf Im{phi(u) e^{-iuq}} / u du:

* Imhof: modulus-phase integrand sin(theta(u)) / (u rho(u)) on a
  trapezoid grid over [0, U], with the closed-form tail bound used to
  pick U and Richardson panel doubling to control quadrature error.
  Requires sigma = 0.  The CDF and the density share one start rule, one
  panel-doubling driver and one tail record per truncation point U: it
  reads phi(U) once, and every tail bound at U derives from it.
* Davies: midpoint lattice u_k = (k + 1/2) Delta, supporting a Gaussian
  term.  Truncation is controlled by computable bounds on the integrand
  tail; the lattice aliasing error is bounded through Chernoff bounds on
  the distribution's tails, which also drive the choice of Delta.

Both read the modulus and phase of phi from one kernel,
``transforms._log_cf`` (Imhof's u is twice its frequency).  Their bounds
add the rounding error of the node sum.  The additive constant is
handled by shifting the evaluation point.
"""

from __future__ import annotations

import contextlib
import math
from typing import NamedTuple

import numpy as np
from scipy import optimize

from . import transforms
from .errors import ConvergenceFailureError, InvalidInputError, NotApplicableError
from .forms import DaviesParams, ImhofParams, MethodResult, ReducedForm

IMHOF_PANELS_MAX = 2**23
IMHOF_PANELS_START = 64
DAVIES_POINTS_MAX = 2**25
_LOG_TINY = -745.0
_EPS = np.finfo(float).eps


def _require_no_gaussian(red: ReducedForm, op: str) -> None:
    if red.sigma_gauss != 0.0:
        raise NotApplicableError(
            f"{op} does not support a Gaussian component; use the Davies lattice",
            condition="sigma=0",
        )


def _exact_cdf(red: ReducedForm, q: float, method: str) -> MethodResult | None:
    """The CDF of a point mass, or at a point on or outside the support."""
    if red.n_groups == 0 and red.sigma_gauss == 0.0:
        v = 1.0 if q >= red.const else 0.0
        return MethodResult(v, 0.0, method, "exact", {"raw_value": v})
    lo_s, hi_s = transforms.support(red)
    if q >= hi_s:
        return MethodResult(1.0, 0.0, method, "exact",
                            {"raw_value": 1.0, "note": "at or above the support"})
    if q <= lo_s:
        return MethodResult(0.0, 0.0, method, "exact",
                            {"raw_value": 0.0, "note": "at or below the support"})
    return None


def _rounding_bound(mass: float, n: int) -> float:
    """Floating-point error of 1/2 - S (or of S) where S sums n terms whose
    magnitudes add up to ``mass``: half an ulp of the result plus a
    summation error growing with log2(n)."""
    return _EPS * (0.5 + (math.log2(n) + 4.0) * mass)


def imhof_integrand(red: ReducedForm, u, q: float):
    """Phase theta(u) and modulus rho(u) of the inversion integrand.

    q is the evaluation point in the shifted coordinate (constant already
    subtracted).  The integrand itself is sin(theta)/(u rho); its u -> 0
    limit is (sum w (nu + d2) - q) / 2.
    """
    _require_no_gaussian(red, "imhof integrand")
    u = np.asarray(u, dtype=float)
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    return phase - 0.5 * u * q, np.exp(-log_mod)


def _imhof_f(red: ReducedForm, u: np.ndarray, q: float) -> np.ndarray:
    """sin(theta)/(u rho) with the analytic limit spliced in at u = 0."""
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(phase - 0.5 * u * q) * np.exp(log_mod) / u
    out[u == 0.0] = 0.5 * float(np.sum(red.omega * (red.nu + red.delta2))) - 0.5 * q
    return out


def _imhof_pdf_f(red: ReducedForm, u: np.ndarray, q: float) -> np.ndarray:
    """cos(theta)/rho, the density's integrand."""
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    return np.cos(phase - 0.5 * u * q) * np.exp(log_mod)


def _tail_form(red: ReducedForm) -> tuple:
    """The U-free constants (k, c1, c2, (1/2) sum nu log|w|) of ``_tail``."""
    w, nu, d2 = red.omega, red.nu, red.delta2
    c1 = (None if int(nu[w > 0].sum() - nu[w < 0].sum()) % 4
          else 0.5 * float(np.sum((nu + d2) / np.abs(w))))
    return (0.5 * float(nu.sum()), c1, 0.5 * float(np.sum(nu + 3.0 * d2)),
            0.5 * float(np.sum(nu * np.log(np.abs(w)))))


class _Tail(NamedTuple):
    """The Imhof tail at one truncation point U and shifted point x.

    With k = sum(nu)/2, c2 = (1/2) sum (nu + 3 d2), s the slope floor, and
    c1 = (1/2) sum (nu + d2)/|w| when the positive and negative dof counts
    differ by a multiple of 4 (the limiting phase is then a multiple of pi):
    * T_U = U^-k e^-floor / (pi k); the density's |integrand| <= 1/rho is
      integrable for k > 1, giving U^(1-k) e^-floor / (2 pi (k - 1)).
    * With g = 1/(rho theta'), the tail int_U^inf e^{i theta}/rho is a
      boundary term plus int g' e^{i theta}, and int |theta''| du <= c2/U
      (termwise, as 2w^2 u <= |w|(1 + w^2 u^2)): hence the majorant
      [2 + c2/(U s)] / (rho(U) s).  The density's residual estimate
      (c2 + 2k) / (2 pi rho s^2 U) sizes the next order.
    * Balanced phase: |sin of the chi part| <= c1/u, and the pure
      x-oscillation is integrated by parts with its exact linear phase, so
      no slope floor is needed (x near 0, light dofs).
    * The boundary term leads int_U^inf e^{i theta}/rho (the CDF tail is its
      real part over U, the density's minus its imaginary part).  It needs
      a slope floor, which fixes the sign of theta', and only refines values.
    """

    u: float
    log_floor: float    # lower bound on log rho(u) - k log u over u >= U
    rho: float          # rho(U); inf when it overflows, and the tail is then 0
    theta: float        # theta(U)
    dtheta: float       # theta'(U) where the slope floor is positive, else 0
    m1: float           # (1/2) sum (nu + d2)|w|/(1 + w^2 U^2) >= |chi part of theta'|
    slope_floor: float  # max(|x|/2 - m1, 0) <= |theta'| over [U, inf) (m1 decreases)
    plain: float        # T_U, the CDF's closed-form tail bound
    ibp: float          # the majorant: the CDF divides it by pi U, the density by 2 pi
    balanced: float     # the CDF's balanced-phase bound (inf without c1)
    pdf_plain: float    # the density's bound from |integrand| <= 1/rho
    residual: float     # the density's residual estimate
    boundary: complex   # e^{i theta(U)} / (theta'(U) rho(U)) where dtheta is set


def _tail(red: ReducedForm, u: float, x: float, form: tuple) -> _Tail:
    """The tail record at U = u from one ``_log_cf`` call; form = _tail_form(red)."""
    k, c1, c2, log_w = form
    w, nu, d2 = red.omega, red.nu, red.delta2
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    theta = float(phase - 0.5 * u * x)
    log_floor = log_w + 0.5 * float(np.sum(d2 * w**2 * u**2 / (1.0 + w**2 * u**2)))
    g = 1.0 + (w * u) ** 2
    m1 = 0.5 * float(np.sum((nu + d2) * np.abs(w) / g))
    s = max(abs(x) / 2.0 - m1, 0.0)
    dtheta, boundary = 0.0, 0j
    with np.errstate(over="ignore"):
        rho = float(np.exp(-log_mod))
        if s > 0.0:
            dtheta = (0.5 * float(np.sum(nu * w / g + d2 * w * (1.0 - (w * u) ** 2) / g**2))
                      - 0.5 * x)
            boundary = complex(np.exp(1j * theta) / (dtheta * rho))
    finite = math.isfinite(rho)
    plain = math.exp(min(-math.log(math.pi * k) - k * math.log(u) - log_floor, 700.0))
    if s <= 0.0:
        ibp = residual = math.inf
    elif not finite:
        ibp = residual = 0.0
    else:
        ibp = (2.0 + c2 / (u * s)) / (rho * s)
        residual = (c2 + 2.0 * k) / (2.0 * math.pi * rho * s**2 * u)
    balanced = math.inf
    if c1 is not None:
        # int_U^inf u^{-2} / rho du <= U^{-(k+1)} / ((k+1) e^{floor}), which
        # overflows (no bound) only at a fixed U < 1 with a large k
        with contextlib.suppress(OverflowError):
            balanced = c1 * (math.exp(min(-log_floor, 700.0)) * u ** -(k + 1.0) / (k + 1.0))
        if x != 0.0 and finite:
            balanced += (2.0 / abs(x)) * (2.0 / (u * rho) + m1 * math.pi * plain)
        balanced /= math.pi
    pdf_plain = math.inf if k <= 1.0 else math.exp(min(
        -math.log(2.0 * math.pi * (k - 1.0)) + (1.0 - k) * math.log(u) - log_floor, 700.0))
    return _Tail(u, log_floor, rho, theta, dtheta, m1, s, plain, ibp, balanced, pdf_plain,
                 residual, boundary)


def imhof_tail_bound(red: ReducedForm, u_max: float) -> float:
    """Closed-form bound T_U on the neglected CDF-integral tail beyond U."""
    return _tail(red, u_max, 0.0, _tail_form(red)).plain


def _imhof_pick_u(red: ReducedForm, tol: float, x: float, form: tuple):
    """Smallest U putting the best CDF tail bound below tol/2, and its record.

    Closed-form first guesses from the power-law parts of T_U and of the
    integration-by-parts bound, then verified against the exact bounds
    and enlarged geometrically if needed."""
    k, c1, _, log_w = form
    log_scale = -log_w - 0.5 * float(red.delta2.sum())
    log_tol = math.log(tol / 2.0)
    log_us = [(-math.log(math.pi * k) + log_scale - log_tol) / k]
    if x != 0.0:
        log_us.append((math.log(2.0) - math.log(math.pi * abs(x) / 2.0) + log_scale - log_tol)
                      / (k + 1.0))
    if c1 is not None:
        log_us.append((math.log(max(c1, 1e-300)) - math.log(math.pi * (k + 1.0)) + log_scale
                       - log_tol) / (k + 1.0))
    u = min(math.exp(min(max(log_u, 0.0), 60.0)) for log_u in log_us)
    for _ in range(120):
        rec = _tail(red, u, x, form)
        if min(rec.plain, rec.ibp / (math.pi * u), rec.balanced) <= tol / 2.0 or u > 1e25:
            return u, rec
        u *= 1.3
    return u, _tail(red, u, x, form)


def _start_panels(red: ReducedForm, u_max: float, x: float) -> int:
    """IMHOF_PANELS_START, doubled to at least ~8 panels per period of the
    integrand: Richardson is never trusted on an undersampled oscillation."""
    w = np.abs(red.omega)
    phase_rate = 0.5 * float(np.sum(red.nu * w + red.delta2 * w)) + 0.5 * abs(x)
    min_panels = 8.0 * u_max * phase_rate / (2.0 * math.pi)
    panels = IMHOF_PANELS_START
    while panels < min(min_panels, IMHOF_PANELS_MAX / 2):
        panels *= 2
    return panels


def _trapezoid(f, u_max: float, panels: int, cap: int, target: float, scale: float):
    """(1/scale) int_0^U f by the trapezoid rule on ``panels`` panels, then
    halving the step (new midpoints only) while fewer than ``cap`` panels
    and the Richardson estimate is above ``target``.

    Returns the integral, the last Richardson estimate (inf when the step
    was never halved), the final panel count and the rounding bound of
    the node sum.
    """
    fu = f(np.linspace(0.0, u_max, panels + 1))
    total = float(np.trapezoid(fu, dx=u_max / panels))
    mass = float(np.sum(np.abs(fu))) * (u_max / panels)
    quad_est = math.inf
    while panels < cap:
        fu = f(np.linspace(0.0, u_max, 2 * panels + 1)[1::2])
        step = u_max / (2 * panels)
        total_new = 0.5 * total + float(np.sum(fu)) * step
        mass = 0.5 * mass + float(np.sum(np.abs(fu))) * step
        panels *= 2
        quad_est = abs(total_new - total) / scale
        total = total_new
        if quad_est <= target:
            break
    return total / scale, quad_est, panels, _rounding_bound(mass / scale, panels + 1)


def cdf_imhof(red: ReducedForm, q: float, params: ImhofParams | None = None,
              tol: float = 1e-8) -> MethodResult:
    """CDF by Imhof's trapezoid rule with explicit truncation bound.

    With ``params`` the grid is fixed and the achieved bound is reported;
    otherwise U is solved from the tail bound and panels are doubled
    until the Richardson estimate meets the tolerance.
    """
    _require_no_gaussian(red, "imhof CDF")
    exact = _exact_cdf(red, q, "imhof")
    if exact is not None:
        return exact
    x = q - red.const
    form = _tail_form(red)
    if params is not None:
        # one halved-grid pass first so a Richardson estimate is available
        u_max, tol = params.u_max, params.tol
        rec = _tail(red, u_max, x, form)
        panels, cap, target = max(params.panels // 2, 2), max(params.panels, 4), -math.inf
    else:
        u_max, rec = _imhof_pick_u(red, tol, x, form)
        panels, cap = _start_panels(red, u_max, x), IMHOF_PANELS_MAX
        # drive the quadrature below the tail target: the oscillatory tail
        # cancels far below T_U, so a tight grid keeps the value accurate
        # even when the reported (conservative) bound is dominated by T_U
        target = min(tol, 1e-8) / 2.0

    # the CDF integrand carries an extra 1/u <= 1/U
    t_plain, t_ibp, t_bal = rec.plain, rec.ibp / (math.pi * u_max), rec.balanced
    t_u = min(t_plain, t_ibp, t_bal)
    integral, quad_est, panels, rounding = _trapezoid(
        lambda u: _imhof_f(red, u, x), u_max, panels, cap, target, math.pi)
    value = 0.5 - integral
    # the boundary-term refinement is only trustworthy in the regime where
    # the integration-by-parts budget is the binding bound
    correction = (-rec.boundary.real / (math.pi * u_max)
                  if t_ibp <= min(t_plain, t_bal) else 0.0)
    bound = t_u + (quad_est if math.isfinite(quad_est) else 0.0) + rounding
    raw = value + correction
    res = MethodResult(
        min(max(raw, 0.0), 1.0), float(bound), "imhof", "rigorous",
        {"raw_value": raw, "u_max": u_max, "panels": panels, "tail_bound": t_u,
         "quad_estimate": quad_est, "tail_correction": correction},
    )
    if params is None and bound > tol:
        raise ConvergenceFailureError(
            f"imhof did not reach tol={tol} (achieved {bound:.3e})", result=res
        )
    return res


def pdf_imhof(red: ReducedForm, q: float, params: ImhofParams | None = None,
              tol: float = 1e-8) -> MethodResult:
    """Density by the cosine-integral counterpart of the Imhof rule.

    The reported bound combines the integrable part of the modulus tail
    (valid when sum(nu) > 2) with a Richardson estimate; flagged
    heuristic since the oscillatory tail has no tight closed bound.
    """
    _require_no_gaussian(red, "imhof PDF")
    x = q - red.const
    form = _tail_form(red)
    u_max = params.u_max if params is not None else 1.0
    rec = _tail(red, u_max, x, form)
    if params is not None:
        panels = cap = params.panels
    else:
        while (min(rec.pdf_plain, rec.ibp / (2.0 * math.pi), rec.residual) > tol / 2.0
               and u_max < 1e7):
            u_max *= 2.0
            rec = _tail(red, u_max, x, form)
        panels, cap = _start_panels(red, u_max, x), IMHOF_PANELS_MAX
    t_plain_u, t_ibp_u = rec.pdf_plain, rec.ibp / (2.0 * math.pi)
    correct_tail = t_ibp_u < t_plain_u
    t_u = min(t_plain_u, t_ibp_u, rec.residual if correct_tail else math.inf)
    value, quad_est, panels, rounding = _trapezoid(
        lambda u: _imhof_pdf_f(red, u, x), u_max, panels, cap, min(tol, 1e-8) / 2.0,
        2.0 * math.pi)
    if correct_tail:
        value -= rec.boundary.imag / (2.0 * math.pi)
    bound = t_u + (quad_est if math.isfinite(quad_est) else 0.0) + rounding
    return MethodResult(
        max(value, 0.0), float(bound), "imhof", "heuristic",
        {"raw_value": value, "u_max": u_max, "panels": panels, "tail_bound": t_u,
         "quad_estimate": quad_est},
    )


def davies_truncation_bound(red: ReducedForm, u_max: float) -> float:
    """Smallest applicable bound on the integral tail beyond U.

    Combines the two closed-form bounds keyed to large weights and to the
    Gaussian term with a log-log decay-slope bound A(U)/(pi rho_U),
    rho_U = sum (nu/2) 4U^2w^2/(1+4U^2w^2) + U^2 sigma^2, valid whenever
    rho_U > 0 since that part of -log A is convex in log u and the
    noncentrality factor only decreases.
    """
    w, nu, d2 = red.omega, red.nu, red.delta2
    sig = red.sigma_gauss
    wu2 = 4.0 * w**2 * u_max**2
    log_n = -2.0 * u_max**2 * float(np.sum(w**2 * d2 / (1.0 + wu2)))
    log_common = log_n - 0.5 * (sig * u_max) ** 2
    bounds = []
    big = np.abs(w) > 1.0
    s = float(nu[big].sum())
    if s > 0:
        log_b1 = (
            math.log(2.0 / (math.pi * s))
            + log_common
            - 0.25 * float(np.sum(nu[~big] * np.log1p(wu2[~big])))
            - 0.25 * float(np.sum(nu[big] * np.log(wu2[big])))
        )
        bounds.append(log_b1)
    log_prod_full = -0.25 * float(np.sum(nu * np.log1p(wu2)))
    if sig > 0:
        log_b2 = -math.log(math.pi * u_max**2 * sig**2) + log_common + log_prod_full
        bounds.append(log_b2)
    rho = 0.5 * float(np.sum(nu * wu2 / (1.0 + wu2))) + (sig * u_max) ** 2
    if rho > 0:
        log_b3 = -math.log(math.pi * rho) + log_common + log_prod_full
        bounds.append(log_b3)
    if not bounds:
        return math.inf
    return math.exp(min(min(bounds), 700.0))


def _davies_lattice_bound(red: ReducedForm, x: float, spread: float) -> float:
    """Chernoff bound on the aliasing error for lattice period 2*pi/Delta = spread."""
    chi = red.shifted(0.0)
    log_left = transforms.chernoff_log_tail(chi, x - spread, "left")
    log_right = transforms.chernoff_log_tail(chi, x + spread, "right")
    lt = max(log_left, log_right)
    return 0.0 if lt >= 0.0 else math.exp(max(lt, _LOG_TINY))


def _davies_sum(red: ReducedForm, x: float, delta: float, k_max: int):
    """The lattice value 1/2 - (1/pi) sum_k Im{phi(u_k) e^{-i u_k x}}/(k + 1/2)
    over k = 0..k_max, and the rounding bound of that sum."""
    total = mass = 0.0
    block = 1 << 18
    for start in range(0, k_max + 1, block):
        idx = np.arange(start, min(start + block, k_max + 1), dtype=float)
        u = (idx + 0.5) * delta
        log_mod, phase = transforms._log_cf(red, u)
        terms = np.exp(log_mod) * np.sin(phase - u * x) / (idx + 0.5)
        total += float(np.sum(terms))
        mass += float(np.sum(np.abs(terms)))
    return 0.5 - total / math.pi, _rounding_bound(mass / math.pi, k_max + 1)


def cdf_davies(red: ReducedForm, q: float, params: DaviesParams | None = None,
               tol: float = 1e-8) -> MethodResult:
    """CDF by the midpoint-lattice inversion sum with computable bounds.

    Supports Gaussian components and weights of both signs.  The reported
    bound is truncation + lattice aliasing + the rounding of the sum.
    """
    exact = _exact_cdf(red, q, "davies")
    if exact is not None:
        return exact
    x = q - red.const

    if params is not None:
        delta, k_max, tol = params.delta, params.k_max, params.tol
        u_max = (k_max + 0.5) * delta
        trunc = davies_truncation_bound(red, u_max)
        lattice = _davies_lattice_bound(red, x, 2.0 * math.pi / delta)
    else:
        k1 = transforms.cumulants(red.shifted(0.0), 2)
        sd = math.sqrt(max(k1.get(2), 1e-300))
        spread = max(8.0 * sd, abs(x - k1.get(1)) + 4.0 * sd)
        lattice = _davies_lattice_bound(red, x, spread)
        for _ in range(200):
            if lattice <= tol / 2.0 or spread > 1e12 * sd:
                break
            spread *= 1.5
            lattice = _davies_lattice_bound(red, x, spread)
        delta = 2.0 * math.pi / spread
        u_max = 4.0 / sd if red.n_groups else 4.0 / red.sigma_gauss
        trunc = davies_truncation_bound(red, u_max)
        while trunc > tol / 2.0 and (u_max / delta) < DAVIES_POINTS_MAX:
            u_max *= 1.5
            trunc = davies_truncation_bound(red, u_max)
        k_max = max(min(int(math.ceil(u_max / delta - 0.5)), DAVIES_POINTS_MAX), 8)
        u_max = (k_max + 0.5) * delta
        trunc = davies_truncation_bound(red, u_max)

    value, rounding = _davies_sum(red, x, delta, k_max)
    bound = trunc + lattice + rounding
    res = MethodResult(min(max(value, 0.0), 1.0), float(bound), "davies", "rigorous",
                       {"raw_value": value, "delta": delta, "k_max": k_max,
                        "u_max": u_max, "truncation_bound": trunc,
                        "lattice_bound": lattice})
    if params is None and bound > tol:
        raise ConvergenceFailureError(
            f"davies did not reach tol={tol} (achieved {bound:.3e})", result=res
        )
    return res


def cdf_auto_inversion(red: ReducedForm, q: float, tol: float = 1e-8) -> MethodResult:
    """The inversion leaf of method="auto": Imhof when sigma = 0, falling back
    to Davies when Imhof does not reach tol (if both fail, the failure with
    the smaller bound is raised); Davies alone with a Gaussian term, which
    Imhof does not support."""
    if red.sigma_gauss != 0.0 or not red.n_groups:
        return cdf_davies(red, q, tol=tol)
    try:
        return cdf_imhof(red, q, tol=tol)
    except ConvergenceFailureError as exc:
        try:
            return cdf_davies(red, q, tol=tol)
        except ConvergenceFailureError as exc2:
            raise min(exc, exc2, key=lambda e: e.result.error_bound) from None


def quantile(red: ReducedForm, p: float, tol: float = 1e-8, method: str = "auto") -> float:
    """Solve F(q) = p by bracketed root finding on the chosen CDF method.

    The bracket starts at mean +/- 2 sd and widens geometrically until the
    sign changes; Brent's method then drives |F(q) - p| below tol.  The
    inner CDF runs at min(tol/100, 1e-9); when an evaluation exhausts its
    resource limits, its best value is used (root finding only needs a
    consistent monotone surrogate).
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError("quantile level p must be in (0, 1)")
    from . import select  # runtime import; select dispatches back here

    inner_tol = min(tol * 1e-2, 1e-9)
    ks = transforms.cumulants(red, 2)
    center, sd = ks.get(1), math.sqrt(max(ks.get(2), 1e-300))
    lo_s, hi_s = transforms.support(red)

    edge = 1e-9 * max(sd, abs(center), 1.0)

    def f(x: float) -> float:
        # the support edges are exact roots of F - p's sign conditions;
        # never evaluate a numerical method exactly there
        if math.isfinite(lo_s) and x <= lo_s + edge:
            return -p
        if math.isfinite(hi_s) and x >= hi_s - edge:
            return 1.0 - p
        try:
            res = select.cdf(red, x, method, inner_tol)
        except ConvergenceFailureError as exc:
            res = exc.result
        return res.value - p

    lo, hi = center - 2.0 * sd, center + 2.0 * sd
    lo = max(lo, lo_s) if math.isfinite(lo_s) else lo
    hi = min(hi, hi_s) if math.isfinite(hi_s) else hi
    step = 2.0 * sd
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(200):
        if f_lo <= 0.0:
            break
        step *= 2.0
        lo = max(lo - step, lo_s) if math.isfinite(lo_s) else lo - step
        f_lo = f(lo)
    for _ in range(200):
        if f_hi >= 0.0:
            break
        step *= 2.0
        hi = min(hi + step, hi_s) if math.isfinite(hi_s) else hi + step
        f_hi = f(hi)
    root = float(optimize.brentq(f, lo, hi, xtol=1e-13 * (1.0 + sd), rtol=8.9e-16,
                                 maxiter=200))
    return root
