"""MGF, CF, CGF, cumulants and raw moments of a reduced form.

All products of the type prod (1 - 2 w t)^(-nu/2) are evaluated as
exp(-0.5 sum nu log(1 - 2 w t)) so large degree counts cannot overflow
before the final exponentiation.

The support follows from the weights' signs and the Gaussian term alone,
so the point rule of auto and every engine is here: ``exact_point``
answers +-inf and the points on or outside the support exactly.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, InvalidInputError
from .forms import CumulantSet, MethodResult, MgfDomain, ReducedForm

DEFAULT_CUMULANT_ORDER = 8
_sum = np.add.reduce   # np.sum without its Python wrapper; same pairwise sum


def mgf_domain(red: ReducedForm) -> MgfDomain:
    """Open interval (t_L, t_R) of MGF existence.

    t_R = 1/(2 max positive weight), t_L = -1/(2 max |negative weight|);
    infinite when the corresponding sign is absent.
    """
    pos = red.omega[red.omega > 0]
    neg = red.omega[red.omega < 0]
    t_right = 1.0 / (2.0 * pos.max()) if pos.size else math.inf
    t_left = -1.0 / (2.0 * np.abs(neg).max()) if neg.size else -math.inf
    return MgfDomain(t_left, t_right)


def _require_in_domain(red: ReducedForm, t: float) -> None:
    dom = mgf_domain(red)
    if not dom.contains(t):
        raise DomainError(
            f"t={t} outside MGF domain ({dom.t_left}, {dom.t_right})",
            interval=(dom.t_left, dom.t_right),
        )


def _cgf(red: ReducedForm, t):
    """K(t) without the domain check; t scalar or array (one value per t)."""
    w, nu, d2 = red.omega, red.nu, red.delta2
    g = 1.0 - 2.0 * np.multiply.outer(t, w)
    return (
        -0.5 * _sum(nu * np.log(g), axis=-1)
        + t * _sum(d2 * w / g, axis=-1)
        + 0.5 * red.sigma_gauss**2 * (t * t)
        + red.const * t
    )


def log_mgf(red: ReducedForm, t: float) -> float:
    """Cumulant generating function K(t) = log M(t)."""
    _require_in_domain(red, t)
    return float(_cgf(red, t))


def mgf(red: ReducedForm, t: float) -> float:
    """Moment generating function, computed in log space.

    Saturates to inf rather than raising when the value exceeds the
    double range (t close to the domain boundary).
    """
    lv = log_mgf(red, t)
    return math.exp(lv) if lv < 709.0 else math.inf


def _log_cf(red: ReducedForm, beta):
    """log|phi(beta)| and the unwrapped phase arg phi(beta) - beta const.

    With z = 2 beta w, a group adds -nu/4 log(1 + z^2) - d2/2 z^2/(1 + z^2)
    to the log-modulus and nu/2 arctan z + d2/2 z/(1 + z^2) to the phase;
    the Gaussian term adds -(sigma beta)^2/2 to the log-modulus.  Summing
    the arctans keeps the phase continuous in beta.  beta is a scalar or an
    array; one value per beta.  The group axis comes first, so each
    elementwise pass runs along beta and the sums add whole rows, in group
    order.  The weights are one per group, or arrays with the group axis
    first that broadcast against beta: the rows of several forms in one
    call, (groups, rows, 1) weights and a (rows, 1) sigma (or 0.0) against
    a (rows, nodes) beta.
    """
    w, nu, d2 = red.omega, red.nu, red.delta2
    if w.ndim == 1:
        col = (slice(None),) + (None,) * np.ndim(beta)
        w, nu, d2 = w[col], nu[col], d2[col]
    z = w * (2.0 * beta)
    z2 = z * z
    log_mod = 0.25 * _sum(nu * np.log1p(z2), axis=0)
    phase = nu * np.arctan(z)
    if d2.any():
        g = 1.0 + z2
        log_mod = log_mod + 0.5 * _sum(d2 * z2 / g, axis=0)
        phase += d2 * z / g
    log_mod = -log_mod
    if np.ndim(red.sigma_gauss) or red.sigma_gauss:
        log_mod = log_mod - 0.5 * (red.sigma_gauss * beta) ** 2
    return log_mod, 0.5 * _sum(phase, axis=0)


def cf(red: ReducedForm, beta) -> complex | np.ndarray:
    """Characteristic function at real frequency beta (scalar or array)."""
    beta = np.asarray(beta, dtype=float)
    log_mod, phase = _log_cf(red, beta)
    out = np.exp(log_mod + 1j * (phase + beta * red.const))
    return complex(out) if out.ndim == 0 else out


def cgf_derivative(red: ReducedForm, t: float, m: int) -> float:
    """m-th derivative of the CGF at t (m = 0 returns K(t) itself).

    K^(m)(t) = 2^(m-1) (m-1)! sum_l w^m [nu/(1-2wt)^m + m d2/(1-2wt)^(m+1)]
               + (sigma^2 t + const) [m=1] + sigma^2 [m=2].
    """
    if m < 0:
        raise InvalidInputError("derivative order m must be >= 0")
    if m == 0:
        return log_mgf(red, t)
    _require_in_domain(red, t)
    return float(_cgf_derivative(red, t, m))


def _cgf_derivative(red: ReducedForm, t, m: int):
    """K^(m)(t), m >= 1, without the domain check; t scalar or array (one
    value per t)."""
    w, nu, d2 = red.omega, red.nu, red.delta2
    g = 1.0 - 2.0 * np.multiply.outer(t, w)
    core = 2.0 ** (m - 1) * math.factorial(m - 1) * _sum(
        w**m * (nu / g**m + m * d2 / g ** (m + 1)), axis=-1
    )
    if m == 1:
        core = core + (red.sigma_gauss**2 * t + red.const)
    elif m == 2:
        core = core + red.sigma_gauss**2
    return core


def cumulants(red: ReducedForm, order: int = DEFAULT_CUMULANT_ORDER) -> CumulantSet:
    """First ``order`` cumulants, kappa_j = K^(j)(0) (``cgf_derivative``):

    kappa_1 = sum w (nu + d2) + const,
    kappa_2 = 2 sum w^2 (nu + 2 d2) + sigma^2,
    kappa_j = 2^(j-1) (j-1)! sum w^j (nu + j d2)   for j >= 3.
    The Gaussian part contributes to the first two only.
    """
    if order < 1:
        raise InvalidInputError("cumulant order must be >= 1")
    return CumulantSet(np.array([_cgf_derivative(red, 0.0, j) for j in range(1, order + 1)]))


def raw_moments(kappas: CumulantSet) -> np.ndarray:
    """Raw moments E[Q^k], k = 1..J, from cumulants by the Cauchy-product
    recursion m_k = sum_{l=0}^{k-1} C(k-1, l) m_l kappa_{k-l} (m_0 = 1)."""
    j = kappas.order
    m = np.zeros(j + 1)
    m[0] = 1.0
    for k in range(1, j + 1):
        m[k] = sum(math.comb(k - 1, l) * m[l] * kappas.get(k - l) for l in range(k))
    return m[1:]


def points(q) -> np.ndarray:
    """q, a point or an array of points, as a 1-d float array.  A NaN point
    is invalid input: no method has a value there."""
    pts = np.atleast_1d(np.asarray(q, dtype=float))
    if np.isnan(pts).any():
        raise InvalidInputError("the evaluation point q must not be NaN")
    return pts


def support(red: ReducedForm) -> tuple[float, float]:
    """Closure of the support: bounded on a side iff no weight of that sign
    and no Gaussian term."""
    lo = -math.inf
    hi = math.inf
    if red.sigma_gauss == 0.0:
        if not np.any(red.omega < 0):
            lo = red.const
        if not np.any(red.omega > 0):
            hi = red.const
    return lo, hi


def exact_point(red: ReducedForm, x: float, density: bool, method: str,
                ends: tuple) -> MethodResult | None:
    """The exact result under ``method`` at a point x at +-inf or on or
    outside the support [ends] (``support(red)``), where nothing is
    integrated or summed; None inside the open support.  The CDF is 0 or 1
    there (a point mass included) and the density 0, except at a finite
    end, where it is the limit from inside: only the central term of each
    noncentral chi-square matters there, so by the total dof it is inf for
    1, e^(-sum delta2/2) / (2 sqrt|lam_1 lam_2|) over the two chi2_1
    weights for 2 (the chi2_2 density at 0 scaled), and 0 otherwise."""
    lo, hi = ends
    if lo < x < hi:
        return None
    if not density:
        v = 1.0 if x >= hi else 0.0
        return MethodResult(v, 0.0, method, "exact", {
            "raw_value": v, "note": f"at or {'above' if v else 'below'} the support"})
    value = 0.0
    if math.isinf(x) or x not in ends:
        note = "outside the support"
    else:
        note = "support edge"
        if red.total_dof == 1:
            value = math.inf
        elif red.total_dof == 2:
            value = (math.exp(-0.5 * float(red.delta2.sum()))
                     / (2.0 * math.sqrt(abs(float(np.prod(red.omega ** red.nu))))))
    return MethodResult(value, 0.0, method, "exact", {"note": note})


def exact_points(red: ReducedForm, q, density: bool, method: str, ends: tuple | None = None
                 ) -> tuple:
    """The shared point check of the engines: q as a 1-d float array (a NaN
    point is invalid input), and one slot per point holding its
    ``exact_point`` result under ``method`` (None inside the open support).
    ends is ``support(red)`` when not given."""
    pts = points(q)
    ends = support(red) if ends is None else ends
    return pts, [exact_point(red, x, density, method, ends) for x in pts.tolist()]


def _divided(red: ReducedForm, d: float) -> ReducedForm:
    """The form of Q/d, without the groups whose weight w/d rounds to 0:
    nothing of them is representable beside the largest weight or the
    Gaussian term of Q/d."""
    w = red.omega / d
    keep = w != 0.0
    return ReducedForm(w[keep], red.nu[keep], red.delta2[keep], red.sigma_gauss / d,
                       red.const / d)


def _scaled(red: ReducedForm) -> tuple:
    """(Q/s, s), s = 2^e with e the binary exponent of max(max|w|, sigma),
    when the square of that lies beyond 2^(+-1000) (K'' would overflow or
    underflow); else (red, 1.0), as scaling would flush a subnormal point
    to 0.  A power of two scales normal numbers exactly: Q <= y iff
    Q/s <= y/s."""
    e = math.frexp(max(float(np.max(np.abs(red.omega), initial=0.0)), red.sigma_gauss))[1]
    if abs(e) <= 500:
        return red, 1.0
    s = math.ldexp(1.0, e)
    return _divided(red, s), s


def standardised(red: ReducedForm) -> tuple:
    """(mean, sd, unit): the mean and sd of Q, and the form of Q/sd, whose
    third and later cumulants are Q's standardised ones.  The variance is
    taken on the scaled form (``_scaled``), so it neither overflows nor
    underflows."""
    scaled, s = _scaled(red)
    ks = cumulants(scaled, 2)
    sd = s * math.sqrt(max(ks.get(2), 1e-300))
    return s * ks.get(1), sd, _divided(red, sd)


def _cgf_prime_root(red: ReducedForm, y: np.ndarray) -> np.ndarray:
    """Solve K'(t) = y for an array of targets: one root per target, nan
    where y is outside the range of K'."""
    dom = mgf_domain(red)
    return _solve_cgf_prime(red.omega, red.nu, red.delta2, y, dom.t_left, dom.t_right,
                            red.sigma_gauss**2, red.const)


_NEWTON_MAX = 200
_EPS = np.finfo(float).eps


def _solve_cgf_prime(w, nu, d2, y: np.ndarray, t_lo, t_hi, s2: float = 0.0,
                     c: float = 0.0) -> np.ndarray:
    """Root of K'(t) = sum w (nu + d2 / g) / g + s2 t + c = y, g = 1 - 2 w t,
    for every row: one target y, one MGF strip (t_lo, t_hi) and one row of
    weights (w, nu, d2) each.  A single row of weights is shared by all
    targets; s2 and c are common to all rows.

    Returns nan where y is outside the range of K'.  K'' > 0, so K' is
    increasing on the strip, and a Newton iteration that keeps a bracket
    [lo, hi] around the root and falls back to bisection converges from
    t = 0 for every target in the range.  A row stops on its own test and
    is then left untouched, so its root does not depend on the other rows.
    """
    lo = np.broadcast_to(t_lo, y.shape)
    hi = np.broadcast_to(t_hi, y.shape)
    # K' tends to +-inf at a finite strip end or with a Gaussian term, and to
    # c (the support edge) at an infinite end without one
    has_root = np.isfinite(y)
    if s2 == 0.0:
        has_root &= (np.isfinite(hi) | (y < c)) & (np.isfinite(lo) | (y > c))
    # K'(t) - y = sum inv (wnu + wd2 inv) + s2 t + c - y and
    # K''(t) = sum inv^2 (w2nu + w2d2 inv) + s2, with inv = 1 / (1 - 2 w t)
    coef = (2.0 * w, w * nu, w * d2, 2.0 * w * w * nu, 4.0 * w * w * d2)
    # rounding floor of K' near t = 0, where a relative step test cannot end
    noise = 4.0 * _EPS * (_sum(np.abs(w) * (nu + d2), axis=-1) + abs(c) + np.abs(y))
    out = np.full(y.shape, math.nan)
    if y.size == 1:
        # a batch of one runs on floats: the array loop's bookkeeping would
        # cost more than the sums
        if has_root[0]:
            out[0] = _newton_one([x.reshape(-1) for x in coef], s2, c, float(y[0]),
                                 float(lo[0]), float(hi[0]), float(noise[0]))
        return out
    idx = np.flatnonzero(has_root)
    y, lo, hi, noise = y[idx], lo[idx], hi[idx], noise[idx]
    coef = [_rows(x, idx) for x in coef]
    t = np.zeros(idx.size)
    for _ in range(_NEWTON_MAX):
        if idx.size == 0:
            break
        w2, wnu, wd2, w2nu, w2d2 = coef
        inv = 1.0 / (1.0 - t[:, None] * w2)
        f = _sum(inv * (wnu + wd2 * inv), axis=-1) + s2 * t + c - y
        kpp = _sum(inv * inv * (w2nu + w2d2 * inv), axis=-1) + s2
        lo = np.where(f < 0.0, t, lo)
        hi = np.where(f > 0.0, t, hi)
        # a Newton step goes at most halfway to either end of the bracket,
        # so it never leaves it and never lands next to a pole of K'
        t_new = np.clip(t - f / kpp, 0.5 * (lo + t), 0.5 * (t + hi))
        done = (np.abs(t_new - t) <= 2.0 * _EPS * np.abs(t_new)) | (np.abs(f) <= noise)
        if done.any():
            out[idx[done]] = t_new[done]
            keep = ~done
            idx, y, t, lo, hi, noise = (idx[keep], y[keep], t_new[keep], lo[keep],
                                        hi[keep], noise[keep])
            coef = [_rows(x, keep) for x in coef]
        else:
            t = t_new
    return out


def _rows(x: np.ndarray, sel) -> np.ndarray:
    """The rows sel of a coefficient array; one shared row (1-D) stays."""
    return x if x.ndim == 1 else x[sel]


def _newton_one(coef, s2: float, c: float, y: float, lo: float, hi: float,
                noise: float) -> float:
    """The iteration of _solve_cgf_prime for one target, in float arithmetic."""
    w2, wnu, wd2, w2nu, w2d2 = coef
    t = 0.0
    for _ in range(_NEWTON_MAX):
        inv = 1.0 / (1.0 - t * w2)
        f = float(_sum(inv * (wnu + wd2 * inv))) + s2 * t + c - y
        kpp = float(_sum(inv * inv * (w2nu + w2d2 * inv))) + s2
        if f < 0.0:
            lo = t
        elif f > 0.0:
            hi = t
        t_new = min(max(t - f / kpp, 0.5 * (lo + t)), 0.5 * (t + hi))
        if abs(t_new - t) <= 2.0 * _EPS * abs(t_new) or abs(f) <= noise:
            return t_new
        t = t_new
    return math.nan


CROSSING_MARGIN = 1e-9


def chernoff_crossing(red: ReducedForm, level: float, side: str) -> float:
    """The point where the Chernoff log-tail of ``side`` (see chernoff_log_tail)
    equals level.

    At x = K'(t) the log-tail is h(t) = K(t) - t K'(t), with t > 0 on the
    right and t < 0 on the left.  h(0) = 0 and h'(t) = -t K''(t), so h falls
    monotonically away from 0, and a point beyond the mean has a log-tail
    below level iff it lies beyond the crossing.  h(t) = level is solved by
    a Newton iteration in log|t| that keeps a bracket and never steps more
    than halfway to either end of it, and K'(t) is returned.  Returns the
    mean when level >= 0, and the support edge when h does not fall to level
    before |t| max|w| = 1e100 (level = -inf, or a bounded side whose
    crossing lies within about 1e-100 max|w| of its edge).  The solve runs
    on the scaled form (``_scaled``).
    """
    sign = 1.0 if side == "right" else -1.0
    if level >= 0.0:
        return float(_sum(red.omega * (red.nu + red.delta2))) + red.const
    edge = support(red)[1 if side == "right" else 0]
    if level == -math.inf:
        return edge
    red, scale = _scaled(red)
    w, nu, d2 = red.omega, red.nu, red.delta2
    s2, c = red.sigma_gauss**2, red.const
    dom = mgf_domain(red)
    end = dom.t_right if side == "right" else -dom.t_left   # strip end in tau = |t|
    sw2, swnu, w2nu, w2d2 = 2.0 * sign * w, sign * w * nu, 2.0 * w * w * nu, 2.0 * w * w * d2
    tau_max = 1e100 / float(np.max(np.abs(w), initial=1.0))
    # start from the Gaussian part -var tau^2 / 2 of h
    tau = min(math.sqrt(-2.0 * level / float(_sum(w2nu + 2.0 * w2d2) + s2)), 0.5 * end)
    lo, hi = 0.0, end
    for _ in range(_NEWTON_MAX):
        inv = 1.0 / (1.0 - tau * sw2)
        log_g = np.log(inv)
        d2_inv = w2d2 * inv
        # h = -(1/2) sum nu log g - t sum w nu / g - 2 t^2 sum d2 w^2 / g^2 - s2 t^2 / 2
        # with g = 1 - 2 w t, and h'(t) = -t K''(t)
        a = 0.5 * float(_sum(nu * log_g))
        b = tau * float(_sum(swnu * inv))
        e = tau * tau * float(_sum(d2_inv * inv))
        gauss = 0.5 * s2 * tau * tau
        f = a - b - e - gauss - level
        if f > 0.0:
            lo = tau
        elif f < 0.0:
            hi = tau
        noise = 4.0 * _EPS * (0.5 * float(_sum(nu * np.abs(log_g))) + abs(b) + e + gauss
                              - level)
        if abs(f) <= noise:
            break
        # a Newton step in log tau, where df/d log tau = -tau^2 K''(t)
        kpp = float(_sum(inv * inv * (w2nu + 2.0 * d2_inv))) + s2
        step = tau * math.exp(min(f / (tau * tau * kpp), 50.0))
        tau_new = min(max(step, 0.5 * (lo + tau)), 0.5 * (tau + hi))
        if tau_new > tau_max:
            return edge
        done = abs(tau_new - tau) <= 2.0 * _EPS * tau_new
        tau = tau_new
        if done:
            break
    inv = 1.0 / (1.0 - tau * sw2)
    return scale * (float(_sum(w * (nu + d2 * inv) * inv)) + s2 * sign * tau + c)


def crossing_margin(red: ReducedForm, *points):
    """Half-width of the band around a Chernoff crossing inside which a
    comparison with the crossing is settled by chernoff_log_tail itself.

    The log-tail's slope at the crossing is -t, and |t| times the distance
    from the mean is at least |level|, so outside this band the log-tail
    differs from the level by far more than the rounding of its computed
    value: the comparison with the crossing then decides as the log-tail
    would.  CROSSING_MARGIN relative to the magnitudes in that rounding: the
    points, the weights, the constant and the Gaussian term.  A point may be
    an array: then one margin per element.
    """
    scale = float(_sum(np.abs(red.omega) * (red.nu + red.delta2)))
    return CROSSING_MARGIN * (sum(abs(p) for p in points) + scale + abs(red.const)
                              + red.sigma_gauss)


def chernoff_log_tail(red: ReducedForm, y, side: str):
    """log of the Chernoff bound on a tail probability, at a scalar y or
    elementwise over an array of points.

    side="right": log P(Q > y) <= inf_{t>0} K(t) - t y;
    side="left":  log P(Q <= y) <= inf_{t<0} K(t) - t y.
    Returns 0.0 when the bound is vacuous (y on the wrong side of the
    mean) and -inf when y is outside the support.  Any t inside the MGF
    strip gives a valid bound, so a point whose root is out of reach uses
    a t next to the strip end.  The bound is taken on the scaled form
    (``_scaled``), at y scaled alike.
    """
    ys = np.asarray(y, dtype=float)
    lo_s, hi_s = support(red)   # Q's own: _scaled may drop a group
    red, scale = _scaled(red)
    yy, lo_s, hi_s = np.atleast_1d(ys) / scale, lo_s / scale, hi_s / scale
    mean = float(np.sum(red.omega * (red.nu + red.delta2))) + red.const   # K'(0)
    if side == "right":
        outside, vacuous = yy >= hi_s, yy <= mean
    else:
        outside, vacuous = yy <= lo_s, yy >= mean
    out = np.where(outside, -math.inf, 0.0)
    solve = ~outside & ~vacuous
    if solve.any():
        y_s = yy[solve]
        t = _cgf_prime_root(red, y_s)
        miss = np.isnan(t)
        if miss.any():
            dom = mgf_domain(red)
            bnd = dom.t_right if side == "right" else dom.t_left
            t[miss] = bnd * (1 - 1e-9) if math.isfinite(bnd) else math.copysign(1e8, bnd)
        out[solve] = _cgf(red, t) - t * y_s
    return float(out[0]) if ys.ndim == 0 else out
