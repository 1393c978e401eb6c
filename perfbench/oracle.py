"""High-precision reference values that share no code with ``quadform``.

Quadratic forms.  Q = sum_l w_l chi2_{nu_l}(d2_l) + sigma N(0,1) + const has
the moment generating function

    M(s) = exp(s const + sigma^2 s^2 / 2)
           * prod_l (1 - 2 w_l s)^(-nu_l / 2) exp(d2_l w_l s / (1 - 2 w_l s)).

With x = q - const, the CDF and density are Laplace-inversion integrals
along a contour that crosses the real axis once, at c, inside the strip
where M is finite:

    P(Q > q)  =  (1 / 2 pi i) int M(s) e^(-s x) / s ds     (c > 0)
    P(Q <= q) = -(1 / 2 pi i) int M(s) e^(-s x) / s ds     (c < 0)
    f(q)      =  (1 / 2 pi i) int M(s) e^(-s x) ds.

Without a Gaussian term the contour is the parabola s = c + a y^2 + i y,
bent towards the side where e^(-s x) decays, so the integrand falls off
like exp(-|x| a y^2) instead of the slow algebraic decay of the classical
inversion integral.  The parabola meets the real axis only at c, so it
never crosses the branch cuts, which run from the poles 1/(2 w_l) away
from the origin along the real axis.  With a Gaussian term the factor
exp(sigma^2 s^2 / 2) already decays on a vertical line, which is used
instead.  By conjugate symmetry each integral is (1/pi) times an integral
of an imaginary part over y in [0, inf), done by Gauss-Legendre
``mpmath.quad`` at 30 significant digits; c is the saddlepoint of
K(s) - s x.

Ratios.  P(R <= r) = P(x'(A - rB)x <= 0).  The form A - rB is whitened
and diagonalised by ``mpmath.eigsy`` at 30 digits and inverted as above.

Ratio moments.  E[R^p] = Gamma(p)^-1 int_0^inf t^(p-1) E[(x'Ax)^p e^(-t x'Bx)] dt,
with the inner expectation in closed form: tilting N(m, I) by
exp(-t x'Bx) gives the factor |P|^(-1/2) exp(-m'(I - P^-1)m / 2) and the
law N(P^-1 m, P^-1), P = I + 2tB, whose first two quadratic-form moments
are textbook formulas.  The t-integral is done by ``scipy.integrate.quad``.
The library computes the same integral through a per-t eigendecomposition
and a moment recursion, and its series route shares nothing with it.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, optimize

DPS = 30


class OracleError(RuntimeError):
    """The reference integral did not reach its own accuracy target."""


def _strip(omega) -> tuple[float, float]:
    """Open interval of real s on which M(s) is finite."""
    pos = [w for w in omega if w > 0]
    neg = [w for w in omega if w < 0]
    hi = 1.0 / (2.0 * max(pos)) if pos else math.inf
    lo = 1.0 / (2.0 * min(neg)) if neg else -math.inf
    return lo, hi


def _saddlepoint(omega, nu, delta2, sigma, x, lo, hi) -> float:
    """Root of K'(t) = x in (lo, hi) in double precision, clipped to the strip.

    Any c in the strip gives the exact value; the saddlepoint only keeps
    the integrand free of cancellation.
    """
    w = np.asarray(omega, float)
    n = np.asarray(nu, float)
    d = np.asarray(delta2, float)

    def kprime(t):
        g = 1.0 - 2.0 * w * t
        return float(np.sum(n * w / g + d * w / g**2)) + sigma**2 * t - x

    eps = 1e-12
    a = lo + eps * abs(lo) if math.isfinite(lo) else -1.0
    b = hi - eps * abs(hi) if math.isfinite(hi) else 1.0
    while not math.isfinite(lo) and kprime(a) > 0.0 and a > -1e300:
        a *= 2.0
    while not math.isfinite(hi) and kprime(b) < 0.0 and b < 1e300:
        b *= 2.0
    if kprime(a) > 0.0:
        return a
    if kprime(b) < 0.0:
        return b
    return optimize.brentq(kprime, a, b, xtol=1e-300, rtol=1e-14)


def _contour(omega, nu, delta2, sigma, x, cumulative):
    """Crossing point c, signed bend a and the length scales of the contour."""
    lo, hi = _strip(omega)
    t0 = _saddlepoint(omega, nu, delta2, sigma, x, lo, hi)
    poles = [1.0 / (2.0 * w) for w in omega]
    c = t0
    if cumulative:
        # keep the crossing away from the pole of 1/s at the origin
        reach = min(hi, -lo)
        if not math.isfinite(reach):
            reach = 1.0 / max(sigma, 1e-300)
        if abs(c) < 0.2 * reach:
            c = 0.2 * reach if math.isfinite(hi) or not math.isfinite(lo) else -0.2 * reach
        poles.append(0.0)
    dist = min(abs(c - p) for p in poles) if poles else 1.0
    w = np.asarray(omega, float)
    g = 1.0 - 2.0 * w * c
    k2 = float(np.sum(2.0 * np.asarray(nu) * w**2 / g**2
                      + 4.0 * np.asarray(delta2) * w**2 / g**3)) + sigma**2
    bend = 0.0
    scales = [dist, 1.0 / math.sqrt(k2)]
    # an x within rounding of zero (a ratio threshold) gives no usable
    # damping; the vertical line and its algebraic decay are used instead
    x_scale = float(np.sum(np.abs(w) * (np.asarray(nu) + np.asarray(delta2)))) + sigma
    if sigma == 0.0 and abs(x) > 1e-9 * x_scale:
        bend = math.copysign(1.0 / (4.0 * dist), x)
        scales.append(1.0 / math.sqrt(abs(x * bend)))
    else:
        scales.append(max(dist, 1.0 / math.sqrt(k2)) * 64.0)
    return c, bend, sorted(scales)


def _form_integral(omega, nu, delta2, sigma, x, cumulative, fine=False):
    """(c, value, error estimate) of the contour integral.

    The y-range is split at the contour's length scales; ``fine`` splits
    it further and uses tanh-sinh, for integrands Gauss-Legendre misses."""
    c, bend, scales = _contour(omega, nu, delta2, sigma, x, cumulative)
    if fine:
        pts = [0.0] + sorted({s * f for s in scales for f in (0.25, 1.0, 4.0)}) + [math.inf]
    else:
        pts = [0.0, scales[0], scales[-1], math.inf]
    method = "gauss-legendre" if bend and not fine else "tanh-sinh"
    with mpmath.workdps(DPS):
        om = [mpmath.mpf(float(v)) for v in omega]
        ns = [mpmath.mpf(int(v)) for v in nu]
        ds = [mpmath.mpf(float(v)) for v in delta2]
        sig2 = mpmath.mpf(float(sigma)) ** 2 / 2
        xm = mpmath.mpf(float(x))
        cm = mpmath.mpf(c)
        am = mpmath.mpf(bend)

        def f(y):
            s = mpmath.mpc(cm + am * y * y, y)
            acc = sig2 * s * s - s * xm
            for w, n, d in zip(om, ns, ds):
                g = 1 - 2 * w * s
                acc += d * w * s / g - n * mpmath.log(g) / 2
            val = mpmath.exp(acc) * mpmath.mpc(2 * am * y, 1)
            if cumulative:
                val /= s
            return val.imag

        val, err = mpmath.quad(f, [mpmath.mpf(p) for p in pts], error=True, method=method)
        val = val / mpmath.pi
        err = err / mpmath.pi
    return c, val, err


def form_value(quantity, omega, nu, delta2, sigma, const, q, tol=1e-14):
    """Reference CDF or density of a reduced form at q, as a float.

    Raises OracleError when mpmath's error estimate, for a density times
    the form's standard deviation, exceeds ``tol``.
    """
    x = float(q) - float(const)
    has_pos = any(w > 0 for w in omega)
    has_neg = any(w < 0 for w in omega)
    if sigma == 0.0 and ((not has_neg and x <= 0.0) or (not has_pos and x >= 0.0)):
        if quantity == "pdf":
            return 0.0
        return 0.0 if x <= 0.0 and not has_neg else 1.0
    if quantity == "pdf":
        w = np.asarray(omega, float)
        tol /= math.sqrt(float(np.sum(2.0 * w**2 * (np.asarray(nu) + 2.0 * np.asarray(delta2))))
                         + sigma**2)
    c, val, err = _form_integral(omega, nu, delta2, sigma, x, quantity == "cdf")
    if err > tol:
        c, val, err = _form_integral(omega, nu, delta2, sigma, x, quantity == "cdf", fine=True)
    if err > tol:
        raise OracleError(f"{quantity} reference at q={q}: error estimate {float(err):.2e}")
    if quantity == "pdf":
        return float(val)
    return float(1 - val) if c > 0 else float(-val)


def ratio_form(a, b, mu, sigma_mat, r):
    """Reduced parameters (omega, nu, delta2, sigma) of x'(A - rB)x at 30 digits."""
    n = len(a)
    with mpmath.workdps(DPS):
        sig = mpmath.matrix([[mpmath.mpf(float(v)) for v in row] for row in sigma_mat])
        if all(sigma_mat[i][j] == 0 for i in range(n) for j in range(n) if i != j):
            root = mpmath.diag([mpmath.sqrt(sig[i, i]) for i in range(n)])
        else:
            ev, evec = mpmath.eigsy(sig)
            root = evec * mpmath.diag([mpmath.sqrt(max(v, 0)) for v in ev]) * evec.T
        m = mpmath.matrix([[mpmath.mpf(float(a[i][j])) - mpmath.mpf(float(r))
                            * mpmath.mpf(float(b[i][j])) for j in range(n)]
                           for i in range(n)])
        lam, vec = mpmath.eigsy(root * m * root)
        # x = mu + root z: the linear term 2 mu'(A - rB) root z sits on the
        # eigenvectors; mu must lie in range(root) for a nonsingular sigma_mat
        mu_m = mpmath.matrix([mpmath.mpf(float(v)) for v in mu])
        lin = vec.T * (root * (m * mu_m) * 2)
        const = (mu_m.T * m * mu_m)[0]
        scale = max(abs(v) for v in lam)
        omega, delta2, var = [], [], mpmath.mpf(0)
        for i in range(n):
            if abs(lam[i]) <= mpmath.mpf("1e-20") * scale:
                var += lin[i] ** 2
                continue
            h = lin[i] / (2 * lam[i])
            omega.append(lam[i])
            delta2.append(h * h)
            const -= lam[i] * h * h
        return ([float(w) for w in omega], [1] * len(omega), [float(d) for d in delta2],
                float(mpmath.sqrt(var)), float(const))


def ratio_cdf(a, b, mu, sigma_mat, r, tol=1e-14):
    omega, nu, delta2, sigma, const = ratio_form(a, b, mu, sigma_mat, r)
    return form_value("cdf", omega, nu, delta2, sigma, const, 0.0, tol)


def ratio_moment(a, b, mu, sigma_mat, p):
    """E[(x'Ax / x'Bx)^p] for p in {1, 2} by the Laplace route with
    closed-form tilted moments (see the module docstring)."""
    if p not in (1, 2):
        raise ValueError("closed-form inner moments cover p = 1 and 2")
    sig = np.asarray(sigma_mat, float)
    w, u = np.linalg.eigh(sig)
    root = (u * np.sqrt(np.clip(w, 0.0, None))) @ u.T
    inv_root = (u * (1.0 / np.sqrt(w))) @ u.T
    a_w = root @ np.asarray(a, float) @ root
    b_w = root @ np.asarray(b, float) @ root
    m = inv_root @ np.asarray(mu, float)
    bw, bv = np.linalg.eigh((b_w + b_w.T) / 2.0)
    bw = np.clip(bw, 0.0, None)
    a_r = bv.T @ a_w @ bv
    m_r = bv.T @ m

    def inner(t):
        d = 1.0 / (1.0 + 2.0 * t * bw)            # P^-1, diagonal here
        log_phi = -0.5 * float(np.sum(np.log1p(2.0 * t * bw))) \
            - 0.5 * float(np.sum((1.0 - d) * m_r**2))
        nu_t = d * m_r
        a_s = a_r * d[None, :]                     # A S
        m1 = float(np.trace(a_s)) + float(nu_t @ a_r @ nu_t)
        if p == 1:
            mom = m1
        else:
            an = a_r @ nu_t
            mom = m1 * m1 + 2.0 * float(np.sum(a_s * a_s.T)) + 4.0 * float(an @ (d * an))
        return math.exp(log_phi) * mom * t ** (p - 1) / math.gamma(p)

    def mapped(v):
        # t = v / (1 - v) maps (0, inf) onto (0, 1)
        if v >= 1.0:
            return 0.0
        t = v / (1.0 - v)
        return inner(t) / (1.0 - v) ** 2

    val, err = integrate.quad(mapped, 0.0, 1.0, epsabs=0.0, epsrel=1e-12, limit=400)
    return float(val), float(err)


def ratio_pdf(a, b, mu, sigma_mat, r, scale):
    """Density of R at r as the central difference of the reference CDF,
    step 1e-5 * scale (relative truncation error of order 1e-10)."""
    h = 1e-5 * scale
    return (ratio_cdf(a, b, mu, sigma_mat, r + h) - ratio_cdf(a, b, mu, sigma_mat, r - h)) / (2 * h)
