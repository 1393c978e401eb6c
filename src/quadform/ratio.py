"""Distribution and moments of R = (x'Ax)/(x'Bx), x ~ N(mu, Sigma), B PSD.

The CDF and the density take a threshold r or an array of thresholds.
Both read the eigenpairs of the whitened pencil F'AF - r F'BF (Sigma =
FF', factored once per spec) from ``_pencil``: one stacked
eigendecomposition per chunk of thresholds.

CDF: P(R <= r) equals the CDF at zero of the indefinite form
x'(A - rB)x, completed at each threshold by ``reduction._complete``.

Density: Butler's saddlepoint approximation
f(r) ~= J_r(t0) M_{Q_r}(t0) / sqrt(2 pi K''_{Q_r}(t0)) with t0 the root
of K'_{Q_r} = 0 and J_r the tilted mean of the denominator form.  One
batched kernel evaluates it from the pencil's eigenpairs with the
library's one K'(t) = y solver (transforms._solve_cgf_prime, a
safeguarded Newton iteration), one row of weights per threshold.  The
normalising mass is integrated over the ratio's support only: the
interval of thresholds where A - rB takes both signs, its ends read from
one eigendecomposition of B (``_support_ends``).  One map takes every
support, bounded or not, to theta in [0, pi/2]: r = cot(phi) and
phi = phi_lo + (phi_hi - phi_lo) sin^2(theta).  A vectorised adaptive
21-point Gauss-Kronrod rule (QUADPACK's qk21), whose sweeps each evaluate
all open panels in one kernel call, takes it to relative accuracy 1e-6,
inside the approximation's own error; every density call computes its
own mass.

Moments: two routes, an infinite series in powers of (I - beta B) and a
one-dimensional integral (Laplace representation of the denominator
power), both built on recursions for quadratic-form product moments.
The integral runs on the same batched qk21 rule, with one stacked
eigendecomposition per sweep.

Series route, derived from the generating function below and validated
against closed-form and Monte Carlo oracles:

  h_{i,j}(A1, A2; m) are the Taylor coefficients of
      F(t1, t2) = |I - t1 A1 - t2 A2|^(-1/2)
                  * exp( (1/2) m' [ (I - t1 A1 - t2 A2)^(-1) - I ] m ),
  computed with the recursion over k = i + j
      G_{i,j} = A1 (h_{i-1,j} I + G_{i-1,j}) + A2 (h_{i,j-1} I + G_{i,j-1})
      g_{i,j} = G_{i,j} m + A1 g_{i-1,j} + A2 g_{i,j-1}
      h_{i,j} = [tr G_{i,j} + m' g_{i,j}] / (2 k),     h_{0,0} = 1.

  Central mean (m = 0):
      E[R^p] = p! Gamma(N/2) beta^p
               * sum_j (p)_j h_{p,j}(A, I - beta B) / Gamma(N/2 + p + j).
  General mean: E[R^p] = beta^p p! / Gamma(p)
               * int_0^1 u^(N/2-1) (1-u)^(p-1) e^{-(1-u)|m|^2/2}
                 sum_j (1-u)^j h_{p,j}(A, I - beta B; sqrt(u) m) du,
  evaluated with Gauss-Jacobi quadrature (the integrand apart from the
  weight is entire in u).
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import inversion, reduction, select, transforms
from .errors import (
    ConvergenceFailureError,
    DegenerateConstantError,
    DomainError,
    InvalidInputError,
    NotApplicableError,
    QuadFormError,
)
from .forms import (
    ZERO_EIG_TOL,
    MethodResult,
    MomentExistence,
    RatioSpec,
    RawForm,
)

DEFAULT_J_MAX = 500
_JACOBI_NODES = 48
_CHUNK = 256          # matrices per stacked eigendecomposition; bounds peak memory


def ratio_to_indefinite(spec: RatioSpec, r: float) -> RawForm:
    """The form x'(A - rB)x whose CDF at zero is the ratio CDF at r."""
    return RawForm(spec.a - r * spec.b, np.zeros(spec.dim), 0.0, spec.mu, spec.sigma_mat)


def _thresholds(r):
    """The thresholds of r as a 1-d array, the indices of its finite ones
    and whether r is a scalar."""
    rs = np.asarray(r, dtype=float)
    if np.isnan(rs).any():
        raise InvalidInputError("the ratio point r must not be NaN")
    pts = np.atleast_1d(rs)
    return pts, np.flatnonzero(np.isfinite(pts)), rs.ndim == 0


def _pencil(a, b, r):
    """(r_chunk, eigenvalues, eigenvectors) of the symmetrised a - r b, one
    stacked eigendecomposition per chunk of _CHUNK thresholds.  A row whose
    eigenvalues all lie within ZERO_EIG_TOL (|a| + |r| |b|) of 0 (Frobenius
    norms) vanishes up to rounding: its eigenvalues are set to 0."""
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    for i in range(0, r.size, _CHUNK):
        r_chunk = r[i:i + _CHUNK]
        m_r = a - r_chunk[:, None, None] * b
        lam, p = np.linalg.eigh((m_r + np.swapaxes(m_r, 1, 2)) / 2.0)
        noise = ZERO_EIG_TOL * (norm_a + np.abs(r_chunk) * norm_b)
        lam[np.max(np.abs(lam), axis=1, initial=0.0) <= noise] = 0.0
        yield r_chunk, lam, p


def _reduce_pencil(spec: RatioSpec, r):
    """x'(A - rB)x reduced at each threshold of the 1-d array r, in order
    (the constant value where no random part survives; 0 within
    ZERO_EIG_TOL of |mu'A mu| + |r mu'B mu|).  In the eigenbasis P of the
    pencil the linear term is d = 2P'(F'A mu - r F'B mu) and the constant
    mu'A mu - r mu'B mu, so mu need not lie in the range of Sigma.
    """
    f, mu = spec.sigma_factor, spec.mu
    fa, fb = f.T @ spec.a, f.T @ spec.b
    fa_mu, fb_mu = fa @ mu, fb @ mu
    ca, cb = float(mu @ spec.a @ mu), float(mu @ spec.b @ mu)
    for r_chunk, lam, p in _pencil(fa @ f, fb @ f, r):
        lin = fa_mu - r_chunk[:, None] * fb_mu
        d = 2.0 * (np.swapaxes(p, 1, 2) @ lin[:, :, None])[:, :, 0]
        for k, x in enumerate(r_chunk.tolist()):
            try:
                red = reduction._complete(lam[k], d[k], ca - x * cb)
            except DegenerateConstantError as exc:
                noise = ZERO_EIG_TOL * (abs(ca) + abs(x * cb))
                yield float(exc.value) if abs(exc.value) > noise else 0.0
            else:
                yield reduction.group_eigenvalues(red)


def cdf_ratio(spec: RatioSpec, r, method: str = "auto",
              tol: float = 1e-8) -> MethodResult | list[MethodResult]:
    """CDF of the ratio at r through the induced indefinite form at zero, by
    Imhof when method="auto" (the thresholds' forms are the rows of one
    ``inversion.cdf_imhof`` pass), else by ``select.cdf``.

    r is a threshold or an array of thresholds, as q of ``select.cdf``: an
    array gives a list, and the first failing point's error is raised.  NaN
    is invalid input; at r = +-inf the CDF is exactly 1 or 0.
    """
    pts, finite, scalar = _thresholds(r)
    out = [MethodResult(float(x > 0.0), 0.0, "ratio_support", "exact",
                        {"raw_value": float(x > 0.0), "threshold": x}) for x in pts.tolist()]
    forms = {}
    for i, red in zip(finite.tolist(), _reduce_pencil(spec, pts[finite])):
        if isinstance(red, float):
            v = 1.0 if red <= 0.0 else 0.0
            out[i] = MethodResult(v, 0.0, "degenerate", "exact", {"constant": red})
        else:
            forms[i] = red
    outcomes = (inversion.cdf_imhof(list(forms.values()), np.zeros(len(forms)), tol=tol)
                if method == "auto" else
                (select.cdf(red, 0.0, method, tol) for red in forms.values()))
    for i, res in zip(forms, outcomes):
        if isinstance(res, QuadFormError):
            raise res
        out[i] = MethodResult(res.value, res.error_bound, f"ratio_{res.method}", res.provenance,
                              dict(res.diagnostics, threshold=float(pts[i])))
    return out[0] if scalar else out


def _whiten(spec: RatioSpec, user: str = "moment methods need"):
    """Rewrite the ratio over a standard-normal vector.

    x = F y with F = spec.sigma_factor (Sigma = FF'), so A -> F'AF,
    B -> F'BF and y ~ N(m, I) with F m = mu.  The columns of F are
    orthogonal, so m = F'mu / |F_j|^2 columnwise; a singular Sigma needs mu
    in its range, so the forms stay complete in the reduced coordinates.
    The refusal names ``user``, the method that needs it.
    """
    f = spec.sigma_factor
    m = (f.T @ spec.mu) / np.sum(f * f, axis=0)
    if float(np.linalg.norm(f @ m - spec.mu)) > 1e-8 * (1.0 + float(np.linalg.norm(spec.mu))):
        raise InvalidInputError(f"{user} mu in the range of a singular covariance")
    return f.T @ spec.a @ f, f.T @ spec.b @ f, m


def moment_exists(spec: RatioSpec, p: int) -> MomentExistence:
    """Existence of E[R^p] by the eigenspace decision tree on B.

    PD denominator: always exists.  Otherwise with P2 spanning the null
    space of B: P2'AP2 != 0 -> exists iff 2p < rank(B); else
    P1'AP2 != 0 -> exists iff p < rank(B); else exists.
    """
    return _whitened_existence(spec, p)[0]


def _denominator_split(b):
    """Eigenpairs (w, u) of a whitened B and the mask of its nonzero
    eigenvalues, those above ZERO_EIG_TOL of the largest: u[:, keep] spans
    the range of B and u[:, ~keep] its null space."""
    w, u = np.linalg.eigh(b)
    return w, u, w > ZERO_EIG_TOL * float(np.max(np.abs(w), initial=0.0))


def _whitened_existence(spec: RatioSpec, p: int):
    """moment_exists(spec, p), the whitened (a, b, mu) it decided on and the
    eigenpairs (w, u) of that b."""
    if p < 1:
        raise InvalidInputError("moment order p must be a positive integer")
    a, b, mu = _whiten(spec)
    w, u, keep = _denominator_split(b)
    if not keep.any():
        raise InvalidInputError("denominator matrix is zero after whitening")
    r_b = int(keep.sum())
    if r_b == b.shape[0]:
        return MomentExistence(True, "denominator positive definite", r_b), (a, b, mu, w, u)
    p1 = u[:, keep]
    p2 = u[:, ~keep]
    a_scale = max(float(np.linalg.norm(a, 2)), 1e-300)
    if float(np.linalg.norm(p2.T @ a @ p2, 2)) > ZERO_EIG_TOL * a_scale:
        exist = MomentExistence(2 * p < r_b, "numerator quadratic in null(B)", r_b)
    elif float(np.linalg.norm(p1.T @ a @ p2, 2)) > ZERO_EIG_TOL * a_scale:
        exist = MomentExistence(p < r_b, "numerator linear in null(B)", r_b)
    else:
        exist = MomentExistence(True, "numerator avoids null(B)", r_b)
    return exist, (a, b, mu, w, u)


def _moment_prologue(spec: RatioSpec, p: int):
    """The whitened (a, b, mu) of both moment routes and the eigenpairs of b;
    NotApplicableError when E[R^p] does not exist."""
    exist, whitened = _whitened_existence(spec, p)
    if not exist.exists:
        raise NotApplicableError(
            f"E[R^{p}] does not exist ({exist.condition}, rank {exist.r_b})",
            condition="moment existence",
        )
    return whitened


def _product_moment_coeffs(a1, a2, mu, p, j_hi, mu_scales=None):
    """h_{p, 0..j_hi}(a1, a2; sqrt(s) mu) for each s in mu_scales.

    Vectorized over the mean scalings; returns an array of shape
    (len(mu_scales), j_hi + 1).  mu_scales=None means the plain mean.
    """
    n = a1.shape[0]
    scales = np.array([1.0]) if mu_scales is None else np.asarray(mu_scales, float)
    ns = scales.shape[0]
    central = mu is None or not np.any(mu != 0.0)
    mus = None if central else np.sqrt(scales)[:, None] * mu[None, :]

    h_rows = np.zeros((ns, p + 1, j_hi + 1))
    h_rows[:, 0, 0] = 1.0
    g_prev = {(0, 0): np.zeros((ns, n, n))}
    v_prev = None if central else {(0, 0): np.zeros((ns, n))}
    for k in range(1, p + j_hi + 1):
        g_cur = {}
        v_cur = {} if not central else None
        for i in range(max(0, k - j_hi), min(p, k) + 1):
            j = k - i
            gm = np.zeros((ns, n, n))
            if i >= 1 and (i - 1, j) in g_prev:
                gm += a1 @ g_prev[(i - 1, j)]
                gm += h_rows[:, i - 1, j][:, None, None] * a1[None, :, :]
            if j >= 1 and (i, j - 1) in g_prev:
                gm += a2 @ g_prev[(i, j - 1)]
                gm += h_rows[:, i, j - 1][:, None, None] * a2[None, :, :]
            tr = np.trace(gm, axis1=1, axis2=2)
            if central:
                h_rows[:, i, j] = tr / (2.0 * k)
            else:
                gv = (gm @ mus[:, :, None])[:, :, 0]
                if i >= 1 and (i - 1, j) in v_prev:
                    gv += v_prev[(i - 1, j)] @ a1.T
                if j >= 1 and (i, j - 1) in v_prev:
                    gv += v_prev[(i, j - 1)] @ a2.T
                v_cur[(i, j)] = gv
                h_rows[:, i, j] = (tr + np.einsum("sn,sn->s", mus, gv)) / (2.0 * k)
            g_cur[(i, j)] = gm
        g_prev = g_cur
        if not central:
            v_prev = v_cur
    return h_rows[:, p, :]


def _series_weights_central(n_dim, p, j_hi, beta):
    """log of p! Gamma(N/2) beta^p (p)_j / Gamma(N/2 + p + j), j = 0..j_hi."""
    j = np.arange(j_hi + 1)
    return (
        math.lgamma(p + 1) + math.lgamma(n_dim / 2.0) + p * math.log(beta)
        + special.gammaln(p + j) - math.lgamma(p)
        - special.gammaln(n_dim / 2.0 + p + j)
    )


def ratio_moment_series(spec: RatioSpec, p: int, beta: float | None = None,
                        j_max: int = DEFAULT_J_MAX, tol: float = 1e-9) -> MethodResult:
    """E[R^p] by the power-series route (denominator expanded about beta).

    beta must lie in (0, 2/b_max); the default 1/b_max centres the
    admissible interval.  Truncation stops when a geometric remainder
    estimate from the trailing term ratios falls below tol.
    """
    a, b, mu, b_eigs, _ = _moment_prologue(spec, p)
    n = a.shape[0]
    b_max = float(b_eigs.max())
    b_min = float(np.clip(b_eigs.min(), 0.0, None))
    if b_max <= 0:
        raise InvalidInputError("denominator matrix is zero")
    if beta is None:
        # equioscillation optimum of max|1 - beta b_i|; reduces to the
        # interval midpoint 1/b_max when B is singular
        beta = 2.0 / (b_max + b_min) if b_min > 1e-12 * b_max else 1.0 / b_max
    else:
        beta = float(beta)
    if not 0.0 < beta < 2.0 / b_max:
        raise InvalidInputError(f"beta must lie in (0, {2.0 / b_max:.6g})")
    b_hat = np.eye(n) - beta * b

    central = not np.any(mu != 0.0)
    mu_norm2 = float(mu @ mu)
    if central:
        nodes = scales = None
    else:
        xg, wg = special.roots_jacobi(_JACOBI_NODES, p - 1.0, n / 2.0 - 1.0)
        nodes = (1.0 + xg) / 2.0
        scales = wg * 2.0 ** (1.0 - p - n / 2.0)

    block = 64
    j_hi = min(block, j_max)
    total = 0.0
    terms_hist = []
    while True:
        h = _product_moment_coeffs(a, b_hat, None if central else mu, p, j_hi,
                                   mu_scales=None if central else nodes)
        if central:
            logw = _series_weights_central(n, p, j_hi, beta)
            terms = np.exp(logw) * h[0]
        else:
            # E[R^p] = beta^p p!/Gamma(p) sum_j int u^{N/2-1}(1-u)^{p+j-1}
            #          e^{-(1-u)|mu|^2/2} h_j(sqrt(u) mu) du
            j = np.arange(j_hi + 1)
            fac = (1.0 - nodes)[:, None] ** j[None, :] * np.exp(
                -0.5 * (1.0 - nodes[:, None]) * mu_norm2
            )
            quad = (scales[:, None] * fac * h).sum(axis=0)
            pref = math.exp(p * math.log(beta) + math.lgamma(p + 1) - math.lgamma(p))
            terms = pref * quad
        total = float(terms.sum())
        tail = np.abs(terms[-10:])
        scale = tol * max(abs(total), 1e-300)
        # geometric remainder estimate from trailing ratios; once the terms
        # sink into the roundoff floor the ratios are noise, so a plateau of
        # uniformly negligible terms also stops the summation
        ratios = tail[1:] / np.where(tail[:-1] > 0, tail[:-1], np.inf)
        rho = float(np.max(ratios)) if np.all(np.isfinite(ratios)) else 1.0
        last = float(tail[-1])
        geometric_ok = rho < 1.0 and last / max(1.0 - rho, 1e-12) < scale
        plateau_ok = bool(np.max(tail) < scale / 10.0)
        if geometric_ok or plateau_ok:
            if geometric_ok:
                remainder = last * rho / max(1.0 - rho, 1e-12)
            else:
                remainder = 10.0 * float(np.max(tail))
            return MethodResult(
                total, float(remainder), "bao_kan_series", "heuristic",
                {"j_truncation": j_hi, "beta": beta, "remainder_estimate": remainder,
                 "whitened_dim": n},
            )
        if j_hi >= j_max:
            res = MethodResult(total, float(last), "bao_kan_series", "heuristic",
                               {"j_truncation": j_hi, "beta": beta,
                                "whitened_dim": n})
            raise ConvergenceFailureError(
                f"moment series not converged at j_max={j_max}", result=res
            )
        j_hi = min(2 * j_hi, j_max)


def _inner_moments(lam, means, p):
    """d_p = E[(w'Cw)^p] / (2^p p!) for w ~ N(means, I), C = diag(lam), one
    value per row of lam and means.

    Recursion: u_{n,k} = lam_n (d_{k-1} + u_{n,k-1}),
    v_{n,k} = lam_n v_{n,k-1} + means_n^2 u_{n,k},
    d_k = sum_n (u_{n,k} + v_{n,k}) / (2k).
    """
    h2 = means**2
    d = np.ones(lam.shape[0])
    u = np.zeros_like(lam)
    v = np.zeros_like(lam)
    for k in range(1, p + 1):
        u = lam * (d[:, None] + u)
        v = lam * v + h2 * u
        d = np.sum(u + v, axis=1) / (2.0 * k)
    return d


def ratio_moment_integral(spec: RatioSpec, p: int,
                          quadrature_tol: float = 1e-10) -> MethodResult:
    """E[R^p] = Gamma(p)^{-1} int_0^inf t^{p-1} phi(t) E[(w'Cw)^p] dt.

    phi(t) = |I + 2tB|^{-1/2} exp( (1/2) mu'[(I+2tB)^{-1} - I] mu ),
    C = L A L with L = (I + 2tB)^{-1/2}, w ~ N(L mu, I); the inner
    product moment uses the eigendecomposition of C at each t.

    The integral is mapped onto (0, 1) by t = (s/(1-s))^2.  At infinity
    the integrand is a series in powers of t^(-1/2) = (1-s)/s, so in s it
    is smooth up to s = 1.  (Under t = s/(1-s) half-integer powers of
    (1 - s) remain: an odd rank of B leaves an infinite derivative at
    s = 1, and rank 1 an integrable infinity that bisection cannot
    resolve.)  It is evaluated by the same vectorised adaptive 21-point
    Gauss-Kronrod rule (QUADPACK's qk21) that normalises the saddlepoint
    density: each sweep evaluates all new panels with one stacked
    eigendecomposition of C.
    """
    a, _, mu, wb, ub = _moment_prologue(spec, p)
    wb = np.clip(wb, 0.0, None)
    a_rot = ub.T @ a @ ub
    mu_rot = ub.T @ mu
    log_const = p * math.log(2.0) + math.lgamma(p + 1.0) - math.lgamma(p)

    def nodes(s):
        x = s / (1.0 - s)
        t = x * x
        tw = 2.0 * t[:, None] * wb
        inv_sqrt = 1.0 / np.sqrt(1.0 + tw)
        c = (inv_sqrt[:, :, None] * a_rot) * inv_sqrt[:, None, :]
        lam, q_eig = np.linalg.eigh(c)
        means = (np.swapaxes(q_eig, 1, 2) @ (inv_sqrt * mu_rot)[:, :, None])[:, :, 0]
        log_phi = (-0.5 * np.sum(np.log1p(tw), axis=1)
                   - 0.5 * np.sum((1.0 - inv_sqrt**2) * mu_rot**2, axis=1))
        val = np.exp((p - 1.0) * np.log(t) + log_phi + log_const)
        return val * _inner_moments(lam, means, p) * 2.0 * x / (1.0 - s) ** 2

    def integrand(s):
        return np.concatenate([nodes(s[i:i + _CHUNK]) for i in range(0, s.size, _CHUNK)])

    val, err = _gauss_kronrod(integrand, [0.0, 1.0], epsabs=quadrature_tol,
                              epsrel=quadrature_tol, limit=500)
    if not math.isfinite(val) or err > max(quadrature_tol, 1e-6 * abs(val)) * 100:
        res = MethodResult(val, float(err), "magnus_integral", "heuristic",
                           {"quad_error": err})
        raise ConvergenceFailureError("moment quadrature did not converge", result=res)
    return MethodResult(float(val), float(err), "magnus_integral", "heuristic",
                        {"quad_error": err, "whitened_dim": a.shape[0]})


# QUADPACK's 21-point Gauss-Kronrod rule (qk21): the nodes on [0, 1] in
# descending order with their Kronrod weights, and the weights of the
# embedded 10-point Gauss rule at the nodes _XGK[1::2]
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208980223537, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
# the same rule on [-1, 1] in ascending order; the Gauss nodes sit at the
# odd positions
_GK_X = np.concatenate([-_XGK[:10], _XGK[::-1]])
_GK_W = np.concatenate([_WGK[:10], _WGK[::-1]])
_G_W = np.concatenate([_WG, _WG[::-1]])

_MASS_LIMIT = 300     # panels of the normalising quadrature
_OK, _VANISHES, _OUTSIDE = 0, 1, 2


def _butler_chunk(b, mu, r, lam, p_eig):
    """_butler_kernel on one chunk of ``_pencil``."""
    delta = mu @ p_eig                                   # rows P'mu
    h_mat = np.swapaxes(p_eig, 1, 2) @ (b @ p_eig)       # P'BP
    scale = np.max(np.abs(lam), axis=1)
    # complete form: zero-eigenvalue directions drop out of K entirely
    nonzero = np.abs(lam) > ZERO_EIG_TOL * scale[:, None]
    w = np.where(nonzero, lam, 0.0)
    d2 = np.where(nonzero, delta, 0.0) ** 2
    straddles = np.any(w > 0.0, axis=1) & np.any(w < 0.0, axis=1)
    status = np.where(scale > 0.0, np.where(straddles, _OK, _OUTSIDE), _VANISHES)
    ok = status == _OK
    value = np.zeros(r.size)
    t0 = np.full(r.size, math.nan)
    j_r = np.full(r.size, math.nan)
    if np.any(ok):
        w, d2, lam, delta, h_mat = w[ok], d2[ok], lam[ok], delta[ok], h_mat[ok]
        # K'_{Q_r}(t) = 0 on the strip (1/(2 min w), 1/(2 max w)), which holds 0
        t = transforms._solve_cgf_prime(w, 1.0, d2, np.zeros(w.shape[0]),
                                        0.5 / np.min(w, axis=1), 0.5 / np.max(w, axis=1))
        g = 1.0 - 2.0 * w * t[:, None]
        k0 = np.sum(-0.5 * np.log(g) + t[:, None] * d2 * w / g, axis=1)
        k2 = 2.0 * np.sum(w**2 * (1.0 / g**2 + 2.0 * d2 / g**3), axis=1)
        g_full = 1.0 / (1.0 - 2.0 * t[:, None] * lam)
        gd = g_full * delta
        j = (np.sum(g_full * np.diagonal(h_mat, axis1=1, axis2=2), axis=1)
             + (gd[:, None, :] @ h_mat @ gd[:, :, None])[:, 0, 0])
        value[ok] = j * np.exp(k0 - 0.5 * np.log(2.0 * math.pi * k2))
        t0[ok], j_r[ok] = t, j
    return value, t0, j_r, status


def _butler_kernel(a, b, mu, r):
    """Unnormalized Butler density at every threshold of r, in whitened
    coordinates.

    The eigenpairs of A - rB come from ``_pencil``, one vectorised
    saddlepoint solve per chunk.  Returns arrays
    (value, t0, j_r, status): status is _VANISHES where A - rB is zero and
    _OUTSIDE where 0 is not strictly inside the support of Q_r; the value
    there is 0 and t0, j_r are nan.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        parts = [_butler_chunk(b, mu, *chunk) for chunk in _pencil(a, b, r)]
    return tuple(np.concatenate(arrs) for arrs in zip(*parts))


def _raise_for_status(status, r) -> None:
    """The scalar error of the first threshold the kernel could not evaluate."""
    bad = np.flatnonzero(status != _OK)
    if bad.size == 0:
        return
    i = int(bad[0])
    if status[i] == _VANISHES:
        raise NotApplicableError("A - rB vanishes; ratio is degenerate at r",
                                 condition="nondegenerate form")
    raise DomainError(f"r={float(r[i])} outside the support of the ratio: "
                      "x'(A - rB)x does not take both signs")


def _qk21(f, lo, hi):
    """21-point Gauss-Kronrod estimates on the panels [lo, hi], with
    QUADPACK's error estimate; f is evaluated on all panels in one call."""
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fx = f((centre[:, None] + half[:, None] * _GK_X).ravel()).reshape(lo.size, _GK_X.size)
    resk = fx @ _GK_W
    resg = fx[:, 1::2] @ _G_W
    resabs = np.abs(fx) @ _GK_W * np.abs(half)
    resasc = np.abs(fx - 0.5 * resk[:, None]) @ _GK_W * np.abs(half)
    err = np.abs((resk - resg) * half)
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * err / resasc) ** 1.5)
    err = np.where((resasc != 0.0) & (err != 0.0), scaled, err)
    eps = np.finfo(float).eps
    err = np.where(resabs > np.finfo(float).tiny / (50.0 * eps),
                   np.maximum(50.0 * eps * resabs, err), err)
    return resk * half, err


def _gauss_kronrod(f, points, epsabs, epsrel, limit):
    """Adaptive 21-point Gauss-Kronrod quadrature of a vectorised f over
    [points[0], points[-1]], split at the inner points.

    Globally adaptive like QUADPACK's QAG, in sweeps: each sweep bisects
    the panels with the largest error estimates, just as many as the
    others' errors leave room for under the tolerance, and evaluates all
    new panels in one call of f.  Stops at the tolerance, at `limit`
    panels, or at a non-finite estimate.  Returns (integral, error).
    """
    lo = np.asarray(points[:-1], dtype=float)
    hi = np.asarray(points[1:], dtype=float)
    val, err = _qk21(f, lo, hi)
    while True:
        total, total_err = float(val.sum()), float(err.sum())
        tol = max(epsabs, epsrel * abs(total))
        if total_err <= tol or lo.size >= limit or not math.isfinite(total_err):
            return total, total_err
        order = np.argsort(err)[::-1]
        n_split = int(np.searchsorted(np.cumsum(err[order]), total_err - tol)) + 1
        split = order[:min(n_split, limit - lo.size)]
        keep = np.ones(lo.size, bool)
        keep[split] = False
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_val, new_err = _qk21(f, new_lo, new_hi)
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        val = np.concatenate([val[keep], new_val])
        err = np.concatenate([err[keep], new_err])


def _support_ends(a, b):
    """(l, u), the ends of the set of thresholds r where the whitened
    A - rB takes both signs: an interval, either end possibly infinite.

    In the eigenbasis (P1, P2) of B, with D its nonzero eigenvalues and
    A11, A12, A22 the blocks of A: for a positive definite B the ends are
    the extreme eigenvalues of D^(-1/2) A11 D^(-1/2).  Otherwise A - rB has
    a positive direction at every r unless A22 = P2'AP2 is negative
    definite, and a negative one unless A22 is positive definite.  A
    definite A22 bounds that side at the extreme eigenvalue of
    D^(-1/2) S D^(-1/2), S = A11 - A12 A22^(-1) A21 (a semidefinite A22
    leaves it infinite).  A threshold the kernel evaluates lies inside.
    """
    w, u, keep = _denominator_split(b)
    p1, p2 = u[:, keep], u[:, ~keep]
    s = p1.T @ a @ p1
    bounded_below = bounded_above = True
    if p2.shape[1]:
        a12, a22 = p1.T @ a @ p2, p2.T @ a @ p2
        e22 = np.linalg.eigvalsh(a22)
        tol = ZERO_EIG_TOL * float(np.linalg.norm(a, 2))
        bounded_below, bounded_above = bool(e22[0] > tol), bool(e22[-1] < -tol)
        if not (bounded_below or bounded_above):
            return -math.inf, math.inf
        s = s - a12 @ np.linalg.solve(a22, a12.T)
    half = 1.0 / np.sqrt(w[keep])
    ends = np.linalg.eigvalsh(half[:, None] * s * half[None, :])
    return (float(ends[0]) if bounded_below else -math.inf,
            float(ends[-1]) if bounded_above else math.inf)


def _spa_mass(a, b, mu) -> tuple[float, int]:
    """Total mass of the unnormalized Butler density and the number of
    kernel evaluations it took.

    The integral runs over the support (l, u) only (``_support_ends``), in
    angle coordinates: r = cot(phi) with phi in [arccot u, arccot l], a
    subinterval of [0, pi], and phi = phi_lo + (phi_hi - phi_lo) sin^2(theta)
    for theta in [0, pi/2].  Bounded, half-bounded and unbounded supports
    take the one map; the sin^2 factor smooths both the powers of (r - l)
    at a finite end and the algebraic decay at an infinite one.  It is
    evaluated by the vectorised adaptive Gauss-Kronrod rule to relative
    accuracy 1e-6, well inside the saddlepoint's own error.

    The mass is nan when the quadrature cannot produce a usable one; the
    caller then skips normalization.
    """
    lo, hi = _support_ends(a, b)
    # arccot x = pi/2 - arctan x, so arccot(+inf) = 0 and arccot(-inf) = pi
    phi_lo = 0.5 * math.pi - math.atan(hi)
    width = math.atan(hi) - math.atan(lo)
    nodes = 0

    def integrand(theta):
        nonlocal nodes
        nodes += theta.size
        sin_theta = np.sin(theta)
        phi = phi_lo + width * sin_theta * sin_theta
        sin_phi = np.sin(phi)
        jac = width * np.sin(2.0 * theta) / sin_phi**2
        return _butler_kernel(a, b, mu, np.cos(phi) / sin_phi)[0] * jac

    try:
        val, err = _gauss_kronrod(integrand, [0.0, 0.5 * math.pi], epsabs=1e-7,
                                  epsrel=1e-6, limit=_MASS_LIMIT)
    except np.linalg.LinAlgError:
        # eigh did not converge on some node
        return math.nan, nodes
    if not math.isfinite(val) or val <= 0.0 or err > 0.05 * val:
        return math.nan, nodes
    return float(val), nodes


def pdf_ratio_spa(spec: RatioSpec, r) -> MethodResult | list[MethodResult]:
    """Butler's saddlepoint density of the ratio at r, a threshold or an
    array of thresholds (results and errors as in ``cdf_ratio``).

    f(r) is the module docstring's, with Lam the eigenvalues of the whitened
    A - rB and, in its eigenbasis, H the denominator matrix and d the mean:
    J_r(t) = tr[(I-2t Lam)^{-1} H] + d'(I-2t Lam)^{-1} H (I-2t Lam)^{-1} d.

    The raw formula is exact only up to a Stirling-type factor that is
    constant in r for central ratios, so the density is divided by its
    total mass (``_spa_mass``, once per call).  The raw value, the mass and
    the kernel evaluations it took ("normalization_nodes") stay in
    diagnostics; diagnostics["normalized"] says whether the division
    happened (not when the mass is unusable).  A point outside the
    support raises DomainError, a point where A - rB vanishes
    NotApplicableError.  At r = +-inf the density is exactly 0.
    """
    pts, finite, scalar = _thresholds(r)
    a, b, mu = _whiten(spec, "the saddlepoint density needs")
    out = [MethodResult(0.0, 0.0, "ratio_support", "exact", {"threshold": x})
           for x in pts.tolist()]
    if finite.size:
        raw, t0, j_r, status = _butler_kernel(a, b, mu, pts[finite])
        _raise_for_status(status, pts[finite])
        # _spa_mass gives a positive mass or nan
        mass, nodes = _spa_mass(a, b, mu)
        normalized = math.isfinite(mass)
        for j, i in enumerate(finite.tolist()):
            diagnostics = {"t0": float(t0[j]), "correction": float(j_r[j]),
                           "threshold": float(pts[i]), "raw_value": float(raw[j]),
                           "normalized": normalized, "normalization_mass": mass,
                           "normalization_nodes": nodes}
            value = float(raw[j]) / mass if normalized else float(raw[j])
            out[i] = MethodResult(value, None, "ratio_spa", "approximate", diagnostics)
    return out[0] if scalar else out
