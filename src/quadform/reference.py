"""Independent validation engines: Monte Carlo sampling and a
grid-convolution CDF for small reduced forms.

Sampling is chunked (fixed chunk size, per-chunk seeds spawned from the
root SeedSequence) so results are reproducible from (seed, n) alone and
memory stays bounded.  The generator is numpy's PCG64; its name is
recorded in every result.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidInputError, NotApplicableError
from .forms import McResult, RatioSpec, RawComplexForm, RawForm, ReducedForm
from .ratio import moment_exists

CHUNK = 1 << 20


def _chunk_rngs(seed: int, n: int):
    n_chunks = (n + CHUNK - 1) // CHUNK
    seqs = np.random.SeedSequence(seed).spawn(n_chunks)
    sizes = [CHUNK] * (n_chunks - 1) + [n - CHUNK * (n_chunks - 1)]
    return [(np.random.Generator(np.random.PCG64(s)), m) for s, m in zip(seqs, sizes)]


def _draws(form, n: int, seed: int):
    """n draws of x ~ N(mu, Sigma), or CN(mu, Sigma) when the form's
    covariance factor is complex, in chunks: yields (rows, x)."""
    fac = form.sigma_factor
    pos = 0
    for rng, m in _chunk_rngs(seed, n):
        z = rng.standard_normal((m, fac.shape[1]))
        if np.iscomplexobj(fac):
            z = (z + 1j * rng.standard_normal((m, fac.shape[1]))) / math.sqrt(2.0)
        yield slice(pos, pos + m), form.mu[None, :] + z @ fac.T
        pos += m


def sample_raw(form: RawForm, n: int, seed: int) -> np.ndarray:
    """n draws of x'Ax + b'x + c, x ~ N(mu, Sigma)."""
    out = np.empty(n)
    for rows, x in _draws(form, n, seed):
        out[rows] = np.einsum("ij,jk,ik->i", x, form.a, x) + x @ form.b + form.c
    return out


def sample_raw_complex(form: RawComplexForm, n: int, seed: int) -> np.ndarray:
    """n draws of x^H A x + Re(b^H x) + c, x ~ CN(mu, Sigma)."""
    out = np.empty(n)
    for rows, x in _draws(form, n, seed):
        quad = np.einsum("ij,jk,ik->i", x.conj(), form.a, x).real
        out[rows] = quad + (x @ form.b.conj()).real + form.c
    return out


def sample_reduced(red: ReducedForm, n: int, seed: int) -> np.ndarray:
    """n draws of sum w chi2_nu(d2) + sigma N(0,1) + const.

    Noncentral chi-squares are built directly as (Z1 + d)^2 + sum Z_i^2,
    matching the completed-square construction of the reduction.
    """
    out = np.full(n, red.const)
    pos = 0
    for rng, m in _chunk_rngs(seed, n):
        acc = np.zeros(m)
        for w, nu, d2 in zip(red.omega, red.nu, red.delta2):
            z = rng.standard_normal((m, int(nu)))
            z[:, 0] += math.sqrt(d2)
            acc += w * np.einsum("ij,ij->i", z, z)
        if red.sigma_gauss > 0.0:
            acc += red.sigma_gauss * rng.standard_normal(m)
        out[pos:pos + m] += acc
        pos += m
    return out


def mc_cdf(form, q: float, n: int = 10**6, seed: int = 0) -> McResult:
    """Empirical CDF estimate at q with binomial standard error."""
    if n < 1:
        raise InvalidInputError("sample count n must be >= 1")
    if isinstance(form, RawForm):
        draws = sample_raw(form, n, seed)
    elif isinstance(form, RawComplexForm):
        draws = sample_raw_complex(form, n, seed)
    elif isinstance(form, ReducedForm):
        draws = sample_reduced(form, n, seed)
    else:
        raise InvalidInputError(f"cannot sample {type(form).__name__}")
    p_hat = float(np.mean(draws <= q))
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return McResult(p_hat, se, n, seed)


def sample_ratio(spec: RatioSpec, n: int, seed: int) -> np.ndarray:
    out = np.empty(n)
    for rows, x in _draws(spec, n, seed):
        out[rows] = (np.einsum("ij,jk,ik->i", x, spec.a, x)
                     / np.einsum("ij,jk,ik->i", x, spec.b, x))
    return out


def mc_ratio_moment(spec: RatioSpec, p: int, n: int = 10**6, seed: int = 0) -> McResult:
    """Sample mean of R^p with the jackknife standard error.

    For a plain mean the leave-one-out jackknife collapses to
    s / sqrt(n), which is what is computed (algebraically identical,
    without materializing n leave-one-out estimates).
    """
    if n < 1:
        raise InvalidInputError("sample count n must be >= 1")
    exist = moment_exists(spec, p)
    if not exist.exists:
        raise NotApplicableError(
            f"E[R^{p}] does not exist ({exist.condition})", condition="moment existence"
        )
    draws = sample_ratio(spec, n, seed) ** p
    est = float(np.mean(draws))
    if n > 1:
        se = float(np.std(draws, ddof=1) / math.sqrt(n))
    else:
        se = 0.0
    return McResult(est, se, n, seed)


def grid_cdf(red: ReducedForm, grid_step: float = 1e-3, span: float | None = None,
             tail_mass: float = 1e-10):
    """Reference CDF of a small reduced form by direct density convolution.

    Each scaled noncentral chi-square is discretized into exact per-cell
    probability masses (CDF differences), the mass vectors are convolved
    by FFT, and the cumulative sum is interpolated at cell edges;
    accuracy is O(grid_step^2) away from density singularities.  Only
    meant for L <= 3, sigma = 0.
    """
    from scipy import signal, stats  # heavy imports, needed only here

    if red.sigma_gauss != 0.0:
        raise NotApplicableError("grid reference requires sigma = 0", condition="sigma=0")
    if red.n_groups == 0 or red.n_groups > 3:
        raise NotApplicableError("grid reference supports 1 <= L <= 3", condition="small L")

    comps = []
    for w, nu, d2 in zip(red.omega, red.nu, red.delta2):
        hi_x = float(stats.ncx2.ppf(1.0 - tail_mass / 4.0, nu, d2) if d2 > 0
                     else stats.chi2.ppf(1.0 - tail_mass / 4.0, nu))
        comps.append((w, nu, d2, hi_x))
    if span is not None:
        need = max(abs(w) * hi_x for w, _, _, hi_x in comps)
        if span < need:
            raise InvalidInputError(
                f"span {span} leaves more than {tail_mass} of mass outside "
                f"(need at least {need:.3g})"
            )

    # per-cell masses treated as sitting at cell midpoints; convolution
    # then keeps the O(step^2) midpoint accuracy for the summed variable
    step = float(grid_step)
    mass = None
    origin = red.const
    n_comps = 0
    for w, nu, d2, hi_x in comps:
        n_cells = int(math.ceil(abs(w) * hi_x / step)) + 1
        x_edges = (np.arange(n_cells + 1) * step) / abs(w)
        cdf_vals = stats.ncx2.cdf(x_edges, nu, d2) if d2 > 0 else stats.chi2.cdf(x_edges, nu)
        cell = np.diff(cdf_vals)
        cell = np.append(cell, max(1.0 - cdf_vals[-1], 0.0))
        if w < 0:
            cell = cell[::-1]
            origin -= cell.size * step
        mass = cell if mass is None else signal.fftconvolve(mass, cell)
        n_comps += 1
    mass = np.clip(mass, 0.0, None)
    total = float(mass.sum())
    mass /= max(total, 1e-300)
    cum = np.cumsum(mass)
    pos = origin + step * (np.arange(mass.size) + 0.5 * n_comps)
    knots = cum - 0.5 * mass

    def cdf(q):
        return np.interp(q, pos, knots, left=0.0, right=1.0)

    cdf.grid_step = step
    cdf.support = (float(pos[0] - step), float(pos[-1] + step))
    return cdf
