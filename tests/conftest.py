"""Shared generators for randomized checks.

Forms are kept small (N <= 8) and reasonably conditioned: weights in
[0.2, 3] in magnitude, eigenvalue ratios bounded, so every method under
test stays inside its honest-resource envelope.
"""

import numpy as np
import pytest

import quadform as qf
from quadform import transforms


def make_rng(seed):
    return np.random.default_rng(seed)


def random_reduced(rng, definite=None, central=None, gaussian=False,
                   min_dof=3, max_groups=4):
    """Random ReducedForm with bounded weight spread."""
    while True:
        lo_groups = 2 if definite == "indefinite" else 1
        n_groups = rng.integers(lo_groups, max_groups + 1)
        mags = rng.uniform(0.2, 3.0, n_groups)
        if definite == "positive":
            omega = mags
        elif definite == "negative":
            omega = -mags
        elif definite == "indefinite" and n_groups >= 2:
            signs = np.ones(n_groups)
            signs[rng.integers(1, n_groups)] = -1.0
            omega = mags * np.where(rng.random(n_groups) < 0.5, signs, -signs)
            if np.all(omega > 0) or np.all(omega < 0):
                omega[0] *= -1.0
        else:
            omega = mags * rng.choice([-1.0, 1.0], n_groups)
        nu = rng.integers(1, 4, n_groups)
        if nu.sum() < min_dof:
            continue
        if central is True:
            delta2 = np.zeros(n_groups)
        elif central is False:
            delta2 = rng.uniform(0.1, 2.0, n_groups)
        else:
            delta2 = np.where(rng.random(n_groups) < 0.5, 0.0,
                              rng.uniform(0.0, 2.0, n_groups))
        sigma = float(rng.uniform(0.5, 2.0)) if gaussian else 0.0
        const = float(rng.uniform(-1.0, 1.0))
        # distinct weights (grouping invariant)
        omega = omega + rng.uniform(-1e-3, 1e-3, n_groups)
        if np.any(np.abs(omega) < 0.05):
            continue
        return qf.ReducedForm(omega, nu, delta2, sigma, const)


def random_raw(rng, n=None, rank_deficient=False, incomplete=True):
    """Random RawForm with a well-scaled covariance."""
    n = int(rng.integers(2, 9)) if n is None else n
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    if rank_deficient:
        r = max(1, n - rng.integers(1, 3))
        v = rng.standard_normal((n, r))
        sigma = v @ v.T
    else:
        v = rng.standard_normal((n, n))
        sigma = v @ v.T + 0.3 * np.eye(n)
    b = rng.standard_normal(n) if incomplete else np.zeros(n)
    c = float(rng.standard_normal()) if incomplete else 0.0
    mu = rng.standard_normal(n)
    return qf.RawForm(a, b, c, mu, sigma)


def quantile_points(red, probs=(0.05, 0.25, 0.5, 0.75, 0.95)):
    """Rough interior evaluation points from the first two cumulants."""
    ks = qf.cumulants(red, 2)
    center, sd = ks.get(1), np.sqrt(max(ks.get(2), 1e-12))
    zs = {0.05: -1.64, 0.25: -0.67, 0.5: 0.0, 0.75: 0.67, 0.95: 1.64}
    lo, hi = transforms.support(red)
    pts = []
    for p in probs:
        x = center + zs.get(p, 0.0) * sd
        if np.isfinite(lo):
            x = max(x, lo + 0.05 * sd)
        if np.isfinite(hi):
            x = min(x, hi - 0.05 * sd)
        pts.append(float(x))
    return pts


@pytest.fixture
def rng():
    return make_rng(20240817)


@pytest.fixture
def eig_calls(monkeypatch):
    """Every matrix passed to np.linalg.eigh or np.linalg.eigvalsh while the
    test runs, in call order."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        fn = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda m, *args, _fn=fn: calls.append(np.asarray(m)) or _fn(m, *args))
    return calls
