"""Reduction of raw quadratic forms to canonical chi-square representations.

The pipeline is: factor the covariance as Sigma = B B' (B rectangular,
full column rank r = rank(Sigma)), diagonalize B'AB = P diag(lambda) P',
complete the square per eigendirection.  Nonzero eigenvalues yield
scaled noncentral chi-square components; linear terms along zero
eigendirections collapse into one independent Gaussian.  Both steps'
outputs are ReducedForms: ``reduce_real`` gives the effective form (one
chi2_1 per nonzero eigenvalue, every nu = 1) and ``group_eigenvalues``
merges its equal weights into groups.

Sigma is factored once, when the form is built (``sigma_factor``), so
a reduction makes one eigendecomposition, that of B'AB (of a central
form its eigenvalues alone).  A Hermitian
form in n complex variables is reduced as the real form in 2n variables
of its real and imaginary parts.  The completion step (``_complete``)
also completes the ratio CDF's forms from their stacked eigenpairs.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateConstantError
from .forms import (
    ZERO_EIG_TOL,
    FormClass,
    RawComplexForm,
    RawForm,
    ReducedForm,
    _check_hermitian,
    _psd_factor,
)

GROUP_TOL = 1e-9           # relative gap for eigenvalue grouping
GAUSS_CLIP = 1e-12         # sigma (and |d_n|) below this * (1 + ||d||) clip to 0


def factor_covariance(sigma_mat):
    """Factor a PSD matrix as sigma_mat = B @ B.conj().T with B of full column rank.

    Returns (B, r) where r is the numerical rank: the count of
    eigenvalues above ZERO_EIG_TOL * max|eigenvalue|.  Built from the
    symmetric eigendecomposition, so rank-deficient inputs are handled
    exactly (a diagonal sigma_mat needs none: B is the kept columns of
    diag(sqrt(sigma_ii))); raises InvalidInputError when sigma_mat is not
    PSD.  The forms hold this factor as ``sigma_factor``.
    """
    b = _psd_factor(_check_hermitian(np.asarray(sigma_mat), "sigma_mat"), "sigma_mat")
    return b, b.shape[1]


def _reduce(a, lin, c, mu, fac) -> ReducedForm:
    """x'ax + lin'x + c with x ~ N(mu, fac fac'), completed by ``_complete``
    in the eigenbasis of fac'a fac.  A factor with one nonzero s_j per
    column, in row p_j (a diagonal Sigma's), whitens by gathering, bit for
    bit: s_i a[p_i, p_j] s_j.  A zero fac'(2 a mu + lin) needs no vectors."""
    v = 2.0 * a @ mu + lin
    if (np.count_nonzero(fac, axis=0) == 1).all():
        p = np.argmax(fac != 0.0, axis=0)
        s = fac[p, np.arange(p.size)]
        m, d = (s[:, None] * a[p][:, p]) * s[None, :], s * v[p]
    else:
        m, d = fac.T @ a @ fac, fac.T @ v
    m = (m + m.T) / 2.0
    lam_all, vec = np.linalg.eigh(m) if d.any() else (np.linalg.eigvalsh(m), None)
    return _complete(lam_all, d if vec is None else vec.T @ d,
                     float(lin @ mu + mu @ a @ mu + c))


def _complete(lam_all, d, c_prime) -> ReducedForm:
    """sum lam_all_n z_n^2 + d'z + c_prime, z ~ N(0, I), as the effective
    form sum lam_n chi2_1(h_n^2) + sigma N(0,1) + const (every nu = 1,
    weights sorted descending): directions with |lam_all| above
    ZERO_EIG_TOL times the largest complete squares, and the linear terms
    along the others pool into the Gaussian.  DegenerateConstantError when
    no random part survives."""
    nonzero = np.abs(lam_all) > ZERO_EIG_TOL * float(np.max(np.abs(lam_all), initial=0.0))
    clip = GAUSS_CLIP * (1.0 + float(np.linalg.norm(d)))
    d_clipped = np.where(np.abs(d) <= clip, 0.0, d)
    sigma2 = float(np.sum(d_clipped[~nonzero] ** 2))
    lam = lam_all[nonzero]
    if lam.size == 0 and sigma2 == 0.0:
        raise DegenerateConstantError(c_prime)

    h2 = (d_clipped[nonzero] / (2.0 * lam)) ** 2
    const = c_prime - float(np.sum(lam * h2))
    sigma = np.sqrt(sigma2)
    if sigma < clip:
        sigma = 0.0
        if lam.size == 0:
            raise DegenerateConstantError(c_prime)
    order = np.argsort(-lam, kind="stable")
    return ReducedForm(lam[order], np.ones(lam.size, dtype=int), h2[order], sigma, const)


def reduce_real(form: RawForm) -> ReducedForm:
    """Reduce x'Ax + b'x + c to the effective form sum lam_n chi2_1(h_n^2)
    + sigma N(0,1) + const, a ReducedForm with every nu = 1.

    Weights are the nonzero eigenvalues of B'AB (equal to those of
    Sigma A), sorted descending so positive weights come first.  Raises
    DegenerateConstantError when no random part survives.
    """
    return _reduce(form.a, form.b, form.c, form.mu, form.sigma_factor)


def _real_matrix(m):
    """[[Re m, -Im m], [Im m, Re m]], the real matrix of the complex map m."""
    return np.block([[m.real, -m.imag], [m.imag, m.real]])


def reduce_complex(form: RawComplexForm) -> ReducedForm:
    """Reduce a Hermitian complex form to a real reduced form.

    With x = u + iv, x^H A x + Re(b^H x) + c is the real form in (u, v)
    with matrix [[Re A, -Im A], [Im A, Re A]], linear term (Re b, Im b)
    and mean (Re mu, Im mu), and (u, v) has the covariance factor
    [[Re B, -Im B], [Im B, Re B]] / sqrt(2) when Sigma = B B^H.  Each
    eigenvalue lambda_j of B^H A B appears twice in the real form, so
    every group has even degrees of freedom and weight lambda_j / 2.
    """
    fac = _real_matrix(form.sigma_factor) / math.sqrt(2.0)
    lin = np.concatenate([form.b.real, form.b.imag])
    mu = np.concatenate([form.mu.real, form.mu.imag])
    return group_eigenvalues(_reduce(_real_matrix(form.a), lin, form.c, mu, fac))


def group_eigenvalues(red: ReducedForm) -> ReducedForm:
    """Cluster equal weights of a form.

    Single-linkage on the descending-sorted weights: consecutive values
    closer than GROUP_TOL * max|omega| join a cluster.  Cluster weight is
    the nu-weighted mean, multiplicity the sum of nu, noncentrality the
    sum of delta2.  Grouping affects series efficiency only, never the
    distribution.
    """
    order = np.argsort(-red.omega, kind="stable")
    lam, nu, h2 = red.omega[order], red.nu[order], red.delta2[order]
    split = np.abs(np.diff(lam)) > GROUP_TOL * float(np.max(np.abs(lam), initial=0.0))
    starts = np.flatnonzero(np.concatenate([[lam.size > 0], split]))
    dof = np.add.reduceat(nu, starts)
    # reduceat adds a segment's first value to the sum of the rest; a zero in
    # front of each cluster makes every sum equal np.sum's, bit for bit
    at = starts + np.arange(starts.size)

    def total(v):
        return np.add.reduceat(np.insert(v, starts, 0.0), at)

    return ReducedForm(total(lam * nu) / dof, dof, total(h2), red.sigma_gauss, red.const)


def reduce_raw(form: RawForm) -> ReducedForm:
    """Convenience: reduce_real followed by group_eigenvalues."""
    return group_eigenvalues(reduce_real(form))


def classify(red: ReducedForm) -> FormClass:
    """Classification flags (centrality, definiteness, Gaussian term, even dofs)."""
    if red.n_groups == 0:
        definiteness = "positive"  # vacuous; no chi-square part
    elif np.all(red.omega > 0):
        definiteness = "positive"
    elif np.all(red.omega < 0):
        definiteness = "negative"
    else:
        definiteness = "indefinite"
    central = bool(np.all(red.delta2 == 0.0))
    return FormClass(
        centrality="central" if central else "noncentral",
        definiteness=definiteness,
        has_gaussian=red.sigma_gauss > 0.0,
        even_degrees=bool(np.all(red.nu % 2 == 0)),
    )
