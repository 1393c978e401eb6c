import numpy as np
import pytest

import quadform as qf
from quadform import cli, reduction
from quadform.reference import sample_raw, sample_raw_complex, sample_reduced

from conftest import make_rng, random_raw

SIGMA_EX1 = np.array([[5, 5, 3, 3], [5, 5, 3, 3], [3, 3, 9, 1], [3, 3, 1, 9]]) / 4.0
A_EX1 = np.array([[-1, -1, 1, -1], [-1, -1, -1, 1], [1, -1, 1, 1], [-1, 1, 1, 1]]) / 2.0
MU_EX1 = np.array([0.0, 1.0, 0.0, 1.0])
FORM_EX1 = qf.RawForm(A_EX1, np.zeros(4), 0.0, MU_EX1, SIGMA_EX1)

A_EX2 = np.array([[7.0, 24, 0], [24, -7, 0], [0, 0, 25]])
FORM_EX2 = qf.RawForm(A_EX2, np.array([40.0, 50, 30]), 0.0, np.zeros(3), np.eye(3))

A_CX = np.array([[1, -1j], [1j, 1]])
FORM_CX = qf.RawComplexForm(A_CX, np.array([1.0, 1.0]), 0.0,
                            np.array([1.0, 1.0 + 1j]),
                            np.array([[10, -6j], [6j, 10]]))


class TestFactorCovariance:
    def test_identity(self):
        b, r = qf.factor_covariance(np.eye(3))
        assert r == 3
        assert np.allclose(b @ b.T, np.eye(3), atol=1e-12)

    def test_rank_deficient_example(self):
        b, r = qf.factor_covariance(SIGMA_EX1)
        assert r == 3
        assert np.linalg.norm(b @ b.T - SIGMA_EX1) < 1e-12

    def test_constructed_rank_two(self):
        rng = make_rng(1)
        v = rng.standard_normal((5, 2))
        sigma = v @ v.T
        b, r = qf.factor_covariance(sigma)
        assert r == 2
        assert np.linalg.norm(b @ b.T - sigma) < 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(qf.InvalidInputError):
            qf.factor_covariance(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_rejects_negative_definite(self):
        with pytest.raises(qf.InvalidInputError, match="positive semidefinite"):
            qf.factor_covariance(-np.eye(2))


def _form_of_kind(kind, sigma, n=None):
    """A form of the given kind in n variables (default: sigma's size) whose
    covariance is sigma."""
    n = sigma.shape[0] if n is None else n
    if kind == "raw":
        return qf.RawForm(np.eye(n), np.zeros(n), 0.0, np.zeros(n), sigma)
    if kind == "raw_complex":
        return qf.RawComplexForm(np.eye(n), np.zeros(n), 0.0, np.zeros(n), sigma)
    return qf.RatioSpec(np.eye(n), np.eye(n), np.zeros(n), sigma)


KINDS = ("raw", "raw_complex", "ratio")


class TestPsdVerdict:
    """Construction factors sigma_mat once and decides PSD and rank with the
    one tolerance the reduction uses."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("sigma", [np.diag([1.0, -5e-11]), np.diag([1e-20, -1e-12]),
                                       -np.eye(2)], ids=["small", "tiny_scale", "negative"])
    def test_rejects_negative_eigenvalue(self, kind, sigma):
        with pytest.raises(qf.InvalidInputError, match="positive semidefinite"):
            _form_of_kind(kind, sigma)
        with pytest.raises(qf.InvalidInputError, match="positive semidefinite"):
            qf.factor_covariance(sigma)

    @pytest.mark.parametrize("kind", KINDS)
    def test_accepts_rank_deficient(self, kind):
        rng = make_rng(3)
        v = rng.standard_normal((4, 2))
        if kind == "raw_complex":
            v = v + 1j * rng.standard_normal((4, 2))
        sigma = v @ v.conj().T
        fac = _form_of_kind(kind, sigma).sigma_factor
        assert fac.shape == (4, 2)
        assert np.linalg.norm(fac @ fac.conj().T - sigma) < 1e-12 * np.linalg.norm(sigma)

    @pytest.mark.parametrize("kind", KINDS)
    def test_rounding_below_zero_is_a_null_direction(self, kind):
        fac = _form_of_kind(kind, np.diag([1.0, -1e-14])).sigma_factor
        assert fac.shape == (2, 1)

    def test_ratio_denominator(self):
        with pytest.raises(qf.InvalidInputError, match="b must be positive semidefinite"):
            qf.RatioSpec(np.eye(2), np.diag([1.0, -1e-9]), np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_covariance_of_another_size(self, kind):
        with pytest.raises(qf.InvalidInputError, match="sigma_mat must be 2 x 2"):
            _form_of_kind(kind, np.eye(3), n=2)

    def test_raw_document_decomposes_twice(self, eig_calls):
        # sigma_mat once at construction, then B'AB in the reduction
        doc = {"kind": "raw", "a": A_EX1.tolist(), "b": [0.0] * 4, "c": 0.0,
               "mu": MU_EX1.tolist(), "sigma_mat": SIGMA_EX1.tolist()}
        red = qf.reduce_raw(cli.parse_document(doc))
        assert len(eig_calls) == 2
        assert np.array_equal(eig_calls[0], SIGMA_EX1)
        assert eig_calls[1].shape == (3, 3)
        assert np.allclose(red.omega, [2.0, -2.0], atol=1e-10)


def _eigh_factor(s):
    """The factor of s from its eigendecomposition, the path of a
    non-diagonal Sigma."""
    w, u = np.linalg.eigh(s)
    keep = w > qf.forms.ZERO_EIG_TOL * np.max(np.abs(w))
    return u[:, keep] * np.sqrt(w[keep])


def _eigh_reduce(form, fac):
    """reduce_raw through fac'A fac formed by products and its full
    eigendecomposition, whose vectors rotate the linear part."""
    a, lin, mu = form.a, form.b, form.mu
    m = fac.T @ a @ fac
    lam, p = np.linalg.eigh((m + m.T) / 2.0)
    return qf.group_eigenvalues(reduction._complete(
        lam, p.T @ (fac.T @ (2.0 * a @ mu + lin)), float(lin @ mu + mu @ a @ mu + form.c)))


def _diagonal_document(rng, n, noncentral):
    """A definite raw form whose covariance is diagonal, built like the
    benchmark's: A = Q diag(w) Q' / d d', Sigma = diag(d^2)."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    d = rng.uniform(0.5, 2.0, n)
    a = (q * np.repeat(np.geomspace(3.0, 0.3, (n + 1) // 2), 2)[:n]) @ q.T / np.outer(d, d)
    mu = rng.standard_normal(n) * 0.4 if noncentral else np.zeros(n)
    return qf.RawForm((a + a.T) / 2.0, np.zeros(n), 0.0, mu, np.diag(d**2))


class TestDiagonalSigma:
    """A diagonal Sigma is factored without an eigendecomposition and
    whitens by gather-and-scale; a central form's reduction reads the
    eigenvalues alone."""

    @pytest.mark.parametrize("n", [3, 40, 397])
    @pytest.mark.parametrize("noncentral", [False, True], ids=["central", "noncentral"])
    def test_factor_and_whitened_matrix_bit_for_bit(self, n, noncentral, eig_calls):
        form = _diagonal_document(make_rng(n), n, noncentral)
        red = qf.reduce_raw(form)
        assert len(eig_calls) == 1
        fac = form.sigma_factor
        assert np.array_equal(fac, _eigh_factor(form.sigma_mat))
        m = fac.T @ form.a @ fac
        assert np.array_equal(eig_calls[0], (m + m.T) / 2.0)
        if noncentral:
            ref = _eigh_reduce(form, fac)
            for got, want in zip(vars(red).values(), vars(ref).values()):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [3, 40, 397])
    def test_central_eigenvalues_alone(self, n, monkeypatch):
        form = _diagonal_document(make_rng(n + 1), n, False)
        calls = []
        monkeypatch.setattr(np.linalg, "eigh",
                            lambda m, _fn=np.linalg.eigh: calls.append("eigh") or _fn(m))
        red = qf.reduce_raw(form)
        assert calls == []
        ref = _eigh_reduce(form, form.sigma_factor)
        assert np.array_equal(red.nu, ref.nu) and red.n_groups == (n + 1) // 2
        assert np.all(np.abs(red.omega - ref.omega) <= 1e-13 * np.abs(ref.omega))
        assert np.array_equal(red.delta2, ref.delta2) and red.sigma_gauss == ref.sigma_gauss

    def test_identity(self):
        form = _diagonal_document(make_rng(7), 30, True)
        form = qf.RawForm(form.a, form.b, 0.0, form.mu, np.eye(30))
        assert np.array_equal(form.sigma_factor, _eigh_factor(np.eye(30)))
        ref = _eigh_reduce(form, form.sigma_factor)
        red = qf.reduce_raw(form)
        for got, want in zip(vars(red).values(), vars(ref).values()):
            assert np.array_equal(got, want)

    def test_zero_and_tiny_negative_variances(self):
        # the zero and the -1e-14 variance are null directions: x_1 and x_3
        # are their means, and the linear term along x_0, where A is zero,
        # pools into the Gaussian
        a = np.diag([0.0, 1.0, 2.0, 3.0])
        sigma = np.diag([4.0, 0.0, 1.0, -1e-14])
        form = qf.RawForm(a, [3.0, 5.0, 0.0, 1.0], 0.5, [0.0, 2.0, 0.0, 1.0], sigma)
        fac = form.sigma_factor
        assert fac.shape == (4, 2) and np.array_equal(fac, _eigh_factor(sigma))
        red = qf.reduce_raw(form)
        assert red.omega.tolist() == [2.0] and red.nu.tolist() == [1]
        assert red.sigma_gauss == 6.0
        assert red.const == 0.5 + 2.0 * 2.0 + 5.0 * 2.0 + 1.0 + 3.0
        for g, w in zip(vars(red).values(), vars(_eigh_reduce(form, fac)).values()):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("kind", KINDS)
    def test_negative_variance_message(self, kind):
        with pytest.raises(qf.InvalidInputError) as info:
            _form_of_kind(kind, np.diag([1.0, -5e-11, 2.0]))
        assert str(info.value) == ("sigma_mat must be positive semidefinite "
                                   f"(min eigenvalue {-5e-11:.3e})")

    def test_complex_diagonal(self):
        rng = make_rng(11)
        n = 6
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        sigma = np.diag(rng.uniform(0.5, 2.0, n)).astype(complex)
        form = qf.RawComplexForm(h + h.conj().T, np.zeros(n), 0.0, np.zeros(n), sigma)
        assert np.array_equal(form.sigma_factor, _eigh_factor(sigma))
        s = form.sigma_factor
        want = np.sort(np.linalg.eigvalsh(s.conj().T @ form.a @ s))[::-1]
        red = qf.reduce_complex(form)
        assert np.array_equal(red.nu, [2] * n)
        assert np.allclose(red.omega, want / 2.0, rtol=1e-12)

    def test_ratio_diagonal(self):
        rng = make_rng(12)
        n = 5
        a = rng.standard_normal((n, n))
        sigma = np.diag(rng.uniform(0.5, 2.0, n))
        spec = qf.RatioSpec(a + a.T, np.eye(n), np.zeros(n), sigma)
        assert np.array_equal(spec.sigma_factor, _eigh_factor(sigma))


class TestReduceReal:
    def test_paper_example_one(self):
        eff = qf.reduce_real(FORM_EX1)
        assert np.allclose(eff.omega, [2.0, -2.0], atol=1e-10)
        assert np.allclose(eff.delta2, [0.125, 0.125], atol=1e-10)
        assert abs(eff.sigma_gauss - 2.0) < 1e-10
        assert abs(eff.const - 1.0) < 1e-10

    def test_standard_chi2(self):
        eff = qf.reduce_real(qf.RawForm(np.eye(2), np.zeros(2), 0.0,
                                        np.zeros(2), np.eye(2)))
        assert np.allclose(eff.omega, [1.0, 1.0])
        assert np.allclose(eff.delta2, 0.0)
        assert eff.sigma_gauss == 0.0 and eff.const == 0.0

    def test_paper_example_two(self):
        eff = qf.reduce_real(FORM_EX2)
        assert np.allclose(eff.omega, [25.0, 25.0, -25.0], atol=1e-9)
        assert np.allclose(sorted(eff.delta2[:2]), sorted([961 / 625, 9 / 25]), atol=1e-10)
        assert abs(eff.delta2[2] - 64 / 625) < 1e-10
        assert eff.sigma_gauss == 0.0
        assert abs(eff.const + 1122 / 25) < 1e-10

    def test_degenerate_constant(self):
        a = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        with pytest.raises(qf.DegenerateConstantError) as exc:
            qf.reduce_real(qf.RawForm(a, np.zeros(2), 0.0, np.array([1.0, 1.0]), sigma))
        assert abs(exc.value.value - 1.0) < 1e-12


class TestGrouping:
    def test_paper_example_two_grouped(self):
        red = qf.reduce_raw(FORM_EX2)
        assert np.allclose(red.omega, [25.0, -25.0], atol=1e-9)
        assert list(red.nu) == [2, 1]
        assert np.allclose(red.delta2, [1186 / 625, 64 / 625], atol=1e-10)
        assert abs(red.const + 1122 / 25) < 1e-10

    def test_distinct_unchanged(self):
        eff = qf.ReducedForm([3.0, 1.0], [1, 1], [0.1, 0.2])
        red = qf.group_eigenvalues(eff)
        assert np.allclose(red.omega, [3.0, 1.0])
        assert list(red.nu) == [1, 1]

    def test_tolerance_merges(self):
        eff = qf.ReducedForm([1.0, 1.0 + 1e-13], [1, 1], [0.0, 0.0])
        red = qf.group_eigenvalues(eff)
        assert red.n_groups == 1
        assert list(red.nu) == [2]


def _grouped_by_count(lam, h2):
    """The grouping of ungrouped weights by cluster size: the mean weight,
    the count and the summed noncentrality of each run of weights closer
    than GROUP_TOL * max|lam| (the oracle for grouping a nu = 1 form)."""
    order = np.argsort(-lam, kind="stable")
    lam, h2 = lam[order], h2[order]
    split = np.abs(np.diff(lam)) > qf.reduction.GROUP_TOL * float(np.max(np.abs(lam)))
    starts = np.flatnonzero(np.concatenate([[True], split]))
    nu = np.diff(np.append(starts, lam.size))
    at = starts + np.arange(starts.size)
    omega = np.add.reduceat(np.insert(lam, starts, 0.0), at) / nu
    return omega, nu, np.add.reduceat(np.insert(h2, starts, 0.0), at)


class TestEffectiveForm:
    def _forms(self):
        rng = make_rng(31)
        forms = [FORM_EX1, FORM_EX2]
        forms += [random_raw(rng, rank_deficient=bool(k % 2)) for k in range(20)]
        for k in range(10):
            # repeated eigenvalues, so that grouping merges weights
            n = int(rng.integers(3, 9))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            w = rng.choice([-1.5, 0.5, 2.0], size=n)
            forms.append(qf.RawForm(q @ np.diag(w) @ q.T, rng.standard_normal(n), 0.0,
                                    rng.standard_normal(n), np.eye(n)))
        return forms

    def test_reduce_real_has_unit_dofs(self):
        for form in self._forms():
            eff = qf.reduce_real(form)
            assert eff.nu.dtype.kind == "i" and np.all(eff.nu == 1)
            assert np.all(np.diff(eff.omega) <= 0.0)

    def test_grouping_it_is_reduce_raw_bit_for_bit(self):
        merged = 0
        for form in self._forms():
            eff = qf.reduce_real(form)
            red = qf.group_eigenvalues(eff)
            ref = qf.reduce_raw(form)
            omega, nu, delta2 = _grouped_by_count(eff.omega, eff.delta2)
            for got in (red, ref):
                assert np.array_equal(got.omega, omega) and np.array_equal(got.nu, nu)
                assert np.array_equal(got.delta2, delta2)
                assert (got.sigma_gauss, got.const) == (eff.sigma_gauss, eff.const)
            merged += red.n_groups < eff.n_groups
        assert merged >= 10

    def test_grouped_input_weighs_by_nu(self):
        red = qf.group_eigenvalues(
            qf.ReducedForm([1.0 + 1e-13, 3.0, 1.0], [1, 1, 2], [0.2, 0.3, 0.1], 0.5, 1.0))
        assert np.allclose(red.omega, [3.0, (1.0 + 1e-13 + 2.0) / 3.0], rtol=1e-15)
        assert list(red.nu) == [1, 3]
        assert np.allclose(red.delta2, [0.3, 0.3], rtol=1e-15)
        assert (red.sigma_gauss, red.const) == (0.5, 1.0)


class TestReduceComplex:
    def test_paper_complex_example(self):
        red = qf.reduce_complex(FORM_CX)
        assert np.allclose(red.omega, [16.0], atol=1e-10)
        assert list(red.nu) == [2]
        assert abs(red.delta2[0] - 53 / 128) < 1e-10
        assert abs(red.sigma_gauss - np.sqrt(2)) < 1e-10
        assert abs(red.const - 3 / 8) < 1e-10

    def test_unit_complex_modulus(self):
        form = qf.RawComplexForm(np.eye(1, dtype=complex), np.zeros(1, complex),
                                 0.0, np.zeros(1, complex), np.eye(1, dtype=complex))
        red = qf.reduce_complex(form)
        assert np.allclose(red.omega, [0.5])
        assert list(red.nu) == [2]
        assert np.allclose(red.delta2, 0.0)
        assert red.sigma_gauss == 0.0 and red.const == 0.0

    def test_random_hermitian_vs_monte_carlo(self):
        rng = make_rng(5)
        m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        a = (m + m.conj().T) / 2.0
        v = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        sigma = v @ v.conj().T + 0.5 * np.eye(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        mu = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        form = qf.RawComplexForm(a, b, 0.3, mu, sigma)
        red = qf.reduce_complex(form)
        assert np.all(red.nu % 2 == 0)
        n = 400_000
        raw_draws = sample_raw_complex(form, n, seed=11)
        red_draws = sample_reduced(red, n, seed=12)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            q = float(np.quantile(raw_draws, p))
            p_raw = np.mean(raw_draws <= q)
            p_red = np.mean(red_draws <= q)
            se = np.sqrt(2 * p * (1 - p) / n)
            assert abs(p_raw - p_red) < 3.0 * se + 1e-9


class TestClassify:
    def test_central_positive(self):
        cls = qf.classify(qf.ReducedForm([2.0, 1.0], [1, 1], [0.0, 0.0]))
        assert (cls.centrality, cls.definiteness, cls.has_gaussian) == \
            ("central", "positive", False)

    def test_paper_example_one_class(self):
        red = qf.reduce_raw(FORM_EX1)
        cls = qf.classify(red)
        assert cls.centrality == "noncentral"
        assert cls.definiteness == "indefinite"
        assert cls.has_gaussian

    def test_negative(self):
        cls = qf.classify(qf.ReducedForm([-1.0, -2.0], [1, 1], [0.0, 0.0]))
        assert cls.definiteness == "negative"


class TestInvariants:
    def test_round_trip_moments(self):
        rng = make_rng(99)
        n_draws = 10**6
        for i in range(100):
            form = random_raw(rng, rank_deficient=bool(rng.random() < 0.3))
            try:
                red = qf.reduce_raw(form)
            except qf.DegenerateConstantError:
                continue
            ks = qf.cumulants(red, 2)
            draws = sample_raw(form, n_draws, seed=1000 + i)
            mean, var = draws.mean(), draws.var()
            se_mean = np.sqrt(var / n_draws)
            # sample variance standard error from the fourth moment
            m4 = np.mean((draws - mean) ** 4)
            se_var = np.sqrt(max(m4 - var**2, 0.0) / n_draws)
            assert abs(ks.get(1) - mean) < 4.0 * se_mean + 1e-9
            assert abs(ks.get(2) - var) < 4.0 * se_var + 1e-9

    def test_eigenvalue_invariance(self):
        rng = make_rng(7)
        for _ in range(25):
            form = random_raw(rng)
            b, _ = qf.factor_covariance(form.sigma_mat)
            ev_b = np.sort(np.linalg.eigvalsh(b.T @ form.a @ b))
            ev_sa = np.sort(np.real(np.linalg.eigvals(form.sigma_mat @ form.a)))
            scale = max(1.0, np.max(np.abs(ev_b)))
            assert np.allclose(ev_b, ev_sa, atol=1e-10 * scale)

    def test_mean_identity_and_dof_sum(self):
        rng = make_rng(8)
        for _ in range(25):
            form = random_raw(rng, rank_deficient=bool(rng.random() < 0.5))
            try:
                eff = qf.reduce_real(form)
            except qf.DegenerateConstantError:
                continue
            red = qf.group_eigenvalues(eff)
            assert red.total_dof == eff.total_dof == eff.n_groups
            lhs = float(np.sum(red.omega * (red.nu + red.delta2)) + red.const)
            rhs = float(form.mu @ form.a @ form.mu + form.b @ form.mu + form.c
                        + np.trace(form.a @ form.sigma_mat))
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))

    def test_complex_mean_identity(self):
        # E[x^H A x + Re(b^H x) + c] = mu^H A mu + Re(b^H mu) + c + tr(A Sigma)
        rng = make_rng(10)
        checked = 0
        for i in range(40):
            n = int(rng.integers(2, 7))
            m = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            r = n if i % 2 else n - int(rng.integers(1, n))
            v = rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            mu = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            form = qf.RawComplexForm((m + m.conj().T) / 2.0, b, float(rng.standard_normal()),
                                     mu, v @ v.conj().T)
            try:
                red = qf.reduce_complex(form)
            except qf.DegenerateConstantError:
                continue
            checked += 1
            assert np.all(red.nu % 2 == 0)
            lhs = float(np.sum(red.omega * (red.nu + red.delta2)) + red.const)
            rhs = float(np.real(mu.conj() @ form.a @ mu + b.conj() @ mu
                                + np.trace(form.a @ form.sigma_mat)) + form.c)
            assert abs(lhs - rhs) < 1e-10 * (1.0 + abs(rhs))
        assert checked >= 30

    def test_negation(self):
        rng = make_rng(9)
        for _ in range(10):
            form = random_raw(rng)
            try:
                red = qf.reduce_raw(form)
            except qf.DegenerateConstantError:
                continue
            neg = qf.reduce_raw(qf.RawForm(-form.a, -form.b, -form.c,
                                           form.mu, form.sigma_mat))
            assert np.allclose(np.sort(neg.omega), np.sort(-red.omega), atol=1e-10)
            assert np.allclose(np.sort(neg.delta2), np.sort(red.delta2), atol=1e-10)
            assert abs(neg.sigma_gauss - red.sigma_gauss) < 1e-10
            assert abs(neg.const + red.const) < 1e-10
