import dataclasses
import importlib
import math
import pkgutil
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import integrate, stats

import quadform as qf
from quadform import select, series
from quadform.series import _exp_series, _require_central_even

from conftest import make_rng


def effective(lam, h2, sigma=0.0, const=0.0):
    """The effective form of the weights lam: one chi2_1(h2) per weight."""
    return qf.ReducedForm(lam, [1] * len(lam), h2, sigma, const)


def _alt_partial_fractions(red):
    """Coefficients alpha_lk of 1/(z prod (1+w_l z)^(m_l)) = 1/z + sum alpha_lk/(1+w_l z)^k.

    Independent expansion that cross-checks the finite-sum identity
    alpha_{l,k} = -w_l A_{l,k} + alpha_{l,k+1}.
    """
    _require_central_even(red, "partial fractions")
    omega = red.omega
    m = red.nu // 2
    out = {}
    for l, (w_l, m_l) in enumerate(zip(omega, m)):
        order = int(m_l)
        others = [j for j in range(omega.size) if j != l]
        # substitute s = 1 + w_l z, i.e. z = (s-1)/w_l:
        # H(z)(1+w_l z)^{m_l} = [w_l/(s-1)] prod_{j!=l} (alpha_j + r_j s)^{-m_j}
        # expand around s=0; the 1/(s-1) factor contributes -sum s^n.
        r = omega[others] / w_l
        alpha = 1.0 - r
        mj = m[others].astype(float)
        g_base = np.zeros(order - 1) if order > 1 else np.zeros(0)
        for n in range(1, order):
            g_base[n - 1] = -np.sum(mj * (-1.0) ** (n + 1) * (r / alpha) ** n / n) if others else 0.0
        if others:
            c0 = math.exp(-float(np.sum(mj * np.log(np.abs(alpha)))))
            if np.sum(mj[alpha < 0]) % 2 == 1:
                c0 = -c0
        else:
            c0 = 1.0
        prod_coeffs = _exp_series(g_base, c0) if order > 1 else np.array([c0])
        # multiply by -w_l * (1 + s + s^2 + ...)
        conv = -w_l * np.cumsum(prod_coeffs[:order])
        for k in range(1, order + 1):
            out[(l, k)] = float(conv[order - k])
    return out


def _loop_partial_fractions(red):
    """The pole-by-pole expansion that partial_fractions computes as one
    (poles x poles) broadcast: the oracle for it."""
    omega = red.omega
    m = red.nu // 2
    terms = []
    for l, (w_l, m_l) in enumerate(zip(omega, m)):
        others = [j for j in range(omega.size) if j != l]
        order = int(m_l)
        r = omega[others] / w_l
        alpha = 1.0 - r
        mj = m[others].astype(float)
        ratio = r / alpha
        g = np.array([-np.sum(mj * (-1.0) ** (n + 1) * ratio**n / n)
                      for n in range(1, order)]) if order > 1 else np.zeros(0)
        c0 = math.exp(-float(np.sum(mj * np.log(np.abs(alpha)))))
        c0 *= -1.0 if np.sum(mj[alpha < 0]) % 2 == 1 else 1.0
        coeffs_full = _exp_series(g, c0)
        for k in range(1, order + 1):
            terms.append((float(w_l), int(k), float(coeffs_full[order - k])))
    return terms


class TestPartialFractions:
    @pytest.mark.parametrize("groups", [6, 50, 130])
    def test_matches_loop(self, groups):
        rng = make_rng(groups)
        w = rng.uniform(0.2, 3.0, groups) * np.where(np.arange(groups) % 3 == 0, -1.0, 1.0)
        red = qf.ReducedForm(w, rng.choice([2, 4, 6], groups), [0.0] * groups)
        assert 6 in red.nu
        new = qf.partial_fractions(red).terms
        old = _loop_partial_fractions(red)
        # the same sums over the same operands, so equal, not merely close
        assert list(new) == old

    def test_single_power(self):
        pfe = qf.partial_fractions(qf.ReducedForm([1.0], [4], [0.0]))
        coeffs = {(w, k): a for w, k, a in pfe.terms}
        assert abs(coeffs[(1.0, 2)] - 1.0) < 1e-14
        assert abs(coeffs[(1.0, 1)]) < 1e-14

    @pytest.mark.parametrize("omega", [(1.0, -1.0), (2.0, 1.0), (3.0, 1.0, -0.5)])
    def test_mgf_reconstruction(self, omega):
        red = qf.ReducedForm(list(omega), [2] * len(omega), [0.0] * len(omega))
        pfe = qf.partial_fractions(red)
        assert abs(pfe.coefficient_sum() - 1.0) < 1e-12
        rng = make_rng(3)
        dom = qf.mgf_domain(red)
        lo = dom.t_left if math.isfinite(dom.t_left) else -1.0
        for t in rng.uniform(0.8 * lo, 0.8 * dom.t_right, 10):
            recon = sum(a * (1.0 - 2.0 * w * t) ** -k for w, k, a in pfe.terms)
            assert abs(recon - qf.mgf(red, float(t))) < 1e-12 * qf.mgf(red, float(t))

    def test_requires_central_even(self):
        with pytest.raises(qf.NotApplicableError):
            qf.partial_fractions(qf.ReducedForm([1.0], [3], [0.0]))
        with pytest.raises(qf.NotApplicableError):
            qf.partial_fractions(qf.ReducedForm([1.0], [2], [0.5]))
        with pytest.raises(qf.NotApplicableError):
            qf.partial_fractions(qf.ReducedForm([1.0], [2], [0.0], 1.0))

    def test_alternative_decomposition_recursion(self):
        # alpha_{l,k} = -w_l A_{l,k} + alpha_{l,k+1}, alpha_{l,m_l} = -w_l A_{l,m_l}
        red = qf.ReducedForm([2.0, 1.0, -0.5], [4, 2, 2], [0.0] * 3)
        pfe = qf.partial_fractions(red)
        a_coeffs = {}
        for idx, (w, k, a) in enumerate(pfe.terms):
            l = [i for i, wl in enumerate(red.omega) if wl == w][0]
            a_coeffs[(l, k)] = a
        alpha = _alt_partial_fractions(red)
        for l, w_l in enumerate(red.omega):
            m_l = red.nu[l] // 2
            assert abs(alpha[(l, m_l)] + w_l * a_coeffs[(l, m_l)]) < 1e-10
            for k in range(1, m_l):
                lhs = alpha[(l, k)]
                rhs = -w_l * a_coeffs[(l, k)] + alpha[(l, k + 1)]
                assert abs(lhs - rhs) < 1e-10


class TestCentralEven:
    def test_half_chi4(self):
        red = qf.ReducedForm([0.5], [4], [0.0])
        for q in (0.2, 1.0, 3.5):
            expect = 1.0 - math.exp(-q) * (1.0 + q)
            res = qf.cdf_central_even(red, q)
            assert abs(res.value - expect) < 1e-13
            assert res.provenance == "exact" and res.error_bound == 0.0

    def test_difference_form(self):
        red = qf.ReducedForm([0.5, -0.5], [2, 2], [0.0, 0.0])
        for q in (-2.0, -0.5, 0.0, 1.5):
            expect = 0.5 * math.exp(q) if q < 0 else 1.0 - 0.5 * math.exp(-q)
            assert abs(qf.cdf_central_even(red, q).value - expect) < 1e-13

    def test_chi22(self):
        red = qf.ReducedForm([1.0], [2], [0.0])
        for q in (0.5, 2.0):
            assert abs(qf.cdf_central_even(red, q).value - (1 - math.exp(-q / 2))) < 1e-14

    def test_pdf_matches_scipy(self):
        red = qf.ReducedForm([1.0], [4], [0.0])
        for q in (0.5, 2.0, 6.0):
            assert abs(qf.pdf_central_even(red, q).value - stats.chi2.pdf(q, 4)) < 1e-13

    def test_pdf_far_below_zero_does_not_overflow(self):
        """Where q / w < -1418 for a positive weight w, the chi-square density
        term is 0; exp(-y/2) overflowed there before the mask discarded it."""
        groups = np.arange(50)
        w = np.where(groups % 3 == 0, -1.0, 1.0) / (groups + 1.0)
        red = qf.ReducedForm(w, [2] * 50, [0.0] * 50)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = qf.pdf_central_even(red, -213.9)
        # the weight -1 term alone: the next negative weight, -1/4, adds e^-428
        (a,) = [a for wl, k, a in qf.partial_fractions(red).terms if wl == -1.0 and k == 1]
        assert res.value == pytest.approx(a * 0.5 * math.exp(-213.9 / 2.0), rel=1e-12)

    def test_cdf_monotone_on_grid(self):
        red = qf.ReducedForm([2.0, 1.0, -0.5], [4, 2, 2], [0.0] * 3)
        grid = np.linspace(-8, 25, 100)
        vals = [qf.cdf_central_even(red, float(x)).value for x in grid]
        assert np.all(np.diff(vals) >= -1e-13)


class TestSeriesCoefficients:
    def test_ruben_collapse_single_weight(self):
        eff = effective([2.0] * 3, [0.0] * 3, 0.0, 0.0)
        co = qf.series_coefficients(eff, "ruben", beta=2.0, k_terms=10)
        assert abs(co.c[0] - 1.0) < 1e-14
        assert np.allclose(co.c[1:], 0.0, atol=1e-15)
        assert np.allclose(co.d, 0.0, atol=1e-15)
        # noncentral with beta = lam: only the noncentrality recursion survives
        effn = effective([2.0] * 3, [0.5, 0.2, 0.0], 0.0, 0.0)
        con = qf.series_coefficients(effn, "ruben", beta=2.0, k_terms=10)
        assert abs(con.c[0] - math.exp(-0.5 * 0.7)) < 1e-14

    def test_ruben_mixture_mass(self):
        eff = effective([1.0, 0.5], [0.0, 0.0], 0.0, 0.0)
        co = qf.series_coefficients(eff, "ruben", beta=2.0 / 3.0, k_terms=200)
        assert co.c.sum() >= 0.999999

    def test_kotz_leading_coefficient(self):
        eff = effective([1.0, 0.5], [0.0, 0.0], 0.0, 0.0)
        co = qf.series_coefficients(eff, "kotz", k_terms=4)
        assert abs(co.c[0] - 1.0 / math.sqrt(2.0)) < 1e-14

    def test_not_applicable(self):
        indef = effective([1.0, -1.0], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(qf.NotApplicableError):
            qf.series_coefficients(indef, "ruben")
        gauss = effective([1.0], [0.0], 1.0, 0.0)
        with pytest.raises(qf.NotApplicableError):
            qf.series_coefficients(gauss, "ruben")

    def test_cached_coefficients_keep_the_gaussian_check(self):
        # the cache key used to leave out sigma: the same weights without a
        # Gaussian term, expanded first, hid the NotApplicableError
        qf.series_coefficients(effective([1.7], [0.0], 0.0, 0.0), "ruben")
        with pytest.raises(qf.NotApplicableError):
            qf.series_coefficients(effective([1.7], [0.0], 1.0, 0.0), "ruben")


    @pytest.mark.parametrize("kind", ["ruben", "kotz", "laguerre"])
    @pytest.mark.parametrize("delta2", [[0.0] * 4, [0.5, 0.0, 1.2, 0.3]],
                             ids=["central", "noncentral"])
    def test_grown_set_equals_a_fresh_build(self, kind, delta2):
        # a set grown along the doubling chain keeps each prefix bit for bit
        # and ends where a build of all 1054 terms at once does
        red = qf.ReducedForm([2.0, 1.1, 0.4, 0.3], [1, 3, 2, 5], delta2)
        grown = None
        for k_terms in (64, 130, 262, 526, 1054):
            longer = qf.series_coefficients(red, kind, None, k_terms, grown)
            if grown is not None:
                assert np.array_equal(longer.c[:grown.c.size], grown.c)
                assert np.array_equal(longer.d[:grown.d.size], grown.d)
            grown = longer
        fresh = qf.series_coefficients(red, kind, None, 1054)
        assert grown.c.shape == fresh.c.shape and grown.beta == fresh.beta
        assert np.all(np.abs(grown.c - fresh.c) <= 1e-13 * np.abs(fresh.c))
        assert np.all(np.abs(grown.d - fresh.d) <= 1e-13 * np.abs(fresh.d))

    def test_power_table(self):
        # products from pow anchors: within 64 eps of pow, and a row does
        # not depend on the range it is built in
        base = np.array([0.999, -0.7, 0.5, 0.0, 1.3, 1e-3])
        table = series._powers(base, 0, 300)
        exact = base[None, :] ** np.arange(300)[:, None]
        assert np.all(np.abs(table - exact) <= 64 * np.finfo(float).eps * np.abs(exact))
        assert np.array_equal(series._powers(base, 130, 262), table[130:262])


class TestSeriesEvaluation:
    def test_ruben_vs_imhof(self):
        eff = effective([1.0, 0.5], [0.0, 0.0], 0.0, 0.0)
        red = qf.group_eigenvalues(eff)
        for q in (0.5, 1.0, 2.0, 4.0):
            rb = qf.cdf_series(eff, q, "ruben", tol=1e-10)
            im = qf.cdf_imhof(red, q, tol=1e-5)
            assert abs(rb.value - im.value) < 1e-8

    def test_support_boundary(self):
        eff = effective([1.0, 0.6, 0.2], [0.0] * 3, 0.0, 0.0)
        for kind in ("ruben", "kotz", "laguerre"):
            assert qf.cdf_series(eff, 0.0, kind).value == 0.0
            assert qf.pdf_series(eff, 0.0, kind).value == 0.0

    def test_noncentral_vs_monte_carlo(self):
        eff = effective([1.0, 1.0], [1.0, 1.0], 0.0, 0.0)
        red = qf.group_eigenvalues(eff)
        draws = qf.reference.sample_reduced(red, 10**7, seed=77) \
            if hasattr(qf, "reference") else None
        from quadform.reference import sample_reduced
        draws = sample_reduced(red, 10**7, seed=77)
        for p in (0.1, 0.3, 0.5, 0.7, 0.9):
            q = float(np.quantile(draws, p))
            mc = np.mean(draws <= q)
            se = math.sqrt(mc * (1 - mc) / draws.size)
            val = qf.cdf_series(eff, q, "ruben", tol=1e-10).value
            assert abs(val - mc) < 3.0 * se + 1e-9

    def test_all_kinds_agree(self):
        eff = effective([1.3, 0.9, 0.4], [0.5, 0.0, 1.0], 0.0, 0.2)
        for q in (1.0, 3.0, 7.0):
            ref = qf.cdf_series(eff, q, "ruben", tol=1e-11).value
            for kind in ("kotz", "laguerre"):
                assert abs(qf.cdf_series(eff, q, kind, tol=1e-11).value - ref) < 1e-9
            pref = qf.pdf_series(eff, q, "ruben", tol=1e-11).value
            for kind in ("kotz", "laguerre"):
                assert abs(qf.pdf_series(eff, q, kind, tol=1e-11).value - pref) < 1e-9

    @pytest.mark.parametrize("kind", ["ruben", "kotz", "laguerre"])
    @pytest.mark.parametrize("cumulative", [True, False])
    def test_refused_below_the_constant_too(self, kind, cumulative):
        """A form the series do not apply to is refused at every point, also
        below its constant, where a definite form's CDF would be 0."""
        fn = qf.cdf_series if cumulative else qf.pdf_series
        method = select.cdf if cumulative else select.pdf
        forms = [qf.ReducedForm([1.0, -1.0], [1, 1], [0.0, 0.0]),     # indefinite
                 qf.ReducedForm([1.0, 0.5], [2, 1], [0.3, 0.0], 0.5),  # sigma > 0
                 qf.ReducedForm([], [], [], 1.5, 0.7)]                 # no groups
        for red in forms:
            for q in (red.const - 0.5, red.const, red.const + 0.5, math.inf):
                with pytest.raises(qf.NotApplicableError):
                    fn(red, q, kind)
                with pytest.raises(qf.NotApplicableError):
                    method(red, np.array([q, q + 1.0]), kind)
            with pytest.raises(qf.InvalidInputError):
                fn(red, math.nan, kind)

    def test_kotz_far_tail_rejected(self):
        eff = effective([1.0, 0.5], [0.0, 0.0], 0.0, 0.0)
        with pytest.raises(qf.NotApplicableError):
            qf.cdf_series(eff, 100.0, "kotz")

    def test_pdf_nonnegative_and_normalized(self):
        eff = effective([1.0, 0.4], [0.3, 0.0], 0.0, 0.0)
        grid = np.linspace(0.0, 30.0, 100)
        vals = np.array([qf.pdf_series(eff, float(x), "ruben", tol=1e-10).value
                         for x in grid])
        assert np.all(vals >= 0.0)
        mass, _ = integrate.quad(
            lambda x: qf.pdf_series(eff, x, "ruben", tol=1e-10).value, 0.0, 60.0,
            limit=200,
        )
        assert abs(mass - 1.0) < 1e-4

    def test_cdf_monotone(self):
        eff = effective([1.0, 0.4], [0.3, 0.0], 0.0, 0.0)
        grid = np.linspace(0.0, 20.0, 100)
        vals = [qf.cdf_series(eff, float(x), "ruben", tol=1e-10).value for x in grid]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_central_even_matches_ruben(self):
        red = qf.ReducedForm([1.5, 0.5], [2, 4], [0.0, 0.0])
        for q in (0.5, 2.0, 6.0):
            a = qf.cdf_central_even(red, q).value
            b = qf.cdf_series(red, q, "ruben", tol=1e-11).value
            assert abs(a - b) < 1e-8


class TestDefiniteForms:
    NEGATIVE = qf.ReducedForm([-1.5, -0.7], [1, 2], [0.5, 0.0], 0.0, 0.4)
    POSITIVE = qf.ReducedForm([1.5, 0.7], [1, 2], [0.5, 0.0], 0.0, -0.4)
    POINTS = np.array([-8.0, -2.0, -0.3, 0.3999, 0.4, 1.0])

    @pytest.mark.parametrize("kind", ["ruben", "kotz", "laguerre"])
    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_negative_definite_equals_select(self, kind, quantity):
        fn = series.cdf_series if quantity == "cdf" else series.pdf_series
        route = select.cdf if quantity == "cdf" else select.pdf
        got = fn(self.NEGATIVE, self.POINTS, kind, 1e-8)
        assert got == route(self.NEGATIVE, self.POINTS, kind, 1e-8)
        # the negation at -q: F(q) = 1 - F_-(-q), f(q) = f_-(-q)
        mirror = fn(self.POSITIVE, -self.POINTS, kind, 1e-8)
        for q, res, pos in zip(self.POINTS, got, mirror):
            # a point on or above the support (q >= 0.4) is answered at q itself
            assert res.diagnostics.get("negated") is (True if q < 0.4 else None)
            assert res.method == pos.method and res.error_bound == pos.error_bound
            if quantity == "cdf":
                assert res.value == 1.0 - pos.value
                assert res.diagnostics["raw_value"] == 1.0 - pos.diagnostics["raw_value"]
            else:
                assert res.value == pos.value
        assert got[-1].value == (1.0 if quantity == "cdf" else 0.0)

    @pytest.mark.parametrize("red", [
        qf.ReducedForm([1.5, 0.5], [2, 4], [0.0, 0.0]),     # rigorous remainder
        qf.ReducedForm([1.3, 0.9, 0.4], [1, 2, 1], [0.5, 0.0, 1.0], 0.0, 0.2),
        NEGATIVE,
    ])
    @pytest.mark.parametrize("kind", ["ruben", "laguerre"])
    def test_planless_call_equals_planned(self, red, kind):
        qs = np.linspace(-6.0, 6.0, 13)
        for fn in (series.cdf_series, series.pdf_series):
            assert fn(red, qs, kind) == fn(red, qs, kind, plan=select.Plan(red))
            assert fn(red, 1.7, kind) == fn(red, 1.7, kind, plan=select.Plan(red))

    def test_grouped_equals_effective(self):
        # the grouped form and its nu = 1 expansion are one distribution
        red = qf.ReducedForm([1.5, 0.5], [2, 3], [0.4, 0.0])
        eff = effective([1.5, 1.5, 0.5, 0.5, 0.5], [0.4, 0.0, 0.0, 0.0, 0.0])
        for fn in (series.cdf_series, series.pdf_series):
            for a, b in zip(fn(red, np.array([0.5, 2.0, 7.0])),
                            fn(eff, np.array([0.5, 2.0, 7.0]))):
                assert a.value == pytest.approx(b.value, rel=1e-12)
                assert a.diagnostics["k_truncation"] == b.diagnostics["k_truncation"]


class TestTruncationBound:
    """Ruben's expansion at beta = min(lam) is a mixture of scaled chi-square
    laws, and its leftover mass bounds the remainder at every point."""

    FORMS = [qf.ReducedForm([1.0, 0.5], [1, 2], [0.0, 0.0]),
             qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.5, 0.0, 1.2]),
             qf.ReducedForm([6.158730905020207, 0.0903978071187008], [1, 2], [0.0, 0.0]),
             qf.ReducedForm([0.3, 0.2, 0.1], [3, 1, 2], [2.0, 0.0, 0.4], 0.0, 0.7)]

    @pytest.mark.parametrize("red", FORMS)
    def test_a_mixture_at_the_smallest_weight(self, red):
        co = qf.series_coefficients(red, "ruben", None, 4000)
        assert co.beta == red.omega.min()
        assert np.all(co.c >= 0.0) and co.c.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("cumulative", [True, False], ids=["cdf", "pdf"])
    @pytest.mark.parametrize("red", FORMS)
    def test_bound_dominates_the_remainder(self, red, cumulative):
        # the terms past K of a 4000-term expansion, whose own leftover
        # mass is below 1e-12, against the bound after K + 1 terms
        full = qf.series_coefficients(red, "ruben", None, 4000)
        assert 1.0 - full.c.sum() < 1e-12
        mean = qf.cumulants(red, 1).get(1) - red.const
        x = mean * np.array([0.05, 0.3, 1.0, 2.5, 6.0])
        terms, _ = series._series_terms(full, x, cumulative)
        for k in (64, 130, 262, 526):
            head = dataclasses.replace(full, c=full.c[:k + 1], d=full.d[:k])
            partial = terms[:, :k + 1].sum(axis=1)
            bound = series._ruben_remainder(head, x, partial, 0.0, cumulative)
            assert np.all(terms[:, k + 1:].sum(axis=1) <= bound)

    def test_stops_on_its_bound_alone(self):
        # a run of tiny terms is no stop: at grid seed 0 op 52 the terms are
        # below tol/100 for a while before the mixture's bulk arrives, and
        # a stop there gave 2.9e-15 where the density is 3.4933e-4
        red = self.FORMS[2]
        res = qf.pdf_series(red, 51.46, "ruben", 1e-8)
        assert res.provenance == "rigorous" and res.error_bound <= 1e-8
        assert abs(res.value - 3.49325135642e-4) <= 1e-13
        for fn in (qf.cdf_series, qf.pdf_series):
            for r in fn(red, np.linspace(0.0, 343.0, 41)[1:], "ruben", 1e-8):
                assert r.provenance == "rigorous" and r.error_bound <= 1e-8

    def test_subnormal_c0_is_refused(self):
        # c0 = 0.01^200 would carry no relative precision into the c_k: the
        # expansion refuses the form, and auto's Imhof rerun answers an
        # admitted point
        red = qf.ReducedForm([100.0, 1.0], [400, 1], [0.0, 0.0])
        with pytest.raises(qf.NotApplicableError):
            qf.series_coefficients(red, "ruben")
        res, = select._walk(select.Plan(red), np.array([4e4]), "ruben", 1e-8, "cdf")
        assert res.method == "imhof" and res.diagnostics["ruben_bound"] == math.inf

    @pytest.mark.parametrize("omega,nu", [([100.0, 0.01], [1, 1]), ([1.0, 1e-3], [1, 1]),
                                          ([3.7, 0.013], [5, 3])])
    def test_rounding_allowance_near_k_max(self, omega, nu):
        # one weight above beta makes J negative binomial: c_k = (1 - rho)^r
        # (r)_k / k! rho^k with r = nu/2 and rho = 1 - beta/w.  Against these
        # exact coefficients, every computed c_k up to K_MAX and the leftover
        # mass are within the allowance (nonzero terms - 1) eps that
        # _ruben_remainder adds
        red = qf.ReducedForm(omega, nu, [0.0, 0.0])
        co = qf.series_coefficients(red, "ruben", None, series.K_MAX)
        allowance = (np.count_nonzero(co.c) - 1) * np.finfo(float).eps
        with mp.workdps(40):
            rho = 1 - mp.mpf(omega[1]) / mp.mpf(omega[0])
            r = mp.mpf(nu[0]) / 2
            c, exact = (1 - rho) ** r, []
            for k in range(co.c.size):
                exact.append(c)
                c = c * (r + k) / (k + 1) * rho
            assert max(abs(mp.mpf(a) / b - 1) for a, b in zip(co.c, exact)) <= allowance
            leftover = 1 - mp.fsum(exact)
            assert abs(leftover - (1.0 - co.c.sum())) <= allowance * co.c.sum()

    def test_equal_weights_terminate(self):
        # beta equals every weight, so c0 = 1 is the only term: the leftover
        # mass and the rounding are exactly 0
        red = qf.ReducedForm([1.0], [4], [0.0])
        for q in (0.5, 3.0, 9.0):
            cdf = qf.select.cdf(red, q, "ruben")
            pdf = qf.select.pdf(red, q, "ruben")
            assert abs(cdf.value - (1.0 - math.exp(-q / 2) * (1.0 + q / 2))) < 1e-14
            assert abs(pdf.value - q * math.exp(-q / 2) / 4.0) < 1e-14
            assert cdf.provenance == pdf.provenance == "rigorous"
            assert cdf.error_bound == pdf.error_bound == 0.0


class TestOneSetUp:
    def test_quantile_computes_each_coefficient_once(self, monkeypatch):
        # a definite form on the chi-square expansion: the search's CDF calls
        # share the plan's coefficient sets, each grown in place, so per
        # (kind, beta) the computed ranges k_from+1..k_terms tile 1..K once;
        # a search whose every CDF call builds its own plan gives the same
        # results and computes the low coefficients again
        red = qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.0, 0.0, 0.0])
        real, spans = series.series_coefficients, []

        def counted(eff, kind, beta=None, k_terms=64, prefix=None):
            spans.append((kind, beta, 0 if prefix is None else prefix.d.size, k_terms))
            return real(eff, kind, beta, k_terms, prefix)

        monkeypatch.setattr(series, "series_coefficients", counted)
        real_cdf = select.cdf
        for p in (0.01, 0.5, 0.99):
            spans.clear()
            q = qf.quantile(red, p, 1e-6)
            shared = list(spans)
            assert q.cdf.method == "ruben_cdf" and q.cdf_calls > 1
            for key in {s[:2] for s in shared}:
                ranges = [s[2:] for s in shared if s[:2] == key]
                assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
            spans.clear()
            with monkeypatch.context() as m:
                m.setattr(select, "cdf", lambda red, x, method, tol, plan=None:
                          real_cdf(red, x, method, tol))
                fresh = qf.quantile(red, p, 1e-6)
            assert (q, q.cdf, q.cdf_calls) == (fresh, fresh.cdf, fresh.cdf_calls)
            assert (sum(hi - lo for *_, lo, hi in spans)
                    > sum(hi - lo for *_, lo, hi in shared))

    def test_plan_slices_its_grown_set(self):
        # a shorter request after growth is the prefix of the one set, equal
        # bit for bit to the set a fresh plan builds
        red = qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.4, 0.0, 0.0])
        plan = select.Plan(red)
        long = plan.coefficients("ruben", 262)
        short = plan.coefficients("ruben", 64)
        fresh = select.Plan(red).coefficients("ruben", 64)
        assert list(plan._coefficients) == ["ruben"]
        assert short.c.size == 65 and short.d.size == 64
        assert np.array_equal(short.c, fresh.c) and np.array_equal(short.d, fresh.d)
        assert np.array_equal(long.c[:65], fresh.c) and short.beta == long.beta

    @pytest.mark.parametrize("cumulative", [True, False], ids=["cdf", "pdf"])
    def test_doublings_sum_every_term_once(self, cumulative):
        # each doubling adds only its new terms to the running sum, so a value
        # is the in-order sum of the K + 1 terms of a set built at once
        red = qf.ReducedForm(np.geomspace(0.1, 2.0, 12), [1] * 12, [0.3] + [0.0] * 11)
        xs = np.array([2.0, 6.0, 12.0, 30.0])
        fn = qf.cdf_series if cumulative else qf.pdf_series
        results = fn(red, xs, "ruben", 1e-12)
        ks = [res.diagnostics["k_truncation"] for res in results]
        assert len(set(ks)) > 1 and max(ks) >= 262
        for x, res, k in zip(xs, results, ks):
            fresh = qf.series_coefficients(red, "ruben", None, k)
            terms, _ = series._series_terms(fresh, np.array([x]), cumulative)
            assert res.diagnostics["raw_value"] == np.cumsum(terms, axis=1)[0, -1]

    def test_no_module_level_value_cache(self):
        # the per-form set-up lives on select.Plan; a module keeps no values
        # across calls
        caches = []
        for info in pkgutil.iter_modules(qf.__path__):
            module = importlib.import_module(f"quadform.{info.name}")
            for name, value in vars(module).items():
                if name.startswith("__") and name.endswith("__"):
                    continue
                assert not isinstance(value, (dict, list, set)), (info.name, name)
                if getattr(value, "__module__", None) != module.__name__:
                    continue
                members = vars(value).items() if isinstance(value, type) else [(name, value)]
                caches += [f"{info.name}.{attr}" for attr, member in members
                           if hasattr(member, "cache_info")]
        assert caches == ["cli.build_parser"]
