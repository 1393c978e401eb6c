import functools
import inspect
import math
import sys
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import optimize, special, stats

import quadform as qf
from quadform import approx, inversion, ratio, select, series, transforms
from quadform.forms import DaviesParams, ImhofParams, MethodResult
from quadform.reference import sample_reduced

from conftest import make_rng, quantile_points, random_reduced

CHI21 = qf.ReducedForm([1.0], [1], [0.0])
CHI22 = qf.ReducedForm([1.0], [2], [0.0])
EX1 = qf.ReducedForm([2.0, -2.0], [1, 1], [0.125, 0.125], 2.0, 1.0)
FAILURE_CASE = qf.ReducedForm([1.0, 0.6**4], [1, 1], [1.0, 7.0])
# X1^2 - X2^2 = 2 U V with U, V independent N(0, 1): density K0(|q|/2) / (2 pi)
LIGHT = qf.ReducedForm([1.0, -1.0], [1, 1], [0.0, 0.0])
NORMAL = qf.ReducedForm([], [], [], 1.5, 0.7)
TWO_VARIABLES = qf.RatioSpec([[1.0, 0.3], [0.3, -0.5]], np.eye(2), [0.2, -0.1], np.eye(2))


def best_effort(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except qf.ConvergenceFailureError as exc:
        return exc.result


class TestIntegrand:
    def test_zero_limit_chi22(self):
        theta, rho = qf.imhof_integrand(CHI22, 0.0, 2.0)
        assert float(rho) == 1.0 and float(theta) == 0.0
        # the limit of sin(theta)/(u rho) equals (sum w (nu+d2) - q)/2 = 0 here
        nodes = inversion._evaluate_nodes([(CHI22, np.array([0.0]))])[0]
        half_mean = np.array([inversion._tail_form(CHI22).half_mean])
        f = inversion._integrand(nodes[None], np.array([[0.5 * 2.0]]), False, half_mean)
        assert abs(float(f[0, 0])) < 1e-15

    def test_direct_substitution(self):
        red = qf.ReducedForm([1.0], [1], [0.0])
        theta, rho = qf.imhof_integrand(red, 1.0, 0.0)
        assert abs(float(theta) - math.pi / 8) < 1e-14
        assert abs(float(rho) - 2.0**0.25) < 1e-14

    def test_gaussian_envelope(self):
        """A Gaussian term leaves the phase alone and multiplies rho by
        e^(sigma^2 u^2/8)."""
        u = np.array([0.0, 0.3, 1.0, 4.0])
        theta, rho = qf.imhof_integrand(EX1, u, 0.7)
        theta0, rho0 = qf.imhof_integrand(
            qf.ReducedForm(EX1.omega, EX1.nu, EX1.delta2, 0.0, EX1.const), u, 0.7)
        np.testing.assert_array_equal(theta, theta0)
        np.testing.assert_allclose(rho, rho0 * np.exp((EX1.sigma_gauss * u) ** 2 / 8.0),
                                   rtol=1e-14)

    def test_overflowing_modulus_is_inf(self):
        # under the suite's error::RuntimeWarning:quadform filter
        theta, rho = qf.imhof_integrand(OVERFLOW, 1.0, 5.0)
        assert math.isinf(rho) and math.isfinite(theta)


class TestCdfImhof:
    def test_chi21_known_value(self):
        res = qf.cdf_imhof(CHI21, 1.0, tol=1e-7)
        assert abs(res.value - (2 * stats.norm.cdf(1.0) - 1.0)) < 1e-6

    def test_failure_case_reports_honestly(self):
        # loose fixed parameters: the deviation must be covered by the bound
        loose = ImhofParams(u_max=5.0, panels=64)
        res = qf.cdf_imhof(FAILURE_CASE, 35.0, params=loose)
        ref = best_effort(qf.cdf_imhof, FAILURE_CASE, 35.0, tol=1e-10)
        assert 0.0 <= res.value <= 1.0  # presentation clamp
        assert abs(res.diagnostics["raw_value"] - ref.value) <= res.error_bound
        # bound-driven parameters agree with the tight reference
        res2 = best_effort(qf.cdf_imhof, FAILURE_CASE, 35.0, tol=1e-8)
        assert abs(res2.value - ref.value) <= res2.error_bound + ref.error_bound

    def test_indefinite_vs_monte_carlo(self):
        red = qf.ReducedForm([2.0, -2.0], [1, 1], [0.125, 0.125])
        res = qf.cdf_imhof(red, 0.0, tol=1e-8)
        draws = sample_reduced(red, 10**6, seed=9)
        mc = float(np.mean(draws <= 0.0))
        se = math.sqrt(mc * (1 - mc) / draws.size)
        assert abs(res.value - mc) < 3.0 * se

    def test_shift_covariance(self):
        base = qf.ReducedForm([1.0, -0.4], [2, 1], [0.3, 0.0], 0.0, 0.0)
        shifted = base.shifted(1.7)
        a = qf.cdf_imhof(shifted, 2.0, tol=1e-9)
        b = qf.cdf_imhof(base, 2.0 - 1.7, tol=1e-9)
        assert a.value == b.value

    def test_raw_value_within_bound_band(self, rng):
        for _ in range(10):
            red = random_reduced(rng, min_dof=4)
            q = quantile_points(red, (0.05,))[0]
            res = best_effort(qf.cdf_imhof, red, q, tol=1e-8)
            raw = res.diagnostics["raw_value"]
            assert -res.error_bound <= raw <= 1.0 + res.error_bound


    @pytest.mark.parametrize("panels", [2, 3, 5, 64])
    def test_fixed_params_panels(self, panels):
        red = qf.ReducedForm([1.2, -0.5], [3, 2], [0.3, 0.0])
        res = qf.cdf_imhof(red, 0.7, params=ImhofParams(u_max=6.0, panels=panels))
        # one halved-grid pass, then doubling up to the requested count
        expect = max(panels // 2, 2)
        while expect < max(panels, 4):
            expect *= 2
        assert res.diagnostics["panels"] == expect
        assert math.isfinite(res.diagnostics["quad_estimate"])


class TestRoundingBound:
    # central, even dofs: the partial fractions and a 40-digit integral agree
    LEFT_TAIL = qf.ReducedForm([10.0, -1.0], [30, 2], [0.0, 0.0])
    EXACT = 3.946907638314353e-16

    @pytest.mark.parametrize("fn", [qf.cdf_imhof, qf.cdf_davies])
    def test_far_tail_value_within_bound(self, fn):
        res = fn(self.LEFT_TAIL, 1.0, tol=1e-8)
        assert res.provenance == "rigorous"
        assert abs(res.diagnostics["raw_value"] - self.EXACT) <= res.error_bound

    def test_partial_fractions_agree(self):
        ref = qf.cdf_central_even(self.LEFT_TAIL, 1.0)
        assert abs(ref.value - self.EXACT) <= 4e-16 * self.EXACT


class TestPdfImhof:
    @pytest.mark.parametrize("panels", [2, 5, 64])
    def test_fixed_params_do_not_refine(self, panels):
        # the CDF's fixed grid: one halved-grid pass, then doubling up to the
        # requested count and no further
        red = qf.ReducedForm([1.2, -0.5], [3, 2], [0.3, 0.0])
        res = qf.pdf_imhof(red, 0.7, params=ImhofParams(u_max=6.0, panels=panels))
        expect = max(panels // 2, 2)
        while expect < max(panels, 4):
            expect *= 2
        assert res.diagnostics["panels"] == expect
        assert math.isfinite(res.diagnostics["quad_estimate"])
        assert res.error_bound >= res.diagnostics["quad_estimate"]


    def test_chi22_density(self):
        res = qf.pdf_imhof(CHI22, 2.0, tol=1e-8)
        assert abs(res.value - math.exp(-1.0) / 2.0) < 1e-7
        assert res.provenance == "heuristic"

    def test_symmetric_even(self):
        red = qf.ReducedForm([1.0, -1.0], [1, 1], [0.0, 0.0])
        a = qf.pdf_imhof(red, 1.0, tol=1e-7)
        b = qf.pdf_imhof(red, -1.0, tol=1e-7)
        assert abs(a.value - b.value) < 1e-9

    def test_matches_cdf_derivative(self):
        red = qf.ReducedForm([1.2, 0.7, -0.5], [2, 1, 3], [0.3, 0.0, 1.1])
        h = 1e-4
        for q in (-2.0, -0.5, 0.5, 2.0, 4.0):
            fd = (qf.cdf_imhof(red, q + h, tol=1e-10).value
                  - qf.cdf_imhof(red, q - h, tol=1e-10).value) / (2 * h)
            assert abs(qf.pdf_imhof(red, q, tol=1e-9).value - fd) < 1e-4


class TestCdfDavies:
    def test_pure_gaussian(self):
        red = qf.ReducedForm(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0),
                             1.0, 0.0)
        res = qf.cdf_davies(red, 1.6448536269514722, tol=1e-7)
        assert res.provenance == "exact" and res.error_bound == 0.0
        assert res.value == float(special.ndtr(1.6448536269514722))

    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("omega, nu, delta2", [
        ([1.0], [1], [0.0]), ([1.0], [1], [0.8]),
        ([1.0, -0.6], [1, 1], [0.0, 0.0]), ([1.0, -0.6], [1, 1], [0.5, 0.3]),
        ([1.2, -0.5], [2, 1], [0.0, 0.0]), ([1.2, -0.5], [2, 1], [0.0, 0.9]),
    ])
    def test_fixed_lattice_truncation(self, omega, nu, delta2, sigma):
        """The lattice terms past k_max = K, summed up to 8K, lie within K's
        truncation bound (Imhof's T_U at U = 2 (K + 1/2) Delta) and the
        rounding of both sums, down to one dof."""
        red = qf.ReducedForm(omega, nu, delta2, sigma, 0.2)
        for delta, k in ((0.3, 4), (0.3, 40), (0.05, 100)):
            short, long = (qf.cdf_davies(red, 0.9, params=DaviesParams(delta, n))
                           for n in (k, 8 * k))
            rounding = sum(r.error_bound - r.diagnostics["truncation_bound"]
                           - r.diagnostics["lattice_bound"] for r in (short, long))
            assert short.diagnostics["u_max"] == (k + 0.5) * delta
            assert (abs(short.diagnostics["raw_value"] - long.diagnostics["raw_value"])
                    <= short.diagnostics["truncation_bound"] + rounding)

    def test_agrees_with_imhof_on_random_forms(self, rng):
        for _ in range(100):
            red = random_reduced(rng, min_dof=5)
            q = quantile_points(red, (0.25,))[0]
            a = best_effort(qf.cdf_imhof, red, q, tol=1e-7)
            b = best_effort(qf.cdf_davies, red, q, tol=1e-7)
            assert abs(a.value - b.value) <= a.error_bound + b.error_bound + 1e-10

    def test_paper_example_one_vs_monte_carlo(self):
        draws = sample_reduced(EX1, 10**7, seed=123)
        for q in (-2.0, 1.0, 5.0):
            res = qf.cdf_davies(EX1, q, tol=1e-8)
            mc = float(np.mean(draws <= q))
            se = math.sqrt(mc * (1 - mc) / draws.size)
            assert abs(res.value - mc) < 3.0 * se

    def test_lattice_halving_bound(self, rng):
        for _ in range(50):
            red = random_reduced(rng, min_dof=3, gaussian=bool(rng.random() < 0.3))
            q = quantile_points(red, (0.5,))[0]
            base = best_effort(qf.cdf_davies, red, q, tol=1e-6)
            delta = base.diagnostics["delta"]
            k_max = base.diagnostics["k_max"]
            coarse = qf.cdf_davies(red, q, params=DaviesParams(delta, k_max))
            fine = qf.cdf_davies(
                red, q, params=DaviesParams(delta / 2.0, 2 * k_max + 1))
            lattice = coarse.diagnostics["lattice_bound"]
            trunc = coarse.diagnostics["truncation_bound"] \
                + fine.diagnostics["truncation_bound"]
            assert abs(coarse.diagnostics["raw_value"] - fine.diagnostics["raw_value"]) \
                <= lattice + trunc + 1e-12

    def test_shift_covariance(self):
        base = qf.ReducedForm([1.0, -0.4], [2, 1], [0.3, 0.0], 0.7, 0.0)
        shifted = base.shifted(-0.9)
        a = qf.cdf_davies(shifted, 0.5, tol=1e-8)
        b = qf.cdf_davies(base, 0.5 + 0.9, tol=1e-8)
        assert a.value == b.value


class TestImhofTailBoundValidity:
    def test_tail_dominated_by_bound(self, rng):
        violations = 0
        for _ in range(50):
            red = random_reduced(rng, min_dof=3)
            q = quantile_points(red, (0.75,))[0]
            x = q - red.const
            form = inversion._tail_form(red)
            for u in (3.0, 6.0, 12.0):
                bound = inversion._Rung(red, u, form).head.plain
                # empirical tail over [U, 4U] with a fine fixed grid
                grid = np.linspace(u, 4.0 * u, 20001)
                nodes = inversion._evaluate_nodes([(red, grid)])[0]
                f = inversion._integrand(nodes[None], np.array([[0.5 * x]]), False)[0]
                tail = abs(np.trapezoid(f, grid)) / math.pi
                if tail > bound:
                    violations += 1
        assert violations == 0


class TestQuantile:
    def test_chi22_median(self):
        q = qf.quantile(CHI22, 0.5)
        assert abs(q - 2.0 * math.log(2.0)) < 1e-8

    def test_symmetric_median_zero(self):
        # the Cornish-Fisher start of a symmetric form's median is its mean
        q = qf.quantile(LIGHT, 0.5)
        assert q == 0.0 and q.cdf_calls <= 2 and abs(q.cdf.value - 0.5) <= 1e-10

    @pytest.mark.parametrize("red,dist,start_below_support", [
        # noncentral chi-square: the Cornish-Fisher start at p = 0.01 lies
        # below the support's end 0
        (qf.ReducedForm([1.0], [1], [4.0]), stats.ncx2(1, 4.0), True),
        # chi-square_1: Cornish-Fisher is poor in both tails
        (qf.ReducedForm([1.0], [1], [0.0]), stats.chi2(1), False),
    ])
    def test_round_trip_skewed(self, red, dist, start_below_support):
        ks = qf.cumulants(red, 4).kappa
        z, sd = stats.norm.ppf(0.01), math.sqrt(ks[1])
        g1, g2 = ks[2] / sd**3, ks[3] / sd**4
        start = ks[0] + sd * (z + (z * z - 1) * g1 / 6 + (z**3 - 3 * z) * g2 / 24
                              - (2 * z**3 - 5 * z) * g1 * g1 / 36)
        assert (start < 0.0) == start_below_support
        for p in (1e-3, 0.01, 0.5, 0.99, 0.999):
            q = qf.quantile(red, p, tol=1e-8)
            assert q > 0.0 and abs(dist.cdf(q) - p) <= 1e-8, p

    def test_round_trip(self, rng):
        for _ in range(20):
            red = random_reduced(rng, min_dof=4, gaussian=bool(rng.random() < 0.25))
            for p in (0.01, 0.5, 0.99):
                x = qf.quantile(red, p, tol=1e-8)
                val = best_effort(qf.cdf_imhof, red, x, tol=1e-9).value
                assert abs(val - p) < 1e-8

    def test_invalid_level(self):
        with pytest.raises(qf.InvalidInputError):
            qf.quantile(CHI22, 1.5)


class TestRouter:
    @pytest.mark.parametrize("red,cdf_route,pdf_route", [
        (LIGHT, "imhof", "imhof"),
        (qf.ReducedForm([1.0, -0.6], [1, 3], [0.5, 0.0]), "imhof", "imhof"),
        (qf.ReducedForm([1.0, -0.6], [2, 4], [0.5, 0.0]), "imhof", "imhof"),
        (qf.ReducedForm([2.0, 1.0, -0.5], [2, 4, 2], [0.0] * 3), "central_even",
         "central_even"),
        (qf.ReducedForm([1.2, 0.4], [3, 2], [0.0, 0.0]), "ruben", "ruben"),
        (qf.ReducedForm([-1.0, -0.3], [2, 3], [0.4, 0.0]), "ruben", "ruben"),
        (EX1, "imhof", "imhof"),
        (qf.ReducedForm([1.0, 0.5], [2, 2], [0.0, 0.0], 1.0), "imhof", "imhof"),
    ])
    def test_route_at_the_mean(self, red, cdf_route, pdf_route):
        mean = qf.cumulants(red, 1).get(1)
        assert select.select_method(red, "cdf", mean) == cdf_route
        assert select.select_method(red, "pdf", mean) == pdf_route

    def test_central_even_indefinite_reroutes_to_imhof(self, monkeypatch):
        # a partial-fraction result above tol runs again on Imhof
        red = qf.ReducedForm([2.0, 1.0, -0.5], [2, 4, 2], [0.0] * 3)
        real = series.cdf_central_even
        monkeypatch.setattr(series, "cdf_central_even", lambda *args: [
            MethodResult(r.value, 1.0, r.method, r.provenance, r.diagnostics)
            for r in real(*args)])
        res = select.cdf(red, 1.0)
        assert (res.method, res.diagnostics["central_even_bound"]) == ("imhof", 1.0)
        assert res.value == qf.cdf_imhof(red, 1.0).value

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_light_dof_closed_form(self, quantity):
        qs = np.array([-20.0, -3.0, -0.5, 0.0, 0.3, 2.0, 8.0])
        fn = select.cdf if quantity == "cdf" else select.pdf
        with mp.workdps(30):
            for q, res in zip(qs, fn(LIGHT, qs)):
                a = mp.mpf(abs(q)) / 2
                if quantity == "cdf":
                    exact = mp.mpf(1) / 2 + mp.sign(q) * mp.quad(
                        lambda s: mp.besselk(0, s), [0, a]) / mp.pi
                    assert res.provenance == "rigorous"
                    # a work ceiling (Davies spends 2^25 lattice points here)
                    assert res.diagnostics["panels"] <= 2**19
                elif q == 0.0:
                    # the density has a pole at 0
                    assert math.isinf(res.value) and res.provenance == "exact"
                    assert res.error_bound == 0.0
                    continue
                else:
                    exact = mp.besselk(0, a) / (2 * mp.pi)
                assert res.method == "imhof"
                assert abs(res.value - float(exact)) <= res.error_bound, q


class TestAutoInversion:
    """Auto inverts on Imhof alone: no auto path runs Davies, a form without
    groups has its closed form, and a light form at x near 0, which a grid
    uniform in u cannot close within its cap, runs on the grid in log u."""

    def test_no_auto_path_runs_davies(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("auto ran cdf_davies")

        monkeypatch.setattr(inversion, "cdf_davies", refuse)
        rng = make_rng(24)
        forms = [random_reduced(rng, definite=definite, gaussian=gaussian)
                 for definite in ("positive", "negative", "indefinite")
                 for gaussian in (False, True)]
        forms += [NORMAL, LIGHT, EX1, qf.ReducedForm([2.0, 1.0, -0.5], [2, 4, 2], [0.0] * 3)]
        for red in forms:
            ks = qf.cumulants(red, 2)
            qs = ks.get(1) + math.sqrt(ks.get(2)) * np.array([-30.0, -3.0, -0.4, 0.0, 1.0, 30.0])
            for fn in (select.cdf, select.pdf):
                assert all(isinstance(res, MethodResult) for res in fn(red, qs))
            assert 0.0 < qf.quantile(red, 0.3).cdf.value < 1.0
        # a Gaussian term in the thresholds' forms (mu outside the range of Sigma)
        spec = qf.RatioSpec([[0.4, 0.3, -0.2], [0.3, -0.6, 0.5], [-0.2, 0.5, 0.1]],
                            [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]],
                            [0.2, -0.1, 0.5], np.diag([1.0, 2.0, 0.0]))
        methods = {res.method for res in qf.cdf_ratio(spec, np.linspace(-1.0, 1.0, 5))}
        assert methods == {"ratio_imhof"}
        # the two-variable ratio, whose thresholds run on the grid in log u
        assert {res.method for res in qf.cdf_ratio(TWO_VARIABLES, [-0.3, 0.5])} == {"ratio_imhof"}

    @pytest.mark.parametrize("case", ["vanishing_threshold", "light"])
    def test_light_forms_on_the_log_grid(self, case):
        """Two light forms at x near 0 that a 2^23-panel cap fails (the
        Davies rung answered them in about 1 s): Imhof answers them on a few
        hundred nodes in log u, and agrees with Davies within both bounds."""
        if case == "light":
            red, tol = qf.ReducedForm([1.0, -0.3], [1, 2], [0.0, 1.0]), 1e-10
            res = select.cdf(red, 0.0, tol=tol)
        else:
            # A - 3B = 0 up to rounding; at r = 5 the threshold form has three
            # one-dof groups and x = -2.2e-16
            s = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]])
            spec = qf.RatioSpec(3.0 * s, s, [0.3, -0.2, 0.1], np.diag([1.0, 2.0, 0.5]))
            [red], tol = ratio._reduce_pencil(spec, np.array([5.0])), 1e-9
            res = qf.cdf_ratio(spec, 5.0, tol=tol)
            assert res.method == "ratio_imhof"
            assert qf.cdf_ratio(spec, np.array([5.0]), tol=tol) == [res]
        assert res.method.endswith("imhof") and res.provenance == "rigorous"
        assert res.error_bound <= tol
        assert res.diagnostics["log_step"] <= 0.25 and res.diagnostics["panels"] <= 2**10
        davies = qf.cdf_davies(red, 0.0, tol=tol)
        assert abs(res.value - davies.value) <= res.error_bound + davies.error_bound

    def test_two_variable_ratio(self):
        """x'(A - rB)x in two variables with Sigma = I: each threshold form's
        constant is 0 up to rounding, so x is tiny and sum(nu) = 2 (the light
        case).  Every threshold is answered on the grid in log u with a
        bound at most tol, three of them within their bound of a 30-digit
        Gil-Pelaez integral; below the support the CDF is 0."""
        rs = np.linspace(-0.6, 1.05, 12)
        results = qf.cdf_ratio(TWO_VARIABLES, rs)
        forms = list(ratio._reduce_pencil(TWO_VARIABLES, rs))
        nodes = [0] + [mp.ldexp(1, j) for j in range(-12, 60, 4)] + [mp.inf]
        for r, res, red in zip(rs, results, forms):
            assert abs(red.const) < 1e-15
            assert res.method == "ratio_imhof" and res.provenance == "rigorous"
            assert res.error_bound <= 1e-8 and res.diagnostics["panels"] <= 2**10, r
        with mp.workdps(30):
            for k in (0, 3, 11):
                exact = float(_gil_pelaez(forms[k], 0.0, "cdf", nodes))
                assert abs(results[k].value - exact) <= results[k].error_bound, rs[k]
        assert results[0].value <= results[0].error_bound   # r = -0.6 < the least eigenvalue

    def test_failing_row_stops_at_the_panel_cap(self):
        """A CDF row that the uniform grid cannot close fails at
        IMHOF_PANELS_MAX panels: x = 1e-6 on the light form turns the phase
        too far over [0, U] for the grid in log u."""
        with pytest.raises(qf.ConvergenceFailureError) as info:
            select.cdf(LIGHT, 1e-6, tol=1e-9)
        diag = info.value.result.diagnostics
        assert diag["panels"] == inversion.IMHOF_PANELS_MAX and "log_step" not in diag
        assert 1e-6 * diag["u_max"] > 2.0

    def test_pure_normal_closed_form(self):
        qs = np.array([-4.0, -0.3, 0.7, 2.5, 9.0])
        z = (qs - NORMAL.const) / NORMAL.sigma_gauss
        cdf = special.ndtr(z)
        pdf = np.exp(-0.5 * z * z) / (math.sqrt(2.0 * math.pi) * NORMAL.sigma_gauss)
        for fn, want in ((select.cdf, cdf), (inversion.cdf_imhof, cdf),
                         (select.pdf, pdf), (inversion.pdf_imhof, pdf)):
            for got in (fn(NORMAL, qs), [fn(NORMAL, float(q)) for q in qs]):
                assert [res.value for res in got] == pytest.approx(want, rel=1e-14, abs=0.0)
                assert {(res.method, res.provenance, res.error_bound) for res in got} == {
                    ("imhof", "exact", 0.0)}
        for method in ("auto", "imhof"):
            for p in (0.01, 0.3, 0.5, 0.99):
                q = qf.quantile(NORMAL, p, method=method)
                assert q == pytest.approx(NORMAL.const + NORMAL.sigma_gauss * special.ndtri(p),
                                          rel=1e-12, abs=1e-12)
                assert q.cdf.method == "imhof"

    def test_point_mass_under_imhof(self):
        mass = qf.ReducedForm([], [], [], 0.0, 0.7)
        assert [res.value for res in qf.cdf_imhof(mass, [0.0, 0.7, 2.0])] == [0.0, 1.0, 1.0]
        assert [res.value for res in qf.pdf_imhof(mass, [0.0, 0.7, 2.0])] == [0.0, 0.0, 0.0]

    def test_underflowing_sigma(self):
        """sigma = 1e-170: sigma^2 underflows to 0, and the bounds that
        divide by it are taken in logs.  Every answer agrees with the form
        without the Gaussian term within both bounds."""
        tiny = qf.ReducedForm([1.0, -0.5], [2, 1], [0.0, 0.0], 1e-170)
        bare = qf.ReducedForm([1.0, -0.5], [2, 1], [0.0, 0.0])
        qs = np.array([-2.0, 0.3, 4.0])
        for fn in (select.cdf, select.pdf, qf.cdf_davies):
            for a, b in zip(fn(tiny, qs), fn(bare, qs)):
                assert a.method == b.method
                assert abs(a.value - b.value) <= a.error_bound + b.error_bound, (fn, a, b)
        for p in (0.1, 0.7):
            q_tiny, q_bare = qf.quantile(tiny, p), qf.quantile(bare, p)
            assert abs(q_tiny.cdf.value - p) <= 1e-10
            assert q_tiny == pytest.approx(q_bare, rel=1e-8)


def _gil_pelaez(red, x, quantity, nodes):
    """The CDF or density of red at x by the Gil-Pelaez integral in mpmath's
    working precision, over t from 0 to the last of ``nodes`` (the
    quadrature's subinterval ends)."""
    sigma, shift = mp.mpf(red.sigma_gauss), mp.mpf(red.const) - mp.mpf(x)
    groups = [(mp.mpf(float(w)), int(nu), mp.mpf(float(d2)))
              for w, nu, d2 in zip(red.omega, red.nu, red.delta2)]

    def phi(t):   # the characteristic function times e^(-i t x)
        out = mp.exp(-(sigma * t) ** 2 / 2 + 1j * t * shift)
        for w, nu, d2 in groups:
            z = 1 - 2j * w * t
            out *= z ** (-mp.mpf(nu) / 2) * mp.exp(1j * d2 * w * t / z)
        return out

    if quantity == "cdf":
        return mp.mpf(1) / 2 - mp.quad(lambda t: mp.im(phi(t)) / t, nodes) / mp.pi
    return mp.quad(lambda t: mp.re(phi(t)), nodes) / mp.pi


# sigma = 1 densities whose auto U the density's residual estimate once
# picked below the rung where the bound the row reports meets tol/2 (bound
# 1.28e-8 and 7.7e-9 at tol 1e-8): (form, point, tol-1e-13 Imhof value)
GAUSSIAN_DENSITIES = [
    (qf.ReducedForm([-0.38311868495572876, 2.610157215682537, 1.0], [2, 3, 2], [0, 0, 0], 1.0),
     7.867268556646312, 0.065184129850354),
    (qf.ReducedForm([0.38311868495572876, 1.0, -2.610157215682537], [1, 3, 3], [0, 0, 0], 1.0),
     -6.620745707776365, 0.04620872027286481),
]


class TestGaussianTerm:
    """Forms with a Gaussian term are rows of the Imhof pass like any other:
    every value lies within its bound of a 30-digit Gil-Pelaez integral."""

    def _check(self, red, qs, quantity, nodes, tol=1e-8):
        fn = select.cdf if quantity == "cdf" else select.pdf
        results = fn(red, np.asarray(qs, dtype=float), tol=tol)
        with mp.workdps(30):
            for q, res in zip(qs, results):
                exact = float(_gil_pelaez(red, q, quantity, nodes))
                assert res.method == "imhof", (q, res)
                assert abs(res.value - exact) <= res.error_bound <= tol, (q, res, exact)
        return results

    @pytest.mark.parametrize("red, x, ref", GAUSSIAN_DENSITIES)
    def test_density_meets_tol_with_the_bound_that_picked_u(self, red, x, ref):
        auto = qf.pdf(red, x)
        exact = qf.pdf_imhof(red, x, tol=1e-13)
        assert auto.method == "imhof" and auto.error_bound <= 1e-8
        assert auto.diagnostics["tail_bound"] <= 1e-8 / 2.0
        assert abs(auto.value - exact.value) <= min(auto.error_bound, exact.error_bound)
        assert abs(exact.value - ref) <= exact.error_bound

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_four_sd_above_the_mean(self, quantity):
        """The density's residual estimate carries the Gaussian's
        (sigma U)^2/4: without it U stops at 8, where the value is 7.5e-9
        off with a bound of 5.6e-9."""
        red = qf.ReducedForm([1.0, -0.6], [3, 3], [0.3, 0.0], 1.0)
        ks = qf.cumulants(red, 2)
        q = ks.get(1) + 4.0 * math.sqrt(ks.get(2))
        res = self._check(red, [q], quantity, mp.linspace(0, 14, 29))[0]
        assert res.diagnostics["u_max"] == 16.0

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_gaussian_dominates(self, quantity):
        # sigma = 100 against weights near 1: U is a small fraction of 1
        red = qf.ReducedForm([1.0, -0.8, 1.2], [2, 1, 3], [0.5, 0.0, 0.0], 100.0, 3.0)
        ks = qf.cumulants(red, 2)
        qs = ks.get(1) + math.sqrt(ks.get(2)) * np.array([-3.0, -1.0, 0.0, 0.5, 2.0])
        for res in self._check(red, qs, quantity, mp.linspace(0, 0.14, 15)):
            assert res.diagnostics["u_max"] < 1.0

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_tiny_sigma(self, quantity):
        # sigma = 1e-6: the pass runs as without it; |phi| decays like t^-4
        red = qf.ReducedForm([1.0, -0.5, 0.7], [2, 3, 3], [0.4, 0.0, 0.2], 1e-6)
        nodes = [0] + [mp.ldexp(1, j) for j in range(-3, 14)]
        self._check(red, [-4.0, 2.0], quantity, nodes)

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_light_dofs_at_the_constant(self, quantity):
        """Two one-dof groups of opposite signs: the Gaussian term removes the
        density's pole at the constant, and its envelope bounds the density's
        tail there, where sum(nu) = 2 and no slope floor holds."""
        red = qf.ReducedForm([1.0, -0.5], [1, 1], [0.0, 0.0], 1.0, 0.4)
        for res in self._check(red, [0.4, 2.0], quantity, mp.linspace(0, 14, 29)):
            assert res.diagnostics["u_max"] <= 16.0

    def test_bench_op_299(self):
        """A density the saddlepoint put at 0.0761."""
        red = qf.ReducedForm([-3.83, 1.0, 0.261], [1, 3, 2], [0.0, 0.0, 0.0], 1.0)
        res = self._check(red, [0.759], "pdf", mp.linspace(0, 14, 29))[0]
        assert abs(res.value - 0.116216) < 1e-6

    @pytest.mark.parametrize("density", [False, True])
    def test_rows_of_several_forms(self, density):
        """Rows of forms with and without a Gaussian term in one pass: each
        row is its form's point alone."""
        fn = inversion.pdf_imhof if density else inversion.cdf_imhof
        forms = [EX1, INDEFINITE, qf.ReducedForm([1.0, -0.6], [3, 3], [0.3, 0.0], 0.5),
                 qf.ReducedForm([0.7, -1.2, 0.4], [1, 2, 1], [0.0, 0.3, 0.0], 2.0)]
        qs = np.array([0.7, -0.4, 1.5, 0.2])
        assert fn(forms, qs) == [fn(red, q) for red, q in zip(forms, qs)]


# The tail-bound helpers that one record per U replaced, kept verbatim as
# oracles (numpy's overflow warnings silenced: an infinite rho is expected).
def _old_rho(red, u):
    with np.errstate(over="ignore"):
        return float(np.exp(-transforms._log_cf(red, 0.5 * u)[0]))


def _old_log_rho_floor(red, u_max):
    w, nu, d2 = red.omega, red.nu, red.delta2
    return (0.5 * float(np.sum(nu * np.log(np.abs(w))))
            + 0.5 * float(np.sum(d2 * w**2 * u_max**2 / (1.0 + w**2 * u_max**2))))


def _old_balanced_c1(red):
    nu = red.nu
    if int(nu[red.omega > 0].sum() - nu[red.omega < 0].sum()) % 4:
        return None
    return 0.5 * float(np.sum((nu + red.delta2) / np.abs(red.omega)))


def _old_tail_bound(red, u_max):
    k = 0.5 * float(red.nu.sum())
    log_b = -math.log(math.pi * k) - k * math.log(u_max) - _old_log_rho_floor(red, u_max)
    return math.exp(min(log_b, 700.0))


def _old_phase_slope(red, u, x):
    w, nu, d2 = red.omega, red.nu, red.delta2
    g = 1.0 + (w * u) ** 2
    return 0.5 * float(np.sum(nu * w / g + d2 * w * (1.0 - (w * u) ** 2) / g**2)) - 0.5 * x


def _old_m1(red, u_max):
    w, nu, d2 = red.omega, red.nu, red.delta2
    return 0.5 * float(np.sum((nu + d2) * np.abs(w) / (1.0 + (w * u_max) ** 2)))


def _old_slope_floor(red, u_max, x):
    return max(abs(x) / 2.0 - _old_m1(red, u_max), 0.0)


def _old_ibp_majorant(red, u_max, x):
    theta_min = _old_slope_floor(red, u_max, x)
    if theta_min <= 0.0:
        return math.inf
    c2 = 0.5 * float(np.sum(red.nu + 3.0 * red.delta2))
    rho_u = _old_rho(red, u_max)
    if not math.isfinite(rho_u):
        return 0.0
    return (2.0 + c2 / (u_max * theta_min)) / (rho_u * theta_min)


def _old_tail_bound_balanced(red, u_max, x):
    c1 = _old_balanced_c1(red)
    if c1 is None:
        return math.inf
    k = 0.5 * float(red.nu.sum())
    i2 = math.exp(min(-_old_log_rho_floor(red, u_max), 700.0)) * u_max ** -(k + 1.0) / (k + 1.0)
    total = c1 * i2
    if x != 0.0:
        rho_u = _old_rho(red, u_max)
        if math.isfinite(rho_u):
            total += (2.0 / abs(x)) * (2.0 / (u_max * rho_u) + _old_m1(red, u_max) * math.pi
                                       * _old_tail_bound(red, u_max))
    return total / math.pi


def _old_balanced(red, u_max, x):
    """The balanced bound, inf (no bound) where its U^-(k+1) overflows: at a
    U < 1 with a large k, as in the record."""
    try:
        return _old_tail_bound_balanced(red, u_max, x)
    except OverflowError:
        return math.inf


def _old_theta_rho(red, u, x):
    """imhof_integrand at one u."""
    u = np.asarray(u, dtype=float)
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    with np.errstate(over="ignore"):
        return phase - 0.5 * u * x, np.exp(-log_mod)


def _old_boundary_term(red, u_max, x):
    if _old_slope_floor(red, u_max, x) <= 0.0:
        return 0j
    theta, rho = _old_theta_rho(red, u_max, x)
    return complex(np.exp(1j * theta) / (_old_phase_slope(red, u_max, x) * rho))


def _old_pdf_tail_plain(red, u_max):
    k = 0.5 * float(red.nu.sum())
    if k <= 1.0:
        return math.inf
    log_b = (-math.log(2.0 * math.pi * (k - 1.0)) + (1.0 - k) * math.log(u_max)
             - _old_log_rho_floor(red, u_max))
    return math.exp(min(log_b, 700.0))


def _old_pdf_residual_est(red, u_max, x):
    theta_min = _old_slope_floor(red, u_max, x)
    if theta_min <= 0.0:
        return math.inf
    rho_u = _old_rho(red, u_max)
    if not math.isfinite(rho_u):
        return 0.0
    c2 = 0.5 * float(np.sum(red.nu + 3.0 * red.delta2))
    return (c2 + red.nu.sum()) / (2.0 * math.pi * rho_u * theta_min**2 * u_max)


def _old_pdf_tail(red, u_max, x):
    return min(_old_pdf_tail_plain(red, u_max), _old_ibp_majorant(red, u_max, x) / (2.0 * math.pi))


def _old_cdf_tails(red, u_max, x):
    return (_old_tail_bound(red, u_max), _old_ibp_majorant(red, u_max, x) / (math.pi * u_max),
            _old_balanced(red, u_max, x))


def _old_pick_u(red, tol, x):
    nu = red.nu
    k = 0.5 * float(nu.sum())
    log_scale = (-0.5 * float(np.sum(nu * np.log(np.abs(red.omega))))
                 - 0.5 * float(red.delta2.sum()))
    log_tol = math.log(tol / 2.0)
    log_us = [(-math.log(math.pi * k) + log_scale - log_tol) / k]
    if x != 0.0:
        log_us.append((math.log(2.0) - math.log(math.pi * abs(x) / 2.0) + log_scale - log_tol)
                      / (k + 1.0))
    c1 = _old_balanced_c1(red)
    if c1 is not None:
        log_us.append((math.log(max(c1, 1e-300)) - math.log(math.pi * (k + 1.0)) + log_scale
                       - log_tol) / (k + 1.0))
    u = min(math.exp(min(max(log_u, 0.0), 60.0)) for log_u in log_us)
    for _ in range(120):
        if min(_old_cdf_tails(red, u, x)) <= tol / 2.0 or u > 1e25:
            break
        u *= 1.3
    return u


def _old_pdf_bound(red, u_max, x):
    return min(_old_pdf_tail(red, u_max, x), _old_pdf_residual_est(red, u_max, x))


def _old_pdf_pick_u(red, tol, x):
    u_max = 1.0
    while _old_pdf_bound(red, u_max, x) > tol / 2.0 and u_max < 1e7:
        u_max *= 2.0
    return u_max


def _check_pdf_rung(red, tol, x, u):
    """The density's U: the old doubling's U where that is at least 2, else
    the first ladder rung whose density bound is at most tol/2."""
    old = _old_pdf_pick_u(red, tol, x)
    if old >= 2.0:
        assert u == old, (red, x, tol)
    else:
        assert _is_rung(u) and _old_pdf_bound(red, u, x) <= tol / 2.0, (red, x, tol)
        assert _old_pdf_bound(red, u / 2.0, x) > tol / 2.0, (red, x, tol)


# The parent's auto Imhof drivers (the 1.3x U search, per-point nodes), kept
# as oracles for the ladder: (value, bound, U, panels).
def _old_imhof_f(red, u, q):
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.sin(phase - 0.5 * u * q) * np.exp(log_mod) / u
    out[u == 0.0] = 0.5 * float(np.sum(red.omega * (red.nu + red.delta2))) - 0.5 * q
    return out


def _old_imhof_pdf_f(red, u, q):
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    return np.cos(phase - 0.5 * u * q) * np.exp(log_mod)


def _old_trapezoid(f, u_max, panels, cap, target, scale):
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
    return total / scale, quad_est, panels, inversion._rounding_bound(mass / scale, panels + 1)


def _old_cdf_imhof(red, q, tol):
    x = q - red.const
    u = _old_pick_u(red, tol, x)
    plain, ibp, bal = _old_cdf_tails(red, u, x)
    integral, quad_est, panels, rounding = _old_trapezoid(
        lambda v: _old_imhof_f(red, v, x), u, inversion._start_panels(inversion._tail_form(red), u, x),
        inversion.IMHOF_PANELS_MAX, min(tol, 1e-8) / 2.0, math.pi)
    correction = (-_old_boundary_term(red, u, x).real / (math.pi * u)
                  if ibp <= min(plain, bal) else 0.0)
    bound = min(plain, ibp, bal) + (quad_est if math.isfinite(quad_est) else 0.0) + rounding
    return min(max(0.5 - integral + correction, 0.0), 1.0), bound, u, panels


def _old_pdf_imhof(red, q, tol):
    x = q - red.const
    u = _old_pdf_pick_u(red, tol, x)
    plain, ibp = _old_pdf_tail_plain(red, u), _old_ibp_majorant(red, u, x) / (2.0 * math.pi)
    t_u = min(plain, ibp, _old_pdf_residual_est(red, u, x) if ibp < plain else math.inf)
    value, quad_est, panels, rounding = _old_trapezoid(
        lambda v: _old_imhof_pdf_f(red, v, x), u, inversion._start_panels(inversion._tail_form(red), u, x),
        inversion.IMHOF_PANELS_MAX, min(tol, 1e-8) / 2.0, 2.0 * math.pi)
    if ibp < plain:
        value -= _old_boundary_term(red, u, x).imag / (2.0 * math.pi)
    bound = t_u + (quad_est if math.isfinite(quad_est) else 0.0) + rounding
    return max(value, 0.0), bound, u, panels


# rho(U) overflows at every U >= 1 here
OVERFLOW = qf.ReducedForm([1000.0, -1000.0], [601, 597], [0.0, 0.0])


def _tail_battery():
    """sigma = 0 forms: random definite and indefinite ones (2-8 groups, nu
    1-4, half noncentral, weight spread up to 1e4), the light form, and dof
    differences with and without a multiple of 4."""
    rng = np.random.default_rng(2024)
    forms = [LIGHT, OVERFLOW,
             qf.ReducedForm([1.0, -0.5], [3, 3], [0.2, 0.0]),   # difference 0
             qf.ReducedForm([1.0, -0.5], [5, 1], [0.0, 0.4]),   # 4
             qf.ReducedForm([1.0, -0.5], [4, 1], [0.0, 0.4]),   # 3
             qf.ReducedForm([2.0, -0.3], [2, 4], [1.0, 0.0])]   # -2
    for i in range(16):
        g = int(rng.integers(2, 9))
        w = 10.0 ** rng.uniform(0.0, 4.0 * (i % 4) / 3.0, g)
        if i % 2:
            w *= np.where(rng.random(g) < 0.5, -1.0, 1.0)
            w[0], w[-1] = abs(w[0]), -abs(w[-1])
        d2 = np.where(rng.random(g) < 0.5, rng.uniform(0.0, 3.0, g), 0.0)
        forms.append(qf.ReducedForm(w, rng.integers(1, 5, g), d2, 0.0, float(rng.normal())))
    return forms


def _shifted_points(red):
    """x in {0, +-1e-9, mean, mean +- 10 sd}, in the shifted coordinate."""
    ks = qf.cumulants(red.shifted(0.0), 2)
    mean, sd = ks.get(1), math.sqrt(ks.get(2))
    return [0.0, 1e-9, -1e-9, mean, mean + 10.0 * sd, mean - 10.0 * sd]


def _composed_tails(red, u, x):
    """The CDF's and the density's (bound, correction) at U and x, composed
    from the replaced helpers as the replaced result builders composed them."""
    plain, ibp, bal = _old_cdf_tails(red, u, x)
    boundary = _old_boundary_term(red, u, x)
    cdf = (min(plain, ibp, bal),
           -boundary.real / (math.pi * u) if ibp <= min(plain, bal) else 0.0)
    pdf_plain, pdf_ibp = _old_pdf_tail_plain(red, u), _old_ibp_majorant(red, u, x) / (2.0 * math.pi)
    pdf = (min(pdf_plain, pdf_ibp, _old_pdf_residual_est(red, u, x)),
           -boundary.imag / (2.0 * math.pi)) if pdf_ibp < pdf_plain else (pdf_plain, 0.0)
    return cdf, pdf


def _is_rung(u):
    return math.frexp(u)[0] == 0.5



class TestTailRecord:
    def test_fields_match_old_helpers(self):
        # the x-free head and the one tail rule, CDF and density, against
        # the replaced helpers, on and off the ladder
        for red in _tail_battery():
            form = inversion._tail_form(red)
            for x in _shifted_points(red):
                for u in (1.0, 1.7, 13.0, 1e3, 1e7, 1e15, 1e25):
                    rung = inversion._Rung(red, u, form)
                    head = rung.head
                    theta, rho = _old_theta_rho(red, u, x)
                    assert float(rho) == head.rho == _old_rho(red, u)
                    assert head.phase - 0.5 * u * x == float(theta)
                    assert head.m1 == _old_m1(red, u)
                    assert head.plain == _old_tail_bound(red, u)
                    assert head.pdf_plain == _old_pdf_tail_plain(red, u)
                    assert (head.balanced if form.c1 is None
                            else head.balanced / math.pi) == _old_balanced(red, u, 0.0)
                    if _old_slope_floor(red, u, x) > 0.0:
                        assert head.slope - 0.5 * x == _old_phase_slope(red, u, x)
                    cdf, pdf = _composed_tails(red, u, x)
                    assert inversion._tail(rung, x, False) == cdf, (red, x, u)
                    assert inversion._tail(rung, x, True) == pdf, (red, x, u)

    def test_pick_u_is_the_first_ladder_rung(self):
        # the smallest U = 2^j (j < 0 allowed) whose best CDF tail bound is
        # at most tol/2, with the tail the replaced helpers give there
        below_one = 0
        for red in _tail_battery():
            for x in _shifted_points(red):
                for tol in (1e-10, 1e-8, 1e-6):
                    rung, tail, panels = inversion._imhof_start(select.Plan(red), tol, x, False)
                    u = rung.u
                    assert _is_rung(u)
                    assert min(_old_cdf_tails(red, u, x)) <= tol / 2.0 or u > 1e25
                    assert min(_old_cdf_tails(red, u / 2.0, x)) > tol / 2.0, (red, x, tol)
                    assert tail == _composed_tails(red, u, x)[0]
                    assert panels == inversion._start_panels(rung.form, u, x)
                    below_one += u < 1.0
        assert below_one > 0

    def test_exhausted_search_returns_the_record_at_its_u(self, monkeypatch):
        # no rung meets tol: the search ends at the first rung above its
        # cap, with that rung's own tail
        monkeypatch.setattr(inversion, "_tail", lambda rung, x, density: (math.inf, rung.u))
        red = qf.ReducedForm([1.0, -0.5], [4, 1], [0.0, 0.4])
        for density, first_above in ((False, 2.0**84), (True, 2.0**24)):
            rung, tail, _ = inversion._imhof_start(select.Plan(red), 1e-8, 0.3, density)
            assert tail == (math.inf, rung.u) and rung.u == first_above

    @pytest.mark.parametrize("density", [False, True])
    def test_start_is_the_first_rung_whose_reported_bound_meets_tol(self, density):
        # the bound that picks U is the one a row reports: the rung is the
        # first whose reported tail_bound is at most tol/2, or the first
        # above the cap; on the battery, on its forms with sigma = 1 (the
        # density's plain bound then carries the Gaussian envelope) and at
        # the points where the density's search once took its residual
        # estimate past the bound its row reported
        fn, cap = (qf.pdf_imhof, 1e7) if density else (qf.cdf_imhof, 1e25)
        battery = _tail_battery()
        cases = [(red, _shifted_points(red)) for red in battery + [
            qf.ReducedForm(red.omega, red.nu, red.delta2, 1.0, red.const) for red in battery]]
        cases += [(red, [x]) for red, x, _ in GAUSSIAN_DENSITIES]
        for red, xs in cases:
            plan = select.Plan(red)
            for x in xs:
                q = x + red.const
                x = q - red.const   # the drivers' own shift
                for tol in (1e-10, 1e-8, 1e-6):
                    rung, tail, _ = inversion._imhof_start(plan, tol, x, density)
                    reported = [fn(red, q, params=ImhofParams(u, 4)).diagnostics.get("tail_bound")
                                for u in (rung.u, rung.u / 2.0)]
                    if reported[0] is None:   # on or outside the support
                        continue
                    assert reported[0] <= tol / 2.0 or rung.u / 2.0 <= cap < rung.u, (red, x, tol)
                    assert reported[1] > tol / 2.0 and rung.u / 2.0 <= cap, (red, x, tol)
                    assert tail[0] == reported[0]

    def test_drivers_read_the_record_at_u(self):
        # value, bound and diagnostics compose the old bounds at the chosen U
        for red in _tail_battery()[1:]:
            for x in _shifted_points(red)[3:]:
                q = x + red.const
                x = q - red.const  # the drivers' own shift
                cdf = best_effort(qf.cdf_imhof, red, q, tol=1e-6).diagnostics
                pdf = best_effort(qf.pdf_imhof, red, q, tol=1e-6).diagnostics
                if "u_max" in cdf:  # not at or outside the support
                    u = cdf["u_max"]
                    plain, ibp, bal = _old_cdf_tails(red, u, x)
                    assert _is_rung(u) and min(plain, ibp, bal) <= 1e-6 / 2.0
                    assert min(_old_cdf_tails(red, u / 2.0, x)) > 1e-6 / 2.0
                    assert cdf["tail_bound"] == min(plain, ibp, bal)
                    assert cdf["tail_correction"] == (
                        -_old_boundary_term(red, u, x).real / (math.pi * u)
                        if ibp <= min(plain, bal) else 0.0)
                if "u_max" not in pdf:  # outside the support
                    continue
                u = pdf["u_max"]
                _check_pdf_rung(red, 1e-6, x, u)
                plain = _old_pdf_tail_plain(red, u)
                ibp = _old_ibp_majorant(red, u, x) / (2.0 * math.pi)
                assert pdf["tail_bound"] == min(
                    plain, ibp, _old_pdf_residual_est(red, u, x) if ibp < plain else math.inf)
        for params in (ImhofParams(u_max=4.0, panels=32), ImhofParams(u_max=1e3, panels=32)):
            red = _tail_battery()[3]
            cdf = qf.cdf_imhof(red, 0.4, params=params).diagnostics
            assert cdf["tail_bound"] == min(_old_cdf_tails(red, params.u_max, 0.4))
            pdf = qf.pdf_imhof(red, 0.4, params=params).diagnostics
            assert pdf["tail_bound"] == min(_old_pdf_tail(red, params.u_max, 0.4),
                                            _old_pdf_residual_est(red, params.u_max, 0.4))

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_overflowing_modulus_is_silent(self, quantity):
        # the ladder stops below the rungs where rho overflows (U < 1 here),
        # so the rung U = 1 is read through fixed parameters
        fn = select.cdf if quantity == "cdf" else select.pdf
        fixed_fn = qf.cdf_imhof if quantity == "cdf" else qf.pdf_imhof
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fn(OVERFLOW, 5.0)
            fixed = fixed_fn(OVERFLOW, 5.0, params=ImhofParams(u_max=1.0, panels=64))
        assert res.method == "imhof" and res.diagnostics["tail_bound"] <= 5e-9
        assert fixed.diagnostics["tail_bound"] == 0.0

    def test_overflowing_weights_give_a_finite_bound(self):
        """w^2 overflows and U^2 underflows: a central group's noncentral
        terms of the floor and the slope were inf 0 = NaN, and the CDF took
        the NaN bound as rigorous.  The form is 1e200 (X - Y/2), X ~ chi2_2,
        Y ~ chi2_1, so near 0 F = 1 - 1.5^(-1/2) and f = 1.5^(-1/2)/2e200."""
        huge = qf.ReducedForm([1e200, -5e199], [2, 1], [0.0, 0.0])
        cdf = qf.cdf_imhof(huge, 0.3)
        assert cdf.provenance == "rigorous" and cdf.error_bound <= 1e-8
        assert abs(cdf.value - (1.0 - 1.5**-0.5)) <= cdf.error_bound
        pdf = qf.pdf_imhof(huge, 0.3)
        assert math.isfinite(pdf.diagnostics["tail_bound"])
        assert abs(pdf.value - 0.5 * 1.5**-0.5 * 1e-200) <= pdf.error_bound

    def test_overflowing_sigma_squared(self):
        """sigma^2 overflows (sigma = 1e200): the first guess of U is solved
        in log U + log(sigma/sqrt 8), so sigma^2 is never formed, and the
        chi2_1 beside the normal is invisible at this scale."""
        red = qf.ReducedForm([1.0], [1], [0.0], 1e200)
        for q, want in ((0.3, 0.5), (3e200, special.ndtr(3.0))):
            res = qf.cdf(red, q)
            assert res.method == "imhof" and res.error_bound <= 1e-8
            assert abs(res.value - want) <= res.error_bound + 1e-15
        q = qf.quantile(red, 0.3)
        assert q == pytest.approx(1e200 * special.ndtri(0.3), rel=1e-6)

    def test_nan_bound_fails(self, monkeypatch):
        monkeypatch.setattr(inversion, "_rounding_bound", lambda *args: math.nan)
        for fn in (qf.cdf_imhof, qf.cdf_davies):
            with pytest.raises(qf.ConvergenceFailureError):
                fn(CHI21, 0.5)

    def test_far_point_squares_to_inf(self):
        """At x = 1e300 the density's residual estimate squares the slope
        floor |x|/2 - m1 > 1e299, where a float's ** raises OverflowError;
        the CDF's record carries the same estimate, and Davies reads that record."""
        red = qf.ReducedForm([1.0, -0.5], [2, 1], [0.0, 0.5], 1.0)
        for fn in (qf.cdf_imhof, qf.cdf_davies):
            with pytest.raises(qf.ConvergenceFailureError) as info:
                fn(red, 1e300)
            assert math.isfinite(info.value.result.error_bound)
        pdf = qf.pdf_imhof(red, 1e300)
        assert pdf.value == 0.0 and pdf.diagnostics["tail_bound"] == 0.0


class TestLadder:
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_values_within_bounds_of_the_old_drivers(self, tol):
        for red in _tail_battery():
            plan = select.Plan(red)
            # x = +-1e-9 run the old driver to the 2^23-panel cap on the light
            # forms (the new one integrates in log u there); the record tests
            # cover them
            for x in _shifted_points(red)[::3] + _shifted_points(red)[4:]:
                q = x + red.const
                new = best_effort(qf.cdf_imhof, red, q, tol=tol, plan=plan)
                if "u_max" in new.diagnostics:
                    value, bound, _, _ = _old_cdf_imhof(red, q, tol)
                    assert abs(new.value - value) <= new.error_bound + bound, (red, x, tol)
                new = qf.pdf_imhof(red, q, tol=tol, plan=plan)
                if math.isinf(new.error_bound) or new.provenance == "exact":
                    continue  # a support edge or a pole
                value, bound, u, panels = _old_pdf_imhof(red, q, tol)
                assert abs(new.value - value) <= new.error_bound + bound, (red, x, tol)
                # the density searches the CDF's ladder: U is unchanged where
                # the old doubling stopped at 2 or above, and only the node
                # sums may round apart there
                _check_pdf_rung(red, tol, x, new.diagnostics["u_max"])
                if new.diagnostics["u_max"] == u and new.diagnostics["panels"] == panels:
                    assert new.value == pytest.approx(value, rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("red, grid", [
        (qf.ReducedForm([1.0, -0.8, 1.2], [2, 1, 3], [0.5, 0.0, 0.0], 100.0, 3.0),
         np.linspace(-300.0, 300.0, 41)),
        (qf.ReducedForm([1.0, -0.6], [3, 3], [0.0, 0.0], 1.0), np.linspace(-8.0, 8.0, 41))],
        ids=["sigma100", "sigma1"])
    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_first_guess_carries_the_gaussian_envelope(self, red, grid, quantity):
        # the search starts next to the rungs it picks: a plan builds the
        # rungs its points use and at most one more on either side of them
        plan = select.Plan(red)
        fn = qf.cdf_imhof if quantity == "cdf" else qf.pdf_imhof
        used = {round(math.log2(res.diagnostics["u_max"]))
                for res in fn(red, grid, tol=1e-8, plan=plan)}
        assert used <= set(plan._rungs) <= used | {min(used) - 1, max(used) + 1}

    def test_light_density_at_the_support_edge_is_the_limit(self):
        # sum(nu) <= 2 at x = 0, where no density bound applies at any U: the
        # edge is answered exactly, as by auto
        for red in (qf.ReducedForm([1.0, 0.5], [1, 1], [0.0, 0.3]),
                    qf.ReducedForm([1.0], [2], [0.4])):
            res = qf.pdf_imhof(red, 0.0, tol=1e-8)
            assert (res.method, res.provenance, res.error_bound) == ("imhof", "exact", 0.0)
            assert res.value == select.pdf(red, 0.0).value
        assert qf.pdf_imhof(LIGHT, 1e-9, tol=1e-8).diagnostics["u_max"] > 1.0

    @pytest.mark.parametrize("delta2", [[0.0, 0.0], [0.5, 0.3]])
    def test_light_density_pole_at_zero(self, delta2):
        # two one-dof groups of opposite signs: the chi2_1 densities grow like
        # x^(-1/2) at 0 and their convolution diverges like a log
        red = qf.ReducedForm([1.0, -1.0], [1, 1], delta2, 0.0, 0.7)
        for res in (qf.pdf_imhof(red, 0.7, tol=1e-8), select.pdf(red, 0.7)):
            assert math.isinf(res.value) and res.error_bound == 0.0
            assert res.provenance == "exact"
        assert math.isfinite(select.pdf(red, 0.7 + 1e-9).value)

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_used_plan_equals_fresh_plan(self, quantity):
        red = qf.ReducedForm([2.0, -0.3, 0.7, -1.5], [1, 3, 2, 2], [0.5, 0.0, 1.0, 0.2])
        fn = select.cdf if quantity == "cdf" else select.pdf
        qs = np.linspace(-8.0, 12.0, 41)
        plan = select.Plan(red)
        qf.quantile(red, 0.3, tol=1e-7, plan=plan)   # inner tol 1e-9
        select.cdf(red, qs[::-3], tol=1e-9, plan=plan)
        select.pdf(red, qs[1::4], tol=1e-9, plan=plan)
        assert plan._rungs
        for q, res in zip(qs, fn(red, qs, tol=1e-9, plan=plan)):
            assert res == fn(red, q, tol=1e-9, plan=select.Plan(red))

    def test_one_plan_shares_rungs_across_tols(self, monkeypatch):
        # a rung holds no tol: the second tol's pass reads the nodes the
        # first one evaluated, and gives what a fresh plan gives
        red = qf.ReducedForm([1.0, -0.6, 0.4], [2, 3, 2], [0.3, 0.0, 0.5])
        qs = np.linspace(-8.0, 12.0, 41)
        log_cf, nodes = transforms._log_cf, []

        def counting(red, beta):
            nodes.append(np.size(beta))
            return log_cf(red, beta)

        monkeypatch.setattr(transforms, "_log_cf", counting)
        plan = select.Plan(red)
        select.cdf(red, qs, "imhof", tol=1e-6, plan=plan)
        nodes.clear()
        shared = select.cdf(red, qs, "imhof", tol=1e-8, plan=plan)
        shared_nodes = sum(nodes)
        nodes.clear()
        assert shared == select.cdf(red, qs, "imhof", tol=1e-8, plan=select.Plan(red))
        assert shared_nodes < sum(nodes)

    def test_grid_evaluates_each_node_once(self, monkeypatch):
        red = qf.ReducedForm([2.0, -0.3, 0.7, -1.5], [1, 3, 2, 2], [0.5, 0.0, 1.0, 0.2])
        log_cf, nodes = transforms._log_cf, []

        def counting(red, beta):
            nodes.append(np.size(beta))
            return log_cf(red, beta)

        monkeypatch.setattr(transforms, "_log_cf", counting)
        results = select.cdf(red, np.linspace(-8.0, 12.0, 41))
        used = sum(r.diagnostics["panels"] + 1 for r in results if r.method == "imhof")
        assert sum(r.method == "imhof" for r in results) >= 30
        assert sum(nodes) <= used / 3

    def test_large_form_truncates_below_one(self):
        # N = 500: the ladder puts U below 1 and the grid stays small
        rng = np.random.default_rng(500)
        m = rng.standard_normal((500, 500))
        red = qf.reduce_raw(qf.RawForm((m + m.T) / 2.0, np.zeros(500), 0.0, np.zeros(500),
                                       np.eye(500)))
        ks = qf.cumulants(red, 2)
        mean, sd = ks.get(1), math.sqrt(ks.get(2))
        res = select.cdf(red, mean)
        assert res.method == "imhof" and res.diagnostics["u_max"] < 1.0
        assert res.diagnostics["panels"] <= 2048
        ref = qf.cdf_imhof(red, mean, params=ImhofParams(u_max=0.125, panels=512))
        assert abs(res.value - ref.value) <= res.error_bound + ref.error_bound
        # the densities search the same ladder (doubling U from 1 took 16,384
        # panels at the mean, and 2^21 on OVERFLOW)
        for form, q in [(red, mean), (red, mean + sd), (red, mean - 2.0 * sd), (OVERFLOW, 5.0)]:
            pdf = qf.pdf_imhof(form, q, tol=1e-8)
            assert pdf.diagnostics["u_max"] < 1.0 and pdf.diagnostics["panels"] <= 4096
            assert pdf.error_bound <= 1e-8
            _check_pdf_rung(form, 1e-8, q - form.const, pdf.diagnostics["u_max"])


# the console-script check's indefinite form, and the 4-group noncentral
# form of test_used_plan_equals_fresh_plan
INDEFINITE = qf.ReducedForm([1.0, -0.6, 0.4], [2, 3, 2], [0.3, 0.0, 0.5])
NONCENTRAL4 = qf.ReducedForm([2.0, -0.3, 0.7, -1.5], [1, 3, 2, 2], [0.5, 0.0, 1.0, 0.2])


def _n500_form():
    """The N = 500 form of test_large_form_truncates_below_one."""
    rng = np.random.default_rng(500)
    m = rng.standard_normal((500, 500))
    return qf.reduce_raw(qf.RawForm((m + m.T) / 2.0, np.zeros(500), 0.0, np.zeros(500),
                                    np.eye(500)))


class TestRowPass:
    """The points of a call are the rows of one trapezoid pass: a row's value,
    bound and diagnostics do not depend on the other rows."""

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_grid_equals_points_alone(self, quantity):
        fn = select.cdf if quantity == "cdf" else select.pdf
        near_zero = [0.0, 2e-10, -5e-10, 1e-9, -1e-9]
        for red in (INDEFINITE, LIGHT, NONCENTRAL4, _n500_form()):
            ks = qf.cumulants(red, 2)
            mean, sd = ks.get(1), math.sqrt(ks.get(2))
            qs = np.concatenate([mean + sd * np.linspace(-5.0, 7.0, 25), near_zero])
            for q, res in zip(qs, fn(red, qs, tol=1e-9)):
                assert res == fn(red, q, tol=1e-9, plan=select.Plan(red)), (red, q)

    def test_counts_below_the_old_start(self, monkeypatch):
        # the 41-point grids over [-8, 12] on the indefinite form took 77,865
        # (CDF) and 94,249 (density) integrand terms, and 6,151 and 22,539
        # _log_cf nodes, from 8 panels per period
        log_cf, nodes = transforms._log_cf, []

        def counting(red, beta):
            nodes.append(np.size(beta))
            return log_cf(red, beta)

        monkeypatch.setattr(transforms, "_log_cf", counting)
        qs = np.linspace(-8.0, 12.0, 41)
        for fn, terms_before, nodes_before in ((select.cdf, 77_865, 6_151),
                                               (select.pdf, 94_249, 22_539)):
            nodes.clear()
            results = fn(INDEFINITE, qs)
            assert {res.method for res in results} == {"imhof"}
            assert sum(res.diagnostics["panels"] + 1 for res in results) < terms_before
            assert sum(nodes) < nodes_before

    def test_fine_grid_runs_in_bounded_blocks(self, monkeypatch):
        # a fixed grid of 2^21 panels starts from 2^20 panels (2^20 + 1
        # nodes), finer than a rung keeps: every integrand block and every
        # _log_cf call holds at most 2^20 terms
        integrand, log_cf, blocks, calls = inversion._integrand, transforms._log_cf, [], []

        def counting_integrand(*args):
            out = integrand(*args)
            blocks.append(out.size)
            return out

        def counting_log_cf(red, beta):
            calls.append(np.size(beta) * np.shape(red.omega)[0])
            return log_cf(red, beta)

        monkeypatch.setattr(inversion, "_integrand", counting_integrand)
        monkeypatch.setattr(transforms, "_log_cf", counting_log_cf)
        params = ImhofParams(u_max=256.0, panels=2**21)
        qs = np.array([0.3, 2.0])
        results = qf.cdf_imhof(INDEFINITE, qs, params=params)
        assert max(blocks) <= 2**20 and max(calls) <= 2**20
        # both rows' grid of 2^20 panels and its midpoints, the grid in
        # sections that share one node
        assert sum(blocks) >= 2 * (2**20 + 1 + 2**20) and len(blocks) > 4
        assert [res.diagnostics["panels"] for res in results] == [2**21, 2**21]
        for q, res in zip(qs, results):
            assert res == qf.cdf_imhof(INDEFINITE, q, params=params)
            auto = qf.cdf_imhof(INDEFINITE, q, tol=1e-10)
            assert abs(res.value - auto.value) <= res.error_bound + auto.error_bound < 1e-8


class TestInfinitePoints:
    """The engines share one point check: NaN is invalid input, and at +-inf
    the CDF is exactly 0 or 1 and the density 0, with nothing integrated or
    summed."""

    CENTRAL_EVEN = qf.ReducedForm([1.5, -0.7], [2, 4], [0.0, 0.0])
    DEFINITE = qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.5, 0.0, 1.2])
    NEGATIVE = qf.ReducedForm([-1.5, -0.7], [1, 2], [0.5, 0.0])

    ENGINES = {
        "cdf_imhof": (qf.cdf_imhof, INDEFINITE, False),
        "pdf_imhof": (qf.pdf_imhof, INDEFINITE, True),
        "cdf_davies": (qf.cdf_davies, EX1, False),
        "cdf_central_even": (qf.cdf_central_even, CENTRAL_EVEN, False),
        "pdf_central_even": (qf.pdf_central_even, CENTRAL_EVEN, True),
        "cdf_series": (qf.cdf_series, DEFINITE, False),
        "pdf_series": (qf.pdf_series, DEFINITE, True),
        "cdf_series_negative": (qf.cdf_series, NEGATIVE, False),
        "pdf_series_negative": (qf.pdf_series, NEGATIVE, True),
        "cdf_spa_lr": (approx.cdf_spa, INDEFINITE, False),
        "cdf_spa_bn": (functools.partial(approx.cdf_spa, variant="barndorff_nielsen"),
                       INDEFINITE, False),
        "pdf_spa": (approx.pdf_spa, INDEFINITE, True),
        "cdf_matched": (functools.partial(approx.cdf_matched, family="satterthwaite"),
                        DEFINITE, False),
    }

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_nan_is_invalid(self, engine):
        fn, red, _ = self.ENGINES[engine]
        for q in (math.nan, [0.3, math.nan]):
            with pytest.raises(qf.InvalidInputError, match="NaN"):
                fn(red, q)

    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_infinite_points_are_exact(self, engine, monkeypatch):
        fn, red, density = self.ENGINES[engine]

        def never(*args):
            raise AssertionError("an infinite point was integrated")

        monkeypatch.setattr(transforms, "_log_cf", never)
        monkeypatch.setattr(series, "_series_terms", never)
        results = fn(red, [-math.inf, math.inf])
        assert [res.value for res in results] == ([0.0, 0.0] if density else [0.0, 1.0])
        assert {(res.provenance, res.error_bound) for res in results} == {("exact", 0.0)}
        assert fn(red, math.inf) == results[1]

    @pytest.mark.parametrize("method", ["imhof", "central_even", "ruben", "davies", "spa_lr",
                                        "spa_bn", "satterthwaite"])
    def test_named_route(self, method):
        red = self.CENTRAL_EVEN if method == "central_even" else (
            self.DEFINITE if method in ("ruben", "satterthwaite") else INDEFINITE)
        cdf = select.cdf(red, [-math.inf, math.inf], method)
        assert [res.value for res in cdf] == [0.0, 1.0]
        if method not in ("davies", "spa_bn", "satterthwaite"):
            pdf = select.pdf(red, [-math.inf, math.inf], method)
            assert [res.value for res in pdf] == [0.0, 0.0]


def _own_name(method, quantity):
    """The method tag of a named method's results."""
    if method in ("ruben", "kotz", "laguerre"):
        return f"{method}_{quantity}"
    return "spa" if (method, quantity) == ("spa_lr", "pdf") else method


# each form with its finite points on or outside the support, ascending, and
# the named methods that do not apply to it
SUPPORT_FORMS = {
    "positive": (qf.ReducedForm([1.5, 0.7], [1, 1], [0.4, 0.0], 0.0, -0.3), [-1.3, -0.3],
                 {"central_even", "wood"}),
    "negative": (qf.ReducedForm([-1.5], [1], [0.3], 0.0, 0.3), [0.3, 1.3],
                 {"central_even", *approx.FAMILIES}),
    "central_even": (qf.ReducedForm([2.0, 0.5], [2, 4], [0.0, 0.0]), [-1.0, 0.0], set()),
    "point_mass": (qf.ReducedForm([], [], [], 0.0, 0.7), [-0.3, 0.7, 1.7],
                   {"central_even", "ruben", "kotz", "laguerre", *approx.FAMILIES}),
}


@pytest.mark.parametrize("form", list(SUPPORT_FORMS))
@pytest.mark.parametrize("quantity, method", [
    *(("cdf", m) for m in select.CDF_METHODS[1:]), *(("pdf", m) for m in select.PDF_METHODS[1:])])
def test_support_points_match_auto(form, quantity, method, monkeypatch):
    """One point rule for auto and every named method: at +-inf and on or
    outside the support each value and bound is auto's, tagged exact under
    the method's own name, with nothing integrated or summed.  A method
    that does not apply refuses the whole call."""
    red, finite, refused = SUPPORT_FORMS[form]
    route = select.cdf if quantity == "cdf" else select.pdf
    pts = [-math.inf, *finite, math.inf]
    if method in refused:
        with pytest.raises(qf.NotApplicableError):
            route(red, pts, method)
        return
    auto = route(red, pts)

    def never(*args):
        raise AssertionError("a point on or outside the support was evaluated")

    for fn in (transforms._log_cf, series._series_terms, approx.saddlepoint_solve,
               approx.surrogate_cdf):
        monkeypatch.setattr(sys.modules[fn.__module__], fn.__name__, never)
    for res, want in zip(route(red, pts, method), auto):
        assert (res.value, res.error_bound) == (want.value, want.error_bound)
        assert (res.method, res.provenance, want.method) == (
            _own_name(method, quantity), "exact", "support")
        assert "negated" not in res.diagnostics


def _cubic(x):
    return x**3 - 2.0 * x - 5.0


def _scipy_brentq(f, xa, xb, xtol, rtol, maxiter):
    """scipy's brentq with ``inversion._brentq``'s signature and returns."""
    try:
        root, info = optimize.brentq(f, xa, xb, xtol=xtol, rtol=rtol, maxiter=maxiter,
                                     full_output=True, disp=False)
    except ValueError:   # f(xa) and f(xb) of the same sign
        return None
    return root if info.converged else None


class TestBrentq:
    """``inversion._brentq`` evaluates f at the points scipy's brentq does and
    returns its root, bit for bit, on a battery that runs every branch."""

    BATTERY = {
        "interpolate_extrapolate": (_cubic, 2.0, 3.0, 2e-12, 100),
        "rejected_steps": (lambda x: math.exp(x) - 2.0, -4.0, 3.0, 2e-12, 100),
        "steep": (lambda x: math.atan(1e4 * (x - 0.3)), 0.0, 5.0, 2e-12, 100),
        "high_power": (lambda x: x**9 - 1e-3, -1.0, 4.0, 2e-12, 100),
        "flat_then_steep": (lambda x: math.tanh(50.0 * (x - 0.9)) + 0.999, 0.0, 1.0, 2e-12, 100),
        "step": (lambda x: -0.5 if x < 0.3 else 0.5, 0.0, 1.0, 2e-12, 100),
        "zero_at_lower_end": (lambda x: x, 0.0, 1.0, 2e-12, 100),
        "zero_at_upper_end": (lambda x: x, -1.0, 0.0, 2e-12, 100),
        "zero_in_the_middle": (lambda x: x - 0.5, 0.0, 1.0, 2e-12, 100),
        "minimum_step": (lambda x: math.cos(x) - x, 0.0, 1.0, 0.1, 100),
        # coarse tolerances, where delta decides a step: the limit
        # 3 |sbis| - delta, and a previous step no longer than delta
        "step_limit": (lambda x: (x - 0.75)**3 * (1.0 + 0.1 * (x + 0.27)**2) + 0.005,
                       -3.0, 1.5, 0.01, 100),
        "short_previous_step": (lambda x: (x - 0.7)**3 * (1.0 + 0.1 * x * x), -3.0, 1.5, 0.3, 100),
        # slopes whose products underflow: C divides by zero and bisects
        "zero_divisor": (lambda x: 1e-150 * _cubic(x * 1e-70), 2e70, 3e70, 2e-12, 100),
        "sign_error": (lambda x: x * x + 1.0, -1.0, 1.0, 2e-12, 100),
        "cap": (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12, 3),
    }
    # a statement of each branch, found in the port's source by its start
    BRANCHES = ("return xpre", "return xcur", "return None", "xpre, xcur, xblk =",
                "stry = -fcur * (xcur", "stry = -fcur * (fblk", "stry = math.inf",
                "spre, scur = scur, stry", "spre = scur = sbis", "xcur += scur",
                "xcur += delta")

    @staticmethod
    def _run(brentq, fn, a, b, xtol, maxiter):
        xs = []

        def f(x):
            xs.append(x)
            return fn(x)

        return brentq(f, a, b, xtol, 8.9e-16, maxiter), xs

    @pytest.mark.parametrize("case", list(BATTERY))
    def test_matches_scipy(self, case):
        fn, a, b, xtol, maxiter = self.BATTERY[case]
        root, xs = self._run(inversion._brentq, fn, a, b, xtol, maxiter)
        assert (root, xs) == self._run(_scipy_brentq, fn, a, b, xtol, maxiter)
        assert (root is None) == (case in ("sign_error", "cap"))

    def test_battery_runs_every_branch(self):
        lines, first = inspect.getsourcelines(inversion._brentq)
        code, hit = inversion._brentq.__code__, set()

        def trace(frame, event, arg):
            if frame.f_code is not code:
                return None

            def line(frame, event, arg):
                if event == "line":
                    hit.add(frame.f_lineno - first)
                return line
            return line

        previous = sys.gettrace()
        sys.settrace(trace)
        try:
            for fn, a, b, xtol, maxiter in self.BATTERY.values():
                self._run(inversion._brentq, fn, a, b, xtol, maxiter)
        finally:
            sys.settrace(previous)
        branches = {i for i, text in enumerate(lines) if text.strip().startswith(self.BRANCHES)}
        assert len(branches) == 14 and branches <= hit, [lines[i] for i in branches - hit]

    def test_exception_passes_through(self):
        class Halt(Exception):
            pass

        for brentq in (inversion._brentq, _scipy_brentq):
            xs = []

            def f(x):
                xs.append(x)
                if len(xs) == 4:
                    raise Halt(x)
                return math.cos(x) - x

            with pytest.raises(Halt):
                brentq(f, 0.0, 1.0, 2e-12, 8.9e-16, 100)
            assert len(xs) == 4


class TestQuantileSearch:
    """The search on the in-module Brent: the same q, CDF calls and CDF result
    as on scipy's, and a library error, with its closest evaluation, where
    the search cannot finish."""

    @pytest.mark.parametrize("kind", ["positive", "indefinite"])
    def test_same_as_scipy_brentq(self, kind, monkeypatch):
        rng = np.random.default_rng(21 if kind == "positive" else 22)
        forms = [random_reduced(rng, definite=kind) for _ in range(6)]
        ours = [qf.quantile(red, p, tol=1e-6) for red in forms for p in (0.01, 0.5, 0.99)]
        runs = []

        def reference(*args):
            runs.append(args)
            return _scipy_brentq(*args)

        monkeypatch.setattr(inversion, "_brentq", reference)
        theirs = [qf.quantile(red, p, tol=1e-6) for red in forms for p in (0.01, 0.5, 0.99)]
        assert runs   # the searches reached Brent's method
        for q, ref in zip(ours, theirs):
            assert (float(q), q.cdf_calls, q.cdf) == (float(ref), ref.cdf_calls, ref.cdf)

    @staticmethod
    def _search(monkeypatch, values):
        """quantile of INDEFINITE at p = 0.9 on a CDF whose i-th call returns
        values(i, x); the ConvergenceFailureError it raises."""
        calls = []

        def cdf(red, x, *args, **kwargs):
            calls.append(x)
            return MethodResult(values(len(calls), x), 1e-12, "imhof", "rigorous")

        monkeypatch.setattr(select, "cdf", cdf)
        with pytest.raises(qf.ConvergenceFailureError) as info:
            qf.quantile(INDEFINITE, 0.9)
        return info.value, calls

    def test_flat_cdf_has_no_bracket(self, monkeypatch):
        err, calls = self._search(monkeypatch, lambda i, x: 0.3)
        assert "no sign change" in str(err)
        res = err.result
        assert (res.value, res.method, res.diagnostics["q"]) == (0.3, "imhof", calls[0])
        assert res.diagnostics["cdf_calls"] == len(calls) == 201

    def test_brent_at_its_cap(self, monkeypatch):
        brentq = inversion._brentq
        monkeypatch.setattr(inversion, "_brentq",
                            lambda f, a, b, xtol, rtol, maxiter: brentq(f, a, b, xtol, rtol, 2))
        # a CDF that jumps from 0.5 to 1 at x = 3: no point meets p = 0.9
        err, calls = self._search(monkeypatch, lambda i, x: 0.5 if x < 3.0 else 1.0)
        assert "200 Brent iterations" in str(err)
        best = err.result.diagnostics["q"]
        assert best >= 3.0 and err.result.value == 1.0 and best in calls

    def test_nan_from_the_cdf(self, monkeypatch):
        err, calls = self._search(monkeypatch, lambda i, x: 0.7 if i == 1 else math.nan)
        assert "NaN" in str(err) and len(calls) == 2
        assert (err.result.value, err.result.diagnostics["q"]) == (0.7, calls[0])
