import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import quadform as qf
from quadform import inversion, select
from quadform.forms import DaviesParams, ImhofParams
from quadform.inversion import cdf_auto_inversion
from quadform.reference import sample_reduced

from conftest import quantile_points, random_reduced

CHI21 = qf.ReducedForm([1.0], [1], [0.0])
CHI22 = qf.ReducedForm([1.0], [2], [0.0])
EX1 = qf.ReducedForm([2.0, -2.0], [1, 1], [0.125, 0.125], 2.0, 1.0)
FAILURE_CASE = qf.ReducedForm([1.0, 0.6**4], [1, 1], [1.0, 7.0])
# X1^2 - X2^2 = 2 U V with U, V independent N(0, 1): density K0(|q|/2) / (2 pi)
LIGHT = qf.ReducedForm([1.0, -1.0], [1, 1], [0.0, 0.0])


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
        from quadform.inversion import _imhof_f
        assert abs(float(_imhof_f(CHI22, np.array([0.0]), 2.0)[0])) < 1e-15

    def test_direct_substitution(self):
        red = qf.ReducedForm([1.0], [1], [0.0])
        theta, rho = qf.imhof_integrand(red, 1.0, 0.0)
        assert abs(float(theta) - math.pi / 8) < 1e-14
        assert abs(float(rho) - 2.0**0.25) < 1e-14

    def test_rejects_gaussian(self):
        with pytest.raises(qf.NotApplicableError):
            qf.imhof_integrand(EX1, 1.0, 0.0)


class TestCdfImhof:
    def test_chi21_known_value(self):
        res = qf.cdf_imhof(CHI21, 1.0, tol=1e-7)
        assert abs(res.value - (2 * stats.norm.cdf(1.0) - 1.0)) < 1e-6

    def test_failure_case_reports_honestly(self):
        # loose fixed parameters: the deviation must be covered by the bound
        loose = ImhofParams(u_max=5.0, panels=64, tol=1e-6)
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
        red = qf.ReducedForm([1.2, -0.5], [3, 2], [0.3, 0.0])
        res = qf.pdf_imhof(red, 0.7, params=ImhofParams(u_max=6.0, panels=panels))
        assert res.diagnostics["panels"] == panels
        assert res.diagnostics["quad_estimate"] == math.inf


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
        assert abs(res.value - 0.95) < 1e-6

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
            coarse = qf.cdf_davies(red, q, params=DaviesParams(delta, k_max, tol=1e-6))
            fine = qf.cdf_davies(
                red, q, params=DaviesParams(delta / 2.0, 2 * k_max + 1, tol=1e-6))
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
            for u in (3.0, 6.0, 12.0):
                bound = qf.inversion.imhof_tail_bound(red, u)
                # empirical tail over [U, 4U] with a fine fixed grid
                grid = np.linspace(u, 4.0 * u, 20001)
                f = qf.inversion._imhof_f(red, grid, x)
                tail = abs(np.trapezoid(f, grid)) / math.pi
                if tail > bound:
                    violations += 1
        assert violations == 0


class TestQuantile:
    def test_chi22_median(self):
        q = qf.quantile(CHI22, 0.5)
        assert abs(q - 2.0 * math.log(2.0)) < 1e-8

    def test_symmetric_median_zero(self):
        red = qf.ReducedForm([1.0, -1.0], [1, 1], [0.0, 0.0])
        assert abs(qf.quantile(red, 0.5)) < 1e-8

    def test_round_trip(self, rng):
        for _ in range(20):
            red = random_reduced(rng, min_dof=4, gaussian=bool(rng.random() < 0.25))
            for p in (0.01, 0.5, 0.99):
                x = qf.quantile(red, p, tol=1e-8)
                val = best_effort(cdf_auto_inversion, red, x, tol=1e-9).value
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
        (EX1, "davies", "spa"),
        (qf.ReducedForm([1.0, 0.5], [2, 2], [0.0, 0.0], 1.0), "davies", "spa"),
    ])
    def test_route_at_the_mean(self, red, cdf_route, pdf_route):
        mean = qf.cumulants(red, 1).get(1)
        assert select.select_method(red, "cdf", mean) == cdf_route
        assert select.select_method(red, "pdf", mean) == pdf_route

    def test_central_even_indefinite_reroutes_to_imhof(self):
        red = qf.ReducedForm([2.0, 1.0, -0.5], [2, 4, 2], [0.0] * 3)
        for quantity in ("cdf", "pdf"):
            assert select._generic_method(red, quantity, central_even=False) == "imhof"

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
                    # the density is infinite at 0; the route claims no accuracy there
                    assert math.isinf(res.error_bound)
                    continue
                else:
                    exact = mp.besselk(0, a) / (2 * mp.pi)
                assert res.method == "imhof"
                assert abs(res.value - float(exact)) <= res.error_bound, q

    def test_auto_leaf_falls_back_to_davies(self, monkeypatch):
        def failing(name, bound):
            def fn(red, q, tol):
                raise qf.ConvergenceFailureError(
                    name, result=qf.MethodResult(0.5, bound, name, "rigorous", {}))
            return fn

        red = qf.ReducedForm([1.0, -0.4], [3, 2], [0.2, 0.0])
        monkeypatch.setattr(inversion, "cdf_imhof", failing("imhof", 1e-3))
        assert cdf_auto_inversion(red, 0.7).method == "davies"
        monkeypatch.setattr(inversion, "cdf_davies", failing("davies", 1e-2))
        with pytest.raises(qf.ConvergenceFailureError, match="imhof"):
            cdf_auto_inversion(red, 0.7)
        monkeypatch.setattr(inversion, "cdf_davies", failing("davies", 1e-4))
        with pytest.raises(qf.ConvergenceFailureError, match="davies"):
            cdf_auto_inversion(red, 0.7)
        # with a Gaussian term Davies alone runs
        monkeypatch.setattr(inversion, "cdf_imhof", failing("imhof", 1e-9))
        with pytest.raises(qf.ConvergenceFailureError, match="davies"):
            cdf_auto_inversion(EX1, 0.7)
