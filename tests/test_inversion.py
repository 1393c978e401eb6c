import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

import quadform as qf
from quadform import inversion, select, transforms
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
            _old_tail_bound_balanced(red, u_max, x))


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


def _old_pdf_pick_u(red, tol, x):
    u_max = 1.0
    while min(_old_pdf_tail(red, u_max, x), _old_pdf_residual_est(red, u_max, x)) > tol / 2.0 \
            and u_max < 1e7:
        u_max *= 2.0
    return u_max


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


class TestTailRecord:
    def test_fields_match_old_helpers(self):
        for red in _tail_battery():
            form = inversion._tail_form(red)
            for x in _shifted_points(red):
                for u in (1.0, 1.7, 13.0, 1e3, 1e7, 1e15, 1e25):
                    rec = inversion._tail(red, u, x, form)
                    theta, rho = _old_theta_rho(red, u, x)
                    slope = _old_slope_floor(red, u, x)
                    want = {
                        "u": u, "log_floor": _old_log_rho_floor(red, u),
                        "rho": _old_rho(red, u), "theta": float(theta),
                        "dtheta": _old_phase_slope(red, u, x) if slope > 0.0 else 0.0,
                        "m1": _old_m1(red, u), "slope_floor": slope,
                        "plain": _old_tail_bound(red, u),
                        "ibp": _old_ibp_majorant(red, u, x),
                        "balanced": _old_tail_bound_balanced(red, u, x),
                        "pdf_plain": _old_pdf_tail_plain(red, u),
                        "residual": _old_pdf_residual_est(red, u, x),
                        "boundary": _old_boundary_term(red, u, x),
                    }
                    assert float(rho) == rec.rho
                    assert rec._asdict() == want, (red, x, u)
                    assert inversion.imhof_tail_bound(red, u) == want["plain"]

    def test_pick_u_matches_old_search(self):
        for red in _tail_battery():
            form = inversion._tail_form(red)
            for x in _shifted_points(red):
                for tol in (1e-8, 1e-6):
                    u, rec = inversion._imhof_pick_u(red, tol, x, form)
                    assert u == _old_pick_u(red, tol, x), (red, x, tol)
                    assert rec == inversion._tail(red, u, x, form)

    def test_exhausted_search_returns_the_record_at_its_u(self, monkeypatch):
        tail = inversion._tail
        monkeypatch.setattr(inversion, "_tail", lambda *a: tail(*a)._replace(
            plain=math.inf, ibp=math.inf, balanced=math.inf))
        red = qf.ReducedForm([1.0, -0.5], [4, 1], [0.0, 0.4])
        u, rec = inversion._imhof_pick_u(red, 1e-8, 0.3, inversion._tail_form(red))
        assert rec.u == u and u > 1.3**119

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
                    assert u == _old_pick_u(red, 1e-6, x)
                    plain, ibp, bal = _old_cdf_tails(red, u, x)
                    assert cdf["tail_bound"] == min(plain, ibp, bal)
                    assert cdf["tail_correction"] == (
                        -_old_boundary_term(red, u, x).real / (math.pi * u)
                        if ibp <= min(plain, bal) else 0.0)
                u = pdf["u_max"]
                assert u == _old_pdf_pick_u(red, 1e-6, x)
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
        fn = select.cdf if quantity == "cdf" else select.pdf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = fn(OVERFLOW, 5.0)
        assert res.method == "imhof" and res.diagnostics["tail_bound"] == 0.0
