import math

import numpy as np
import pytest
from scipy import special

import quadform as qf
from quadform import approx, select, transforms
from quadform.reference import sample_reduced

from conftest import random_reduced

CHI22 = qf.ReducedForm([1.0], [2], [0.0])
EX2 = qf.ReducedForm([25.0, -25.0], [2, 1], [1186 / 625, 64 / 625], 0.0, -1122 / 25)


def effective_mgf(red, t):
    """Direct evaluation over one chi2_1 per degree of freedom, each group's
    noncentrality on its first (independent route)."""
    lam = np.repeat(red.omega, red.nu)
    h2 = np.zeros(lam.size)
    h2[np.cumsum(red.nu) - red.nu] = red.delta2
    g = 1.0 - 2.0 * lam * t
    return math.exp(
        t * float(np.sum(h2 * lam / g))
        + 0.5 * (red.sigma_gauss * t) ** 2
        + red.const * t
        - 0.5 * float(np.sum(np.log(g)))
    )


class TestMgf:
    def test_chi22_value(self):
        assert abs(qf.mgf(CHI22, 0.25) - 2.0) < 1e-14

    def test_normalized_at_zero(self, rng):
        for _ in range(5):
            red = random_reduced(rng, gaussian=True)
            assert qf.mgf(red, 0.0) == 1.0

    def test_reduced_equals_effective_route(self):
        t = 0.005
        assert abs(qf.mgf(EX2, t) - effective_mgf(EX2, t)) < 1e-12 * qf.mgf(EX2, t)

    def test_domain(self):
        assert qf.mgf_domain(qf.ReducedForm([2.0, -2.0], [1, 1], [0, 0])) == \
            qf.MgfDomain(-0.25, 0.25)
        dom = qf.mgf_domain(qf.ReducedForm([0.5], [1], [0.0]))
        assert dom.t_left == -math.inf and dom.t_right == 1.0
        dom = qf.mgf_domain(qf.ReducedForm([-1.0, -3.0], [1, 1], [0, 0]))
        assert dom.t_left == -1 / 6 and dom.t_right == math.inf

    def test_outside_domain_raises(self):
        with pytest.raises(qf.DomainError) as exc:
            qf.mgf(CHI22, 0.5)
        assert exc.value.interval == (-math.inf, 0.5)

    def test_blows_up_at_right_edge(self):
        red = qf.ReducedForm([1.0, 0.3], [2, 1], [0.5, 0.0])
        t_r = qf.mgf_domain(red).t_right
        ts = t_r * (1.0 - np.logspace(-1, -8, 8))
        vals = np.array([qf.mgf(red, float(t)) for t in ts])
        finite = np.isfinite(vals)
        assert np.all(np.diff(vals[finite]) > 0)
        assert vals[-1] > 1e6  # may saturate to inf, which also passes

    def test_scalar_and_array_cgf_agree(self):
        # the Gaussian term squares t as t * t in both; a float power for a
        # Python float disagreed in the last bit with numpy's square
        red = qf.ReducedForm([1.0, -0.6], [3, 3], [0.3, 0.0], 1.3, 0.1)
        dom = qf.mgf_domain(red)
        ts = np.random.default_rng(0).uniform(dom.t_left, dom.t_right, 50000)
        ts = ts[(ts > dom.t_left) & (ts < dom.t_right)]
        assert [qf.log_mgf(red, t) for t in ts.tolist()] == transforms._cgf(red, ts).tolist()


class TestCf:
    def test_at_zero(self):
        assert qf.cf(CHI22, 0.0) == 1.0 + 0.0j

    def test_chi22(self):
        assert abs(qf.cf(CHI22, 1.0) - 1.0 / (1.0 - 2.0j)) < 1e-14

    def test_hermitian_and_bounded(self, rng):
        red = random_reduced(rng, gaussian=True)
        betas = np.linspace(0.1, 5.0, 7)
        phi_p = qf.cf(red, betas)
        phi_m = qf.cf(red, -betas)
        assert np.allclose(phi_m, np.conj(phi_p), atol=1e-14)
        assert np.all(np.abs(phi_p) <= 1.0 + 1e-12)

    def test_against_empirical_cf(self):
        red = qf.ReducedForm([1.5, -0.7], [2, 1], [0.4, 0.0], 0.5, 0.2)
        draws = sample_reduced(red, 200_000, seed=21)
        for beta in (0.1, 0.5):
            emp = np.mean(np.exp(1j * beta * draws))
            assert abs(qf.cf(red, beta) - emp) < 0.01

    def test_shift_covariance(self, rng):
        red = random_reduced(rng, gaussian=True)
        base = red.shifted(0.0)
        for beta in (0.3, 1.7):
            lhs = qf.cf(red, beta) * np.exp(-1j * beta * red.const)
            rhs = qf.cf(base, beta)
            assert abs(lhs - rhs) < 1e-14


def complex_log_cf(red, beta):
    """log phi(beta) - i beta const by complex logarithms, one factor at a time.

    Each principal argument lies in (-pi/2, pi/2), so the sum needs no
    unwrapping."""
    w, nu, d2 = red.omega, red.nu, red.delta2
    g = 1.0 - 2j * np.multiply.outer(beta, w)
    return (np.sum(-0.5 * nu * np.log(g) + 1j * np.multiply.outer(beta, d2 * w) / g, axis=-1)
            - 0.5 * (red.sigma_gauss * beta) ** 2)


class TestLogCfKernel:
    @pytest.mark.parametrize("central", [True, False])
    @pytest.mark.parametrize("gaussian", [False, True])
    def test_against_complex_logarithms(self, rng, central, gaussian):
        small = np.array([0.0, 1e-8, 1e-3, 0.1, 0.7, 1.0, 3.0, 10.0])
        big = np.array([1e2, 1e3, 1e4, 1e5, 1e6])
        betas = np.concatenate([small, big, -small[1:], -big])
        for _ in range(10):
            red = random_reduced(rng, central=central, gaussian=gaussian, max_groups=6)
            log_mod, phase = qf.transforms._log_cf(red, betas)
            ref = complex_log_cf(red, betas)
            mod, ref_mod = np.exp(log_mod), np.exp(ref.real)
            assert np.all(np.abs(mod - ref_mod) <= 1e-13 * ref_mod)
            assert np.all(np.abs(phase - ref.imag) <= 1e-12 * (1.0 + np.abs(ref.imag)))
            # a scalar beta gives the same value as its slot of the array
            lm0, ph0 = qf.transforms._log_cf(red, float(betas[4]))
            assert lm0 == log_mod[4] and ph0 == phase[4]

    def test_zero_frequency(self, rng):
        red = random_reduced(rng, gaussian=True)
        log_mod, phase = qf.transforms._log_cf(red, 0.0)
        assert log_mod == 0.0 and phase == 0.0

    def test_cf_reads_the_kernel(self, rng):
        red = random_reduced(rng, gaussian=True)
        betas = np.linspace(-4.0, 4.0, 9)
        ref = np.exp(complex_log_cf(red, betas) + 1j * betas * red.const)
        assert np.allclose(qf.cf(red, betas), ref, rtol=1e-13, atol=1e-15)


class TestCgfDerivative:
    def test_first_derivative_is_mean(self, rng):
        for _ in range(5):
            red = random_reduced(rng, gaussian=True)
            assert abs(qf.cgf_derivative(red, 0.0, 1) - qf.cumulants(red, 1).get(1)) < 1e-12

    def test_convexity(self, rng):
        for _ in range(100):
            red = random_reduced(rng, gaussian=bool(rng.random() < 0.3))
            dom = qf.mgf_domain(red)
            lo = dom.t_left if math.isfinite(dom.t_left) else -2.0
            hi = dom.t_right if math.isfinite(dom.t_right) else 2.0
            t = float(rng.uniform(0.9 * lo, 0.9 * hi))
            assert qf.cgf_derivative(red, t, 2) > 0.0

    def test_third_derivative_matches_cumulant(self, rng):
        red = random_reduced(rng)
        assert abs(qf.cgf_derivative(red, 0.0, 3) - qf.cumulants(red, 3).get(3)) \
            < 1e-12 * (1.0 + abs(qf.cumulants(red, 3).get(3)))

    def test_fd_of_log_mgf(self, rng):
        for _ in range(50):
            red = random_reduced(rng, gaussian=bool(rng.random() < 0.3))
            dom = qf.mgf_domain(red)
            lo = dom.t_left if math.isfinite(dom.t_left) else -1.0
            hi = dom.t_right if math.isfinite(dom.t_right) else 1.0
            t = float(rng.uniform(0.7 * lo, 0.7 * hi))
            scale = min(hi - t, t - lo, 1.0)
            h = 1e-6 * scale
            fd = (qf.log_mgf(red, t + h) - qf.log_mgf(red, t - h)) / (2 * h)
            an = qf.cgf_derivative(red, t, 1)
            assert abs(fd - an) < 1e-6 * (1.0 + abs(an))


class TestCumulants:
    def test_chi2_family(self):
        for nu in (1, 3, 6):
            ks = qf.cumulants(qf.ReducedForm([1.0], [nu], [0.0]), 3)
            assert np.allclose(ks.kappa, [nu, 2 * nu, 8 * nu])

    def test_noncentral_direct(self):
        ks = qf.cumulants(qf.ReducedForm([1.0], [1], [1.0]), 3)
        assert np.allclose(ks.kappa, [2.0, 6.0, 32.0])

    def test_gaussian_contributes_first_two_only(self):
        base = qf.ReducedForm([1.0, 0.5], [2, 1], [0.3, 0.0])
        with_g = qf.ReducedForm([1.0, 0.5], [2, 1], [0.3, 0.0], 5.0)
        k0 = qf.cumulants(base, 4).kappa
        k1 = qf.cumulants(with_g, 4).kappa
        assert abs(k1[1] - k0[1] - 25.0) < 1e-12
        assert k1[0] == k0[0]
        assert np.allclose(k1[2:], k0[2:])

    def test_equal_to_the_closed_form(self):
        # kappa_j = K^(j)(0), j = 1..8, bit for bit against the closed form
        # it replaced
        def closed_form(red, order):
            w, nu, d2 = red.omega, red.nu, red.delta2
            ks = np.empty(order)
            ks[0] = np.sum(w * (nu + d2)) + red.const
            ks[1] = 2.0 * np.sum(w**2 * (nu + 2.0 * d2)) + red.sigma_gauss**2
            for j in range(3, order + 1):
                ks[j - 1] = (2.0 ** (j - 1) * math.factorial(j - 1)
                             * np.sum(w**j * (nu + j * d2)))
            return ks

        rng = np.random.default_rng(17)
        for i in range(3000):
            g = int(rng.integers(1, 7))
            w = 10.0 ** rng.uniform(-2.0, 2.0, g) * rng.choice([-1.0, 1.0], g)
            d2 = np.where(rng.random(g) < 0.5, rng.uniform(0.0, 3.0, g), 0.0)
            red = qf.ReducedForm(w, rng.integers(1, 6, g), d2,
                                 float(rng.uniform(0.0, 2.0)) if i % 2 else 0.0,
                                 float(rng.normal()))
            assert np.array_equal(qf.cumulants(red, 8).kappa, closed_form(red, 8))


class TestRawMoments:
    def test_low_order_identities(self, rng):
        red = random_reduced(rng)
        ks = qf.cumulants(red, 2)
        m = qf.raw_moments(ks)
        assert abs(m[0] - ks.get(1)) < 1e-12
        assert abs(m[1] - (ks.get(2) + ks.get(1) ** 2)) < 1e-12

    def test_chi22_second_moment(self):
        m = qf.raw_moments(qf.cumulants(CHI22, 2))
        assert abs(m[1] - 8.0) < 1e-12

    def test_against_monte_carlo(self):
        red = qf.ReducedForm([1.2, -0.6], [2, 1], [0.5, 0.2], 0.7, 0.3)
        m = qf.raw_moments(qf.cumulants(red, 4))
        draws = sample_reduced(red, 2 * 10**6, seed=33)
        for k in range(1, 5):
            sample = draws**k
            est = sample.mean()
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(m[k - 1] - est) < 4.0 * se


class TestOverflowingVariance:
    """Forms whose largest w^2 or sigma^2 overflows or underflows: the
    crossings, the Chernoff log-tails, the saddlepoint, and the mean and sd
    of the quantile search and of Davies run on the form scaled by a power
    of two (``_scaled``), so they equal the answers of the form in range
    scaled back."""

    UNIT = qf.ReducedForm([1.0, -0.5], [2, 1], [0.0, 0.0])

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_crossings_and_log_tail(self, scale):
        red = qf.ReducedForm(self.UNIT.omega * scale, [2, 1], [0.0, 0.0])
        for (x, margin), (u, _) in zip(select.Plan(red).crossings,
                                       select.Plan(self.UNIT).crossings):
            assert x == pytest.approx(scale * u, rel=1e-12) and math.isfinite(margin)
        for side, y in (("right", 30.0), ("left", -12.0)):
            log_tail = transforms.chernoff_log_tail(red, y * scale, side)
            assert log_tail == pytest.approx(
                transforms.chernoff_log_tail(self.UNIT, y, side), rel=1e-12)
            assert log_tail < 0.0

    def test_saddlepoint_far_points(self):
        red = qf.ReducedForm([1e200, -5e199], [2, 1], [0.0, 0.0])
        qs = np.array([-30.0, 50.0])
        assert select.select_method(red, "cdf", 1e200 * qs) == ["spa_lr"] * 2
        for res, unit in zip(approx.cdf_spa(red, 1e200 * qs), approx.cdf_spa(self.UNIT, qs)):
            assert res.value == pytest.approx(unit.value, rel=1e-12)
        for res, unit in zip(approx.pdf_spa(red, 1e200 * qs), approx.pdf_spa(self.UNIT, qs)):
            assert 1e200 * res.value == pytest.approx(unit.value, rel=1e-12) and res.value > 0.0

    def test_forms_in_range_are_not_scaled(self):
        assert transforms._scaled(self.UNIT)[0] is self.UNIT
        # the Gaussian term sets the scale as well as the weights
        tiny = qf.ReducedForm([1e-200], [1], [0.0], 1.0)
        assert transforms._scaled(tiny)[0] is tiny
        assert transforms._scaled(qf.ReducedForm([1.0], [1], [0.0], 1e200))[1] == 2.0**665
        red = qf.ReducedForm([1e200, -5e199], [2, 1], [0.0, 0.0], 3e199, 1e198)
        unit, s = transforms._scaled(red)
        assert s == 2.0**665 and np.array_equal(unit.omega * s, red.omega)
        assert (unit.sigma_gauss * s, unit.const * s) == (red.sigma_gauss, red.const)

    def test_davies_and_quantiles(self):
        red = qf.ReducedForm([1e200, -5e199], [2, 1], [0.0, 0.0])
        exact = 1.0 - 1.5**-0.5   # P(chi2_2 <= chi2_1 / 2); F(0.3) is within 1e-200 of it
        res = qf.cdf_davies(red, 0.3)
        assert abs(res.value - exact) <= res.error_bound <= 1e-8
        for p in (0.5, 0.01):
            q = qf.quantile(red, p)
            assert abs(q.cdf.value - p) <= 1e-8
            assert float(q) == pytest.approx(1e200 * qf.quantile(self.UNIT, p), rel=1e-6)

    def test_tiny_weights_beside_a_normal_term(self):
        """A weight of 1e-200 beside N(0, 1): every answer is the normal's."""
        red = qf.ReducedForm([1e-200], [1], [0.0], 1.0)
        cross = math.sqrt(-2.0 * math.log(1e-8))
        for (x, margin), want in zip(select.Plan(red).crossings, (-cross, cross)):
            assert x == pytest.approx(want, rel=1e-12) and margin < 1e-7
        q = qf.quantile(red, 0.3)
        assert abs(special.ndtr(float(q)) - 0.3) <= 1e-8
        res = qf.cdf_davies(red, 0.3)
        assert abs(res.value - special.ndtr(0.3)) <= res.error_bound <= 1e-8

    def test_weights_spanning_past_the_float_range(self):
        """1e200 chi2_1 + 1e-200 chi2_1: the small weight is 0 on the scaled
        form, which then is that of 1e200 chi2_1, and auto answers."""
        red = qf.ReducedForm([1e200, 1e-200], [1, 1], [0.0, 0.0])
        alone = qf.ReducedForm([1e200], [1], [0.0])
        scaled, s = transforms._scaled(red)
        assert scaled.n_groups == 1 and s == transforms._scaled(alone)[1]
        assert [x for x, _ in select.Plan(red).crossings] == \
            [x for x, _ in select.Plan(alone).crossings]
        res = qf.cdf(red, 3e200)
        assert abs(res.value - special.gammainc(0.5, 1.5)) <= res.error_bound <= 1e-8
        assert qf.pdf(red, 3e200).value >= 0.0
