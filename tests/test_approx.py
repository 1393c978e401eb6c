import math

import numpy as np
import pytest
from scipy import stats

import quadform as qf

from conftest import quantile_points, random_reduced

CHI22_SPLIT = qf.ReducedForm([1.0, 1.0], [1, 1], [0.0, 0.0])
PAPER_SADDLE = qf.ReducedForm([0.6, 0.3, 0.1], [2, 2, 1], [0.0, 0.0, 0.0])


class TestMatch:
    def test_satterthwaite_fixed_point(self):
        ks = qf.cumulants(qf.ReducedForm([3.0], [5], [0.0]), 2)
        sur = qf.match(ks, "satterthwaite")
        assert abs(sur.params["a"] - 3.0) < 1e-12
        assert abs(sur.params["b"] - 5.0) < 1e-12

    def test_hbe_recovers_chi22(self):
        ks = qf.cumulants(CHI22_SPLIT, 3)
        assert abs(ks.get(2) - 4.0) < 1e-12 and abs(ks.get(3) - 16.0) < 1e-12
        sur = qf.match(ks, "hbe")
        assert abs(sur.params["b"] - 2.0) < 1e-12

    def test_liu_boundary_branch(self):
        ks = qf.cumulants(CHI22_SPLIT, 4)
        s1 = ks.get(3) / (2 * math.sqrt(2) * ks.get(2) ** 1.5)
        s2 = ks.get(4) / (12 * ks.get(2) ** 2)
        assert abs(s1 - 1 / math.sqrt(2)) < 1e-12
        assert abs(s2 - 0.5) < 1e-12
        assert abs(s1**2 - s2) < 1e-12
        sur = qf.match(ks, "liu")
        assert sur.params["ncp"] == 0.0
        assert abs(sur.params["dof"] - 2.0) < 1e-12

    def test_liu_exact_on_noncentral_chisq(self):
        # the family contains the target, so matching must recover it
        target = qf.ReducedForm([1.0], [4], [2.5])
        sur = qf.match(qf.cumulants(target, 4), "liu")
        assert abs(sur.params["dof"] - 4.0) < 1e-9
        assert abs(sur.params["ncp"] - 2.5) < 1e-9

    def test_preconditions(self):
        with pytest.raises(qf.NotApplicableError):
            qf.match(qf.CumulantSet([-1.0, 2.0]), "satterthwaite")
        with pytest.raises(qf.NotApplicableError):
            qf.match(qf.CumulantSet([1.0, 2.0, 0.0]), "pearson")
        with pytest.raises(qf.InvalidInputError):
            qf.match(qf.CumulantSet([1.0, 2.0]), "hbe")

    def test_surrogate_cumulants_match(self, rng):
        matched_orders = {"satterthwaite": 2, "pearson": 3, "hbe": 3, "wood": 3,
                          "liu": 3}
        count = {f: 0 for f in matched_orders}
        for _ in range(30):
            red = random_reduced(rng, definite="positive", central=bool(rng.random() < 0.5))
            ks = qf.cumulants(red, 4)
            for family, order in matched_orders.items():
                try:
                    sur = qf.match(ks, family)
                except qf.NotApplicableError:
                    continue
                got = qf.surrogate_cumulants(sur, order)
                for j in range(1, order + 1):
                    scale = 1.0 + abs(ks.get(j))
                    assert abs(got.get(j) - ks.get(j)) < 1e-10 * scale, family
                count[family] += 1
        assert all(v > 10 for v in count.values())


class TestCdfMatched:
    def test_hbe_exact_chi22(self):
        res = qf.cdf_matched(CHI22_SPLIT, 2.0, "hbe")
        assert abs(res.value - (1 - math.exp(-1.0))) < 1e-13
        assert res.provenance == "approximate" and res.error_bound is None

    def test_satterthwaite_fixed_point_cdf(self):
        red = qf.ReducedForm([3.0], [5], [0.0])
        res = qf.cdf_matched(red, 9.0, "satterthwaite")
        assert abs(res.value - stats.chi2.cdf(3.0, 5)) < 1e-13

    def test_wood_near_quantile(self):
        red = qf.ReducedForm([1.0, 0.5, 0.25], [1, 1, 1], [0.0] * 3)
        q95 = qf.quantile(red, 0.95, tol=1e-9)
        res = qf.cdf_matched(red, q95, "wood")
        assert abs(res.value - 0.95) < 0.01

    def test_rejects_indefinite(self):
        red = qf.ReducedForm([1.0, -1.0], [2, 2], [0.0, 0.0])
        with pytest.raises(qf.NotApplicableError):
            qf.cdf_matched(red, 0.5, "satterthwaite")

    @pytest.mark.parametrize("family", ["satterthwaite", "pearson", "hbe", "wood", "liu"])
    def test_grid_is_the_per_point_calls(self, family):
        # one classification and one match per call; on or outside the
        # support each point keeps its exact answer
        red = qf.ReducedForm([1.0, 0.5, 0.25], [1, 2, 1], [0.3, 0.0, 0.0])
        grid = np.array([-1.0, 0.0, 0.4, 1.5, 3.0, 8.0, math.inf])
        points = [qf.cdf_matched(red, float(q), family) for q in grid]
        assert qf.cdf_matched(red, grid, family) == points
        assert qf.cdf(red, grid, family) == points
        with pytest.raises(qf.NotApplicableError):
            qf.cdf(qf.ReducedForm([1.0, -1.0], [2, 2], [0.0, 0.0]), grid, family)


class TestSaddlepointSolve:
    def test_paper_value(self):
        sol = qf.saddlepoint_solve(PAPER_SADDLE, 1.0)
        assert abs(sol.t0 + 1.0084) < 1e-3

    def test_zero_at_mean(self, rng):
        red = random_reduced(rng, gaussian=True)
        k1 = qf.cumulants(red, 1).get(1)
        assert abs(qf.saddlepoint_solve(red, k1).t0) < 1e-12

    def test_chi22_closed_form(self):
        sol = qf.saddlepoint_solve(qf.ReducedForm([1.0], [2], [0.0]), 4.0)
        assert abs(sol.t0 - 0.25) < 1e-12

    def test_residual_tolerance(self, rng):
        for _ in range(20):
            red = random_reduced(rng, gaussian=bool(rng.random() < 0.3))
            q = quantile_points(red, (0.95,))[0]
            sol = qf.saddlepoint_solve(red, q)
            resid = abs(qf.cgf_derivative(red, sol.t0, 1) - q)
            assert resid <= 1e-10 * (1.0 + abs(q))
            assert sol.cgf_second > 0.0

    def test_sign_matches_side(self, rng):
        for _ in range(20):
            red = random_reduced(rng)
            k1 = qf.cumulants(red, 1).get(1)
            sd = math.sqrt(qf.cumulants(red, 2).get(2))
            for q in (k1 - 0.8 * sd, k1 + 0.8 * sd):
                sol = qf.saddlepoint_solve(red, q)
                assert math.copysign(1.0, sol.t0) == math.copysign(1.0, q - k1)

    def test_domain_error_below_support(self):
        red = qf.ReducedForm([1.0, 0.5], [2, 1], [0.0, 0.0])
        with pytest.raises(qf.DomainError):
            qf.saddlepoint_solve(red, -0.5)
        with pytest.raises(qf.DomainError):
            qf.saddlepoint_solve(red, 0.0)


class TestPdfSpa:
    def test_paper_density(self):
        res = qf.pdf_spa(PAPER_SADDLE, 1.0)
        assert abs(res.value - 0.42) < 0.01

    def test_chi22_within_stirling_factor(self):
        res = qf.pdf_spa(qf.ReducedForm([1.0], [2], [0.0]), 2.0)
        exact = math.exp(-1.0) / 2.0
        assert abs(res.value - exact) / exact < 0.12

    def test_gaussian_exact(self):
        red = qf.ReducedForm(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0),
                             1.5, 0.3)
        for q in (-1.0, 0.3, 2.7):
            exact = stats.norm.pdf(q, loc=0.3, scale=1.5)
            assert abs(qf.pdf_spa(red, q).value - exact) < 1e-12


class TestCdfSpa:
    def test_mean_limit_value(self):
        red = qf.ReducedForm([1.0], [1], [0.0])
        res = qf.cdf_spa(red, 1.0, "lugannani_rice")  # q = kappa_1 = 1
        expect = 0.5 + 8.0 / (6.0 * math.sqrt(2 * math.pi) * 2.0**1.5)
        assert abs(res.value - expect) < 1e-12

    def test_switch_scale_follows_the_spread(self):
        # tiny weights beside a Gaussian term: the MGF strip is wide (t_R =
        # 5e199), but at q = 7 sd the saddlepoint t0 = 7 is far from the mean
        red = qf.ReducedForm([1e-200], [1], [0.0], 1.0)
        for res in (qf.cdf(red, 7.0), qf.cdf_spa(red, 7.0)):
            assert res.method == "spa_lr" and "mean_limit" not in res.diagnostics
            assert 1.0 - res.value == pytest.approx(stats.norm.sf(7.0), rel=1e-3)

    def test_chi25_tail(self):
        red = qf.ReducedForm([1.0], [5], [0.0])
        res = qf.cdf_spa(red, 25.0, "lugannani_rice")
        exact_ccdf = stats.chi2.sf(25.0, 5)
        assert abs((1.0 - res.value) - exact_ccdf) / exact_ccdf < 0.05
        log_ccdf = res.diagnostics["log_ccdf"]
        assert abs(log_ccdf - math.log(exact_ccdf)) < 0.05

    def test_monotone_on_grid(self, rng):
        for _ in range(20):
            red = random_reduced(rng, definite="indefinite", min_dof=2)
            k1 = qf.cumulants(red, 1).get(1)
            sd = math.sqrt(qf.cumulants(red, 2).get(2))
            grid = np.linspace(k1 - 8 * sd, k1 + 8 * sd, 200)
            vals = [qf.cdf_spa(red, float(x), "lugannani_rice").value for x in grid]
            assert np.all(np.diff(vals) >= -1e-9)

    def test_lr_bn_agreement(self, rng):
        for _ in range(30):
            red = random_reduced(rng, gaussian=bool(rng.random() < 0.3))
            q = quantile_points(red, (0.95,))[0]
            sol = qf.saddlepoint_solve(red, q)
            if abs(sol.w) <= 0.5:
                continue
            lr = qf.cdf_spa(red, q, "lugannani_rice").value
            bn = qf.cdf_spa(red, q, "barndorff_nielsen").value
            assert abs(lr - bn) < 1e-3

    def test_exponential_tail_rate(self):
        red = qf.ReducedForm([1.0, 0.4], [3, 2], [0.0, 0.0])
        t_r = qf.mgf_domain(red).t_right
        k1 = qf.cumulants(red, 1).get(1)
        lc = []
        for q in (50 * k1, 100 * k1):
            res = qf.cdf_spa(red, q, "lugannani_rice")
            lc.append(res.diagnostics["log_ccdf"])
        slope = (lc[1] - lc[0]) / (50 * k1)
        assert abs(slope + t_r) < 0.05 * t_r
