"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured margin when it completes.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

import quadform as qf
from quadform import inversion, select
from quadform.forms import DaviesParams, ImhofParams
from quadform.reference import mc_ratio_moment, sample_reduced

from conftest import make_rng, quantile_points, random_reduced


def best_effort(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except qf.ConvergenceFailureError as exc:
        return exc.result


def report(line):
    print(f"\n[acceptance] {line}")


def test_criterion_01_paper_example_reproduction():
    sigma = np.array([[5, 5, 3, 3], [5, 5, 3, 3], [3, 3, 9, 1], [3, 3, 1, 9]]) / 4.0
    a1 = np.array([[-1, -1, 1, -1], [-1, -1, -1, 1], [1, -1, 1, 1],
                   [-1, 1, 1, 1]]) / 2.0
    eff = qf.reduce_real(qf.RawForm(a1, np.zeros(4), 0.0,
                                    np.array([0.0, 1, 0, 1]), sigma))
    errs = [
        abs(eff.omega[0] - 2.0), abs(eff.omega[1] + 2.0),
        abs(eff.delta2[0] - 0.125), abs(eff.delta2[1] - 0.125),
        abs(eff.sigma_gauss - 2.0), abs(eff.const - 1.0),
    ]

    a2 = np.array([[7.0, 24, 0], [24, -7, 0], [0, 0, 25]])
    red2 = qf.reduce_raw(qf.RawForm(a2, np.array([40.0, 50, 30]), 0.0,
                                    np.zeros(3), np.eye(3)))
    errs += [
        abs(red2.omega[0] - 25.0), abs(red2.omega[1] + 25.0),
        abs(red2.nu[0] - 2), abs(red2.nu[1] - 1),
        abs(red2.delta2[0] - 1186 / 625), abs(red2.delta2[1] - 64 / 625),
        abs(red2.const + 1122 / 25),
    ]

    redc = qf.reduce_complex(qf.RawComplexForm(
        np.array([[1, -1j], [1j, 1]]), np.array([1.0, 1.0]), 0.0,
        np.array([1.0, 1.0 + 1j]), np.array([[10, -6j], [6j, 10]])))
    errs += [
        abs(redc.omega[0] - 16.0), abs(redc.nu[0] - 2),
        abs(redc.delta2[0] - 53 / 128), abs(redc.sigma_gauss - math.sqrt(2)),
        abs(redc.const - 3 / 8),
    ]
    worst = max(errs)
    assert worst < 1e-10
    report(f"criterion 1 PASS: paper reductions reproduced, worst error {worst:.2e}")


def test_criterion_02_saddlepoint_paper_numbers():
    red = qf.ReducedForm([0.6, 0.3, 0.1], [2, 2, 1], [0.0] * 3)
    sol = qf.saddlepoint_solve(red, 1.0)
    pdf = qf.pdf_spa(red, 1.0).value
    assert abs(sol.t0 + 1.0084) < 1e-3
    assert abs(pdf - 0.42) < 0.01
    report(f"criterion 2 PASS: t0 = {sol.t0:.5f} (|err| {abs(sol.t0 + 1.0084):.1e}), "
           f"density {pdf:.4f} vs 0.42")


def test_criterion_03_cross_method_agreement():
    rng = make_rng(303)
    start = time.time()
    worst_pair = 0.0
    worst_ruben = 0.0
    n_pd_central = 0
    for i in range(100):
        pd_central = i % 4 == 0
        if pd_central:
            red = random_reduced(rng, definite="positive", central=True, min_dof=5)
        else:
            red = random_reduced(
                rng,
                definite=None if i % 4 == 1 else "indefinite",
                central=bool(rng.random() < 0.5),
                min_dof=5,
            )
        for q in quantile_points(red):
            a = best_effort(qf.cdf_imhof, red, q, tol=1e-9)
            b = best_effort(qf.cdf_davies, red, q, tol=1e-9)
            gap = abs(a.diagnostics["raw_value"] - b.diagnostics["raw_value"])
            allowed = a.error_bound + b.error_bound + 1e-10
            assert gap <= allowed, (i, q, gap, allowed)
            worst_pair = max(worst_pair, gap)
            if pd_central:
                rb = qf.cdf_series(red, q, "ruben", tol=1e-10)
                d1 = abs(rb.value - a.value)
                d2 = abs(rb.value - b.value)
                assert d1 < 1e-8 and d2 < 1e-8, (i, q, d1, d2)
                worst_ruben = max(worst_ruben, d1, d2)
        if pd_central:
            n_pd_central += 1
    elapsed = time.time() - start
    assert elapsed < 120.0
    report(f"criterion 3 PASS: 100 forms x 5 points, worst |imhof-davies| "
           f"{worst_pair:.2e} within bounds; ruben gap {worst_ruben:.2e} "
           f"on {n_pd_central} PD-central forms; {elapsed:.0f}s")


def test_criterion_04_bound_validity():
    rng = make_rng(404)
    violations = 0
    checked = 0
    for i in range(50):
        red = random_reduced(rng, min_dof=3, gaussian=bool(rng.random() < 0.25))
        q = quantile_points(red, (0.25,))[0]
        if red.sigma_gauss == 0.0:
            # Imhof truncation: residual between U and 4U at matched spacing
            u = 6.0 + float(rng.uniform(0.0, 4.0))
            panels = 2**14
            r1 = qf.cdf_imhof(red, q, params=ImhofParams(u, panels))
            r2 = qf.cdf_imhof(red, q, params=ImhofParams(4 * u, 4 * panels))
            resid = abs(r1.diagnostics["raw_value"] - r2.diagnostics["raw_value"])
            bound = inversion._Rung(red, u, inversion._tail_form(red)).head.plain
            checked += 1
            if resid > bound:
                violations += 1
        # Davies: lattice halving and truncation quadrupling
        base = best_effort(qf.cdf_davies, red, q, tol=1e-6)
        delta = base.diagnostics["delta"]
        k_max = min(base.diagnostics["k_max"], 2**18)
        coarse = qf.cdf_davies(red, q, params=DaviesParams(delta, k_max))
        fine_lattice = qf.cdf_davies(red, q,
                                     params=DaviesParams(delta / 2, 2 * k_max + 1))
        lat_resid = abs(coarse.diagnostics["raw_value"]
                        - fine_lattice.diagnostics["raw_value"])
        lat_budget = coarse.diagnostics["lattice_bound"] \
            + coarse.diagnostics["truncation_bound"] \
            + fine_lattice.diagnostics["truncation_bound"]
        checked += 1
        if lat_resid > lat_budget:
            violations += 1
        fine_trunc = qf.cdf_davies(red, q, params=DaviesParams(delta, 4 * k_max))
        tr_resid = abs(coarse.diagnostics["raw_value"]
                       - fine_trunc.diagnostics["raw_value"])
        tr_budget = coarse.diagnostics["truncation_bound"] \
            + coarse.diagnostics["lattice_bound"] * 2.0
        checked += 1
        if tr_resid > tr_budget:
            violations += 1
    assert violations == 0
    report(f"criterion 4 PASS: {checked} bound-domination checks, zero violations")


def _battery():
    rng = make_rng(505)
    forms = []
    for _ in range(10):
        forms.append(random_reduced(rng, definite="positive", central=True, min_dof=3))
    for _ in range(5):
        forms.append(random_reduced(rng, definite="positive", central=False, min_dof=3))
    for _ in range(5):
        forms.append(random_reduced(rng, definite="indefinite", central=True, min_dof=3))
    for _ in range(5):
        forms.append(random_reduced(rng, definite="indefinite", central=False, min_dof=3))
    for _ in range(5):
        forms.append(random_reduced(rng, gaussian=True, min_dof=3))
    return forms


def test_criterion_05_monte_carlo_consistency():
    n = 10**7
    worst_z = 0.0
    n_checks = 0
    for idx, red in enumerate(_battery()):
        draws = sample_reduced(red, n, seed=5050 + idx)
        cls = qf.classify(red)
        for q in quantile_points(red):
            p_hat = float(np.mean(draws <= q))
            se = math.sqrt(max(p_hat * (1 - p_hat), 1e-12) / n)
            values = {}
            if red.sigma_gauss == 0.0:
                values["imhof"] = best_effort(qf.cdf_imhof, red, q, tol=1e-7).value
                if cls.definiteness == "positive":
                    values["ruben"] = qf.cdf_series(red, q, "ruben",
                                                    tol=1e-9).value
                if cls.centrality == "central" and cls.even_degrees:
                    values["central_even"] = qf.cdf_central_even(red, q).value
            values["davies"] = best_effort(qf.cdf_davies, red, q, tol=1e-7).value
            for name, val in values.items():
                z = abs(val - p_hat) / se
                worst_z = max(worst_z, z)
                n_checks += 1
                assert z < 4.0, (idx, q, name, val, p_hat, z)
    report(f"criterion 5 PASS: {n_checks} method/point checks on the 30-form "
           f"battery vs 1e7-draw MC, worst |z| = {worst_z:.2f}")


def test_criterion_06_moment_matching_exactness():
    # exact surrogate-cumulant matching
    rng = make_rng(606)
    worst_match = 0.0
    orders = {"satterthwaite": 2, "pearson": 3, "hbe": 3, "wood": 3, "liu": 3}
    for _ in range(20):
        red = random_reduced(rng, definite="positive", min_dof=3)
        ks = qf.cumulants(red, 4)
        for family, order in orders.items():
            try:
                sur = qf.match(ks, family)
            except qf.NotApplicableError:
                continue
            got = qf.surrogate_cumulants(sur, order)
            for j in range(1, order + 1):
                rel = abs(got.get(j) - ks.get(j)) / (1.0 + abs(ks.get(j)))
                worst_match = max(worst_match, rel)
                assert rel < 1e-10
    # HBE / Liu recover the exact chi-square-2 distribution
    chi22 = qf.ReducedForm([1.0, 1.0], [1, 1], [0.0, 0.0])
    worst_exact = 0.0
    for q in (0.5, 1.0, 2.0, 4.0, 7.0):
        exact = 1.0 - math.exp(-q / 2.0)
        for family in ("hbe", "liu"):
            err = abs(qf.cdf_matched(chi22, q, family).value - exact)
            worst_exact = max(worst_exact, err)
            assert err < 1e-12
    # quantile-error harness at the 0.95 level, on the many-component
    # weighted sums this comparison methodology targets (skewness mismatch
    # is what separates two- from three-moment matching there)
    wood_wins = 0
    hbe_wins = 0
    total = 0
    while total < 50:
        n_comp = int(rng.integers(10, 40))
        red = qf.ReducedForm(rng.uniform(0.01, 1.0, n_comp),
                             np.ones(n_comp, dtype=int), np.zeros(n_comp))
        try:
            qf.match(qf.cumulants(red, 4), "wood")
        except qf.NotApplicableError:
            continue
        q95 = qf.quantile(red, 0.95, tol=1e-9)
        ref = qf.cdf_series(red, q95, "ruben", tol=1e-11).value
        errs = {f: abs(qf.cdf_matched(red, q95, f).value - ref)
                for f in ("satterthwaite", "wood", "hbe")}
        wood_wins += errs["wood"] < errs["satterthwaite"]
        hbe_wins += errs["hbe"] < errs["satterthwaite"]
        total += 1
    assert wood_wins >= 40 and hbe_wins >= 40
    report(f"criterion 6 PASS: cumulant matching <= {worst_match:.1e} rel; "
           f"chi2_2 recovery <= {worst_exact:.1e}; wood beats satterthwaite "
           f"{wood_wins}/50, hbe {hbe_wins}/50 at the 0.95 quantile")


def test_criterion_07_known_failure_regression():
    red = qf.ReducedForm([1.0, 0.6**4], [1, 1], [1.0, 7.0])
    qs = (30.0, 35.0, 40.0)
    # tight references, two independent routes
    refs = {}
    for q in qs:
        ref_d = best_effort(qf.cdf_davies, red, q, tol=5e-9)
        ref_i = best_effort(qf.cdf_imhof, red, q, tol=1e-8)
        assert abs(ref_d.value - ref_i.value) <= \
            ref_d.error_bound + ref_i.error_bound
        refs[q] = 1.0 - ref_i.value
    ccdfs = []
    for q in qs:
        method = select.select_method(red, "cdf", q)
        res = best_effort(select.cdf, red, q, method, 1e-8)
        ccdf = 1.0 - res.value
        ccdfs.append(ccdf)
        assert ccdf > 0.0
        assert abs(ccdf - refs[q]) <= 0.05 * refs[q], (q, ccdf, refs[q])
    assert ccdfs[0] > ccdfs[1] > ccdfs[2]
    # naive fixed-parameter run: deviation detected through the bound
    naive = qf.cdf_imhof(red, 35.0, params=ImhofParams(u_max=3.0, panels=256))
    deviation = abs(naive.diagnostics["raw_value"] - (1.0 - refs[35.0]))
    assert deviation <= naive.error_bound
    assert 0.0 <= naive.value <= 1.0
    report(f"criterion 7 PASS: auto CCDFs {[f'{c:.3e}' for c in ccdfs]} positive, "
           f"decreasing, within 5% of references; naive imhof deviation "
           f"{deviation:.2e} covered by its reported bound {naive.error_bound:.2e}")


def test_criterion_08_ratio_correctness():
    cauchy = qf.RatioSpec([[0.0, 0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                          [0.0, 0.0], np.eye(2))
    r0 = qf.cdf_ratio(cauchy, 0.0, method="auto", tol=1e-9)
    assert abs(r0.value - 0.5) <= 1e-8

    m, n = 3, 5
    a = np.zeros((8, 8)); a[:m, :m] = np.eye(m) / m
    b = np.zeros((8, 8)); b[m:, m:] = np.eye(n) / n
    fspec = qf.RatioSpec(a, b, np.zeros(8), np.eye(8))
    worst_cdf = 0.0
    for r in np.linspace(0.2, 4.0, 10):
        got = qf.cdf_ratio(fspec, float(r), tol=1e-8).value
        err = abs(got - stats.f.cdf(r, m, n))
        worst_cdf = max(worst_cdf, err)
        assert err < 1e-6
    worst_pdf = 0.0
    for r in (0.3, 0.7, 1.0, 2.0, 3.5):
        got = qf.pdf_ratio_spa(fspec, float(r)).value
        rel = abs(got / stats.f.pdf(r, m, n) - 1.0)
        worst_pdf = max(worst_pdf, rel)
        assert rel < 0.03

    # moment-existence decision tree corner cases
    cases = [
        (cauchy, 1, False),
        (qf.RatioSpec(np.diag([1.0, 0.0]), np.eye(2), [0, 0], np.eye(2)), 4, True),
        (qf.RatioSpec(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), [0, 0],
                      np.eye(2)), 1, False),
        (qf.RatioSpec(np.diag([0.0, 0.0, 1.0]), np.diag([1.0, 1.0, 0.0]),
                      [0, 0, 0], np.eye(3)), 1, False),   # 2p = 2 not < r_B = 2
        (qf.RatioSpec(np.array([[0, 0, 1.0], [0, 0, 0], [1.0, 0, 0]]),
                      np.diag([1.0, 1.0, 0.0]), [0, 0, 0], np.eye(3)), 1, True),
        (qf.RatioSpec(np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 0.0]),
                      [0, 0, 0], np.eye(3)), 3, True),    # numerator avoids null(B)
    ]
    for spec, p, expect in cases:
        assert qf.moment_exists(spec, p).exists is expect

    # dual-route moments vs Monte Carlo
    rng = make_rng(808)
    worst_gap = 0.0
    worst_zz = 0.0
    for i in range(20):
        dim = int(rng.integers(2, 5))
        mmat = rng.standard_normal((dim, dim))
        amat = (mmat + mmat.T) / 2.0
        mmat = rng.standard_normal((dim, dim))
        bmat = mmat @ mmat.T + 0.4 * np.eye(dim)
        mu = rng.standard_normal(dim) if rng.random() < 0.5 else np.zeros(dim)
        spec = qf.RatioSpec(amat, bmat, mu, np.eye(dim))
        for p in (1, 2, 3):
            s = qf.ratio_moment_series(spec, p, j_max=2000, tol=1e-10)
            t = qf.ratio_moment_integral(spec, p, quadrature_tol=1e-11)
            gap = abs(s.value - t.value) / max(1.0, abs(s.value))
            worst_gap = max(worst_gap, gap)
            assert gap < 1e-6
            mc = mc_ratio_moment(spec, p, n=10**6, seed=8080 + 10 * i + p)
            z = abs(s.value - mc.estimate) / max(mc.std_error, 1e-12)
            worst_zz = max(worst_zz, z)
            assert z < 4.0
    report(f"criterion 8 PASS: Cauchy median exact to {abs(r0.value - 0.5):.1e}; "
           f"F(3,5) cdf err <= {worst_cdf:.1e}, spa pdf rel <= {worst_pdf:.1e}; "
           f"existence tree 6/6; series-integral gap <= {worst_gap:.1e}, "
           f"MC worst |z| = {worst_zz:.2f}")


def test_criterion_09_quantile_round_trip():
    rng = make_rng(909)
    worst = 0.0
    for _ in range(20):
        red = random_reduced(rng, min_dof=5, gaussian=bool(rng.random() < 0.25))
        for p in (0.001, 0.01, 0.5, 0.99, 0.999):
            x = qf.quantile(red, p, tol=1e-8)
            val = best_effort(qf.cdf_imhof, red, x, tol=1e-9).value
            err = abs(val - p)
            worst = max(worst, err)
            assert err <= 1e-8, (p, err)
    report(f"criterion 9 PASS: 20 forms x 5 levels, worst |F(quantile(p)) - p| "
           f"= {worst:.2e}")


def test_criterion_10_tail_rate():
    rng = make_rng(1010)
    worst = 0.0
    for _ in range(10):
        red = random_reduced(rng, definite="positive", central=True, min_dof=3)
        t_r = qf.mgf_domain(red).t_right
        k1 = qf.cumulants(red, 1).get(1)
        logc = []
        for q in (50.0 * k1, 100.0 * k1):
            res = qf.cdf_spa(red, q + red.const, "lugannani_rice")
            logc.append(res.diagnostics["log_ccdf"])
        slope = (logc[1] - logc[0]) / (50.0 * k1)
        rel = abs(slope + t_r) / t_r
        worst = max(worst, rel)
        assert rel < 0.05
    report(f"criterion 10 PASS: SPA log-CCDF slope matches -t_R within "
           f"{worst:.3f} relative on 10 PD central forms")
