import math

import numpy as np
import pytest
from scipy import integrate, linalg, stats

import quadform as qf
from quadform import approx, ratio, reduction, transforms
from quadform.forms import ZERO_EIG_TOL


CAUCHY = qf.RatioSpec([[0.0, 0.5], [0.5, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                      [0.0, 0.0], np.eye(2))
BETA_HALF = qf.RatioSpec(np.diag([1.0, 0.0]), np.eye(2), [0.0, 0.0], np.eye(2))


def f_ratio_spec(m=3, n=5):
    a = np.zeros((m + n, m + n))
    a[:m, :m] = np.eye(m) / m
    b = np.zeros((m + n, m + n))
    b[m:, m:] = np.eye(n) / n
    return qf.RatioSpec(a, b, np.zeros(m + n), np.eye(m + n))


def random_pd_ratio(rng, n=4, noncentral=False):
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    m = rng.standard_normal((n, n))
    b = m @ m.T + 0.4 * np.eye(n)
    mu = rng.standard_normal(n) if noncentral else np.zeros(n)
    return qf.RatioSpec(a, b, mu, np.eye(n))


class TestToIndefinite:
    def test_zero_threshold_identity(self):
        raw = qf.ratio_to_indefinite(CAUCHY, 0.0)
        assert np.allclose(raw.a, CAUCHY.a)
        assert np.allclose(raw.b, 0.0) and raw.c == 0.0

    def test_cauchy_arithmetic(self):
        raw = qf.ratio_to_indefinite(CAUCHY, 1.0)
        assert np.allclose(raw.a, [[0.0, 0.5], [0.5, -1.0]])

    def test_eigenvalue_continuity(self, rng):
        spec = random_pd_ratio(rng)
        for r in (0.0, 0.5, -1.2):
            e1 = np.sort(np.linalg.eigvalsh(spec.a - r * spec.b))
            e2 = np.sort(np.linalg.eigvalsh(spec.a - (r + 1e-6) * spec.b))
            assert np.max(np.abs(e1 - e2)) < 1e-4


def _correlated_spec(rng, n=4):
    m = rng.standard_normal((n, n))
    v = rng.standard_normal((n, n))
    return qf.RatioSpec((m + m.T) / 2.0, v @ v.T + 0.4 * np.eye(n),
                        rng.standard_normal(n), v.T @ v + 0.3 * np.eye(n))


SIGMA_1_B = np.array([[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]])
# A - 3B = 0 in exact arithmetic only: the whitened F'AF - 3 F'BF is rounding
VANISHING = qf.RatioSpec(3.0 * SIGMA_1_B, SIGMA_1_B, [0.3, -0.2, 0.1], np.diag([1.0, 2.0, 0.5]))
# Sigma of rank 2 with mu outside its range: x_3 = 0.5 is fixed
SINGULAR_SIGMA = qf.RatioSpec([[0.4, 0.3, -0.2], [0.3, -0.6, 0.5], [-0.2, 0.5, 0.1]],
                              SIGMA_1_B, [0.2, -0.1, 0.5], np.diag([1.0, 2.0, 0.0]))


class TestCdfRatio:
    def test_cauchy_median(self):
        res = qf.cdf_ratio(CAUCHY, 0.0, method="auto", tol=1e-9)
        assert abs(res.value - 0.5) <= 1e-8

    def test_cauchy_curve(self):
        for r in (-2.0, -0.5, 0.7, 3.0):
            got = qf.cdf_ratio(CAUCHY, r, method="auto", tol=1e-8).value
            assert abs(got - stats.cauchy.cdf(r)) < 5e-8

    def test_f_distribution(self):
        spec = f_ratio_spec()
        for r in (0.5, 1.0, 2.0):
            got = qf.cdf_ratio(spec, r, tol=1e-8).value
            assert abs(got - stats.f.cdf(r, 3, 5)) < 1e-6

    def test_support_bounds(self, rng):
        spec = random_pd_ratio(rng)
        pencil = np.linalg.eigvals(np.linalg.solve(spec.b, spec.a)).real
        hi = qf.cdf_ratio(spec, float(pencil.max()) + 1e-6, tol=1e-8)
        assert hi.value >= 1.0 - 1e-6
        lo = qf.cdf_ratio(spec, float(pencil.min()) - 1e-6, tol=1e-8)
        assert lo.value <= 1e-6

    def test_scale_invariance(self, rng):
        spec = random_pd_ratio(rng, noncentral=True)
        scaled = qf.RatioSpec(3.7 * spec.a, 3.7 * spec.b, spec.mu, spec.sigma_mat)
        for r in (-0.4, 0.8):
            a = qf.cdf_ratio(spec, r, method="auto", tol=1e-9).value
            b = qf.cdf_ratio(scaled, r, method="auto", tol=1e-9).value
            assert abs(a - b) < 1e-10 + 4e-9

    def test_monotone_in_threshold(self, rng):
        for _ in range(5):
            spec = random_pd_ratio(rng, noncentral=bool(rng.random() < 0.5))
            evs = np.linalg.eigvals(np.linalg.solve(spec.b, spec.a)).real
            lo, hi = float(evs.min()), float(evs.max())
            grid = np.linspace(lo + 1e-3 * (hi - lo), hi - 1e-3 * (hi - lo), 50)
            vals = [qf.cdf_ratio(spec, float(r), method="auto", tol=1e-7).value
                    for r in grid]
            assert np.all(np.diff(vals) >= -1e-7)

    def test_grid_factors_sigma_once(self, rng, eig_calls):
        # Sigma and B decomposed once each when the spec is built, then one
        # eigendecomposition of F'AF - r F'BF per point (Sigma = FF') and no other
        spec = _correlated_spec(rng)
        grid = np.linspace(-0.4, 0.4, 7)
        for r in grid:
            qf.cdf_ratio(spec, float(r), tol=1e-8)
        assert sum(np.array_equal(c, spec.sigma_mat) for c in eig_calls) == 1
        assert len(eig_calls) == 2 + grid.size

    def test_array_decomposes_once(self, rng, eig_calls):
        # the thresholds of one call share one stacked eigendecomposition
        spec = _correlated_spec(rng)
        qf.cdf_ratio(spec, np.linspace(-0.4, 0.4, 7), tol=1e-8)
        assert sum(np.array_equal(c, spec.sigma_mat) for c in eig_calls) == 1
        assert len(eig_calls) == 2 + 1 and eig_calls[2].shape == (7, 4, 4)

    @pytest.mark.parametrize("spec,grid", [
        (CAUCHY, [-math.inf, -2.0, 0.0, 0.7, 3.0, math.inf]),
        (VANISHING, [1.0, 3.0, 5.0, math.inf]),
        (SINGULAR_SIGMA, [-math.inf, -0.8, 0.1, 0.6, 1.5, math.inf]),
    ], ids=["cauchy", "vanishing", "singular_sigma"])
    def test_array_matches_points(self, spec, grid):
        got = qf.cdf_ratio(spec, np.array(grid), tol=1e-9)
        assert isinstance(got, list) and len(got) == len(grid)
        for r, res in zip(grid, got):
            want = qf.cdf_ratio(spec, r, tol=1e-9)
            assert (res.method, res.provenance) == (want.method, want.provenance)
            assert abs(res.value - want.value) <= max(res.error_bound, want.error_bound)

    def test_vanishing_pencil(self):
        # R = 3 almost surely; at r = 3 the form is the constant 0
        res = qf.cdf_ratio(VANISHING, 3.0)
        assert (res.value, res.method, res.diagnostics["constant"]) == (1.0, "degenerate", 0.0)
        # x'(A - B)x = x_2^2 = 0.25 with x_2 outside the range of Sigma
        spec = qf.RatioSpec(np.eye(2), np.diag([1.0, 0.0]), [0.3, 0.5], np.diag([1.0, 0.0]))
        res = qf.cdf_ratio(spec, 1.0)
        assert (res.value, res.method) == (0.0, "degenerate")
        assert res.diagnostics["constant"] == pytest.approx(0.25, rel=1e-15)
        # Sigma = 0: x = mu, R = 0.34 / 0.215, and every threshold is a constant
        spec = qf.RatioSpec(np.eye(2), np.diag([1.0, 0.5]), [0.3, 0.5], np.zeros((2, 2)))
        got = qf.cdf_ratio(spec, [0.5, 1.5, 1.6, 3.0])
        assert [res.value for res in got] == [0.0, 0.0, 1.0, 1.0]
        assert {res.method for res in got} == {"degenerate"}

    def test_array_raises_the_first_error(self):
        with pytest.raises(qf.InvalidInputError):
            qf.cdf_ratio(CAUCHY, [0.1, math.nan])
        with pytest.raises(qf.NotApplicableError):
            qf.cdf_ratio(CAUCHY, [0.1, 0.3, -0.2], method="central_even")


class TestPdfRatioSpa:
    @pytest.mark.parametrize("spec,grid", [
        (CAUCHY, [-math.inf, -2.0, 0.0, 0.7, 3.0, math.inf]),
        (f_ratio_spec(), [math.inf, 0.3, 1.0, 2.5, -math.inf]),
    ], ids=["cauchy", "f"])
    def test_array_matches_points(self, spec, grid):
        got = qf.pdf_ratio_spa(spec, np.array(grid))
        assert got == [qf.pdf_ratio_spa(spec, r) for r in grid]

    def test_array_raises_the_first_error(self):
        # A - 3B vanishes at r = 3, and -0.5 is outside the support of the
        # F-ratio
        with pytest.raises(qf.NotApplicableError):
            qf.pdf_ratio_spa(VANISHING, [math.inf, 3.0])
        with pytest.raises(qf.DomainError):
            qf.pdf_ratio_spa(f_ratio_spec(), [1.0, -0.5, 0.0])
        with pytest.raises(qf.InvalidInputError):
            qf.pdf_ratio_spa(f_ratio_spec(), [1.0, math.nan])

    def test_f_density(self):
        spec = f_ratio_spec()
        for r in (0.4, 1.0, 2.5):
            res = qf.pdf_ratio_spa(spec, r)
            exact = stats.f.pdf(r, 3, 5)
            assert abs(res.value - exact) / exact < 0.03

    def test_cauchy_center(self):
        res = qf.pdf_ratio_spa(CAUCHY, 0.0)
        assert abs(res.value - 1.0 / math.pi) / (1.0 / math.pi) < 0.05

    def test_normalization_mass(self):
        res = qf.pdf_ratio_spa(f_ratio_spec(), 1.0)
        # normalized by construction; the raw mass is the diagnostics entry
        assert abs(res.diagnostics["normalization_mass"] - 1.0) < 0.1
        assert res.diagnostics["raw_value"] > 0.0
        mass, nodes = ratio._spa_mass(*ratio._whiten(f_ratio_spec()))
        assert (res.diagnostics["normalization_mass"], res.diagnostics["normalization_nodes"]) \
            == (mass, nodes)

    def test_arcsine_density(self):
        # R = x1^2 / (x1^2 + x2^2) is Beta(1/2, 1/2), whose density
        # 1/(pi sqrt(r(1 - r))) Butler's formula gives up to its mass sqrt(pi/2)
        r = np.array([1e-4, 0.01, 0.2, 0.5, 0.9, 0.9999])
        got = qf.pdf_ratio_spa(BETA_HALF, r)
        for res, want in zip(got, 1.0 / (math.pi * np.sqrt(r * (1.0 - r)))):
            assert abs(res.value - want) <= 1e-9 * want
        assert abs(got[0].diagnostics["normalization_mass"] - math.sqrt(math.pi / 2.0)) <= 1e-10

    def test_spa_integral_close_to_one(self):
        spec = f_ratio_spec()
        grid = np.linspace(1e-4, 100.0, 3000)
        a, b, mu = qf.ratio._whiten(spec)
        # the kernel's value is 0 at a threshold it cannot evaluate
        raw = qf.ratio._butler_kernel(a, b, mu, grid)[0]
        normalized_mass = np.trapezoid(raw, grid) / \
            qf.pdf_ratio_spa(spec, 1.0).diagnostics["normalization_mass"]
        assert abs(normalized_mass - 1.0) < 0.05

    def test_normalized_flag(self, monkeypatch):
        spec = f_ratio_spec()
        normalized = qf.pdf_ratio_spa(spec, 1.0)
        assert normalized.diagnostics["normalized"] is True
        # an unusable mass leaves the raw value, and says so
        monkeypatch.setattr(ratio, "_spa_mass", lambda a, b, mu: (math.nan, 0))
        res = qf.pdf_ratio_spa(spec, 1.0)
        assert res.diagnostics["normalized"] is False
        assert res.value == normalized.diagnostics["raw_value"]


def _scalar_butler(a, b, mu, r):
    """The per-point Butler density the batched kernel replaced: grouped
    eigenvalues and the scalar approx.saddlepoint_solve."""
    m_r = a - r * b
    lam_full, p_eig = np.linalg.eigh((m_r + m_r.T) / 2.0)
    delta = p_eig.T @ mu
    h_mat = p_eig.T @ b @ p_eig
    scale = float(np.max(np.abs(lam_full), initial=0.0))
    nonzero = np.abs(lam_full) > ZERO_EIG_TOL * scale if scale > 0 \
        else np.zeros_like(lam_full, bool)
    if not np.any(nonzero):
        raise qf.NotApplicableError("A - rB vanishes")
    red = reduction.group_eigenvalues(
        qf.ReducedForm(lam_full[nonzero], [1] * int(nonzero.sum()), delta[nonzero] ** 2)
    )
    sol = approx.saddlepoint_solve(red, 0.0)
    g = 1.0 / (1.0 - 2.0 * sol.t0 * lam_full)
    j_r = float(np.sum(g * np.diag(h_mat)) + (g * delta) @ h_mat @ (g * delta))
    log_f = sol.cgf_value - 0.5 * math.log(2.0 * math.pi * sol.cgf_second)
    return j_r * math.exp(log_f), sol.t0, j_r


def _random_ratio(rng, n, rank_deficit, noncentral):
    m = rng.standard_normal((n, n))
    a = (m + m.T) / 2.0
    f = rng.standard_normal((n, n - rank_deficit))
    b = f @ f.T / n + (0.0 if rank_deficit else 0.5 * np.eye(n))
    mu = rng.standard_normal(n) * 0.7 if noncentral else np.zeros(n)
    return a, b, mu


def _butler_battery(rank_deficit, noncentral):
    """(a, b, mu, grid) for n from 2 to 30: seven thresholds inside the
    support of the ratio and one beyond each end."""
    rng = np.random.default_rng(40 + 2 * rank_deficit + int(noncentral))
    for n in (2, 3, 5, 8, 13, 21, 30):
        if n - rank_deficit < 1:
            continue
        a, b, mu = _random_ratio(rng, n, rank_deficit, noncentral)
        bw, bv = np.linalg.eigh(b)
        keep = bw > 1e-10 * bw.max()
        half = bv[:, keep] / np.sqrt(bw[keep])
        gen = np.linalg.eigvalsh(half.T @ a @ half)
        grid = np.concatenate([np.linspace(gen[0], gen[-1], 9)[1:-1],
                               [gen[0] - 1.0, gen[-1] + 1.0]])
        yield a, b, mu, grid


def _old_saddlepoint_roots(w, d2):
    """The Butler kernel's own K'(t) = 0 solver that the shared
    transforms._solve_cgf_prime replaced: Newton steps that leave the
    shrinking bracket are replaced by bisection, and a row stops once its
    step is at rounding level relative to the strip width."""
    lo = 0.5 / np.min(w, axis=1)
    hi = 0.5 / np.max(w, axis=1)
    t_tol = 4.0 * np.finfo(float).eps * np.minimum(-lo, hi)
    t = np.zeros(w.shape[0])
    active = np.arange(w.shape[0])
    for _ in range(200):
        if active.size == 0:
            break
        ww, dd, tt = w[active], d2[active], t[active]
        g = 1.0 / (1.0 - 2.0 * ww * tt[:, None])
        k1 = np.sum(ww * g * (1.0 + dd * g), axis=1)
        k2 = 2.0 * np.sum((ww * g) ** 2 * (1.0 + 2.0 * dd * g), axis=1)
        lo_a = np.where(k1 < 0.0, tt, lo[active])
        hi_a = np.where(k1 > 0.0, tt, hi[active])
        newton = tt - k1 / k2
        t_new = np.where((newton > lo_a) & (newton < hi_a), newton, 0.5 * (lo_a + hi_a))
        t_new = np.where(k1 == 0.0, tt, t_new)
        lo[active], hi[active], t[active] = lo_a, hi_a, t_new
        active = active[np.abs(t_new - tt) > t_tol[active]]
    return t


class TestButlerKernel:
    @pytest.mark.parametrize("rank_deficit", [0, 2])
    @pytest.mark.parametrize("noncentral", [False, True])
    def test_matches_scalar_path(self, rank_deficit, noncentral):
        for a, b, mu, grid in _butler_battery(rank_deficit, noncentral):
            n = a.shape[0]
            value, t0, j_r, status = ratio._butler_kernel(a, b, mu, grid)
            for i, r in enumerate(grid):
                try:
                    want = _scalar_butler(a, b, mu, float(r))
                except qf.DomainError:
                    assert status[i] == ratio._OUTSIDE and value[i] == 0.0
                    with pytest.raises(qf.DomainError):
                        qf.pdf_ratio_spa(qf.RatioSpec(a, b, mu, np.eye(n)), float(r))
                    continue
                got = tuple(float(v[0]) for v in ratio._butler_kernel(a, b, mu, [float(r)])[:3])
                assert got == (value[i], t0[i], j_r[i])
                assert abs(got[0] - want[0]) <= 1e-12 * abs(want[0]), (n, r)
                assert abs(got[1] - want[1]) <= 1e-12 * max(abs(want[1]), 1e-300)
                assert abs(got[2] - want[2]) <= 1e-12 * abs(want[2])

    @pytest.mark.parametrize("rank_deficit", [0, 2])
    @pytest.mark.parametrize("noncentral", [False, True])
    def test_matches_old_roots(self, monkeypatch, rank_deficit, noncentral):
        for a, b, mu, grid in _butler_battery(rank_deficit, noncentral):
            got = ratio._butler_kernel(a, b, mu, grid)
            got_mass = ratio._spa_mass(a, b, mu)[0]
            with monkeypatch.context() as m:
                m.setattr(transforms, "_solve_cgf_prime",
                          lambda w, nu, d2, y, lo, hi: _old_saddlepoint_roots(w, d2))
                want = ratio._butler_kernel(a, b, mu, grid)
                want_mass = ratio._spa_mass(a, b, mu)[0]
            assert np.array_equal(got[3], want[3])
            ok = got[3] == ratio._OK
            for g, w in zip(got[:3], want[:3]):
                assert np.all(np.abs(g[ok] - w[ok]) <= 1e-12 * np.abs(w[ok])), a.shape
            assert abs(got_mass - want_mass) <= 1e-12 * want_mass

    def test_outside_support(self):
        a, b, mu = ratio._whiten(f_ratio_spec())
        value, _, _, status = ratio._butler_kernel(a, b, mu, [-1.0, 1.0])
        assert value[0] == 0.0 and value[1] > 0.0
        assert list(status) == [ratio._OUTSIDE, ratio._OK]
        with pytest.raises(qf.DomainError):
            qf.pdf_ratio_spa(f_ratio_spec(), -1.0)

    def test_vanishing_form(self):
        spec = qf.RatioSpec(np.eye(3), np.eye(3), np.zeros(3), np.eye(3))
        a, b, mu = ratio._whiten(spec)
        value, _, _, status = ratio._butler_kernel(a, b, mu, [1.0])
        assert value[0] == 0.0 and status[0] == ratio._VANISHES
        with pytest.raises(qf.NotApplicableError):
            qf.pdf_ratio_spa(spec, 1.0)

    def test_chunk_boundaries(self):
        a, b, mu = _random_ratio(np.random.default_rng(9), 4, 0, True)
        s = np.linspace(-0.999, 0.999, 2 * ratio._CHUNK + 37)
        r = s / (1.0 - s * s)
        whole = ratio._butler_kernel(a, b, mu, r)
        for cut in (1, 37, ratio._CHUNK - 1, ratio._CHUNK, ratio._CHUNK + 1,
                    2 * ratio._CHUNK):
            left = ratio._butler_kernel(a, b, mu, r[:cut])
            right = ratio._butler_kernel(a, b, mu, r[cut:])
            for w, lp, rp in zip(whole, left, right):
                assert np.array_equal(w, np.concatenate([lp, rp]), equal_nan=True)


SINGULAR_B = qf.RatioSpec(
    [[1.0, 0.3, -0.2], [0.3, -0.5, 0.4], [-0.2, 0.4, 0.8]],
    np.diag([1.0, 0.6, 0.0]), [0.3, 0.0, -0.5], np.eye(3),
)


class TestSpaMass:
    def test_gauss_kronrod_table(self):
        # Kronrod rule exact to degree 31, embedded Gauss rule to degree 19
        for d in range(32):
            exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
            assert abs(ratio._GK_W @ ratio._GK_X**d - exact) < 1e-14
            if d < 20:
                assert abs(ratio._G_W @ ratio._GK_X[1::2] ** d - exact) < 1e-14

    @pytest.mark.parametrize("spec,battery", [
        pytest.param(f_ratio_spec(), False, id="f"),
        pytest.param(CAUCHY, False, id="cauchy"),
        pytest.param(SINGULAR_B, False, id="singular_b"),
    ] + [
        pytest.param(qf.RatioSpec(a, b, mu, np.eye(a.shape[0])), True,
                     id=f"battery-{deficit}-{'non' if noncentral else ''}central-{a.shape[0]}")
        for deficit in (0, 1, 2) for noncentral in (False, True)
        for a, b, mu, _ in _butler_battery(deficit, noncentral)
    ])
    def test_matches_quad(self, spec, battery):
        a, b, mu = ratio._whiten(spec)

        def integrand(s):
            r = s / (1.0 - s * s)
            jac = (1.0 + s * s) / (1.0 - s * s) ** 2
            return ratio._butler_kernel(a, b, mu, [r])[0][0] * jac

        points = [0.0]
        if battery:
            # break at the fold's images of the finite generalized eigenvalues,
            # where the ends of a bounded support lie: at (r - l)^(-1/2) the
            # fold alone leaves about 1e-6 of the mass
            with np.errstate(all="ignore"):
                ev = linalg.eigvals(a, b)
            ev = ev.real[np.isfinite(ev) & (np.abs(ev.imag) < 1e-9)]
            for r in (ev.min(), ev.max()) if ev.size else ():
                s = 2.0 * r / (1.0 + math.sqrt(1.0 + 4.0 * r * r))
                if abs(s) < 1.0 - 1e-9:
                    points.append(s)
        want, _ = integrate.quad(integrand, -1.0, 1.0, limit=500, epsabs=1e-13,
                                 epsrel=1e-12, points=sorted(set(points)))
        got, nodes = ratio._spa_mass(a, b, mu)
        if not battery:
            assert abs(got - want) <= 1e-8 * want
            return
        # the mass's own tolerance, in at most 15 panels
        assert abs(got - want) <= 1e-6 * want
        assert nodes <= 15 * ratio._GK_X.size


class TestSupportEnds:
    @staticmethod
    def _pencil(a22):
        """(a, b) with B of rank 3 and A22 = P2'AP2 = a22 in B's null space,
        rotated by a fixed orthogonal matrix."""
        rng = np.random.default_rng(71)
        n = 3 + len(a22)
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2.0
        a[3:, 3:] = np.diag(a22)
        q = np.linalg.qr(rng.standard_normal((n, n)))[0]
        b = np.diag([1.0, 0.6, 0.3] + [0.0] * len(a22))
        return q @ a @ q.T, q @ b @ q.T

    @pytest.mark.parametrize("case,finite", [
        ("pd_b", (True, True)),
        ("a22_positive", (True, False)),
        ("a22_negative", (False, True)),
        ("a22_indefinite", (False, False)),
    ])
    def test_kernel_changes_sign_at_the_ends(self, case, finite):
        if case == "pd_b":
            a, b, _ = _random_ratio(np.random.default_rng(70), 5, 0, False)
        else:
            a, b = self._pencil({"a22_positive": [0.7, 0.4], "a22_negative": [-0.7, -0.4],
                                 "a22_indefinite": [0.7, -0.4]}[case])
        mu = np.zeros(a.shape[0])
        ends = ratio._support_ends(a, b)
        assert tuple(math.isfinite(e) for e in ends) == finite
        for end, inward in zip(ends, (1.0, -1.0)):
            if math.isfinite(end):
                step = 1e-6 * max(1.0, abs(end))
                pair = [end + inward * step, end - inward * step]
                status = ratio._butler_kernel(a, b, mu, pair)[3]
                assert list(status) == [ratio._OK, ratio._OUTSIDE], (case, end)
            else:
                assert ratio._butler_kernel(a, b, mu, [-inward * 1e6])[3][0] == ratio._OK


class TestMomentExistence:
    def test_cauchy_no_moments(self):
        me = qf.moment_exists(CAUCHY, 1)
        assert not me.exists and me.r_b == 1

    def test_pd_denominator(self):
        me = qf.moment_exists(qf.RatioSpec(np.diag([1.0, 0.0]), np.eye(2),
                                           [0, 0], np.eye(2)), 7)
        assert me.exists and me.condition == "denominator positive definite"

    def test_quadratic_null_branch(self):
        spec = qf.RatioSpec(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                            [0, 0], np.eye(2))
        me = qf.moment_exists(spec, 1)
        assert not me.exists and me.r_b == 1
        assert "quadratic" in me.condition

    def test_whitened_eigenvalue_in_the_tolerance_band(self):
        # a whitened eigenvalue of B at 1e-11 of the largest is a direction
        # of B (the null threshold is ZERO_EIG_TOL = 1e-12 of the largest)
        spec = qf.RatioSpec([[0.5, 0.2], [0.2, 1.0]], np.diag([1.0, 1e-11]), [0.0, 0.0],
                            np.eye(2))
        wb = np.linalg.eigvalsh(ratio._whiten(spec)[1])
        assert ZERO_EIG_TOL < wb.min() / wb.max() <= 1e-10
        me = qf.moment_exists(spec, 1)
        assert me.exists and me.r_b == 2 and me.condition == "denominator positive definite"

    def test_monotone_in_order(self, rng):
        # exists(p) false implies exists(p') false for p' > p
        n = 4
        for _ in range(10):
            m = rng.standard_normal((n, n))
            a = (m + m.T) / 2
            r_b = int(rng.integers(1, n))
            d = np.zeros(n)
            d[:r_b] = rng.uniform(0.5, 2.0, r_b)
            spec = qf.RatioSpec(a, np.diag(d), rng.standard_normal(n), np.eye(n))
            flags = [qf.moment_exists(spec, p).exists for p in range(1, 6)]
            for i in range(1, len(flags)):
                if not flags[i - 1]:
                    assert not flags[i]


def _inner_moment_scalar(lam, means, p):
    """d_p = E[(w'Cw)^p] / (2^p p!) for w ~ N(means, I), C = diag(lam)."""
    h2 = means**2
    d = np.zeros(p + 1)
    d[0] = 1.0
    u = np.zeros_like(lam)
    v = np.zeros_like(lam)
    for k in range(1, p + 1):
        u = lam * (d[k - 1] + u)
        v = lam * v + h2 * u
        d[k] = float(np.sum(u + v)) / (2.0 * k)
    return d[p]


def _quad_moment_integral(spec, p, quadrature_tol=1e-10):
    """The moment integral that the batched Gauss-Kronrod rule replaced: a
    scalar integrand with one eigendecomposition per node, integrated by
    scipy.integrate.quad.  Returns (value, error estimate)."""
    if p < 1:
        raise qf.InvalidInputError("moment order p must be a positive integer")
    a, b, mu = ratio._whiten(spec)
    if not qf.moment_exists(spec, p).exists:
        raise qf.NotApplicableError("moment does not exist")
    wb, ub = np.linalg.eigh(b)
    wb = np.clip(wb, 0.0, None)
    a_rot = ub.T @ a @ ub
    mu_rot = ub.T @ mu
    lgp = math.lgamma(p)

    def integrand(s):
        if s <= 0.0 or s >= 1.0:
            return 0.0
        t = s / (1.0 - s)
        inv_sqrt = 1.0 / np.sqrt(1.0 + 2.0 * t * wb)
        c = (inv_sqrt[:, None] * a_rot) * inv_sqrt[None, :]
        lam, q_eig = np.linalg.eigh(c)
        means = q_eig.T @ (inv_sqrt * mu_rot)
        d_p = _inner_moment_scalar(lam, means, p)
        log_phi = -0.5 * float(np.sum(np.log1p(2.0 * t * wb))) - 0.5 * float(
            np.sum((1.0 - inv_sqrt**2) * mu_rot**2)
        )
        val = math.exp((p - 1.0) * math.log(t) + log_phi - lgp
                       + p * math.log(2.0) + math.lgamma(p + 1.0)) * d_p
        return val / (1.0 - s) ** 2

    return integrate.quad(integrand, 0.0, 1.0, epsabs=quadrature_tol,
                          epsrel=quadrature_tol, limit=500)


# rank(B) = 4 and A linear in null(B): E[R^p] exists for p < 4
LINEAR_NULL_B = qf.RatioSpec(
    [[0.6, 0.2, -0.1, 0.3, 0.5, 0.0], [0.2, -0.4, 0.2, 0.0, 0.0, 0.7],
     [-0.1, 0.2, 0.9, -0.3, 0.4, 0.0], [0.3, 0.0, -0.3, 0.2, 0.0, 0.2],
     [0.5, 0.0, 0.4, 0.0, 0.0, 0.0], [0.0, 0.7, 0.0, 0.2, 0.0, 0.0]],
    np.diag([1.0, 0.6, 0.3, 0.8, 0.0, 0.0]), [0.2, -0.3, 0.0, 0.4, 0.5, -0.1], np.eye(6),
)


def _moment_oracle_specs():
    rng = np.random.default_rng(71)
    specs = [BETA_HALF, LINEAR_NULL_B]
    for n in (2, 3, 5, 8, 13, 21, 34):
        specs += [random_pd_ratio(rng, n), random_pd_ratio(rng, n, noncentral=True)]
    return specs


def _moment_value(route, spec, p, **kwargs):
    """The value of a moment route, or its best value when it does not converge."""
    try:
        return route(spec, p, **kwargs).value
    except qf.ConvergenceFailureError as exc:
        return exc.result.value


class TestMoments:
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_integral_matches_quad_oracle(self, p):
        for spec in _moment_oracle_specs():
            # at the default tolerance QAGS itself is off by up to 4e-12
            # relative on these forms; at 1e-13 it is the sharper reference
            want, _ = _quad_moment_integral(spec, p, quadrature_tol=1e-13)
            got = qf.ratio_moment_integral(spec, p)
            assert abs(got.value - want) <= 1e-12 * abs(want), (spec.dim, p)
        with pytest.raises(qf.NotApplicableError):
            _quad_moment_integral(SINGULAR_B, p)
        for route in (qf.ratio_moment_integral, qf.ratio_moment_series):
            with pytest.raises(qf.NotApplicableError):
                route(SINGULAR_B, p)


    def test_one_eigendecomposition_of_b(self, monkeypatch):
        # both routes read the eigenpairs of the whitened B from the prologue
        calls = []
        eigh, eigvalsh = np.linalg.eigh, np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(np.ndim(m)) or eigh(m))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda m: calls.append("eigvalsh") or eigvalsh(m))
        for spec in _moment_oracle_specs():
            for route in (qf.ratio_moment_series, qf.ratio_moment_integral):
                calls.clear()
                _moment_value(route, spec, 2)
                assert calls.count(2) == 1 and "eigvalsh" not in calls, (spec.dim, route)

    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_series_default_beta_from_eigh(self, p):
        # beta from eigvalsh(B), as before, moves the value only by rounding
        for spec in _moment_oracle_specs():
            b_eigs = np.linalg.eigvalsh(ratio._whiten(spec)[1])
            b_max, b_min = float(b_eigs.max()), max(float(b_eigs.min()), 0.0)
            beta = 2.0 / (b_max + b_min) if b_min > 1e-12 * b_max else 1.0 / b_max
            want = _moment_value(qf.ratio_moment_series, spec, p, beta=beta)
            got = _moment_value(qf.ratio_moment_series, spec, p)
            assert abs(got - want) <= 1e-12 * abs(want), (spec.dim, p)

    def test_beta_half_series(self):
        assert abs(qf.ratio_moment_series(BETA_HALF, 1, tol=1e-10).value - 0.5) < 1e-9
        assert abs(qf.ratio_moment_series(BETA_HALF, 2, tol=1e-10).value - 0.375) < 1e-9

    def test_beta_half_integral(self):
        assert abs(qf.ratio_moment_integral(BETA_HALF, 1).value - 0.5) < 1e-6
        assert abs(qf.ratio_moment_integral(BETA_HALF, 2).value - 0.375) < 1e-6

    def test_identity_ratio(self):
        spec = qf.RatioSpec(np.eye(3), np.eye(3), np.zeros(3), np.eye(3))
        for p in (1, 2, 3):
            assert abs(qf.ratio_moment_series(spec, p).value - 1.0) < 1e-10
            assert abs(qf.ratio_moment_integral(spec, p).value - 1.0) < 1e-8

    def test_rank_one_denominator(self):
        # R = 2x^2 / (x^2 / 2) = 4; the moment integrand has its slowest
        # decay in t here, which the quadrature map has to absorb
        spec = qf.RatioSpec([[2.0]], [[0.5]], [0.7], [[1.0]])
        for p in (1, 2, 3):
            for route in (qf.ratio_moment_series, qf.ratio_moment_integral):
                assert abs(route(spec, p).value - 4.0**p) <= 1e-12 * 4.0**p

    def test_nonexistent_moment_rejected(self):
        with pytest.raises(qf.NotApplicableError):
            qf.ratio_moment_series(CAUCHY, 1)
        with pytest.raises(qf.NotApplicableError):
            qf.ratio_moment_integral(CAUCHY, 1)

    def test_beta_domain(self):
        with pytest.raises(qf.InvalidInputError):
            qf.ratio_moment_series(BETA_HALF, 1, beta=2.5)

    def test_series_integral_cross_check(self, rng):
        for i in range(20):
            spec = random_pd_ratio(rng, n=int(rng.integers(2, 5)),
                                   noncentral=bool(rng.random() < 0.5))
            for p in (1, 2, 3):
                s = qf.ratio_moment_series(spec, p, j_max=2000, tol=1e-10)
                t = qf.ratio_moment_integral(spec, p, quadrature_tol=1e-11)
                scale = max(1.0, abs(s.value))
                assert abs(s.value - t.value) < 1e-6 * scale, (i, p)

    def test_noncentral_vs_monte_carlo(self, rng):
        spec = random_pd_ratio(rng, noncentral=True)
        from quadform.reference import mc_ratio_moment
        mc = mc_ratio_moment(spec, 1, n=10**6, seed=101)
        s = qf.ratio_moment_series(spec, 1, tol=1e-9)
        assert abs(s.value - mc.estimate) < 3.0 * mc.std_error

    def test_scale_invariance(self, rng):
        spec = random_pd_ratio(rng, noncentral=True)
        scaled = qf.RatioSpec(2.5 * spec.a, 2.5 * spec.b, spec.mu, spec.sigma_mat)
        a = qf.ratio_moment_series(spec, 2, tol=1e-10).value
        b = qf.ratio_moment_series(scaled, 2, tol=1e-10).value
        assert abs(a - b) < 1e-10 * max(1.0, abs(a))

    def test_whitening_against_mc(self, rng):
        n = 3
        m = rng.standard_normal((n, n))
        a = (m + m.T) / 2
        m = rng.standard_normal((n, n))
        b = m @ m.T + 0.5 * np.eye(n)
        v = rng.standard_normal((n, n))
        sigma = v @ v.T + 0.4 * np.eye(n)
        spec = qf.RatioSpec(a, b, rng.standard_normal(n), sigma)
        from quadform.reference import mc_ratio_moment
        mc = mc_ratio_moment(spec, 1, n=10**6, seed=55)
        s = qf.ratio_moment_series(spec, 1, tol=1e-9)
        t = qf.ratio_moment_integral(spec, 1)
        assert abs(s.value - mc.estimate) < 4.0 * mc.std_error
        assert abs(s.value - t.value) < 1e-6 * max(1.0, abs(s.value))


# the console-script check's singular.json
SINGULAR_JSON = qf.RatioSpec([[0.4, 0.3, -0.2], [0.3, -0.6, 0.5], [-0.2, 0.5, 0.1]],
                             [[1.0, 0.2, 0.0], [0.2, 0.8, 0.1], [0.0, 0.1, 0.5]],
                             [0.2, -0.1, 0.5], np.diag([1.0, 2.0, 0.0]))


def _seeded_spec(n, seed):
    """A noncentral spec of dimension n with a well-conditioned B, and 41
    thresholds between its 5 % and 95 % generalised eigenvalues."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    f = rng.standard_normal((n, n))
    b = f @ f.T / n + 0.5 * np.eye(n)
    spec = qf.RatioSpec((a + a.T) / 2.0, b, 0.5 * rng.standard_normal(n),
                        np.diag(rng.uniform(0.7, 1.4, n) ** 2))
    lo, hi = np.percentile(linalg.eigvalsh(spec.a, spec.b), [5.0, 95.0])
    return spec, np.linspace(lo, hi, 41)


class TestThresholdRows:
    """cdf_ratio's thresholds are the rows of one Imhof pass: each equals the
    threshold taken alone, and one node evaluation serves several of them."""

    @pytest.mark.parametrize("case", ["singular_json", "n17", "n34"])
    def test_grid_equals_thresholds_alone(self, case, monkeypatch):
        if case == "singular_json":
            spec, grid = SINGULAR_JSON, np.linspace(-1.0, 1.0, 21)
        else:
            spec, grid = _seeded_spec(int(case[1:]), int(case[1:]))
        log_cf, calls = transforms._log_cf, []

        def counting(red, beta):
            calls.append(np.size(beta))
            return log_cf(red, beta)

        monkeypatch.setattr(transforms, "_log_cf", counting)
        got = qf.cdf_ratio(spec, grid)
        batched = sum(size > 1 for size in calls)
        calls.clear()
        assert got == [qf.cdf_ratio(spec, r) for r in grid]
        assert any(res.method == "ratio_imhof" for res in got)
        assert batched < sum(size > 1 for size in calls)
