"""Per-form Chernoff crossings: the crossing solver, the route and the Davies
spread that compare with crossings instead of solving a Chernoff bound per
point, and the quantile search that builds its set-up once.

The per-point route, the rung-stepping Davies spread search and the
quantile search that rebuilds its set-up in every CDF call are kept here as
``_old_*`` oracles.  The route must agree with them exactly; the
closed-form Davies spread moves values within the summed bounds; the
quantile search, which stops once |F(q) - p| is within its inner tol,
lands within tol of p by the old rule or at the old search's point.
"""

import math

import numpy as np
import pytest
from scipy import optimize, special

import quadform as qf
from quadform import inversion, select, series, transforms
from quadform.forms import DaviesParams

from conftest import make_rng, random_reduced

LOG_TAIL = math.log(select.TAIL_THRESHOLD)
FORMS = [
    qf.ReducedForm([2.0, 1.0, 0.5], [2, 4, 2], [0.0] * 3, 0.0, 0.3),
    qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.5, 0.0, 1.2]),
    qf.ReducedForm([1.2, 0.4], [3, 2], [0.0, 0.0]),
    qf.ReducedForm([-1.0, -0.3], [2, 3], [0.4, 0.0], 0.0, 0.5),
    qf.ReducedForm([1.0, -0.6, 0.4], [2, 3, 2], [0.3, 0.0, 0.5], 0.0, -0.2),
    qf.ReducedForm([1.0, -1.0], [1, 1], [0.0, 0.0]),
    qf.ReducedForm([1.0], [1], [0.0]),
    qf.ReducedForm([100.0, 0.01], [1, 1], [0.0, 0.0]),
    # one-sided supports whose crossing lies within rounding of the edge:
    # the level is reached only next to the end of the strip
    qf.ReducedForm([-5.50572302], [1], [1.15697353], 0.0, -3.7332644199144918),
    qf.ReducedForm([0.13232291], [2], [0.0], 0.0, -9.445066229838364),
    qf.ReducedForm([1000.0, -1000.0], [601, 597], [0.0, 0.0]),
]
GAUSSIAN = [
    qf.ReducedForm([1.0, -0.6], [3, 3], [0.3, 0.0], 1.0, 0.1),
    qf.ReducedForm([0.5, -1.7, 0.2], [1, 2, 1], [0.0, 1.0, 0.0], 0.3, -2.0),
    qf.ReducedForm([2.0], [1], [0.5], 4.0),
    qf.ReducedForm([], [], [], 1.5, 0.7),
]


def _conftest_forms(seed, count=12, **kwargs):
    rng = make_rng(seed)
    return [random_reduced(rng, **kwargs) for _ in range(count)]


def _old_select_method(red, quantity="cdf", q=0.0, plan=None, tol=1e-8):
    """The per-point route: both Chernoff log-tails at every point, but a
    density's on a side with a finite support end; a definite form's point
    goes to Ruben where the terms its remainder's chi-square factor needs
    are at most series.K_MAX, and its mean mixture index is at most
    series.INDEX_MAX or below Imhof's start panels."""
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    tail = np.zeros(pts.shape, dtype=bool)
    if red.n_groups > 0:
        for side, end in zip(("left", "right"), transforms.support(red)):
            if quantity == "cdf" or math.isinf(end):
                tail |= transforms.chernoff_log_tail(red, pts, side) < LOG_TAIL
    spa = "spa_lr" if quantity == "cdf" else "spa"
    generic = select._generic_method(red) if not tail.all() else spa
    methods = [spa if t else generic for t in tail]
    if generic == "ruben":
        # Q - const = beta chi2_{n+2J} on the form of positive weights
        sign = np.sign(red.omega[0])
        beta, n = float(np.abs(red.omega).min()), red.total_dof
        mean = sign * (qf.cumulants(red, 1).get(1) - red.const)
        for i, x in enumerate(sign * (pts - red.const)):
            if methods[i] != "ruben":
                continue
            index = (min(x, mean) / beta - n) / 2.0
            m = n + 2.0 * series.K_MAX + 2.0   # the dof of the first term past K_MAX
            certifies = x <= 0.0 or special.chdtr(m, x / beta) <= tol
            start = inversion._imhof_start(select.Plan(red), tol, pts[i] - red.const,
                                           quantity == "pdf")[2]
            if not (certifies and (index <= series.INDEX_MAX or index < start)):
                methods[i] = "imhof"
    return methods[0] if qs.ndim == 0 else methods


def _old_davies_spread(red, x, tol):
    """The rung-stepping spread search of the old auto Davies rule: (spread,
    lattice bound)."""
    chi = red.shifted(0.0)
    k1 = qf.cumulants(chi, 2)
    sd = math.sqrt(max(k1.get(2), 1e-300))
    spread = max(8.0 * sd, abs(x - k1.get(1)) + 4.0 * sd)
    lattice = inversion._davies_lattice_bound(chi, x, spread)
    for _ in range(200):
        if lattice <= tol / 2.0 or spread > 1e12 * sd:
            break
        spread *= 1.5
        lattice = inversion._davies_lattice_bound(chi, x, spread)
    return spread, lattice


def _old_cdf_davies(red, q, u_max, tol=1e-8):
    """cdf_davies with the old rule's spread: the lattice of that spacing
    that reaches the truncation point u_max, as the old rule took it."""
    spread, _ = _old_davies_spread(red, q - red.const, tol)
    delta = 2.0 * math.pi / spread
    k_max = max(min(int(math.ceil(u_max / delta - 0.5)), inversion.DAVIES_POINTS_MAX), 8)
    return inversion.cdf_davies(red, q, DaviesParams(delta, k_max), tol)


def _old_quantile(red, p, tol=1e-8, method="auto"):
    """The quantile search with a fresh route and set-up in every CDF call
    (the caller patches in the old route)."""
    inner_tol = min(tol * 1e-2, 1e-9)
    ks = transforms.cumulants(red, 2)
    center, sd = ks.get(1), math.sqrt(max(ks.get(2), 1e-300))
    lo_s, hi_s = transforms.support(red)
    edge = 1e-9 * max(sd, abs(center), 1.0)

    def f(x):
        if math.isfinite(lo_s) and x <= lo_s + edge:
            return -p
        if math.isfinite(hi_s) and x >= hi_s - edge:
            return 1.0 - p
        try:
            res = select.cdf(red, x, method, inner_tol)
        except qf.ConvergenceFailureError as exc:
            res = exc.result
        return res.value - p

    lo, hi = center - 2.0 * sd, center + 2.0 * sd
    lo = max(lo, lo_s) if math.isfinite(lo_s) else lo
    hi = min(hi, hi_s) if math.isfinite(hi_s) else hi
    step = 2.0 * sd
    f_lo, f_hi = f(lo), f(hi)
    for _ in range(200):
        if f_lo <= 0.0:
            break
        step *= 2.0
        lo = max(lo - step, lo_s) if math.isfinite(lo_s) else lo - step
        f_lo = f(lo)
    for _ in range(200):
        if f_hi >= 0.0:
            break
        step *= 2.0
        hi = min(hi + step, hi_s) if math.isfinite(hi_s) else hi + step
        f_hi = f(hi)
    return float(optimize.brentq(f, lo, hi, xtol=1e-13 * (1.0 + sd), rtol=8.9e-16,
                                 maxiter=200))


def _route_points(red):
    """A sweep over both tails and the bulk, the support edges, and every
    crossing with its neighbours: 1 ulp, the margin and twice the margin."""
    ks = qf.cumulants(red, 2)
    mean, sd = ks.get(1), math.sqrt(ks.get(2))
    pts = list(np.linspace(mean - 40.0 * sd, mean + 40.0 * sd, 81))
    for edge in transforms.support(red):
        if math.isfinite(edge):
            pts += [edge, np.nextafter(edge, -np.inf), np.nextafter(edge, np.inf),
                    edge - 1e-9, edge + 1e-9]
    for x, margin in select.Plan(red).crossings:
        for k in (-2.0, -1.0, -0.5, 0.5, 1.0, 2.0):
            pts.append(x + k * margin)
        pts += [x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]
    return np.array([p for p in pts if math.isfinite(p)])


class TestCrossingSolver:
    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("level", [LOG_TAIL, math.log(5e-10), -2.0])
    def test_log_tail_at_the_level(self, seed, level):
        forms = (_conftest_forms(seed) + _conftest_forms(seed + 10, 4, gaussian=True)
                 + FORMS[:6] + GAUSSIAN[:3])
        for red in forms:
            for side in ("left", "right"):
                x = transforms.chernoff_crossing(red, level, side)
                # chernoff_log_tail computes K(t) - t x: near a one-sided
                # support's edge, t x is large and its rounding counts
                t = transforms._cgf_prime_root(red, np.array([x]))[0]
                err = abs(transforms.chernoff_log_tail(red, x, side) - level)
                assert err <= 1e-12 + 4.0 * np.finfo(float).eps * abs(t * x), (red, side)

    def test_level_at_or_above_zero_is_the_mean(self):
        red = FORMS[1]
        mean = float(np.sum(red.omega * (red.nu + red.delta2))) + red.const
        for side in ("left", "right"):
            assert transforms.chernoff_crossing(red, 0.0, side) == mean
            assert transforms.chernoff_crossing(red, 0.5, side) == mean

    def test_unreachable_level_gives_the_support_edge(self):
        for red in (FORMS[6], FORMS[3], FORMS[8]):
            lo, hi = transforms.support(red)
            side, edge = ("left", lo) if math.isfinite(lo) else ("right", hi)
            # the crossing of -600 lies beyond 1e100 times the strip's scale
            assert transforms.chernoff_crossing(red, -600.0, side) == edge
            assert transforms.chernoff_crossing(red, -math.inf, side) == edge
        assert transforms.chernoff_crossing(FORMS[4], -math.inf, "left") == -math.inf


class TestRouteMatchesPerPointChernoff:
    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_conftest_forms(self, seed):
        forms = (_conftest_forms(seed) + _conftest_forms(seed, 6, definite="positive")
                 + _conftest_forms(seed, 6, definite="negative")
                 + _conftest_forms(seed, 6, gaussian=True))
        for red in forms:
            pts = _route_points(red)
            for quantity in ("cdf", "pdf"):
                assert select.select_method(red, quantity, pts) == _old_select_method(
                    red, quantity, pts)

    @pytest.mark.parametrize("red", FORMS + GAUSSIAN[:3])
    def test_named_forms(self, red):
        pts = _route_points(red)
        assert select.select_method(red, "cdf", pts) == _old_select_method(red, "cdf", pts)
        for q in pts[-9:]:
            assert select.select_method(red, "cdf", float(q)) == _old_select_method(
                red, "cdf", float(q))

    def test_route_makes_no_per_point_chernoff_call(self, monkeypatch):
        red = FORMS[1]
        calls = []
        real = transforms.chernoff_log_tail
        monkeypatch.setattr(transforms, "chernoff_log_tail",
                            lambda *a: calls.append(a) or real(*a))
        plan = select.Plan(red)
        (x_left, _), (x_right, _) = plan.crossings
        pts = np.linspace(x_left - 5.0, x_right + 5.0, 41)
        routes = select.select_method(red, "cdf", pts, plan=plan)
        assert calls == [] and "spa_lr" in routes and "ruben" in routes
        select.select_method(red, "cdf", x_right, plan=plan)
        assert len(calls) == 1 and calls[0][2] == "right"


class TestDaviesSpread:
    """The closed-form spread: values within the summed bounds of the
    rung-stepping rule, and no point that met tol there fails now."""

    @pytest.mark.parametrize("tol", [1e-6, 1e-8, 1e-10])
    def test_matches_rung_stepping(self, tol):
        for red in GAUSSIAN[:3] + _conftest_forms(6, 6, gaussian=True):
            ks = qf.cumulants(red.shifted(0.0), 2)
            mean, sd = ks.get(1), math.sqrt(ks.get(2))
            for x in mean + sd * np.array([-60.0, -12.0, -3.0, -0.4, 0.0, 1.0, 5.0, 25.0]):
                self._check(red, float(x), tol)

    @pytest.mark.parametrize("red", GAUSSIAN[:3])
    def test_rungs_on_the_crossing(self, red):
        """Points whose distance to a crossing of the rung-stepping rule (at
        log(tol/2)) is exactly one of its rungs, and 1 ulp either side."""
        tol = 1e-8
        chi = red.shifted(0.0)
        mean, sd, _, _ = inversion._spread_form(chi, tol)
        left, right = (transforms.chernoff_crossing(chi, math.log(tol / 2.0), side)
                       for side in ("left", "right"))
        for k in range(4):
            rung = 8.0 * sd
            for _ in range(k):
                rung *= 1.5
            for x0 in (right - rung, left + rung):
                if abs(x0 - mean) + 4.0 * sd > 8.0 * sd:
                    continue
                for x in (x0, np.nextafter(x0, -np.inf), np.nextafter(x0, np.inf)):
                    self._check(red, float(x), tol)

    def _check(self, red, x, tol):
        chi = red.shifted(0.0)
        mean, sd, left, right = inversion._spread_form(chi, tol)
        for edge, side in ((left, "left"), (right, "right")):
            assert transforms.chernoff_log_tail(chi, edge, side) == pytest.approx(
                math.log(tol / 4.0), abs=1e-9)
        need = max(x - left, right - x) + transforms.crossing_margin(chi, x, left, right)
        spread = inversion._davies_spread(chi, inversion._spread_form(chi, tol), x)
        assert spread == max(8.0 * sd, abs(x - mean) + 4.0 * sd, min(need, 1e12 * sd))
        q = x + red.const
        try:
            res = qf.cdf_davies(red, q, tol=tol)
        except qf.ConvergenceFailureError as exc:
            res = exc.result
        diag = res.diagnostics
        assert diag["delta"] == 2.0 * math.pi / spread
        assert diag["lattice_bound"] == inversion._davies_lattice_bound(chi, x, spread)
        assert diag["lattice_bound"] <= tol / 4.0
        old = _old_cdf_davies(red, q, diag["u_max"], tol)
        assert abs(old.diagnostics["lattice_bound"] - _old_davies_spread(red, x, tol)[1]) <= (
            1e-9 * old.diagnostics["lattice_bound"])
        assert abs(res.value - old.value) <= res.error_bound + old.error_bound
        assert res.error_bound <= tol or old.error_bound > tol

    def test_vacuous_side_gives_bound_one(self):
        """A fixed lattice whose spread leaves x + spread below the mean was
        reported with an aliasing bound of 0."""
        red = qf.ReducedForm([1.0], [2], [0.0])
        res = qf.cdf_davies(red, 10.0, params=DaviesParams(delta=2.0 * math.pi, k_max=20000))
        assert res.diagnostics["lattice_bound"] == 1.0
        assert abs(res.value - (1.0 - math.exp(-5.0))) <= res.error_bound


QUANTILE_FORMS = (
    FORMS[:8]
    + [qf.ReducedForm(np.linspace(0.2, 3.0, 50), [2] * 50, [0.0] * 50)]
    + GAUSSIAN[:3]
    + _conftest_forms(7, 8)
    + _conftest_forms(8, 2, definite="negative")
)


class TestQuantileSearch:
    @pytest.mark.parametrize("red", QUANTILE_FORMS)
    def test_matches_search_without_shared_setup(self, red, monkeypatch):
        """Against the old search, which ran Brent to xtol with a fresh route
        and set-up per CDF call: a search that stopped on |F(q) - p| <= inner
        tol stops where the old rule's CDF is within tol of p; one that ran to
        xtol found the old search's point.  A shared plan changes nothing."""
        ps, tol, inner_tol = (0.01, 0.5, 0.99), 1e-6, 1e-9
        new = [qf.quantile(red, p, tol) for p in ps]
        plan = select.Plan(red)
        shared = [qf.quantile(red, p, tol, plan=plan) for p in ps]
        assert [(q, q.cdf, q.cdf_calls) for q in shared] == [
            (q, q.cdf, q.cdf_calls) for q in new]
        for q in new:   # q.cdf is the search's own evaluation at q
            try:
                res = select.cdf(red, q, tol=inner_tol)
            except qf.ConvergenceFailureError as exc:
                res = exc.result
            assert res == q.cdf
        sd = math.sqrt(qf.cumulants(red, 2).get(2))
        with monkeypatch.context() as m:
            m.setattr(select, "select_method", _old_select_method)
            for q, p in zip(new, ps):
                if abs(q.cdf.value - p) <= inner_tol:
                    assert abs(select.cdf(red, q, tol=1e-9).value - p) <= tol
                else:
                    old = _old_quantile(red, p, tol)
                    assert abs(q - old) <= 2e-13 * (1.0 + sd) + 1e-14 * abs(old)

    def test_cdf_calls(self, monkeypatch):
        """A median of at most 8 CDF calls per search and at most 20 in every
        search whose CDF calls all succeed.  Where one fails, F-hat can jump
        past p, and Brent bisects down to xtol at the jump.  Only the upper
        tail of [100, 0.01] may see one: past q = 94 Ruben's remainder needs
        more than K_MAX terms, and Imhof may not reach the inner tol within
        its 2^23-panel cap."""
        real, calls, failed = select.cdf, [], []

        def counted(*args, **kwargs):
            calls[-1] += 1
            try:
                return real(*args, **kwargs)
            except qf.ConvergenceFailureError:
                failed[-1] = True
                raise

        monkeypatch.setattr(select, "cdf", counted)
        cases = [(i, p) for i in range(len(QUANTILE_FORMS)) for p in (0.01, 0.5, 0.99)]
        for i, p in cases:
            calls.append(0)
            failed.append(False)
            qf.quantile(QUANTILE_FORMS[i], p, 1e-6)
        assert np.median(calls) <= 8
        assert max(n for n, bad in zip(calls, failed) if not bad) <= 20
        assert {case for case, bad in zip(cases, failed) if bad} <= {(7, 0.99)}

    def test_one_partial_fraction_expansion(self, monkeypatch):
        red = QUANTILE_FORMS[8]
        calls = []
        real = series.partial_fractions
        monkeypatch.setattr(series, "partial_fractions",
                            lambda r: calls.append(r) or real(r))
        q = qf.quantile(red, 0.5)
        assert len(calls) == 1
        assert abs(qf.cdf(red, q).value - 0.5) < 1e-8
