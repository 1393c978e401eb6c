"""The fallback ladder of method="auto", the support rule, and the
saddlepoint's Mills ratio.

The ladder is one rule: a point whose route is not Imhof and whose
outcome misses (a library error, or a bound that is not at most tol) runs
again on Imhof, and Imhof's outcome replaces it.  The ``_oracle_*``
functions below apply that rule point by point on the engines themselves,
with no batching and no plan sharing across routes.  Auto must give the
same outcome as they do at every point inside the support; on or outside
it, auto answers exactly and tags the point "support".  An Imhof result
that replaced a miss carries the bound it replaced as ``<route>_bound``.
"""

import math

import numpy as np
import pytest
from scipy import special

import quadform as qf
from quadform import approx, inversion, select, series, transforms
from quadform.errors import ConvergenceFailureError, DomainError, QuadFormError
from quadform.forms import MethodResult

from conftest import make_rng, random_reduced

LADDER_KEYS = {"central_even_bound", "ruben_bound", "spa_lr_bound", "spa_bound"}


def _oracle_select_method(red, quantity="cdf", q=0.0, plan=None, tol=1e-8):
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    plan = plan if plan is not None else select.Plan(red)
    tail = np.zeros(pts.shape, dtype=bool)
    if red.n_groups > 0:
        tail = select._in_tail(plan, pts, quantity)
    spa = "spa_lr" if quantity == "cdf" else "spa"
    generic = select._generic_method(red, cls=plan.cls) if not tail.all() else spa
    methods = [spa if t else generic for t in tail]
    if generic == "ruben":
        admitted = select._ruben_admits(plan, pts, tol, quantity)
        methods = ["imhof" if m == "ruben" and not a else m for m, a in zip(methods, admitted)]
    return methods[0] if qs.ndim == 0 else methods


def _oracle_dispatch(red, q, method, tol, quantity, plan):
    plan = plan if plan is not None else select.Plan(red)
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    out = [None] * pts.size
    todo = np.arange(pts.size)
    if quantity == "pdf" and method == "auto":
        lo_s, hi_s = transforms.support(red)
        inside = (lo_s < pts) & (pts < hi_s)
        for i in np.flatnonzero(~inside):
            out[i] = MethodResult(0.0, 0.0, "support", "exact",
                                  {"note": "outside the support"})
        todo = np.flatnonzero(inside)
    auto = method == "auto"
    methods = _oracle_select_method(red, quantity, pts[todo], plan, tol) if auto and todo.size \
        else [method] * todo.size
    for name in dict.fromkeys(methods):
        idx = todo[[m == name for m in methods]]
        for i, res in zip(idx, _oracle_evaluate(plan, pts[idx], name, tol, quantity, auto)):
            out[i] = res
    return out


def _misses(res, tol):
    """A library error, or a bound that is not at most tol (NaN misses);
    a result without a bound does not miss."""
    if isinstance(res, QuadFormError):
        return True
    return res.error_bound is not None and not res.error_bound <= tol


def _oracle_evaluate(plan, xs, method, tol, quantity, auto):
    out = [_oracle_engine(plan, x, method, tol, quantity) for x in xs]
    if not auto or method == "imhof":
        return out
    for i, res in enumerate(out):
        if _misses(res, tol):
            new = _oracle_engine(plan, xs[i], "imhof", tol, quantity)
            if isinstance(new, MethodResult):
                bound = getattr(getattr(res, "result", res), "error_bound", None)
                new = MethodResult(new.value, new.error_bound, new.method, new.provenance, dict(
                    new.diagnostics,
                    **{f"{method}_bound": math.inf if bound is None else bound}))
            out[i] = new
    return out


def _oracle_engine(plan, x, method, tol, quantity):
    """One engine at one point: its result, or the library error it raised."""
    red, x = plan.red, float(x)
    cumulative = quantity == "cdf"
    try:
        if method == "central_even":
            fn = series.cdf_central_even if cumulative else series.pdf_central_even
            return fn(red, x, plan.pfe)
        if method in ("ruben", "kotz", "laguerre"):
            fn = series.cdf_series if cumulative else series.pdf_series
            return fn(red, x, method, tol, plan)
        if method == "imhof":
            fn = inversion.cdf_imhof if cumulative else inversion.pdf_imhof
            return fn(red, x, tol=tol, plan=plan)
        if cumulative:
            if method == "davies":
                return inversion.cdf_davies(red, x, tol=tol)
            if method in ("spa_lr", "spa_bn"):
                variant = "lugannani_rice" if method == "spa_lr" else "barndorff_nielsen"
                return approx.cdf_spa(red, x, variant)
            return approx.cdf_matched(red, x, method)
        return approx.pdf_spa(red, x)
    except QuadFormError as exc:
        return exc


def _outcomes(fn, red, qs, *args):
    """One outcome per point, a library error in the slot of its point."""
    out = []
    for q in qs:
        try:
            out.append(fn(red, float(q), *args))
        except QuadFormError as exc:
            out.append(exc)
    return out


def _assert_same(new, old):
    assert type(new) is type(old)
    if isinstance(old, QuadFormError):
        res_new, res_old = getattr(new, "result", None), getattr(old, "result", None)
        assert (res_new is None) == (res_old is None)
        if res_old is not None:
            assert res_new.error_bound == res_old.error_bound
        return
    assert (new.value, new.error_bound, new.method, new.provenance) == \
        (old.value, old.error_bound, old.method, old.provenance)
    assert set(old.diagnostics) <= set(new.diagnostics)
    assert set(new.diagnostics) - set(old.diagnostics) <= LADDER_KEYS
    for key, val in old.diagnostics.items():
        assert repr(new.diagnostics[key]) == repr(val), key


def _points(red):
    """The far tails, the bulk, and points just inside a finite support edge."""
    ks = qf.cumulants(red, 2)
    mean, sd = ks.get(1), math.sqrt(ks.get(2))
    pts = list(mean + sd * np.array([-40.0, -12.0, -3.0, -1.0, -0.3, 0.0, 0.4, 1.5, 4.0,
                                     15.0, 60.0]))
    for edge, inward in zip(transforms.support(red), (1.0, -1.0)):
        if math.isfinite(edge):
            pts += [edge + inward * 1e-9 * sd, edge + inward * 0.05 * sd]
    return np.array(pts)


def _compare_on(red, quantity, tol=1e-8):
    """Auto against the oracle at _points(red) and on or outside the
    support edges (where auto must answer exactly)."""
    qs = _points(red)
    lo, hi = transforms.support(red)
    inside = (lo < qs) & (qs < hi)
    fn = select.cdf if quantity == "cdf" else select.pdf
    new = [_outcomes(fn, red, [q], "auto", tol)[0] for q in qs]
    batch = _oracle_dispatch(red, qs, "auto", tol, quantity, None)
    for q, n, o, keep in zip(qs, new, batch, inside):
        if keep:
            _assert_same(n, o)
        else:
            assert n.method == "support" and n.error_bound == 0.0, q
    edges = [e for e in (lo, hi) if math.isfinite(e)]
    for edge in edges:
        for q in (edge, edge - 1.0, edge + 1.0):
            if lo < q < hi:
                continue
            res = fn(red, q)
            assert res.method == "support" and res.error_bound == 0.0
            if quantity == "cdf":
                assert res.value == (1.0 if q >= hi else 0.0)
            else:
                assert res.value == 0.0
    return new


def _central_even_form(groups, indefinite=False):
    w = np.exp(-np.log(30.0) * np.arange(groups) / (groups - 1))
    if indefinite:
        w = w * np.where(np.arange(groups) % 3 == 0, -1.0, 1.0)
    return qf.ReducedForm(w, [2] * groups, [0.0] * groups)


class TestLadderOracle:
    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    @pytest.mark.parametrize("groups,indefinite", [(6, False), (6, True), (20, False),
                                                   (20, True), (50, False), (50, True)])
    def test_central_even(self, groups, indefinite, quantity):
        red = _central_even_form(groups, indefinite)
        new = _compare_on(red, quantity)
        if groups == 50 and quantity == "cdf":
            # the partial fractions cancel: the ladder moves these points to Imhof
            moved = [r for r in new if "central_even_bound" in r.diagnostics]
            assert moved and all(r.method == "imhof" and r.error_bound <= 1e-8
                                 and r.diagnostics["central_even_bound"] > 1e-8 for r in moved)
        # no point keeps a bound above tol
        assert all(r.error_bound is None or r.error_bound <= 1e-8 for r in new)

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_gaussian_forms(self, quantity):
        forms = [qf.ReducedForm([1.0, -0.6], [3, 3], [0.3, 0.0], 1.0, 0.1),
                 qf.ReducedForm([2.0], [1], [0.5], 4.0),
                 qf.ReducedForm([], [], [], 1.5, 0.7)]
        rng = make_rng(77)
        forms += [random_reduced(rng, gaussian=True) for _ in range(3)]
        for red in forms:
            _compare_on(red, quantity)

    def test_random_forms(self):
        rng = make_rng(4)
        for definite in ("positive", "negative", "indefinite"):
            for _ in range(3):
                red = random_reduced(rng, definite=definite)
                _compare_on(red, "cdf")

    def test_a_double_miss_raises_imhofs_failure(self, monkeypatch):
        """Imhof, the one fallback, fails at every point: a partial-fraction
        point that misses tol takes Imhof's failure, and one that meets tol
        keeps its result."""
        real = inversion.cdf_imhof

        def failing(red, q, tol, plan=None):
            def fail(res):
                value = getattr(res, "result", res).value
                return ConvergenceFailureError(
                    "imhof", result=MethodResult(value, 1e-12, "imhof", "rigorous", {}))
            if np.ndim(q):   # the route's array: one outcome per point
                return [fail(res) for res in real(red, q, tol=tol, plan=plan)]
            raise fail(real(red, q, tol=tol, plan=plan))

        monkeypatch.setattr(inversion, "cdf_imhof", failing)
        red = _central_even_form(50, True)
        new = _compare_on(red, "cdf")
        failed = [q for q, r in zip(_points(red), new) if isinstance(r, ConvergenceFailureError)]
        assert failed and all(r.result.method == "imhof" for r in new
                              if isinstance(r, ConvergenceFailureError))
        kept = [r for r in new if isinstance(r, MethodResult)]
        assert {r.method for r in kept} <= {"central_even", "spa_lr", "support"}
        assert all(r.error_bound is None or r.error_bound <= 1e-8 for r in kept)
        with pytest.raises(ConvergenceFailureError, match="imhof"):
            qf.cdf(red, float(failed[0]))


def _with_bound(engine, bound):
    """engine, with every result's bound replaced by bound (a miss)."""
    def fn(*args, **kwargs):
        out = engine(*args, **kwargs)
        miss = [MethodResult(r.value, bound, r.method, r.provenance, r.diagnostics)
                for r in (out if isinstance(out, list) else [out])]
        return miss if isinstance(out, list) else miss[0]
    return fn


def _domain_errors(red, q, *args, **kwargs):
    """A saddlepoint engine with no root at any point."""
    errors = [DomainError(f"no root at {x}") for x in np.atleast_1d(q)]
    if np.ndim(q):
        return errors
    raise errors[0]


class TestImhofFallback:
    """Each non-Imhof route's misses run again on Imhof, scalar and array,
    and the Imhof result carries the bound it replaced as <route>_bound."""

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    @pytest.mark.parametrize("route,red,engines", [
        ("ruben", qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.5, 0.0, 1.2]),
         ("cdf_series", "pdf_series")),
        ("central_even", qf.ReducedForm([2.0, 1.0, 0.5], [2, 4, 2], [0.0] * 3),
         ("cdf_central_even", "pdf_central_even")),
    ])
    def test_series_miss_reruns_on_imhof(self, monkeypatch, quantity, route, red, engines):
        engine = engines[quantity == "pdf"]
        monkeypatch.setattr(series, engine, _with_bound(getattr(series, engine), 0.5))
        fn = select.cdf if quantity == "cdf" else select.pdf
        imhof = inversion.cdf_imhof if quantity == "cdf" else inversion.pdf_imhof
        qs = qf.cumulants(red, 1).get(1) * np.array([0.5, 1.0, 1.7])
        assert select.select_method(red, quantity, qs) == [route] * 3
        for q, res in zip(qs, fn(red, qs)):
            assert res == fn(red, float(q))
            want = imhof(red, float(q))
            assert (res.value, res.error_bound, res.method) == \
                (want.value, want.error_bound, "imhof")
            assert res.diagnostics[f"{route}_bound"] == 0.5

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_saddlepoint_domain_error_reruns_on_imhof(self, monkeypatch, quantity):
        red = qf.ReducedForm([1.0, -0.6, 0.4], [2, 3, 2], [0.3, 0.0, 0.5], 0.0, -0.2)
        ks = qf.cumulants(red, 2)
        qs = ks.get(1) + math.sqrt(ks.get(2)) * np.array([-20.0, 25.0])
        route = "spa_lr" if quantity == "cdf" else "spa"
        assert select.select_method(red, quantity, qs) == [route] * 2
        monkeypatch.setattr(approx, "cdf_spa" if quantity == "cdf" else "pdf_spa",
                            _domain_errors)
        fn = select.cdf if quantity == "cdf" else select.pdf
        for q, res in zip(qs, fn(red, qs)):
            assert res == fn(red, float(q))
            assert res.method == "imhof" and res.error_bound <= 1e-8
            assert res.diagnostics[f"{route}_bound"] == math.inf


def _bench_form(scale, spread, nu, delta2=0.0):
    """A definite form of the benchmark's generator: weights evenly spaced
    in log from scale down to scale / spread, with multiplicities nu (a
    string of digits) and a noncentrality of delta2 per degree of
    freedom."""
    nu = [int(c) for c in nu]
    g = len(nu)
    return qf.ReducedForm(scale * np.exp(-math.log(spread) * np.arange(g) / (g - 1)), nu,
                          [delta2 * v for v in nu])


class TestBenchOps:
    """Benchmark forms on which auto exited 0 with a value outside tol while
    the only ladder rung was the central-even one: a Ruben or
    partial-fraction CDF of 0 with a bound of 1 or more below the route
    crossing sent the quantile search to the crossing."""

    @pytest.mark.parametrize("scale,spread,nu,p,want", [
        (2.2831632270903084, 14.677992676220699,
         "22231324422432244442211443344314233133132113433442442114312113414433134314414313"
         "444313222334343331143424431421111231123412123224134414311243123311444341",
         0.99, 392.0706059742251),
        (9.536960233234625, 14.677992676220699,
         "224444244444242444422244242224244442222424422244224242442242422424424424244244242",
         0.5, 849.3978843245271),
        (3.3730183871325057, 31.622776601683793,
         "44444422224224444222442442244444224424422424222244224242224222222442244444244244"
         "4422244422424244442244242444242224422244244442422",
         0.01, 302.9480621875194),
        (1.0888851761723053, 14.677992676220699,
         "11142314223434222113434221322442114243434231421122344123443244344113211222243312"
         "332444131321131331312334431122111322121241431232144234423224211233322213424142334",
         0.99, 184.0093445379904),
        (0.22702490386683713, 14.677992676220699,
         "43244211123441142233334424112122341134223322323143214412144224421331421132231233"
         "411214443423423141121214223412143243411123322324414312433312112112143331143432442",
         0.99, 38.7735774580257)],
        ids=["seed4242-op28", "seed4242-op56", "seed0-op66", "seed77-op28", "seed0-op28"])
    def test_quantile(self, scale, spread, nu, p, want):
        tol = 1e-6
        q = qf.quantile(_bench_form(scale, spread, nu), p, tol=tol)
        assert abs(q.cdf.value - p) <= tol and q.cdf.method == "imhof"
        assert q == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("scale,spread,nu,delta2,hi", [
        (0.20703252386511714, 31.622776601683785, "112133433211312344312412341", 0.0,
         15.864922490347567),
        (0.2797094830597299, 14.677992676220697, "44343232", 0.006434084533821351,
         21.11590274189006),
        (6.158730905020204, 68.12920690579612, "12", 0.0, 343.07825490833176),
        (0.32822839171724655, 68.12920690579612, "33443224433311", 0.06965100820482313,
         25.623370770917163),
        (2.9588608106244885, 68.12920690579612, "231112", 0.01608521133455338,
         184.35102010730319)],
        ids=["seed0-op22", "seed0-op40", "seed0-op52", "seed0-op64", "seed0-op280"])
    def test_density_grid(self, scale, spread, nu, delta2, hi):
        """The 41-point density grids whose Ruben values were heuristic and
        missed Imhof's density, by up to the whole peak: every point off the
        saddlepoint and the support is rigorous and within the two bounds
        of Imhof's."""
        red = _bench_form(scale, spread, nu, delta2)
        pts = np.linspace(0.0, hi, 41)
        res = select.pdf(red, pts)
        series_pts = [i for i, r in enumerate(res) if r.method not in ("spa", "support")]
        assert len(series_pts) >= 29
        imhof = inversion.pdf_imhof(red, pts[series_pts], tol=1e-9)
        for i, ref in zip(series_pts, imhof):
            r = res[i]
            assert r.method == "ruben_pdf" and r.provenance == "rigorous", pts[i]
            assert abs(r.value - ref.value) <= r.error_bound + ref.error_bound, pts[i]

    @pytest.mark.parametrize("red", [
        qf.ReducedForm([0.15689418645347603, 0.04095184928701817, 0.010689076491205422],
                       [1, 1, 1], [0.13872638167626059] * 3),
        qf.ReducedForm([9.313564689908624, 0.6345257757893015], [2, 1],
                       [0.27745276335252117, 0.13872638167626059])],
        ids=["seed0-op2460", "seed0-op1308"])
    def test_light_noncentral_quantile_stays_on_the_series(self, red, monkeypatch):
        """Light noncentral forms whose Ruben bound was the residual mass of
        a series cut on its tiny terms: every CDF call of the search reran
        on Imhof at 2^19-2^20 panels."""
        real, calls = select.cdf, []
        monkeypatch.setattr(select, "cdf", lambda *a, **k: calls.append(real(*a, **k))
                            or calls[-1])
        q = qf.quantile(red, 0.01, tol=1e-6)
        assert abs(q.cdf.value - 0.01) <= 1e-6 and len(calls) == q.cdf_calls
        assert all(r.method == "ruben_cdf" and "ruben_bound" not in r.diagnostics
                   for r in calls)

    def test_wide_spread_quantile(self):
        """100 chi2_1 + 0.01 chi2_1: its mean mixture index is about 5000, so
        Ruben is admitted point by point.  Near 0, where Imhof cannot answer
        (bound 0.17), Ruben needs 64 terms; at the median (index 2274) it
        certifies in 4,222 terms, where Imhof would start on 2^20 panels and
        cannot reach the default tol."""
        red = qf.ReducedForm([100.0, 0.01], [1, 1], [0.0, 0.0])
        for p in (0.01, 0.5, 0.99):
            q = qf.quantile(red, p, tol=1e-6)
            assert abs(q.cdf.value - p) <= 1e-6 and q.cdf.error_bound <= 1e-6
        for p in (0.01, 0.5):
            q = qf.quantile(red, p)
            assert abs(q.cdf.value - p) <= 1e-8 and q.cdf.error_bound <= 1e-8
            assert q.cdf.method == "ruben_cdf"

    def test_uncertifiable_point_goes_straight_to_imhof(self):
        """1 chi2_1 + 0.001 chi2_1: its mean mixture index is about 500, but
        at x = 11 the chi-square factor of Ruben's bound stays near 1 past
        K_MAX and the leftover mass is still 1.6e-3 there: Imhof answers
        without a Ruben attempt.  At x = 3 Ruben certifies."""
        red = qf.ReducedForm([1.0, 1e-3], [1, 1], [0.0, 0.0])
        for fn in (select.cdf, select.pdf):
            far, near = fn(red, 11.0), fn(red, 3.0)
            assert far.method == "imhof" and "ruben_bound" not in far.diagnostics
            assert near.method.startswith("ruben") and near.error_bound <= 1e-8

    def test_cdf_grid(self):
        """The 41-point CDF grid of a 132-group central even form (grid
        seed 0 op 66)."""
        red = _bench_form(
            0.5653015662137392, 31.622776601683793,
            "22424242224422244442242442222244242424224244422442424242224244424424442222442222"
            "4424442222444422244224444224244422424222444444224422")
        res = select.cdf(red, np.linspace(0.0, 118.75819559822833, 41))
        assert "central_even" not in {r.method for r in res}
        assert all(r.error_bound is None or r.error_bound <= 1e-8 for r in res)


class TestSupportRule:
    FORMS = [qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.5, 0.0, 1.2], 0.0, 0.2),
             qf.ReducedForm([-1.0, -0.3], [2, 3], [0.4, 0.0], 0.0, 0.5),
             qf.ReducedForm([2.0, 1.0, 0.5], [2, 4, 2], [0.0] * 3),
             qf.ReducedForm([-2.0, -1.0, -0.5], [2, 4, 2], [0.0] * 3, 0.0, -1.0)]

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_edge_ulp_and_beyond(self, quantity):
        fn = select.cdf if quantity == "cdf" else select.pdf
        for red in self.FORMS:
            lo, hi = transforms.support(red)
            upper = math.isfinite(hi)
            edge = hi if upper else lo
            out = math.inf if upper else -math.inf
            qs = np.array([edge, np.nextafter(edge, out), edge + (1.0 if upper else -1.0),
                           edge + (1e300 if upper else -1e300)])
            for res in [fn(red, float(q)) for q in qs] + fn(red, qs):
                assert res.method == "support" and res.error_bound == 0.0
                assert res.provenance == "exact"
                expect = (1.0 if upper else 0.0) if quantity == "cdf" else 0.0
                assert res.value == expect

    @pytest.mark.parametrize("red,limit", [
        (qf.ReducedForm([1.0], [2], [0.0]), 0.5),
        (qf.ReducedForm([1.0], [1], [0.0]), math.inf),
        (qf.ReducedForm([1.0, 0.5], [1, 1], [0.5, 0.0]), math.exp(-0.25) / (2 * math.sqrt(0.5))),
        (qf.ReducedForm([2.0], [2], [0.6], 0.0, 1.5), math.exp(-0.3) / 4.0),
        (qf.ReducedForm([-1.0, -0.5], [1, 1], [0.5, 0.0], 0.0, 0.3),
         math.exp(-0.25) / (2 * math.sqrt(0.5))),
        (qf.ReducedForm([-1.0], [1], [0.2], 0.0, -2.0), math.inf),
        (qf.ReducedForm([2.0], [3], [0.0]), 0.0),
        (qf.ReducedForm([-1.5, -0.7], [1, 1], [0.0, 0.0]), 1.0 / (2 * math.sqrt(1.05))),
    ])
    def test_density_at_a_finite_edge_is_the_limit_from_inside(self, red, limit):
        lo, hi = transforms.support(red)
        edge = lo if math.isfinite(lo) else hi
        for res in (select.pdf(red, edge), select.pdf(red, np.array([edge]))[0]):
            assert res.value == pytest.approx(limit, rel=1e-15)
            assert (res.method, res.provenance, res.error_bound) == ("support", "exact", 0.0)
        # the engines named explicitly answer the edge alike
        for method in ("ruben", "kotz", "laguerre", "imhof"):
            res = select.pdf(red, edge, method)
            assert res.value == pytest.approx(limit, rel=1e-15), method
            assert (res.provenance, res.error_bound) == ("exact", 0.0)
        for q in (-math.inf, math.inf):
            assert select.pdf(red, q).value == 0.0
        inside = edge + (1e-9 if math.isfinite(lo) else -1e-9)
        near = select.pdf(red, inside, "ruben").value
        if math.isinf(limit):
            assert near > 1e3
        else:
            assert near == pytest.approx(limit, rel=1e-6, abs=1e-5)

    @pytest.mark.parametrize("red,q,want", [
        (qf.ReducedForm([2.0], [3], [0.0]), 1e-6, 1.41047e-4),
        (qf.ReducedForm([1.0], [2], [0.0]), 1e-12, 0.5),
        (qf.ReducedForm([1.0, 0.5], [1, 1], [0.0, 0.0]), 1e-12, 0.70711),
        (qf.ReducedForm([-1.0, -0.5], [1, 1], [0.0, 0.0]), -1e-12, 0.70711)])
    def test_density_near_a_finite_edge_is_not_the_saddlepoint(self, red, q, want):
        # beyond the crossing on a bounded side the saddlepoint density was
        # off (1.48995e-4 for the first form, 0.5422 and 0.7668 for the next)
        res = select.pdf(red, q)
        assert res.method in ("ruben_pdf", "central_even") and res.error_bound <= 1e-8
        assert res.value == pytest.approx(want, rel=1e-5)

    def test_point_mass(self):
        red = qf.ReducedForm([], [], [], 0.0, 0.7)
        assert [r.value for r in select.cdf(red, np.array([0.0, 0.7, 2.0]))] == [0.0, 1.0, 1.0]
        assert {r.method for r in select.cdf(red, np.array([0.0, 0.7, 2.0]))} == {"support"}

    def test_negative_central_even_upper_edge(self):
        red = self.FORMS[3]
        assert select._generic_method(red) == "central_even"
        res = select.cdf(red, transforms.support(red)[1])
        assert res.value == 1.0 and res.method == "support"

    def test_saddlepoint_has_a_root_inside_the_support(self):
        rng = make_rng(8215)
        forms = [random_reduced(rng, definite=d) for d in ("positive", "negative", "indefinite")
                 for _ in range(4)]
        # edges at 0 take offsets down to 1e-300; the others a few ulps
        forms += [qf.ReducedForm([1.0], [1], [0.0]), qf.ReducedForm([-0.3], [2], [0.0])]
        rel = 10.0 ** -np.array([300, 200, 100, 50, 20, 12, 8, 4, 2, 1], dtype=float)
        far = 10.0 ** np.arange(0, 16, 3, dtype=float)
        for red in forms:
            ks = qf.cumulants(red, 2)
            mean, sd = ks.get(1), math.sqrt(ks.get(2))
            pts = list(mean + sd * np.concatenate((far, -far)))
            for edge, inward in zip(transforms.support(red), (1.0, -1.0)):
                if not math.isfinite(edge):
                    continue
                scale = max(abs(edge), sd)
                pts += [edge + inward * r * scale for r in rel]
                step = edge
                for _ in range(4):
                    step = np.nextafter(step, inward * math.inf)
                    pts.append(step)
            lo, hi = transforms.support(red)
            for q in pts:
                if lo < q < hi:
                    approx.cdf_spa(red, float(q))


class TestMillsRatio:
    def test_chi2_1_far_upper_tail(self):
        red = qf.ReducedForm([1.0], [1], [0.0])
        for q in 10.0 ** np.array([3, 5, 8, 12, 22, 50, 100, 200, 300], dtype=float):
            res = approx.cdf_spa(red, float(q))
            exact = math.log(2.0) + float(special.log_ndtr(-math.sqrt(q)))
            # the saddlepoint's relative error on chi2_1 tends to a constant
            assert abs(res.diagnostics["log_ccdf"] - exact) <= 0.2 + 4e-15 * abs(exact), q
            assert res.value == 1.0
