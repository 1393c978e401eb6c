"""The fallback ladder of method="auto", the support rule, and the
saddlepoint's Mills ratio.

The two reroutes that the ladder replaced (the central-even "smaller
bound" block and the saddlepoint DomainError reroute) are kept here as
``_old_*`` oracles, copied from the router they lived in with only their
names and module prefixes changed; the oracle's inversion leaf is Imhof
alone, with no Davies rung below it.  Auto must give the same outcome as
they do at every point inside the support; on or outside it, auto answers
exactly and tags the point "support".  A fallback result that is kept may
carry the bound it replaced as ``central_even_bound``.
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

LADDER_KEYS = {"central_even_bound"}


def _old_select_method(red, quantity="cdf", q=0.0, tail_hint=None, plan=None):
    qs = np.asarray(q, dtype=float)
    pts = np.atleast_1d(qs)
    plan = plan if plan is not None else select.Plan(red)
    tail = np.zeros(pts.shape, dtype=bool)
    if tail_hint != "none" and red.n_groups > 0:
        tail = select._in_tail(plan, pts)
    spa = "spa_lr" if quantity == "cdf" else "spa"
    generic = select._generic_method(red, cls=plan.cls) if not tail.all() else spa
    methods = [spa if t else generic for t in tail]
    return methods[0] if qs.ndim == 0 else methods


def _old_dispatch(red, q, method, tol, quantity, plan):
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
    methods = _old_select_method(red, quantity, pts[todo], plan=plan) if auto and todo.size \
        else [method] * todo.size
    for name in dict.fromkeys(methods):
        idx = todo[[m == name for m in methods]]
        for i, res in zip(idx, _old_evaluate(plan, pts[idx], name, tol, quantity, auto)):
            out[i] = res
    return out


def _old_evaluate(plan, xs, method, tol, quantity, auto):
    red = plan.red
    cumulative = quantity == "cdf"
    if method == "central_even":
        fn = series.cdf_central_even if cumulative else series.pdf_central_even
        out = fn(red, xs, plan.pfe)
        # the terms cancel when there are many distinct weights: past tol,
        # auto also tries the route the point would take without the formula
        # and keeps whichever result reports the smaller bound
        redo = [i for i, res in enumerate(out) if auto and res.error_bound > tol]
        if redo:
            alt = select._generic_method(red, central_even=False, cls=plan.cls)
            for i, res in zip(redo, _old_evaluate(plan, xs[redo], alt, tol, quantity, auto)):
                if (isinstance(res, MethodResult) and res.error_bound is not None
                        and res.error_bound < out[i].error_bound):
                    out[i] = MethodResult(
                        res.value, res.error_bound, res.method, res.provenance,
                        dict(res.diagnostics, central_even_bound=out[i].error_bound))
        return out
    if method in ("ruben", "kotz", "laguerre"):
        fn = series.cdf_series if cumulative else series.pdf_series
        return fn(red, xs, method, tol, plan)
    if method == "imhof":
        fn = inversion.cdf_imhof if cumulative else inversion.pdf_imhof
        return select._each(fn, red, xs, tol=tol, plan=plan)
    if cumulative:
        if method == "davies":
            return select._each(inversion.cdf_davies, red, xs, tol=tol)
        if method in ("spa_lr", "spa_bn"):
            variant = "lugannani_rice" if method == "spa_lr" else "barndorff_nielsen"
            return select._each(_old_cdf_spa, red, xs, variant, tol, auto, plan)
        return select._each(approx.cdf_matched, red, xs, method)
    return select._each(approx.pdf_spa, red, xs)


def _old_cdf_spa(red, q, variant, tol, auto, plan):
    try:
        return approx.cdf_spa(red, q, variant)
    except DomainError:
        if not auto:
            raise
        # extreme points can sit at the support edge where the
        # saddlepoint has no root; evaluate by the route outside the tails
        fallback = _old_select_method(red, "cdf", q, tail_hint="none", plan=plan)
        res = _old_evaluate(plan, np.array([q]), fallback, tol, "cdf", auto)[0]
        if isinstance(res, Exception):
            raise res
        return res


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
    """Auto against the old router at _points(red) and on or outside the
    support edges (where auto must answer exactly)."""
    qs = _points(red)
    lo, hi = transforms.support(red)
    inside = (lo < qs) & (qs < hi)
    fn = select.cdf if quantity == "cdf" else select.pdf
    new = [_outcomes(fn, red, [q], "auto", tol)[0] for q in qs]
    batch = _old_dispatch(red, qs, "auto", tol, quantity, None)
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
            # the partial fractions cancel: the ladder moves these points down
            assert any("central_even_bound" in r.diagnostics for r in new
                       if isinstance(r, MethodResult))

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

    def test_central_even_kept_over_a_failing_imhof(self, monkeypatch):
        """Imhof, the route below the partial fractions of a central even
        indefinite form, fails at every point, with a bound below tol: the
        ladder keeps each partial-fraction result (a result ranks before a
        failure), and there is no rung below Imhof."""
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
        new = _compare_on(_central_even_form(50, True), "cdf")
        assert {r.method for r in new} <= {"central_even", "spa_lr", "support"}
        assert any(r.method == "central_even" and r.error_bound > 1e-8 for r in new)


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
