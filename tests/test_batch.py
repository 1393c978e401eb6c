"""Array evaluation of cdf/pdf, the K'(t) = y solver, the dot-product
coefficient recursion and the partial-fraction rounding bound."""

import json
import math
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

import quadform as qf
from quadform import select, series, transforms
from quadform.cli import main

EPS = np.finfo(float).eps

FORMS = {
    "central_even": qf.ReducedForm([2.0, 1.0, 0.5], [2, 4, 2], [0.0] * 3, 0.0, 0.3),
    "noncentral": qf.ReducedForm([1.5, 0.7, 0.3], [1, 2, 3], [0.5, 0.0, 1.2]),
    "central_mixed": qf.ReducedForm([1.2, 0.4], [3, 2], [0.0, 0.0]),
    "negative": qf.ReducedForm([-1.0, -0.3], [2, 3], [0.4, 0.0], 0.0, 0.5),
    "indefinite": qf.ReducedForm([1.0, -0.6, 0.4], [2, 3, 2], [0.3, 0.0, 0.5], 0.0, -0.2),
    "gaussian": qf.ReducedForm([1.0, -0.6], [3, 3], [0.3, 0.0], 1.0, 0.1),
}


def _points(red):
    """Both far tails (saddlepoint routes), the bulk, and the support edge:
    outside it, on it (the saddlepoint DomainError fallback) and just
    inside it."""
    ks = qf.cumulants(red, 2)
    mean, sd = ks.get(1), math.sqrt(ks.get(2))
    pts = list(np.linspace(mean - 20.0 * sd, mean + 30.0 * sd, 11))
    for edge, inward in zip(transforms.support(red), (1.0, -1.0)):
        if math.isfinite(edge):
            pts += [edge - inward, edge, edge + inward * 1e-9, edge + inward * 0.1 * sd]
    return np.array(pts)


def _crossing_grid(red, n):
    """n points from half an sd beyond the left crossing to half an sd
    beyond the right one."""
    (left, _), (right, _) = select.Plan(red).crossings
    sd = math.sqrt(qf.cumulants(red, 2).get(2))
    return np.linspace(left - 0.5 * sd, right + 0.5 * sd, n)


def _same(batch, single):
    """A grid point's result is the call with that point alone, diagnostics
    included."""
    assert batch == single


class TestGridMatchesPointwise:
    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    @pytest.mark.parametrize("name", list(FORMS))
    def test_auto(self, name, quantity):
        red = FORMS[name]
        fn = select.cdf if quantity == "cdf" else select.pdf
        qs = _points(red)
        batch = fn(red, qs)
        assert len(batch) == qs.size
        for q, res in zip(qs, batch):
            _same(res, fn(red, float(q)))
        assert len({res.method for res in batch}) >= 2

    @pytest.mark.parametrize("name", ["central_even", "negative", "central_mixed"])
    def test_saddlepoint_fallback_at_the_edge(self, name):
        red = FORMS[name]
        lo, hi = transforms.support(red)
        edge = lo if math.isfinite(lo) else hi
        assert select.select_method(red, "cdf", edge) == "spa_lr"
        res = select.cdf(red, np.array([edge, edge]))[0]
        assert res.method != "spa_lr"
        _same(res, select.cdf(red, edge))

    @pytest.mark.parametrize("method", ["ruben", "kotz", "laguerre", "imhof", "davies",
                                        "spa_lr", "central_even"])
    def test_named_methods(self, method):
        red = FORMS["central_even"]
        qs = np.array([0.5, 2.0, 6.0, 11.0])
        for q, res in zip(qs, select.cdf(red, qs, method)):
            _same(res, select.cdf(red, float(q), method))

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_gaussian_grid_across_both_crossings(self, quantity):
        """41 points from beyond the left crossing to beyond the right one:
        the saddlepoint tails and the Imhof bulk as single points give them."""
        red = FORMS["gaussian"]
        fn = select.cdf if quantity == "cdf" else select.pdf
        qs = _crossing_grid(red, 41)
        batch = fn(red, qs)
        for q, res in zip(qs, batch):
            _same(res, fn(red, float(q)))
        methods = [res.method for res in batch]
        assert methods[0] == methods[-1] == ("spa_lr" if quantity == "cdf" else "spa")
        assert "imhof" in methods

    @pytest.mark.parametrize("quantity", ["cdf", "pdf"])
    def test_one_root_solve_per_route(self, quantity, monkeypatch):
        """The K'(t) = y solves of a grid do not grow with its points: one
        per saddlepoint route (and one per Davies lattice-bound side where
        Davies runs)."""
        red = FORMS["gaussian"]
        fn = select.cdf if quantity == "cdf" else select.pdf
        solve = transforms._solve_cgf_prime
        calls = []
        monkeypatch.setattr(transforms, "_solve_cgf_prime",
                            lambda *args: calls.append(args) or solve(*args))
        counts = []
        for n in (41, 401):
            calls.clear()
            fn(red, _crossing_grid(red, n))
            counts.append(len(calls))
        assert counts[0] == counts[1] <= (3 if quantity == "cdf" else 1)

    def test_select_method_array(self):
        red = FORMS["indefinite"]
        qs = _points(red)
        assert select.select_method(red, "cdf", qs) == [
            select.select_method(red, "cdf", float(q)) for q in qs]

    def test_first_failing_point_raises(self):
        red = FORMS["central_mixed"]
        with pytest.raises(qf.NotApplicableError, match="beyond the mean"):
            select.cdf(red, np.array([1.0, 1e3, 2.0]), "kotz")

    def test_scalar_returns_one_result(self):
        red = FORMS["noncentral"]
        assert isinstance(select.cdf(red, 2.0), qf.MethodResult)
        assert isinstance(select.cdf(red, np.array([2.0])), list)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("quantity", ["cdf", "pdf"])
@pytest.mark.parametrize("doc", [
    {"kind": "reduced", "omega": [2.0, 1.0, -0.5], "nu": [2, 4, 2], "delta2": [0, 0, 0]},
    {"kind": "reduced", "omega": [1.0, 0.3], "nu": [3, 2], "delta2": [0.5, 0.0]},
    {"kind": "reduced", "omega": [1.0, -0.6], "nu": [3, 3], "delta2": [0.3, 0.0],
     "sigma": 1.0},
])
def test_cli_grid_equals_single_points(tmp_path, capsys, quantity, doc):
    path = _write(tmp_path, "form.json", doc)
    assert main([quantity, "--grid=-2:14:5", path]) == 0
    grid = json.loads(capsys.readouterr().out)
    for j, q in enumerate(grid["grid"]):
        assert main([quantity, "--q", repr(q), path]) == 0
        one = json.loads(capsys.readouterr().out)
        assert grid["values"][j] == one["value"]
        assert grid["error_bounds"][j] == one["error_bound"]
        assert grid["methods"][j] == one["method"]


def _kprime_mp(red, t, order=1):
    """K'(t) (order 1) or K''(t) (order 2) in mpmath arithmetic."""
    t = mp.mpf(t)
    s2 = mp.mpf(red.sigma_gauss) ** 2
    out = mp.mpf(red.const) + s2 * t if order == 1 else s2
    for w, nu, d2 in zip(red.omega, red.nu, red.delta2):
        w, g = mp.mpf(w), 1 - 2 * mp.mpf(w) * t
        out += (w * (int(nu) / g + mp.mpf(d2) / g**2) if order == 1
                else 2 * w**2 * (int(nu) / g**2 + 2 * mp.mpf(d2) / g**3))
    return out


class TestRootSolver:
    SPREAD = qf.ReducedForm([100.0, 0.01, 1.0], [1, 2, 1], [0.5, 0.0, 1.0], 0.0, 0.2)
    NEGATIVE = qf.ReducedForm([-3.0, -0.01], [2, 1], [0.0, 0.7], 0.0, 1.0)

    @staticmethod
    def _targets(red):
        ks = qf.cumulants(red, 2)
        mean, sd = ks.get(1), math.sqrt(ks.get(2))
        ys = [mean + z * sd for z in (-3.0, -0.5, 0.01, 1.0, 6.0, 40.0)]
        lo, hi = transforms.support(red)
        ys += [lo + 1e-6 * sd] if math.isfinite(lo) else []
        ys += [hi - 1e-6 * sd] if math.isfinite(hi) else []
        return [y for y in ys if lo < y < hi]

    @pytest.mark.parametrize("red", [SPREAD, NEGATIVE, FORMS["indefinite"],
                                     FORMS["gaussian"]])
    def test_matches_mpmath(self, red):
        ys = self._targets(red)
        roots = transforms._cgf_prime_root(red, np.array(ys))
        scale = float(np.sum(np.abs(red.omega) * (red.nu + red.delta2))) + abs(red.const)
        with mp.workdps(30):
            for y, t in zip(ys, roots):
                ref = mp.findroot(lambda s: _kprime_mp(red, s) - y, mp.mpf(t))
                # near a support edge K'(t) - y cancels: the rounding of K'
                # divided by K'' is as close as a double root can get there
                floor = 16 * EPS * (abs(y) + scale) / _kprime_mp(red, ref, 2)
                assert abs(t - ref) <= 1e-12 * abs(ref) + floor, (y, t, ref)
                assert transforms._cgf_prime_root(red, np.array([y]))[0] == t
        # a stacked call: one row of weights, target and MGF strip per row,
        # from this form and from its weights doubled
        twice = qf.ReducedForm(2.0 * red.omega, red.nu, red.delta2, red.sigma_gauss,
                               red.const)
        rows = [(form, y) for form in (red, twice) for y in self._targets(form)]
        doms = [transforms.mgf_domain(form) for form, _ in rows]
        stacked = transforms._solve_cgf_prime(
            np.array([form.omega for form, _ in rows]),
            np.array([form.nu for form, _ in rows]),
            np.array([form.delta2 for form, _ in rows]), np.array([y for _, y in rows]),
            np.array([d.t_left for d in doms]), np.array([d.t_right for d in doms]),
            red.sigma_gauss**2, red.const)
        for (form, y), t in zip(rows, stacked):
            assert transforms._cgf_prime_root(form, np.array([y]))[0] == t

    def test_outside_the_range_of_kprime(self):
        for red, outside in ((self.SPREAD, [0.2, -1.0]), (self.NEGATIVE, [1.0, 5.0])):
            for y in outside:
                assert np.isnan(transforms._cgf_prime_root(red, np.array([y]))[0])
            assert np.isnan(transforms._cgf_prime_root(red, np.array(outside))).all()

    def test_gaussian_term_has_every_root(self):
        red = qf.ReducedForm([-1.0], [2], [0.0], 0.5, 0.0)
        t = transforms._cgf_prime_root(red, np.array([50.0]))[0]
        assert not np.isnan(t) and float(_kprime_mp(red, t)) == pytest.approx(50.0, rel=1e-13)

    def test_chernoff_array_matches_scalar(self):
        red = FORMS["indefinite"]
        ys = np.linspace(-30.0, 40.0, 23)
        for side in ("left", "right"):
            arr = transforms.chernoff_log_tail(red, ys, side)
            assert list(arr) == [transforms.chernoff_log_tail(red, float(y), side)
                                 for y in ys]


def _exp_series_loop(log_coeffs, c0):
    """The Python double loop the dot-product recursion replaced."""
    n = log_coeffs.shape[0]
    c = np.zeros(n + 1)
    c[0] = c0
    for k in range(1, n + 1):
        acc = 0.0
        for r in range(1, k + 1):
            acc += r * log_coeffs[r - 1] * c[k - r]
        c[k] = acc / k
    return c


@pytest.mark.parametrize("k_terms", [64, 512, 4096])
def test_exp_series_matches_loop(k_terms):
    # log of prod (1 - r_j s)^(-m_j): positive coefficients, so the
    # comparison can be relative throughout
    n = np.arange(1, k_terms + 1)
    g = sum(m * r**n / n for r, m in ((0.9, 1.5), (0.5, 2.0), (0.999, 0.5)))
    new = series._exp_series(g, 0.7)
    old = _exp_series_loop(g, 0.7)
    assert np.all(np.abs(new - old) <= 1e-13 * np.abs(old))


def _central_even_form(groups, indefinite=False):
    w = np.exp(-np.log(30.0) * np.arange(groups) / (groups - 1))
    if indefinite:
        w = w * np.where(np.arange(groups) % 3 == 0, -1.0, 1.0)
    return qf.ReducedForm(w, [2] * groups, [0.0] * groups)


def _central_even_exact(red, x):
    """The partial-fraction CDF sum of an all-nu=2 form in 50-digit arithmetic."""
    with mp.workdps(50):
        w = [mp.mpf(v) for v in red.omega]
        total = mp.mpf(0)
        for l, wl in enumerate(w):
            a = 1 / mp.fprod(1 - wj / wl for j, wj in enumerate(w) if j != l)
            z = mp.mpf(x) / wl
            f = (1 - mp.exp(-z / 2) if z > 0 else 0) if wl > 0 else \
                (mp.exp(-z / 2) if z > 0 else 1)
            total += a * f
        return total


class TestCentralEvenBound:
    @pytest.mark.parametrize("groups,indefinite", [(6, False), (6, True), (20, False),
                                                   (50, False)])
    def test_bound_covers_rounding(self, groups, indefinite):
        red = _central_even_form(groups, indefinite)
        ks = qf.cumulants(red, 2)
        qs = ks.get(1) + math.sqrt(ks.get(2)) * np.array([-1.5, -0.5, 0.0, 1.0, 3.0])
        for q, res in zip(qs, series.cdf_central_even(red, qs)):
            exact = _central_even_exact(red, q)
            err = abs(float(mp.mpf(res.diagnostics["raw_value"]) - exact))
            # the value's own relative rounding is not part of the bound
            assert err <= res.error_bound + 4 * groups * EPS * abs(float(exact))
            assert res.provenance == "exact"

    def test_large_bound_reroutes_auto(self):
        red = _central_even_form(50)
        ks = qf.cumulants(red, 2)
        qs = ks.get(1) + math.sqrt(ks.get(2)) * np.array([-1.0, 0.0, 1.0])
        ce = series.cdf_central_even(red, qs)
        assert min(res.error_bound for res in ce) > 1e-8
        for q, res in zip(qs, select.cdf(red, qs)):
            assert res.method == "imhof" and res.error_bound <= 1e-8
            assert res.diagnostics["central_even_bound"] > 1e-8
            assert abs(res.value - float(_central_even_exact(red, q))) <= res.error_bound

    def test_few_groups_stay_exact(self):
        red = _central_even_form(6)
        res = select.cdf(red, 1.0)
        assert res.method == "central_even" and 0.0 < res.error_bound < 1e-12


def test_grid_does_not_import_scipy_stats(tmp_path):
    path = _write(tmp_path, "form.json", {"kind": "reduced", "omega": [1.0, 0.5, -0.3],
                                          "nu": [2, 3, 1], "delta2": [0.2, 0.0, 0.0]})
    ratio_path = _write(tmp_path, "ratio.json", {"kind": "ratio", "a": [[1, 0], [0, 0]],
                                                 "b": [[1, 0], [0, 1]], "mu": [0, 0],
                                                 "sigma_mat": [[1, 0], [0, 1]]})
    code = (
        "import sys, io, contextlib\n"
        "from quadform import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main(['cdf', '--grid=-3:9:5', {path!r}]) == 0\n"
        f"    assert cli.main(['pdf', '--grid=-3:9:5', {path!r}]) == 0\n"
        "    assert cli.main(['ratio-moment', '--p', '1', '--ratio-method', 'integral', "
        f"{ratio_path!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'stats'], ['scipy', 'signal'], ['scipy', 'integrate'])))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
