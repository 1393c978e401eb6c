"""Numerical characteristic-function inversion for CDF/PDF evaluation.

Two engines built on the one-sided real inversion formula
F(q) = 1/2 - (1/pi) int_0^inf Im{phi(u) e^{-iuq}} / u du:

* Imhof: modulus-phase integrand sin(theta(u)) / (u rho(u)) on a
  trapezoid grid over [0, U], with Richardson panel doubling to control
  quadrature error.  One rule (``_tail``) gives the tail bound past U
  and the correction the value takes with it; a Gaussian term only adds
  its envelope e^(-sigma^2 u^2/8) to the modulus.  U lies on the ladder
  2^j (j < 0 allowed): the CDF and the density take the first rung whose
  tail bound meets tol/2, by one scalar search per point, and each row
  reports that bound.  A rung holds what its points share: the x-free
  part of the tail (``_Head``, phi(U) read once) and the modulus and
  phase at its nested trapezoid nodes, each node evaluated once.
  The points of a call are the rows of one pass: each sweep steps every
  row once (its start grid, then the midpoints of one halving) as
  (rows x nodes) blocks, where a row adds its phase shift -u x/2 and one
  sin (CDF) or cos (density) per node and sums along its own nodes only;
  a row leaves the pass at its own Richardson stop.  A point's grid
  starts at 2 panels per period of the phase-rate bound (the Nyquist
  rate).  Rows of several forms (the thresholds of a ratio CDF) carry
  their own weights into one node evaluation per sweep.  A point whose
  integrand does not oscillate over [0, U] and whose start is at least
  the finest grid a rung keeps (a light form at x near 0, where U is
  large) runs on the trapezoid in log u instead (``_integrate_log``).  A
  row stops at IMHOF_PANELS_MAX panels or steps.
* Davies: the midpoint lattice u_k = (k + 1/2) Delta, run when named
  (method="davies"), is one midpoint step of Imhof's node pass, and its
  truncation bound is Imhof's T_U.  Its own are the lattice aliasing
  bound, through Chernoff bounds on the distribution's tails, and the
  spacing: the spread 2 pi / Delta reaches from x past the two points
  where the centred form's Chernoff log-tails equal log(tol/4).

Both answer +-inf and the points on or outside the support exactly
(``transforms.exact_point``), and a form without groups (a normal) in
closed form (``_closed_form``); only the other points are integrated.

What does not depend on the point (Imhof's tail constants and rungs) is
built on first use and kept by the form's ``select.Plan``, so the points of
a grid and the CDF calls of ``quantile`` build it once.  A call without a
plan builds one of its own.  Davies builds its spread crossings and its
truncation ladder once per ``cdf_davies`` call.

The node pass reads the modulus and phase of phi from one kernel,
``transforms._log_cf`` (Imhof's u is twice its frequency), and the bounds
add the rounding error of the node sum.  The additive constant is handled
by shifting the evaluation point.

``quantile`` inverts the CDF with ``_brentq``, an in-module step-for-step
port of scipy's ``brentq``: the same root from the same CDF calls, without
the start-up cost of importing ``scipy.optimize``.
"""

from __future__ import annotations

import contextlib
import functools
import math
from typing import NamedTuple

import numpy as np
from scipy import special

from . import transforms
from .errors import ConvergenceFailureError, InvalidInputError, one_or_all
from .forms import DaviesParams, ImhofParams, MethodResult, ReducedForm

IMHOF_PANELS_MAX = 2**23
IMHOF_PANELS_START = 64
DAVIES_POINTS_MAX = 2**25
_LOG_TINY = -745.0
_EPS = np.finfo(float).eps


def _closed_form(red: ReducedForm, q: float, method: str, density: bool = False
                 ) -> MethodResult | None:
    """The exact answer at a point q inside the support that needs no
    integral, else None: the normal Phi((q - const)/sigma), or its density,
    of a form without groups, and the density's pole at x = 0 of two one-dof
    groups of opposite signs without a Gaussian term (``pdf_imhof``)."""
    x, sig = q - red.const, red.sigma_gauss
    if not red.n_groups:
        v = (math.exp(-0.5 * (x / sig) ** 2) / (math.sqrt(2.0 * math.pi) * sig) if density
             else float(special.ndtr(x / sig)))
        return MethodResult(v, 0.0, method, "exact", {"raw_value": v})
    if (density and x == 0.0 and red.nu.tolist() == [1, 1] and not sig
            and red.omega[0] * red.omega[1] < 0.0):
        return MethodResult(math.inf, 0.0, method, "exact", {"note": "pole of the density"})
    return None


def _own_plan(red: ReducedForm, plan):
    """plan, or a ``select.Plan`` of red for this call only."""
    from . import select  # runtime import; select dispatches here

    return plan if plan is not None else select.Plan(red)


def _rounding_bound(mass: float, n: int) -> float:
    """Floating-point error of 1/2 - S (or of S) where S sums n terms whose
    magnitudes add up to ``mass``: half an ulp of the result plus a
    summation error growing with log2(n)."""
    return _EPS * (0.5 + (math.log2(n) + 4.0) * mass)


def imhof_integrand(red: ReducedForm, u, q: float):
    """Phase theta(u) and modulus rho(u) of the inversion integrand.

    q is the evaluation point in the shifted coordinate (constant already
    subtracted).  The integrand itself is sin(theta)/(u rho); its u -> 0
    limit is (sum w (nu + d2) - q) / 2.  A Gaussian term enters rho only,
    as e^(sigma^2 u^2/8).  rho is inf where it overflows (the integrand is
    then 0).
    """
    u = np.asarray(u, dtype=float)
    log_mod, phase = transforms._log_cf(red, 0.5 * u)
    with np.errstate(over="ignore"):
        return phase - 0.5 * u * q, np.exp(-log_mod)


class _Groups(NamedTuple):
    """The groups of several forms side by side, for one ``transforms._log_cf``
    call: (groups, rows, 1) arrays, one column of groups per row."""

    omega: np.ndarray
    nu: np.ndarray
    delta2: np.ndarray
    sigma_gauss: float | np.ndarray = 0.0   # 0.0, or a (rows, 1) column when a row has one


# a pass's temporary arrays are bounded by the most integrand terms (rows x
# nodes) of one block and the most group terms (groups x rows x nodes) of one
# _log_cf call, which holds about eight temporaries of that size
_BLOCK = 2**17
_NODE_BLOCK = 2**16


def _evaluate_nodes(pieces: list) -> list:
    """The rows u, |phi(u/2)| and arg phi(u/2) (constant removed) of Imhof's
    integrand at the nodes u of each (form, u) piece.

    Pieces of one form run side by side, as one row of nodes.  Pieces of
    several forms run as the rows of one (rows x nodes) array per piece
    length, each row with its form's weights and sigma, padded with inert
    groups (nu = 0, delta2 = 0, omega = 1) after its own up to the most
    groups: the group sums run in group order, so the trailing zero terms
    leave every node's values as its form alone gives them.
    """
    forms = {id(red): red for red, _ in pieces}
    if len(forms) == 1:
        red = pieces[0][0]
        u = pieces[0][1] if len(pieces) == 1 else np.concatenate([u for _, u in pieces])
        nodes = _node_rows(red, u, red.n_groups)
        if len(pieces) == 1:
            return [nodes]
        ends = np.cumsum([0] + [u.size for _, u in pieces]).tolist()
        return [nodes[:, a:b] for a, b in zip(ends, ends[1:])]
    groups = max(red.n_groups for red in forms.values())
    by_size: dict = {}
    for i, (_, u) in enumerate(pieces):
        by_size.setdefault(u.size, []).append(i)
    out = [None] * len(pieces)
    for idx in by_size.values():
        weights = np.zeros((3, groups, len(idx), 1))
        weights[0] = 1.0
        for row, i in enumerate(idx):
            red = pieces[i][0]
            weights[:, :red.n_groups, row, 0] = red.omega, red.nu, red.delta2
        sigma = np.array([[pieces[i][0].sigma_gauss] for i in idx])
        nodes = _node_rows(_Groups(*weights, sigma if sigma.any() else 0.0),
                           np.stack([pieces[i][1] for i in idx]), groups)
        for row, i in enumerate(idx):
            out[i] = nodes[:, row]
    return out


def _node_rows(form, u: np.ndarray, groups: int) -> np.ndarray:
    """(3,) + u.shape: u, |phi(u/2)| and arg phi(u/2) at the frequencies u
    of a form (one row of nodes) or of ``_Groups`` rows (a rows x nodes
    array), from ``_log_cf`` calls of at most _NODE_BLOCK group terms:
    blocks of whole rows, or near-equal sections (of two nodes or more) of
    a longer row."""
    n = u.shape[-1]
    out = np.empty((3,) + u.shape)
    out[0] = u
    cap = max(_NODE_BLOCK // groups, 4)
    per = max(cap // n, 1)
    sections = -(-n // cap)
    bounds = [n * k // sections for k in range(sections + 1)] if sections > 1 else (0, n)
    for r in range(0, u.size // n, per):
        part = form if u.ndim == 1 else _Groups(
            *(v[:, r:r + per] for v in form[:3]),
            form.sigma_gauss[r:r + per] if np.ndim(form.sigma_gauss) else 0.0)
        for a, b in zip(bounds, bounds[1:]):
            block = out[..., a:b] if u.ndim == 1 else out[:, r:r + per, a:b]
            log_mod, phase = transforms._log_cf(part, 0.5 * block[0])
            np.exp(log_mod, out=block[1])
            block[2] = phase
    return out


def _positions(u_max: float, panels: int, idx: np.ndarray) -> np.ndarray:
    """The nodes idx (ascending) of the trapezoid grid of ``panels`` panels
    on [0, U], as ``np.linspace(0, U, panels + 1)[idx]`` gives them: nested
    grids share their common nodes bit for bit."""
    u = idx * (u_max / panels)
    if idx.size and idx[-1] == panels:
        u[-1] = u_max
    return u


def _integrand(nodes: np.ndarray, half_x: np.ndarray, density: bool,
               half_mean=None) -> np.ndarray:
    """Imhof's integrand on a (rows x nodes) block: the density's
    cos(theta)/rho or the CDF's sin(theta)/(u rho), from the
    ``_evaluate_nodes`` rows of each row's nodes on axis 1 of ``nodes`` (one
    shared set broadcasts) and the column of the rows' x/2.  With the rows'
    half_mean, the CDF's first node is u = 0, where its limit
    (sum w (nu + d2) - x) / 2 is spliced in."""
    u, mod, phase = nodes[:, 0], nodes[:, 1], nodes[:, 2]
    out = phase - u * half_x
    (np.cos if density else np.sin)(out, out=out)
    out *= mod
    if density:
        return out
    if half_mean is None:
        out /= u
    else:
        out[:, 1:] /= u[:, 1:]
        out[:, 0] = half_mean - half_x[:, 0]
    return out


class _Form(NamedTuple):
    """The U- and x-free constants of Imhof's tail bounds (see ``_tail``) and
    of its integrand."""

    k: float
    c1: float | None
    c2: float
    log_w: float        # (1/2) sum nu log|w|
    half_mean: float    # (1/2) sum w (nu + d2), the CDF integrand's u -> 0 limit at x = 0
    half_rate: float    # (1/2) sum (nu + d2)|w|, the phase rate bound at x = 0


def _tail_form(red: ReducedForm) -> _Form:
    """The ``_Form`` of red."""
    w, nu, d2 = red.omega, red.nu, red.delta2
    c1 = (None if int(nu[w > 0].sum() - nu[w < 0].sum()) % 4
          else 0.5 * float(np.sum((nu + d2) / np.abs(w))))
    return _Form(0.5 * float(nu.sum()), c1, 0.5 * float(np.sum(nu + 3.0 * d2)),
                 0.5 * float(np.sum(nu * np.log(np.abs(w)))),
                 0.5 * float(np.sum(w * (nu + d2))),
                 0.5 * float(np.sum(nu * np.abs(w) + d2 * np.abs(w))))


# the finest trapezoid grid a rung keeps (3 MB): its last halving added 2^16
# nodes; finer grids are evaluated per block, so a call's peak memory does
# not grow with its panel count
_KEEP_PANELS = 2**17


class _Head(NamedTuple):
    """The x-free part of Imhof's tail at a rung's U (see ``_tail``)."""

    phase: float        # arg phi(U/2): theta(U) is phase - U x/2
    rho: float          # rho(U); inf when it overflows, and the tail is then 0
    m1: float           # (1/2) sum (nu + d2)|w|/(1 + w^2 U^2) >= |chi part of theta'|
    slope: float        # theta'(U) + x/2
    plain: float        # T_U, the CDF's closed-form tail bound
    pdf_plain: float    # the density's bound from |integrand| <= 1/rho
    balanced: float     # the c1 part of the CDF's balanced-phase bound (inf without c1)


class _Rung:
    """Imhof's integrand truncated at U, for every point of one form:

    * head: the ``_Head`` at U, from one ``_log_cf`` call.
    * The nested trapezoid grids on [0, U], whose panel counts differ by
      powers of 2: the ``_evaluate_nodes`` rows of the finest grid a pass has
      asked for, up to _KEEP_PANELS panels.  A pass grows it (``_grow``)
      before it reads it, so every node is evaluated once; a coarser grid,
      and the midpoints a halving adds, are strided views of it.
    """

    def __init__(self, red: ReducedForm, u_max: float, form: _Form):
        self.red, self.u, self.form = red, u_max, form
        self._panels, self._grid = 0, None

    @functools.cached_property
    def head(self) -> _Head:
        """The ``_Head`` at U; floor is the lower bound on log rho - k log u
        over u >= U (see ``_tail``)."""
        k, c1, _, log_w, *_ = self.form
        w, nu, d2, u = self.red.omega, self.red.nu, self.red.delta2, self.u
        sig = self.red.sigma_gauss
        log_mod, phase = transforms._log_cf(self.red, 0.5 * u)
        with np.errstate(over="ignore", invalid="ignore"):   # d2 = 0 terms are 0, not 0 inf
            log_floor = (log_w + 0.5 * float(np.sum(np.where(
                d2 > 0.0, d2 * w**2 * u**2 / (1.0 + w**2 * u**2), 0.0))) + (sig * u) ** 2 / 8.0)
            g = 1.0 + (w * u) ** 2
            m1 = 0.5 * float(np.sum((nu + d2) * np.abs(w) / g))
            slope = 0.5 * float(np.sum(nu * w / g + np.where(
                d2 > 0.0, d2 * w * (1.0 - (w * u) ** 2) / g**2, 0.0)))
            rho = float(np.exp(-log_mod))
        plain = math.exp(min(-math.log(math.pi * k) - k * math.log(u) - log_floor, 700.0))
        balanced = math.inf
        if c1 is not None:
            # int_U^inf u^{-2} / rho du <= U^{-(k+1)} / ((k+1) e^{floor}), which
            # overflows (no bound) only at a small U with a large k
            with contextlib.suppress(OverflowError):
                balanced = c1 * (math.exp(min(-log_floor, 700.0)) * u ** -(k + 1.0) / (k + 1.0))
        pdf_plain = math.inf if k <= 1.0 else math.exp(min(
            -math.log(2.0 * math.pi * (k - 1.0)) + (1.0 - k) * math.log(u) - log_floor, 700.0))
        if sig > 0.0:
            pdf_plain = min(pdf_plain, math.exp(min(
                math.log(2.0 / math.pi) - 2.0 * math.log(sig) - (k + 1.0) * math.log(u)
                - log_floor, 700.0)))
        return _Head(float(phase), rho, m1, slope, plain, pdf_plain, balanced)

    def view(self, fine: int, first: bool, a: int, b: int) -> np.ndarray:
        """Nodes a..b-1 of the kept grid of ``fine`` panels (first), or of
        its odd nodes: the midpoints that halving the grid of fine/2 adds;
        a (1, 3, b - a) view."""
        st = self._panels // fine
        if first:
            return self._grid[None, :, st * a:st * (b - 1) + 1:st]
        return self._grid[None, :, st * (2 * a + 1):st * (2 * b - 1) + 1:2 * st]


def _grow(wanted: dict) -> None:
    """Grow the kept grid of each (rung, panels) value of ``wanted`` to that
    many panels (at most _KEEP_PANELS), evaluating the missing nodes of all
    of them in one ``_evaluate_nodes`` pass.  With r = panels over the kept
    panel count, the new grid's nodes k r are the kept ones and the r - 1
    after each of them are new."""
    grow = []
    for rung, panels in wanted.values():
        r = panels // rung._panels if rung._grid is not None else 1
        idx = np.arange(panels + 1) if r == 1 else np.arange(panels).reshape(-1, r)[:, 1:].ravel()
        grow.append((rung, panels, r, idx))
    pieces = [(rung.red, _positions(rung.u, panels, idx)) for rung, panels, _, idx in grow]
    for (rung, panels, r, _), nodes in zip(grow, _evaluate_nodes(pieces)):
        if r > 1:
            grid = np.empty((3, panels + 1))
            grid[:, ::r] = rung._grid
            for j in range(1, r):
                grid[:, j::r] = nodes[:, j - 1::r - 1]
            nodes = grid
        rung._grid, rung._panels = nodes, panels


def _tail(rung: _Rung, x: float, density: bool) -> tuple:
    """(bound, correction): a bound on the tail of Imhof's integral past the
    rung's U at the shifted point x, and the boundary term the value takes
    with it.  The rung search and every row use this one rule.

    With k = sum(nu)/2, c2 = (1/2) sum (nu + 3 d2), floor a lower bound on
    log rho - k log u over u >= U, s = max(|x|/2 - m1, 0) <= |theta'| over
    [U, inf) (m1 decreases), and c1 = (1/2) sum (nu + d2)/|w| when the
    positive and negative dof counts differ by a multiple of 4 (the
    limiting phase is then a multiple of pi):
    * A Gaussian term multiplies |phi(u/2)| by e^(-sigma^2 u^2/8) and leaves
      theta alone, so floor gains (sigma U)^2/8: still a lower bound on
      log rho - k log u over u >= U, as that part increases with u.  Every
      bound below then carries the Gaussian envelope; rho stays increasing.
    * T_U = U^-k e^-floor / (pi k); the density's |integrand| <= 1/rho is
      integrable for k > 1, giving the plain bound U^(1-k) e^-floor /
      (2 pi (k - 1)), and with sigma > 0 for every k: int_U^inf
      e^(-sigma^2 u^2/8) du <= 4 e^(-sigma^2 U^2/8) / (sigma^2 U) gives
      U^-(k+1) e^-floor 2 / (pi sigma^2).
    * With g = 1/(rho theta'), the tail int_U^inf e^{i theta}/rho is the
      boundary term e^{i theta(U)} / (theta'(U) rho(U)) plus int g' e^{i theta},
      and int |theta''| du <= c2/U (termwise, as 2w^2 u <= |w|(1 + w^2 u^2)):
      hence, where s > 0, the majorant ibp = [2 + c2/(U s)] / (rho(U) s).
      The density's residual estimate (c2 + 2k + (sigma U)^2/4) /
      (2 pi rho s^2 U) sizes the next order; the Gaussian adds sigma^2 U/4
      to rho'/rho at U, hence its term.
    * Balanced phase: |sin of the chi part| <= c1/u, and the pure
      x-oscillation is integrated by parts with its exact linear phase, so
      no slope floor is needed (x near 0, light dofs).

    The CDF tail is the boundary term's real part over pi U, the density's
    minus its imaginary part over 2 pi.  The CDF's bound is min(T_U,
    ibp/(pi U), balanced) (its integrand carries an extra 1/u <= 1/U), with
    the correction -Re(boundary)/(pi U) where the ibp term is the minimum.
    The density's is min(ibp/(2 pi), residual), with the correction
    -Im(boundary)/(2 pi), where ibp/(2 pi) is below the plain bound, and
    that plain bound, with none, elsewhere.
    """
    k, c1, c2, *_ = rung.form
    u, head = rung.u, rung.head
    s = max(abs(x) / 2.0 - head.m1, 0.0)
    finite = math.isfinite(head.rho)
    ibp, boundary = math.inf, 0j
    if s > 0.0:
        with np.errstate(over="ignore"):
            boundary = complex(np.exp(1j * (head.phase - 0.5 * u * x))
                               / ((head.slope - 0.5 * x) * head.rho))
        ibp = (2.0 + c2 / (u * s)) / (head.rho * s) if finite else 0.0
    if density:
        ibp /= 2.0 * math.pi
        if not ibp < head.pdf_plain:
            return head.pdf_plain, 0.0
        residual = 0.0
        if finite:
            try:
                s_sq = s**2
            except OverflowError:   # a float's ** raises where the square overflows
                s_sq = math.inf
            residual = ((c2 + 2.0 * k + (rung.red.sigma_gauss * u) ** 2 / 4.0)
                        / (2.0 * math.pi * head.rho * s_sq * u))
        return min(ibp, residual), -boundary.imag / (2.0 * math.pi)
    ibp /= math.pi * u
    balanced = head.balanced
    if c1 is not None:
        if x != 0.0 and finite:
            balanced += (2.0 / abs(x)) * (2.0 / (u * head.rho) + head.m1 * math.pi * head.plain)
        balanced /= math.pi
    if ibp <= min(head.plain, balanced):
        return ibp, -boundary.real / (math.pi * u)
    return min(head.plain, balanced), 0.0


def _imhof_start(plan, tol: float, x: float, density: bool) -> tuple:
    """The rung, its ``_tail`` and the start panel count of an auto Imhof row
    at the shifted point x: the first rung U = 2^j of the plan's ladder
    whose tail bound is at most tol/2, or the first above the cap (1e7 for
    the density, 1e25 for the CDF).

    The search starts at the rung of closed-form first guesses from the
    power-law parts of T_U and of the integration-by-parts bound times the
    Gaussian envelope, and steps by factors of 2, down while the rung below
    still meets tol/2 and up until one does: every bound decreases with U."""
    red, half = plan.red, tol / 2.0
    k, c1, _, log_w, *_ = plan.tail_form
    log_rhs = -log_w - 0.5 * float(red.delta2.sum()) - math.log(half)
    guesses = [(k, log_rhs - math.log(math.pi * k))]
    if x != 0.0:
        guesses.append((k + 1.0, log_rhs + math.log(2.0) - math.log(math.pi * abs(x) / 2.0)))
    if c1 is not None:
        guesses.append((k + 1.0, log_rhs + math.log(max(c1, 1e-300) / (math.pi * (k + 1.0)))))
    sig, log_us = red.sigma_gauss, []
    # log(sigma/sqrt 8), so that sigma^2 U^2/8 = e^(2v) in v = log U + shift
    shift = math.log(sig / math.sqrt(8.0)) if sig else 0.0
    for power, rhs in guesses:
        if not sig:
            log_us.append(min(rhs / power, 60.0))
            continue
        # power v + e^(2v) = rhs + power shift, convex in v: Newton from the
        # right of the root steps down to it (or stays at the cap, log U = 60)
        rhs += power * shift
        v = min(rhs / power, 60.0 + shift, 0.5 * math.log(abs(rhs) + 1.0))
        while (excess := power * v + math.exp(2.0 * v) - rhs) > 1e-3 * power:
            v -= excess / (power + 2.0 * math.exp(2.0 * v))
        log_us.append(v - shift)
    j = math.ceil(max(min(log_us), -600.0) / math.log(2.0))
    tail = _tail(plan.rung(j), x, density)
    if tail[0] <= half:
        while j > -1000 and (lower := _tail(plan.rung(j - 1), x, density))[0] <= half:
            j, tail = j - 1, lower
    u_cap = 1e7 if density else 1e25
    while tail[0] > half and plan.rung(j).u <= u_cap:
        j += 1
        tail = _tail(plan.rung(j), x, density)
    rung = plan.rung(j)
    return rung, tail, _start_panels(rung.form, rung.u, x)


def _start_panels(form: _Form, u_max: float, x: float) -> int:
    """IMHOF_PANELS_START, doubled to at least 2 panels per period of the
    integrand's phase-rate bound (1/2) sum (nu + d2)|w| + |x|/2 (the Nyquist
    rate); Richardson halving takes the grid on from there."""
    phase_rate = form.half_rate + 0.5 * abs(x)
    min_panels = 2.0 * u_max * phase_rate / (2.0 * math.pi)
    panels = IMHOF_PANELS_START
    while panels < min(min_panels, IMHOF_PANELS_MAX / 2):
        panels *= 2
    return panels


class _Row:
    """One point of an Imhof pass: its rung, ``_tail`` and shifted x, its
    panel count, cap and Richardson target, and its trapezoid state (the
    unscaled integral and absolute mass so far, the last Richardson
    estimate, inf until the step is first halved, and the step in log u of
    a row on that grid, else None)."""

    __slots__ = ("rung", "tail", "x", "panels", "cap", "target", "total", "mass", "quad_est",
                 "done", "log_step")

    def __init__(self, rung: _Rung, tail: tuple | None, x: float, panels: int, cap: int,
                 target: float):
        self.rung, self.tail, self.x = rung, tail, x
        self.panels, self.cap, self.target = panels, cap, target
        self.total, self.mass, self.quad_est, self.done = None, 0.0, math.inf, False
        self.log_step = None


def _integrate(rows: list, density: bool) -> None:
    """Imhof's trapezoid rule on [0, U] for every row, in one pass.

    Each sweep steps every active row once: its grid of ``panels`` panels
    first, then the midpoints that halve its step, while it has fewer than
    ``cap`` panels and its Richardson estimate (the change of the integral
    over pi, or 2 pi for the density) is above ``target``.  A sweep groups
    its rows by the nodes their step needs, from a snapshot taken before
    any row moves on, grows their rungs' kept grids in one node evaluation
    and evaluates each group in (rows x nodes) blocks (``_step_sums``).  A
    converged row leaves the pass.  Only a pass of one form keeps grids:
    the rows of several forms (a ratio CDF's thresholds, each with a plan
    of its own) share no rung, so their nodes are evaluated per block.
    """
    scale = 2.0 * math.pi if density else math.pi
    keep = _KEEP_PANELS if len({id(row.rung.red) for row in rows}) == 1 else 0
    active = rows
    while active:
        groups: dict = {}
        wanted: dict = {}
        for row in active:
            first = row.total is None
            groups.setdefault((row.panels, first), []).append(row)
            fine, rung = row.panels if first else 2 * row.panels, row.rung
            if rung._panels < fine <= keep and wanted.get(id(rung), (0, 0))[1] < fine:
                wanted[id(rung)] = (rung, fine)
        if wanted:
            _grow(wanted)
        for (panels, first), group in groups.items():
            sums, masses = _step_sums(group, panels, first, density)
            for row, s, m in zip(group, sums, masses):
                if first:
                    row.total, row.mass = s, m * (row.rung.u / panels)
                else:
                    step = row.rung.u / (2 * panels)
                    total = 0.5 * row.total + s * step
                    row.mass = 0.5 * row.mass + m * step
                    row.panels *= 2
                    row.quad_est = abs(total - row.total) / scale
                    row.total = total
                row.done = row.panels >= row.cap or row.quad_est <= row.target
        active = [row for row in active if not row.done]


def _integrate_log(row: _Row, density: bool) -> None:
    """Imhof's integral over [0, U] by the trapezoid rule in s = log u, for a
    row whose phase -u x/2 turns by at most a radian there (|x| U <= 2).

    g(s) = u f(u) is analytic in the strip |Im s| < pi/2, so the rule
    converges geometrically in its step h (Trefethen & Weideman 2014), where
    a grid uniform in u needs panels in proportion to U.  The nodes run from
    s = log U down to the first at or below s_min.  |g| <= R e^s, with R the
    phase-rate bound for the CDF (|sin theta| <= |theta| <= R u, rho >= 1)
    and 1 for the density, so the integral below s_min and the nodes a
    finer grid adds there are each at most R e^(s_min); s_min puts three
    times that at a quarter of the target, which the estimate carries.  h
    starts at most 1/2 and halves while the row has fewer than ``cap``
    steps and its Richardson estimate is above ``target``."""
    scale = 2.0 * math.pi if density else math.pi
    reach = 1.0 if density else row.rung.form.half_rate + 0.5 * abs(row.x)
    s_max = math.log(row.rung.u)
    s_min = math.log(row.target * scale / (12.0 * reach))
    n = max(math.ceil(2.0 * (s_max - s_min)), 2)
    h = (s_max - s_min) / n
    half_x = np.array([[0.5 * row.x]])

    def terms(s: np.ndarray) -> np.ndarray:
        u = np.exp(s)
        [nodes] = _evaluate_nodes([(row.rung.red, u)])
        return _integrand(nodes[None], half_x, density)[0] * u

    g = terms(s_max - h * np.arange(n + 1))
    g[0] /= 2.0     # the end at U
    row.total, row.mass, row.panels = h * transforms._sum(g), h * transforms._sum(np.abs(g)), n
    while row.panels < row.cap and row.quad_est > row.target:
        g = terms(s_max - h * (np.arange(row.panels) + 0.5))
        h /= 2.0
        total = 0.5 * row.total + h * transforms._sum(g)
        row.mass = 0.5 * row.mass + h * transforms._sum(np.abs(g))
        row.quad_est = abs(total - row.total) / scale + row.target / 4.0
        row.total, row.panels = total, 2 * row.panels
    row.log_step = h


def _step_sums(rows: list, panels: int, first: bool, density: bool) -> tuple:
    """Each row's integral and absolute sum of its integrand over the nodes
    of its step: on the grid of ``panels`` panels, its trapezoid value and
    the node sum; on the midpoints that halve it, the two node sums.

    The rows run in (rows x nodes) blocks of at most _BLOCK terms; a row of
    more nodes runs alone, in near-equal sections (a grid's section reaches
    one node into the next for its last trapezoid panel).  Every sum runs
    along a row's own nodes, so it does not depend on the other rows.
    """
    n = panels + 1 if first else panels
    fine = panels if first else 2 * panels
    sections = -(-n // (_BLOCK - 1 if first else _BLOCK))
    bounds = [n * k // sections for k in range(sections + 1)] if sections > 1 else (0, n)
    per = max(_BLOCK // n, 1)
    sums, masses = [], []
    for r in range(0, len(rows), per):
        block = rows[r:r + per]
        half_x = np.array([[0.5 * row.x] for row in block])
        if first:
            half_mean = np.array([row.rung.form.half_mean for row in block])
            dx = np.array([[row.rung.u / panels] for row in block])
        s = m = None
        for a, b in zip(bounds, bounds[1:]):
            c = b + 1 if first and b < n else b
            f = _integrand(_step_nodes(block, fine, first, a, c), half_x, density,
                           half_mean if first and a == 0 else None)
            # a grid's trapezoid value in np.trapezoid's arithmetic
            s_k = (transforms._sum(dx * (f[:, 1:] + f[:, :-1]) / 2.0, axis=1) if first
                   else transforms._sum(f, axis=1))
            m_k = transforms._sum(np.abs(f if c == b else f[:, :b - a]), axis=1)
            s, m = (s_k, m_k) if s is None else (s + s_k, m + m_k)
        sums += s.tolist()
        masses += m.tolist()
    return sums, masses


def _step_nodes(rows: list, fine: int, first: bool, a: int, b: int) -> np.ndarray:
    """The ``_evaluate_nodes`` rows of nodes a..b-1 of each row's step, on
    axis 1 of a (rows, 3, nodes) array, or of a (1, 3, nodes) one when the
    rows share a rung: views of the kept grids, and the nodes of the rungs
    that keep no grid this fine evaluated here in one pass."""
    rungs = list({id(row.rung): row.rung for row in rows}.values())
    fresh = [rung for rung in rungs if rung._panels < fine]
    if fresh:
        idx = np.arange(a, b) if first else 2 * np.arange(a, b) + 1
        evaluated = iter(_evaluate_nodes([(rung.red, _positions(rung.u, fine, idx))
                                          for rung in fresh]))
    nodes = [rung.view(fine, first, a, b) if rung._panels >= fine else next(evaluated)[None]
             for rung in rungs]
    if len(nodes) == 1:
        return nodes[0]
    where = {id(rung): k for k, rung in enumerate(rungs)}
    return np.concatenate([nodes[where[id(row.rung)]] for row in rows])


def _imhof(red, q, params: ImhofParams | None, tol: float, plan, density: bool):
    """cdf_imhof (density False) and pdf_imhof: each point's exact answer
    or its row of one pass (``_integrate``), then its result."""
    single = isinstance(red, ReducedForm)
    qs = np.asarray(q, dtype=float)
    pts = transforms.points(qs)
    out: list = [None] * pts.size
    if single:
        plans = [_own_plan(red, plan)] * pts.size
    else:
        plans = list(plan) if plan is not None else [_own_plan(form, None) for form in red]
        if len(plans) != pts.size:
            raise InvalidInputError("a list of forms takes one point per form")
    rows: dict = {}
    fixed: dict = {}
    for i, (p, q_i) in enumerate(zip(plans, pts.tolist())):
        form = p.red
        x = q_i - form.const
        out[i] = (transforms.exact_point(form, q_i, density, "imhof", p.support)
                  or _closed_form(form, q_i, "imhof", density))
        if out[i] is not None:
            continue
        if params is None:
            # drive the quadrature below the tail target: the oscillatory
            # tail cancels far below T_U, so a tight grid keeps the value
            # accurate even when the reported (conservative) bound is
            # dominated by T_U
            rung, tail, panels = _imhof_start(p, tol, x, density)
            rows[i] = _Row(rung, tail, x, panels, IMHOF_PANELS_MAX, min(tol, 1e-8) / 2.0)
        else:
            # a fixed grid: one halved-grid pass first, so a Richardson
            # estimate is available, then the requested panels
            if id(p) not in fixed:
                fixed[id(p)] = _Rung(form, params.u_max, p.tail_form)
            rung = fixed[id(p)]
            rows[i] = _Row(rung, _tail(rung, x, density), x, max(params.panels // 2, 2),
                           max(params.panels, 4), -math.inf)
    uniform = []
    for row in rows.values():
        # a light form near x = 0: a start of 2^19 panels or more (four times
        # the finest grid a rung keeps: starts of 2^17 and 2^18 panels stay on
        # the uniform grid, evaluated per block), on an integrand whose phase
        # -u x/2 turns by at most a radian over [0, U]
        if (params is None and row.panels >= 4 * _KEEP_PANELS
                and abs(row.x) * row.rung.u <= 2.0):
            _integrate_log(row, density)
        else:
            uniform.append(row)
    _integrate(uniform, density)
    for i, row in rows.items():
        out[i] = _result(row, density, params is None, tol)
    return one_or_all(out, single and qs.ndim == 0)


def _result(row: _Row, density: bool, auto: bool, tol: float):
    """The outcome of a finished row: its integral with the tail correction,
    bounded by its tail bound, Richardson estimate and sum rounding.  A CDF
    is rigorous, and an auto one whose bound is above tol is a
    ConvergenceFailureError; a density is heuristic.  A row on the grid in
    log u counts its steps as panels and adds that step."""
    scale = 2.0 * math.pi if density else math.pi
    t_u, correction = row.tail
    bound = (t_u + (row.quad_est if math.isfinite(row.quad_est) else 0.0)
             + _rounding_bound(row.mass / scale, row.panels + 1))
    raw = (row.total / scale if density else 0.5 - row.total / scale) + correction
    diagnostics = {"raw_value": raw, "u_max": row.rung.u, "panels": row.panels,
                   "tail_bound": t_u, "quad_estimate": row.quad_est}
    if not density:
        diagnostics["tail_correction"] = correction
    if row.log_step is not None:
        diagnostics["log_step"] = row.log_step
    res = MethodResult(max(raw, 0.0) if density else min(max(raw, 0.0), 1.0), float(bound),
                       "imhof", "heuristic" if density else "rigorous", diagnostics)
    if auto and not density and not bound <= tol:   # a NaN bound fails too
        return ConvergenceFailureError(
            f"imhof did not reach tol={tol} (achieved {bound:.3e})", result=res)
    return res


def cdf_imhof(red, q, params: ImhofParams | None = None, tol: float = 1e-8, plan=None):
    """CDF by Imhof's trapezoid rule with explicit truncation bound.

    With ``params`` the grid is fixed and the achieved bound is reported;
    otherwise U is the first rung of the ladder 2^j whose tail bound meets
    tol/2, and panels start at 2 per period of the phase-rate bound and are
    doubled until the Richardson estimate meets the tolerance, up to
    IMHOF_PANELS_MAX; a point that would start at 2^19 panels or more on an
    integrand that does not oscillate over [0, U] runs on the trapezoid in
    log u (``_integrate_log``).  ``plan`` is a ``select.Plan`` of red to
    reuse (its rungs' nodes are shared with its other points, at every
    tol); results do not depend on it.

    q may be an array, and red a list of forms, one per point of q (then
    plan is None or a list of their plans): the result is then a list with
    each point's MethodResult or ConvergenceFailureError.  Every point is
    one row of one trapezoid pass (``_integrate``); its value, bound and
    diagnostics are those it gets alone.  A NaN point is invalid input.
    """
    return _imhof(red, q, params, tol, plan, False)


def pdf_imhof(red, q, params: ImhofParams | None = None, tol: float = 1e-8, plan=None):
    """Density by the cosine-integral counterpart of the Imhof rule.

    The grid is chosen as for cdf_imhof, with the density's tail terms: U
    is the first rung of the ladder 2^j (at most the first above 1e7) where
    the smallest of them is at most tol/2.  The reported bound combines the
    integrable part of the modulus tail (valid when sum(nu) > 2 or
    sigma > 0) with a Richardson estimate; flagged heuristic since the
    oscillatory tail has no tight closed bound.  Outside the support the
    density is exactly 0, and at a finite end of it the exact limit from
    inside (``transforms.exact_point``).  Without a Gaussian term, two
    one-dof groups of opposite signs have a pole at x = 0 (two x^(-1/2)
    singularities convolve to a log), and the density is exactly inf.  q,
    red and ``plan`` as for cdf_imhof.
    """
    return _imhof(red, q, params, tol, plan, True)


def _davies_lattice_bound(chi: ReducedForm, x, spread):
    """Chernoff bound on the aliasing error for lattice period 2*pi/Delta = spread
    at shifted point x, from the centred form chi (1 when a side is vacuous:
    x - spread or x + spread on the wrong side of the mean).  x and spread
    may be arrays: two chernoff_log_tail calls serve all points, and the
    result is an array with each point's bound."""
    xs = np.asarray(x, dtype=float)
    log_left = transforms.chernoff_log_tail(chi, xs - spread, "left")
    log_right = transforms.chernoff_log_tail(chi, xs + spread, "right")
    out = [math.exp(min(max(left, right, _LOG_TINY), 0.0)) for left, right in
           zip(np.atleast_1d(log_left).tolist(), np.atleast_1d(log_right).tolist())]
    return out[0] if xs.ndim == 0 else np.array(out)


def _spread_form(chi: ReducedForm, tol: float) -> tuple:
    """The centred form chi's mean and sd, and its left and right crossings
    with log(tol/4): the aliasing bound of Davies' lattice is at most tol/4
    once x - spread and x + spread lie beyond them."""
    mean, sd, _ = transforms.standardised(chi)
    quarter = tol / 4.0
    level = math.log(quarter) if quarter > 0.0 else -math.inf
    return (mean, sd, transforms.chernoff_crossing(chi, level, "left"),
            transforms.chernoff_crossing(chi, level, "right"))


def _davies_spread(chi: ReducedForm, spread_form: tuple, x):
    """The lattice spread of the auto rule at shifted point x (scalar or array).

    It is max(8 sd, |x - mean| + 4 sd, need + margin), the last term capped at
    1e12 sd, where need = max(x - left, right - x) is the distance from x to
    the crossings of the centred form chi (``_spread_form``) and margin is
    their ``crossing_margin``: x - spread and x + spread then lie beyond the
    crossings, so the lattice bound is at most their level tol/4.  need is
    inf when tol/4 underflows to 0 (no spread reaches it), and stays inf.
    """
    mean, sd, left, right = spread_form
    need = np.maximum(x - left, right - x) + transforms.crossing_margin(chi, x, left, right)
    return np.maximum(np.maximum(8.0 * sd, np.abs(x - mean) + 4.0 * sd),
                      np.minimum(need, 1e12 * sd))


def _truncation_u(red: ReducedForm, form: _Form, sd: float, tol: float,
                  delta: np.ndarray) -> np.ndarray:
    """For each lattice spacing of a nonempty array delta, the first rung of
    Davies' truncation ladder U = 4/sd * 1.5^j whose truncation bound (T_U at
    Imhof's 2U) is at most tol/2 or that holds DAVIES_POINTS_MAX lattice
    points of that spacing.  The ladder is walked once, to the first rung
    that is small or that every spacing fills (u / delta falls as delta
    grows); a spacing that fills an earlier rung stops there."""
    widest = float(delta.max())
    us = [4.0 / sd]
    while (_Rung(red, 2.0 * us[-1], form).head.plain > tol / 2.0
           and us[-1] / widest < DAVIES_POINTS_MAX):
        us.append(us[-1] * 1.5)
    full = np.array(us) / delta[:, None] >= DAVIES_POINTS_MAX
    return np.array(us)[np.where(full.any(axis=1), full.argmax(axis=1), len(us) - 1)]


def cdf_davies(red: ReducedForm, q, params: DaviesParams | None = None, tol: float = 1e-8):
    """CDF by the midpoint-lattice inversion sum with computable bounds.

    u_k = (k + 1/2) Delta, k <= k_max, are the midpoints of k_max + 1 panels
    on [0, 2 (k_max + 1) Delta] in Imhof's u (twice Davies' frequency): the
    value is 1/2 - (2 Delta/pi) S, S Imhof's CDF integrand summed there by
    one midpoint step of its node pass (``_step_sums``).  Imhof's T_U at
    U = 2 (k_max + 1/2) Delta bounds the terms past k_max: it integrates
    1/(u rho), a decreasing majorant of |integrand|, which bounds each term
    by its integral over the panel that ends at its node.  The bound is
    that truncation bound + lattice aliasing + the rounding of the sum.

    A point on or outside the support (``transforms.exact_point``), and a
    form without groups (``_closed_form``), have their exact answer.  q may
    be an array: the spreads, the truncation ladder and the lattice bounds
    are computed once for all points, the lattice sum and its truncation
    bound per point; the result is a list with each point's MethodResult or
    ConvergenceFailureError.  A NaN point is invalid input.
    """
    qs = np.asarray(q, dtype=float)
    pts, out = transforms.exact_points(red, qs, False, "davies")
    out = [res or _closed_form(red, p, "davies") for res, p in zip(out, pts.tolist())]
    idx = [i for i, res in enumerate(out) if res is None]
    if not idx:
        return one_or_all(out, qs.ndim == 0)
    chi, form = red.shifted(0.0), _tail_form(red)
    x = pts[idx] - red.const
    if params is not None:
        spread = 2.0 * math.pi / params.delta
        delta, k_max = np.full(x.shape, params.delta), np.full(x.shape, params.k_max)
    else:
        spread_form = _spread_form(chi, tol)
        spread = _davies_spread(chi, spread_form, x)
        delta = 2.0 * math.pi / spread
        u_trunc = _truncation_u(red, form, spread_form[1], tol, delta)
        k_max = np.maximum(np.minimum(np.ceil(u_trunc / delta - 0.5), DAVIES_POINTS_MAX),
                           8).astype(int)
    u_max = (k_max + 0.5) * delta
    lattice = _davies_lattice_bound(chi, x, spread)
    for i, xi, d, k, u, la in zip(idx, x.tolist(), delta.tolist(), k_max.tolist(),
                                  u_max.tolist(), lattice.tolist()):
        trunc = _Rung(red, 2.0 * u, form).head.plain
        row = _Row(_Rung(red, 2.0 * (k + 1) * d, form), None, xi, k + 1, k + 1, 0.0)
        [s], [m] = _step_sums([row], k + 1, False, False)
        value = 0.5 - 2.0 * d * s / math.pi
        bound = trunc + la + _rounding_bound(2.0 * d * m / math.pi, k + 1)
        res = MethodResult(min(max(value, 0.0), 1.0), float(bound), "davies", "rigorous",
                           {"raw_value": value, "delta": d, "k_max": k, "u_max": u,
                            "truncation_bound": trunc, "lattice_bound": la})
        out[i] = res if params is not None or bound <= tol else ConvergenceFailureError(
            f"davies did not reach tol={tol} (achieved {bound:.3e})", result=res)
    return one_or_all(out, qs.ndim == 0)


class _Stop(Exception):
    """Raised in the root finder at the first point with |F - p| <= inner tol."""


def _brentq(f, xa: float, xb: float, xtol: float, rtol: float, maxiter: int) -> float | None:
    """A root of f in [xa, xb] by Brent's method (Brent 1973, ch. 4), ported
    step for step from scipy's ``brentq`` (``Zeros/brentq.c``): it evaluates
    f at the same points and returns the same root, without importing
    ``scipy.optimize``.  None when f(xa) and f(xb) have the same sign bit or
    after maxiter iterations; an exception raised by f passes through."""
    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:  # C's step is then +-inf or NaN, which bisects
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:  # the minimum step
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    return None


class Quantile(float):
    """A quantile q, with ``cdf``, the search's CDF result at q, and
    ``cdf_calls``, the number of CDF calls the search made."""

    cdf: MethodResult
    cdf_calls: int


def quantile(red: ReducedForm, p: float, tol: float = 1e-8, method: str = "auto",
             plan=None) -> Quantile:
    """Solve F(q) = p on the chosen CDF method, each call at the inner tol
    min(tol/100, 1e-9).  Start at the Cornish-Fisher point of four
    cumulants (halfway to the mean from a support end it falls beyond); take
    one Newton step with the normal approximation's density there (at most
    16 sd), then secant steps 2 to 16 times as long as the last until F - p
    changes sign; run Brent's method on that bracket (``_brentq``, the
    in-module port of scipy's ``brentq``).  Stop at the first point where
    |F(q) - p| <= inner tol, as close as F's own accuracy allows, or once
    the bracket is narrower than 1e-13 (1 + sd) + 4 eps |q|.  q is a point
    the search evaluated, returned with that evaluation; within 1e-9 of the
    scale of a finite support end, F is the exact 0 or 1 at the end (tagged
    "support").  A failed evaluation keeps its best value (root finding
    needs only a consistent monotone surrogate).  A search that finds no
    sign change of F - p in its 200 steps, reaches Brent's 200 iterations or
    gets NaN from F raises ConvergenceFailureError carrying the evaluation
    closest to p, its point as the diagnostic "q"; one that ends at a q
    whose F is more than tol from p or has a bound above tol (a CDF that
    does not meet tol, or one that jumps across p) raises it carrying q
    and F(q).  A point mass has its point as every quantile.  The calls
    share one ``select.Plan``; a plan passed in is used, with equal
    results.
    """
    if not 0.0 < p < 1.0:
        raise InvalidInputError("quantile level p must be in (0, 1)")
    from . import select  # runtime import; select dispatches back here

    plan = _own_plan(red, plan)
    lo_s, hi_s = plan.support
    inner_tol = min(tol * 1e-2, 1e-9)
    center, sd, unit = transforms.standardised(red)
    edge = 1e-9 * max(sd, abs(center), 1.0)
    seen: dict = {}

    def at(x: float) -> float:
        return lo_s if x <= lo_s + edge else hi_s if x >= hi_s - edge else x

    def failure(why: str, x=None, res=None) -> ConvergenceFailureError:
        label = "F" if res is not None else "closest F"
        if res is None:
            x, res = min(seen.items(), key=lambda item: abs(item[1].value - p)
                         if not math.isnan(item[1].value) else math.inf)
        return ConvergenceFailureError(
            f"quantile search for p={p} {why}; {label}({x!r}) = {res.value!r}",
            result=MethodResult(res.value, res.error_bound, res.method, res.provenance,
                                dict(res.diagnostics, q=x, cdf_calls=len(seen))))

    def f(x: float) -> float:
        x = at(x)
        if x == lo_s or x == hi_s:
            return (0.0 if x == lo_s else 1.0) - p
        if x not in seen:
            try:
                seen[x] = select.cdf(red, x, method, inner_tol, plan=plan)
            except ConvergenceFailureError as exc:
                seen[x] = exc.result
            if math.isnan(seen[x].value):
                raise failure("got NaN from the CDF")
            if abs(seen[x].value - p) <= inner_tol:
                raise _Stop(x)
        return seen[x].value - p

    # skewness and excess kurtosis from the standardised form (no overflow)
    ks = transforms.cumulants(unit, 4)
    g1, g2, z = ks.get(3), ks.get(4), float(special.ndtri(p))
    w = (z + (z * z - 1.0) * g1 / 6.0 + (z**3 - 3.0 * z) * g2 / 24.0
         - (2.0 * z**3 - 5.0 * z) * g1 * g1 / 36.0)
    a = at(center + sd * w)
    if a == lo_s or a == hi_s:
        a = (a + center) / 2.0
    try:
        if lo_s == hi_s:  # a point mass
            raise _Stop(lo_s)
        f_a = f(a)
        t = (a - center) / sd
        density = max(math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi), abs(f_a) / 16.0)
        step = -f_a * sd / density
        for _ in range(200):
            b = at(a + step)
            f_b = f(b)
            if f_b * f_a <= 0.0:
                break
            grow = abs(f_b / (f_a - f_b)) if f_a != f_b else math.inf
            step = math.copysign(abs(b - a) * min(max(grow, 2.0), 16.0), -f_b)
            a, f_a = b, f_b
        else:
            raise failure("found no sign change of F - p")
        root = _brentq(f, min(a, b), max(a, b), 1e-13 * (1.0 + sd), 8.9e-16, 200)
        if root is None:
            raise failure("did not converge in 200 Brent iterations")
    except _Stop as stop:
        root = stop.args[0]
    q = Quantile(at(root))
    q.cdf = seen.get(q) or transforms.exact_point(red, float(q), False, "support", plan.support)
    q.cdf_calls = len(seen)
    bound = q.cdf.error_bound
    if lo_s < hi_s and not (abs(q.cdf.value - p) <= tol and (bound is None or bound <= tol)):
        raise failure(f"ended more than tol={tol} from p or with a bound above it",
                      float(q), q.cdf)
    return q
