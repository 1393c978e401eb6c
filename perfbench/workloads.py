"""Seeded input documents and the op schedule of each workload.

Every document is a pure function of (seed, workload, index): the same
seed gives byte-identical JSON whatever else a run does.  The properties
that drive an op's cost (class, size, weight spread, degrees of freedom)
take fixed levels that every cycle of ``CYCLE`` forms covers once
(``_level``); the seed draws everything else (multiplicities, which group
gets which weight, signs, eigenvectors, covariances, means).  So a run
covering a few cycles sees the same mix of work on every seed.

Generated forms carry their exact reduced parameters from the
construction, so the oracle never reads the library's reduction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

WORKLOADS = ("grid", "quantile", "ratio")
GRID_POINTS = 41
CYCLE = 12
QUANTILE_TOL = 1e-6
QUANTILE_PS = (0.01, 0.5, 0.99)
TAIL_LOG_P = math.log(1e-11)  # grid ends: Chernoff tail bound of 1e-11


@dataclass
class Op:
    """One cli.main call: its argv (document path appended at run time),
    the document text and what the oracle needs to check the output."""

    argv: list
    doc: str
    check: dict = field(default_factory=dict)


# -- form construction ----------------------------------------------------

def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload), index])


def _level(pos: int, m: int, a: int = 1, b: int = 1, c: int = 0) -> int:
    """Level 0..m-1 of a cost-driving property of the form at position pos
    among its workload's forms of one generator.

    m divides CYCLE and a is coprime to m, so the CYCLE forms of a cycle
    take every level CYCLE // m times; the assignment rotates from cycle to
    cycle (b), so the pairing of levels of different properties varies
    while every cycle holds the same mix."""
    cyc, slot = divmod(pos, CYCLE)
    return (a * slot + b * cyc + c) % m


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _orthogonal(rng, n):
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _multiplicities(rng, n, even):
    mults = []
    while sum(mults) < n:
        m = int(rng.choice([2, 4])) if even else int(rng.integers(1, 5))
        mults.append(min(m, n - sum(mults)))
    return mults


SPREAD_DECADES = 2.0
# class of the definite form at each slot of a cycle: 0 central with even
# multiplicities, 1 noncentral, 2 central with mixed multiplicities; the
# grid's cdf slots (slot % 3 != 2) and pdf slots both hold every class
CLASSES = (0, 1, 2, 2, 0, 0, 1, 2, 1, 0, 1, 2)


def definite_form(seed: int, workload: str, index: int, pos: int):
    """Positive definite raw form with a controlled spectrum.

    Returns (raw document, reduced parameters).  Classes rotate with the
    index: central with even multiplicities (the partial-fraction route),
    noncentral, central with mixed multiplicities.  N is log-uniform on
    [2, 500] and the weight spread (largest over smallest) 10^U(0, 2);
    both take band centres (``_level``), so every cycle holds the same sizes
    and spreads.  Multiplicities are 1-4 ({2, 4} for the even class); the
    seed draws them, the overall scale, the eigenvectors, the covariance
    and the mean's signs."""
    rng = _rng(seed, workload, index)
    u_n = (_level(pos, 12, 5) + 0.5) / 12
    u_delta = (_level(pos, 6, 1, 3, 1) + 0.5) / 6
    cls = ("central_even", "noncentral", "central_mixed")[CLASSES[pos % CYCLE]]
    n = int(round(_log_uniform(u_n, 2, 500)))
    if cls == "central_even":
        n = max(2, n - n % 2)
    mults = _multiplicities(rng, n, cls == "central_even")
    spread = 10.0 ** (SPREAD_DECADES * (_level(pos, 6, 5, 2, 3) + 0.5) / 6)
    g = len(mults)
    # weights evenly spaced in log between the extremes: the series' cost
    # follows the spread and the weights near its ends, so random interior
    # weights would make the same level cost 10x more on one seed than on
    # another
    logs = -math.log(spread) * np.arange(g) / max(g - 1, 1)
    scale = 10.0 ** rng.uniform(-1.0, 1.0)
    weights = scale * np.exp(logs)
    eig = np.repeat(weights, mults)
    q = _orthogonal(rng, n)
    d = rng.uniform(0.5, 2.0, n)
    a = (q * eig) @ q.T / np.outer(d, d)
    a = (a + a.T) / 2.0
    # the mean's projections on the eigendirections have equal size and
    # random signs, so each group carries noncentrality in proportion to
    # its multiplicity (total log-uniform on [0.1, 30])
    z = np.zeros(n)
    if cls == "noncentral":
        z = rng.choice([-1.0, 1.0], n) * math.sqrt(_log_uniform(u_delta, 0.1, 30.0) / n)
    m = q @ z
    bounds = np.cumsum([0] + mults)
    delta2 = [float(np.sum(z[bounds[i]:bounds[i + 1]] ** 2)) for i in range(g)]
    doc = {"kind": "raw", "a": a.tolist(), "b": [0.0] * n, "c": 0.0,
           "mu": (d * m).tolist(), "sigma_mat": np.diag(d**2).tolist()}
    red = {"omega": weights.tolist(), "nu": mults, "delta2": delta2,
           "sigma": 0.0, "const": 0.0}
    return doc, red


# (groups, total degrees of freedom) per level; Σν stays at 6 or more
# (README: light-dof Davies)
GROUPS_DOF = ((2, 6), (3, 6), (3, 7), (4, 8), (5, 10), (6, 12))


def indefinite_form(seed: int, workload: str, index: int, pos: int):
    """Reduced indefinite form: 2-6 groups of mixed sign, nu in 1..3, with
    the group count and total dof set per level (GROUPS_DOF); |w| evenly
    spaced in log around 1 with a spread (largest over smallest) at the six
    band centres of 10^U(0, 2), so within [0.12, 8.3]; per cycle a third
    with a Gaussian term (sigma = 1) and half noncentral.  The seed draws
    the signs, which group gets which magnitude, the split of the dof and
    the noncentralities."""
    rng = _rng(seed, workload, index)
    g, total = GROUPS_DOF[_level(pos, 6, 5)]
    spread = 10.0 ** (SPREAD_DECADES * (_level(pos, 6, 1, 2, 4) + 0.5) / 6)
    gaussian = _level(pos, 6, 1, 2, 2) < 2
    noncentral = _level(pos, 6, 5, 1, 3) < 3
    mags = rng.permutation(spread ** np.linspace(-0.5, 0.5, g))
    signs = rng.permutation(np.array([1.0, -1.0] + list(rng.choice([-1.0, 1.0], g - 2))))
    nu = rng.integers(1, 4, g)
    while nu.sum() != total:
        nu = rng.integers(1, 4, g)
    delta2 = rng.uniform(0.2, 4.0, g) * (rng.random(g) < 0.7) if noncentral else np.zeros(g)
    sigma = 1.0 if gaussian else 0.0
    red = {"omega": (signs * mags).tolist(), "nu": [int(v) for v in nu],
           "delta2": [float(v) for v in delta2], "sigma": sigma, "const": 0.0}
    return dict(kind="reduced", **red), red


# -- grids from the form's own cumulant generating function ---------------

def _tail_point(red, side: str, log_p: float = TAIL_LOG_P) -> float:
    """Point where the Chernoff bound of the given tail equals exp(log_p)."""
    w = np.asarray(red["omega"], float)
    nu = np.asarray(red["nu"], float)
    d2 = np.asarray(red["delta2"], float)
    s2 = red["sigma"] ** 2

    def k(t):
        g = 1.0 - 2.0 * w * t
        return float(np.sum(-0.5 * nu * np.log(g) + d2 * w * t / g)) + 0.5 * s2 * t * t

    def kp(t):
        g = 1.0 - 2.0 * w * t
        return float(np.sum(nu * w / g + d2 * w / g**2)) + s2 * t

    pos, neg = w[w > 0], w[w < 0]
    if side == "right":
        end = 1.0 / (2.0 * pos.max()) if pos.size else 1.0 / math.sqrt(s2)
    else:
        end = 1.0 / (2.0 * neg.min()) if neg.size else -1.0 / math.sqrt(s2)
    # K(t) - t K'(t) decreases from 0 as |t| grows towards the strip end
    t = optimize.brentq(lambda t: k(t) - t * kp(t) - log_p, end * 1e-12, end * (1 - 1e-12))
    return kp(t) + red["const"]


def grid_spec(red, definite: bool) -> tuple[float, float]:
    lo = red["const"] if definite else _tail_point(red, "left")
    return lo, _tail_point(red, "right")


def _grid_arg(lo: float, hi: float) -> str:
    return f"{lo!r}:{hi!r}:{GRID_POINTS}"


# -- ratio specs ----------------------------------------------------------

def ratio_spec(seed: int, index: int):
    """Ratio x'Ax / x'Bx: n at the band centres of log-uniform [5, 40]
    (6, 8, 12, 17, 24, 34); a third with a singular
    B of rank n - 2 (only for n >= 7, so E[R^2] exists), the rest with a
    condition number below about 10; half with a nonzero mean; a diagonal
    covariance."""
    rng = _rng(seed, "ratio", index)
    n = int(round(_log_uniform((_level(index, 6, 5) + 0.5) / 6, 5, 40)))
    singular = _level(index, 6, 1, 1, 1) < 2 and n >= 7
    mean = _level(index, 6, 5, 2, 3) < 3
    a = rng.standard_normal((n, n))
    a = (a + a.T) / 2.0
    f = rng.standard_normal((n, n - 2 if singular else n))
    b = f @ f.T / n + (0.0 if singular else 0.5 * np.eye(n))
    mu = rng.standard_normal(n) * 0.5 if mean else np.zeros(n)
    d = rng.uniform(0.7, 1.4, n)
    return {"kind": "ratio", "a": a.tolist(), "b": b.tolist(), "mu": mu.tolist(),
            "sigma_mat": np.diag(d**2).tolist()}


def ratio_range(doc) -> tuple[float, float]:
    """5 % and 95 % points of the finite generalised eigenvalues of (A, B)."""
    a = np.asarray(doc["a"])
    b = np.asarray(doc["b"])
    bw, bv = np.linalg.eigh(b)
    keep = bw > 1e-10 * bw.max()
    half = bv[:, keep] / np.sqrt(bw[keep])
    gen = np.linalg.eigvalsh(half.T @ a @ half)
    lo, hi = np.percentile(gen, [5.0, 95.0])
    if hi - lo < 1e-6:
        lo, hi = lo - 0.5, hi + 0.5
    return float(lo), float(hi)


# -- op schedules ---------------------------------------------------------

def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def grid_op(seed: int, index: int) -> Op:
    """A 41-point CDF or PDF grid on a form of its own: raw positive
    definite forms on even indices, reduced indefinite ones on odd indices.
    Two CDF grids for each PDF grid of a kind, so the median op is a CDF
    grid rather than the edge between the two quantities."""
    definite = index % 2 == 0
    make = definite_form if definite else indefinite_form
    pos = index // 2
    doc, red = make(seed, "grid", index, pos)
    lo, hi = grid_spec(red, definite)
    quantity = "pdf" if pos % 3 == 2 else "cdf"
    return Op([quantity, "--grid=" + _grid_arg(lo, hi)], _dump(doc),
              {"kind": "form_grid", "quantity": quantity, "red": red, "grid": [lo, hi]})


def quantile_op(seed: int, index: int) -> Op:
    """quantile --tol 1e-6 at p cycling 0.01, 0.5, 0.99; definite and
    indefinite forms alternate, both as reduced documents."""
    make = definite_form if index % 2 == 0 else indefinite_form
    _, red = make(seed, "quantile", index, index // 2)
    p = QUANTILE_PS[(index // 2) % 3]
    doc = dict(kind="reduced", **red)
    return Op(["quantile", "--tol", repr(QUANTILE_TOL), "--p", repr(p)], _dump(doc),
              {"kind": "quantile", "p": p, "red": red})


# seven density points, so that densities are the majority of a spec's
# twelve ops and the median op is a density, not the edge between kinds
RATIO_PDF_SLOTS = (4, 10, 15, 20, 25, 30, 36)


def ratio_ops(seed: int, index: int) -> list:
    """The twelve ops on one ratio document: the 41-point CDF grid, densities
    at seven of its points, and E[R], E[R^2] by the series and the integral
    route.  The series route converges geometrically at the rate
    (cond(B) - 1) / (cond(B) + 1); with a singular B it exits 3 at the
    seed commit on some specs (README: known defects), so singular-B
    specs ask the integral route twice."""
    doc = ratio_spec(seed, index)
    text = _dump(doc)
    lo, hi = ratio_range(doc)
    grid = np.linspace(lo, hi, GRID_POINTS)
    check = {"kind": "ratio", "spec": doc, "scale": hi - lo}
    ops = [Op(["ratio-cdf", "--grid=" + _grid_arg(lo, hi)], text,
              dict(check, quantity="ratio_cdf", grid=[lo, hi]))]
    for slot in RATIO_PDF_SLOTS:
        r = float(grid[slot])
        ops.append(Op(["ratio-pdf", "--r=" + repr(r)], text,
                      dict(check, quantity="ratio_pdf", r=r, slot=slot)))
    series_ok = not _singular(doc)
    for p in (1, 2):
        for route in ("series", "integral"):
            if route == "series" and not series_ok:
                route = "integral"
            ops.append(Op(["ratio-moment", "--p", str(p), "--ratio-method", route], text,
                          dict(check, quantity="ratio_moment", p=p)))
    return ops


def _singular(doc) -> bool:
    w = np.linalg.eigvalsh(np.asarray(doc["b"]))
    return bool(w.min() <= 1e-10 * w.max())


def op_stream(workload: str, seed: int, start: int = 0):
    """Endless op sequence of a workload, beginning at form index start."""
    index = start
    while True:
        if workload == "ratio":
            yield from ratio_ops(seed, index)
        elif workload == "quantile":
            yield quantile_op(seed, index)
        else:
            yield grid_op(seed, index)
        index += 1
