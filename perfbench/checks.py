"""Checks of op outputs: shape checks on every op, oracle checks on a
fixed subsample.

The subsample is the first ops of each run (the same ops on every run of
a seed) and a fixed set of points within each.  Reference values for the
default seed are stored in ``oracle_seed0.json``; other seeds compute them
with ``oracle`` after the timed window.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

STORE = Path(__file__).resolve().parent / "oracle_seed0.json"
DEFAULT_SEED = 0
SLACK = 1e-12                      # bound violation: |value - oracle| > bound + SLACK

# ops checked per run (by index in the run), and the grid points checked in
# each: in "grid" a CDF and a PDF grid of each form kind, in "ratio" the
# first document
CHECKED_OPS = {"grid": (0, 1, 4, 5), "quantile": (0, 1, 2, 3), "ratio": tuple(range(12))}
GRID_POINTS_CHECKED = (10, 30)
RATIO_CDF_POINTS_CHECKED = (20,)
RATIO_PDF_CHECKED = 20             # the density op at grid point 20


def shape_error(op, out: str) -> str:
    """Why a successful op's output is malformed, or '' when it is not."""
    try:
        doc = json.loads(out)
    except ValueError:
        return "output is not JSON"
    kind = op.argv[0]
    if "--grid=" in " ".join(op.argv):
        values = doc.get("values")
        if not isinstance(values, list) or len(values) != 41:
            return "grid output without 41 values"
        if not all(isinstance(v, float | int) and math.isfinite(v) for v in values):
            return "non-finite grid value"
        if kind in ("cdf", "ratio-cdf") and not all(0.0 <= v <= 1.0 for v in values):
            return "probability outside [0, 1]"
        if kind == "pdf" and min(values) < 0.0:
            return "negative density"
        return ""
    value = doc.get("value")
    if not isinstance(value, float | int) or not math.isfinite(value):
        return "non-finite value"
    if kind == "ratio-pdf" and value < 0.0:
        return "negative density"
    return ""


def _sd(red) -> float:
    w = np.asarray(red["omega"], float)
    var = float(np.sum(2.0 * w**2 * (np.asarray(red["nu"]) + 2.0 * np.asarray(red["delta2"]))))
    return math.sqrt(var + red["sigma"] ** 2)


def targets(op, out: str) -> list:
    """(key, quantity, argument, value, bound, scale) rows to check for one op.

    ``bound`` is the op's stated accuracy (None when it states none) and
    ``scale`` multiplies the error (a density's standard deviation)."""
    doc = json.loads(out)
    check = op.check
    rows = []
    if check["kind"] == "form_grid":
        lo, hi = check["grid"]
        grid = np.linspace(lo, hi, 41)
        scale = 1.0 if check["quantity"] == "cdf" else _sd(check["red"])
        for k in GRID_POINTS_CHECKED:
            rows.append((k, check["quantity"], float(grid[k]), doc["values"][k],
                         doc["error_bounds"][k], scale))
    elif check["kind"] == "quantile":
        # the oracle CDF at the returned point against p, within the
        # requested tolerance
        rows.append(("q", "quantile", doc["value"], check["p"], doc["tol"], 1.0))
    elif check["quantity"] == "ratio_cdf":
        lo, hi = check["grid"]
        grid = np.linspace(lo, hi, 41)
        for k in RATIO_CDF_POINTS_CHECKED:
            rows.append((k, "ratio_cdf", float(grid[k]), doc["values"][k],
                         doc["error_bounds"][k], 1.0))
    elif check["quantity"] == "ratio_pdf":
        rows.append(("r", "ratio_pdf", check["r"], doc["value"], None, check["scale"]))
    else:
        rows.append((f"p{check['p']}", "ratio_moment", check["p"], doc["value"],
                     doc["error_bound"], 1.0))
    return rows


def reference(op, quantity, arg):
    import oracle

    check = op.check
    if quantity in ("cdf", "pdf", "quantile"):
        red = check["red"]
        return oracle.form_value("pdf" if quantity == "pdf" else "cdf", red["omega"],
                                 red["nu"], red["delta2"], red["sigma"], red["const"], arg)
    spec = check["spec"]
    args = (spec["a"], spec["b"], spec["mu"], spec["sigma_mat"])
    if quantity == "ratio_cdf":
        return oracle.ratio_cdf(*args, arg)
    if quantity == "ratio_pdf":
        return oracle.ratio_pdf(*args, arg, check["scale"])
    return oracle.ratio_moment(*args, arg)[0]


def subsample(workload: str, records: list) -> list:
    """Indices of the records the oracle checks."""
    return [i for i in CHECKED_OPS[workload] if i < len(records)
            and (records[i]["op"].argv[0] != "ratio-pdf"
                 or records[i]["op"].check["slot"] == RATIO_PDF_CHECKED)]


def verify(workload: str, seed: int, records: list, update_store: bool = False) -> dict:
    """Oracle-check the subsample of records that exited 0.

    Returns counts and the largest errors; rows carry every checked value."""
    stored = {}
    if seed == DEFAULT_SEED and STORE.exists():
        stored = json.loads(STORE.read_text()).get(workload, {})
    import oracle

    fresh = {}
    rows = []
    unresolved = []
    for i in subsample(workload, records):
        rec = records[i]
        if rec["code"] != 0:
            continue
        for key, quantity, arg, value, bound, scale in targets(rec["op"], rec["out"]):
            # keyed by the point too: a quantile's point is the program's output
            name = f"{rec['index']}/{key}@{arg!r}"
            ref = stored.get(name)
            if ref is None:
                try:
                    ref = reference(rec["op"], quantity, arg)
                except oracle.OracleError as exc:
                    unresolved.append(f"op {rec['index']} {quantity} at {arg!r}: {exc}")
                    continue
                fresh[name] = ref
            err = abs(value - ref) * scale
            violated = bound is not None and err > bound + SLACK
            rows.append({"op": rec["index"], "argv": rec["op"].argv[0], "key": key,
                         "quantity": quantity, "at": arg, "value": value, "oracle": ref,
                         "error": err, "bound": bound, "violation": violated})
    if update_store and seed == DEFAULT_SEED and fresh:
        data = json.loads(STORE.read_text()) if STORE.exists() else {}
        data.setdefault(workload, {}).update(fresh)
        STORE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return {
        "checked": len(rows),
        "bound_violations": sum(r["violation"] for r in rows),
        "err_max": max((r["error"] for r in rows), default=0.0),
        "computed": len(fresh),
        "unresolved": unresolved,
        "rows": rows,
    }
