"""Command-line front end.

Form specifications are JSON documents with a "kind" discriminator:

  {"kind": "reduced", "omega": [...], "nu": [...], "delta2": [...],
   "sigma": 0.0, "const": 0.0}
  {"kind": "raw", "a": [[...]], "b": [...], "c": 0.0, "mu": [...],
   "sigma_mat": [[...]]}
  {"kind": "raw_complex", ...}   (complex entries as [re, im] pairs)
  {"kind": "ratio", "a": [[...]], "b": [[...]], "mu": [...],
   "sigma_mat": [[...]]}

Results are emitted as JSON (sorted keys, so identical inputs produce
byte-identical output); --pretty renders a small table instead.  Exit
codes: 0 success, 2 invalid input, 3 convergence failure,
4 method not applicable.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import inversion, ratio, reduction, reference, select, transforms
from .errors import (
    ConvergenceFailureError,
    DegenerateConstantError,
    InvalidInputError,
    NotApplicableError,
    QuadFormError,
)
from .forms import RatioSpec, RawComplexForm, RawForm, ReducedForm


def _complex_array(values, name, ndim):
    """Array whose innermost axis holds [re, im] pairs."""
    try:
        arr = np.asarray(values, dtype=float)
    except (ValueError, TypeError):
        raise InvalidInputError(f"{name}: malformed complex array") from None
    if arr.ndim != ndim + 1 or arr.shape[-1] != 2:
        raise InvalidInputError(
            f"{name}: complex entries must be [re, im] pairs "
            f"(expected {ndim + 1}-dimensional array with trailing axis 2)"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def parse_document(doc: dict):
    """Turn a parsed JSON document into the corresponding form object."""
    if not isinstance(doc, dict) or "kind" not in doc:
        raise InvalidInputError("document must be an object with a 'kind' field")
    kind = doc["kind"]
    try:
        if kind == "reduced":
            return ReducedForm(
                np.asarray(doc["omega"], dtype=float),
                np.asarray(doc["nu"]),
                np.asarray(doc["delta2"], dtype=float),
                float(doc.get("sigma", 0.0)),
                float(doc.get("const", 0.0)),
            )
        if kind == "raw":
            return RawForm(
                np.asarray(doc["a"], dtype=float),
                np.asarray(doc["b"], dtype=float),
                float(doc.get("c", 0.0)),
                np.asarray(doc["mu"], dtype=float),
                np.asarray(doc["sigma_mat"], dtype=float),
            )
        if kind == "raw_complex":
            return RawComplexForm(
                _complex_array(doc["a"], "a", 2),
                _complex_array(doc["b"], "b", 1),
                float(doc.get("c", 0.0)),
                _complex_array(doc["mu"], "mu", 1),
                _complex_array(doc["sigma_mat"], "sigma_mat", 2),
            )
        if kind == "ratio":
            return RatioSpec(
                np.asarray(doc["a"], dtype=float),
                np.asarray(doc["b"], dtype=float),
                np.asarray(doc["mu"], dtype=float),
                np.asarray(doc["sigma_mat"], dtype=float),
            )
    except KeyError as exc:
        raise InvalidInputError(f"document is missing field {exc}") from None
    raise InvalidInputError(f"unknown document kind {kind!r}")


def _to_reduced(form) -> ReducedForm:
    if isinstance(form, ReducedForm):
        return form
    if isinstance(form, RawForm):
        return reduction.reduce_raw(form)
    if isinstance(form, RawComplexForm):
        return reduction.reduce_complex(form)
    raise InvalidInputError("this command needs a raw, raw_complex or reduced form")


def _result_payload(res, tol):
    heuristic = res.provenance in ("heuristic", "approximate")
    diag = {k: _jsonable(v) for k, v in res.diagnostics.items()}
    if heuristic and res.error_bound is not None:
        diag["error_estimate"] = res.error_bound
    return {
        "value": res.value,
        "error_bound": None if heuristic else res.error_bound,
        "method": res.method,
        "provenance": res.provenance,
        "tol": tol,
        "diagnostics": diag,
    }


def _jsonable(v):
    if isinstance(v, (np.floating, np.integer)):
        return v.item()
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    return v


def _emit(payload: dict, pretty: bool) -> None:
    if pretty:
        _emit_pretty(payload)
    else:
        json.dump(payload, sys.stdout, sort_keys=True, allow_nan=True)
        sys.stdout.write("\n")


def _emit_pretty(payload: dict, indent: int = 0) -> None:
    pad = " " * indent
    for key in sorted(payload):
        val = payload[key]
        if isinstance(val, dict):
            print(f"{pad}{key}:")
            _emit_pretty(val, indent + 2)
        else:
            print(f"{pad}{key:<18} {val}")


def _parse_grid(spec: str):
    try:
        start, stop, count = spec.split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise InvalidInputError("--grid expects start:stop:count") from None
    if count < 1:
        raise InvalidInputError("--grid count must be >= 1")
    return np.linspace(start, stop, count)


def _load(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InvalidInputError(f"no such file: {path}") from None
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"malformed JSON in {path}: {exc}") from None


def _load_form(args):
    """The form of ``args.document``.  Documents may carry their own
    method/tol; explicit flags win (an unset flag is None).  The tol, from
    either, must be finite and positive."""
    doc = _load(args.document)
    form = parse_document(doc)
    if getattr(args, "method", "") is None:
        args.method = doc.get("method", "auto")
        if args.method not in select.CDF_METHODS:
            raise InvalidInputError(f"unknown document method {args.method!r}")
    tol = doc.get("tol", 1e-8) if args.tol is None else args.tol
    try:
        args.tol = float(tol)
    except (TypeError, ValueError):
        args.tol = math.nan
    if not 0.0 < args.tol < math.inf:
        raise InvalidInputError(f"tol must be a finite positive number, not {tol!r}")
    return form


def cmd_reduce(args) -> dict:
    form = parse_document(_load(args.document))
    if isinstance(form, RatioSpec):
        raise InvalidInputError("reduce applies to quadratic forms, not ratios")
    try:
        red = _to_reduced(form)
    except DegenerateConstantError as exc:
        return {"kind": "constant", "value": exc.value}
    cls = reduction.classify(red)
    return {
        "kind": "reduced",
        "omega": red.omega.tolist(),
        "nu": red.nu.tolist(),
        "delta2": red.delta2.tolist(),
        "sigma": red.sigma_gauss,
        "const": red.const,
        "classification": {
            "centrality": cls.centrality,
            "definiteness": cls.definiteness,
            "has_gaussian": cls.has_gaussian,
            "even_degrees": cls.even_degrees,
        },
    }


def cmd_cdf(args, quantity="cdf") -> dict:
    red = _to_reduced(_load_form(args))
    fn = select.cdf if quantity == "cdf" else select.pdf
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        return _grid_payload(quantity, grid, fn(red, grid, args.method, args.tol), args.tol)
    if args.q is None:
        raise InvalidInputError("provide --q or --grid")
    res = fn(red, args.q, args.method, args.tol)
    out = _result_payload(res, args.tol)
    out["quantity"] = quantity
    out["q"] = args.q
    return out


def cmd_pdf(args) -> dict:
    return cmd_cdf(args, quantity="pdf")


def cmd_quantile(args) -> dict:
    red = _to_reduced(_load_form(args))
    q = inversion.quantile(red, args.p, tol=args.tol, method=args.method)
    check = select.cdf(red, q, args.method, args.tol)
    return {
        "quantity": "quantile",
        "p": args.p,
        "value": q,
        "cdf_at_value": check.value,
        "method": check.method,
        "tol": args.tol,
    }


def cmd_moments(args) -> dict:
    red = _to_reduced(parse_document(_load(args.document)))
    ks = transforms.cumulants(red, args.order)
    return {
        "quantity": "moments",
        "order": args.order,
        "values": transforms.raw_moments(ks).tolist(),
    }


def cmd_cumulants(args) -> dict:
    red = _to_reduced(parse_document(_load(args.document)))
    return {
        "quantity": "cumulants",
        "order": args.order,
        "values": transforms.cumulants(red, args.order).kappa.tolist(),
    }


def _need_ratio(form) -> RatioSpec:
    if not isinstance(form, RatioSpec):
        raise InvalidInputError("this command needs a document of kind 'ratio'")
    return form


def _grid_payload(quantity: str, grid, results, tol) -> dict:
    payloads = [_result_payload(res, tol) for res in results]
    return {"quantity": quantity, "grid": [float(x) for x in grid],
            "values": [p["value"] for p in payloads],
            "error_bounds": [p["error_bound"] for p in payloads],
            "methods": [res.method for res in results], "tol": tol}


def cmd_ratio_cdf(args) -> dict:
    spec = _need_ratio(_load_form(args))
    method = args.method
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        results = [ratio.cdf_ratio(spec, float(r), method=method, tol=args.tol)
                   for r in grid]
        return _grid_payload("ratio_cdf", grid, results, args.tol)
    if args.r is None:
        raise InvalidInputError("provide --r or --grid")
    res = ratio.cdf_ratio(spec, args.r, method=method, tol=args.tol)
    out = _result_payload(res, args.tol)
    out["quantity"] = "ratio_cdf"
    out["r"] = args.r
    return out


def cmd_ratio_pdf(args) -> dict:
    spec = _need_ratio(_load_form(args))
    if args.grid is not None:
        grid = _parse_grid(args.grid)
        results = ratio.pdf_ratio_spa_grid(spec, grid)
        return _grid_payload("ratio_pdf", grid, results, args.tol)
    if args.r is None:
        raise InvalidInputError("provide --r or --grid")
    res = ratio.pdf_ratio_spa(spec, args.r)
    out = _result_payload(res, args.tol)
    out["quantity"] = "ratio_pdf"
    out["r"] = args.r
    return out


def cmd_ratio_moment(args) -> dict:
    spec = _need_ratio(_load_form(args))
    if args.method == "integral":
        res = ratio.ratio_moment_integral(spec, args.p,
                                          quadrature_tol=args.quadrature_tol)
    else:
        res = ratio.ratio_moment_series(spec, args.p, j_max=args.max_terms,
                                        tol=args.tol)
    out = _result_payload(res, args.tol)
    out["quantity"] = "ratio_moment"
    out["p"] = args.p
    return out


def cmd_mc_check(args) -> dict:
    form = _load_form(args)
    if isinstance(form, RatioSpec):
        raise InvalidInputError("mc-check applies to quadratic forms")
    mc = reference.mc_cdf(form, args.q, n=args.n, seed=args.seed)
    red = _to_reduced(form)
    res = select.cdf(red, args.q, args.method, args.tol)
    se = max(mc.std_error, 1e-300)
    return {
        "quantity": "mc_check",
        "q": args.q,
        "mc_estimate": mc.estimate,
        "mc_std_error": mc.std_error,
        "mc_n": mc.n,
        "seed": mc.seed,
        "generator": mc.generator,
        "method": res.method,
        "method_value": res.value,
        "z_score": (res.value - mc.estimate) / se,
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadform",
        description="Distributions and moments of Gaussian quadratic forms and their ratios",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_method=True, with_tol=True):
        p.add_argument("document", help="JSON form specification")
        if with_tol:
            p.add_argument("--tol", type=float, default=None)
        p.add_argument("--pretty", action="store_true")
        if with_method:
            p.add_argument("--method", default=None, choices=select.CDF_METHODS)

    p = sub.add_parser("reduce", help="canonical reduced parameters")
    common(p, with_method=False, with_tol=False)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("cdf", help="cumulative distribution function")
    common(p)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.set_defaults(fn=cmd_cdf)

    p = sub.add_parser("pdf", help="probability density function")
    common(p)
    p.add_argument("--q", type=float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.set_defaults(fn=cmd_pdf)

    p = sub.add_parser("quantile", help="inverse CDF")
    common(p)
    p.add_argument("--p", type=float, required=True)
    p.set_defaults(fn=cmd_quantile)

    p = sub.add_parser("moments", help="raw moments from cumulants")
    common(p, with_method=False, with_tol=False)
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=cmd_moments)

    p = sub.add_parser("cumulants", help="cumulants of the form")
    common(p, with_method=False, with_tol=False)
    p.add_argument("--order", type=int, default=4)
    p.set_defaults(fn=cmd_cumulants)

    p = sub.add_parser("ratio-cdf", help="CDF of a ratio of forms")
    common(p)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.set_defaults(fn=cmd_ratio_cdf)

    p = sub.add_parser("ratio-pdf", help="saddlepoint density of a ratio")
    common(p, with_method=False)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--grid", default=None, help="start:stop:count")
    p.set_defaults(fn=cmd_ratio_pdf)

    p = sub.add_parser("ratio-moment", help="moments of a ratio")
    common(p, with_method=False)
    p.add_argument("--p", dest="p", type=int, required=True)
    p.add_argument("--ratio-method", dest="method", default="auto",
                   choices=("auto", "series", "integral"))
    p.add_argument("--max-terms", dest="max_terms", type=int, default=500)
    p.add_argument("--quadrature-tol", dest="quadrature_tol", type=float, default=1e-10)
    p.set_defaults(fn=cmd_ratio_moment)

    p = sub.add_parser("mc-check", help="compare a method against Monte Carlo")
    common(p)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--n", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_mc_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload = args.fn(args)
    except DegenerateConstantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except ConvergenceFailureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.result is not None:
            _emit(_result_payload(exc.result, getattr(args, "tol", None)),
                  getattr(args, "pretty", False))
        return exc.exit_code
    except (NotApplicableError, InvalidInputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except QuadFormError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(payload, args.pretty)
    return 0


if __name__ == "__main__":
    sys.exit(main())
