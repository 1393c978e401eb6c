"""Which library functions the traced run wraps, and the per-layer metrics
computed from their spans.

Wrapping replaces module attributes, so every call that goes through a
module global or a ``module.function`` lookup is seen, including
``select.classify`` (bound by ``from .reduction import classify``) and the
``select`` module that ``inversion.quantile`` imports at run time.
"""

from __future__ import annotations

from spans import Patch, Recorder

# (module, function, span name); one span name per function
WRAPPED = (
    ("cli", "main", "cli.main"),
    ("cli", "parse_document", "cli.parse_document"),
    ("reduction", "reduce_raw", "reduction.reduce_raw"),
    ("reduction", "reduce_real", "reduction.reduce_real"),
    ("reduction", "group_eigenvalues", "reduction.group_eigenvalues"),
    ("reduction", "factor_covariance", "reduction.factor_covariance"),
    ("reduction", "classify", "reduction.classify"),
    ("select", "select_method", "select.select_method"),
    ("select", "cdf", "select.cdf"),
    ("select", "pdf", "select.pdf"),
    ("transforms", "chernoff_log_tail", "transforms.chernoff_log_tail"),
    ("series", "series_coefficients", "series.series_coefficients"),
    ("series", "partial_fractions", "series.partial_fractions"),
    ("series", "cdf_series", "series.cdf_series"),
    ("series", "pdf_series", "series.pdf_series"),
    ("series", "cdf_central_even", "series.cdf_central_even"),
    ("series", "pdf_central_even", "series.pdf_central_even"),
    ("inversion", "cdf_davies", "inversion.cdf_davies"),
    ("inversion", "cdf_imhof", "inversion.cdf_imhof"),
    ("inversion", "pdf_imhof", "inversion.pdf_imhof"),
    ("inversion", "quantile", "inversion.quantile"),
    ("approx", "saddlepoint_solve", "approx.saddlepoint_solve"),
    ("ratio", "cdf_ratio", "ratio.cdf_ratio"),
    ("ratio", "pdf_ratio_spa", "ratio.pdf_ratio_spa"),
    ("ratio", "ratio_moment_series", "ratio.ratio_moment_series"),
    ("ratio", "ratio_moment_integral", "ratio.ratio_moment_integral"),
)

# aliases bound by ``from module import name``: (module, attribute, span name)
ALIASES = (("select", "classify", "reduction.classify"),)

# MethodResult.diagnostics key counted per span
COUNT_KEYS = {
    "inversion.cdf_davies": "k_max",
    "inversion.cdf_imhof": "panels",
    "inversion.pdf_imhof": "panels",
    "series.cdf_series": "k_truncation",
    "series.pdf_series": "k_truncation",
    "ratio.ratio_moment_series": "j_truncation",
}


def _counter(name, errors):
    key = COUNT_KEYS.get(name)

    def count(span, outcome, args, kwargs):
        if isinstance(outcome, BaseException):
            span.counts["failed"] = int(isinstance(outcome, errors.ConvergenceFailureError))
            outcome = getattr(outcome, "result", None)
        if name == "select.select_method":
            span.counts["fallback"] = int(kwargs.get("tail_hint",
                                                     args[3] if len(args) > 3 else None) == "none")
        diag = getattr(outcome, "diagnostics", None)
        if key and diag and key in diag:
            span.counts[key] = int(diag[key])

    return count


def install(recorder: Recorder, quadform_modules: dict) -> Patch:
    """Wrap every function in WRAPPED and ALIASES; undo with .undo()."""
    errors = quadform_modules["errors"]
    patch = Patch(recorder)
    by_name = {}
    for mod, attr, name in WRAPPED:
        by_name[name] = patch.wrap(quadform_modules[mod], attr, name, _counter(name, errors))
    for mod, attr, name in ALIASES:
        patch.wrap(quadform_modules[mod], attr, name, fn=by_name[name])
    return patch


# name, unit, description
METRICS = (
    ("cli.self_ms", "ms/op", "cli.main outside wrapped children: argparse, JSON read/write"),
    ("cli.parse_ms", "ms/op", "cli.parse_document incl. symmetric/PSD validation"),
    ("reduction.ms", "ms/op", "reduce_raw/reduce_real/group_eigenvalues/factor_covariance"),
    ("reduction.calls", "count/op", "reduce_raw calls"),
    ("reduction.classify_calls", "count/op", "classify calls"),
    ("select.route_ms", "ms/op", "select_method incl. Chernoff pre-check"),
    ("select.points", "count/op", "outermost select.cdf/select.pdf calls"),
    ("select.fallbacks", "count/op", "saddlepoint DomainError -> generic reroutes"),
    ("transforms.chernoff_ms", "ms/op", "chernoff_log_tail: pre-check and Davies spread search"),
    ("transforms.chernoff_calls", "count/op", "chernoff_log_tail calls"),
    ("series.coeff_ms", "ms/op", "series_coefficients + partial_fractions incl."),
    ("series.coeff_calls", "count/op", "series_coefficients + partial_fractions calls"),
    ("series.terms", "count/op", "summed truncation K of cdf_series/pdf_series"),
    ("series.eval_ms", "ms/op", "series CDF/PDF evaluation outside coefficient set-up"),
    ("series.failures", "count/op", "ConvergenceFailureError from the series"),
    ("inversion.davies_ms", "ms/op", "cdf_davies self time"),
    ("inversion.davies_calls", "count/op", "cdf_davies calls"),
    ("inversion.davies_points", "count/op", "summed k_max + 1"),
    ("inversion.davies_failures", "count/op", "ConvergenceFailureError from cdf_davies"),
    ("inversion.davies_ns_per_point", "ns", "davies self time per lattice point"),
    ("inversion.imhof_ms", "ms/op", "cdf_imhof + pdf_imhof self time"),
    ("inversion.imhof_calls", "count/op", "cdf_imhof + pdf_imhof calls"),
    ("inversion.imhof_nodes", "count/op", "summed panels + 1"),
    ("inversion.imhof_failures", "count/op", "ConvergenceFailureError from Imhof"),
    ("inversion.imhof_ns_per_node", "ns", "imhof self time per node"),
    ("inversion.quantile_self_ms", "ms/op", "quantile root finding outside its CDF calls"),
    ("inversion.quantile_cdf_calls", "count", "select.cdf calls per quantile call"),
    ("approx.spa_ms", "ms/op", "saddlepoint_solve incl."),
    ("approx.spa_solves", "count/op", "saddlepoint_solve calls"),
    ("approx.domain_errors", "count/op", "DomainError from saddlepoint_solve"),
    ("ratio.cdf_self_ms", "ms/op", "cdf_ratio outside reduction/inversion children"),
    ("ratio.pdf_self_ms", "ms/op", "pdf_ratio_spa outside reduction/approx children"),
    ("ratio.pdf_calls", "count/op", "pdf_ratio_spa calls"),
    ("ratio.moment_series_ms", "ms/op", "ratio_moment_series self time"),
    ("ratio.moment_series_terms", "count/op", "summed j_truncation"),
    ("ratio.moment_integral_ms", "ms/op", "ratio_moment_integral self time"),
    ("ratio.failures", "count/op", "exceptions raised by the ratio functions"),
    ("trace.overhead", "ratio", "traced / untraced ops_per_ref_s in the same run"),
)

REDUCTION = ("reduction.reduce_raw", "reduction.reduce_real", "reduction.group_eigenvalues",
             "reduction.factor_covariance")
RATIO = ("ratio.cdf_ratio", "ratio.pdf_ratio_spa", "ratio.ratio_moment_series",
         "ratio.ratio_moment_integral")


def layer_metrics(rec: Recorder, n_ops: int, overhead: float) -> dict:
    """Per-op layer metrics from the recorded spans (see METRICS)."""
    own = rec.self_times()
    spans = rec.spans

    def self_ms(*names):
        return 1e3 * sum(own[i] for i, s in enumerate(spans) if s.name in names)

    def incl_ms(*names):
        return 1e3 * sum(s.duration for name in names for s in rec.outermost(name))

    def calls(*names):
        return sum(1 for s in spans if s.name in names)

    def total(key, *names):
        return sum(s.counts.get(key, 0) for s in spans if s.name in names)

    def errors(*names, kind=None):
        return sum(1 for s in spans if s.name in names and s.error
                   and (kind is None or s.error == kind))

    def plus_one(key, *names):
        # k_max + 1 lattice points, panels + 1 nodes; an exact early return
        # (outside the support) reports neither and evaluates nothing
        return sum(s.counts[key] + 1 for s in spans if s.name in names and key in s.counts)

    points_d = plus_one("k_max", "inversion.cdf_davies")
    nodes_i = plus_one("panels", "inversion.cdf_imhof", "inversion.pdf_imhof")
    davies_ms = self_ms("inversion.cdf_davies")
    imhof_ms = self_ms("inversion.cdf_imhof", "inversion.pdf_imhof")
    quantiles = [i for i, s in enumerate(spans) if s.name == "inversion.quantile"]
    points = [s for s in spans if s.name in ("select.cdf", "select.pdf")]
    outer_points = sum(1 for s in points
                       if s.parent < 0 or spans[s.parent].name not in ("select.cdf", "select.pdf"))
    raw = {
        "cli.self_ms": self_ms("cli.main"),
        "cli.parse_ms": incl_ms("cli.parse_document"),
        "reduction.ms": self_ms(*REDUCTION),
        "reduction.calls": calls("reduction.reduce_raw"),
        "reduction.classify_calls": calls("reduction.classify"),
        "select.route_ms": incl_ms("select.select_method"),
        "select.points": outer_points,
        "select.fallbacks": total("fallback", "select.select_method"),
        "transforms.chernoff_ms": self_ms("transforms.chernoff_log_tail"),
        "transforms.chernoff_calls": calls("transforms.chernoff_log_tail"),
        "series.coeff_ms": incl_ms("series.series_coefficients")
        + incl_ms("series.partial_fractions"),
        "series.coeff_calls": calls("series.series_coefficients", "series.partial_fractions"),
        "series.terms": total("k_truncation", "series.cdf_series", "series.pdf_series"),
        "series.eval_ms": self_ms("series.cdf_series", "series.pdf_series",
                                  "series.cdf_central_even", "series.pdf_central_even"),
        "series.failures": total("failed", "series.cdf_series", "series.pdf_series"),
        "inversion.davies_ms": davies_ms,
        "inversion.davies_calls": calls("inversion.cdf_davies"),
        "inversion.davies_points": points_d,
        "inversion.davies_failures": total("failed", "inversion.cdf_davies"),
        "inversion.imhof_ms": imhof_ms,
        "inversion.imhof_calls": calls("inversion.cdf_imhof", "inversion.pdf_imhof"),
        "inversion.imhof_nodes": nodes_i,
        "inversion.imhof_failures": total("failed", "inversion.cdf_imhof", "inversion.pdf_imhof"),
        "inversion.quantile_self_ms": self_ms("inversion.quantile"),
        "approx.spa_ms": incl_ms("approx.saddlepoint_solve"),
        "approx.spa_solves": calls("approx.saddlepoint_solve"),
        "approx.domain_errors": errors("approx.saddlepoint_solve", kind="DomainError"),
        "ratio.cdf_self_ms": self_ms("ratio.cdf_ratio"),
        "ratio.pdf_self_ms": self_ms("ratio.pdf_ratio_spa"),
        "ratio.pdf_calls": calls("ratio.pdf_ratio_spa"),
        "ratio.moment_series_ms": self_ms("ratio.ratio_moment_series"),
        "ratio.moment_series_terms": total("j_truncation", "ratio.ratio_moment_series"),
        "ratio.moment_integral_ms": self_ms("ratio.ratio_moment_integral"),
        "ratio.failures": errors(*RATIO),
    }
    n = max(n_ops, 1)
    out = {k: v / n for k, v in raw.items()}
    out["inversion.davies_ns_per_point"] = 1e6 * davies_ms / points_d if points_d else 0.0
    out["inversion.imhof_ns_per_node"] = 1e6 * imhof_ms / nodes_i if nodes_i else 0.0
    out["inversion.quantile_cdf_calls"] = (
        sum(rec.within(i, "select.cdf") for i in quantiles) / len(quantiles) if quantiles else 0.0)
    out["trace.overhead"] = overhead
    units = {name: unit for name, unit, _ in METRICS}
    return {name: {"value": out[name], "unit": units[name]} for name, _, _ in METRICS}
