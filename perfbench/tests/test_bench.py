"""Benchmark self-tests: seeded inputs, tracing transparency, failure
accounting and the printed result line."""

import json
import subprocess
import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Recorder  # noqa: E402

from quadform import (  # noqa: E402
    approx, cli, errors, inversion, ratio, reduction, select, series, transforms,
)

MODULES = {"cli": cli, "reduction": reduction, "select": select, "transforms": transforms,
           "series": series, "inversion": inversion, "approx": approx, "ratio": ratio,
           "errors": errors}


def ops(workload, seed, count, start=0):
    return list(islice(workloads.op_stream(workload, seed, start), count))


def test_same_seed_gives_identical_documents():
    for wl in workloads.WORKLOADS:
        first = [(op.argv, op.doc) for op in ops(wl, 7, 4)]
        again = [(op.argv, op.doc) for op in ops(wl, 7, 4)]
        other = [(op.argv, op.doc) for op in ops(wl, 8, 4)]
        assert first == again
        assert first != other


def cheap_ops():
    """A few fast ops covering every layer family."""
    grid = ops("grid", 3, 24)
    picked = [op for op in grid[1::2] if op.check["red"]["sigma"] > 0][:1]
    picked += ops("quantile", 3, 2)
    spec_ops = ops("ratio", 3, 12)
    picked += [spec_ops[0]] + spec_ops[-2:]
    picked += [op for op in grid[::2] if sum(op.check["red"]["nu"]) < 30][:2]
    return picked


def test_outputs_identical_with_and_without_tracing(tmp_path):
    picked = cheap_ops()
    plain = [run.run_op(cli, op, tmp_path / "doc.json") for op in picked]
    rec = Recorder()
    patch = layers.install(rec, MODULES)
    try:
        traced = [run.run_op(cli, op, tmp_path / "doc.json") for op in picked]
    finally:
        patch.undo()
    assert [(c, out) for c, _, out, _ in plain] == [(c, out) for c, _, out, _ in traced]
    names = {s.name for s in rec.spans}
    assert {"cli.main", "select.cdf", "ratio.cdf_ratio", "inversion.quantile"} <= names
    assert cli.main.__module__ == "quadform.cli" and not hasattr(cli.main, "__wrapped__")


def test_failed_op_counts_in_fail_rate_and_wall_time(tmp_path):
    spec_ops = ops("ratio", 5, 12)
    good = spec_ops[-1]
    bad = workloads.Op(["ratio-moment", "--p", "2", "--ratio-method", "series",
                        "--max-terms", "1"], good.doc, good.check)
    records = run.window(cli, iter([bad, good]), 1e-9, tmp_path)
    records += run.window(cli, iter([good]), 1e-9, tmp_path, first_index=1)
    assert [r["code"] for r in records] == [3, 0]
    summary = run.summarize(records, [1.0], 100.0, {"bound_violations": 0, "err_max": 0.0})
    assert summary["failed"] == 1 and summary["values"]["fail_rate"] == 0.5
    assert summary["wall_s"] == records[0]["seconds"] + records[1]["seconds"]
    assert summary["values"]["ops_per_s"] == 1 / summary["wall_s"]


def last_line(*extra):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "quantile",
                           "--seed", "0", "--seconds", "1", *extra],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, json.loads(proc.stdout.splitlines()[-1])


def test_every_benchmark_metric_is_printed_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out, res = last_line("--trace", "0")
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
    for name, unit in run.END_TO_END:
        assert f"{name}" in out and unit in out
    out, res = last_line("--trace", "1")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {k: v["unit"] for k, v in res["metrics"].items()}
