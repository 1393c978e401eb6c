#!/usr/bin/env python3
"""Seeded benchmark of the quadform command line, end to end and per layer.

    python3 perfbench/run.py --workload grid --seed 3 --seconds 22
    python3 perfbench/run.py --workload all --seed 0            # every workload
    python3 perfbench/run.py --workload ratio --trace 1         # per-layer run

One process, one client, closed loop: each op is one in-process
``quadform.cli.main(argv)`` call on a JSON document new to the process,
and the next op starts when it returns.  The timed window ends once the
ops have been busy for ``--seconds`` of reference time (see REF_RATE).  Outputs are checked for shape on
every op and against the independent oracle (``oracle.py``) on a fixed
subsample, after the window.  With ``--trace 1`` the first half of the
window runs plain and the second half with every layer wrapped
(``layers.py``); it reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Full results, the environment
record and (traced) the spans go to .perfbench/results/ at the
repository root.
"""

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from itertools import islice  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
WORKLOADS = ("grid", "quantile", "ratio")

SETUP_SAMPLES = 3
WARMUP_OPS = 2
WARMUP_BASE = 1_000_000      # warm-up and set-up forms lie outside the timed list
SETUP_BASE = 2_000_000

# (name, unit); the gated ones are the end_to_end metrics of BENCHMARK.json
END_TO_END = (
    ("ops_per_ref_s", "ops/ref-s"),
    ("op_ref_ms_p50", "ref-ms"),
    ("op_ref_ms_tail", "ref-ms"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("fail_rate", "fraction"),
    ("bound_violations", "count"),
    ("err_max", "unitless"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
GATED = ("ops_per_ref_s", "op_ref_ms_p50", "op_ref_ms_tail", "setup_s", "peak_rss_mb")
# calibration loops per second of the reference machine: an op's reference
# time is its wall time times (the CPU's calibration rate / REF_RATE)
REF_RATE = 6000.0


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def _spin(seconds: float) -> int:
    """Loop iterations of a fixed pure-Python kernel in the given time."""
    count, end = 0, time.perf_counter() + seconds
    while time.perf_counter() < end:
        acc = 0
        for i in range(2000):
            acc += i * i % 7
        count += 1
    return count


CPUS = sorted(os.sched_getaffinity(0))
REPIN_SECONDS = 2.0          # how often the window re-picks its CPU


def pin_fastest_cpu(rounds: int = 3, probe: float = 0.1) -> dict:
    """Pin this process (and the probes it starts) to the usable CPU that
    runs a calibration loop fastest right now.

    On a shared host the CPUs of a small VM slow down by tens of percent
    while neighbours load them, and a single-threaded process keeps the
    speed of whichever CPU it sits on.  The timed window re-picks every
    REPIN_SECONDS between ops, so it follows the least contended CPU."""
    rates = {cpu: 0 for cpu in CPUS}
    for _ in range(rounds):
        for cpu in CPUS:
            os.sched_setaffinity(0, {cpu})
            rates[cpu] = max(rates[cpu], _spin(probe))
    best = max(CPUS, key=rates.get)
    os.sched_setaffinity(0, {best})
    return {"cpus_usable": len(CPUS), "cpu": best, "calibration_rates": rates,
            "rate": rates[best] / probe}


def run_op(cli, op, path: Path):
    """One cli.main call; returns (exit code, seconds, stdout, stderr)."""
    path.write_text(op.doc)
    argv = [op.argv[0], str(path), *op.argv[1:]]
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a failed op, not a benchmark error
        code = 1
        err.write(f"{type(exc).__name__}: {exc}")
    return code, time.perf_counter() - t0, out.getvalue(), err.getvalue()


def window(cli, stream, seconds: float, work: Path, first_index: int = 0,
           keep: int = 0, recorder=None) -> list:
    """Run ops from stream until they have been busy for seconds of
    reference time, so a run holds about the same ops on a fast and on a
    slow host, and the tail percentile does not move with the host.

    Document generation and output checks happen between ops and are not
    timed.  Outputs of the first ``keep`` ops are kept for the oracle.
    Each record carries the calibration rate of its CPU, measured at most
    REPIN_SECONDS before the op."""
    import checks

    records = []
    busy = 0.0
    hard_stop = time.monotonic() + 3.0 * seconds + 30.0
    rate = pin_fastest_cpu(rounds=1, probe=0.05)["rate"]
    repin = time.monotonic() + REPIN_SECONDS
    index = first_index
    while busy < seconds and time.monotonic() < hard_stop:
        if time.monotonic() >= repin:
            rate = pin_fastest_cpu(rounds=1, probe=0.05)["rate"]
            repin = time.monotonic() + REPIN_SECONDS
        op = next(stream)
        if recorder is not None:
            recorder.op = index
        code, dt, out, err = run_op(cli, op, work / "doc.json")
        busy += dt * rate / REF_RATE
        records.append({
            "index": index, "op": op, "code": code, "seconds": dt, "rate": rate,
            "out": out if index < keep else "",
            "shape": checks.shape_error(op, out) if code == 0 else "",
            "stderr": err.strip()[:200],
        })
        index += 1
    return records


def setup_seconds(workloads, wl: str, seed: int, work: Path) -> list:
    """Fresh-process set-up times: import quadform plus the first op's lazy
    imports, i.e. import + first op - the same op run again."""
    op = next(workloads.op_stream(wl, seed, SETUP_BASE))
    path = work / "setup.json"
    path.write_text(op.doc)
    argv = [str(HERE / "probe.py"), str(SRC), str(path), *op.argv]
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                              timeout=150, cwd=ROOT)
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) < 2:
            _fail(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
        first, second = float(lines[-2]), float(lines[-1])
        samples.append(first - second)
    return samples


def latency(seconds) -> dict:
    times = sorted(seconds)
    n = len(times)
    beyond = 10 if n > 10 else 0
    return {
        "p50_ms": 1e3 * statistics.median(times),
        "tail_ms": 1e3 * times[n - 1 - beyond],
        "tail_percentile": 100.0 * (n - beyond) / n,
        "samples": n,
    }


def ref_seconds(records) -> list:
    """Op times in reference seconds: what the op would take on a CPU whose
    calibration loop runs at REF_RATE."""
    return [r["seconds"] * r["rate"] / REF_RATE for r in records]


def summarize(records, setup, rss_mb, check) -> dict:
    attempted = len(records)
    failed = sum(r["code"] != 0 for r in records)
    wall = sum(r["seconds"] for r in records)
    ref = ref_seconds(records)
    lat = latency([r["seconds"] for r in records])
    ref_lat = latency(ref)
    values = {
        "ops_per_ref_s": (attempted - failed) / sum(ref),
        "op_ref_ms_p50": ref_lat["p50_ms"],
        "op_ref_ms_tail": ref_lat["tail_ms"],
        "ops_per_s": (attempted - failed) / wall,
        "op_ms_p50": lat["p50_ms"],
        "op_ms_tail": lat["tail_ms"],
        "fail_rate": failed / attempted,
        "bound_violations": check["bound_violations"],
        "err_max": check["err_max"],
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }
    return {"values": values, "latency": lat, "attempted": attempted, "failed": failed,
            "wall_s": wall}


def environment(seed: int) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "omp_threads": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit or None,
    }


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import checks
    import workloads
    from quadform import approx, cli, errors, inversion, ratio, reduction, select, series
    from quadform import transforms

    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"quadform was imported from {cli.__file__}, not from {SRC}")
    wl, seed = args.workload, args.seed
    work = WORK / "work" / f"{wl}-{seed}-{args.trace}-{os.getpid()}"
    results = WORK / "results"
    work.mkdir(parents=True, exist_ok=True)
    results.mkdir(parents=True, exist_ok=True)

    placement = pin_fastest_cpu()
    setup = setup_seconds(workloads, wl, seed, work)
    for op in islice(workloads.op_stream(wl, seed, WARMUP_BASE), WARMUP_OPS):
        run_op(cli, op, work / "doc.json")

    keep = max(checks.CHECKED_OPS[wl]) + 1
    stream = workloads.op_stream(wl, seed)
    layer = None
    if args.trace:
        import layers
        from spans import Recorder

        plain = window(cli, stream, args.seconds / 2, work, keep=keep)
        rec = Recorder()
        mods = {"cli": cli, "reduction": reduction, "select": select,
                "transforms": transforms, "series": series, "inversion": inversion,
                "approx": approx, "ratio": ratio, "errors": errors}
        patch = layers.install(rec, mods)
        try:
            traced = window(cli, stream, args.seconds / 2, work, first_index=len(plain),
                            recorder=rec)
        finally:
            patch.undo()
        records = plain + traced

        def rate(rs):
            return sum(r["code"] == 0 for r in rs) / sum(ref_seconds(rs))

        layer = layers.layer_metrics(rec, len(traced), rate(traced) / rate(plain))
    else:
        records = window(cli, stream, args.seconds, work, keep=keep)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    check = checks.verify(wl, seed, records, update_store=args.store_oracle)
    summary = summarize(records, setup, rss_mb, check)
    shape = [r for r in records if r["shape"]]
    # accuracy is measured (bound_violations, err_max), not gated: the seed
    # commit already misses stated bounds (README: known defects)
    correct = not shape

    units = dict(END_TO_END)
    lat = summary["latency"]
    notes = {
        "op_ref_ms_p50": f"n={lat['samples']}",
        "op_ref_ms_tail": f"p{lat['tail_percentile']:.1f}, n={lat['samples']}",
        "op_ms_p50": f"n={lat['samples']}",
        "op_ms_tail": f"p{lat['tail_percentile']:.1f}, n={lat['samples']}",
        "fail_rate": f"{summary['failed']}/{summary['attempted']}",
        "bound_violations": f"of {check['checked']} checked values",
        "err_max": f"over {check['checked']} checked values",
        "setup_s": f"median of {len(setup)}",
    }
    print(f"# {wl} seed={seed} seconds={args.seconds} trace={args.trace}")
    for name, unit in END_TO_END:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{wl:16s} {name:18s} {summary['values'][name]:.6g} {unit}{note}")
    for r in shape:
        print(f"{wl:16s} malformed output of op {r['index']} ({r['op'].argv[0]}): {r['shape']}")
    for text in check["unresolved"]:
        print(f"{wl:16s} oracle unresolved, value not checked: {text}")
    for row in check["rows"]:
        if row["violation"]:
            print(f"{wl:16s} bound violation op {row['op']} {row['quantity']} at "
                  f"{row['at']:.6g}: error {row['error']:.3e} > bound {row['bound']:.3e}")
    if layer:
        for name, m in layer.items():
            print(f"{wl:16s} {name:32s} {m['value']:.6g} {m['unit']}")

    tag = f"{wl}-seed{seed}-trace{args.trace}"
    record = {
        "workload": wl, "seed": seed, "seconds": args.seconds, "trace": args.trace,
        "environment": dict(environment(seed), **placement),
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in summary["values"].items()},
        "latency": lat, "attempted": summary["attempted"], "failed": summary["failed"],
        "correct": correct, "per_layer": layer,
        "checks": check["rows"], "malformed": [(r["index"], r["shape"]) for r in shape],
        "ops": [[r["index"], r["op"].argv[0], r["code"], r["seconds"], r["rate"], r["stderr"]]
                for r in records],
    }
    (results / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        (results / f"{tag}-spans.json").write_text(json.dumps(rec.rows()) + "\n")
    for path in work.iterdir():
        path.unlink()
    work.rmdir()

    metrics = layer if args.trace else {
        k: {"value": summary["values"][k], "unit": units[k]} for k in GATED}
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"{wl} failed: {proc.stderr.strip()[-300:]}")
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{wl}.{name}"] = m
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--store-oracle", action="store_true",
                        help="write newly computed oracle values of seed 0 to oracle_seed0.json")
    args = parser.parse_args(argv)
    if not (SRC / "quadform" / "__init__.py").is_file():
        _fail(f"no quadform sources under {SRC}")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
