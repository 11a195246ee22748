"""The spinctl benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (see bench/README.md) from the checkout this file lives
in, using the package under ``src/``. With ``--trace 0`` it starts the
workload's process several times to take the median set-up time, runs
ops in a closed loop for ``--seconds`` in the last one, and reports the
end-to-end metrics. With ``--trace 1`` one process runs each input once
untraced and once traced, and reports the per-layer metrics. The
last line of stdout is the JSON result; the lines before it are a
readable table and the environment. Spans and the full result go under
``.bench_work/``. BLAS and OpenMP thread counts are pinned to 1.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORKDIR = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

#: Set-up is measured in this many fresh processes and reported as the median.
SETUPS = 5
#: Fewer ops than this leave under 10 samples above the 90th percentile.
P90_MIN_OPS = 100
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
CHILD_TIMEOUT_S = 60.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def run_worker(args, *extra: str, seconds: float = 0.0) -> dict:
    env = dict(os.environ, **{k: "1" for k in THREAD_VARS})
    cmd = [sys.executable, "-I", str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=seconds + CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"workload process timed out: {' '.join(cmd)}") from None
    if proc.returncode != 0:
        raise BenchError(f"workload process exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def op_stats(run: dict, key: str = "corrected") -> dict:
    """Throughput and latency of the ops of one closed loop, from its ``key`` latencies."""
    lat = run[key]
    done = run["attempted"] - run["failed"]
    worst = max(run["residuals"], default=0.0)
    return {
        "ops_per_s": done / sum(lat) if lat else 0.0,
        "op_ms_p50": statistics.median(lat) * 1e3 if lat else 0.0,
        "op_ms_p90": statistics.quantiles(lat, n=10)[8] * 1e3 if len(lat) >= P90_MIN_OPS else None,
        "mean_ms": sum(lat) * 1e3 / len(lat) if lat else 0.0,
        "samples": len(lat),
        "failed_ratio": run["failed"] / run["attempted"] if run["attempted"] else 1.0,
        "err_log10": math.log10(worst) if worst > 0 else None,
    }


def end_to_end(args) -> tuple[dict, dict]:
    setups = [run_worker(args, "--setup-only") for _ in range(SETUPS - 1)]
    main = run_worker(args, seconds=args.seconds)
    setups.append(main)
    run = main["untraced"]
    stats, raw = op_stats(run), op_stats(run, "latencies")
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * s["setup_speed"] for s in setups),
        "ops_per_s": stats["ops_per_s"],
        "op_ms_p50": stats["op_ms_p50"],
        "success_ratio": 1.0 - stats["failed_ratio"],
        "accuracy_digits": -stats["err_log10"] if stats["err_log10"] is not None else 0.0,
        "peak_rss_mb": main["peak_rss_mb"],
    }
    n = f"n={stats['samples']}"
    rows = [
        ("setup_s", metrics["setup_s"], statistics.median(s["setup_s"] for s in setups), "s", "lower",
         f"median of {SETUPS} processes"),
        ("ops_per_s", stats["ops_per_s"], raw["ops_per_s"], "1/s", "higher", "per second of op time"),
        ("op_ms_p50", stats["op_ms_p50"], raw["op_ms_p50"], "ms", "lower", n),
        ("op_ms_p90", stats["op_ms_p90"], raw["op_ms_p90"], "ms", "lower",
         n if stats["op_ms_p90"] is not None else f"{n} < {P90_MIN_OPS}, not reported"),
        ("failed_ratio", stats["failed_ratio"], None, "1", "lower", f"{run['failed']}/{run['attempted']}"),
        ("success_ratio", metrics["success_ratio"], None, "1", "higher", "1 - failed_ratio"),
        ("err_log10", stats["err_log10"], None, "log10", "lower", "worst accuracy residual"),
        ("accuracy_digits", metrics["accuracy_digits"], None, "digits", "higher", "-err_log10"),
        ("peak_rss_mb", metrics["peak_rss_mb"], None, "MB", "lower", "ru_maxrss"),
    ]

    def cell(v):
        return "" if v is None else f"{v:.4f}"

    lines = ["  metric           corrected    raw          unit    better  note"]
    lines += [f"  {name:<16} {cell(v):<12} {cell(r):<12} {u:<7} {b:<7} {note}"
              for name, v, r, u, b, note in rows]
    detail = {"setups": setups[:-1] + [{k: main[k] for k in ("setup_s", "setup_speed")}],
              "run": {k: run[k] for k in ("latencies", "refs")},
              "stats": stats, "raw": raw, "errors": run["errors"], "env": main["env"],
              "attempted": run["attempted"], "failed": run["failed"], "table": lines}
    return metrics, detail


def traced(args) -> tuple[dict, dict]:
    main = run_worker(args, seconds=args.seconds)
    plain, run = main["untraced"], main["traced"]
    metrics = dict(run["layers"])
    metrics["trace.untraced_op_ms"] = op_stats(plain, "latencies")["mean_ms"]
    traced_ops_per_s = op_stats(run)["ops_per_s"]
    metrics["trace.overhead_ratio"] = (op_stats(plain)["ops_per_s"] / traced_ops_per_s
                                       if traced_ops_per_s else 0.0)
    lines = [f"  {k:<44} {v:.6g}" for k, v in metrics.items()]
    detail = {"env": main["env"], "errors": plain["errors"] + run["errors"],
              "attempted": plain["attempted"] + run["attempted"],
              "failed": plain["failed"] + run["failed"], "table": lines}
    return metrics, detail


def units(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="spinctl benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "spinctl" / "__init__.py").is_file():
        print(f"error: no spinctl package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    try:
        metrics, detail = (traced if args.trace else end_to_end)(args)
        unit = units(args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    missing = set(unit) - set(metrics)
    if missing:
        print(f"error: metrics not measured: {sorted(missing)}", file=sys.stderr)
        return 1

    result = {
        "correct": detail["failed"] == 0 and detail["attempted"] > 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {name: {"value": metrics[name], "unit": u} for name, u in unit.items()},
    }
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"ops={detail['attempted']} failed={detail['failed']}")
    print("\n".join(detail["table"]))
    for err in detail["errors"]:
        print(f"  failed {err}")
    print("env: " + json.dumps(detail["env"]))
    WORKDIR.mkdir(exist_ok=True)
    (WORKDIR / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), **result, "detail": detail}, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
