"""The process of one workload run: set up, then run ops in a closed loop.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

One caller issues each op only after the previous one completed. Set-up
(importing spinctl, filling the basis cache, one untimed op) is timed
first; with ``--setup-only`` the process stops there. Otherwise it runs
ops for ``--seconds``: untraced, or with ``--trace 1`` each input once
untraced and once traced. It prints one JSON object on stdout.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402  (standard library only)


class Reference:
    """A fixed CPU task timed around every op, to correct for the host's speed.

    The host's speed drifts by tens of percent from one minute to the next.
    Small numpy calls and interpreted Python, the mix spinctl's ops are made
    of, slow down together, so an op's latency divided by the time of this
    task next to it is steady. ``speed`` is NOMINAL_S over the measured time:
    a duration multiplied by it reads as it would on a host where this task
    takes NOMINAL_S.
    """

    NOMINAL_S = 1e-3
    ROUNDS = 100

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.np = np
        self.a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        self.m = rng.standard_normal((15, 4, 11))
        self.x, self.y = rng.standard_normal(4), rng.standard_normal(11)

    def __call__(self) -> float:
        np, a, m, x, y = self.np, self.a, self.m, self.x, self.y
        start = time.perf_counter()
        for _ in range(self.ROUNDS):
            b = a @ a
            b = b - b.conj().T
            np.einsum("kab,a,b->k", m, x, y)
            acc = 0.0
            for i in range(20):
                acc += i * 0.5
        return time.perf_counter() - start

    def speed(self) -> float:
        """Host speed now: NOMINAL_S over the median of three timings of the task."""
        return self.NOMINAL_S / sorted(self() for _ in range(3))[1]


def closed_loop(ops, inputs, seconds: float, reference: Reference, tracer=None) -> dict:
    """Run ops back to back until ``seconds`` have passed.

    Only the program call is timed; preparing inputs, the reference task
    timed before and after each op, and the gates are not. Any exception
    from the call or the gate counts the op as failed.

    With a tracer, each input runs twice in a row: untraced, then traced
    with the tracer installed for that op only. Both halves see the same
    inputs on the same host, so their ratio is the tracing overhead.
    """
    runs = {"untraced": _new_run()}
    if tracer is not None:
        runs["traced"] = _new_run()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        inp = inputs[i % len(inputs)]
        _one_op(runs["untraced"], ops, inp, reference)
        if tracer is not None:
            _one_op(runs["traced"], ops, inp, reference, tracer, i)
        i += 1
    return runs


def _new_run() -> dict:
    return {"attempted": 0, "failed": 0, "latencies": [], "corrected": [], "refs": [],
            "residuals": [], "errors": []}


def _one_op(run: dict, ops, inp, reference: Reference, tracer=None, op_id: int = 0) -> None:
    clock = time.perf_counter
    args = ops.prepare(inp)
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        before = reference()
        start = clock()
        try:
            out = ops.call(args) if tracer is None else tracer.run_op(op_id, ops.call, args)
            call_error = None
        except Exception as exc:  # a failing op is a result, not a crash
            call_error = exc
        latency = clock() - start
        after = reference()
    run["attempted"] += 1
    run["latencies"].append(latency)
    run["refs"].append((before, after))
    run["corrected"].append(latency * reference.NOMINAL_S * 2 / (before + after))
    try:
        if call_error is not None:
            raise call_error
        run["residuals"].append(ops.check(inp, args, out))
        if tracer is not None:
            tracer.counters["out_bytes"] += ops.out_bytes(args, out)
    except Exception as exc:
        run["failed"] += 1
        if len(run["errors"]) < 5:
            run["errors"].append(f"op {run['attempted'] - 1}: {type(exc).__name__}: {exc}")


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.25 has no dict mode
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def layer_metrics(tracer, ops_done: int, check_ids, cache) -> dict:
    """Per-op layer metrics of the traced phase (per-call and per-step times in us)."""
    from tracer import LAYERS, ROOT_SPAN

    s = tracer.summary()
    c = tracer.counters
    n = max(ops_done, 1)
    none = (0, 0.0, 0.0)

    def calls(name):
        return s.get(name, none)[0] / n

    def ms(name):
        return s.get(name, none)[1] * 1e3 / n

    def self_ms(name):
        return s.get(name, none)[2] * 1e3 / n

    def ratio(num, den):
        return num / den if den else 0.0

    integ = s.get("brachistochrone.integrate", none)
    expm = s.get("matrixcore.expm_unitary", none)
    product = s.get("oracle.time_ordered_exponential", none)
    m = {
        "brachistochrone.integrate.calls": calls("brachistochrone.integrate"),
        "brachistochrone.integrate.self_ms": self_ms("brachistochrone.integrate"),
        "brachistochrone.rk4_steps": c["rk4_steps"] / n,
        "brachistochrone.us_per_step": ratio(integ[2] * 1e6, c["rk4_steps"]),
        "brachistochrone.samples": c["samples"] / n,
        "generators.reconstruct.calls": calls("generators.reconstruct"),
        "generators.reconstruct.ms": ms("generators.reconstruct"),
        "generators.project_coefficients.calls": calls("generators.project_coefficients"),
        "generators.project_coefficients.ms": ms("generators.project_coefficients"),
        "generators.build_basis.hit_ratio": ratio(cache.hits, cache.hits + cache.misses),
        "cli.dispatch.self_ms": self_ms("cli.dispatch"),
        "cli.parse_config.ms": ms("cli.parse_config"),
        "cli.out_bytes": c["out_bytes"] / n,
        "matrixcore.expm_unitary.calls": calls("matrixcore.expm_unitary"),
        "matrixcore.expm_unitary.us_per_call": ratio(expm[1] * 1e6, expm[0]),
        "matrixcore.expm_unitary.fast_path_ratio": ratio(expm[0] - c["eigh"], expm[0]),
        "matrixcore.as_operator.calls": calls("matrixcore.as_operator"),
        "closedforms.hamiltonian.calls": calls("closedforms.hamiltonian"),
        "closedforms.hamiltonian.ms": ms("closedforms.hamiltonian"),
        "closedforms.propagator.calls": calls("closedforms.propagator"),
        "oracle.time_ordered_exponential.calls": calls("oracle.time_ordered_exponential"),
        "oracle.time_ordered_exponential.self_ms": self_ms("oracle.time_ordered_exponential"),
        "oracle.steps": c["oracle_steps"] / n,
        "oracle.us_per_step": ratio(product[1] * 1e6, c["oracle_steps"]),
        "oracle.schrodinger_propagator.ms": ms("oracle.schrodinger_propagator"),
    }
    for cid in check_ids:
        m[f"audit.{cid}.ms"] = ms(f"audit.{cid}")
        m[f"audit.{cid}.max_err"] = c[f"audit.{cid}.max_err"]
    for layer in ("bench", *LAYERS):
        m[f"layer.{layer}.self_ms"] = sum(v[2] for k, v in s.items() if k.startswith(layer + ".")) * 1e3 / n
    m["trace.op_ms"] = ms(ROOT_SPAN)
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    inputs = workloads.make_inputs(args.workload, args.seed)

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import spinctl

    if Path(spinctl.__file__).resolve().parent != SRC / "spinctl":
        raise SystemExit(f"imported spinctl from {spinctl.__file__}, not from {SRC}")
    ops = workloads.Ops(args.workload, WORKDIR)
    ops.warm()
    first = ops.prepare(inputs[0])
    ops.check(inputs[0], first, ops.call(first))
    setup_s = time.perf_counter() - t0
    # numpy is part of the timed import, so the host speed is taken just after.
    reference = Reference()
    result: dict = {"setup_s": setup_s, "setup_speed": reference.speed()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
        result.update(closed_loop(ops, inputs, args.seconds, reference, tracer))
        if tracer is not None:
            cache = ops.generators.build_basis.cache_info()
            traced = result["traced"]
            traced["layers"] = layer_metrics(tracer, traced["attempted"], ops.check_ids, cache)
            tracer.save(WORKDIR / f"spans-{args.workload}.npz")
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
