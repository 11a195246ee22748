"""Tests of the benchmark harness itself.

    python3 -m pytest bench

Ops run at tiny sizes here; the benchmark's own sizes are in workloads.py.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import spinctl  # noqa: E402
import spinctl.cli  # noqa: E402  (not imported by the package itself)
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Reference, closed_loop  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "integrate": {"T": 0.05},
    "trajectory_dump": {"T": 0.02},
    "propagate": {"steps": 1000, "t1": 0.2},
    "audit": {},
}


def tiny_inputs(workload, seed=0):
    return [dict(inp, **TINY[workload]) for inp in workloads.make_inputs(workload, seed)]


@pytest.fixture
def make_ops(tmp_path):
    return lambda workload: workloads.Ops(workload, tmp_path)


REFERENCE = Reference()


def one_pass(ops, workload, tracer=None):
    """At least one op: the loop always starts the first op before the deadline."""
    runs = closed_loop(ops, tiny_inputs(workload), 1e-3, REFERENCE, tracer)
    return runs if tracer is not None else runs["untraced"]


# -- inputs --------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_inputs_not_op_count(workload):
    a, b = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    assert a == workloads.make_inputs(workload, 1)
    assert a != b
    assert len(a) == len(b)


def test_configs_do_not_use_the_seed_key(make_ops):
    ops = make_ops("trajectory_dump")
    for inp in tiny_inputs("trajectory_dump"):
        ops.prepare(inp)
        assert not re.search(r"^\s*seed\s*=", ops.config_path.read_text(), re.M)


# -- smoke runs and gates --------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload, make_ops):
    run = one_pass(make_ops(workload), workload)
    assert run["attempted"] >= 1
    assert run["failed"] == 0, run["errors"]
    assert all(r > 0 for r in run["residuals"])


def _tamper_cli(monkeypatch, edit):
    """Let dispatch run, then rewrite its --out file through ``edit``."""
    real = spinctl.cli.dispatch

    def tampered(argv):
        rc = real(argv)
        out = Path(argv[argv.index("--out") + 1])
        out.write_text(edit(out.read_text()))
        return rc

    monkeypatch.setattr(spinctl.cli, "dispatch", tampered)


def _edit_row(text, edit):
    lines = text.splitlines()
    lines[3] = edit(lines[3])
    return "\n".join(lines) + "\n"


def _bump_first_coefficient(row):
    cells = row.split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    return ",".join(cells)


@pytest.mark.parametrize("edit", [
    lambda t: _edit_row(t, _bump_first_coefficient),
    lambda t: _edit_row(t, lambda row: row.replace(row.split(",")[-1], "nan")),
    lambda t: "\n".join(t.splitlines()[:-1]) + "\n",
], ids=["coefficient", "non_finite", "missing_row"])
def test_tampered_csv_fails(edit, make_ops, monkeypatch):
    _tamper_cli(monkeypatch, edit)
    run = one_pass(make_ops("trajectory_dump"), "trajectory_dump")
    assert run["failed"] == run["attempted"] >= 1


def test_flipped_resolved_token_fails(make_ops, monkeypatch):
    _tamper_cli(monkeypatch, lambda t: t.replace("RESOLVED:phase_sign=-1", "RESOLVED:phase_sign=+1"))
    run = one_pass(make_ops("audit"), "audit")
    assert run["failed"] == run["attempted"] >= 1


def test_changed_report_for_same_seed_fails(make_ops, monkeypatch):
    ops = make_ops("audit")
    inp = tiny_inputs("audit")[:1]
    assert closed_loop(ops, inp, 1e-3, REFERENCE)["untraced"]["failed"] == 0
    _tamper_cli(monkeypatch, lambda t: t.replace("16 Clifford", "17 Clifford"))
    assert closed_loop(ops, inp, 1e-3, REFERENCE)["untraced"]["failed"] == 1


def test_deviation_over_bound_fails(make_ops, monkeypatch):
    def over_bound(argv):
        print("max_deviation=2.000e-06")
        return 0

    monkeypatch.setattr(spinctl.cli, "dispatch", over_bound)
    run = one_pass(make_ops("propagate"), "propagate")
    assert run["failed"] == run["attempted"] >= 1


@pytest.mark.parametrize("workload", ["trajectory_dump", "propagate", "audit"])
def test_nonzero_exit_fails(workload, make_ops, monkeypatch):
    real = spinctl.cli.dispatch
    monkeypatch.setattr(spinctl.cli, "dispatch", lambda argv: real(argv) or 2)
    run = one_pass(make_ops(workload), workload)
    assert run["failed"] == run["attempted"] >= 1


def test_integrate_drift_over_bound_fails(make_ops, monkeypatch):
    real = spinctl.brachistochrone.integrate

    def drifting(*args, **kwargs):
        traj = real(*args, **kwargs)
        traj.h_coeffs[-1] *= 1 + 1e-7
        return traj

    monkeypatch.setattr(spinctl.brachistochrone, "integrate", drifting)
    run = one_pass(make_ops("integrate"), "integrate")
    assert run["failed"] == run["attempted"] >= 1


def test_out_bytes_counts_only_what_the_op_wrote(make_ops):
    ops = make_ops("propagate")
    ops.out_path.write_text("left over from another workload\n")
    args = ops.prepare(tiny_inputs("propagate")[0])
    result = ops.call(args)
    assert ops.out_bytes(args, result) == len(result[1].encode()) > 0


# -- tracing ---------------------------------------------------------------------

def _bindings():
    mods = [m for n, m in sys.modules.items() if n == "spinctl" or n.startswith("spinctl.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    out[("numpy.linalg", "eigh")] = np.linalg.eigh
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_restores_every_original(workload, make_ops):
    before = _bindings()
    runs = one_pass(make_ops(workload), workload, Tracer())
    assert runs["traced"]["failed"] == 0, runs["traced"]["errors"]
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_untraced_ops_see_no_wrapper(make_ops, monkeypatch):
    ops = make_ops("integrate")
    original = spinctl.brachistochrone.integrate
    seen = []
    call = ops.call

    def spying_call(args):
        seen.append(spinctl.brachistochrone.integrate is original)
        return call(args)

    monkeypatch.setattr(ops, "call", spying_call)
    runs = closed_loop(ops, tiny_inputs("integrate"), 0.2, REFERENCE, Tracer())
    assert runs["traced"]["attempted"] == runs["untraced"]["attempted"] >= 1
    assert seen == [True, False] * runs["untraced"]["attempted"]


def test_self_times_add_up_to_op_time(make_ops):
    tracer = Tracer()
    runs = one_pass(make_ops("propagate"), "propagate", tracer)
    summary = tracer.summary()
    calls, total, _ = summary["bench.op"]
    assert calls == runs["traced"]["attempted"]
    assert sum(v[2] for v in summary.values()) == pytest.approx(total, rel=1e-9)
    steps = TINY["propagate"]["steps"] * calls
    assert summary["matrixcore.expm_unitary"][0] >= steps
    assert summary["closedforms.hamiltonian"][0] >= steps
    assert tracer.counters["oracle_steps"] == steps


# -- the runner ------------------------------------------------------------------

def _run(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_runner_prints_every_declared_metric(trace, section):
    proc = _run(ROOT, "--workload", "integrate", "--seed", "0", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "integrate", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
