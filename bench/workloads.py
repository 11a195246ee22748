"""Seeded inputs, ops and correctness gates of the spinctl benchmark.

``make_inputs`` is standard-library only, so a workload process can build
its inputs before it imports (and times the import of) spinctl. ``Ops``
runs one op against the imported package and checks its output: ``call``
is the timed part, ``prepare`` and ``check`` are not.

Every workload cycles through a fixed list of inputs. Its length and
composition do not depend on the seed, only the values do, so runs with
different seeds do the same amount of work per cycle. Gates parse only
what the planned changes to the program keep stable: coefficient
columns and the ``trH2``/``trF2`` channels by name, the ``max_deviation=``
field, and the ``CHECK <id> <status>`` prefix plus ``max_err=``.
"""
from __future__ import annotations

import contextlib
import io
import math
import random
import re
from pathlib import Path

WORKLOADS = ("integrate", "trajectory_dump", "propagate", "audit")
GROUPS = ("su2", "su3", "su4")
BASIS_SIZE = {"su2": 3, "su3": 8, "su4": 15}
#: |S| of the seeded random splits; fixed so that every seed costs the same.
RANDOM_SPLIT_SIZE = {"su2": 2, "su3": 3, "su4": 5}
STARTS_PER_SWEEP = 8

INTEGRATE_SIZE = {"h": 1e-3, "T": 2.0, "stride": 250}
DUMP_SIZE = {"h": 1e-3, "T": 0.5, "stride": 1}
PROPAGATE_STEPS = 10_000
PROPAGATES_PER_FAMILY = 4
AUDIT_SEEDS = 16

#: Criterion 07's bound on Tr H^2 / Tr F^2 drift.
DRIFT_BOUND = 1e-8
#: Criterion 09's bound on the oracle vs rotating-frame gap.
DEVIATION_BOUND = 1e-6
#: Printed trH2/trF2 against the same sums over the printed coefficients.
MONITOR_MATCH_TOL = 1e-10


class GateError(Exception):
    """An op's output failed its correctness gate."""


def make_inputs(workload: str, seed: int) -> list[dict]:
    """One cycle of op inputs for ``workload``; the same seed gives the same list."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    if workload == "integrate":
        return _sweeps(rng, INTEGRATE_SIZE)
    if workload == "trajectory_dump":
        return _sweeps(rng, DUMP_SIZE)
    if workload == "propagate":
        return _propagations(rng)
    return [{"audit_seed": rng.randrange(1_000_000)} for _ in range(AUDIT_SEEDS)]


def _sweeps(rng: random.Random, size: dict) -> list[dict]:
    """Sweeps of consecutive starts: canonical then random split per group.

    ``split`` is None for the group's canonical split, else the sorted basis
    indices of the Hamiltonian span. ``coeffs`` covers the whole basis; the
    op takes the S entries for H and the rest for F.
    """
    splits = [(g, None) for g in GROUPS]
    splits += [(g, sorted(rng.sample(range(BASIS_SIZE[g]), RANDOM_SPLIT_SIZE[g]))) for g in GROUPS]
    return [
        {"group": g, "split": s, **size,
         "coeffs": [rng.uniform(-2.0, 2.0) for _ in range(BASIS_SIZE[g])]}
        for g, s in splits for _ in range(STARTS_PER_SWEEP)
    ]


def _propagations(rng: random.Random) -> list[dict]:
    """Round-robin su2, su3, su4 so every seed has the same family mix.

    su2 and su4 take expm_unitary's involutory closed form, su3 its eigh
    path. |m|, |p_j| <= 1 keeps E <= 2, where 1e4 midpoint steps over
    t1 <= 3 stay inside DEVIATION_BOUND.
    """
    out = []
    for _ in range(PROPAGATES_PER_FAMILY):
        for family in GROUPS:
            p = [0.0, 0.0, 0.0]
            while math.sqrt(sum(x * x for x in p)) <= 0.1:
                p = [rng.uniform(-1.0, 1.0) for _ in range(3)]
            out.append({
                "family": family,
                "t1": rng.uniform(0.5, 3.0),
                "theta": rng.uniform(-math.pi, math.pi),
                "m": rng.uniform(-1.0, 1.0),
                "p": p,
                "steps": PROPAGATE_STEPS,
            })
    return out


def _resolved_tokens(conv) -> dict[str, str]:
    """RESOLVED token per check implied by AUDITED_CONVENTIONS."""
    return {
        "sphere_constraint": "sphere_divisor=" + ("dim" if conv.sphere_divisor_is_dim else "2"),
        "isometry_su3": "su3_u13_sign=" + ("+i" if conv.su3_upper_sign == 1 else "-i"),
        "isometry_su4": f"phase_sign={conv.su4_phase_sign:+d}",
        "frame_commutator": f"didt_sign={conv.didt_commutator_sign:+d}",
        "propagator_question": f"schrodinger={conv.schrodinger_propagator}",
        "ode_transcriptions": f"ode_factor={conv.dirac_ode_factor:+g}",
    }


class Ops:
    """Prepare, run and check the ops of one workload against spinctl.

    The package's functions are looked up on their modules at call time,
    so a tracer that replaces module attributes sees every call.
    """

    def __init__(self, workload: str, workdir: Path):
        import numpy as np
        from spinctl import audit, brachistochrone, cli, closedforms, generators

        self.np = np
        self.bt, self.cli, self.generators = brachistochrone, cli, generators
        self.workload = workload
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.workdir / "run.cfg"
        self.out_path = self.workdir / "out.txt"
        # Read before any tracing starts, so gates make no traced calls.
        self.check_ids = tuple(audit.catalog_ids())
        self.tokens = _resolved_tokens(closedforms.AUDITED_CONVENTIONS)
        self._splits: dict = {}
        self._reports: dict[int, str] = {}
        self.prepare = getattr(self, f"_prepare_{workload}")
        self.check = getattr(self, f"_check_{workload}")
        self.call = self._call_library if workload == "integrate" else self._call_cli

    def warm(self) -> None:
        """Fill the module-level basis cache."""
        for g in GROUPS:
            self.generators.build_basis(g)

    # -- splits -----------------------------------------------------------

    def split_for(self, inp: dict):
        key = (inp["group"], None if inp["split"] is None else tuple(inp["split"]))
        if key not in self._splits:
            if inp["split"] is None:
                split = self.bt.canonical_split(inp["group"])
            else:
                basis = self.generators.build_basis(inp["group"])
                s = tuple(basis.labels[i] for i in inp["split"])
                c = tuple(l for l in basis.labels if l not in s)
                split = self.bt.ControlSplit(basis, s, c)
            self._splits[key] = split
        return self._splits[key]

    def _split_coeffs(self, inp: dict, split):
        c = self.np.asarray(inp["coeffs"], dtype=float)
        return c[split.s_indices], c[split.c_indices]

    def _drift(self, split, h_coeffs, f_coeffs) -> float:
        """Worst |Tr X^2(t) - Tr X^2(0)| over H and F, from the coefficients."""
        np = self.np
        norms = split.basis.norm_constants
        tr_h = np.asarray(h_coeffs) ** 2 @ norms[split.s_indices]
        tr_f = np.asarray(f_coeffs) ** 2 @ norms[split.c_indices]
        return float(max(np.max(np.abs(tr_h - tr_h[0])), np.max(np.abs(tr_f - tr_f[0]))))

    # -- calls (the timed part) ----------------------------------------------

    def _call_library(self, args):
        pair, split, inp = args
        return self.bt.integrate(pair, split, inp["h"], inp["T"], sample_stride=inp["stride"])

    def _call_cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.dispatch(argv)
        return rc, out.getvalue(), err.getvalue()

    def out_bytes(self, args, result) -> int:
        """Bytes a CLI op wrote to stdout and to its --out file."""
        if self.workload == "integrate":
            return 0
        written = self.out_path.stat().st_size if "--out" in args else 0
        return len(result[1].encode()) + written

    # -- integrate ---------------------------------------------------------------

    def _prepare_integrate(self, inp):
        split = self.split_for(inp)
        h, f = self._split_coeffs(inp, split)
        return self.bt.OperatorPair(h, f), split, inp

    def _check_integrate(self, inp, args, traj) -> float:
        np = self.np
        split = args[1]
        if not (np.all(np.isfinite(traj.h_coeffs)) and np.all(np.isfinite(traj.f_coeffs))):
            raise GateError("non-finite state")
        drift = self._drift(split, traj.h_coeffs, traj.f_coeffs)
        if not drift <= DRIFT_BOUND:
            raise GateError(f"invariant drift {drift:.3e} > {DRIFT_BOUND:g}")
        return drift

    # -- trajectory_dump ---------------------------------------------------------

    def _prepare_trajectory_dump(self, inp):
        split = self.split_for(inp)
        h, f = self._split_coeffs(inp, split)
        lines = [f"group = {inp['group']}", "split = " + ",".join(split.hamiltonian_labels),
                 f"h = {inp['h']!r}", f"T = {inp['T']!r}", f"stride = {inp['stride']}",
                 "[hamiltonian]"]
        lines += [f"{l} = {v!r}" for l, v in zip(split.hamiltonian_labels, h.tolist())]
        lines.append("[constraint]")
        lines += [f"{l} = {v!r}" for l, v in zip(split.constraint_labels, f.tolist())]
        self.config_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        self.out_path.unlink(missing_ok=True)
        return ["integrate", "--config", str(self.config_path), "--out", str(self.out_path)]

    def _check_trajectory_dump(self, inp, argv, result) -> float:
        np = self.np
        rc = result[0]
        if rc != 0:
            raise GateError(f"exit code {rc}: {result[2].strip()[-200:]}")
        split = self.split_for(inp)
        labels = list(split.hamiltonian_labels) + list(split.constraint_labels)
        header, *rows = self.out_path.read_text(encoding="utf-8").splitlines()
        cols = header.split(",")
        if cols[:len(labels) + 1] != ["t", *labels] or "trH2" not in cols or "trF2" not in cols:
            raise GateError(f"unexpected header {header!r}")
        steps = round(inp["T"] / inp["h"])
        expected_rows = math.ceil(steps / inp["stride"]) + 1  # every stride-th step, the last, and t = 0
        if len(rows) != expected_rows:
            raise GateError(f"{len(rows)} rows, expected {expected_rows}")
        try:
            data = np.array([r.split(",") for r in rows], dtype=float)
        except ValueError as exc:
            raise GateError(f"unparsable row: {exc}") from None
        if data.shape[1] != len(cols) or not np.all(np.isfinite(data)):
            raise GateError("ragged or non-finite rows")
        ns = len(split.hamiltonian_labels)
        hc, fc = data[:, 1:1 + ns], data[:, 1 + ns:1 + len(labels)]
        norms = split.basis.norm_constants
        printed = {"trH2": hc ** 2 @ norms[split.s_indices], "trF2": fc ** 2 @ norms[split.c_indices]}
        drift = 0.0
        for name, recomputed in printed.items():
            mon = data[:, cols.index(name)]
            gap = float(np.max(np.abs(mon - recomputed)))
            if not gap <= MONITOR_MATCH_TOL:
                raise GateError(f"{name} column disagrees with the coefficients by {gap:.3e}")
            drift = max(drift, float(np.max(np.abs(mon - mon[0]))))
        if not drift <= DRIFT_BOUND:
            raise GateError(f"invariant drift {drift:.3e} > {DRIFT_BOUND:g}")
        return drift

    # -- propagate ---------------------------------------------------------------

    def _prepare_propagate(self, inp):
        # "--opt=value", so that argparse takes a leading minus as part of the value
        return ["propagate", f"--family={inp['family']}", f"--t1={inp['t1']!r}",
                f"--theta={inp['theta']!r}", f"--m={inp['m']!r}",
                "--p=" + ",".join(repr(x) for x in inp["p"]), f"--steps={inp['steps']}"]

    def _check_propagate(self, inp, argv, result) -> float:
        rc, stdout, stderr = result
        if rc != 0:
            raise GateError(f"exit code {rc}: {stderr.strip()[-200:]}")
        found = re.findall(r"max_deviation=(\S+)", stdout)
        if not found:
            raise GateError("no max_deviation in the output")
        dev = float(found[-1])
        if not (math.isfinite(dev) and dev <= DEVIATION_BOUND):
            raise GateError(f"max_deviation {dev:.3e} > {DEVIATION_BOUND:g}")
        return dev

    # -- audit -------------------------------------------------------------------

    def _prepare_audit(self, inp):
        self.out_path.unlink(missing_ok=True)
        return ["audit", "--seed", str(inp["audit_seed"]), "--out", str(self.out_path)]

    def _check_audit(self, inp, argv, result) -> float:
        rc = result[0]
        if rc != 0:
            raise GateError(f"exit code {rc}: {result[2].strip()[-200:]}")
        text = self.out_path.read_text(encoding="utf-8")
        lines = [l for l in text.splitlines() if l.startswith("CHECK ")]
        ids = tuple(l.split()[1] for l in lines)
        if ids != self.check_ids:
            raise GateError(f"check ids {ids} differ from the catalog {self.check_ids}")
        worst = 0.0
        for cid, line in zip(ids, lines):
            status = line.split()[2]
            expected = f"RESOLVED:{self.tokens[cid]}" if cid in self.tokens else "PASS"
            if status != expected:
                raise GateError(f"{cid}: {status}, expected {expected}")
            err = re.search(r"max_err=(\S+)", line)
            if err is None or not math.isfinite(float(err.group(1))):
                raise GateError(f"{cid}: no finite max_err")
            worst = max(worst, float(err.group(1)))
        first = self._reports.setdefault(inp["audit_seed"], text)
        if text != first:
            raise GateError(f"report for seed {inp['audit_seed']} differs from the first one")
        return worst
