"""spinctl command line front end.

Subcommands: basis, integrate, closedform, propagate, audit, gate.
Exit codes: 0 success, 1 audit check failure, 2 invalid input.

Complex matrices are printed as re+imj pairs in row-major labeled blocks;
every real number in CSV output carries 17 significant digits so values
round-trip losslessly through text.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import audit as audit_mod
from . import closedforms as cf
from . import oracle
from .brachistochrone import ControlSplit, NonFiniteStateError, OperatorPair, integrate
from .generators import build_basis

__all__ = ["RunConfig", "dispatch", "main", "parse_config"]

_RUN_KEYS = {"group", "split", "h", "T", "stride"}
_SECTIONS = ("run", "hamiltonian", "constraint")
#: Float options that must be finite in every subcommand that takes them.
_FINITE_OPTIONS = ("t", "s", "t1", "theta", "m")


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration files."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed integration run: group, split, initial data, grid."""

    group_id: str
    split: tuple[str, ...]
    h_coeffs: dict[str, float]
    f_coeffs: dict[str, float]
    h: float
    T: float
    stride: int = 1

    def control_split(self) -> ControlSplit:
        basis = build_basis(self.group_id)
        constraint = tuple(l for l in basis.labels if l not in self.split)
        return ControlSplit(basis, self.split, constraint)

    def initial_pair(self) -> OperatorPair:
        split = self.control_split()
        h = np.array([self.h_coeffs.get(l, 0.0) for l in split.hamiltonian_labels])
        f = np.array([self.f_coeffs.get(l, 0.0) for l in split.constraint_labels])
        return OperatorPair(h, f)


def parse_config(text: str) -> RunConfig:
    """Parse the line-oriented ``key = value`` run configuration format.

    Sections: top-level (or ``[run]``) carries group, split, h, T and the
    optional stride; ``[hamiltonian]`` and ``[constraint]`` carry
    initial coefficients keyed by generator label. Blank lines and lines
    starting with ``#`` are skipped. Malformed lines, duplicate or unknown
    keys, and missing required keys all raise ConfigError.
    """
    sections: dict[str, dict[str, str]] = {name: {} for name in _SECTIONS}
    current = "run"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if current == "run" and key not in _RUN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key: {key}")
        if key in sections[current]:
            raise ConfigError(f"line {lineno}: duplicate key: {key}")
        sections[current][key] = value

    run = sections["run"]
    for required in ("group", "split", "h", "T"):
        if required not in run:
            raise ConfigError(f"missing key: {required}")

    group_id = run["group"]
    try:
        basis = build_basis(group_id)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    split = tuple(s.strip() for s in run["split"].split(",") if s.strip())
    if not split:
        raise ConfigError("split must list at least one label")
    if len(set(split)) != len(split):
        raise ConfigError("split labels must be distinct")
    for label in split:
        if label not in basis.labels:
            raise ConfigError(f"split label {label!r} not in {group_id} basis")

    def as_float(key: str) -> float:
        try:
            value = float(run[key])
        except ValueError:
            raise ConfigError(f"invalid number for key {key!r}: {run[key]!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r} must be finite, got {run[key]!r}")
        return value

    h, T = as_float("h"), as_float("T")
    try:
        stride = int(run.get("stride", 1))
    except ValueError:
        raise ConfigError(f"invalid integer for key 'stride': {run['stride']!r}") from None
    if h <= 0 or T <= 0:
        raise ConfigError("h and T must be positive")
    if stride < 1:
        raise ConfigError("stride must be >= 1")

    def coeffs(section: str, allowed: set[str]) -> dict[str, float]:
        out = {}
        for label, value in sections[section].items():
            if label not in basis.labels:
                raise ConfigError(f"unknown label {label!r} in [{section}]")
            if label not in allowed:
                raise ConfigError(f"label {label!r} does not belong in [{section}]")
            try:
                out[label] = float(value)
            except ValueError:
                raise ConfigError(f"invalid number for label {label!r}: {value!r}") from None
            if not math.isfinite(out[label]):
                raise ConfigError(f"label {label!r} must be finite, got {value!r}")
        return out

    s_set = set(split)
    h_coeffs = coeffs("hamiltonian", s_set)
    f_coeffs = coeffs("constraint", set(basis.labels) - s_set)
    return RunConfig(group_id, split, h_coeffs, f_coeffs, h, T, stride)


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------

def _fmt_real(x: float) -> str:
    return f"{x:.17g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _matrix_block(title: str, mat: np.ndarray) -> str:
    rows = [" ".join(_fmt_complex(z) for z in row) for row in np.asarray(mat, complex)]
    return "\n".join([title, *rows])


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------

def _cmd_basis(args) -> int:
    basis = build_basis(args.group)
    lines = []
    for label, g in zip(basis.labels, basis.elements):
        lines.append(label)
        lines.extend(f"{_fmt_real(z.real)},{_fmt_real(z.imag)}" for z in g.ravel())
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_integrate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    split = config.control_split()
    traj = integrate(config.initial_pair(), split, config.h, config.T, config.stride)
    labels = list(split.hamiltonian_labels) + list(split.constraint_labels)
    lines = ["t," + ",".join(labels) + ",trH2,trF2"]
    for k in range(len(traj.times)):
        vals = [traj.times[k], *traj.h_coeffs[k], *traj.f_coeffs[k], *traj.monitors[k]]
        lines.append(",".join(_fmt_real(v) for v in vals))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _finite(option: str, value: float) -> float:
    """``value`` if it is finite; a ValueError naming ``option`` otherwise."""
    if not math.isfinite(value):
        raise ValueError(f"{option} is non-finite: {value!r}")
    return value


def _family_from_args(args) -> cf.UnitaryFamily:
    if args.family == "su2":
        return cf.su2_family()
    if args.family == "su3":
        return cf.su3_family(args.theta)
    params = cf.DiracParameters(m=args.m, p0=_parse_vec3(args.p), theta=args.theta)
    return cf.su4_family(params)


def _parse_vec3(text: str) -> np.ndarray:
    parts = [s.strip() for s in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected three comma-separated components, got {text!r}")
    return np.array([_finite("--p", float(s)) for s in parts])


def _cmd_closedform(args) -> int:
    fam = _family_from_args(args)
    blocks = [
        _matrix_block(f"H(t) family={args.family} t={_fmt_real(args.t)}",
                      fam.hamiltonian(args.t)),
        _matrix_block(f"U(t,s) family={args.family} t={_fmt_real(args.t)} s={_fmt_real(args.s)}",
                      fam.propagator(args.t, args.s)),
    ]
    sys.stdout.write("\n".join(blocks) + "\n")
    return 0


def _cmd_propagate(args) -> int:
    fam = _family_from_args(args)
    sched = oracle.schedule_for(fam)
    u_oracle = oracle.time_ordered_exponential(sched, 0.0, args.t1, args.steps)
    v_closed = oracle.schrodinger_propagator(fam, args.t1, 0.0)
    dev = float(np.max(np.abs(u_oracle - v_closed)))
    blocks = [
        _matrix_block(
            f"oracle U(t1,0) family={args.family} t1={_fmt_real(args.t1)} steps={args.steps}",
            u_oracle),
        _matrix_block(f"rotating-frame V(t1,0) family={args.family}", v_closed),
        f"max_deviation={dev:.3e}",
    ]
    sys.stdout.write("\n".join(blocks) + "\n")
    return 0


def _cmd_audit(args) -> int:
    if args.tol is not None and not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be a finite non-negative number, got {args.tol!r}")
    results = audit_mod.full_report(tol=args.tol, seed=args.seed)
    _write_text(args.out, audit_mod.format_report(results))
    return 1 if any(r.status == "FAIL" for r in results) else 0


def _cmd_gate(args) -> int:
    q = cf.su3_gate(args.t, args.theta)
    sys.stdout.write(_matrix_block(f"Q(t) t={_fmt_real(args.t)} theta={_fmt_real(args.theta)}", q) + "\n")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinctl",
        description="Time-optimal spin control toolkit: bases, brachistochrone runs, "
                    "closed-form families, oracle propagators, and the numerical audit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="write a generator basis as CSV blocks")
    p.add_argument("--group", required=True, choices=["su2", "su3", "su4"])
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_basis)

    p = sub.add_parser("integrate", help="run the brachistochrone integrator from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_integrate)

    for name, fn in (("closedform", _cmd_closedform), ("propagate", _cmd_propagate)):
        p = sub.add_parser(
            name,
            help="print the (H, U) pair of a family" if name == "closedform"
            else "compare the step-product oracle against the closed-form propagator",
        )
        p.add_argument("--family", required=True, choices=["su2", "su3", "su4"])
        p.add_argument("--theta", type=float, default=cf.DEFAULT_THETA)
        p.add_argument("--m", type=float, default=1.0)
        p.add_argument("--p", default="0,0,1", help="momentum as 'px,py,pz' (su4)")
        if name == "closedform":
            p.add_argument("--t", type=float, required=True)
            p.add_argument("--s", type=float, default=0.0)
        else:
            p.add_argument("--t1", type=float, required=True)
            p.add_argument("--steps", type=int, default=oracle.DEFAULT_STEPS_PER_PERIOD)
        p.set_defaults(fn=fn)

    p = sub.add_parser("audit", help="run the full audit catalog")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("gate", help="print the qutrit gate Q(t)")
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--theta", type=float, default=cf.DEFAULT_THETA)
    p.set_defaults(fn=_cmd_gate)

    return parser


def dispatch(argv: list[str]) -> int:
    """Route argv to a subcommand; never raises on malformed input."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help, 2 for usage errors
        return 0 if exc.code in (0, None) else 2
    try:
        for name in _FINITE_OPTIONS:
            if name in vars(args):
                _finite(f"--{name}", getattr(args, name))
        return args.fn(args)
    except (ConfigError, ValueError, KeyError, OSError, NonFiniteStateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
