"""spinctl command line front end.

Subcommands: basis, integrate, closedform, propagate, audit, gate.
Exit codes: 0 success, 1 audit check failure, 2 invalid input.

Complex matrices are printed as re+imj pairs in row-major labeled blocks;
every real number in CSV output carries 17 significant digits so values
round-trip losslessly through text.
"""
from __future__ import annotations

import argparse
import functools
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


class ConfigError(ValueError):
    """Raised for malformed or inconsistent run configuration files."""


@dataclass(frozen=True)
class RunConfig:
    """Parsed integration run: the split, the initial pair on it, the grid."""

    split: ControlSplit
    initial: OperatorPair
    h: float
    T: float
    stride: int = 1


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

    try:
        basis = build_basis(run["group"])
        s_labels = tuple(s.strip() for s in run["split"].split(",") if s.strip())
        split = ControlSplit(basis, s_labels, tuple(l for l in basis.labels if l not in s_labels))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    h, T = (_config_float(run[key], f"key {key!r}") for key in ("h", "T"))
    try:
        stride = int(run.get("stride", 1))
    except ValueError:
        raise ConfigError(f"invalid integer for key 'stride': {run['stride']!r}") from None
    if h <= 0 or T <= 0:
        raise ConfigError("h and T must be positive")
    if stride < 1:
        raise ConfigError("stride must be >= 1")

    def coeffs(section: str, labels: tuple[str, ...]) -> np.ndarray:
        """The section's coefficients in ``labels`` order, zero where unset."""
        out = dict.fromkeys(labels, 0.0)
        for label, value in sections[section].items():
            if label not in basis.labels:
                raise ConfigError(f"unknown label {label!r} in [{section}]")
            if label not in out:
                raise ConfigError(f"label {label!r} does not belong in [{section}]")
            out[label] = _config_float(value, f"label {label!r}")
        return np.array(list(out.values()))

    initial = OperatorPair(coeffs("hamiltonian", split.hamiltonian_labels),
                           coeffs("constraint", split.constraint_labels))
    return RunConfig(split, initial, h, T, stride)


def _config_float(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise ConfigError(f"invalid number for {what}: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return value


# --------------------------------------------------------------------------
# Formatting
# --------------------------------------------------------------------------

#: One real number as the CLI prints it: 17 significant digits round-trip any float.
_REAL = "%.17g"


def _fmt_real(x: float) -> str:
    return _REAL % x


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _matrix_block(title: str, mat: np.ndarray) -> str:
    mat = np.asarray(mat, complex)
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"non-finite entries in {title}: the inputs overflow")
    rows = [" ".join(_fmt_complex(z) for z in row) for row in mat]
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
    split = config.split
    traj = integrate(config.initial, split, config.h, config.T, config.stride)
    labels = list(split.hamiltonian_labels) + list(split.constraint_labels)
    table = np.column_stack([traj.times, traj.h_coeffs, traj.f_coeffs, traj.monitors])
    row = ",".join([_REAL] * table.shape[1])
    lines = ["t," + ",".join(labels) + ",trH2,trF2"]
    lines += [row % tuple(vals) for vals in table.tolist()]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _family_from_args(args) -> cf.UnitaryFamily:
    if args.family == "su2":
        return cf.su2_family()
    if args.family == "su3":
        return cf.su3_family(args.theta)
    return cf.su4_family(cf.DiracParameters(m=args.m, p0=args.p, theta=args.theta))


def _cmd_closedform(args) -> int:
    # t - s or E t may overflow: _matrix_block rejects the non-finite result
    with np.errstate(over="ignore", invalid="ignore"):
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
    # as in _cmd_closedform, overflow surfaces as one non-finite error
    with np.errstate(over="ignore", invalid="ignore"):
        fam = _family_from_args(args)
        u_oracle = oracle.time_ordered_exponential(fam.hamiltonian, 0.0, args.t1, args.steps,
                                                   order=args.order)
        v_closed = oracle.schrodinger_propagator(fam, args.t1, 0.0)
    dev = float(np.max(np.abs(u_oracle - v_closed)))
    order = "" if args.order == 2 else f" order={args.order}"  # default output stays byte-stable
    blocks = [
        _matrix_block(
            f"oracle U(t1,0) family={args.family} t1={_fmt_real(args.t1)} steps={args.steps}{order}",
            u_oracle),
        _matrix_block(f"rotating-frame V(t1,0) family={args.family}", v_closed),
        f"max_deviation={dev:.3e}",
    ]
    sys.stdout.write("\n".join(blocks) + "\n")
    return 0


def _cmd_audit(args) -> int:
    results = audit_mod.full_report(tol=args.tol, seed=args.seed)
    _write_text(args.out, audit_mod.format_report(results))
    return 1 if any(r.status == "FAIL" for r in results) else 0


def _cmd_gate(args) -> int:
    q = cf.su3_gate(args.t, args.theta)
    sys.stdout.write(_matrix_block(f"Q(t) t={_fmt_real(args.t)} theta={_fmt_real(args.theta)}", q) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as ValueError, not print and exit; subparsers inherit it."""

    def error(self, message: str):
        raise ValueError(f"{self.prog}: {message}")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"non-finite value: {text!r}")
    return value


def _non_negative(parse):
    """Argparse type: ``parse`` the text, then refuse a negative value."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {parse.__name__} value: {text!r}") from None
        if value < 0:
            raise argparse.ArgumentTypeError(f"negative value: {text!r}")
        return value

    return convert


def _vec3(text: str) -> np.ndarray:
    vec = np.array([_finite_float(s) for s in text.split(",")])
    if vec.shape != (3,):
        raise argparse.ArgumentTypeError("expected 3 components")
    return vec


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The spinctl parser, built once per process: parsing keeps no state in it."""
    parser = _Parser(
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
        p.add_argument("--theta", type=_finite_float, default=cf.DEFAULT_THETA)
        p.add_argument("--m", type=_finite_float, default=1.0)
        p.add_argument("--p", type=_vec3, default="0,0,1", help="momentum as 'px,py,pz' (su4)")
        if name == "closedform":
            p.add_argument("--t", type=_finite_float, required=True)
            p.add_argument("--s", type=_finite_float, default=0.0)
        else:
            p.add_argument("--t1", type=_finite_float, required=True)
            # 10^4 midpoint steps drive the discretization error below 1e-6 on a 2*pi interval
            p.add_argument("--steps", type=int, default=10_000)
            p.add_argument("--order", type=int, default=2, metavar="{2,4}",
                           help="oracle step: 2 midpoint, 4 two-point Gauss-Legendre Magnus")
        p.set_defaults(fn=fn)

    p = sub.add_parser("audit", help="run the full audit catalog")
    p.add_argument("--tol", type=_non_negative(_finite_float), default=None)
    p.add_argument("--seed", type=_non_negative(int), default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("gate", help="print the qutrit gate Q(t)")
    p.add_argument("--t", type=_finite_float, required=True)
    p.add_argument("--theta", type=_finite_float, default=cf.DEFAULT_THETA)
    p.set_defaults(fn=_cmd_gate)

    return parser


def dispatch(argv: list[str]) -> int:
    """Route argv to a subcommand; never raises on malformed input."""
    try:
        args = _build_parser().parse_args(argv)
        return args.fn(args)
    except SystemExit:  # only --help exits: _Parser raises on usage errors
        return 0
    except (ValueError, KeyError, OSError, NonFiniteStateError) as exc:
        print(" ".join(f"error: {exc}".splitlines()), file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
