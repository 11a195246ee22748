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
#: Values per block of _csv_rows at most, bar one row; its planes peak at about 140 bytes per value.
_CSV_VALUES = 16384

_POW10 = np.cumprod(np.full(22, 10.0)) / 10.0  # 1e0 .. 1e21, each an exact double
_POW10_INT = 10 ** np.arange(8, -1, -1, dtype=np.int32)[:, None, None]  # 1e8 .. 1e0
_ROW = np.arange(21, dtype=np.int8)[:, None]  # the rows of a value's digit column


def _fmt_real(x: float) -> str:
    return _REAL % x


def _scaled_digits(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """D = a * 10^k rounded half-even to an integer, and where a * 10^k lies below 1e16 or at 1e17 and above.

    a * 10^k is formed exactly as hi + lo by Veltkamp splits (Dekker, Numer.
    Math. 18, 224 (1971)), with no FMA; each 10^k is an exact double. In
    range, hi is an even integer above 2^53, so hi + rint(lo) rounds the
    exact hi + lo half to even. The bounds test the exact hi + lo: near a
    bound, hi minus it is exact and at least twice |lo| unless it is 0.
    """
    b = np.take(_POW10, k, mode="clip")
    hi = a * b
    t = a * 134217729.0  # 2^27 + 1
    ah = t - (t - a)
    al = a - ah
    t = b * 134217729.0
    bh = t - (t - b)
    bl = b - bh
    lo = ((ah * bh - hi) + ah * bl + al * bh) + al * bl
    d = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    return d, (hi - 1e16) + lo < 0.0, (hi - 1e17) + lo >= 0.0


def _csv_block(x: np.ndarray, seps: np.ndarray) -> str:
    """The flat values ``x`` as ``'%.17g'`` texts, each followed by its entry of ``seps`` in turn.

    Every ±0 and 1e-4 <= |x| < 1e16 takes the fast path, where '%.17g' is
    fixed notation: D, x's 17 significant digits, is |x| * 10^(16 - e)
    rounded half-even to an integer in [1e16, 1e17), with e the decimal
    exponent. e starts from log10 and moves once wherever the exact product
    falls outside that range. The text is D's digits with a point after
    digit e (after a "0." and -e - 1 zeros if e < 0), less the trailing
    zeros of the fraction and a point with no fraction after it. Each value
    is one column of a (25, n) byte plane: the sign, 21 digit places and the
    point, a pad and the separator. Unwanted places hold 0 and are dropped.
    A value that is not certified this way, tiny, huge, subnormal or not
    finite, or a product still out of range after the move, is written with
    '%.17g' itself, 24 bytes at most.
    """
    n = x.size
    a = np.abs(x)
    ok = (a >= 1e-4) & (a < 1e16)
    zero = a == 0.0
    a[~ok] = 1.0  # a zero takes the digits of 1; the rest are replaced below
    ok |= zero
    k = (16.0 - np.floor(np.log10(a))).astype(np.intp)
    d, below, above = _scaled_digits(a, k)
    off = below | above
    if off.any():
        i = np.flatnonzero(off)
        k[i] += below[i].astype(np.intp) - above[i]
        d[i], below, above = _scaled_digits(a[i], k[i])
        ok[i[below | above]] = False
    e = (16 - k).astype(np.int8)
    top = d // 10 ** 9
    halves = np.array([top, d - top * 10 ** 9], np.int32)  # D's first 8 digits and its last 9
    q = (halves // _POW10_INT).astype(np.uint8)  # floor(halves / 10^m) mod 256, m = 8 .. 0
    digits = q[1:] - np.uint8(10) * q[:-1]
    # rows 0-3 hold the zeros after "0." of e < 0, rows 4-20 D's digits
    column = np.zeros((21, n), np.uint8)
    column[4:12] = digits[:, 0]
    column[12] = q[0, 1]
    column[13:] = digits[:, 1]
    del a, k, d, top, halves, q, digits  # dead: the layout then peaks at 140 bytes a value, not 210
    last = np.max((column[4:] != 0) * _ROW[:17], axis=0)  # D's last nonzero digit
    column += np.uint8(48)
    whole = _ROW <= e + 4
    chars = np.zeros((25, n), np.uint8)
    chars[0] = np.signbit(x) * np.uint8(45)
    chars[1:22] = column * (whole & (_ROW >= np.minimum(e, 0) + 4))
    chars[2:23] += column * (~whole & (_ROW <= last + 4))
    chars.ravel()[(e + 6).astype(np.intp) * n + np.arange(n)] = (last > e) * np.uint8(46)
    chars[5] -= zero  # "1" -> "0"
    chars[24].reshape(-1, seps.size)[:] = seps
    if not ok.all():
        i = np.flatnonzero(~ok)
        text = np.array([_REAL % v for v in x[i].tolist()], dtype="S24")
        chars[:24, i] = text.view(np.uint8).reshape(-1, 24).T
    return chars.T.tobytes().translate(None, b"\0").decode("ascii")


def _csv_rows(table: np.ndarray) -> str:
    """The rows of the 2-D float ``table`` as CSV lines of ``'%.17g'`` values, each line ending in a newline.

    Byte for byte the per-row ``'%.17g'`` join. The rows go to _csv_block in
    ceil(values / _CSV_VALUES) blocks, at most one per row, whose row counts
    differ by one at most. So a table of up to _CSV_VALUES values is one
    block, and a block of a longer table holds more than half the budget
    less one row: the writer pays its fixed cost per call once per table,
    and numpy's division loops see long arrays.
    """
    table = np.asarray(table, dtype=float)
    seps = np.full(table.shape[1], ord(","), np.uint8)
    seps[-1] = ord("\n")
    rows = len(table)
    blocks = min(rows, -(-table.size // _CSV_VALUES))
    return "".join(_csv_block(table[i * rows // blocks:(i + 1) * rows // blocks].ravel(), seps)
                   for i in range(blocks))


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
    # each element: its label line, then one re,im row per entry; one writer call formats every entry
    lines = _csv_rows(basis.elements.reshape(-1).view(float).reshape(-1, 2)).splitlines(keepends=True)
    size = basis.dim ** 2
    _write_text(args.out, "".join(f"{label}\n" + "".join(lines[k * size:(k + 1) * size])
                                  for k, label in enumerate(basis.labels)))
    return 0


def _cmd_integrate(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = parse_config(fh.read())
    split = config.split
    traj = integrate(config.initial, split, config.h, config.T, config.stride)
    labels = list(split.hamiltonian_labels) + list(split.constraint_labels)
    table = np.column_stack([traj.times, traj.h_coeffs, traj.f_coeffs, traj.monitors])
    _write_text(args.out, "t," + ",".join(labels) + ",trH2,trF2\n" + _csv_rows(table))
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
