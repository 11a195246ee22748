"""Rewrite every golden file under tests/data from the one command that makes it, then the bit ledger.

    python3 tools/goldens.py

GOLDENS maps each golden file to the `spinctl` argv that prints it (an
`integrate` writes its --out) or to the demo script whose stdout it is.
tests/test_goldens.py compares render(name) with each file byte for byte
and checks that GOLDENS and tests/data name the same files, the
`integrate` configs (*.cfg) and the ledger aside. main renders every file,
and the ledger through tools/bitcheck.py, before it writes any, so a
command that fails leaves tests/data as it was.

After a run, `git diff --stat -- tests/data` names the moved files and
`git diff` the moved lines; a change that means to move bits names them
in CHANGES.md. Run with OPENBLAS_CORETYPE=<core> in a scratch copy, the
same diff shows which bytes follow the BLAS kernel another CPU would get.
Another checkout's src/ runs with PYTHONPATH=../other/src python3
tools/goldens.py. Needs only numpy.
"""
from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH

from spinctl import cli  # noqa: E402

DATA = ROOT / "tests" / "data"

_PROPAGATE_CASES = {
    "su2": ["--family", "su2", "--t1", "2"],
    "su3": ["--family", "su3", "--t1", "2"],
    "su4": ["--family", "su4", "--t1", "2"],
    # E ~ 6e3, |K dt| ~ 6: the screen, relative to each matrix's scale, admits every step
    "su4_large": ["--family", "su4", "--t1", "1", "--m", "1", "--p", "3e3,-2e3,5e3"],
}

GOLDENS: dict[str, list[str] | Path] = {
    # each report pins the probe draw order and every printed digit
    **{f"audit_seed_{seed}.txt": ["audit", "--seed", str(seed)] for seed in (0, 5, 7, 99, 123)},
    # every RK4 bit the CSV prints; the su3 config's split is not canonical and out of
    # basis order, and the su2 and su4 configs sample every fourth and seventh step
    **{f"integrate_{group}.csv": ["integrate", "--config", str(DATA / f"integrate_{group}.cfg")]
       for group in ("su2", "su3", "su4")},
    # every bit of the oracle's step product that 17 digits show, 1000 steps of the
    # spin-1 closed form; no propagate input is known to reach the stacked eigh
    **{f"propagate_{case}_order{order}.txt": ["propagate", *args, "--steps", "1000", "--order", order]
       for case, args in _PROPAGATE_CASES.items() for order in ("2", "4")},
    # each demo's stdout; it must run with nothing on stderr and no RuntimeWarning
    **{f"demo_{demo.name[:2]}.txt": demo for demo in sorted((ROOT / "demos").glob("*.py"))},
}


def _run_script(script: Path) -> bytes:
    """The stdout of ``script`` run on this spinctl, failing on any RuntimeWarning."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)], cwd=ROOT, env=env,
                          capture_output=True, timeout=120)
    if proc.returncode or proc.stderr:
        raise RuntimeError(f"{script.name} exited {proc.returncode}: {proc.stderr.decode()}")
    return proc.stdout


def render(name: str) -> bytes:
    """The bytes GOLDENS' command for ``name`` makes; raises if it exits nonzero or writes to stderr."""
    command = GOLDENS[name]
    if isinstance(command, Path):
        return _run_script(command)
    writes_file = command[0] == "integrate"
    with tempfile.TemporaryDirectory() as tmp:
        path, out, err = Path(tmp) / name, io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.dispatch([*command, "--out", str(path)] if writes_file else command)
        if code or err.getvalue():
            raise RuntimeError(f"spinctl {' '.join(command)} exited {code}: {err.getvalue()}")
        return path.read_bytes() if writes_file else out.getvalue().encode()


def ledger() -> bytes:
    """tools/bitcheck.py's ledger of this build."""
    return _run_script(ROOT / "tools" / "bitcheck.py")


def main() -> None:
    files = {name: render(name) for name in GOLDENS}
    files["bitcheck.txt"] = ledger()
    for name, data in files.items():
        (DATA / name).write_bytes(data)


if __name__ == "__main__":
    main()
