import argparse
import contextlib
import io
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import PROPERTY, eigh_exp
from spinctl.brachistochrone import integrate
from spinctl.cli import ConfigError, _build_parser, dispatch, parse_config
from spinctl.closedforms import DiracParameters, su4_family
from spinctl.generators import build_basis


SU2_CONFIG = """\
# minimal transverse-plane run
group = su2
split = sx,sy
h = 1e-3
T = 6.2832

[hamiltonian]
sx = 1

[constraint]
sz = -0.5
"""


class TestParseConfig:
    def test_minimal_config(self):
        cfg = parse_config(SU2_CONFIG)
        assert cfg.split.basis.group_id == "su2"
        assert cfg.split.hamiltonian_labels == ("sx", "sy")
        assert cfg.split.constraint_labels == ("sz",)
        assert cfg.stride == 1
        assert np.array_equal(cfg.initial.h_coeffs, [1.0, 0.0])
        assert np.array_equal(cfg.initial.f_coeffs, [-0.5])

    def test_missing_required_key(self):
        with pytest.raises(ConfigError, match="missing key: h"):
            parse_config("group = su2\nsplit = sx,sy\nT = 1\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key: dt"):
            parse_config("group = su2\nsplit = sx,sy\nh = 1e-3\nT = 1\ndt = 2\n")

    def test_seed_key_rejected(self):
        # integration is deterministic, so a seed would be parsed and never read
        with pytest.raises(ConfigError, match="line 5: unknown key: seed"):
            parse_config("group = su2\nsplit = sx,sy\nh = 1e-3\nT = 1\nseed = 3\n")

    def test_duplicate_key_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3: duplicate key: group"):
            parse_config("group = su2\nsplit = sx,sy\ngroup = su3\nh = 1e-3\nT = 1\n")

    def test_malformed_line_with_line_number(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config("group = su2\nsplit sx,sy\nh = 1e-3\nT = 1\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match=r"unknown section \[drive\]"):
            parse_config("group = su2\nsplit = sx,sy\nh = 1e-3\nT = 1\n[drive]\n")

    def test_split_label_not_in_group(self):
        with pytest.raises(ConfigError, match="not in su2 basis"):
            parse_config("group = su2\nsplit = sx,l4\nh = 1e-3\nT = 1\n")

    def test_label_in_wrong_section(self):
        with pytest.raises(ConfigError, match="does not belong"):
            parse_config(
                "group = su2\nsplit = sx,sy\nh = 1e-3\nT = 1\n[hamiltonian]\nsz = 1\n")

    def test_unknown_label_in_section(self, tmp_path, capsys):
        text = SU2_CONFIG.replace("sx = 1", "foo = 1")
        with pytest.raises(ConfigError, match=r"unknown label 'foo' in \[hamiltonian\]"):
            parse_config(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        assert dispatch(["integrate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: unknown label 'foo' in [hamiltonian]\n"

    def test_invalid_number(self):
        with pytest.raises(ConfigError, match="invalid number"):
            parse_config("group = su2\nsplit = sx,sy\nh = fast\nT = 1\n")

    def test_nonpositive_grid(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_config("group = su2\nsplit = sx,sy\nh = -1e-3\nT = 1\n")


class TestBasisCommand:
    def test_csv_structure_roundtrip(self, tmp_path):
        out = tmp_path / "su4.csv"
        assert dispatch(["basis", "--group", "su4", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 15 * (1 + 16)
        assert lines[0] == "s01"
        # first generator: 1 (x) sigma_x; entry (0, 1) is row-major index 1
        entries = [tuple(map(float, l.split(","))) for l in lines[1:17]]
        assert entries[1] == (1.0, 0.0)
        assert entries[0] == (0.0, 0.0)

    def test_all_values_roundtrip(self, tmp_path):
        out = tmp_path / "su3.csv"
        dispatch(["basis", "--group", "su3", "--out", str(out)])
        basis = build_basis("su3")
        lines = out.read_text().splitlines()
        block = 1 + 9
        for k, label in enumerate(basis.labels):
            assert lines[k * block] == label
            vals = [tuple(map(float, l.split(","))) for l in lines[k * block + 1:(k + 1) * block]]
            mat = np.array([complex(re, im) for re, im in vals]).reshape(3, 3)
            assert np.array_equal(mat, basis.elements[k])


class TestIntegrateCommand:
    def test_run_and_roundtrip(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SU2_CONFIG.replace("T = 6.2832", "T = 0.5\nstride = 10"))
        out = tmp_path / "traj.csv"
        assert dispatch(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,sx,sy,sz,trH2,trF2"
        rows = np.array([[float(v) for v in l.split(",")] for l in lines[1:]])
        assert rows[0, 0] == 0.0
        assert abs(rows[-1, 0] - 0.5) < 1e-3
        # trH2 = 2(sx^2 + sy^2): the printed 17-digit values must satisfy it
        assert np.max(np.abs(rows[:, 4] - 2 * (rows[:, 1] ** 2 + rows[:, 2] ** 2))) < 1e-12

    def test_split_covering_the_basis(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("group = su2\nsplit = sx,sy,sz\nh = 0.1\nT = 0.2\n[hamiltonian]\nsx = 1\n")
        out = tmp_path / "traj.csv"
        assert dispatch(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_text().splitlines() == ["t,sx,sy,sz,trH2,trF2", "0,1,0,0,2,0",
                                                "0.10000000000000001,1,0,0,2,0", "0.20000000000000001,1,0,0,2,0"]

    def test_signed_zero_and_subnormal_bytes(self, tmp_path):
        # the goldens hold typical values; -0 and subnormals must print as the per-value f-string did
        cfg, out = tmp_path / "run.cfg", tmp_path / "traj.csv"
        cfg.write_text("group = su3\nsplit = l1,l7\nh = 0.25\nT = 1\nstride = 2\n"
                       "[hamiltonian]\nl1 = -0.0\nl7 = 5e-324\n[constraint]\nl2 = -0.0\nl3 = -5e-324\nl8 = 0.5\n")
        assert dispatch(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        config = parse_config(cfg.read_text())
        traj = integrate(config.initial, config.split, config.h, config.T, config.stride)
        expected = ["t,l1,l7,l2,l3,l4,l5,l6,l8,trH2,trF2"]
        for k in range(len(traj.times)):
            vals = [traj.times[k], *traj.h_coeffs[k], *traj.f_coeffs[k], *traj.monitors[k]]
            expected.append(",".join(f"{v:.17g}" for v in vals))
        assert expected[1] == "0,-0,4.9406564584124654e-324,-0,-4.9406564584124654e-324,0,0,0,0.5,0,0.50000000000000011"
        assert out.read_bytes() == ("\n".join(expected) + "\n").encode()

    def test_missing_config_file(self, tmp_path):
        assert dispatch(["integrate", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "o.csv")]) == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("group = su2\nsplit = sx,sy\nT = 1\n")
        assert dispatch(["integrate", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")]) == 2


#: Per group: its split and its nonzero H and F coefficients, for the sum run below.
SUM_PARTS = {
    "su2": ("sx,sy", {"sx": 1.0}, {"sz": -0.5}),
    "su3": ("l1,l7", {"l1": 0.5, "l7": -0.25}, {"l3": 0.75, "l8": 0.1}),
    "su4": ("s30,s11,s12,s13", {"s30": 1.0, "s12": 0.3}, {"s22": 0.4, "s01": -0.6}),
}


def _sum_parts_config(groups, prefix: bool) -> str:
    """A run config for ``groups`` joined by '+', labels prefixed by their group when ``prefix``."""
    def name(group, label):
        return f"{group}.{label}" if prefix else label

    lines = ["group = " + "+".join(groups), "h = 1e-2", "T = 0.6", "stride = 3",
             "split = " + ",".join(name(g, l) for g in groups for l in SUM_PARTS[g][0].split(","))]
    for section, slot in (("hamiltonian", 1), ("constraint", 2)):
        lines.append(f"[{section}]")
        lines += [f"{name(g, l)} = {v}" for g in groups for l, v in SUM_PARTS[g][slot].items()]
    return "\n".join(lines) + "\n"


class TestIntegrateSum:
    """``group`` may name a direct sum of groups; its labels carry their group's prefix."""

    @staticmethod
    def run(tmp_path, text):
        cfg, out = tmp_path / "run.cfg", tmp_path / "out.csv"
        cfg.write_text(text)
        assert dispatch(["integrate", "--config", str(cfg), "--out", str(out)]) == 0
        header, *rows = out.read_text().splitlines()
        return header.split(","), [row.split(",") for row in rows]

    def test_each_groups_columns_are_its_own_run(self, tmp_path):
        header, rows = self.run(tmp_path, _sum_parts_config(list(SUM_PARTS), prefix=True))
        assert header[:5] == ["t", "su2.sx", "su2.sy", "su3.l1", "su3.l7"]
        assert len(header) == 1 + 26 + 2 and "su4.s33" in header
        for group in SUM_PARTS:
            own_header, own_rows = self.run(tmp_path, _sum_parts_config([group], prefix=False))
            cols = [0] + [header.index(f"{group}.{label}") for label in own_header[1:-2]]
            assert [[row[k] for k in cols] for row in rows] == [row[:-2] for row in own_rows]

    def test_repeated_group_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SU2_CONFIG.replace("group = su2", "group = su2+su2"))
        assert dispatch(["integrate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err == "error: group 'su2+su2' has an empty or repeated part\n"
        assert not (tmp_path / "o.csv").exists()


class TestMatrixCommands:
    def test_gate_identity_block(self, capsys):
        assert dispatch(["gate", "--t", "0"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("Q(t) t=0")
        assert "0.70710678118654746" in out

    def test_closedform_su2(self, capsys):
        assert dispatch(["closedform", "--family", "su2", "--t", "0", "--s", "0"]) == 0
        out = capsys.readouterr().out
        assert "H(t) family=su2" in out and "U(t,s) family=su2" in out
        # H(0) row-major: 0, 1, 1, 0
        h_rows = out.splitlines()[1:3]
        assert h_rows[0].split() == ["0+0j", "1-0j"]

    def test_closedform_su4_requires_valid_momentum(self, capsys):
        assert dispatch(["closedform", "--family", "su4", "--t", "0.3",
                         "--m", "1", "--p", "0,0"]) == 2

    def test_propagate_reports_deviation(self, capsys):
        assert dispatch(["propagate", "--family", "su2", "--t1", "1.0",
                         "--steps", "500"]) == 0
        out = capsys.readouterr().out
        dev = float(out.strip().splitlines()[-1].split("=")[1])
        assert dev < 1e-5

    def test_propagate_order_4(self, capsys):
        argv = ["propagate", "--family", "su2", "--t1", "1.0", "--steps", "500"]
        assert dispatch(argv) == 0
        default = capsys.readouterr().out
        assert dispatch(argv + ["--order", "2"]) == 0
        assert capsys.readouterr().out == default
        assert dispatch(argv + ["--order", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert default.splitlines()[0] == "oracle U(t1,0) family=su2 t1=1 steps=500"
        assert lines[0] == "oracle U(t1,0) family=su2 t1=1 steps=500 order=4"
        assert float(lines[-1].split("=")[1]) < 1e-10

    def test_propagate_small_energy_is_not_the_identity(self, capsys):
        # E ~ 1e-6 and t1 = 1000: the phases differ from 1 by about 1e-3
        assert dispatch(["propagate", "--family", "su4", "--t1", "1000",
                         "--m", "1e-6", "--p", "1e-7,0,0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        u, v = (np.array([[complex(z) for z in row.split()] for row in lines[k:k + 4]])
                for k in (1, 6))
        c, h0 = su4_family(DiracParameters(m=1e-6, p0=[1e-7, 0.0, 0.0])).frame
        ref = eigh_exp(c, 1000.0) @ eigh_exp(h0 - c, 1000.0)
        assert np.max(np.abs(ref - np.eye(4))) > 1e-4
        assert np.max(np.abs(v - ref)) <= 1e-12
        assert np.max(np.abs(u - ref)) <= 1e-12


class TestAuditCommand:
    def test_exit_zero_and_deterministic(self, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        assert dispatch(["audit", "--out", str(a)]) == 0
        assert dispatch(["audit", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_tolerance_fails(self, tmp_path):
        out = tmp_path / "strict.txt"
        assert dispatch(["audit", "--tol", "0", "--out", str(out)]) == 1
        assert "FAIL" in out.read_text()


class TestNonFiniteInput:
    """Bad numbers end in exit 2 and one error line: no traceback, no warning."""

    @staticmethod
    def assert_rejected(rc, capsys, needle):
        err = capsys.readouterr().err
        assert rc == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and needle in err

    @pytest.mark.parametrize("h,T,needle", [
        ("1e-3", "inf", "'T' must be finite"),
        ("nan", "1", "'h' must be finite"),
        # finite h and T whose step count T / h overflows or passes the ceiling
        ("1e-320", "1e300", "T / h = inf steps"),
        ("1e-9", "1e3", "T / h = 1e+12 steps"),
        # one step so long that the RK4 update itself overflows
        ("1e200", "1e200", "non-finite state at step 1"),
    ])
    def test_non_finite_grid(self, tmp_path, capsys, h, T, needle):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SU2_CONFIG.replace("h = 1e-3", f"h = {h}").replace("T = 6.2832", f"T = {T}"))
        rc = dispatch(["integrate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        self.assert_rejected(rc, capsys, needle)

    def test_non_finite_coefficient(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SU2_CONFIG.replace("sx = 1", "sx = inf"))
        rc = dispatch(["integrate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        self.assert_rejected(rc, capsys, "'sx' must be finite")

    def test_parse_config_rejects_non_finite(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config(SU2_CONFIG.replace("sz = -0.5", "sz = -inf"))

    def test_state_overflow_mid_run(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SU2_CONFIG.replace("sx = 1", "sx = 1e200").replace("sz = -0.5", "sz = 1e200"))
        rc = dispatch(["integrate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        self.assert_rejected(rc, capsys, "non-finite state at step 1")

    def test_monitor_overflow(self, tmp_path, capsys):
        # no constraint: the state stays put at 1e200, but Tr H^2 overflows
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SU2_CONFIG.replace("sx = 1", "sx = 1e200").replace("sz = -0.5", "sz = 0")
                       .replace("T = 6.2832", "T = 0.01"))
        rc = dispatch(["integrate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        self.assert_rejected(rc, capsys, "non-finite invariant monitor at step 0")
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("tol", ["nan", "-1e-3", "inf"])
    def test_audit_rejects_bad_tolerance(self, tmp_path, capsys, tol):
        rc = dispatch(["audit", f"--tol={tol}", "--out", str(tmp_path / "r.txt")])
        self.assert_rejected(rc, capsys, "--tol")

    def test_propagate_infinite_horizon(self, capsys):
        rc = dispatch(["propagate", "--family", "su2", "--t1", "inf"])
        self.assert_rejected(rc, capsys, "non-finite")

    def test_propagate_step_ceiling(self, capsys):
        start = time.perf_counter()
        rc = dispatch(["propagate", "--family", "su2", "--t1", "1", "--steps", "100000000"])
        assert time.perf_counter() - start < 1.0
        self.assert_rejected(rc, capsys, "ceiling of 10000000, got 100000000")

    @pytest.mark.parametrize("argv,needle", [
        (["gate", "--t", "inf"], "argument --t: non-finite value"),
        (["gate", "--t", "0", "--theta", "nan"], "argument --theta: non-finite value"),
        (["closedform", "--family", "su2", "--t", "0", "--s=-inf"], "argument --s: non-finite value"),
        (["closedform", "--family", "su4", "--t", "1", "--m", "nan"], "argument --m: non-finite value"),
        (["closedform", "--family", "su4", "--t", "1", "--p", "0,inf,1"], "argument --p: non-finite value"),
        (["closedform", "--family", "su4", "--t", "1", "--p", "0,0,1e200"], "non-finite energy"),
        (["propagate", "--family", "su4", "--t1", "1", "--m", "1e200"], "non-finite energy"),
        # finite options whose t - s or E t overflows inside the family
        (["closedform", "--family", "su2", "--t", "1e308", "--s=-1e308"], "non-finite entries in U(t,s)"),
        (["closedform", "--family", "su4", "--t", "1e300", "--m", "1e10"], "non-finite entries in H(t)"),
        (["propagate", "--family", "su4", "--t1", "1e300", "--m", "1e100", "--steps", "1"],
         "non-finite entries in H(t) at t = 5e+299: the inputs overflow"),
        # the order-4 step names its first Gauss point, (1/2 - sqrt(3)/6) * t1
        (["propagate", "--family", "su4", "--t1", "1e300", "--m", "1e100", "--steps", "1", "--order", "4"],
         "non-finite entries in H(t) at t = 2.113248654051"),
    ])
    def test_non_finite_option(self, capsys, argv, needle):
        self.assert_rejected(dispatch(argv), capsys, needle)


class TestDispatch:
    """Usage errors keep the contract too: exit 2 and one ``error:`` line naming the problem."""

    def test_unknown_subcommand(self, capsys):
        TestNonFiniteInput.assert_rejected(dispatch(["frobnicate"]), capsys, "invalid choice: 'frobnicate'")

    def test_missing_required_option(self, capsys):
        TestNonFiniteInput.assert_rejected(
            dispatch(["integrate"]), capsys, "spinctl integrate: the following arguments are required")

    @pytest.mark.parametrize("argv,needle", [
        (["closedform", "--family", "su5", "--t", "1"], "argument --family: invalid choice: 'su5'"),
        (["gate", "--t", "x"], "argument --t: invalid float value: 'x'"),
        # argparse reads a negative number in exponent form as an option: write --t1=-1e308
        (["propagate", "--family", "su2", "--t1", "-1e308"], "argument --t1: expected one argument"),
        (["propagate", "--family", "su2", "--t1", "1", "--steps", "1.5"], "argument --steps: invalid int"),
        (["audit", "--seed", "x"], "argument --seed: invalid int value: 'x'"),
        (["gate", "--t", "0", "--bogus"], "unrecognized arguments: --bogus"),
        # argparse joins unrecognized arguments unquoted: a line break in one must not split the line
        (["gate", "--t", "0", "a\nb"], "unrecognized arguments: a b"),
        # --p is checked for every family, not only the su4 that reads it
        (["closedform", "--family", "su2", "--t", "0", "--p", "x"], "argument --p: invalid float value"),
        (["audit", "--seed", "-1"], "argument --seed: negative value: '-1'"),
        # --p takes exactly three components, whatever the family
        (["closedform", "--family", "su2", "--t", "0", "--p", "1,2"], "argument --p: expected 3 components"),
        (["closedform", "--family", "su4", "--t", "0", "--p", "1,2"], "argument --p: expected 3 components"),
        (["propagate", "--family", "su4", "--t1", "1", "--p", "1,2,3,4"], "argument --p: expected 3 components"),
        # the oracle validates the order, before any H(t) call
        (["propagate", "--family", "su2", "--t1", "1", "--order", "3"], "order must be 2 or 4, got 3"),
        (["propagate", "--family", "su2", "--t1", "1", "--order", "x"], "argument --order: invalid int value"),
    ])
    def test_usage_error(self, capsys, argv, needle):
        TestNonFiniteInput.assert_rejected(dispatch(argv), capsys, needle)

    def test_cached_parser_keeps_no_state(self, capsys):
        # the parser is built once per process: no call's options may reach the next call
        assert _build_parser() is _build_parser()
        argv = ["propagate", "--family", "su4", "--t1", "0.5", "--steps", "50"]
        outs = []
        for extra in (["--p", "0,0,1"], ["--p", "1,2,3"], []):
            assert dispatch(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[2] == outs[0] != outs[1]
        assert dispatch(argv + ["--p", "1,2,3", "--order", "x"]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert dispatch(argv) == 0
        assert capsys.readouterr().out == outs[0]

    def test_help_exits_zero(self, capsys):
        assert dispatch(["--help"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: spinctl") and err == ""

    def test_no_option_is_a_bare_float(self):
        # a float option must go through _finite_float, or a non-finite value slips past parsing
        parsers = [_build_parser()]
        for parser in parsers:
            for action in parser._actions:
                assert action.type is not float, f"{parser.prog} {action.option_strings}"
                if isinstance(action, argparse._SubParsersAction):
                    parsers.extend(action.choices.values())
        assert len(parsers) == 7

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinctl", "gate", "--t", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "0.70710678118654746" in proc.stdout

    def test_module_entry_point_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "spinctl",
             "propagate", "--family", "su2", "--t1", "-1e308"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == "error: spinctl propagate: argument --t1: expected one argument\n"


NUMBERS = st.sampled_from(
    ["0", "1", "-1", "0.5", "2.5", "1e-320", "1e200", "-1e300", "1e308", "inf", "-inf", "nan", "x", ""])
FAMILIES = st.sampled_from(["su2", "su3", "su4", "su5"])


def _options(**strategies):
    """argv fragments ``--name value``, each option present or absent."""
    parts = [st.one_of(st.just([]), value.map(lambda v, n=name: [f"--{n}", v]))
             for name, value in strategies.items()]
    return st.tuples(*parts).map(lambda opts: [tok for opt in opts for tok in opt])


def _dispatch_quietly(argv):
    """dispatch(argv) with stdout discarded; its exit code after checking stderr.

    Exit 2 must write exactly one stderr line, starting ``error:``; exit 0
    or 1 must write nothing there.
    """
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = dispatch(argv)
    lines = err.getvalue().splitlines()
    if rc == 2:
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
    else:
        assert lines == [], (argv, rc, lines)
    return rc


class TestDispatchProperties:
    """Over bounded argv with hostile numbers, dispatch never raises, only audit returns 1,
    and stderr holds one ``error:`` line on exit 2 and nothing otherwise."""

    @settings(PROPERTY, max_examples=150)
    @given(argv=st.one_of(
        st.tuples(st.just(["gate"]), _options(t=NUMBERS, theta=NUMBERS)),
        st.tuples(st.tuples(st.just("closedform"), st.just("--family"), FAMILIES).map(list),
                  _options(t=NUMBERS, s=NUMBERS, theta=NUMBERS, m=NUMBERS,
                           p=st.lists(NUMBERS, min_size=2, max_size=4).map(",".join))),
        st.tuples(st.tuples(st.just("propagate"), st.just("--family"), FAMILIES).map(list),
                  _options(t1=NUMBERS, m=NUMBERS, theta=NUMBERS,
                           steps=st.sampled_from(["1", "3", "0", "-2", "1.5", "x"]),
                           order=st.sampled_from(["2", "4", "3", "x"]),
                           p=st.lists(NUMBERS, min_size=3, max_size=3).map(",".join))),
    ).map(lambda parts: parts[0] + parts[1]))
    def test_matrix_commands(self, argv):
        assert _dispatch_quietly(argv) in (0, 2)

    @settings(PROPERTY, max_examples=150)
    @given(group_split=st.sampled_from([("su2", "sx,sy", "sx", "sz"), ("su4", "s30,s11", "s11", "s22")]),
           h=NUMBERS, T=NUMBERS, stride=st.sampled_from(["1", "2", "0", "x"]),
           h0=NUMBERS, f0=NUMBERS)
    def test_integrate(self, tmp_path_factory, group_split, h, T, stride, h0, f0):
        # the finite positive values keep T / h at most 5, or put it past the step ceiling
        group, split, h_label, f_label = group_split
        work = tmp_path_factory.mktemp("integrate")
        cfg = work / "run.cfg"
        cfg.write_text(f"group = {group}\nsplit = {split}\nh = {h}\nT = {T}\nstride = {stride}\n"
                       f"[hamiltonian]\n{h_label} = {h0}\n[constraint]\n{f_label} = {f0}\n")
        assert _dispatch_quietly(["integrate", "--config", str(cfg),
                                  "--out", str(work / "o.csv")]) in (0, 2)

    @settings(PROPERTY, max_examples=8)
    @given(extra=_options(tol=NUMBERS, seed=st.sampled_from(["0", "5", "-1", "x"])))
    def test_audit(self, extra):
        assert _dispatch_quietly(["audit", *extra]) in (0, 1, 2)


FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def _run_configs(draw):
    """(config text, group, S labels, coefficients by label, h, T, stride)."""
    group = draw(st.sampled_from(["su2", "su3", "su4"]))
    labels = build_basis(group).labels
    order = draw(st.permutations(labels))
    s_labels = tuple(order[:draw(st.integers(1, len(labels)))])
    coeffs = draw(st.dictionaries(st.sampled_from(labels), FINITE))
    h, T, stride = draw(POSITIVE), draw(POSITIVE), draw(st.integers(1, 10 ** 6))
    lines = [f"group = {group}", "split = " + ",".join(s_labels),
             f"h = {h!r}", f"T = {T!r}", f"stride = {stride}", "[hamiltonian]"]
    lines += [f"{l} = {v!r}" for l, v in coeffs.items() if l in s_labels]
    lines.append("[constraint]")
    lines += [f"{l} = {v!r}" for l, v in coeffs.items() if l not in s_labels]
    return "\n".join(lines) + "\n", group, s_labels, coeffs, h, T, stride


class TestConfigRoundTrip:
    @settings(PROPERTY, max_examples=200)
    @given(case=_run_configs())
    def test_parse_recovers_what_was_written(self, case):
        text, group, s_labels, coeffs, h, T, stride = case
        cfg = parse_config(text)
        c_labels = tuple(l for l in build_basis(group).labels if l not in s_labels)
        assert cfg.split.basis.group_id == group
        assert cfg.split.hamiltonian_labels == s_labels
        assert cfg.split.constraint_labels == c_labels
        for got, labels in ((cfg.initial.h_coeffs, s_labels), (cfg.initial.f_coeffs, c_labels)):
            # bitwise, so -0.0 and the last digit of every repr survive
            assert got.tobytes() == np.array([coeffs.get(l, 0.0) for l in labels]).tobytes()
        assert (cfg.h.hex(), cfg.T.hex(), cfg.stride) == (h.hex(), T.hex(), stride)
