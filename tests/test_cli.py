import contextlib
import io
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinctl.cli import ConfigError, dispatch, parse_config

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
        assert cfg.group_id == "su2"
        assert cfg.split == ("sx", "sy")
        assert cfg.h_coeffs == {"sx": 1.0}
        assert cfg.f_coeffs == {"sz": -0.5}
        assert cfg.stride == 1
        pair = cfg.initial_pair()
        assert np.allclose(pair.h_coeffs, [1.0, 0.0])
        assert np.allclose(pair.f_coeffs, [-0.5])

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
        from spinctl.generators import build_basis
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

    def test_missing_config_file(self, tmp_path):
        assert dispatch(["integrate", "--config", str(tmp_path / "nope.cfg"),
                         "--out", str(tmp_path / "o.csv")]) == 2

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("group = su2\nsplit = sx,sy\nT = 1\n")
        assert dispatch(["integrate", "--config", str(cfg),
                         "--out", str(tmp_path / "o.csv")]) == 2


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
        (["gate", "--t", "inf"], "--t is non-finite"),
        (["gate", "--t", "0", "--theta", "nan"], "--theta is non-finite"),
        (["closedform", "--family", "su2", "--t", "0", "--s=-inf"], "--s is non-finite"),
        (["closedform", "--family", "su4", "--t", "1", "--m", "nan"], "--m is non-finite"),
        (["closedform", "--family", "su4", "--t", "1", "--p", "0,inf,1"], "--p is non-finite"),
        (["closedform", "--family", "su4", "--t", "1", "--p", "0,0,1e200"], "non-finite energy"),
        (["propagate", "--family", "su4", "--t1", "1", "--m", "1e200"], "non-finite energy"),
    ])
    def test_non_finite_option(self, capsys, argv, needle):
        self.assert_rejected(dispatch(argv), capsys, needle)


class TestDispatch:
    def test_unknown_subcommand(self):
        assert dispatch(["frobnicate"]) == 2

    def test_missing_required_option(self):
        assert dispatch(["integrate"]) == 2

    def test_help_exits_zero(self):
        assert dispatch(["--help"]) == 0

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "spinctl", "gate", "--t", "0"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert "0.70710678118654746" in proc.stdout


NUMBERS = st.sampled_from(
    ["0", "1", "-1", "0.5", "2.5", "1e-320", "1e200", "-1e300", "inf", "-inf", "nan", "x", ""])
FAMILIES = st.sampled_from(["su2", "su3", "su4", "su5"])
#: Tier-1 must not flake: the same examples on every run.
PROPERTY = settings(deadline=None, database=None, derandomize=True)


def _options(**strategies):
    """argv fragments ``--name value``, each option present or absent."""
    parts = [st.one_of(st.just([]), value.map(lambda v, n=name: [f"--{n}", v]))
             for name, value in strategies.items()]
    return st.tuples(*parts).map(lambda opts: [tok for opt in opts for tok in opt])


def _dispatch_quietly(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return dispatch(argv)


class TestDispatchProperties:
    """Over bounded argv with hostile numbers, dispatch never raises and only audit returns 1."""

    @settings(PROPERTY, max_examples=150)
    @given(argv=st.one_of(
        st.tuples(st.just(["gate"]), _options(t=NUMBERS, theta=NUMBERS)),
        st.tuples(st.tuples(st.just("closedform"), st.just("--family"), FAMILIES).map(list),
                  _options(t=NUMBERS, s=NUMBERS, theta=NUMBERS, m=NUMBERS,
                           p=st.lists(NUMBERS, min_size=2, max_size=4).map(",".join))),
        st.tuples(st.tuples(st.just("propagate"), st.just("--family"), FAMILIES).map(list),
                  _options(t1=NUMBERS, m=NUMBERS, theta=NUMBERS,
                           steps=st.sampled_from(["1", "3", "0", "-2", "1.5", "x"]),
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
