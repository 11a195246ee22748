"""Reference constructions shared by several test modules."""
import importlib.util
from pathlib import Path

import numpy as np
from hypothesis import settings

from spinctl.closedforms import DiracParameters
from spinctl.generators import PAULI
from spinctl.matrixcore import dagger

I2, SX, SY, SZ = PAULI

ROOT = Path(__file__).resolve().parent.parent

#: Tier-1 must not flake: property tests draw the same examples on every run.
PROPERTY = settings(deadline=None, database=None, derandomize=True)


def load_tool(name: str):
    """The script tools/<name>.py, loaded by path as a fresh module."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def eigh_exp(h, tau):
    """exp(-i H tau) of one Hermitian matrix through numpy's eigh: the reference."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)) @ dagger(v)


def random_params(rng, min_p=0.1) -> DiracParameters:
    """m and p0 uniform in [-2, 2), p0 redrawn until |p0| > min_p."""
    p = rng.uniform(-2, 2, 3)
    while np.linalg.norm(p) <= min_p:
        p = rng.uniform(-2, 2, 3)
    return DiracParameters(m=rng.uniform(-2, 2), p0=p)


def displayed_dirac_matrix(m, p):
    """The static Dirac block matrix [[m 1, -i p.sigma], [i p.sigma, -m 1]]."""
    ps = p[0] * SX + p[1] * SY + p[2] * SZ
    h = np.zeros((4, 4), dtype=complex)
    h[:2, :2] = m * I2
    h[2:, 2:] = -m * I2
    h[:2, 2:] = -1j * ps
    h[2:, :2] = 1j * ps
    return h
