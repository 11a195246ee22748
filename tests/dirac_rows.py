"""Named slots of a 15-slot su4 Dirac-split row.

A row is the layout of ``audit._component_rates`` and ``audit._vector_rates``:
the coefficients of ``canonical_split("su4")`` in its order, h then f. States
and rates share it.
"""
from types import SimpleNamespace

import numpy as np

SLOTS = {"m": 0, "p": slice(1, 4), "omega0": slice(4, 7), "omega10": 7, "omega20": 8,
         "omega2": slice(9, 12), "omega3": slice(12, 15)}


def dirac_row(**coords) -> np.ndarray:
    """A row with the named coordinates set and every other slot zero."""
    x = np.zeros(15)
    for name, value in coords.items():
        x[SLOTS[name]] = value
    return x


def named(x: np.ndarray) -> SimpleNamespace:
    """The coordinates of a row by name: ``named(x).omega3`` is x[12:15]."""
    return SimpleNamespace(**{name: x[k] for name, k in SLOTS.items()})
