"""Span tracing of spinctl's public functions, installed from outside the package.

``Tracer.install`` replaces every public function of the layer modules at
each module attribute that holds it (the defining module and every module
that imported it by name), plus ``numpy.linalg.eigh`` with a call counter.
``Tracer.restore`` puts every original back. Spans (name, start, end,
parent, op id) are kept in flat in-memory arrays and written out by
``save``; ``summary`` turns them into per-name call counts, inclusive and
self times over the spans that lie inside an op.

A call made while a span of the same name is innermost is not a new span:
the su4 family's H(t) calls ``dirac_hamiltonian``, and both count as one
H(t) evaluation.
"""
from __future__ import annotations

import contextlib
import dataclasses
import inspect
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

LAYERS = ("matrixcore", "generators", "brachistochrone", "closedforms", "oracle", "audit", "cli")
ROOT_SPAN = "bench.op"
#: Functions traced under a shared name: the direct forms of a family's H(t) and U(t, s).
ALIASES = {
    "closedforms.dirac_hamiltonian": "closedforms.hamiltonian",
    "closedforms.su4_propagator": "closedforms.propagator",
}
FAMILY_FACTORIES = ("closedforms.su2_family", "closedforms.su3_family", "closedforms.su4_family")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id, self.parent, self.op = array("i"), array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack: list[int] = []
        self._top: list[int] = []
        self.current_op = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patched: list[tuple[object, str, object]] = []
        self._root = self.wrap(ROOT_SPAN, lambda fn, *args: fn(*args))

    # -- recording -------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, after=None):
        """``fn`` recording one span per call; ``after(bound_args, result)`` may count work."""
        nid = self._id(name)
        ids, parents, ops, starts, ends = self.name_id, self.parent, self.op, self.start, self.end
        stack, top, clock = self._stack, self._top, time.perf_counter
        sig = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            if top and top[-1] == nid:
                return fn(*args, **kwargs)
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(idx)
            top.append(nid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                top.pop()
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(bound.arguments, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def run_op(self, op_id: int, fn, *args):
        """``fn(*args)`` under the root span of op ``op_id``.

        Spans recorded outside any op (input preparation, gates) are left
        out of ``summary``.
        """
        self.current_op = op_id
        try:
            return self._root(fn, *args)
        finally:
            self.current_op = -1

    # -- install / restore -----------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """The wrappers in place for the body of a ``with`` block only."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def install(self) -> None:
        """Replace the layers' public functions wherever spinctl binds them."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"spinctl.{layer}"]
            for attr in mod.__all__:
                obj = getattr(mod, attr)
                if inspect.isclass(obj) or not callable(obj):
                    continue
                name = f"{layer}.{attr}"
                replacements[id(obj)] = (obj, self._traced(ALIASES.get(name, name), obj))
        modules = [m for n, m in list(sys.modules.items()) if n == "spinctl" or n.startswith("spinctl.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            self.counters["eigh"] += 1
            return eigh(*args, **kwargs)

        self._patch(np.linalg, "eigh", counted_eigh)

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every original replaced by ``install``."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _traced(self, name: str, fn):
        if name in FAMILY_FACTORIES:
            return self._family_factory(name, fn)
        if name == "audit.run_check":
            return self._run_check(fn)
        if name == "brachistochrone.integrate":
            return self.wrap(name, fn, after=self._count_integrate)
        if name == "oracle.time_ordered_exponential":
            return self.wrap(name, fn, after=self._count_product)
        return self.wrap(name, fn)

    def _family_factory(self, name: str, fn):
        """Families carry H(t) and U(t, s) as closures: trace the returned ones."""
        factory = self.wrap(name, fn)

        def traced_factory(*args, **kwargs):
            fam = factory(*args, **kwargs)
            changes = {
                "hamiltonian": self.wrap("closedforms.hamiltonian", fam.hamiltonian),
                "propagator": self.wrap("closedforms.propagator", fam.propagator),
            }
            if fam.gate is not None:
                changes["gate"] = self.wrap("closedforms.gate", fam.gate)
            return dataclasses.replace(fam, **changes)

        traced_factory.__wrapped__ = fn
        return traced_factory

    def _run_check(self, fn):
        """One span name per check id, and the worst max_error per check."""
        per_check: dict[str, object] = {}

        def traced_run_check(check_id, *args, **kwargs):
            if check_id not in per_check:
                per_check[check_id] = self.wrap(f"audit.{check_id}", fn)
            result = per_check[check_id](check_id, *args, **kwargs)
            key = f"audit.{check_id}.max_err"
            self.counters[key] = max(self.counters[key], float(result.max_error))
            return result

        traced_run_check.__wrapped__ = fn
        return traced_run_check

    def _count_integrate(self, args, traj) -> None:
        self.counters["rk4_steps"] += int(round(args["T"] / args["h"]))
        self.counters["samples"] += len(traj.times)

    def _count_product(self, args, _) -> None:
        self.counters["oracle_steps"] += int(args["steps"])

    # -- results ---------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        """Every recorded span: name_id, start, end, parent and op, one array each."""
        ints = {k: np.array(getattr(self, k), dtype=np.intc) for k in ("name_id", "parent", "op")}
        return {**ints, "start": np.array(self.start), "end": np.array(self.end)}

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds), over spans inside ops."""
        a = self.arrays()
        n = len(a["start"])
        nid, parent, op = a["name_id"], a["parent"], a["op"]
        dur = a["end"] - a["start"]
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        own = dur - covered
        inside = op >= 0
        k = len(self.names)
        calls = np.bincount(nid[inside], minlength=k)
        total = np.bincount(nid[inside], weights=dur[inside], minlength=k)
        self_t = np.bincount(nid[inside], weights=own[inside], minlength=k)
        return {name: (int(calls[i]), float(total[i]), float(self_t[i]))
                for i, name in enumerate(self.names) if calls[i]}

    def save(self, path) -> None:
        """Write the span arrays, plus ``names`` to map name_id to a span name."""
        np.savez(path, names=np.array(self.names), **self.arrays())
