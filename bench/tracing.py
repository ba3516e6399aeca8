"""Spans around the public functions of each krabi layer, recorded from outside.

:meth:`Tracer.install` wraps every public function (and every public
method and ``__post_init__`` of every public class) defined in the layer
modules, then rebinds each wrapped name wherever it is bound: in the
defining module, in the modules that import it (``krabi.spectra.eig_hermitian``,
``krabi.riccati.eig_hermitian``, ...) and in the package namespace. Nothing
under ``src/`` is edited; :meth:`Tracer.uninstall` restores every binding.

A span records its name, start, end and parent span; the benchmark's root
span around each op (:meth:`Tracer.run_op`) is the ancestor that all spans
of one op share. Spans stay in memory, in flat arrays, until the run ends.
A span's self time is its duration minus the durations of its child spans;
the calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "fock", "model", "parity", "riccati", "spectra", "cli")

#: Span name of the benchmark's own root span around each op.
OP = "op"


def _eig_elems(args, kwargs, result) -> int:
    n = np.shape(args[0] if args else kwargs["a"])[0]
    return n * n


def _text_bytes(args, kwargs, result) -> int:
    return len(result)


#: Work counted per call, beside the call itself: matrix elements handed to
#: the eigensolver and bytes of CSV text produced.
AMOUNTS = {
    "linalg.eig_hermitian": _eig_elems,
    "spectra.trajectory_csv": _text_bytes,
    "spectra.sweep_csv": _text_bytes,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        amount = AMOUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if amount is not None:
                self.amount[idx] = amount(args, kwargs, result)
            return result

        return traced

    def run_op(self, fn, *args):
        """Call ``fn(*args)`` inside a root span for one op."""
        idx = self._open(OP)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def install(self) -> None:
        package = importlib.import_module("krabi")
        modules = [importlib.import_module(f"krabi.{layer}") for layer in LAYERS]
        wrapped = {}
        for layer, mod in zip(LAYERS, modules):
            for name, obj in vars(mod).items():
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    for attr, fn in list(vars(obj).items()):
                        if inspect.isfunction(fn) and (
                                attr == "__post_init__" or not attr.startswith("_")):
                            self._patch(obj, attr, self.wrap(f"{layer}.{name}.{attr}", fn))
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])

    def _patch(self, target, name: str, value) -> None:
        self._patches.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        while self._patches:
            target, name, original = self._patches.pop()
            setattr(target, name, original)

    def totals(self) -> dict[str, dict]:
        """Per span name: calls, summed self time in s, summed amount."""
        n = len(self.start)
        if n == 0:
            return {}
        nid = np.asarray(self.name_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
        self_s = dur - children
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        self_sum = np.bincount(nid, weights=self_s, minlength=k)
        amount = np.bincount(nid, weights=np.asarray(self.amount), minlength=k)
        return {
            name: {"calls": int(calls[i]), "self_s": float(self_sum[i]),
                   "amount": float(amount[i])}
            for i, name in enumerate(self.names)
        }
