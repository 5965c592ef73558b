"""Spans around the package's public functions, installed from outside.

The tracer rebinds each listed function in every spinfridge module that holds
it, so names copied by ``from .linalg import evolve`` (``fridge.evolve``,
``cycles.partial_trace``, ``cli.exchange`` ...) are traced too. Classes are
traced through their ``__init__`` so that ``isinstance`` keeps working. Nothing
under ``src/`` changes; ``uninstall`` restores every binding.

A span is (id, name, parent, op, start_ns, end_ns). Spans stay in memory as
one flat int64 array and are written out once, after the run.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS = {
    "cli": ("parse_config", "run", "emit"),
    "cycles": ("run_cycles", "scan_phase_diagram"),
    "compiler": ("compile_exchange", "sequence_unitary", "verify", "run_with_ledger", "GateStep"),
    "fridge": ("exchange", "initial_state"),
    "thermo": ("thermal_state", "effective_temperature", "von_neumann_entropy",
               "internal_energy", "ledger_step"),
    "linalg": ("DensityMatrix", "Operator", "evolve", "herm_exp", "partial_trace", "kron"),
    "cooling": ("simulate_bcs",),
}
TRACED = tuple(f"{module}.{name}" for module, names in LAYERS.items() for name in names)
ROOT = "op"  # one span per cli.main call; its id groups the op's spans
_FIELDS = 6


class Tracer:
    def __init__(self) -> None:
        self.names = (ROOT,) + TRACED
        self.spans = array("q")
        self.stack = [-1]
        self.next_id = 0
        self.op = -1
        self.eig_calls = 0
        self.herm_exp_keys: set[tuple[bytes, float]] = set()
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, hook=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            span = tracer.next_id
            tracer.next_id = span + 1
            parent = stack[-1]
            stack.append(span)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((span, name_id, parent, tracer.op, start, end))

        traced.__wrapped__ = fn
        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _note_herm_exp(self, h, t, *_, **__) -> None:
        self.herm_exp_keys.add((h.matrix.tobytes(), float(t)))

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "spinfridge" or name.startswith("spinfridge."))]
        for name_id, qualified in enumerate(TRACED, start=1):
            module_name, attr = qualified.split(".")
            original = getattr(sys.modules[f"spinfridge.{module_name}"], attr)
            if isinstance(original, type):
                self._rebind(original, "__init__", self._wrap(original.__init__, name_id))
                continue
            hook = self._note_herm_exp if qualified == "linalg.herm_exp" else None
            wrapper = self._wrap(original, name_id, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._rebind(module, key, wrapper)

        def counted(fn):
            def eig(*args, **kwargs):
                self.eig_calls += 1
                return fn(*args, **kwargs)
            return eig

        for attr in ("eigh", "eigvalsh"):
            self._rebind(np.linalg, attr, counted(getattr(np.linalg, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def call_op(self, op_index: int, fn, *args):
        """Run one op under a root span."""
        self.op = op_index
        return self._wrap(fn, 0)(*args)

    def table(self) -> np.ndarray:
        """Spans as an (n, 6) int64 array sorted by span id."""
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, _FIELDS)
        return table[np.argsort(table[:, 0], kind="stable")]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls, inclusive and self seconds (all ops together)."""
        table = self.table()
        duration = (table[:, 5] - table[:, 4]).astype(np.float64)
        parents = table[:, 2]
        child = np.zeros(len(table))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], duration[has_parent])
        self_time = duration - child
        ids = table[:, 1]
        size = len(self.names)
        calls = np.bincount(ids, minlength=size)
        inclusive = np.bincount(ids, weights=duration, minlength=size) / 1e9
        exclusive = np.bincount(ids, weights=self_time, minlength=size) / 1e9
        return {
            name: {"calls": int(calls[i]), "incl_s": float(inclusive[i]), "self_s": float(exclusive[i])}
            for i, name in enumerate(self.names)
        }

    def write(self, path) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 fields=np.array(["id", "name", "parent", "op", "start_ns", "end_ns"]))
