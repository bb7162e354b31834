"""Span tracing from outside the package: wrap the names the program looks up.

A wrapper replaces a module or class attribute for the life of a ``with
Tracer()`` block and records one span per call: name, start, end, the span
open when the call began (its parent) and the current run id.  Spans stay in
flat arrays in memory and are written out once, at the end, by ``save``.
Every patched attribute is put back on exit, also when the block raises.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

import numpy as np

NO_PARENT = -1


class Tracer:
    """Spans of every wrapped call, plus the patches to undo on exit."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = 0
        self.missing: set[str] = set()
        self._open = [NO_PARENT]
        self._patches: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str):
        """``fn`` with every call recorded as a span called ``name``."""
        nid = self._id(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._open.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._open.pop()

        return traced

    def patch(self, owner, attr: str, name: str, wrapper=None) -> None:
        """Replace ``owner.attr`` by a traced version until the block ends.

        ``wrapper(original)`` builds the replacement when the call's
        arguments need wrapping too.  A name the program no longer has is
        listed in ``missing`` and its metrics read zero.
        """
        if attr not in vars(owner):
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = vars(owner)[attr]
        replacement = wrapper(original) if wrapper else self.wrap(original, name)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        return False

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "run": np.frombuffer(self.run, dtype=np.int32).copy(),
        }

    def totals(self, runs=None) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children.  ``runs`` restricts the sums to those run ids.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] != NO_PARENT
        child = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=dur.shape[0]
        )
        own = dur - child
        keep = np.ones(dur.shape[0], dtype=bool) if runs is None else np.isin(a["run"], list(runs))
        k = len(self.names)
        ids = a["name_id"][keep]
        calls = np.bincount(ids, minlength=k)
        incl = np.bincount(ids, weights=dur[keep], minlength=k)
        excl = np.bincount(ids, weights=own[keep], minlength=k)
        return {
            name: {"calls": int(calls[i]), "s": float(incl[i]), "self_s": float(excl[i])}
            for i, name in enumerate(self.names)
        }

    def save(self, path: Path) -> None:
        """Write every span, with the name table, as one ``.npz`` file."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())
