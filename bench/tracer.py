"""Outside-in span tracer for the ``unruh_steer`` package.

The tracer rebinds every public function of every loaded ``unruh_steer``
module in every module namespace that holds it. ``cli``, ``sweeps`` and
``steering`` import names directly (``from .model import evolve``), so
patching the defining module alone would miss those calls; rebinding by
identity of the original function catches all of them.

A span is (function id, item id, parent span, start, end). Spans are kept
in flat ``array`` buffers while the run lasts and aggregated with numpy at
the end: a span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

from workloads import DEGENERACY_GATE

PACKAGE = "unruh_steer"
SPLIT_BY_BRANCH = frozenset({
    "steering.steering_induced_coherence",
    "steering.one_sided_mid",
})


def _branch(args, kwargs) -> str:
    state = args[0] if args else kwargs.get("state")
    b = getattr(state, "b_vec", None)
    if b is None:
        return ""
    norm = float(sum(float(x) * float(x) for x in b)) ** 0.5
    return ".deg" if norm < DEGENERACY_GATE else ".nondeg"


def _package_modules():
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def _span_name(fn) -> str:
    module = fn.__module__
    if module.startswith(PACKAGE + "."):
        module = module[len(PACKAGE) + 1:]
    return f"{module}.{fn.__qualname__}"


class Tracer:
    """Records spans of package calls made while ``active`` is true.

    ``install`` swaps wrappers into the module namespaces and ``uninstall``
    puts the originals back, so untraced passes run the unmodified code.
    ``item`` is the id of the benchmark item being executed; spans opened
    outside an item, or while ``active`` is false, are not recorded.
    Results of the functions named in ``keep_results`` are collected in
    ``kept`` so the caller can count rows and bytes after the item ends,
    outside every span.
    """

    def __init__(self, keep_results=()):
        self.active = False
        self.item = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.fid = array("i")
        self.items = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._keep = frozenset(keep_results)
        self.kept: list[tuple[str, object]] = []
        self._bindings = []    # (module, attribute, original)

    def _name_id(self, name: str) -> int:
        fid = self._ids.get(name)
        if fid is None:
            fid = self._ids[name] = len(self.names)
            self.names.append(name)
        return fid

    def _wrap(self, fn):
        name = _span_name(fn)
        fid = self._name_id(name)
        split = name in SPLIT_BY_BRANCH
        keep = name in self._keep
        tracer = self
        fids, items, parents = self.fid, self.items, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(starts)
            fids.append(tracer._name_id(name + _branch(args, kwargs))
                        if split else fid)
            items.append(tracer.item)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if keep:
                tracer.kept.append((name, result))
            return result

        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        if self._bindings:
            return
        wrappers = {}
        for module in _package_modules():
            for attr, obj in list(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith(PACKAGE)):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = wrappers[id(obj)] = self._wrap(obj)
                setattr(module, attr, wrapper)
                self._bindings.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def aggregate(self, items_per_pass: int, n_passes: int):
        """Per-pass calls and self seconds for every span name.

        Item ids are ``pass * items_per_pass + index``. Returns a list (one
        entry per pass) of {name: (calls, self_s)} and the span count of
        each pass.
        """
        import numpy as np

        n = len(self.start)
        nf = max(len(self.names), 1)
        if n == 0:
            return [dict() for _ in range(n_passes)], [0] * n_passes
        fid = np.frombuffer(self.fid, dtype=np.int32)
        item = np.frombuffer(self.items, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=n)
        self_time = dur - child
        pass_of = item.astype(np.int64) // items_per_pass
        key = pass_of * nf + fid
        calls = np.bincount(key, minlength=n_passes * nf).reshape(n_passes, nf)
        selfs = np.bincount(key, weights=self_time,
                            minlength=n_passes * nf).reshape(n_passes, nf)
        spans = np.bincount(pass_of, minlength=n_passes)
        out = []
        for p in range(n_passes):
            out.append({name: (int(calls[p, f]), float(selfs[p, f]))
                        for f, name in enumerate(self.names)})
        return out, [int(s) for s in spans]

    def save(self, path: str) -> None:
        """Write the raw spans and the name table as an ``.npz`` file."""
        import numpy as np

        np.savez(path,
                 names=np.array(self.names, dtype=str),
                 fid=np.frombuffer(self.fid, dtype=np.int32),
                 item=np.frombuffer(self.items, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))
