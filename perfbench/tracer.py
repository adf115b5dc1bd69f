"""Outside-in tracer for the adaptcl package.

Every public function of every adaptcl module is wrapped by rebinding its
name in each module namespace that holds it: the package imports with
`from .x import y`, so patching only the defining module would miss most
callers. Functions are found by introspection, so a refactor that renames,
moves or merges functions still yields per-module totals.

Spans (function, start, end, parent span) are kept in flat in-memory arrays
for one run id and written out once, at the end.
"""

import functools
import hashlib
import importlib
import inspect
import pkgutil
import sys
import time
from array import array

import numpy as np

# Forward calls whose input row count is recorded (rows per call).
ROW_PROBED = ("model.embed", "model.embed_with_tape")
# Calls whose inputs are fingerprinted (distinct inputs over calls).
FINGERPRINTED = ("data.pretrain_backbone", "data.generate_synthetic")


def _feed(h, obj):
    """Hash an argument tree: arrays by bytes, RNGs by state, objects by fields."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, np.random.Generator):
        _feed(h, obj.bit_generator.state)
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, dict):
        h.update(b"{")
        for key in sorted(obj, key=repr):
            _feed(h, key)
            _feed(h, obj[key])
        h.update(b"}")
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__qualname__.encode())
        _feed(h, vars(obj))
    else:
        h.update(repr(obj).encode())


class Tracer:
    def __init__(self, package: str, run_id: str):
        self.package = package
        self.run_id = run_id
        self.names = []  # qualified "module.function", indexed by function id
        self.fn = array("q")
        self.parent = array("q")  # index of the enclosing span, -1 at the root
        self.start = array("d")
        self.end = array("d")
        self.rows = {name: 0 for name in ROW_PROBED}
        self.inputs = {name: set() for name in FINGERPRINTED}
        self._stack = []

    def install(self) -> None:
        """Wrap every public function of every module of the package."""
        pkg = importlib.import_module(self.package)
        for info in pkgutil.iter_modules(pkg.__path__):
            importlib.import_module(f"{self.package}.{info.name}")
        prefix = self.package + "."
        modules = [m for name, m in list(sys.modules.items()) if name.startswith(prefix)]
        wrappers = {}
        for mod in modules:
            short = mod.__name__[len(prefix):]
            for name, obj in vars(mod).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                ):
                    wrappers[obj] = self._wrap(f"{short}.{name}", obj)
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, name, wrappers[obj])

    def _probe(self, qualname):
        if qualname in self.rows:
            rows = self.rows

            def count_rows(args, kwargs):
                x = args[2] if len(args) > 2 else kwargs.get("x")
                rows[qualname] += x.shape[0] if getattr(x, "ndim", 1) == 2 else 1

            return count_rows
        if qualname in self.inputs:
            seen = self.inputs[qualname]

            def fingerprint(args, kwargs):
                h = hashlib.sha256()
                _feed(h, args)
                _feed(h, kwargs)
                seen.add(h.hexdigest())

            return fingerprint
        return None

    def _wrap(self, qualname, func):
        fid = len(self.names)
        self.names.append(qualname)
        fn, parent, start, end, stack = self.fn, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter
        probe = self._probe(qualname)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if probe is not None:  # outside the span, so probing is not billed to it
                probe(args, kwargs)
            i = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()

        return traced

    def summary(self) -> dict:
        """Per function: calls, inclusive seconds and self seconds (span time
        minus the time covered by its child spans); plus the probe counters."""
        fn = np.asarray(self.fn, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(fn))
        n_fn = len(self.names)
        calls = np.bincount(fn, minlength=n_fn)
        total = np.bincount(fn, weights=dur, minlength=n_fn)
        own = np.bincount(fn, weights=dur - child, minlength=n_fn)
        return {
            "spans": len(fn),
            "functions": {
                name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(own[i])}
                for i, name in enumerate(self.names)
            },
            "rows": dict(self.rows),
            "distinct_inputs": {name: len(seen) for name, seen in self.inputs.items()},
        }

    def write(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            fn=np.asarray(self.fn, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start),
            end=np.asarray(self.end),
            run_id=np.array(self.run_id),
        )
