"""Layer spans for the traced benchmark run.

The tracer wraps, from outside the package, the public functions and methods
of each opineq module, every registry entry's trial function and the public
functions of ``numpy.linalg``. A wrapper records a span only when a call
crosses a layer boundary (its caller is in another layer); calls inside one
layer cost a flag test and are charged to the layer's outer span. Spans are
kept in flat arrays while the run lasts and written out when it ends.

A layer's self time is the duration of its spans minus the part covered by
their child spans. The self times of all layers plus ``unattributed`` (timed
wall time outside any span) therefore add up to the traced wall time by
construction. What can go wrong is a span outside its parent or its unit's
timed window, which would make a self time or ``unattributed`` negative;
``check_spans`` looks for that.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import math
from array import array
from time import perf_counter

# every opineq module the workloads reach; `oracle` is left out on purpose:
# no workload calls it, so it would only ever report zeros
LAYERS = ("rng", "generators", "hermitian", "maps", "means", "constants",
          "functions", "checks", "registry", "suite", "falsify", "io", "cli")
LINALG = "numpy.linalg"
ENTRY_PREFIX = "registry.entry."
# methods wrapped besides public ones; the rest of the dunders are plumbing
_DUNDERS = ("__init__", "__call__", "__post_init__")


class Tracer:
    """Span recorder. `active` is set only around timed calls, so the
    benchmark's own checking code never records spans."""

    def __init__(self):
        self.active = False
        self.run_id = -1
        self.layer = None      # layer of the innermost open span
        self.top = -1          # index of the innermost open span
        self.span_names: list[str] = []
        self.span_layers: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters = {"numpy.linalg.matrices": 0, "checks.verdicts": 0,
                         "io.bytes": 0}
        self.constant_keys: set = set()
        self.windows: dict[int, tuple[float, float]] = {}   # run id -> timed window
        self._patches: list[tuple[object, str, object]] = []

    # -- installing -----------------------------------------------------

    def install(self) -> None:
        import numpy.linalg as la
        modules = {layer: importlib.import_module(f"opineq.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    exit = self._count_bytes if (layer, attr) == ("io", "dump_json") else None
                    replaced[id(obj)] = self._wrap(obj, layer, attr, exit=exit)
                elif inspect.isclass(obj):
                    self._wrap_class(obj, layer, mod.__file__)
        for spec in modules["registry"].REGISTRY:
            wrapped = self._wrap(spec.run_trial, "registry", f"entry.{spec.name}")
            self._set(spec, "run_trial", wrapped, frozen=True)
        result_cls = modules["checks"].CheckResult
        self._set(result_cls, "__init__", self._count(result_cls.__init__, "checks.verdicts"))
        # rebind every module-level reference (the package imports names
        # with `from .x import y`, so each importer holds its own binding)
        for mod in list(modules.values()) + [importlib.import_module("opineq")]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    self._set(mod, attr, replaced[id(obj)])
        for attr in la.__all__:
            obj = getattr(la, attr)
            if callable(obj) and not inspect.isclass(obj):
                self._set(la, attr, self._wrap(obj, LINALG, attr, enter=self._count_matrices))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, type) or inspect.ismodule(owner):
                setattr(owner, attr, original)
            else:
                object.__setattr__(owner, attr, original)
        self._patches.clear()

    def _set(self, owner, attr, value, frozen=False) -> None:
        # a class keeps its raw dict entry, so a property comes back as one
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        if frozen:
            object.__setattr__(owner, attr, value)
        else:
            setattr(owner, attr, value)

    def _wrap_class(self, cls, layer, filename) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            label = f"{cls.__name__}.{attr}"
            # methods written in the module; dataclass-generated ones are skipped
            if inspect.isfunction(obj) and obj.__code__.co_filename == filename:
                self._set(cls, attr, self._wrap(obj, layer, label))
            elif isinstance(obj, property) and obj.fget is not None:
                self._set(cls, attr, property(self._wrap(obj.fget, layer, label)))

    # -- wrappers -------------------------------------------------------

    def _wrap(self, fn, layer, label, enter=None, exit=None):
        t = self
        nid = len(self.span_names)
        self.span_names.append(f"{layer}.{label}")
        self.span_layers.append(layer)
        if enter is None and layer == "constants":
            enter = functools.partial(self._constant_key, label)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not t.active or t.layer == layer:
                return fn(*args, **kwargs)
            if enter is not None:
                enter(args, kwargs)
            parent, outer = t.top, t.layer
            i = len(t.start)
            t.name.append(nid)
            t.parent.append(parent)
            t.run.append(t.run_id)
            t.end.append(0.0)
            t.top, t.layer = i, layer
            t.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t.end[i] = perf_counter()
                t.top, t.layer = parent, outer
            if exit is not None:
                exit(out)
            return out
        return wrapper

    def _count(self, fn, counter):
        t = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if t.active:
                t.counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_matrices(self, args, kwargs) -> None:
        shape = getattr(args[0], "shape", ()) if args else ()
        n = 1
        for d in shape[:-2]:
            n *= d
        self.counters["numpy.linalg.matrices"] += n

    def _count_bytes(self, text) -> None:
        self.counters["io.bytes"] += len(text.encode("utf-8"))

    def _constant_key(self, label, args, kwargs) -> None:
        self.constant_keys.add((label,) + tuple(_key(a) for a in args)
                               + tuple((k, _key(v)) for k, v in sorted(kwargs.items())))

    # -- results --------------------------------------------------------

    def span_count(self) -> int:
        return len(self.start)

    def check_spans(self, tol: float = 1e-9) -> list:
        """Every way the span table breaks the nesting that self times rely
        on; empty when it holds. Each span must end after it starts and lie
        inside its parent, or, for a root span, inside its unit's timed
        window; and its children must not cover more than its duration."""
        problems = []
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                lo, hi, where = self.start[p], self.end[p], f"parent span {p}"
                child[p] += self.end[i] - self.start[i]
            else:
                lo, hi = self.windows.get(self.run[i], (math.inf, -math.inf))
                where = f"timed window of unit {self.run[i]}"
            if not lo <= self.start[i] <= self.end[i] <= hi:
                problems.append(f"span {i} ({self.span_names[self.name[i]]}) "
                                f"lies outside the {where}")
        problems += [f"span {i} ({self.span_names[self.name[i]]}) has negative self time"
                     for i in range(n) if self.end[i] - self.start[i] - child[i] < -tol]
        return problems

    def layer_table(self) -> dict:
        """Per layer: boundary calls and self seconds; per registry entry:
        inclusive seconds."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS + (LINALG,)}
        entries: dict[str, float] = {}
        roots = 0.0
        for i in range(n):
            nid = self.name[i]
            row = table[self.span_layers[nid]]
            row["calls"] += 1
            row["self_s"] += dur[i] - child[i]
            if self.parent[i] < 0:
                roots += dur[i]
            name = self.span_names[nid]
            if name.startswith(ENTRY_PREFIX):
                entry = name[len(ENTRY_PREFIX):]
                entries[entry] = entries.get(entry, 0.0) + dur[i]
        return {"layers": table, "entries": entries, "root_s": roots}

    def write_spans(self, path) -> None:
        """One CSV row per span: run id, span id, parent id, name, start and
        end in seconds on the process clock."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("run,span,parent,name,start,end\n")
            names = self.span_names
            for i in range(len(self.start)):
                fh.write(f"{self.run[i]},{i},{self.parent[i]},{names[self.name[i]]},"
                         f"{self.start[i]:.9f},{self.end[i]:.9f}\n")


def _key(value):
    """Hashable, value-based form of a constant's argument."""
    if hasattr(value, "m") and hasattr(value, "M"):
        return (float(value.m), float(value.M))
    if hasattr(value, "evaluate") and hasattr(value, "name"):
        return value.name
    if isinstance(value, (int, float)):
        return float(value)
    if hasattr(value, "tobytes"):
        return ("array", value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_key(v) for v in value)
    return repr(value)

