"""Span tracer for the benchmark's traced runs.

The tracer wraps the package's public functions from the outside, at every
module that imports them, so that no file under ``src/`` changes.  Each call
records one span: its name, the op it belongs to, its parent span, and its
start and end on ``time.perf_counter``.  Spans stay in memory in flat arrays
until the run ends; :func:`summarize` then derives per-layer call counts,
busy time and self time.

``exactmath.binomial`` is deliberately not wrapped: it is called once per
binomial coefficient, far more often than anything else, and a wrapper there
would cost more than the work it measures.  The ``QPolynomial`` arithmetic
dunders (``__add__``, ``__mul__``) stay unwrapped for the same reason; their
time shows up as self time of the engine function that calls them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from array import array

LAYER_MODULES = (
    "secantinv.exactmath",
    "secantinv.secant_core",
    "secantinv.cohomology",
    "secantinv.tangent_geometry",
    "secantinv.cli",
)
# Modules whose namespaces hold a public name: the layers and the package.
IMPORT_SITES = ("secantinv",) + LAYER_MODULES
NOT_WRAPPED = frozenset({"exactmath.binomial"})


class Tracer:
    """In-memory span recorder; ``install`` patches, ``restore`` undoes it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        """Return ``fn`` wrapped so that every call records a span."""
        ident = self._name_id(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, ops = self.name, self.parent, self.op
        starts, ends = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(starts)
            names.append(ident)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.current_op)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()

        return traced

    def patch(self, owner: object, attr: str, name: str) -> None:
        original = inspect.getattr_static(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def install(self) -> None:
        """Wrap every public package function at every module that binds it,
        plus the ``QPolynomial`` and ``Document`` methods the metrics name."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [importlib.import_module(m) for m in IMPORT_SITES]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                if value.__module__ not in LAYER_MODULES:
                    continue
                name = f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}"
                if name not in NOT_WRAPPED:
                    self.patch(module, attr, name)
        exactmath = importlib.import_module("secantinv.exactmath")
        cli = importlib.import_module("secantinv.cli")
        self.patch(exactmath.QPolynomial, "__call__", "exactmath.horner")
        self.patch(exactmath.QPolynomial, "divide_by_linear", "exactmath.divide_by_linear")
        self.patch(cli.Document, "render", "cli.render")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def extend(self, dump: dict, op: int) -> None:
        """Append the spans of another process's :meth:`to_dict` as op ``op``."""
        offset = len(self)
        ids = [self._name_id(n) for n in dump["names"]]
        self.name.extend(ids[i] for i in dump["name"])
        self.parent.extend(p + offset if p >= 0 else -1 for p in dump["parent"])
        self.op.extend(op for _ in dump["name"])
        self.start.extend(dump["start"])
        self.end.extend(dump["end"])

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
        }

    def write_jsonl(self, path) -> None:
        """One JSON object per span, in start order within each process."""
        with open(path, "w", encoding="utf-8") as handle:
            for i in range(len(self)):
                handle.write(json.dumps({
                    "id": i,
                    "op": self.op[i],
                    "parent": self.parent[i],
                    "name": self.names[self.name[i]],
                    "start": self.start[i],
                    "dur": self.end[i] - self.start[i],
                }) + "\n")


def summarize(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``; ``busy_s``, the time covered by spans of the
    name not nested in another span of the same name; and ``self_s``, span
    time minus the time of its direct child spans."""
    count = len(tracer)
    dur = [tracer.end[i] - tracer.start[i] for i in range(count)]
    child = [0.0] * count
    for i in range(count):
        p = tracer.parent[i]
        if p >= 0:
            child[p] += dur[i]
    out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for name in tracer.names}
    for i in range(count):
        name_id = tracer.name[i]
        entry = out[tracer.names[name_id]]
        entry["calls"] += 1
        entry["self_s"] += dur[i] - child[i]
        p = tracer.parent[i]
        while p >= 0 and tracer.name[p] != name_id:
            p = tracer.parent[p]
        if p < 0:
            entry["busy_s"] += dur[i]
    return out


COUNTER_KEYS = tuple(f"{cache}_{field}" for cache in ("chi", "node")
                     for field in ("hits", "misses", "size"))


def cache_counters() -> dict[str, int]:
    """Hits, misses and sizes of the engine's chi and node-table caches.  A
    failed build counts as a miss but adds no entry, so the growth of
    ``chi_size`` counts the chi builds that completed."""
    core = importlib.import_module("secantinv.secant_core")
    out = {}
    for key, attr in (("chi", "_chi"), ("node", "_node_table")):
        info = getattr(getattr(core, attr, None), "cache_info", None)
        hits, misses, _, size = info() if info else (0, 0, None, 0)
        out.update({f"{key}_hits": hits, f"{key}_misses": misses, f"{key}_size": size})
    return out
