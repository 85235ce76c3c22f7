"""Spans around calls into ghostsim's public functions, and the per-layer
figures derived from them.

A traced run replaces, in every loaded ``ghostsim`` module, each function in
TRACED by a wrapper that records a span: name, start, end, parent span,
operation id and process. Nothing under ``src/`` changes; the wrappers are
module attributes set from here and restored afterwards. Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import statistics
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

# spans the benchmark opens itself (operations, set-up) carry this prefix and
# belong to no ghostsim layer
BENCH_PREFIX = "bench."

IMPORT_SPAN = "ghostsim.import"

# operation ids read "<kind>-<number>"; probe calls (workloads.probe_missing)
# have this kind
PROBE_OP = "probe"


def _workers_variant(base: int):
    """Span suffix .w<n> for calls whose worker count differs from base."""
    def name(args):
        workers = args.get("workers", 1)
        return "" if workers == base else f".w{workers}"
    return name


def _save_map_variant(args):
    return ".text" if args.get("fmt", "matrix-text") == "matrix-text" else ".pgm"


def _file_size(key, path_arg):
    def count(args, _result):
        return {key: os.path.getsize(args[path_arg])}
    return count


def _gates(_args, frame):
    return {"gates": frame.meta["signal_gates"] + frame.meta["background_gates"]}


def _nodes(_args, nodes):
    return {"nodes": int(nodes)}


# (module, function, variant(bound args) -> name suffix, possible suffixes,
#  counts(bound args, result) -> dict)
TRACED = (
    ("ghostsim.cli", "main", None, ("",), None),
    ("ghostsim.biphoton", "quadrature_oracle_amplitude", None, ("",), None),
    ("ghostsim.optics", "aperture_nodes", None, ("",), _nodes),
    ("ghostsim.optics", "imaging_amplitude", None, ("",), None),
    ("ghostsim.optics", "pattern_image_field", None, ("",), None),
    ("ghostsim.polarization", "pattern_projection_coeff", None, ("",), None),
    ("ghostsim.experiments", "ghost_image_map", _workers_variant(1), ("", ".w2"), None),
    ("ghostsim.experiments", "ghost_interference_map", None, ("",), None),
    ("ghostsim.detector", "build_ghost_image", _workers_variant(2), ("", ".w1"), _gates),
    ("ghostsim.io", "save_map", _save_map_variant, (".text", ".pgm"),
     _file_size("bytes_written", "path")),
    ("ghostsim.io", "load_matrix_text", None, ("",), _file_size("bytes_read", "path")),
    ("ghostsim.io", "load_pgm", None, ("",), _file_size("bytes_read", "path")),
    ("ghostsim.io", "write_config_echo", None, ("",), _file_size("bytes_written", "path")),
)


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


SPAN_NAMES = (IMPORT_SPAN,) + tuple(
    f"{_layer(mod)}.{func}{suffix}"
    for mod, func, _v, suffixes, _c in TRACED
    for suffix in suffixes
)
LAYERS = tuple(dict.fromkeys(name.split(".", 1)[0] for name in SPAN_NAMES))

# functions whose first call in a process also builds cached quadrature nodes
FIRST_CALL_SPANS = ("optics.pattern_image_field", "biphoton.quadrature_oracle_amplitude")

COUNT_METRICS = {
    "optics.aperture_nodes": "count",
    "detector.gates": "count",
    "detector.gates_per_s": "1/s",
    "io.bytes_written": "B",
    "io.bytes_read": "B",
    "trace.spans": "count",
}


def per_layer_metrics():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for name in SPAN_NAMES:
        out.append((f"{name}_s", "s", "lower"))
        out.append((f"{name}.calls", "count", "lower"))
    for name in FIRST_CALL_SPANS:
        out.append((f"{name}.first_s", "s", "lower"))
    out.append(("optics.node_setup_s", "s", "lower"))
    for layer in LAYERS:
        out.append((f"{layer}.self_s", "s", "lower"))
    for name, unit in COUNT_METRICS.items():
        better = "higher" if name == "detector.gates_per_s" else "lower"
        out.append((name, unit, better))
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    """Records spans in memory.

    proc tells apart the processes of one run; span ids start at id_base so
    that ids stay unique when the spans of child processes are merged.
    """

    def __init__(self, proc: int = 0, id_base: int = 1, parent=None):
        self.proc = proc
        self.spans = []
        self.op = None
        self.paused = False
        self.cost_s = 0.0         # install and dump time, part of the overhead
        self._ids = itertools.count(id_base)
        self._root_parent = parent
        self._local = threading.local()
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        """Id of the innermost open span of this thread, or None."""
        stack = self._stack()
        return stack[-1] if stack else self._root_parent

    @contextmanager
    def span(self, name: str):
        """Record a span around the block; yields a dict for its counts."""
        counts = {}
        if self.paused:
            yield counts
            return
        parent = self.current()
        sid = next(self._ids)
        stack = self._stack()
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append({
                "id": sid, "name": name, "start": start, "end": end,
                "parent": parent, "op": self.op, "proc": self.proc,
                "counts": counts,
            })

    @contextmanager
    def pause(self):
        """Calls made in the block record no spans."""
        was, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = was

    def wrap(self, func, name: str, variant=None, counts=None):
        sig = inspect.signature(func)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if self.paused:
                return func(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            full = name + (variant(bound.arguments) if variant else "")
            with self.span(full) as found:
                result = func(*args, **kwargs)
            if counts:
                found.update(counts(bound.arguments, result))
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever a ghostsim module binds it."""
        t0 = time.perf_counter()
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "ghostsim" or n.startswith("ghostsim.")) and m is not None]
        for mod_name, func_name, variant, _suffixes, counts in TRACED:
            original = getattr(importlib.import_module(mod_name), func_name)
            wrapped = self.wrap(original, f"{_layer(mod_name)}.{func_name}", variant, counts)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._restore.append((mod, attr, original))
        self.cost_s += time.perf_counter() - t0

    def uninstall(self):
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()


def span_cost_s(calls: int = 2000) -> float:
    """Measured cost of one traced call over an untraced one, in seconds."""
    def plain(a, b=None, workers=1):
        return a

    tracer = Tracer()
    traced = tracer.wrap(plain, "probe.plain")
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        for i in range(calls):
            plain(i)
        t1 = time.perf_counter()
        for i in range(calls):
            traced(i)
        t2 = time.perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return max(best, 0.0)


def is_probe(span) -> bool:
    return str(span["op"]).rsplit("-", 1)[0] == PROBE_OP


def self_times(spans):
    """Self time of each span id: its duration minus what its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children.get(s["id"], ())):
            start, end = max(start, reach), min(end, s["end"])
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def layer_metrics(spans, overhead_s: float):
    """Per-layer figures of one traced run; raises if a span name is missing.

    X_s is the median duration of the calls to X that were not the first call
    to X in their process (all calls when there is no other). X.first_s is
    the median of the first calls, <layer>.self_s the total self time of the
    layer over the run. Probe calls stand in only for a function the workload
    never called: their inputs were made in the same process, so they may
    find caches warm that a first call would have filled.
    """
    by_name = defaultdict(list)
    for s in spans:
        if not s["name"].startswith(BENCH_PREFIX):
            by_name[s["name"]].append(s)
    missing = [n for n in SPAN_NAMES if not by_name[n]]
    if missing:
        raise ValueError(f"traced run recorded no span for {', '.join(missing)}")

    out = {}
    firsts, busy = {}, {}
    counts = defaultdict(list)
    for name in SPAN_NAMES:
        calls = by_name[name]
        own = [s for s in calls if not is_probe(s)] or calls
        seen, first, warm = set(), [], []
        for s in sorted(own, key=lambda s: s["start"]):
            (warm if s["proc"] in seen else first).append(s["end"] - s["start"])
            seen.add(s["proc"])
            for count, value in s["counts"].items():
                counts[(name, count)].append(value)
        firsts[name] = first
        busy[name] = sum(first) + sum(warm)
        out[f"{name}_s"] = statistics.median(warm or first)
        out[f"{name}.calls"] = len(calls)
    for name in FIRST_CALL_SPANS:
        out[f"{name}.first_s"] = statistics.median(firsts[name])
    out["optics.node_setup_s"] = (
        out["optics.pattern_image_field.first_s"] - out["optics.pattern_image_field_s"]
    )

    selfs = self_times(spans)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        layer = s["name"].split(".", 1)[0]
        if layer in layer_self:
            layer_self[layer] += selfs[s["id"]]
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer]

    out["optics.aperture_nodes"] = statistics.median(counts[("optics.aperture_nodes", "nodes")])
    gates = counts[("detector.build_ghost_image", "gates")]
    out["detector.gates"] = statistics.median(gates)
    out["detector.gates_per_s"] = sum(gates) / busy["detector.build_ghost_image"]
    for key in ("bytes_written", "bytes_read"):
        sizes = [v for (name, count), vals in counts.items() if count == key for v in vals]
        out[f"io.{key}"] = sum(sizes) / len(sizes)
    out["trace.spans"] = len(spans)
    out["trace.overhead_s"] = overhead_s
    return out
