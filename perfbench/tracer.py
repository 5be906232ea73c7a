"""In-process span tracer for the speccor package, kept in the benchmark.

``Tracer.install()`` wraps every public function of the layer modules and
rebinds each wrapper under every name a caller looks it up by: the module
attribute (``dsp.stft``), names imported into other modules
(``cli.extract``) and the package re-exports. ``uninstall()`` restores the
originals. A span is (id, name, start, end, parent id, thread id) plus the
counts taken at the same boundary; spans stay in memory until ``dump``.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import namedtuple

LAYERS = ("cli", "wavio", "dsp", "correction", "fir", "features", "files", "simulate")

Span = namedtuple("Span", "id name start end parent thread counts")

REDUCE = {"correction.accumulate_stats", "correction.estimate_aligned",
          "correction.estimate_unaligned", "correction.simplified_coefficients"}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _stft(args, kwargs, result):
    return {"frames": result.frames, "bytes": result.bins.nbytes}


def _reduce_cells(args, kwargs, result):
    first = args[0]
    if isinstance(first, (list, tuple)) and first and isinstance(first[0], tuple):
        return {"cells": sum(r.mags.size + s.mags.size for r, s in first)}
    if isinstance(first, (list, tuple)):
        return {"cells": sum(s.mags.size for s in first)}
    return {"cells": result.gains.size}


# Counts taken when a span ends, keyed by span name.
COUNTERS = {
    "wavio.read_wav": _file_bytes,
    "wavio.write_wav": _file_bytes,
    "dsp.stft": _stft,
    "dsp.istft": lambda a, k, r: {"frames": a[0].frames},
    "dsp.amplitude": lambda a, k, r: {"bytes": r.mags.nbytes},
    "dsp.convolve": lambda a, k, r: {"samples": r.samples.size},
    **{name: _reduce_cells for name in REDUCE},
}


def _counter(name):
    if name.startswith("files.write_"):
        return _file_bytes
    return COUNTERS.get(name)


class Tracer:
    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.reset()

    def reset(self):
        self.spans = []
        self.live_amplitude_bytes = 0
        self.peak_amplitude_bytes = 0
        self.map_busy_s = 0.0
        self.map_capacity_s = 0.0

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _span(self, name, fn, counter, args, kwargs):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        counts = counter(args, kwargs, result) if counter else None
        self.spans.append(Span(sid, name, start, end, parent, threading.get_ident(), counts))
        if name == "dsp.amplitude":
            self._track_amplitude(result, counts["bytes"])
        return result

    def _track_amplitude(self, spec, nbytes):
        with self._lock:
            self.live_amplitude_bytes += nbytes
            self.peak_amplitude_bytes = max(self.peak_amplitude_bytes, self.live_amplitude_bytes)
        weakref.finalize(spec, self._release_amplitude, nbytes)

    def _release_amplitude(self, nbytes):
        with self._lock:
            self.live_amplitude_bytes -= nbytes

    def _wrap(self, name, fn):
        counter = _counter(name)

        def traced(*args, **kwargs):
            return self._span(name, fn, counter, args, kwargs)
        return traced

    def _wrap_map(self, map_ordered, worker_count):
        """cli._map_ordered: a ``cli.map`` span whose worker items are its children,
        plus busy time against workers x wall for the busy ratio."""
        tracer = self

        def traced_map(fn, items):
            items = list(items)
            workers = max(1, min(worker_count(), len(items)))
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._ids)

            def item(x):
                inner = tracer._stack()
                inner.append(sid)
                start = time.perf_counter()
                try:
                    return fn(x)
                finally:
                    busy = time.perf_counter() - start
                    inner.pop()
                    with tracer._lock:
                        tracer.map_busy_s += busy

            stack.append(sid)
            start = time.perf_counter()
            try:
                return map_ordered(item, items)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.map_capacity_s += workers * (end - start)
                tracer.spans.append(Span(sid, "cli.map", start, end, parent,
                                         threading.get_ident(), {"workers": workers}))
        return traced_map

    def install(self):
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"speccor.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        cli = sys.modules["speccor.cli"]
        wrappers[id(cli._map_ordered)] = self._wrap_map(cli._map_ordered, cli.worker_count)
        for modname, mod in list(sys.modules.items()):
            if modname != "speccor" and not modname.startswith("speccor."):
                continue
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self):
        for mod, attr, obj in reversed(self._patches):
            setattr(mod, attr, obj)
        self._patches = []

    def dump(self, path):
        names = ("id", "name", "start", "end", "parent", "thread", "counts")
        with open(path, "w") as handle:
            json.dump([dict(zip(names, span)) for span in self.spans], handle)


def _union_length(intervals):
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(tracer):
    """Per-layer totals of one traced pass, under the benchmark's metric names.

    A time sums the spans of the named functions that have no ancestor among
    those same functions, so nested calls are not counted twice.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def ancestors(span):
        while span.parent is not None and span.parent in by_id:
            span = by_id[span.parent]
            yield span

    def top(names):
        return [s for s in spans if s.name in names
                and not any(a.name in names for a in ancestors(s))]

    def seconds(names):
        return sum(s.end - s.start for s in top(names))

    def count(names, key):
        return sum(s.counts[key] for s in top(names))

    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    commands = [s for s in spans if s.name.startswith("cli.cmd_")]
    cli_self = sum((c.end - c.start) - _union_length(
        [(max(k.start, c.start), min(k.end, c.end)) for k in children.get(c.id, [])])
        for c in commands)

    unused = [s for s in spans if s.name in ("dsp.stft", "dsp.amplitude")
              and s.parent in by_id and by_id[s.parent].name == "simulate.generate_dataset"]
    reads = {s.name for s in spans if s.name.startswith("files.read_")}
    writes = {s.name for s in spans if s.name.startswith("files.write_")}
    return {
        "cli.self_s": cli_self,
        "cli.map.busy_ratio": tracer.map_busy_s / tracer.map_capacity_s
        if tracer.map_capacity_s else 0.0,
        "wavio.read_wav.s": seconds({"wavio.read_wav"}),
        "wavio.read_wav.bytes": count({"wavio.read_wav"}, "bytes"),
        "dsp.stft.s": seconds({"dsp.stft"}),
        "dsp.stft.frames": count({"dsp.stft"}, "frames"),
        "dsp.stft.bytes_computed": count({"dsp.stft"}, "bytes"),
        "dsp.amplitude.s": seconds({"dsp.amplitude"}),
        "dsp.amplitude.peak_live_bytes": tracer.peak_amplitude_bytes,
        "correction.reduce.s": seconds(REDUCE),
        "correction.reduce.cells": count(REDUCE, "cells"),
        "dsp.istft.s": seconds({"dsp.istft"}),
        "dsp.istft.frames": count({"dsp.istft"}, "frames"),
        "correction.apply_to_complex.s": seconds({"correction.apply_to_complex"}),
        "fir.design_ls.s": seconds({"fir.design_ls"}),
        "fir.apply_filter.s": seconds({"fir.apply_filter"}),
        "dsp.convolve.s": seconds({"dsp.convolve"}),
        "dsp.convolve.samples": count({"dsp.convolve"}, "samples"),
        "files.read.s": seconds(reads),
        "features.mel_filterbank.s": seconds({"features.mel_filterbank"}),
        "features.mel_filterbank.calls": len(top({"features.mel_filterbank"})),
        "features.extract.s": seconds({"features.extract"}),
        "features.standardize.s": seconds({"features.standardize"}),
        "files.write.s": seconds(writes),
        "files.write.bytes": count(writes, "bytes"),
        "wavio.write_wav.s": seconds({"wavio.write_wav"}),
        "wavio.write_wav.bytes": count({"wavio.write_wav"}, "bytes"),
        "simulate.generate_dataset.s": seconds({"simulate.generate_dataset"}),
        "simulate.record.s": seconds({"simulate.record"}),
        "simulate.record.calls": len(top({"simulate.record"})),
        "simulate.unused_analysis_s": sum(s.end - s.start for s in unused),
        "simulate.unused_analysis_bytes": sum(s.counts["bytes"] for s in unused),
    }
