"""Span tracing of the wncs package, installed from outside the package.

The tracer replaces public names in the package's modules with wrappers that
record one span per call: name, start, end and parent span.  Each name is
wrapped where the calling module binds it (``wncs.coded.qam_detect`` is the
name ``run_coded_control`` looks up, ``wncs.experiments.run_coded_control``
the one the recipes look up), so no package source changes.  Spans stay in
memory and are written out by ``write``.

The span name's first component is the layer (the package module); a
layer's self time is the time its spans cover minus the time their direct
children cover.  A name that no longer exists in the package is skipped and
listed in ``notes`` instead of failing the run.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import time
from collections import Counter, defaultdict

#: (module, attribute, span name): every wrapped binding
TARGETS = (
    ("wncs.cli", "build_parser", "cli.parse"),
    ("wncs.cli", "parse_config", "cli.parse"),
    ("wncs.cli", "emit_csv", "cli.emit"),
    ("wncs.cli", "run_multi_sweep", "experiments.run_multi_sweep"),
    ("wncs.cli", "run_single_compare", "experiments.run_single_compare"),
    ("wncs.experiments", "substream", "fading.substream"),
    ("wncs.experiments", "allocate_multi_slow", "slow_control.alloc"),
    ("wncs.experiments", "allocate_multi_fast", "fast_control.alloc"),
    ("wncs.experiments", "optimize_single_slow", "slow_control.single"),
    ("wncs.experiments", "snr_floor", "slow_control.floor"),
    ("wncs.experiments", "fast_snr_floor", "fast_control.floor"),
    ("wncs.experiments", "run_coded_control", "coded.loop"),
    ("wncs.coded", "bch_encode", "coded.encode"),
    ("wncs.coded", "qam_modulate", "coded.modulate"),
    ("wncs.coded", "qam_detect", "coded.detect"),
    ("wncs.coded", "bch_decode", "coded.decode"),
    ("wncs.slow_control", "allocate_multi_slow", "slow_control.alloc"),
    ("wncs.slow_control", "optimize_identical_actuator", "slow_control.shared"),
    ("wncs.slow_control", "bisect_decreasing", "rootfind.bisect"),
    ("wncs.fast_control", "allocate_multi_fast", "fast_control.alloc"),
    ("wncs.fast_control", "bisect_decreasing", "rootfind.bisect"),
)


class _TracedGenerator:
    """Stands in for a numpy Generator: every method call is a fading.draw span.

    Draws are delegated unchanged, so the values (and every output built
    from them) are identical to an untraced run.
    """

    def __init__(self, generator, tracer: "Tracer") -> None:
        self._generator = generator
        self._tracer = tracer

    def __getattr__(self, name):
        attr = getattr(self._generator, name)
        if not callable(attr):
            return attr
        tracer = self._tracer

        def draw(*args, **kwargs):
            out = tracer.call("fading.draw", attr, *args, **kwargs)
            tracer.counts["fading.draw_bytes"] += getattr(out, "nbytes", 8)
            return out

        return draw


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self) -> None:
        # span: [name, start, end, parent index or -1]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.notes: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._sent = None  # messages of the last encoded block, for word success

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for module_name, attr, span_name in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.notes.append(f"{module_name}.{attr} not found: span {span_name} dropped")
                continue
            setattr(module, attr, self._wrapper(original, span_name, attr))
            self._installed.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def _wrapper(self, original, span_name: str, attr: str):
        hook = getattr(self, f"_around_{attr}", None)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if hook is not None:
                return hook(original, span_name, *args, **kwargs)
            return self.call(span_name, original, *args, **kwargs)

        return wrapper

    # -- per-name hooks: counts taken where the work happens ------------------

    def _around_substream(self, original, span_name, *args, **kwargs):
        self.counts["fading.substreams"] += 1
        return _TracedGenerator(self.call(span_name, original, *args, **kwargs), self)

    def _around_emit_csv(self, original, span_name, result, path, *args, **kwargs):
        out = self.call(span_name, original, result, path, *args, **kwargs)
        for written in (path, path + ".meta.json"):
            if os.path.exists(written):
                self.counts["cli.emit_bytes"] += os.path.getsize(written)
        return out

    def _around_bch_encode(self, original, span_name, messages, *args, **kwargs):
        out = self.call(span_name, original, messages, *args, **kwargs)
        self._sent = messages
        self.counts["coded.words"] += math.prod(messages.shape[:-1])
        return out

    def _around_bch_decode(self, original, span_name, *args, **kwargs):
        out = self.call(span_name, original, *args, **kwargs)
        decoded = out[0]
        if self._sent is not None and self._sent.shape == decoded.shape:
            self.counts["coded.words_ok"] += int((decoded == self._sent).all(axis=-1).sum())
        return out

    def _around_bisect_decreasing(self, original, span_name, residual, *args, **kwargs):
        counts = self.counts

        def counted(x):
            counts["rootfind.residual_evals"] += 1
            return residual(x)

        return self.call(span_name, original, counted, *args, **kwargs)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Span name -> summed self time (duration minus direct children)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[name] += end - start - children
        return dict(out)

    def totals(self) -> tuple[dict[str, float], Counter]:
        """Span name -> summed duration, and span name -> call count."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for name, start, end, _ in self.spans:
            total[name] += end - start
            calls[name] += 1
        return dict(total), calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans,
                       "counts": dict(self.counts), "notes": self.notes}, f)
