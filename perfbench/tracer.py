"""Span tracer that wraps the package's public entry points from outside.

The benchmark never edits the package: `Tracer.installed()` swaps module and
class attributes for timing wrappers and restores them on exit. This works
because the package looks its kernels up through module globals at call time
(`self_attention_forward`, `linalg.softmax_rows`, `cache_update`, ...).

Every wrapped call records one span: name, start and end (`perf_counter_ns`),
the index of the enclosing span and the generation id. Spans stay in memory
until `write` dumps them at the end of the run. A span's self time is its
duration minus the time its direct children cover; calls are strictly nested
on one thread, so the self times of a root span and all its descendants add
up to the root's duration exactly.

Module forwards additionally get one of the package's own `FlopCounter`s via
their `counter=` argument, so each span carries the FLOPs it executed.
"""

from __future__ import annotations

import contextlib
import gzip
from dataclasses import dataclass, field
from time import perf_counter_ns

import toca.cache
import toca.config
import toca.linalg
import toca.model
import toca.sampler
from toca.flops import FlopCounter

ROOT = "generation"
FLOAT_BYTES = 8


@dataclass(eq=False)
class Span:
    name: str
    parent: int
    gen: int
    start: int = 0
    end: int = 0
    # rows / flops / elements / map_bytes, only for spans that count work
    attrs: dict | None = None

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Aggregate:
    """Totals for one span name over the generations it was recorded in."""

    calls: int = 0
    self_ns: int = 0
    incl_ns: int = 0
    attrs: dict = field(default_factory=dict)


def _attention_attrs(heads_pos):
    def measure(args, kwargs, result, counter):
        m, n = result[1].shape
        heads = args[heads_pos] if len(args) > heads_pos else kwargs["heads"]
        # one m x n probability map per head plus their m x n average
        return {"rows": m, "flops": counter.flops, "map_bytes": FLOAT_BYTES * m * n * (heads + 1)}

    return measure


def _mlp_attrs(args, kwargs, result, counter):
    return {"rows": result.shape[0], "flops": counter.flops}


def _rows_attrs(args, kwargs, result, counter):
    return {"rows": result.shape[0]}


def _elements_attrs(args, kwargs, result, counter):
    return {"elements": result.size}


class Tracer:
    """Collects spans from the wrapped entry points while installed."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.gen = -1
        self.flops = 0  # executed FLOPs of every counted module forward so far
        self.live_context = None  # last CacheContext constructed

    # -- recording --------------------------------------------------------

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, self.gen)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = perf_counter_ns()
        return span

    def _close(self, span: Span) -> None:
        span.end = perf_counter_ns()
        self._stack.pop()

    def _call(self, name, fn, args, kwargs, measure, count_flops):
        counter = None
        if count_flops and kwargs.get("counter") is None:
            counter = FlopCounter()
            kwargs["counter"] = counter
        span = self._open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(span)
        if measure is not None:
            span.attrs = measure(args, kwargs, result, counter)
        if counter is not None:
            self.flops += counter.flops
        return result

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a span around a block, e.g. the root span of a generation."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name, fn, measure=None, count_flops=False):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, measure, count_flops)

        return wrapper

    def _remember_context(self, args, kwargs, result, counter):
        self.live_context = args[0]
        return None

    @contextlib.contextmanager
    def installed(self):
        """Swap the traced entry points in, and always restore them."""
        m, c, s = toca.model, toca.cache, toca.sampler
        targets = [
            (toca.config, "parse_config_string", None, False),
            (m, "init_model", None, False),
            (m, "self_attention_forward", _attention_attrs(2), True),
            (m, "cross_attention_forward", _attention_attrs(3), True),
            (m, "mlp_forward", _mlp_attrs, True),
            (m, "layer_norm_rows", _rows_attrs, False),
            (m.Model, "forward_batch", None, False),
            (toca.linalg, "softmax_rows", _elements_attrs, False),
            (c, "apply_spatial_boost", None, False),
            (c, "select_compute_set", None, False),
            (c, "score_s2", None, False),
            (c, "score_s3", None, False),
            (c, "cached_layer_apply", None, False),
            (c, "cache_update", None, False),
            (c.CacheContext, "dispatch", None, False),
            (c.CacheContext, "__init__", self._remember_context, False),
            (s, "ddpm_step", None, False),
            (s, "ddim_step", None, False),
            (s, "cfg_combine", None, False),
        ]
        saved = []
        try:
            for owner, attr, measure, count_flops in targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(attr, original, measure, count_flops))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def aggregate(self, gens) -> dict[str, Aggregate]:
        """Per-name totals over the spans of the given generation ids."""
        gens = set(gens)
        child_ns = [0] * len(self.spans)
        for sp in self.spans:
            if sp.parent >= 0:
                child_ns[sp.parent] += sp.duration
        out: dict[str, Aggregate] = {}
        for i, sp in enumerate(self.spans):
            if sp.gen not in gens:
                continue
            agg = out.setdefault(sp.name, Aggregate())
            agg.calls += 1
            agg.incl_ns += sp.duration
            agg.self_ns += sp.duration - child_ns[i]
            if sp.attrs:
                for k, v in sp.attrs.items():
                    agg.attrs[k] = agg.attrs.get(k, 0) + v
        return out

    def write(self, path) -> None:
        """Dump every span as gzipped CSV: index,name,parent,gen,start_ns,end_ns."""
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write("index,name,parent,gen,start_ns,end_ns\n")
            for i, sp in enumerate(self.spans):
                fh.write(f"{i},{sp.name},{sp.parent},{sp.gen},{sp.start},{sp.end}\n")
