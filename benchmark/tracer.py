"""Span tracer that wraps the public functions of the ``evs`` modules from outside.

Nothing in ``src/`` knows about it: :func:`install` replaces each listed
function at every ``evs`` module that binds it by name (``ddim_sample`` is
bound in ``evs.diffusion`` and ``evs.compose``; ``score_video`` in
``evs.metrics`` and ``evs.bench``), so calls made through any binding are
recorded.  Spans stay in memory; :meth:`Tracer.dump` writes them out once, at
the end of the process.

A span is ``[name, start, end, parent, item]``.  Its self time is its duration
minus the part of its interval that its child spans cover; :func:`layer_totals`
sums self times per span name and counts only the outermost call of a name, so
``sdedit_refine`` calling ``ddim_sample`` is one walk, not two.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter

# (module, attribute, span name) for module-level functions.  A name shared by
# several functions makes them one layer.
FUNCTIONS = (
    ("evs.config", "build_lab", "config.build_lab"),
    ("evs.bench", "load_dataset", "bench.load_dataset"),
    ("evs.bench", "load_or_init_net", "bench.load_or_init_net"),
    ("evs.bench", "cmd_run", "bench.cmd_run"),
    ("evs.bench", "cmd_report", "bench.cmd_report"),
    ("evs.bench", "cmd_train", "bench.cmd_train"),
    ("evs.bench", "_execute", "bench.execute"),
    ("evs.compose", "run_t2i_only", "compose.pipeline"),
    ("evs.compose", "run_t2v_only", "compose.pipeline"),
    ("evs.compose", "compose_iv", "compose.pipeline"),
    ("evs.compose", "compose_vi", "compose.pipeline"),
    ("evs.compose", "run_evs", "compose.pipeline"),
    ("evs.compose", "run_iterated_baseline", "compose.pipeline"),
    ("evs.diffusion", "ddim_sample", "diffusion.walk"),
    ("evs.diffusion", "ddim_invert", "diffusion.walk"),
    ("evs.diffusion", "sdedit_refine", "diffusion.walk"),
    ("evs.sfi", "invert_with_capture", "sfi.invert"),
    ("evs.sfi", "denoise_with_injection", "sfi.inject"),
    ("evs.sfi", "blended_attention", "sfi.blended_attention"),
    ("evs.metrics", "score_video", "metrics.score_video"),
    ("evs.io", "read_latents", "io.read_latents"),
    ("evs.io", "write_latents", "io.write_latents"),
    ("evs.io", "read_json", "io.read_json"),
    ("evs.io", "write_json", "io.write_json"),
    ("evs.io", "write_metric_csv", "io.write_metric_csv"),
    ("evs.models", "train_toy_denoiser", "models.train.loop"),
    ("evs.models", "_draw_training_batch", None),
    ("evs.models", "_batched_forward", None),
    ("evs.models", "_batched_backward", "models.train.backward"),
)

# io functions whose span also records the size of the file they touch.
IO_BYTES = ("io.read_latents", "io.write_latents", "io.write_json")


class Tracer:
    """In-memory span list plus event counters for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None
        self.train_batch = None

    def begin(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, self.clock(), None, parent, self.item])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def end(self, index: int):
        self.spans[index][2] = self.clock()
        self.stack.pop()

    def dump(self, path, **extra):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts), **extra}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, item in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, item) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: outermost ``calls``, their total ``s``, and summed ``self_s``."""
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = {}
    for index, (name, start, end, parent, item) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["self_s"] += selfs[index]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor is None:
            entry["calls"] += 1
            entry["s"] += end - start
    return totals


# ---------------------------------------------------------------------------
# Wrapping
# ---------------------------------------------------------------------------


def _arg(args, kwargs, position, name):
    return kwargs[name] if name in kwargs else (args[position] if len(args) > position else None)


def _span_name(tracer: Tracer, attr, name, args, kwargs):
    """Training draws and forwards on the configured batch are per-step work; the
    held-out batch drawn and scored around the loop is not."""
    if attr == "_draw_training_batch":
        kind, batch = "draw", _arg(args, kwargs, 3, "batch_size")
    elif attr == "_batched_forward":
        kind, batch = "forward", len(_arg(args, kwargs, 1, "z"))
    else:
        return name
    return f"models.train.{kind}" if batch == tracer.train_batch else "models.train.held_out"


def _span_wrapper(tracer: Tracer, fn, name, attr):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if attr == "_execute":
            tracer.item = f"{args[0]}:{args[4]}"
        elif attr == "train_toy_denoiser":
            tracer.train_batch = _arg(args, kwargs, 2, "recipe").batch_size
        index = tracer.begin(_span_name(tracer, attr, name, args, kwargs))
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(index)
            if attr.startswith("cmd_"):
                tracer.item = None
        if name in IO_BYTES:
            tracer.counts[f"{name}.bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))
        return result

    return wrapper


def _rebind(original, replacement):
    """Point every ``evs`` module attribute bound to ``original`` at ``replacement``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name == "evs" or mod_name.startswith("evs."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer):
    """Wrap the listed functions and the denoiser / cache methods."""
    import evs.cli  # noqa: F401  (loads every evs module)
    from evs.models import AnalyticDenoiser, Denoiser, SpatialWorld, ToyAttentionDenoiser
    from evs.sfi import FeatureCache

    for mod_name, attr, name in FUNCTIONS:
        original = getattr(sys.modules[mod_name], attr)
        _rebind(original, _span_wrapper(tracer, original, name, attr))

    evaluate = Denoiser.evaluate

    def analytic_evaluate(self, z_t, t, c):
        kind = "spatial" if isinstance(self.world, SpatialWorld) else "temporal"
        index = tracer.begin(f"models.eps_{kind}")
        try:
            return evaluate(self, z_t, t, c)
        finally:
            tracer.end(index)

    forward = ToyAttentionDenoiser.forward

    def net_forward(self, z_t, t, c, injection=None, capture=None, capture_key=None):
        kind = "capture" if capture is not None else "inject" if injection is not None else "plain"
        index = tracer.begin(f"models.net_{kind}")
        try:
            return forward(self, z_t, t, c, injection=injection, capture=capture,
                           capture_key=capture_key)
        finally:
            tracer.end(index)

    put, get = FeatureCache.put, FeatureCache.get

    def cache_put(self, t, layer, kind, value):
        tracer.counts["sfi.cache.puts"] += 1
        tracer.counts["sfi.cache.bytes"] += getattr(value, "nbytes", 0)
        return put(self, t, layer, kind, value)

    def cache_get(self, t, layer, kind):
        tracer.counts["sfi.cache.gets"] += 1
        read = self.__dict__.setdefault("_bench_read", set())
        if (t, layer, kind) not in read:
            read.add((t, layer, kind))
            tracer.counts["sfi.cache.distinct_gets"] += 1
        return get(self, t, layer, kind)

    AnalyticDenoiser.evaluate = analytic_evaluate
    ToyAttentionDenoiser.forward = net_forward
    FeatureCache.put = cache_put
    FeatureCache.get = cache_get
