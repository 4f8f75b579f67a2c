"""Per-layer spans recorded from outside the library.

The tracer replaces module attributes that the library looks up at call
time (``abx.dtw_distance``, ``distance.frame_cost_matrix``, every public
file reader and writer, ...) with timing wrappers, so no library code is
edited. Spans stay in memory: name, start, end, parent, the invocation
(one per subcommand run) they belong to, self time and layer counters.
A patch point that the library no longer has is skipped and its metrics
are left out of the result; it does not fail the run.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from pathlib import Path

FILE_PREFIXES = ("read_", "write_", "load_", "save_")
FILE_MODULES = ("io_formats", "quantizer", "scoring", "sampler")

MB = 1024.0 * 1024.0


class Span:
    __slots__ = ("name", "invocation", "parent", "start", "end", "child", "counts")

    def __init__(self, name, invocation, parent, start):
        self.name = name
        self.invocation = invocation
        self.parent = parent
        self.start = start
        self.end = start
        self.child = 0.0  # time spent in child spans, their wrappers included
        self.counts = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _path_args(bound) -> list:
    return [v for v in bound.arguments.values() if isinstance(v, (str, Path))]


def _read_size(bound, _result) -> int:
    paths = _path_args(bound)
    if not paths:
        return 0
    first = Path(paths[0])
    if first.is_dir() and len(paths) > 1:  # archive directory + utterance id
        for name in (f"{paths[1]}.zrcf", f"{paths[1]}.txt", str(paths[1])):
            if (first / name).is_file():
                return _file_size(first / name)
        return 0
    return _file_size(first)


def _write_size(bound, result) -> int:
    if isinstance(result, (str, Path)) and Path(result).is_file():
        return _file_size(result)
    return sum(_file_size(p) for p in _path_args(bound) if Path(p).is_file())


class Tracer:
    """Installs timing wrappers and collects spans while ``active``."""

    def __init__(self):
        self.spans: list = []
        self.missing: list = []
        self.active = False
        self._stack: list = []
        self._invocation = None
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def begin(self, invocation: str) -> None:
        """Open the root span of one subcommand invocation (or set-up)."""
        self._invocation = invocation
        self._stack = [Span("cli", invocation, None, time.perf_counter())]
        self.active = True

    def finish(self) -> None:
        root = self._stack[0]
        root.end = time.perf_counter()
        self.spans.append(root)
        self._stack = []
        self.active = False

    def wrap(self, owner, attr: str, name: str, count=None, bind=False) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``count(args, result)`` returns the span's counters; with ``bind``
        it receives the call's ``inspect.BoundArguments`` with defaults
        applied instead of the raw positional arguments.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return
        signature = inspect.signature(original) if bind else None
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            entered = time.perf_counter()
            parent = tracer._stack[-1]
            span = Span(name, tracer._invocation, parent, 0.0)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                if signature is not None:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                else:
                    call = args
                span.counts = count(call, result)
            tracer.spans.append(span)
            parent.child += time.perf_counter() - entered
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def install(self, lib) -> None:
        """Wrap every layer boundary of a freshly imported package."""
        self.uninstall()
        self.missing = []
        kernel = getattr(lib.distance, "_kernel", None)
        self.wrap(lib.abx, "abx_evaluate", "abx.evaluate")
        self.wrap(lib.abx, "dtw_distance", "abx.dtw_distance")
        self.wrap(lib.distance, "frame_cost_matrix", "distance.cost_matrix",
                  count=lambda a, r: {"cells": int(r.size)})
        self.wrap(kernel, "dtw_accumulate", "dtw.kernel",
                  count=lambda a, r: {"cells": int(a[0].size)})
        self.wrap(lib.quantizer, "kmeans_fit", "quantizer.kmeans_fit",
                  count=_kmeans_counts, bind=True)
        self.wrap(lib.quantizer, "quantize", "quantizer.quantize",
                  count=_quantize_counts, bind=True)
        self.wrap(lib.scoring, "ngram_train", "scoring.ngram_train")
        self.wrap(lib.scoring, "chain_rule_logprob", "scoring.chain_rule",
                  count=lambda b, r: {"tokens": len(b.arguments["seq"].units)},
                  bind=True)
        self.wrap(lib.scoring, "span_pseudo_logprob", "scoring.span",
                  count=_span_counts, bind=True)
        self.wrap(lib.metrics, "paired_accuracy", "metrics.paired_accuracy",
                  count=lambda b, r: {"pairs": len(b.arguments["pairs"])}, bind=True)
        self.wrap(lib.metrics, "layer_sweep", "metrics.layer_sweep")
        self.wrap(lib.metrics, "pool", "metrics.pool")
        self.wrap(lib.sampler, "sample_word_pairs", "sampler.words",
                  count=_sampler_counts, bind=True)
        self.wrap(lib.sampler, "sample_sentence_pairs", "sampler.sentences",
                  count=_sampler_counts, bind=True)
        for module_name in FILE_MODULES:
            module = getattr(lib, module_name)
            for attr, obj in sorted(vars(module).items()):
                if (attr.startswith(FILE_PREFIXES) and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    reading = attr.startswith(("read_", "load_"))
                    size = _read_size if reading else _write_size
                    self.wrap(module, attr,
                              "io_formats.read" if reading else "io_formats.write",
                              count=lambda b, r, size=size: {"mb": size(b, r) / MB},
                              bind=True)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def take(self) -> list:
        """The spans recorded so far; the tracer starts a new list."""
        taken, self.spans = self.spans, []
        return taken


def _kmeans_counts(b, result) -> dict:
    frames = b.arguments["frames"]
    n = len(frames)
    subsample = b.arguments.get("subsample")
    if subsample is not None:
        n = min(n, subsample)
    k = b.arguments["n_clusters"]
    return {"iters": result.n_iter, "assign_evals": n * k * result.n_iter}


def _quantize_counts(b, result) -> dict:
    frames = len(b.arguments["fs"])
    return {"frames": frames,
            "assign_evals": frames * b.arguments["codebook"].n_clusters}


def _span_counts(b, result) -> dict:
    cfg = b.arguments.get("cfg")
    stride = cfg.delta_t if cfg is not None else 5
    length = len(b.arguments["seq"].units)
    return {"windows": -(-length // stride)}


def _sampler_counts(b, result) -> dict:
    cs = b.arguments.get("cs", b.arguments.get("pool"))
    return {"anchors": len(cs.anchors), "restarts": b.arguments["restarts"]}


# ---------------------------------------------------------------------------
# per-pass layer metrics
# ---------------------------------------------------------------------------

# span name -> (duration metric, self-time metric, call-count metric,
#               {span counter: summed metric})
LAYERS = {
    "cli": (None, "cli.self_s", None, {}),
    "io_formats.read": ("io_formats.read_s", None, "io_formats.read_calls",
                        {"mb": "io_formats.read_mb"}),
    "io_formats.write": ("io_formats.write_s", None, None,
                         {"mb": "io_formats.write_mb"}),
    "distance.cost_matrix": ("distance.cost_matrix_s", None,
                             "distance.cost_matrix_calls",
                             {"cells": "distance.cost_cells"}),
    "dtw.kernel": ("dtw.kernel_s", None, "dtw.kernel_calls",
                   {"cells": "dtw.kernel_cells"}),
    "abx.evaluate": ("abx.evaluate_s", "abx.self_s", None, {}),
    "abx.dtw_distance": (None, None, "abx.distance_computed", {}),
    "quantizer.kmeans_fit": ("quantizer.kmeans_fit_s", None, None,
                             {"iters": "quantizer.kmeans_iters",
                              "assign_evals": "quantizer.assign_evals"}),
    "quantizer.quantize": ("quantizer.quantize_s", None, None,
                           {"frames": "quantizer.quantize_frames",
                            "assign_evals": "quantizer.assign_evals"}),
    "scoring.ngram_train": ("scoring.ngram_train_s", None, None, {}),
    "scoring.chain_rule": ("scoring.chain_rule_s", None, None,
                           {"tokens": "scoring.chain_rule_tokens"}),
    "scoring.span": ("scoring.span_s", None, None,
                     {"windows": "scoring.span_windows"}),
    "metrics.paired_accuracy": ("metrics.paired_accuracy_s", None, None,
                                {"pairs": "metrics.pairs"}),
    "metrics.layer_sweep": ("metrics.layer_sweep_s", None, None, {}),
    "metrics.pool": (None, None, "metrics.pool_calls", {}),
    "sampler.words": ("sampler.words_s", None, None,
                      {"anchors": "sampler.anchors", "restarts": "sampler.restarts"}),
    "sampler.sentences": ("sampler.sentences_s", None, None,
                          {"anchors": "sampler.anchors",
                           "restarts": "sampler.restarts"}),
}


def layer_metrics(span_name: str) -> list:
    """The metrics fed by one span name (one patch point)."""
    duration, self_time, calls, counters = LAYERS[span_name]
    return [m for m in (duration, self_time, calls) if m] + list(counters.values())


def layer_totals(spans) -> dict:
    """Sum one pass's spans into per-layer metrics."""
    totals: dict = {}
    for span in spans:
        duration, self_time, calls, counters = LAYERS[span.name]
        for metric, value in ((duration, span.duration),
                              (self_time, span.self_time), (calls, 1)):
            if metric:
                totals[metric] = totals.get(metric, 0) + value
        for key, metric in counters.items():
            totals[metric] = totals.get(metric, 0) + span.counts[key]
    return totals


PASS_METRICS = tuple(dict.fromkeys(m for name in LAYERS for m in layer_metrics(name)))


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"
