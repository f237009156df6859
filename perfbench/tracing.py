"""In-memory span tracer and the wrappers that time calls into poltrans.

A span records a name, the thread it ran on, its start and end, and its
parent: the span open on the same thread when it started. Each thread keeps
its own stack, so a span opened in a pool thread never parents a span of
another thread. Spans stay in memory until the run ends.

Wrappers are installed from here, never from the package: each listed
function is replaced, in every ``poltrans`` module namespace that binds it,
by one wrapper that opens a span around the call, so each call is recorded
once whichever module it was called through.
"""
from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Public functions timed per layer; the layers are the package's modules.
# "Class.method" names a method (or classmethod) patched on the class.
LAYER_FUNCTIONS = {
    "scenarios": ("make_surface_scenario", "load_scenario"),
    "affine": ("fit_affine",),
    "gp": ("fit_gp", "build_gp", "predict_mean", "predict_variance", "predict_derivative"),
    "transport": (
        "fit_transport",
        "transport_points",
        "transport_jacobians",
        "transport_labels",
        "polar_rotation",
        "check_local_diffeomorphism",
        "save_transport_map",
        "load_transport_map",
        "TransportedLabels.to_csv",
    ),
    "baselines": ("assign_via_points", "laplacian_edit", "reshaped_kmp", "fit_lwt", "apply_lwt"),
    "metrics": (
        "compute_metrics",
        "frechet_distance",
        "dtw_distance",
        "area_between_curves",
        "mann_whitney_u",
        "rank_methods",
        "write_metrics_csv",
    ),
    "svgplot": ("SvgScene.write",),
    "types": ("load_json", "save_json", "PolicyLabels.from_dict"),
}
QUERY_COUNTED = ("gp.predict_mean", "gp.predict_variance", "gp.predict_derivative")
MAIN_SPAN = "cli.main"


@dataclass
class Span:
    name: str
    thread: int
    start: float
    end: float
    parent: int | None  # index into Tracer.spans of a span on the same thread


class Tracer:
    """Collects spans and counters; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(name, threading.get_ident(), self.clock(), float("nan"), stack[-1] if stack else None)
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def record_max(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the calling thread."""
        return any(self.spans[i].name == name for i in self._stack())


def covered(start: float, end: float, intervals) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals if b > start and a < end)
    total, reach = 0.0, start
    for a, b in clipped:
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


def children_of(spans: list[Span]) -> dict[int, list[int]]:
    children: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span.parent is not None:
            children[span.parent].append(index)
    return children


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = children_of(spans)
    return [
        (s.end - s.start) - covered(s.start, s.end, [(spans[c].start, spans[c].end) for c in children[i]])
        for i, s in enumerate(spans)
    ]


def uncovered_main_time(spans: list[Span]) -> float:
    """Time under the ``cli.main`` spans that no other span covers.

    Unlike :func:`self_times`, spans that pool threads open without a parent
    count as covering ``main``'s interval: ``main`` waits while they run.
    """
    children = children_of(spans)
    roots = [(s.start, s.end) for s in spans if s.parent is None and s.name != MAIN_SPAN]
    total = 0.0
    for i, s in enumerate(spans):
        if s.name == MAIN_SPAN:
            cover = roots + [(spans[c].start, spans[c].end) for c in children[i]]
            total += (s.end - s.start) - covered(s.start, s.end, cover)
    return total


def _rows(queries) -> int:
    shape = np.shape(queries)
    return 1 if len(shape) == 1 else int(shape[0])


def _wrap(tracer: Tracer, name: str, fn):
    counts_queries = name in QUERY_COUNTED

    def wrapper(*args, **kwargs):
        if counts_queries:
            tracer.count(f"{name}.queries", _rows(args[1] if len(args) > 1 else kwargs["queries"]))
        with tracer.span(name):
            return fn(*args, **kwargs)

    wrapper.__name__ = getattr(fn, "__name__", name)
    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Patch every listed poltrans function for the duration of the block.

    Besides the spans, this counts ``gp.fit_gp.objective_evals`` (the
    ``nfev`` of each ``minimize`` result inside ``fit_gp``) and records the
    worker count of each thread pool the CLI creates.
    """
    restore: list[tuple[object, str, object]] = []

    def patch(owner, attr, value):
        restore.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    try:
        package = [m for n, m in sorted(sys.modules.items()) if n == "poltrans" or n.startswith("poltrans.")]
        for layer, names in LAYER_FUNCTIONS.items():
            module = importlib.import_module(f"poltrans.{layer}")
            for qualname in names:
                span_name = f"{layer}.{qualname}"
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[attr]
                    if isinstance(raw, classmethod):
                        patch(cls, attr, classmethod(_wrap(tracer, span_name, raw.__func__)))
                    else:
                        patch(cls, attr, _wrap(tracer, span_name, raw))
                    continue
                original = getattr(module, qualname)
                wrapper = _wrap(tracer, span_name, original)
                for mod in package:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            patch(mod, attr, wrapper)

        gp = sys.modules["poltrans.gp"]
        minimize = gp.minimize

        def counted_minimize(*args, **kwargs):
            result = minimize(*args, **kwargs)
            if tracer.inside("gp.fit_gp"):
                tracer.count("gp.fit_gp.objective_evals", int(result.nfev))
            return result

        patch(gp, "minimize", counted_minimize)

        cli = sys.modules["poltrans.cli"]
        pool_cls = cli.ThreadPoolExecutor

        class RecordedPool(pool_cls):
            def __init__(self, max_workers=None, *args, **kwargs):
                super().__init__(max_workers, *args, **kwargs)
                tracer.record_max("cli.pool.workers", self._max_workers)

        patch(cli, "ThreadPoolExecutor", RecordedPool)
        yield tracer
    finally:
        for owner, attr, value in reversed(restore):
            setattr(owner, attr, value)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-function ``calls`` and ``self_s``, the counters, and the derived
    ratios, with every listed function present even when never called."""
    spans = tracer.spans
    own = self_times(spans)
    out: dict[str, float] = {}
    for layer, names in LAYER_FUNCTIONS.items():
        for qualname in names:
            out[f"{layer}.{qualname}.calls"] = 0
            out[f"{layer}.{qualname}.self_s"] = 0.0
    for span, seconds in zip(spans, own):
        if span.name != MAIN_SPAN:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += seconds
    for name in QUERY_COUNTED:
        out[f"{name}.queries"] = int(tracer.counts.get(f"{name}.queries", 0))
    out["gp.fit_gp.objective_evals"] = int(tracer.counts.get("gp.fit_gp.objective_evals", 0))

    def under(index: int, name: str) -> bool:
        parent = spans[index].parent
        while parent is not None:
            if spans[parent].name == name:
                return True
            parent = spans[parent].parent
        return False

    maps = out["transport.fit_transport.calls"]
    fits = sum(1 for i, s in enumerate(spans) if s.name == "gp.fit_gp" and under(i, "transport.fit_transport"))
    out["transport.fit_transport.gp_fits_per_map"] = fits / maps if maps else 0.0
    out["cli.self_s"] = uncovered_main_time(spans)
    out["cli.pool.workers"] = int(tracer.counts.get("cli.pool.workers", 0))
    return out
