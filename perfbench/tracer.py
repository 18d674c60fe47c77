"""In-memory spans around calls into the program's layers.

The traced runs start ``repro`` through ``launch.py``, which calls
:func:`install` before the command runs. ``install`` replaces public
functions and methods with timing wrappers, in every ``repro`` module
that holds a reference to them, so nothing under ``src/`` changes and an
untraced run executes the program exactly as a user would. Spans stay
in memory and are written once, when the command returns.

A span's parent is the innermost open span of the same logical flow:
``contextvars`` gives each asyncio task its own stack, and the serve
lane's executor carries the submitting request's span into the worker
thread.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

_STACK: "contextvars.ContextVar[Tuple[int, ...]]" = contextvars.ContextVar(
    "perfbench_spans", default=()
)

AttrsFn = Callable[[tuple, dict, Any], Dict[str, float]]


class Tracer:
    """Spans as ``[name, start_ns, end_ns, parent, attrs]`` rows."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.extra: Dict[str, float] = {}
        self._lock = threading.Lock()

    def current(self) -> int:
        stack = _STACK.get()
        return stack[-1] if stack else -1

    def open(self, name: str, parent: Optional[int] = None,
             start_ns: Optional[int] = None) -> Tuple[int, contextvars.Token]:
        stack = _STACK.get()
        if parent is None:
            parent = stack[-1] if stack else -1
        row = [name, start_ns or time.perf_counter_ns(), 0, parent, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        return index, _STACK.set(stack + (index,))

    def close(self, index: int, token: contextvars.Token,
              attrs: Optional[Dict[str, float]] = None) -> None:
        row = self.spans[index]
        row[2] = time.perf_counter_ns()
        row[4] = attrs
        _STACK.reset(token)

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None,
             start_ns: Optional[int] = None) -> Iterator[int]:
        index, token = self.open(name, parent, start_ns)
        try:
            yield index
        finally:
            self.close(index, token)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "extra": self.extra}, fh)


def wrap(tracer: Tracer, fn: Callable, name: str,
         attrs: Optional[AttrsFn] = None) -> Callable:
    """``fn`` recording one span per call (coroutines included)."""
    if inspect.iscoroutinefunction(fn):
        async def traced_async(*args: Any, **kwargs: Any) -> Any:
            index, token = tracer.open(name)
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.close(index, token)

        return functools.update_wrapper(traced_async, fn)

    def traced(*args: Any, **kwargs: Any) -> Any:
        index, token = tracer.open(name)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            tracer.close(
                index, token,
                attrs(args, kwargs, result) if attrs and result is not None
                else None,
            )

    return functools.update_wrapper(traced, fn)


def patch_function(tracer: Tracer, module: str, attr: str, name: str,
                   attrs: Optional[AttrsFn] = None) -> None:
    """Wrap ``module.attr`` wherever a loaded ``repro`` module binds it.

    ``from x import f`` copies the reference, so the defining module
    alone is not enough; modules imported later see the wrapper.
    """
    original = getattr(sys.modules[module], attr)
    traced = wrap(tracer, original, name, attrs)
    for loaded in list(sys.modules.values()):
        namespace = getattr(loaded, "__dict__", {})
        if str(getattr(loaded, "__name__", "")).startswith("repro") \
                and namespace.get(attr) is original:
            setattr(loaded, attr, traced)


def patch_method(tracer: Tracer, module: str, cls: str, attr: str,
                 name: str, attrs: Optional[AttrsFn] = None) -> None:
    klass = getattr(sys.modules[module], cls)
    raw = klass.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(klass, attr, classmethod(wrap(tracer, raw.__func__, name, attrs)))
    else:
        setattr(klass, attr, wrap(tracer, raw, name, attrs))


def _traced_executor(tracer: Tracer) -> type:
    """The serve lane, recording queue wait and busy time per submission."""

    class TracedLane(ThreadPoolExecutor):
        def submit(self, fn: Callable, /, *args: Any, **kwargs: Any):
            parent = tracer.current()
            queued_ns = time.perf_counter_ns()

            def run() -> Any:
                with tracer.span("serve.lane.wait", parent, queued_ns):
                    pass
                with tracer.span("serve.lane.busy", parent):
                    return fn(*args, **kwargs)

            return super().submit(run)

    return TracedLane


def install(tracer: Tracer, command: str) -> None:
    """Install the wrappers for one ``repro`` command.

    ``fit`` gets the offline-phase stages; every other command gets the
    query-path layers, and ``serve`` additionally its front end and lane.
    The fit's own graph builds stay inside the stage that asked for them.
    """
    if command == "fit":
        patch_method(
            tracer, "repro.profiling.profiler", "Profiler", "profile_many",
            "profiling.profile",
            lambda a, k, r: {"cells": float(len(a[1]) * len(a[2])),
                             "records": float(len(r))},
        )
        for attr, name in (
            ("classify_operations", "core.classify"),
            ("fit_compute_models", "core.op_models"),
            ("collect_comm_observations", "core.comm_collect"),
            ("fit_comm_model", "core.comm_fit"),
        ):
            patch_function(tracer, "repro.core.fit", attr, name)
        patch_method(tracer, "repro.artifacts.store", "ArtifactStore", "save",
                     "artifacts.write")
        patch_function(tracer, "repro.core.persistence", "save_estimator",
                       "core.persistence.save")
        return
    patch_function(tracer, "repro.core.persistence", "load_estimator",
                   "core.persistence.load")
    patch_function(tracer, "repro.models.zoo", "build_model", "models.build")
    patch_function(tracer, "repro.core.engine", "compile_graph",
                   "core.engine.compile")
    patch_function(
        tracer, "repro.core.batch", "evaluate_sweep", "core.batch.sweep",
        lambda a, k, r: {"candidates": float(r.n_candidates)},
    )
    patch_method(tracer, "repro.core.estimator", "CeerEstimator",
                 "predict_training", "core.estimator.predict")
    patch_method(tracer, "repro.core.recommend", "Recommender", "sweep",
                 "core.recommend.sweep")
    patch_method(tracer, "repro.core.batch", "SweepResult", "frontier",
                 "core.pareto")
    patch_function(tracer, "repro.core.pareto", "pareto_frontier",
                   "core.pareto")
    patch_function(tracer, "repro.core.pareto", "pareto_order_and_keep",
                   "core.pareto")
    if "repro.core.rerank" in sys.modules:
        patch_method(tracer, "repro.core.rerank", "SpotRerankSession",
                     "from_estimator", "core.rerank.session")
        patch_method(tracer, "repro.core.rerank", "SpotRerankSession",
                     "rerank", "core.rerank.rerank")
        patch_method(tracer, "repro.cloud.spotsim", "SpotMarket", "tick",
                     "cloud.spotsim.tick")
    if command != "serve":
        return
    app = sys.modules["repro.serve.app"]
    patch_method(tracer, "repro.serve.app", "ServeApp", "__call__", "serve.app")
    for attr in ("parse_predict", "parse_recommend", "parse_pareto"):
        patch_function(tracer, "repro.serve.protocol", attr,
                       "serve.protocol.parse")
    for attr in ("prediction_to_json", "recommendation_to_json"):
        patch_function(tracer, "repro.serve.protocol", attr,
                       "serve.protocol.encode")
    patch_function(tracer, "repro.serve.snapshot", "load_snapshot",
                   "serve.snapshot.load")
    app.ThreadPoolExecutor = _traced_executor(tracer)
