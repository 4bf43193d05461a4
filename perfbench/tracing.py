"""Spans recorded around the program's public functions, from outside.

The program has no tracing of its own yet, so the traced run replaces
each layer's entry points with wrappers, under the names their callers
look them up by (``repro.pipeline.experiments.robustness_curve``, the
``ArtifactCache.get_*`` methods, ...).  Wrappers are installed before
the executor's pool or the server forks, so workers inherit them.

Each span is ``(pid, id, parent, name, start, end, value)``: ``parent``
is the span open on the same thread when it started, or the span that
handed the work to another thread (see :meth:`Tracer.carry`); ``value``
is an optional count measured at the boundary (bytes written, a cache
hit).  Spans stay in memory and are appended to
``<dir>/spans-<pid>.jsonl`` when the owner calls :meth:`Tracer.flush`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from pathlib import Path
from typing import Callable

# Span names are the layer metric prefixes in BENCHMARK.json.
PIPELINE_TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.webgen.profiles:SpreadProfile.generate", "webgen.generate"),
    ("repro.traffic.logs:TrafficLogGenerator.__init__", "traffic.simulate"),
    ("repro.traffic.logs:TrafficLogGenerator.search_log", "traffic.simulate"),
    ("repro.traffic.logs:TrafficLogGenerator.browse_log", "traffic.simulate"),
    ("repro.pipeline.experiments:unique_cookie_demand", "traffic.simulate"),
    ("repro.core.graph:GraphMetrics.measure", "core.graph.measure"),
    ("repro.pipeline.experiments:robustness_curve", "core.graph.robustness"),
    ("repro.pipeline.experiments:k_coverage_curves", "core.coverage"),
    ("repro.pipeline.experiments:aggregate_coverage_curve", "core.coverage"),
    ("repro.pipeline.experiments:greedy_coverage_curve", "core.setcover"),
    ("repro.pipeline.experiments:value_add_curve", "core.valueadd"),
    ("repro.pipeline.experiments:demand_vs_reviews", "core.valueadd"),
    ("repro.pipeline.experiments:DemandCurves.from_demand", "core.valueadd"),
    ("repro.pipeline.runall:ascii_plot", "report.render"),
    ("repro.pipeline.runall:write_csv", "report.render"),
    ("repro.pipeline.experiments:ascii_plot", "report.render"),
    ("repro.pipeline.experiments:ascii_table", "report.render"),
    ("repro.pipeline.runall:execute_tasks", "perf.executor.execute"),
)

#: Task bodies of ``run_everything``: every span recorded inside a task
#: belongs to a layer, and their union over the task is the coverage.
TASK_PREFIXES = ("_task_", "_prewarm_")

CACHE_GETS = ("get_incidence", "get_arrays", "get_records", "get_file")
CACHE_PUTS = (
    ("put_incidence", ".npz"),
    ("put_arrays", ".npz"),
    ("put_records", ".jsonl"),
    ("put_file", None),
)

#: Store methods the HTTP layer calls, per tier class.
STORE_METHODS = (
    "resolve_entity",
    "entity_site_hosts",
    "site_page",
    "coverage_at",
    "set_cover",
    "entity_labels",
    "entity_label",
    "site_of_host",
)
STORE_TIERS = (
    ("ram", "repro.serve.indices:PairIndex", "repro.store.demand:DemandTable"),
    ("sqlite", "repro.store.sql:SqlitePair", "repro.store.sql:SqliteDemandTable"),
)

SERVE_TARGETS: tuple[tuple[str, str], ...] = (
    ("repro.serve.indices:k_coverage_curves", "core.coverage"),
    ("repro.store.backend:greedy_set_cover", "core.setcover"),
)

#: Request target the traced server answers by writing out its spans.
FLUSH_TARGET = "/__perfbench/flush-spans"


def _resolve(spec: str) -> tuple[object, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, path = spec.split(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder for one process tree."""

    def __init__(self, out_dir: str | Path) -> None:
        """Record spans; :meth:`flush` writes them under ``out_dir``."""
        self.out_dir = Path(out_dir)
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._installed: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forget_parent)

    def _forget_parent(self) -> None:
        """A forked child starts with no spans and no open stack."""
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the span open on this thread, if any."""
        stack = self._stack()
        return stack[-1][0] if stack else None

    def wrap(
        self,
        name: str,
        fn: Callable,
        measure: Callable[[tuple, object], float] | None = None,
    ) -> Callable:
        """``fn`` recording one span per call (nested same-name calls: one)."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if any(open_name == name for __, open_name in stack):
                return fn(*args, **kwargs)
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else None
            stack.append((span_id, name))
            value = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    value = measure(args, result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (os.getpid(), span_id, parent, name, start, end, value)
                )

        return traced

    def carry(self, fn: Callable, parent: int | None) -> Callable:
        """``fn`` run on another thread as a child of span ``parent``."""
        tracer = self

        def carried(*args, **kwargs):
            stack = tracer._stack()
            stack.append((parent, ""))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return carried

    def patch(self, owner: object, attr: str, replacement: Callable) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`uninstall`."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            replacement = classmethod(replacement)
        setattr(owner, attr, replacement)

    def patch_spec(self, spec: str, name: str, measure=None) -> None:
        """Wrap the function named by ``spec`` in a ``name`` span."""
        owner, attr = _resolve(spec)
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        self.patch(owner, attr, self.wrap(name, fn, measure))

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    def flush(self) -> Path:
        """Append this process's spans to its file and drop them from memory."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{os.getpid()}.jsonl"
        spans, self.spans = self.spans, []
        with path.open("a", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
        return path

    # -- the layers ---------------------------------------------------------

    def install_cache(self) -> None:
        """``perf.cache.get`` (value: 1 on a hit) and ``perf.cache.put`` (bytes)."""
        for attr in CACHE_GETS:
            self.patch_spec(
                f"repro.perf.cache:ArtifactCache.{attr}",
                "perf.cache.get",
                measure=lambda args, result: 0.0 if result is None else 1.0,
            )
        for attr, suffix in CACHE_PUTS:

            def written(args, result, suffix=suffix):
                cache, key = args[0], args[1]
                # The blob path is the cache's own layout; put_file names
                # its suffix as the third argument.
                path = cache._path(key, suffix if suffix is not None else args[2])
                return float(path.stat().st_size)

            self.patch_spec(
                f"repro.perf.cache:ArtifactCache.{attr}", "perf.cache.put", written
            )

    def install_pipeline(self) -> None:
        """Wrap the batch layers and every task body of ``run_everything``."""
        import repro.pipeline.runall as runall

        self.install_cache()
        for spec, name in PIPELINE_TARGETS:
            self.patch_spec(spec, name)
        for attr in sorted(vars(runall)):
            if attr.startswith(TASK_PREFIXES):
                task = self.wrap("pipeline.task", getattr(runall, attr))
                self.patch(runall, attr, self._flushing(task))

    def _flushing(self, fn: Callable) -> Callable:
        """A task body that writes out its worker's spans when it returns."""
        tracer = self

        @functools.wraps(fn)
        def task(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.flush()

        return task

    def install_serve(self) -> None:
        """Wrap the request handler, the batcher hand-off and the store tiers."""
        from repro.serve.batcher import MicroBatcher
        from repro.serve.server import ServeApp

        self.install_cache()
        for spec, name in SERVE_TARGETS:
            self.patch_spec(spec, name)
        for tier, pair_spec, demand_spec in STORE_TIERS:
            for method in STORE_METHODS:
                self.patch_spec(f"{pair_spec}.{method}", f"store.{tier}.{method}")
            self.patch_spec(f"{demand_spec}.lookup", f"store.{tier}.demand_lookup")

        handle = self.wrap("serve.app.handle", ServeApp.handle)
        tracer = self

        @functools.wraps(ServeApp.handle)
        def serve_handle(app, target):
            if target == FLUSH_TARGET:
                tracer.flush()
                return 200, b"{}\n"
            return handle(app, target)

        self.patch(ServeApp, "handle", serve_handle)
        submit = MicroBatcher.submit

        @functools.wraps(submit)
        def submit_carrying(batcher, key, executor, fn):
            return submit(batcher, key, executor, tracer.carry(fn, tracer.current()))

        self.patch(MicroBatcher, "submit", submit_carrying)
