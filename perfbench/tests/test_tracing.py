"""Span recording, cross-thread parents, and the per-layer aggregates."""

import threading
import time

import numpy as np
import pytest

from perfbench import layers
from perfbench.client import OpenRun
from perfbench.tracing import Tracer


class Widget:
    @classmethod
    def build(cls, n):
        return n * 2

    def work(self, n):
        return n + 1


def test_wrapped_calls_nest_and_same_name_reentry_is_one_span(tmp_path):
    tracer = Tracer(tmp_path)
    inner = tracer.wrap("layer.inner", lambda: time.sleep(0.01))

    def outer_body(depth):
        if depth:
            return outer(depth - 1)
        inner()
        return "done"

    outer = tracer.wrap("layer.outer", outer_body)
    assert outer(2) == "done"
    spans = layers.SpanSet(tracer.spans)
    assert spans.calls("layer.outer") == 1
    assert spans.calls("layer.inner") == 1
    (parent,) = spans.by_name["layer.outer"]
    (child,) = spans.by_name["layer.inner"]
    assert child[2] == parent[1]
    assert spans.self_s("layer.outer") == pytest.approx(
        spans.busy_s("layer.outer") - spans.busy_s("layer.inner")
    )


def test_carry_links_work_on_another_thread_to_its_requester(tmp_path):
    tracer = Tracer(tmp_path)
    leaf = tracer.wrap("store.x", lambda: None)

    def request():
        worker = threading.Thread(target=tracer.carry(leaf, tracer.current()))
        worker.start()
        worker.join(5)
        assert not worker.is_alive()

    tracer.wrap("serve.app.handle", request)()
    spans = layers.SpanSet(tracer.spans)
    (handle,) = spans.by_name["serve.app.handle"]
    (store,) = spans.by_name["store.x"]
    assert store[2] == handle[1]


def test_patch_and_uninstall_restore_methods_and_classmethods(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.patch_spec(f"{__name__}:Widget.build", "w.build")
    tracer.patch_spec(f"{__name__}:Widget.work", "w.work")
    assert Widget.build(3) == 6
    assert Widget().work(1) == 2
    assert [s[3] for s in tracer.spans] == ["w.build", "w.work"]
    tracer.uninstall()
    assert isinstance(Widget.__dict__["build"], classmethod)
    Widget.build(1)
    assert len(tracer.spans) == 2


def test_flush_writes_spans_once(tmp_path):
    tracer = Tracer(tmp_path)
    tracer.wrap("a", lambda: None)()
    tracer.flush()
    tracer.wrap("b", lambda: None)()
    tracer.flush()
    assert [s[3] for s in layers.load_spans(tmp_path)] == ["a", "b"]


def _span(span_id, parent, name, start, end, value=None):
    return (1, span_id, parent, name, start, end, value)


def test_task_coverage_and_executor_busy_fraction():
    spans = layers.SpanSet(
        [
            _span(1, None, "perf.executor.execute", 0.0, 10.0),
            _span(2, None, "pipeline.task", 0.0, 8.0),
            _span(3, 2, "webgen.generate", 0.0, 4.0),
            _span(4, 2, "perf.cache.put", 3.0, 6.0, 100.0),
            _span(5, None, "pipeline.task", 0.0, 2.0),
            _span(6, None, "perf.cache.get", 0.0, 1.0, 1.0),
            _span(7, None, "perf.cache.get", 1.0, 2.0, 0.0),
        ]
    )
    out = layers.from_spans(spans, workers=2, tasks_completed=2)
    assert out["pipeline.task.busy_s"] == 10.0
    assert out["pipeline.task.covered_frac"] == pytest.approx(0.6)
    assert out["pipeline.task.uncovered_s"] == pytest.approx(4.0)
    assert out["perf.executor.busy_frac"] == pytest.approx(0.5)
    assert out["perf.executor.retries"] == 0
    assert out["perf.cache.put.bytes"] == 100.0
    assert out["perf.cache.hit_ratio"] == 0.5
    assert out["store.sqlite.calls_per_request"] == 0.0


def test_store_calls_per_request_counts_outermost_store_calls():
    spans = layers.SpanSet(
        [
            _span(1, None, "serve.app.handle", 0.0, 1.0),
            _span(2, 1, "store.ram.entity_site_hosts", 0.1, 0.5),
            _span(3, 2, "store.ram.entity_labels", 0.2, 0.3),
            _span(4, None, "serve.app.handle", 1.0, 2.0),
        ]
    )
    out = layers.from_spans(spans, workers=1, tasks_completed=0)
    assert out["store.ram.calls_per_request"] == 0.5
    assert out["serve.app.handle.self_ms"] == pytest.approx((0.6 + 1.0) / 2 * 1e3)


def test_server_window_diffs_metrics_documents():
    def doc(hits, misses, evictions, launched, coalesced, count, mean_ms):
        return {
            "response_cache": {"hits": hits, "misses": misses, "evictions": evictions},
            "batcher": {"launched": launched, "coalesced": coalesced},
            "endpoints": {"entity": {"latency": {"count": count, "mean_ms": mean_ms}}},
        }

    run = OpenRun(
        targets=["/a", "/b"],
        scheduled=np.array([0.0, 0.1]),
        sent=np.array([0.0, 0.1]),
        done=np.array([0.003, 0.103]),
        status=np.array([200, 200]),
        digest=[b"", b""],
    )
    out = layers.server_window(
        doc(10, 10, 1, 5, 0, 10, 1.0), doc(13, 11, 3, 6, 1, 12, 1.0), [run]
    )
    assert out["serve.rcache.hit_ratio"] == 0.75
    assert out["serve.rcache.evictions"] == 2
    assert out["serve.batcher.coalesced_ratio"] == 0.5
    assert out["serve.shell_gap_ms"] == pytest.approx(2.0)


def test_union_length_merges_overlaps():
    assert layers.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert layers.union_length([]) == 0
