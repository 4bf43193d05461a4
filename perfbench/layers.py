"""Per-layer metrics: from recorded spans and from the server's ``/metrics``."""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

#: Store methods reported per tier (the HTTP layer calls a few more;
#: they count towards ``calls_per_request``).
REPORTED_STORE_METHODS = (
    "resolve_entity",
    "entity_site_hosts",
    "site_page",
    "coverage_at",
    "set_cover",
)
TIERS = ("ram", "sqlite")

#: Query endpoints whose server-side time the shell gap compares against.
QUERY_ENDPOINTS = ("entity", "site", "coverage", "demand", "setcover")


def load_spans(directory: str | Path) -> list[tuple]:
    """Every span written under ``directory`` (all processes)."""
    spans: list[tuple] = []
    for path in sorted(Path(directory).glob("spans-*.jsonl")):
        with path.open(encoding="utf-8") as handle:
            spans.extend(tuple(json.loads(line)) for line in handle if line.strip())
    return spans


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    covered = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        covered += end - max(start, reach)
        reach = end
    return covered


class SpanSet:
    """Aggregates over spans ``(pid, id, parent, name, start, end, value)``."""

    def __init__(self, spans: list[tuple]) -> None:
        """Index ``spans`` by name and by (pid, parent id)."""
        self.spans = spans
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        self.children: dict[tuple[int, int], list[tuple]] = defaultdict(list)
        self.names: dict[tuple[int, int], str] = {}
        for span in spans:
            pid, span_id, parent, name = span[:4]
            self.by_name[name].append(span)
            self.names[(pid, span_id)] = name
            if parent is not None:
                self.children[(pid, parent)].append(span)

    def calls(self, name: str) -> int:
        """Number of spans named ``name``."""
        return len(self.by_name.get(name, ()))

    def busy_s(self, name: str) -> float:
        """Summed duration of spans named ``name``."""
        return sum(span[5] - span[4] for span in self.by_name.get(name, ()))

    def value_sum(self, name: str) -> float:
        """Summed ``value`` of spans named ``name``."""
        return sum(span[6] or 0.0 for span in self.by_name.get(name, ()))

    def child_cover_s(self, span: tuple) -> float:
        """Time within ``span`` covered by its direct children."""
        pid, span_id, __, __name, start, end, __value = span
        return union_length(
            [
                (max(start, child[4]), min(end, child[5]))
                for child in self.children.get((pid, span_id), ())
                if child[5] > start and child[4] < end
            ]
        )

    def self_s(self, name: str) -> float:
        """Summed self time (duration minus children) of spans named ``name``."""
        return sum(
            (span[5] - span[4]) - self.child_cover_s(span)
            for span in self.by_name.get(name, ())
        )

    def top_level_calls(self, prefix: str) -> int:
        """Spans under ``prefix`` not opened inside another span under it."""
        return sum(
            1
            for span in self.spans
            if span[3].startswith(prefix)
            and not self.names.get((span[0], span[2]), "").startswith(prefix)
        )


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def from_spans(spans: SpanSet, workers: int, tasks_completed: int) -> dict[str, float]:
    """Per-layer metrics of a traced run, keyed as in ``BENCHMARK.json``."""
    out: dict[str, float] = {}
    for name in ("webgen.generate", "traffic.simulate", "core.setcover",
                 "perf.cache.put", "perf.cache.get"):
        out[f"{name}.calls"] = spans.calls(name)
    for name in ("webgen.generate", "traffic.simulate", "core.graph.measure",
                 "core.graph.robustness", "core.coverage", "core.valueadd",
                 "core.setcover", "perf.cache.put", "perf.cache.get", "report.render"):
        out[f"{name}.busy_s"] = spans.busy_s(name)
    out["perf.cache.put.bytes"] = spans.value_sum("perf.cache.put")
    out["perf.cache.hit_ratio"] = _ratio(
        spans.value_sum("perf.cache.get"), spans.calls("perf.cache.get")
    )

    tasks = spans.by_name.get("pipeline.task", [])
    task_s = sum(span[5] - span[4] for span in tasks)
    covered = sum(spans.child_cover_s(span) for span in tasks)
    out["pipeline.task.busy_s"] = task_s
    out["pipeline.task.covered_frac"] = _ratio(covered, task_s)
    out["pipeline.task.uncovered_s"] = task_s - covered
    execute_s = spans.busy_s("perf.executor.execute")
    out["perf.executor.busy_frac"] = _ratio(task_s, workers * execute_s)
    out["perf.executor.retries"] = max(0, len(tasks) - tasks_completed) if tasks else 0

    handles = spans.calls("serve.app.handle")
    out["serve.app.handle.calls"] = handles
    out["serve.app.handle.self_ms"] = _ratio(spans.self_s("serve.app.handle"), handles) * 1e3
    for tier in TIERS:
        for method in REPORTED_STORE_METHODS:
            name = f"store.{tier}.{method}"
            out[f"{name}.calls"] = spans.calls(name)
            out[f"{name}.busy_s"] = spans.busy_s(name)
        out[f"store.{tier}.calls_per_request"] = _ratio(
            spans.top_level_calls(f"store.{tier}."), handles
        )
    return out


def server_window(before: dict, after: dict, runs: list) -> dict[str, float]:
    """Response cache, batcher and shell-gap figures over a measured window.

    ``before``/``after`` are ``/metrics`` documents taken around
    ``runs``; the shell gap is the client's mean send-to-reply time
    minus the server's mean handler time over the query endpoints.
    """
    rc0, rc1 = before["response_cache"], after["response_cache"]
    hits = rc1["hits"] - rc0["hits"]
    misses = rc1["misses"] - rc0["misses"]
    b0, b1 = before["batcher"], after["batcher"]
    launched = b1["launched"] - b0["launched"]
    coalesced = b1["coalesced"] - b0["coalesced"]
    server_ms = count = 0.0
    for endpoint in QUERY_ENDPOINTS:
        for doc, sign in ((after, 1.0), (before, -1.0)):
            latency = doc["endpoints"].get(endpoint, {}).get("latency")
            if latency:
                server_ms += sign * latency["mean_ms"] * latency["count"]
                count += sign * latency["count"]
    client_s = np.concatenate([run.done - run.sent for run in runs])
    client_s = client_s[~np.isnan(client_s)]
    return {
        "serve.rcache.hit_ratio": _ratio(hits, hits + misses),
        "serve.rcache.evictions": rc1["evictions"] - rc0["evictions"],
        "serve.batcher.coalesced_ratio": _ratio(coalesced, launched + coalesced),
        "serve.shell_gap_ms": float(client_s.mean()) * 1e3 - _ratio(server_ms, count),
    }
