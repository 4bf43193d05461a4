"""Tests for the staged (and optionally process-parallel) executor."""

from __future__ import annotations

import time
import types
from concurrent.futures import Future

import pytest

from repro.perf import executor
from repro.perf.cache import ArtifactCache, configure_cache
from repro.perf.executor import (
    ExecutionResult,
    ExperimentTask,
    execute_tasks,
    stage_tasks,
)
from repro.perf.fingerprint import fingerprint
from repro.resilience import RetryPolicy


# Task functions must live at module scope: worker processes import
# them by reference.


def _double(payload):
    return payload["x"] * 2


def _boom(payload):
    raise RuntimeError("intentional")


def _cached_square(payload):
    """Compute x**2 through a cache installed inside the worker."""
    cache = ArtifactCache(payload["cache_dir"])
    configure_cache(cache)
    key = fingerprint("square", x=payload["x"])
    rows = cache.get_records(key)
    if rows is None:
        rows = [{"value": payload["x"] ** 2}]
        cache.put_records(key, rows)
    return rows[0]["value"]


def _task(name, requires=(), provides=(), fn=_double, payload=None):
    return ExperimentTask(
        name=name,
        fn=fn,
        payload=payload if payload is not None else {"x": 1},
        requires=tuple(requires),
        provides=tuple(provides),
    )


# ---------------------------------------------------------------------------
# Staging
# ---------------------------------------------------------------------------


def test_stage_tasks_orders_producers_before_consumers():
    tasks = [
        _task("consumer", requires=["a", "b"]),
        _task("make-a", provides=["a"]),
        _task("make-b", provides=["b"], requires=["a"]),
    ]
    stages = stage_tasks(tasks)
    names = [[t.name for t in stage] for stage in stages]
    assert names == [["make-a"], ["make-b"], ["consumer"]]


def test_stage_tasks_treats_unprovided_labels_as_satisfied():
    # Nothing provides "warm" — e.g. an already-populated cache entry —
    # so the consumer is immediately runnable.
    stages = stage_tasks([_task("consumer", requires=["warm"])])
    assert [[t.name for t in s] for s in stages] == [["consumer"]]


def test_stage_tasks_groups_independent_tasks_into_one_stage():
    stages = stage_tasks([_task("a", provides=["pa"]), _task("b", provides=["pb"])])
    assert len(stages) == 1
    assert {t.name for t in stages[0]} == {"a", "b"}


def test_stage_tasks_rejects_cycles():
    tasks = [
        _task("a", requires=["y"], provides=["x"]),
        _task("b", requires=["x"], provides=["y"]),
    ]
    with pytest.raises(ValueError, match="cycle"):
        stage_tasks(tasks)


def test_stage_tasks_rejects_duplicate_names():
    with pytest.raises(ValueError, match="duplicate"):
        stage_tasks([_task("same"), _task("same")])


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def test_serial_execution_returns_outcomes_and_wall_clock():
    tasks = [_task("t1", payload={"x": 2}), _task("t2", payload={"x": 5})]
    result = execute_tasks(tasks, workers=1)
    assert isinstance(result, ExecutionResult)
    assert result.outcomes["t1"].value == 4
    assert result.outcomes["t2"].value == 10
    assert result.total_seconds >= 0.0
    assert all(o.seconds >= 0.0 for o in result.outcomes.values())


def test_parallel_execution_matches_serial_results():
    tasks = [_task(f"t{i}", payload={"x": i}) for i in range(6)]
    serial = execute_tasks(tasks, workers=1)
    pooled = execute_tasks(tasks, workers=2)
    assert {n: o.value for n, o in pooled.outcomes.items()} == {
        n: o.value for n, o in serial.outcomes.items()
    }


def test_parallel_task_failure_names_the_task():
    tasks = [_task("fine"), _task("broken", fn=_boom)]
    with pytest.raises(RuntimeError, match="broken"):
        execute_tasks(tasks, workers=2)


def test_serial_task_failure_propagates():
    with pytest.raises(RuntimeError, match="intentional"):
        execute_tasks([_task("broken", fn=_boom)], workers=1)


def test_worker_cache_stats_are_reported_per_task(tmp_path):
    spec = {"cache_dir": str(tmp_path)}
    producer = _task(
        "producer", provides=["sq"], fn=_cached_square, payload={"x": 7, **spec}
    )
    consumer = _task(
        "consumer", requires=["sq"], fn=_cached_square, payload={"x": 7, **spec}
    )
    result = execute_tasks([producer, consumer], workers=2)
    assert result.outcomes["producer"].value == 49
    assert result.outcomes["consumer"].value == 49
    assert result.outcomes["producer"].cache_stats.misses == 1
    assert result.outcomes["producer"].cache_stats.puts == 1
    assert result.outcomes["consumer"].cache_stats.hits == 1
    assert result.outcomes["consumer"].cache_stats.misses == 0


# ---------------------------------------------------------------------------
# Dispatch order
# ---------------------------------------------------------------------------


class _ScriptedPools:
    """Pool factory whose in-process pools record every submission.

    ``script(pool_no, name, attempt)`` picks each attempt's fate:
    ``"ok"`` runs it inline, ``"error"`` fails it, ``"stuck"`` leaves its
    future pending forever (a hung worker).  Each submit advances
    ``now`` by one second, so deadlines follow submission order on a
    clock the test controls.
    """

    def __init__(self, script=lambda pool_no, name, attempt: "ok"):
        self.script = script
        self.submissions: list[tuple[str, int]] = []
        self.pools = 0
        self.now = 0.0

    def __call__(self, max_workers):
        pools, pool_no = self, self.pools
        self.pools += 1

        class _Pool:
            def submit(self, fn, task, attempt, in_worker):
                pools.submissions.append((task.name, attempt))
                pools.now += 1.0
                future = Future()
                fate = pools.script(pool_no, task.name, attempt)
                if fate == "ok":
                    future.set_result(fn(task, attempt, in_worker))
                elif fate == "error":
                    future.set_exception(RuntimeError(f"{task.name} failed"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        return _Pool()


@pytest.fixture
def no_backoff(monkeypatch):
    monkeypatch.setattr(RetryPolicy, "sleep", lambda self, seconds: None)


def test_pooled_stage_dispatches_heaviest_consumers_first():
    tasks = [
        _task("make-a", provides=["a"]),
        _task("make-b", provides=["b"]),
        _task("one", requires=["a"]),
        _task("none"),
        _task("two", requires=["a", "b"]),
        _task("also-one", requires=["b"]),
        _task("also-two", requires=["b", "warm"]),
    ]
    pools = _ScriptedPools()
    result = execute_tasks(tasks, workers=2, pool_factory=pools)
    assert result.ok
    assert [name for name, _ in pools.submissions] == [
        # stage 1: no requires anywhere, declared order
        "make-a", "make-b", "none",
        # stage 2: most requires first, ties in declared order
        "two", "also-two", "one", "also-one",
    ]


def test_retries_and_refunds_requeue_at_the_back(no_backoff, monkeypatch):
    """A retried or refunded task is appended, never re-sorted forward.

    ``heavy`` fails its first attempt and its retry hangs; ``light``
    hangs from the start, so its deadline passes first.  ``light`` is
    charged the timeout and requeued, then in-flight ``heavy`` is
    refunded behind it — after a pool rebuild ``light`` goes first
    although it requires less.
    """

    def script(pool_no, name, attempt):
        if pool_no > 0:
            return "ok"
        return "error" if (name, attempt) == ("heavy", 1) else "stuck"

    pools = _ScriptedPools(script)
    monkeypatch.setattr(
        executor,
        "time",
        types.SimpleNamespace(
            monotonic=lambda: pools.now, perf_counter=time.perf_counter
        ),
    )
    tasks = [_task("light"), _task("heavy", requires=["x", "y"])]
    result = execute_tasks(
        tasks,
        workers=2,
        policy=RetryPolicy(max_attempts=3, timeout_seconds=1.0),
        pool_factory=pools,
    )
    assert result.ok
    assert pools.submissions == [
        ("heavy", 1),
        ("light", 1),
        ("heavy", 2),  # retry after the error
        ("light", 2),  # retry after the timeout
        ("heavy", 2),  # refund: same attempt, behind light
    ]
    assert result.outcomes["heavy"].attempts == 2
    assert result.outcomes["light"].attempts == 2
    assert result.pool_rebuilds == 1


def _unbuildable_pool(max_workers):
    raise OSError("no forks today")


@pytest.mark.parametrize(
    "workers, pool_factory", [(1, None), (2, _unbuildable_pool)],
    ids=["serial", "degraded"],
)
def test_inline_execution_keeps_declared_order(workers, pool_factory):
    tasks = [
        _task("none"),
        _task("one", requires=["a"]),
        _task("two", requires=["a", "b"]),
    ]
    order: list[str] = []
    execute_tasks(
        tasks,
        workers=workers,
        pool_factory=pool_factory,
        on_complete=lambda outcome: order.append(outcome.name),
    )
    assert order == ["none", "one", "two"]
