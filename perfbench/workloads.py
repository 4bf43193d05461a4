"""The two workloads: what each runs, measures and checks.

``cold-ram``
    First reproductions: ``run_everything_with_report``, each against
    an empty artifact cache, then a 1-worker ``ShardedServer`` on the
    ram tier of the first under the repo load generator's endpoint mix.
``warm-sqlite``
    Re-runs against the cache set-up filled, then the compiled store
    served from the SQLite tier under a lookup-only, flat-popularity
    mix that mostly misses the response cache.

Both report the same end-to-end metrics (see ``BENCHMARK.json``): each
has a batch phase (``wall_s``, the median of the runs repeated for
``--seconds``) and a serving phase whose latency at two fixed rates,
restart time and (on ``cold-ram``) knee go into the record.  The pairing is
what makes each mechanism run on one workload and stay idle on the
other: cache writes vs reads, the core kernels vs none (in ``wall_s``),
the ram vs sqlite store, a response cache that hits about half the time
vs mostly not.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import json
import multiprocessing
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench import client, layers, stats
from perfbench.client import LOADGEN_MIX, LOOKUP_MIX, Mix
from perfbench.tracing import FLUSH_TARGET, Tracer

HERE = Path(__file__).resolve().parent

#: Experiment seed of the corpus.  Fixed: across corpus seeds the served
#: run's capacity moves by more than the serving metrics' bounds, which
#: would drown a change in noise.  ``--seed`` varies every request stream.
CORPUS_SEED = 0

#: p99 budget of the knee rule, milliseconds.  Above the 30-120 ms p99
#: that set-cover stalls alone give the ram mix at low load, so the
#: knee marks where the server falls behind, not where a stall landed.
P99_BUDGET_MS = 250.0

#: Fewest pipeline runs before and after the serving phase, whatever
#: ``--seconds`` allows; ``wall_s`` is the median of them all.  Host
#: speed drifts over tens of seconds, so runs spread over the whole
#: invocation follow it less than runs taken back to back.
MIN_REPS = {"cold-ram": (2, 1), "warm-sqlite": (3, 3)}

#: Requests in each fixed-rate window and in the warm-up: the fewest
#: that support a p99 (see stats).  The serving figures are recorded,
#: not gated, so their windows are kept short.
FIXED_REQUESTS = stats.min_samples_for(0.99)

#: Requests per knee-ladder rung (enough for a p99, see stats).
RUNG_REQUESTS = 2000
LADDER_STEP = 1.2
LADDER_MAX_RUNGS = 12

#: Server restarts whose median is ``ready_s``.
RESTARTS = 3

#: Null-responder calibration: requests per rung, the first offered
#: rate, and how many times the rate may double.
CALIB_REQUESTS = 10000
CALIB_FROM_RPS = 25000.0
CALIB_MAX_RUNGS = 5


@dataclass(frozen=True)
class Serving:
    """How one workload loads its server; no ladder when ``ladder_from_rps`` is None."""

    backend: str
    mix: Mix
    low_rps: float
    high_rps: float
    ladder_from_rps: float | None


WORKLOADS: dict[str, Serving] = {
    "cold-ram": Serving("ram", LOADGEN_MIX, 300.0, 600.0, 1700.0),
    "warm-sqlite": Serving("sqlite", LOOKUP_MIX, 200.0, 400.0, None),
}

#: BENCH_PR2's traffic sizes at ``small``; ``tiny`` is for smoke tests.
TRAFFIC = {
    "small": {"traffic_entities": 20000, "traffic_events": 200000, "traffic_cookies": 50000},
    "tiny": {"traffic_entities": 2000, "traffic_events": 20000, "traffic_cookies": 5000},
}


@dataclass
class Context:
    """One invocation: arguments, scratch space and what it accumulates."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: str
    src: Path
    work: Path
    started: float
    tally: stats.Tally = field(default_factory=stats.Tally)
    problems: list[str] = field(default_factory=list)
    setup_s: float = 0.0
    rss_mb: list[float] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)

    @property
    def config(self) -> dict:
        return {"scale": self.scale, "seed": CORPUS_SEED, **TRAFFIC[self.scale]}

    @property
    def workers(self) -> int:
        return min(2, os.cpu_count() or 1)

    def fail(self, message: str, count: int = 1) -> None:
        """Record a failed check (counted as failed operations)."""
        self.problems.append(message)
        self.tally.add(count, count)


# -- the batch phase --------------------------------------------------------------


def reference_digests(ctx: Context) -> dict[str, str] | None:
    table = json.loads((HERE / "reference_digests.json").read_text())
    return table.get(ctx.scale)


def spawn_pipeline(src: Path, config: dict, workers: int, out: Path, cache: Path,
                   journal: Path, trace_dir: Path | None = None) -> dict:
    """Run ``pipeline_child.py`` once; returns its result record."""
    spec = {
        "src": str(src),
        "config": config,
        "workers": workers,
        "out": str(out),
        "cache_dir": str(cache),
        "journal_dir": str(journal),
        "trace_dir": str(trace_dir) if trace_dir else None,
        "spawned_at": time.perf_counter(),
    }
    spec_path = out.with_suffix(".spec.json")
    result_path = out.with_suffix(".result.json")
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(HERE / "pipeline_child.py"), str(spec_path), str(result_path)],
        timeout=150,
    )
    if not result_path.exists():
        raise RuntimeError(f"pipeline child exited {proc.returncode} without a result")
    return json.loads(result_path.read_text())


def run_pipeline(
    ctx: Context, out: Path, cache: Path, trace_dir: Path | None = None
) -> dict:
    """One ``run_everything_with_report`` in a fresh interpreter; checks it."""
    result = spawn_pipeline(ctx.src, ctx.config, ctx.workers, out, cache,
                            ctx.work / "journal", trace_dir)
    attempted = len(result["tasks"]) + len(result["failures"]) + len(result["skipped"])
    ctx.tally.add(attempted, len(result["failures"]) + len(result["skipped"]))
    for failure in result["failures"]:
        ctx.problems.append(f"task {failure['name']} failed: {failure.get('message')}")
    expected = reference_digests(ctx)
    got = {name: d for name, d in result["digests"].items() if name != "manifest.json"}
    if expected is None:
        ctx.fail(f"no reference digests for scale {ctx.scale}")
    else:
        wrong = sorted(n for n in set(expected) | set(got) if expected.get(n) != got.get(n))
        ctx.tally.add(len(expected), len(wrong))
        if wrong:
            ctx.problems.append(f"{len(wrong)} artifact digest(s) differ: {wrong[:5]}")
    ctx.facts["workers_used"] = result["workers_used"]
    return result


def repeat(run_once, first: int, min_reps: int, seconds: float) -> int:
    """Call ``run_once(rep)`` from ``rep = first``; returns the next ``rep``.

    After ``min_reps`` calls, another starts only if, at the mean pace
    so far, it would end within ``seconds`` of the first one's start.
    """
    t0 = time.perf_counter()
    rep = first
    while True:
        run_once(rep)
        rep += 1
        done = rep - first
        if done >= min_reps and (time.perf_counter() - t0) * (done + 1) / done > seconds:
            return rep


def peak_mb(result: dict) -> float:
    """Peak RSS of one pipeline run: its process or its largest pool worker."""
    return max(result["rss_self_mb"], result["rss_children_mb"])


# -- the serving phase --------------------------------------------------------------


@contextlib.contextmanager
def timed(ctx: Context, name: str):
    """Record how long a phase took in the run's facts."""
    t0 = time.perf_counter()
    try:
        yield
    finally:
        ctx.facts.setdefault("phase_s", {})[name] = time.perf_counter() - t0


def _get(address: tuple[str, int], target: str) -> tuple[int, bytes]:
    conn = http.client.HTTPConnection(*address, timeout=30)
    try:
        conn.request("GET", target)
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def start_server(ctx: Context, manifest, backend: str):
    """Open the index, fork one worker, wait for ``/healthz``; timed."""
    from repro.serve.indices import build_index
    from repro.serve.server import ServeSettings
    from repro.serve.sharding import ShardedServer, ShardPlan

    t0 = time.perf_counter()
    index = build_index(manifest, backend)
    t1 = time.perf_counter()
    server = ShardedServer(
        index=index,
        settings=ServeSettings(host="127.0.0.1", port=0),
        plan=ShardPlan(workers=1),
    )
    address = server.start()
    t2 = time.perf_counter()
    status, body = _get(address, "/healthz")
    if status != 200:
        server.stop()
        raise RuntimeError(f"/healthz answered {status}")
    ready = time.perf_counter() - t0
    return server, address, json.loads(body), ready, t1 - t0, t2 - t1


def _phase(ctx: Context, loop: client.OpenLoop, summary: dict, mix: Mix, rate: float,
           count: int, label: str) -> client.OpenRun:
    targets = client.build_targets(summary, mix, client.derive_seed(ctx.seed, label), count)
    return loop.run(
        targets, client.poisson_schedule(rate, count, client.derive_seed(ctx.seed, label + ":t"))
    )


def fixed_rate(ctx: Context, loop, summary: dict, mix: Mix, rate: float,
               label: str) -> client.OpenRun:
    """One window of ``FIXED_REQUESTS`` at ``rate``, enough for a p99."""
    return _phase(ctx, loop, summary, mix, rate, FIXED_REQUESTS, label)


def warm_up(ctx: Context, loop, summary: dict, serving: Serving) -> client.OpenRun:
    """Unmeasured load, seeded apart from the measured streams."""
    return _phase(ctx, loop, summary, serving.mix, serving.high_rps, FIXED_REQUESTS, "warmup")


def _p50_ms(run: client.OpenRun) -> float:
    return stats.nearest_rank(sorted(run.latencies), 0.5) * 1000.0


def ladder(ctx: Context, loop, summary: dict, serving: Serving) -> tuple[float, list]:
    """Rate ladder around the knee; returns the knee and the rung runs.

    It starts at ``ladder_from_rps``, steps down until a rung passes if
    that one failed, then steps up until two rungs in a row fail.
    """
    rungs: list[stats.Rung] = []
    runs: list[client.OpenRun] = []

    def probe(rate: float) -> bool:
        run = _phase(ctx, loop, summary, serving.mix, rate, RUNG_REQUESTS,
                     f"rung{len(rungs)}")
        runs.append(run)
        lat = list(run.latencies)
        rung = stats.Rung(
            rate=rate,
            p99_ms=stats.p99_ms(lat) if len(lat) >= stats.min_samples_for(0.99) else float("inf"),
            drain_ratio=run.drain_ratio,
            failed=int((run.status != 200).sum()),
            samples=len(lat),
        )
        rungs.append(rung)
        return stats.rung_ok(rung, P99_BUDGET_MS)

    start = serving.ladder_from_rps
    misses = 0 if probe(start) else 1
    rate = start
    while misses and not any(stats.rung_ok(r, P99_BUDGET_MS) for r in rungs):
        if len(rungs) == LADDER_MAX_RUNGS:
            raise RuntimeError(f"no ladder rung down to {rate:.0f} req/s met the budget")
        rate /= LADDER_STEP
        probe(rate)
    rate = start
    while misses < 2 and len(rungs) < LADDER_MAX_RUNGS:
        rate *= LADDER_STEP
        misses = 0 if probe(rate) else misses + 1
    knee, censored = stats.knee_rate(rungs, P99_BUDGET_MS)
    ctx.facts["knee_censored"] = censored
    ctx.facts["ladder"] = [
        {"rate": r.rate, "p99_ms": r.p99_ms, "drain": r.drain_ratio} for r in rungs
    ]
    return knee, runs


def calibrate(ctx: Context) -> float:
    """The generator's ceiling, in req/s, against a null responder.

    Offers doubling rates until the null responder falls behind (drain
    ratio below ``stats.MIN_DRAIN``) and returns the highest completed
    rate seen, so the figure is what the client can drive, not the
    offered schedule.
    """
    rate, best, rungs = CALIB_FROM_RPS, 0.0, []
    with client.NullServer() as null, \
            client.OpenLoop("127.0.0.1", null.port, ctx.workers) as loop:
        for i in range(CALIB_MAX_RUNGS):
            run = loop.run(
                ["/null"] * CALIB_REQUESTS,
                client.poisson_schedule(rate, CALIB_REQUESTS,
                                        client.derive_seed(ctx.seed, f"null{i}")),
            )
            if (run.status != 200).any():
                ctx.fail(f"null responder failed requests at {rate:.0f} req/s")
            rungs.append({"rate": rate, "achieved": run.achieved_rps,
                          "drain": run.drain_ratio})
            best = max(best, run.achieved_rps)
            if run.drain_ratio < stats.MIN_DRAIN:
                break
            rate *= 2
    ctx.facts["calibration"] = rungs
    return best


def check_replies(ctx: Context, runs: list[client.OpenRun], manifest) -> None:
    """Every reply must be 200 and byte-equal to the ram index's own answer.

    The oracle index is built here, after the server has stopped, so
    the forked server worker never inherits (and counts in its RSS)
    the benchmark's own copy.
    """
    from repro.serve.indices import build_index
    from repro.serve.server import ServeApp, ServeSettings

    app = ServeApp(build_index(manifest, "ram"), ServeSettings(response_cache_entries=0))
    expected: dict[str, tuple[int, bytes]] = {}
    try:
        for run in runs:
            for target in run.targets:
                if target not in expected:
                    status, body = app.handle(target)
                    expected[target] = (status, hashlib.sha256(body).digest())
    finally:
        app.close()
    for run in runs:
        bad = 0
        for target, status, digest in zip(run.targets, run.status, run.digest):
            if status != 200 or (int(status), digest) != expected[target]:
                bad += 1
        ctx.tally.add(len(run.targets), bad)
        if bad:
            ctx.problems.append(f"{bad} of {len(run.targets)} replies failed or differ")
    ctx.facts["distinct_targets"] = len(expected)


def metrics_snapshot(address) -> dict:
    status, body = _get(address, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    return json.loads(body)


def serve(ctx: Context, manifest, serving: Serving, trace_dir: Path | None) -> None:
    """Restarts, warm-up, fixed rates, ladder; records the serving figures.

    The ladder runs only where the workload has one (``cold-ram``).

    Latency at the fixed rates, the knee and ``ready_s`` go into the
    record (``ctx.facts``), not the gate: on a shared host they spread
    more from run to run than any bound the gate may use.  The median
    restart (index open, server start, first ``/healthz``) counts in
    ``setup_s`` with the warm-up, so a slower start is still gated.

    A traced run first measures the low rate on an untraced server
    (same streams) for the overhead figure, then restarts traced and
    skips the ladder; its spans cover warm-up, low and high.
    """
    runs: list[client.OpenRun] = []
    tracer = None
    if trace_dir is not None:
        server, address, summary, *__ = start_server(ctx, manifest, serving.backend)
        try:
            with client.OpenLoop(*address, ctx.workers) as loop:
                runs.append(warm_up(ctx, loop, summary, serving))
                untraced_low = fixed_rate(ctx, loop, summary, serving.mix,
                                          serving.low_rps, "low")
                runs.append(untraced_low)
        finally:
            server.stop()
            server = None
        tracer = Tracer(trace_dir)
        tracer.install_serve()
    with timed(ctx, "calibrate"):
        ceiling = calibrate(ctx)
    ready, build, start = [], [], []
    server = None
    try:
        with timed(ctx, "restarts"):
            for __ in range(1 if tracer is not None else RESTARTS):
                if server is not None:
                    # Released before the next index is built, so the
                    # next worker does not inherit the old one.
                    server.stop()
                    server = None
                server, address, summary, r, b, s = start_server(
                    ctx, manifest, serving.backend
                )
                ready.append(r)
                build.append(b)
                start.append(s)
        ctx.setup_s += stats.median(ready)
        with client.OpenLoop(*address, ctx.workers) as loop:
            t0 = time.perf_counter()
            runs.append(warm_up(ctx, loop, summary, serving))
            ctx.setup_s += time.perf_counter() - t0
            before = metrics_snapshot(address)
            with timed(ctx, "fixed_rates"):
                low = fixed_rate(ctx, loop, summary, serving.mix, serving.low_rps, "low")
                high = fixed_rate(ctx, loop, summary, serving.mix, serving.high_rps, "high")
            after = metrics_snapshot(address)
            # Taken before the ladder: past the knee a backlog grows, and
            # the worker's memory with it, by however far the ladder went.
            ctx.rss_mb.append(_peak_rss(server.worker_pids()))
            runs += [low, high]
            if tracer is None and serving.ladder_from_rps is not None:
                with timed(ctx, "ladder"):
                    ctx.facts["knee_rps"], rung_runs = ladder(ctx, loop, summary, serving)
                runs += rung_runs
                top = max(r["rate"] for r in ctx.facts["ladder"])
                if ceiling < 1.5 * top:
                    ctx.fail(
                        f"generator ceiling {ceiling:.0f} req/s is too close "
                        f"to the ladder's top rate {top:.0f}: the knee is not the server's"
                    )
        if tracer is not None:
            _get(address, FLUSH_TARGET)
            tracer.flush()
    finally:
        if server is not None:
            server.stop()
        if tracer is not None:
            tracer.uninstall()
    with timed(ctx, "oracle"):
        check_replies(ctx, runs, manifest)
    for name, run in (("low", low), ("high", high)):
        ctx.facts[f"latency.{name}"] = stats.latency_summary(list(run.latencies))
    ctx.facts["ready_s"] = stats.median(ready)
    ctx.layer.update(
        {
            "serve.indices.build_index_s": stats.median(build),
            "serve.sharding.start_s": stats.median(start),
            "bench.gen.ceiling_rps": ceiling,
            "bench.gen.lag_p99_ms": stats.nearest_rank(
                sorted(np.concatenate([low.lags, high.lags])), 0.99) * 1000.0,
            **layers.server_window(before, after, [low, high]),
        }
    )
    if tracer is not None:
        ctx.layer["trace.overhead.p50_frac"] = _p50_ms(low) / _p50_ms(untraced_low) - 1.0


def _peak_rss(pids: list[int]) -> float:
    from repro.perf import peak_rss_mb

    value = peak_rss_mb(pids)
    return value if value is not None else 0.0


# -- the workloads --------------------------------------------------------------


def compile_store(manifest) -> None:
    """``build_store`` into the configured cache, in a forked child.

    Compiling leaves tens of MB resident in the process that ran it;
    here that would be the process that later forks the server worker,
    whose peak RSS would then count it.  The store is cache-addressed,
    so the server's ``build_index`` reopens what the child wrote.
    """
    from repro.store.compile import build_store

    process = multiprocessing.get_context("fork").Process(target=build_store, args=(manifest,))
    process.start()
    process.join(150)
    if process.is_alive():
        process.terminate()
        process.join()
    if process.exitcode != 0:
        raise RuntimeError(f"build_store exited {process.exitcode}")


def run_workload(ctx: Context) -> dict[str, float]:
    """Run ``ctx.workload``; returns its end-to-end metrics.

    The batch phase repeats the pipeline run (see :func:`repeat`) for
    half of ``--seconds`` before the serving phase and half after it:
    ``cold-ram`` into a new empty cache each time, ``warm-sqlite``
    against the cache its set-up filled.  The served manifest is the
    first cold run's, or the fill's.  A traced run traces the second
    repetition only, so the others are its untraced baseline, and
    fills ``ctx.layer``; its end-to-end figures are not reported
    (tracing slows what they measure).
    """
    from repro.perf import ArtifactCache, configure_cache
    from repro.serve.indices import load_manifest

    serving = WORKLOADS[ctx.workload]
    cache = ctx.work / "cache"
    trace_dir = ctx.work / "spans" if ctx.trace else None
    ctx.setup_s += time.perf_counter() - ctx.started  # interpreter + imports
    walls: list[float] = []
    startups: list[float] = []
    peaks: list[float] = []
    traced: dict = {}

    if ctx.workload == "warm-sqlite":
        t0 = time.perf_counter()
        with timed(ctx, "cold_fill"):
            fill = run_pipeline(ctx, ctx.work / "run", cache)
        ctx.setup_s += time.perf_counter() - t0
        # The fill is set-up, and its memory is cold-ram's figure.
        ctx.facts["fill_rss_mb"] = peak_mb(fill)

    def once(rep: int) -> None:
        nonlocal traced
        is_traced = ctx.trace and rep == 1
        into = cache
        if ctx.workload == "warm-sqlite":
            out = ctx.work / f"warm{rep}"
        elif rep == 0:
            out = ctx.work / "run"
        else:
            out, into = ctx.work / f"cold{rep}", ctx.work / f"cache{rep}"
        result = run_pipeline(ctx, out, into, trace_dir if is_traced else None)
        if is_traced:
            traced = result
        else:
            walls.append(result["wall_s"])
        startups.append(result["startup_s"])
        peaks.append(peak_mb(result))
        if out.name != "run":
            shutil.rmtree(out)
        if into != cache:
            shutil.rmtree(into)

    before, after = MIN_REPS[ctx.workload]
    with timed(ctx, "batch_before"):
        next_rep = repeat(once, 0, before, ctx.seconds / 2)

    configure_cache(ArtifactCache(cache))
    manifest = load_manifest(ctx.work / "run")
    if serving.backend != "ram":
        t0 = time.perf_counter()
        with timed(ctx, "compile"):
            compile_store(manifest)
        ctx.setup_s += time.perf_counter() - t0
    serve(ctx, manifest, serving, trace_dir)
    with timed(ctx, "batch_after"):
        repeat(once, next_rep, after, ctx.seconds / 2)
    ctx.setup_s += stats.median(startups)
    ctx.facts["walls_s"] = walls
    ctx.rss_mb.append(stats.median(peaks))
    metrics = {
        "setup_s": ctx.setup_s,
        "wall_s": stats.median(walls),
        "rss_peak_mb": max(ctx.rss_mb),
    }
    ctx.facts["rss_mb"] = {"pipeline_runs": peaks, "median_run_and_server": ctx.rss_mb}
    if ctx.trace:
        spans = layers.SpanSet(layers.load_spans(trace_dir))
        ctx.layer.update(layers.from_spans(spans, ctx.workers, len(traced["tasks"])))
        ctx.layer["perf.executor.pool_rebuilds"] = traced["pool_rebuilds"]
        ctx.layer["trace.overhead.wall_frac"] = traced["wall_s"] / metrics["wall_s"] - 1.0
    return metrics
