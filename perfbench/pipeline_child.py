"""One ``run_everything_with_report`` call in a fresh interpreter.

Each pipeline measurement runs in its own process so that nothing one
run memoised (imported modules aside) carries into the next, and so
the process's peak RSS and that of its pool workers belong to that run
alone.  The parent passes its ``perf_counter`` reading at spawn; on
Linux that clock is system-wide, so the child can report how long
interpreter start and imports took.

Usage (from the benchmark, not by hand)::

    python3 perfbench/pipeline_child.py SPEC.json RESULT.json
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import resource
import sys
import time
from pathlib import Path


def _vm_hwm_mb() -> float:
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1]) / 1024.0
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _reap_children(limit_s: float = 20.0) -> None:
    """Wait until the executor's pool workers have exited and been reaped."""
    deadline = time.monotonic() + limit_s
    while multiprocessing.active_children() and time.monotonic() < deadline:
        time.sleep(0.02)


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every artifact file in a run directory, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.iterdir())
        if path.is_file()
    }


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from repro.pipeline.config import ExecutionSettings, ExperimentConfig
    from repro.pipeline.runall import run_everything_with_report

    tracer = None
    if spec.get("trace_dir"):
        sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
        from perfbench.tracing import Tracer

        tracer = Tracer(spec["trace_dir"])
        tracer.install_pipeline()
    config = ExperimentConfig(**spec["config"])
    settings = ExecutionSettings(
        workers=spec["workers"],
        use_cache=True,
        cache_dir=spec["cache_dir"],
        journal_dir=spec["journal_dir"],
    )
    ready = time.perf_counter()
    written, report = run_everything_with_report(
        spec["out"], config, verbose=False, settings=settings
    )
    wall = time.perf_counter() - ready
    _reap_children()
    if tracer is not None:
        tracer.flush()
    result = {
        "startup_s": ready - spec["spawned_at"],
        "wall_s": wall,
        "workers_used": report.workers,
        "artifacts": len(written),
        "tasks": [t.as_dict() for t in report.timings],
        "failures": report.failures,
        "skipped": report.skipped,
        "pool_rebuilds": report.pool_rebuilds,
        "degraded": report.degraded,
        "cache": report.cache.as_dict(),
        "digests": digests(Path(spec["out"])),
        "rss_self_mb": _vm_hwm_mb(),
        "rss_children_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0 if report.ok else 3


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
