"""Run one benchmark workload with one seed; print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-ram --seed 0 --seconds 24 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs with spans around each layer and prints the
per-layer metrics instead.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the machine and configuration.  The exit code is 0
when every output matched its oracle, 1 when one did not, and 2 when
the run could not be made at all.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sqlite3  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def source_digest() -> str:
    """sha256 over every ``src/**/*.py`` (the checkout may not be a git repo)."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine_record(ctx) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "workers_used": ctx.facts.get("workers_used"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", default="small", choices=("small", "tiny"),
        help="corpus scale (tiny: smoke tests only)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(SRC)]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench import workloads

    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    # Temporary files of this process and its children (SQLite's too)
    # stay inside the checkout.
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = None
    ctx = workloads.Context(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        src=SRC,
        work=work,
        started=STARTED,
    )
    try:
        end_to_end = workloads.run_workload(ctx)
    except Exception:
        traceback.print_exc()
        for problem in ctx.problems:
            print(f"problem: {problem}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    chosen = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = ctx.layer if args.trace else end_to_end
    missing = [m["name"] for m in chosen if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 2
    correct = not ctx.problems and ctx.tally.failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "corpus_seed": workloads.CORPUS_SEED,
        "scale": args.scale,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "machine": machine_record(ctx),
        "error_rate": ctx.tally.error_rate,
        "facts": ctx.facts,
        "problems": ctx.problems,
    }
    print(json.dumps({"record": record}, default=float))
    for problem in ctx.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ctx.tally.attempted,
                "failed": ctx.tally.failed,
                "metrics": {
                    m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
                    for m in chosen
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
