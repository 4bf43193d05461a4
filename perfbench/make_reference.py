"""Regenerate ``reference_digests.json``: artifact sha256s per scale.

The pipeline oracle compares every run against these digests.  They
are a pure function of the experiment config, so they only change when
a change deliberately alters artifact bytes.  At ``small`` scale they
must equal ``BENCH_PR2.json``'s ``artifact_sha256``.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

It regenerates every scale of ``workloads.TRAFFIC``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.workloads import CORPUS_SEED, HERE, TRAFFIC, spawn_pipeline  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    table: dict[str, dict[str, str]] = {}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    for scale in TRAFFIC:
        work = Path(tempfile.mkdtemp(prefix="ref-", dir=ROOT / ".perfbench_work"))
        try:
            result = spawn_pipeline(
                ROOT / "src",
                {"scale": scale, "seed": CORPUS_SEED, **TRAFFIC[scale]},
                2,
                work / "run",
                work / "cache",
                work / "journal",
            )
        finally:
            shutil.rmtree(work, ignore_errors=True)
        if result["failures"] or result["skipped"]:
            raise SystemExit(f"{scale}: run failed: {result['failures']}")
        table[scale] = {
            name: digest
            for name, digest in result["digests"].items()
            if name != "manifest.json"
        }
        print(f"{scale}: {len(table[scale])} artifacts")
    path = HERE / "reference_digests.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
