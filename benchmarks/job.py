"""One megaheat job in a fresh process: ``megaheat all`` over a run directory.

Usage: python3 job.py --run-dir DIR --threads N --result FILE [--spans FILE]

Untraced, it times the in-process call to ``megaheat.cli.main(["all", ...])``.
With ``--spans`` it installs the tracing wrappers and runs the stages one at
a time through ``pipeline.run_stages`` so that each stage gets its own span.
Either way it writes ``{"exit_code", "pipeline_s", "peak_rss_mb"}`` to the
result file; the spans go to their own file.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def peak_rss_mb() -> float:
    """High-water resident set of this process since exec, in MiB."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_traced(run_dir: str, threads: int, spans_path: str) -> float:
    from megaheat import pipeline

    import tracing

    tracer = tracing.Tracer()
    tracer.install()
    cfg = pipeline.load_config({})
    started = time.perf_counter()
    for name in pipeline.STAGE_ORDER:
        with tracer.stage(name):
            pipeline.run_stages(run_dir, cfg, [name], threads=threads)
    elapsed = time.perf_counter() - started
    Path(spans_path).write_text(json.dumps({"spans": tracer.spans, "absent": tracer.absent}))
    return elapsed


def run_untraced(run_dir: str, threads: int) -> tuple[int, float]:
    from megaheat import cli

    started = time.perf_counter()
    code = cli.main(["all", "--out", run_dir, "--threads", str(threads)])
    return code, time.perf_counter() - started


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--threads", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()
    if args.spans:
        # a stage error propagates and fails this process
        code, elapsed = 0, run_traced(args.run_dir, args.threads, args.spans)
    else:
        code, elapsed = run_untraced(args.run_dir, args.threads)
    result = {"exit_code": code, "pipeline_s": elapsed, "peak_rss_mb": peak_rss_mb()}
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
