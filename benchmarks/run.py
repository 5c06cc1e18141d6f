"""megaheat benchmark: raw station records to a complete report bundle.

Usage:
    python3 benchmarks/run.py --workload {dense,gappy} --seed N
                              --seconds S --trace {0,1} [--smoke]

Closed loop, one client: each job is one ``megaheat all --threads 2`` in a
fresh child process over a fresh run directory holding only the five input
files; the next job starts when the previous one has finished.  Set-up
(generating and writing the seeded world) runs in this process, five
times, before any job.  Jobs repeat for ``--seconds`` (at least three).

Every job is checked: exit code 0, all six ``report/fig*.csv`` tables and
``manifest.json`` present with the row counts the world implies, the
planted urban offset recovered (every seasonal ``fig2a`` row reads
``UC-higher``), and the ``report/`` bundle byte-identical across jobs.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the same
untraced jobs and then two traced jobs, and prints the per-layer metrics.
Count metrics must repeat exactly across jobs, or the benchmark exits 1.
``--smoke`` swaps each world for a miniature of the same shape.

The last line of standard output is the result object; the line before it
records the environment and the input size.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

THREADS = 2
SETUP_REPEATS = 5
MIN_JOBS = 3
TRACED_JOBS = 2
BUDGET_S = 165.0  # the whole run must end within 180 s

INPUT_FILES = ("ghcnd.dly", "ghcnm.dat", "stations.txt", "regions.json", "covariates.csv")

# planted in every world: UC stations run 1 C warmer and warm 0.02 C/yr faster
# than their region, against 2 C station noise; seed code recovers it with
# Wilcoxon p far below 0.05 on every workload
_PLANTED = {"noise_sd_c": 2.0, "uc_offset_c": 1.0, "uc_trend_c_per_yr": 0.02}

WORKLOADS = {
    "dense": {
        # a handful of single-step gaps, so the kriging layers report a
        # measured near-zero time rather than a structural zero
        "world": {"n_pairs": 1, "uc_stations": 20, "nonuc_stations": 20, "gap_rate": 7e-5, "gap_mean_len_steps": 1.0},
        "smoke": {"n_pairs": 1, "uc_stations": 5, "nonuc_stations": 5, "gap_rate": 2e-4, "gap_mean_len_steps": 1.0},
    },
    "gappy": {
        "world": {"n_pairs": 6, "uc_stations": 2, "nonuc_stations": 2, "gap_rate": 0.012, "gap_mean_len_steps": 1.0},
        "smoke": {"n_pairs": 1, "uc_stations": 4, "nonuc_stations": 4, "gap_rate": 0.008, "gap_mean_len_steps": 1.0},
    },
}

# rows per report table under the default config: 3 seasonal metrics x 2
# seasons and 3 annual indices per pair; the correlation matrices have
# (6 + 3) cells x 2 summary stats rows against 8 covariates
SEASONAL_CELLS = 6
ANNUAL_CELLS = 3
CORRELATION_ROWS = (SEASONAL_CELLS + ANNUAL_CELLS) * 2 * 8

STAGES = ("ingest", "qc", "impute", "indices", "trends", "compare", "correlate", "report")


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


def _import_megaheat():
    if not (SRC / "megaheat" / "__init__.py").is_file():
        raise BenchError(f"no megaheat sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import megaheat

    if Path(megaheat.__file__).resolve().parent != (SRC / "megaheat").resolve():
        raise BenchError(f"imported megaheat from {megaheat.__file__}, not from {SRC}")


def setup_world(workload: str, seed: int, smoke: bool, work: Path) -> tuple[Path, list[float], dict]:
    """Generate and write the world SETUP_REPEATS times; keep the last copy."""
    from megaheat.synth import SynthParams, synth_generate, write_world

    spec = WORKLOADS[workload]
    params = SynthParams(**(spec["smoke"] if smoke else spec["world"]), **_PLANTED)
    times = []
    world_dir = None
    for i in range(SETUP_REPEATS):
        if world_dir is not None:
            shutil.rmtree(world_dir)
        world_dir = work / f"world{i}"
        started = time.perf_counter()
        world = synth_generate(seed, params)
        write_world(world, world_dir)
        times.append(time.perf_counter() - started)
    size = {
        "synth_params": dataclasses.asdict(params),
        "stations": len(world.stations),
        "daily_values": int(sum(np.isfinite(s.values).sum() for s in world.daily)),
        "monthly_values": int(sum(np.isfinite(s.values).sum() for s in world.monthly)),
        "input_bytes": sum((world_dir / name).stat().st_size for name in INPUT_FILES),
    }
    return world_dir, times, size


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def check_report(run_dir: Path, n_pairs: int) -> list[str]:
    """Problems with one job's report bundle; empty when it is correct."""
    report = run_dir / "report"
    expected = {
        "fig2a.csv": SEASONAL_CELLS * n_pairs,
        "fig2c.csv": SEASONAL_CELLS * n_pairs,
        "fig3a.csv": ANNUAL_CELLS * n_pairs,
        "fig3b.csv": ANNUAL_CELLS * n_pairs,
        "fig4a.csv": CORRELATION_ROWS,
        "fig4b.csv": CORRELATION_ROWS,
    }
    problems = []
    for name, rows in expected.items():
        path = report / name
        if not path.is_file():
            problems.append(f"missing report/{name}")
            continue
        got = len(_csv_rows(path)) - 1
        if got != rows:
            problems.append(f"report/{name}: {got} rows, expected {rows}")
    manifest = report / "manifest.json"
    if not manifest.is_file():
        problems.append("missing report/manifest.json")
    elif sorted(json.loads(manifest.read_text()).get("bundle", [])) != sorted(expected):
        problems.append("manifest.json does not list the six figure tables")
    fig2a = _csv_rows(report / "fig2a.csv") if (report / "fig2a.csv").is_file() else []
    if fig2a and "direction" in fig2a[0]:
        col = fig2a[0].index("direction")
        wrong = [r[:3] for r in fig2a[1:] if r[col:col + 1] != ["UC-higher"]]
        if wrong:
            problems.append(f"planted UC offset not recovered in fig2a rows {wrong}")
    elif fig2a:
        problems.append("report/fig2a.csv has no direction column")
    return problems


def intermediate_bytes(run_dir: Path) -> int:
    """Bytes the stages left outside report/, the inputs and timings.json."""
    skip = set(INPUT_FILES) | {"timings.json"}
    return sum(
        p.stat().st_size
        for p in run_dir.rglob("*")
        if p.is_file() and p.relative_to(run_dir).parts[0] not in skip | {"report"}
    )


@dataclasses.dataclass
class Job:
    ok: bool
    problems: list
    pipeline_s: float = float("nan")
    peak_rss_mb: float = float("nan")
    stage_s: dict = dataclasses.field(default_factory=dict)
    digest: str = ""
    counts: dict = dataclasses.field(default_factory=dict)
    spans: dict | None = None


def run_job(world_dir: Path, work: Path, index: int, n_pairs: int, traced: bool, timeout: float) -> Job:
    run_dir = work / f"job{index}"
    run_dir.mkdir()
    for name in INPUT_FILES:
        shutil.copyfile(world_dir / name, run_dir / name)
    result_path = work / f"job{index}.result.json"
    spans_path = work / f"job{index}.spans.json"
    cmd = [sys.executable, str(HERE / "job.py"), "--run-dir", str(run_dir),
           "--threads", str(THREADS), "--result", str(result_path)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir)
        return Job(False, [f"job timed out after {timeout:.0f} s"])
    try:
        if proc.returncode != 0 or not result_path.is_file():
            tail = (proc.stderr or proc.stdout).strip().splitlines()[-3:]
            return Job(False, [f"job process exited {proc.returncode}: {' | '.join(tail)}"])
        result = json.loads(result_path.read_text())
        job = Job(True, [], result["pipeline_s"], result["peak_rss_mb"])
        if result["exit_code"] != 0:
            job.problems.append(f"megaheat all exited {result['exit_code']}: {proc.stderr.strip()}")
        else:
            job.problems += check_report(run_dir, n_pairs)
        if (run_dir / "report").is_dir():
            job.digest = _tree_digest(run_dir / "report")
        timings = run_dir / "timings.json"
        if timings.is_file():
            job.stage_s = json.loads(timings.read_text())
        notes = run_dir / "trend_notes.txt"
        job.counts = {
            "pipeline.intermediate_bytes": intermediate_bytes(run_dir),
            "stats.no_overlap_flags": (
                notes.read_text().count("no overlapping years") if notes.is_file() else 0
            ),
        }
        if traced:
            job.spans = json.loads(spans_path.read_text())
        job.ok = not job.problems
        return job
    finally:
        shutil.rmtree(run_dir)


def _check_repeats(per_job: list[dict], names) -> None:
    """Count metrics must repeat exactly across the jobs of one seed."""
    for name in names:
        seen = {counts.get(name) for counts in per_job}
        if len(seen) > 1:
            raise BenchError(f"count {name} differs between jobs of one seed: {sorted(map(str, seen))}")


def _median(values) -> float:
    values = [v for v in values if not math.isnan(v)]
    if not values:
        raise BenchError("no job produced a measurement")
    return statistics.median(values)


def per_layer_metrics(good: list[Job], traced: list[Job]) -> dict:
    per_job = [tracing.layer_metrics(job.spans["spans"]) | job.counts for job in traced]
    _check_repeats(per_job, [name for name in per_job[0] if unit_of(name) in ("count", "bytes")])
    # a stage a later refactor renames reads 0, like an absent wrapped name
    out = {f"stage.{name}_s": _median([j.stage_s.get(name, 0.0) for j in good]) for name in STAGES}
    for name in per_job[0]:
        out[name] = _median([m[name] for m in per_job])
    untraced_s = _median([j.pipeline_s for j in good])
    out["trace.overhead_frac"] = _median([j.pipeline_s for j in traced]) / untraced_s - 1.0
    return out


def unit_of(name: str) -> str:
    if name.endswith("_s") or name == "regions.s":
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("_mb"):
        return "MiB"
    return "count"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": THREADS,
    }


def bench(args, work: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    world_dir, setup_times, size = setup_world(args.workload, args.seed, args.smoke, work)
    n_pairs = size["synth_params"]["n_pairs"]

    def remaining() -> float:
        return BUDGET_S - (time.perf_counter() - started)

    # after MIN_JOBS, a job starts only if a job as long as the last one
    # still ends within --seconds, so a run measures at most that long
    jobs: list[Job] = []
    loop_start = time.perf_counter()
    last_wall = 0.0
    while len(jobs) < MIN_JOBS or time.perf_counter() - loop_start + last_wall <= args.seconds:
        if jobs and remaining() < 2.0 * last_wall:
            break
        job_start = time.perf_counter()
        jobs.append(run_job(world_dir, work, len(jobs), n_pairs, False, max(remaining(), 1.0)))
        last_wall = time.perf_counter() - job_start
        if math.isnan(jobs[-1].pipeline_s):
            break  # the job process itself failed; repeating it will not help
    traced: list[Job] = []
    if args.trace:
        for _ in range(TRACED_JOBS):
            traced.append(
                run_job(world_dir, work, len(jobs) + len(traced), n_pairs, True, max(remaining(), 1.0))
            )

    # every bundle must match the first good one byte for byte
    all_jobs = jobs + traced
    reference = next((j.digest for j in all_jobs if j.ok), "")
    for job in all_jobs:
        if job.ok and job.digest != reference:
            job.ok = False
            job.problems.append("report/ differs from the first job of this seed")
    for i, job in enumerate(all_jobs):
        for problem in job.problems:
            print(f"job {i}: {problem}", file=sys.stderr)

    good = [j for j in jobs if j.ok]
    _check_repeats([j.counts for j in good], ("pipeline.intermediate_bytes", "stats.no_overlap_flags"))
    if args.trace:
        finished = [j for j in traced if j.spans is not None]
        if not finished:
            raise BenchError("no traced job finished")
        metrics = per_layer_metrics(good, finished)
    else:
        metrics = {
            "pipeline_s": _median([j.pipeline_s for j in good]),
            "peak_rss_mb": _median([j.peak_rss_mb for j in good]),
            "setup_s": statistics.median(setup_times),
        }
    failed = sum(not j.ok for j in all_jobs)
    result = {
        "correct": failed == 0,
        "attempted": len(all_jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "input": size,
        "setup_s_samples": setup_times,
        "pipeline_s_samples": [j.pipeline_s for j in jobs],
        "peak_rss_mb_samples": [j.peak_rss_mb for j in jobs],
        "report_digest": reference,
        "absent_wrapped_names": sorted({n for j in traced for n in j.spans["absent"]}),
    }
    return result, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="miniature worlds of the same shape")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    # SIGTERM unwinds like an error: subprocess.run kills and reaps the
    # running job, and the work directory is removed below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = WORK / f"{args.workload}-{os.getpid()}"
    try:
        _import_megaheat()
        work.mkdir(parents=True)
        result, info = bench(args, work)
    except BenchError as exc:
        print(f"benchmark: error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
