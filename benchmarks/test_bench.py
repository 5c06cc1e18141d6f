"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest benchmarks/test_bench.py -q

The smoke cases run every workload on its miniature world, with and without
tracing, and check that every metric BENCHMARK.json names is emitted with
its unit and that the output check passes.
"""

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import run
import tracing

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "0", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] == run.MIN_JOBS + (run.TRACED_JOBS if trace else 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == wanted
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def _report(tmp_path, direction="UC-higher"):
    report = tmp_path / "report"
    report.mkdir()
    figs = {"fig2a.csv": run.SEASONAL_CELLS, "fig2c.csv": run.SEASONAL_CELLS,
            "fig3a.csv": run.ANNUAL_CELLS, "fig3b.csv": run.ANNUAL_CELLS,
            "fig4a.csv": run.CORRELATION_ROWS, "fig4b.csv": run.CORRELATION_ROWS}
    for name, rows in figs.items():
        lines = ["pair,metric,season,direction"] + [f"UC00,TMIN,DJF,{direction}"] * rows
        (report / name).write_text("\n".join(lines) + "\n")
    (report / "manifest.json").write_text(json.dumps({"bundle": sorted(figs)}))
    return report


def test_output_check_accepts_a_complete_bundle(tmp_path):
    _report(tmp_path)
    assert run.check_report(tmp_path, n_pairs=1) == []


def test_output_check_rejects_missing_offset_rows_and_tables(tmp_path):
    report = _report(tmp_path, direction="not-significant")
    (report / "fig3b.csv").unlink()
    problems = run.check_report(tmp_path, n_pairs=2)
    assert any("planted UC offset" in p for p in problems)
    assert any("missing report/fig3b.csv" in p for p in problems)
    assert any("fig2a.csv: 6 rows, expected 12" in p for p in problems)


def test_missing_name_is_reported_absent():
    tracer = tracing.Tracer()
    tracer.install([("json", "no_such_function", "x", None), ("no_such_module", "f", "x", None)])
    assert tracer.absent == ["json.no_such_function", "no_such_module.f"]
    assert tracing.layer_metrics([])["stats.rank_covariance_calls"] == 0


def test_spans_from_worker_threads_are_all_recorded():
    tracer = tracing.Tracer()
    n_threads, n_spans = 8, 500

    def work():
        for _ in range(n_spans):
            with tracer.span("outer", "x"):
                with tracer.span("inner", "y"):
                    pass

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.stage("ingest"):
            threads = [threading.Thread(target=work) for _ in range(n_threads)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)

    spans = tracer.spans
    assert len(spans) == 2 * n_threads * n_spans + 1
    assert len({s[tracing.ID] for s in spans}) == len(spans)
    by_id = {s[tracing.ID]: s for s in spans}
    stage_id = next(s[tracing.ID] for s in spans if s[tracing.LABEL] == tracing.STAGE)
    for s in spans:
        if s[tracing.NAME] == "outer":
            assert s[tracing.PARENT] == stage_id
        elif s[tracing.NAME] == "inner":
            parent = by_id[s[tracing.PARENT]]
            assert parent[tracing.NAME] == "outer" and parent[tracing.THREAD] == s[tracing.THREAD]


def test_self_time_subtracts_direct_children():
    spans = [
        [1, None, "impute", "interpolate.impute_monthly", 0, 0.0, 10.0, {}],
        [2, 1, "gwr", "interpolate.gwr", 0, 1.0, 2.0, {"mask": "a"}],
        [3, 1, "vg", "interpolate.variogram", 0, 2.0, 6.0, {}],
        [4, 1, "gwr", "interpolate.gwr", 0, 6.0, 7.0, {"mask": "a"}],
    ]
    m = tracing.layer_metrics(spans)
    assert m["interpolate.impute_monthly_s"] == pytest.approx(4.0)
    assert m["interpolate.variogram_s"] == pytest.approx(4.0)
    assert m["interpolate.timesteps_solved"] == 2
    assert m["interpolate.distinct_masks"] == 1
