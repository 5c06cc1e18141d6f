"""
End-to-end run on a synthetic world
===================================

Generates a two-pair station world with a planted +1.5 degree urban
offset, runs every stage, and inspects the outputs the stages left
behind.  Stages communicate only through files, so any of them can be
rerun individually afterwards.  The run directory is a temporary one,
removed when the demo ends.
"""

import json
import tempfile
from pathlib import Path

from megaheat import load_config, run_all
from megaheat.pipeline import F_COMPARISON, F_TREND_CELLS, stage_synth

cfg = load_config(
    {
        "window": [1956, 1975],
        "seed": 20260815,
        "qc": {"daily_min_span_months": 120, "daily_end_cutoff": "1970-01-01"},
        "synth": {
            "n_pairs": 2,
            "uc_stations": 3,
            "nonuc_stations": 4,
            "end_year": 1975,
            "uc_offset_c": 1.5,
            "noise_sd_c": 0.3,
            "gap_rate": 0.01,
        },
    }
)

with tempfile.TemporaryDirectory(prefix="megaheat-demo-") as tmp:
    out = Path(tmp)
    print("working in", out)

    stage_synth(out, cfg)
    timings = run_all(out, cfg)
    print("stage seconds:", {k: round(v, 2) for k, v in timings.items()})
    print()

    # the comparison table answers: are urban medians higher than non-urban?
    rows = (out / F_COMPARISON).read_text().splitlines()
    print(rows[0])
    for row in rows[1:4]:
        print(row)
    directions = [r.split(",")[-1] for r in rows[1:]]
    print(f"... {directions.count('UC-higher')} of {len(directions)} cells say UC-higher")
    print()

    # per-cell trend proportions after the per-station FDR pass
    cells = (out / F_TREND_CELLS).read_text().splitlines()
    print(cells[0])
    print(cells[1])
    print()

    manifest = json.loads((out / "report" / "manifest.json").read_text())
    print("report bundle:", ", ".join(manifest["bundle"]))
    print("config hash:", manifest["config_hash"][:16], "...")
