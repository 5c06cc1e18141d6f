"""
Rank-correlation matrices against pair covariates
=================================================

Given per-pair metric summaries and a table of explanatory variables
(population, land use, elevation), the correlation step builds two
Spearman matrices: one over the urban values themselves and one over the
urban-minus-nonurban differences.  Here the summaries are wired so that
one covariate should correlate perfectly and the rest should not.
"""

import csv
import sys

import numpy as np

from megaheat.pipeline import CORRELATION_HEADER, correlation_rows, rank_correlation_matrices
from megaheat.regions import ExplanatoryVars

rng = np.random.default_rng(3)
pair_ids = tuple(f"UC{i:02d}" for i in range(11))

covariates = {}
for i, pid in enumerate(pair_ids):
    covariates[pid] = ExplanatoryVars(
        uc_id=pid,
        cr_id=f"CR{i:02d}",
        pop_uc=float(rng.uniform(2e5, 3e6)),
        pop_diff=float(rng.uniform(1e5, 2e6)),
        pop_pct_change_uc=float(rng.uniform(-5, 60)),
        pop_diff_pct_change=float(rng.uniform(-5, 60)),
        pct_urban=float(rng.uniform(40, 95)),
        pct_cropland=float(rng.uniform(0, 40)),
        mean_elev=float(rng.uniform(10, 2000)),
        elev_range=float(rng.uniform(5, 800)),
    )

# medians follow a lapse rate, so mean_elev should come out at rho = -1;
# slopes are pure noise, so nothing should reach significance there
summaries = {}
for pid in pair_ids:
    elev = covariates[pid].mean_elev
    median = 24.0 - 0.0065 * elev
    summaries[(pid, "TAVG", "JJA")] = {
        "uc_median": median,
        "uc_slope": float(rng.normal(0, 0.01)),
        "diff_median": median * 0.1,
        "diff_slope": float(rng.normal(0, 0.01)),
    }

m_uc, m_diff = rank_correlation_matrices(
    pair_ids, summaries, covariates, metrics=("TAVG",), seasons=("JJA",)
)

i_median = m_uc.rows.index(("TAVG", "JJA", "median"))
j_elev = m_uc.columns.index("mean_elev")
print(f"median vs mean_elev: rho = {m_uc.rho[i_median, j_elev]:+.2f} "
      f"(p = {m_uc.p[i_median, j_elev]:.1e})")

strong = [
    (row, col, m_uc.rho[i, j])
    for i, row in enumerate(m_uc.rows)
    for j, col in enumerate(m_uc.columns)
    if np.isfinite(m_uc.rho[i, j]) and abs(m_uc.rho[i, j]) > 0.75
]
print("cells with |rho| > 0.75:", [(r[2], c, round(float(v), 2)) for r, c, v in strong])
print()
print("the same matrices render to CSV for the report bundle:")
csv.writer(sys.stdout, lineterminator="\n").writerows([CORRELATION_HEADER] + correlation_rows(m_uc)[:3])
