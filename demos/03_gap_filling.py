"""
Filling record gaps
===================

Two fills live in this package.  Monthly holes are estimated from
neighboring stations with an elevation-aware local regression plus
kriging of its residuals; daily holes are bridged by a weighted moving
average of the clean flanks around the gap.
"""

import datetime as dt

import numpy as np

from megaheat.interpolate import impute_monthly, lwma_fill
from megaheat.series import DailySeries, MonthlySeries, StationMeta

# --- monthly: a nine-station cluster where value = 30 - 0.0065 * elev
rng = np.random.default_rng(42)
stations = [
    StationMeta(f"DEMO{i:07d}", float(rng.uniform(39, 41)), float(rng.uniform(-106, -104)),
                elev=float(rng.uniform(100, 2500)))
    for i in range(9)
]
series = []
for st in stations:
    vals = np.full(60, 30.0 - 0.0065 * st.elev) + rng.normal(0, 0.05, 60)
    series.append(MonthlySeries(st.station_id, "TAVG", 1956, 1, vals))

# punch a hole in station 4, March 1957
victim = series[4]
truth = victim.values[14]
victim.values[14] = np.nan

completed, codes, notes = impute_monthly(series, stations, window=(1956, 1960))
# each series' provenance codes line up with the completed series by position
idx = next(i for i, c in enumerate(completed) if c.station_id == victim.station_id)
filled_series, filled_codes = completed[idx], codes[idx]
got = filled_series.values[filled_series.index_of(1957, 3)]
k = filled_series.index_of(1957, 3)
print(f"monthly fill: truth {truth:.3f}, imputed {got:.3f}")
print("provenance codes around the hole:", "".join(filled_codes[k - 2 : k + 3]), "(i = imputed)")
if notes:
    print("notes:", notes)
print()

# --- daily: a three-day hole needs six clean days on each side
vals = 18.0 + 0.5 * np.arange(15.0)
vals[6:9] = np.nan
daily = DailySeries("DEMO0000004", "TMIN", dt.date(1980, 7, 1), vals)
filled, daily_codes = lwma_fill(daily)
print("daily gap fill:", np.round(filled.values[6:9], 3), "(linear ramp, so ~21.5)")
print("codes:", "".join(daily_codes))
