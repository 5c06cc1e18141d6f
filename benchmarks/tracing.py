"""Spans around the calls into each megaheat layer, and the layer metrics
derived from them.

The wrappers are installed on the module attributes that callers look
up at call time (``megaheat.pipeline.parse_ghcnd``,
``megaheat.stats.rank_covariance`` and so on), so the program itself is
not edited.  Each span records its name, start, end, the thread it ran
on, the span that caused it, and any per-call counts.  Worker threads
start with an empty span stack; their spans take the current stage span
as parent, since stages run one at a time.

A name that a later refactor removes is listed in ``Tracer.absent`` and
its metrics read zero; installing never raises for a missing name.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import itertools
import threading
import time


def _nbytes(value) -> int:
    return len(value) if isinstance(value, (bytes, bytearray, memoryview)) else 0


def _parse_counts(args, kwargs, result):
    return {"bytes": _nbytes(args[0] if args else kwargs.get("source"))}


def _serialize_counts(args, kwargs, result):
    return {"bytes": _nbytes(result)}


def _filter_counts(args, kwargs, result):
    return {"series_in": len(args[0] if args else kwargs["series"]), "series_kept": len(result[0])}


def _gwr_counts(args, kwargs, result):
    # the training and target sites fix the per-timestep geometry; a
    # per-mask cache can reuse it only when this key repeats
    train = args[0] if args else kwargs["train"]
    targets = args[1] if len(args) > 1 else kwargs["targets"]
    key = hashlib.blake2b(digest_size=8)
    for array in (train[:, :3], targets):
        key.update(memoryview(array.copy(order="C")).cast("B"))
    return {"mask": key.hexdigest()}


# (module, attribute, layer label, per-call counter or None)
WRAPPED = (
    ("megaheat.pipeline", "parse_ghcnd", "ghcn.parse", _parse_counts),
    ("megaheat.pipeline", "parse_ghcnm", "ghcn.parse", _parse_counts),
    ("megaheat.pipeline", "parse_stations", "ghcn.parse", _parse_counts),
    ("megaheat.pipeline", "serialize_ghcnd", "ghcn.serialize", _serialize_counts),
    ("megaheat.pipeline", "serialize_ghcnm", "ghcn.serialize", _serialize_counts),
    ("megaheat.pipeline", "load_regions", "regions", None),
    ("megaheat.pipeline", "pair_uc_nonuc", "regions", None),
    ("megaheat.pipeline", "load_explanatory_vars", "regions", None),
    ("megaheat.pipeline", "filter_monthly_stations", "qc.filter", _filter_counts),
    ("megaheat.pipeline", "filter_daily_stations", "qc.filter", _filter_counts),
    ("megaheat.pipeline", "impute_monthly", "interpolate.impute_monthly", None),
    ("megaheat.pipeline", "lwma_fill", "interpolate.lwma", None),
    ("megaheat.interpolate", "gwr_fit_predict", "interpolate.gwr", _gwr_counts),
    ("megaheat.interpolate", "fit_variogram", "interpolate.variogram", None),
    ("megaheat.interpolate", "ordinary_krige", "interpolate.krige", None),
    ("megaheat.indices", "seasonal_means", "indices.seasonal", None),
    ("megaheat.indices", "seasonal_annual_series", "indices.seasonal", None),
    ("megaheat.indices", "annual_cdd", "indices.heat", None),
    ("megaheat.indices", "annual_cnm", "indices.heat", None),
    ("megaheat.indices", "annual_p95", "indices.heat", None),
    ("megaheat.indices", "regional_annual_series", "indices.regional", None),
    ("megaheat.stats", "mann_kendall", "stats.mann_kendall", None),
    ("megaheat.stats", "regional_mann_kendall", "stats.regional_mk", None),
    ("megaheat.stats", "rank_covariance", "stats.rank_covariance", None),
    ("megaheat.stats", "wilcoxon_ranksum", "stats.test", None),
    ("megaheat.stats", "spearman", "stats.test", None),
    ("megaheat.stats", "theil_sen", "stats.test", None),
    ("megaheat.stats", "by_fdr_adjust", "stats.test", None),
    ("megaheat.stats", "equal_proportions_test", "stats.test", None),
)

STAGE = "stage"

# span record layout, kept as a list so thousands of spans stay cheap
ID, PARENT, NAME, LABEL, THREAD, START, END, COUNTS = range(8)


class Tracer:
    """In-memory span recorder shared by every thread of one traced job."""

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage_id = None
        self.spans: list[list] = []
        self.absent: list[str] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, label: str):
        stack = self._stack()
        with self._lock:
            span_id = next(self._ids)
        parent = stack[-1] if stack else self._stage_id
        counts: dict = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            record = [span_id, parent, name, label, threading.get_ident(), start, end, counts]
            with self._lock:
                self.spans.append(record)

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span for one pipeline stage; worker-thread spans hang below it."""
        with self.span(name, STAGE):
            self._stage_id = self._stack()[-1]
            try:
                yield
            finally:
                self._stage_id = None

    def wrap(self, name: str, label: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, label) as counts:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts.update(counter(args, kwargs, result))
                return result

        return traced

    def install(self, wrapped=WRAPPED) -> None:
        """Replace every listed name that exists with its traced form."""
        for module_name, attr, label, counter in wrapped:
            qualified = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(qualified)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(qualified)
                continue
            setattr(module, attr, self.wrap(qualified, label, fn, counter))


def _duration(span) -> float:
    return span[END] - span[START]


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Summed busy time, self time, calls and counts per layer.

    Busy time adds span durations, so under worker threads it can exceed
    the stage's wall time.  Self time subtracts the durations of a span's
    direct children.  ``stats.tests_s`` counts only test calls made by the
    pipeline itself; those made inside ``mann_kendall`` (its Sen slope)
    are already part of ``stats.mann_kendall_s``.
    """
    by_id = {s[ID]: s for s in spans}
    child_time: dict[int, float] = {}
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] = child_time.get(s[PARENT], 0.0) + _duration(s)

    def spans_of(label):
        return [s for s in spans if s[LABEL] == label]

    def busy(label):
        return sum(_duration(s) for s in spans_of(label))

    def self_time(label):
        return sum(_duration(s) - child_time.get(s[ID], 0.0) for s in spans_of(label))

    def calls(label):
        return len(spans_of(label))

    def total(label, key):
        return sum(s[COUNTS].get(key, 0) for s in spans_of(label))

    tests_from_stages = [
        s for s in spans_of("stats.test")
        if s[PARENT] in by_id and by_id[s[PARENT]][LABEL] == STAGE
    ]
    return {
        "ghcn.parse_s": busy("ghcn.parse"),
        "ghcn.parse_calls": calls("ghcn.parse"),
        "ghcn.parse_bytes": total("ghcn.parse", "bytes"),
        "ghcn.serialize_s": busy("ghcn.serialize"),
        "ghcn.serialize_bytes": total("ghcn.serialize", "bytes"),
        "regions.s": busy("regions"),
        "qc.filter_s": busy("qc.filter"),
        "qc.series_in": total("qc.filter", "series_in"),
        "qc.series_kept": total("qc.filter", "series_kept"),
        "interpolate.impute_monthly_s": self_time("interpolate.impute_monthly"),
        "interpolate.timesteps_solved": calls("interpolate.gwr"),
        "interpolate.distinct_masks": len({s[COUNTS]["mask"] for s in spans_of("interpolate.gwr")}),
        "interpolate.gwr_s": busy("interpolate.gwr"),
        "interpolate.variogram_s": busy("interpolate.variogram"),
        "interpolate.variogram_calls": calls("interpolate.variogram"),
        "interpolate.krige_s": busy("interpolate.krige"),
        "interpolate.lwma_s": busy("interpolate.lwma"),
        "interpolate.lwma_calls": calls("interpolate.lwma"),
        "indices.seasonal_s": busy("indices.seasonal"),
        "indices.heat_s": busy("indices.heat"),
        "indices.heat_calls": calls("indices.heat"),
        "indices.regional_s": busy("indices.regional"),
        "stats.mann_kendall_s": busy("stats.mann_kendall"),
        "stats.mann_kendall_calls": calls("stats.mann_kendall"),
        "stats.regional_mk_s": self_time("stats.regional_mk"),
        "stats.rank_covariance_s": busy("stats.rank_covariance"),
        "stats.rank_covariance_calls": calls("stats.rank_covariance"),
        "stats.tests_s": sum(_duration(s) for s in tests_from_stages),
    }
