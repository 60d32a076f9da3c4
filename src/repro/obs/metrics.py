"""Per-sim-day metrics: the study's own time series, recorded as it runs.

The paper's conclusions are time-series claims (PSR share per day,
campaign lifetimes, intervention response lag), so the pipeline records
its own per-day series while it runs: a :class:`MetricsRecorder` rides as
the *last* simulator observer (after the crawler and orderer have seen
the day) and samples once per simulated day:

* crawl output — new PSRs, active/cumulative doorway domains, stores;
* intervention state — labeled and penalized hosts in the engine;
* hot-path health — SERPs served and content-addressed cache hit rate.

The samples split into two files with different determinism contracts:

* ``metrics.jsonl`` (:data:`METRICS_COLUMNS`) — **deterministic**: every
  column derives from simulation state or exact counter deltas, so the
  file is byte-identical for a seed at any ``--jobs`` level, cached or
  not (pinned in ``tests/test_shardpool.py`` with no column masking).
* ``telemetry.jsonl`` (:data:`TELEMETRY_COLUMNS`) — **timing/host
  gauges**: mean SERP serve µs, shard-pool task/steal/fallback gauges,
  disk-tier hit rate.  These legitimately vary run to run and live in a
  sidecar so they can never contaminate the deterministic artifact.

Storage is columnar (one list per column) so sampling is O(counters) per
day and a column feeds :func:`repro.reporting.sparkline.sparkline_row`
directly.  Both writers emit one JSON row per simulated day with an
optional leading provenance row carrying the run manifest (consumers
skip rows whose ``_type`` is not ``sample``; :meth:`load_jsonl` does).

Recording reads simulation state and never writes it: studies run with a
recorder attached produce byte-identical outputs (``tests/test_obs.py``).
"""

from __future__ import annotations

import json
import warnings
from typing import Dict, List, Optional, Tuple

from repro.util.atomicio import atomic_write
from repro.util.perf import PERF

#: Column order of one metrics row (the JSONL schema, golden-tested).
#: Every column is deterministic for a seed — timing gauges live in
#: :data:`TELEMETRY_COLUMNS` instead.
METRICS_COLUMNS: Tuple[str, ...] = (
    "day",              # ISO sim-date
    "day_index",        # 0-based offset in the study window
    "psrs",             # PSR records added this day
    "psrs_total",       # cumulative PSR records
    "active_doorways",  # distinct doorway hosts in this day's PSRs
    "doorways_seen",    # cumulative distinct doorway hosts
    "stores_seen",      # cumulative distinct landing stores
    "serps_served",     # engine.serp timer calls this day
    "labels_active",    # hosts carrying a SERP warning label
    "penalties_active", # hosts under a ranking penalty
    "cache_hit_rate",   # content-addressed cache hits/(hits+misses) this day
    "faults_injected",  # faults.injected.* counter deltas this day
    "faults_retried",   # fetch attempts retried after a transient fault
    "faults_degraded",  # records dropped/deferred because inputs were damaged
)

#: Column order of one telemetry row: wall-clock and host-dependent
#: gauges, segregated so ``metrics.jsonl`` stays byte-identical across
#: jobs/cache variants.
TELEMETRY_COLUMNS: Tuple[str, ...] = (
    "day",              # ISO sim-date
    "day_index",        # 0-based offset in the study window
    "serp_serve_us",    # mean engine.serp µs this day (0 on a day with no serves)
    "shard_tasks",      # crawl tasks enqueued to the shard pool this day
    "shard_steals",     # work-stealing moves this day
    "shard_fallback",   # 1 when the day fell back to the sequential path
    "disk_hit_rate",    # disk-tier hits/(hits+misses) this day
)


class MetricsRecorder:
    """Simulator observer sampling the per-day study time series."""

    def __init__(self, crawler=None):
        #: The measurement crawler whose dataset is sampled (optional: a
        #: recorder without one still tracks engine/cache/serve columns).
        self.crawler = crawler
        self.columns: Dict[str, List] = {name: [] for name in METRICS_COLUMNS}
        #: Telemetry sidecar columns (timing/host gauges).
        self.telemetry: Dict[str, List] = {
            name: [] for name in TELEMETRY_COLUMNS}
        self._day_index = 0
        self._records_seen = 0
        self._store_hosts: set = set()
        #: Shard-pool ``day_stats`` rows already folded into telemetry.
        self._shard_rows_seen = 0
        # Deltas count from construction, not process start: the PERF
        # registry is process-global and may already carry earlier runs.
        self._serp_base = self._serp_totals()
        self._cache_base = self._cache_totals()
        self._fault_base = self._fault_totals()
        self._disk_base = self._disk_totals()

    def rebase(self) -> None:
        """Re-anchor PERF-delta baselines to the *current* registry totals.

        Called after a checkpoint resume: the recorder's pickled baselines
        refer to the crashed process's counter values, which the fresh
        process never accumulated.  Without rebasing, the first resumed
        day would report huge negative deltas.
        """
        self._serp_base = self._serp_totals()
        self._cache_base = self._cache_totals()
        self._fault_base = self._fault_totals()
        self._disk_base = self._disk_totals()
        # The resumed process's executor starts with an empty day_stats
        # list; stale row counts would make the first delta negative.
        self._shard_rows_seen = 0

    # ------------------------------------------------------------------ #
    # Observer interface
    # ------------------------------------------------------------------ #

    def on_day(self, world, context) -> None:
        day = context.day
        serp_calls, serp_s = self._serp_delta()
        hits, misses = self._cache_delta()
        looked_up = hits + misses
        injected, retried, degraded = self._fault_delta()
        disk_hits, disk_misses = self._disk_delta()
        disk_looked_up = disk_hits + disk_misses
        shard_tasks, shard_steals, shard_fallback = self._shard_delta()

        psrs_today = 0
        active_doorways = 0
        doorways_seen = 0
        stores_seen = 0
        psrs_total = 0
        if self.crawler is not None:
            dataset = self.crawler.dataset
            new_records = dataset.records[self._records_seen:]
            self._records_seen = len(dataset.records)
            psrs_today = len(new_records)
            psrs_total = len(dataset.records)
            active_doorways = len({r.host for r in new_records})
            doorways_seen = dataset.host_count()
            for record in new_records:
                if record.is_store:
                    self._store_hosts.add(record.landing_host)
            stores_seen = len(self._store_hosts)

        row = {
            "day": day.isoformat(),
            "day_index": self._day_index,
            "psrs": psrs_today,
            "psrs_total": psrs_total,
            "active_doorways": active_doorways,
            "doorways_seen": doorways_seen,
            "stores_seen": stores_seen,
            "serps_served": serp_calls,
            "labels_active": len(world.engine.labeled_hosts()),
            "penalties_active": len(world.engine.penalized_hosts()),
            "cache_hit_rate": (hits / looked_up) if looked_up else 0.0,
            "faults_injected": injected,
            "faults_retried": retried,
            "faults_degraded": degraded,
        }
        for name in METRICS_COLUMNS:
            self.columns[name].append(row[name])
        gauges = {
            "day": day.isoformat(),
            "day_index": self._day_index,
            "serp_serve_us": (serp_s / serp_calls * 1e6) if serp_calls else 0.0,
            "shard_tasks": shard_tasks,
            "shard_steals": shard_steals,
            "shard_fallback": shard_fallback,
            "disk_hit_rate": (
                disk_hits / disk_looked_up) if disk_looked_up else 0.0,
        }
        for name in TELEMETRY_COLUMNS:
            self.telemetry[name].append(gauges[name])
        self._day_index += 1

    @staticmethod
    def _serp_totals() -> Tuple[int, float]:
        stat = PERF.timers().get("engine.serp")
        return (stat.calls, stat.total) if stat is not None else (0, 0.0)

    def _serp_delta(self) -> Tuple[int, float]:
        calls, total = self._serp_totals()
        calls0, total0 = self._serp_base
        self._serp_base = (calls, total)
        return calls - calls0, total - total0

    @staticmethod
    def _cache_totals() -> Tuple[int, int]:
        hits = 0
        misses = 0
        for name, value in PERF.counters().items():
            if not name.startswith("cache."):
                continue
            if name.endswith(".hit"):
                hits += value
            elif name.endswith(".miss"):
                misses += value
        return hits, misses

    def _cache_delta(self) -> Tuple[int, int]:
        hits, misses = self._cache_totals()
        hits0, misses0 = self._cache_base
        self._cache_base = (hits, misses)
        return hits - hits0, misses - misses0

    @staticmethod
    def _disk_totals() -> Tuple[int, int]:
        hits = 0
        misses = 0
        for name, value in PERF.counters().items():
            if not name.startswith("cache."):
                continue
            if name.endswith(".disk_hit"):
                hits += value
            elif name.endswith(".disk_miss"):
                misses += value
        return hits, misses

    def _disk_delta(self) -> Tuple[int, int]:
        hits, misses = self._disk_totals()
        hits0, misses0 = self._disk_base
        self._disk_base = (hits, misses)
        return hits - hits0, misses - misses0

    def _shard_delta(self) -> Tuple[int, int, int]:
        """(tasks, steals, fallback-days) from executor day_stats rows
        added since the last sample.  Zeroes on non-crawl days or when no
        executor is attached (analysis-only recorders)."""
        executor = getattr(self.crawler, "_executor", None)
        if executor is None:
            return 0, 0, 0
        rows = executor.day_stats[self._shard_rows_seen:]
        self._shard_rows_seen = len(executor.day_stats)
        tasks = sum(r["tasks"] for r in rows)
        steals = sum(r["steals"] for r in rows)
        fallback = sum(1 for r in rows if r["fallback"])
        return tasks, steals, fallback

    @staticmethod
    def _fault_totals() -> Tuple[int, int, int]:
        injected = 0
        retried = 0
        degraded = 0
        for name, value in PERF.counters().items():
            if name.startswith("faults.injected."):
                injected += value
            elif name == "faults.retried":
                retried += value
            elif name.startswith("faults.degraded."):
                degraded += value
        return injected, retried, degraded

    def _fault_delta(self) -> Tuple[int, int, int]:
        totals = self._fault_totals()
        base = self._fault_base
        self._fault_base = totals
        return tuple(now - then for now, then in zip(totals, base))

    # ------------------------------------------------------------------ #
    # Access / serialization
    # ------------------------------------------------------------------ #

    def __len__(self) -> int:
        return len(self.columns["day"])

    def series(self, name: str) -> List:
        """One column as a list (sparkline-ready); telemetry names work
        too — the column sets are disjoint apart from the day keys."""
        if name in self.columns:
            return list(self.columns[name])
        return list(self.telemetry[name])

    def rows(self) -> List[dict]:
        return [
            {name: self.columns[name][i] for name in METRICS_COLUMNS}
            for i in range(len(self))
        ]

    def telemetry_rows(self) -> List[dict]:
        return [
            {name: self.telemetry[name][i] for name in TELEMETRY_COLUMNS}
            for i in range(len(self.telemetry["day"]))
        ]

    def write_jsonl(self, path: str, manifest: Optional[dict] = None) -> None:
        """One JSON row per simulated day; optional manifest header row."""
        self._write_rows(path, self.rows(), manifest)

    def write_telemetry_jsonl(self, path: str,
                              manifest: Optional[dict] = None) -> None:
        """The timing-gauge sidecar (``telemetry.jsonl``)."""
        self._write_rows(path, self.telemetry_rows(), manifest)

    @staticmethod
    def _write_rows(path: str, rows: List[dict],
                    manifest: Optional[dict]) -> None:
        with atomic_write(path) as handle:
            if manifest is not None:
                handle.write(json.dumps(
                    {"_type": "manifest", **manifest}, sort_keys=True))
                handle.write("\n")
            for row in rows:
                handle.write(json.dumps({"_type": "sample", **row},
                                        sort_keys=True))
                handle.write("\n")

    @staticmethod
    def load_jsonl(path: str) -> Tuple[Optional[dict], List[dict]]:
        """(manifest or None, sample rows) from a metrics/telemetry file."""
        manifest: Optional[dict] = None
        rows: List[dict] = []
        with open(path) as handle:
            lines = handle.readlines()
        for lineno, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                if lineno == len(lines) - 1:
                    # A crash mid-write leaves at most one torn final line;
                    # tolerate it rather than losing the whole series.
                    warnings.warn(
                        f"{path}: skipping torn final line ({len(line)} bytes)",
                        RuntimeWarning, stacklevel=2,
                    )
                    break
                raise
            kind = payload.pop("_type", "sample")
            if kind == "manifest":
                manifest = payload
            elif kind == "sample":
                rows.append(payload)
        return manifest, rows

    def render_sparklines(self, width: int = 60) -> str:
        """The key deterministic series as terminal sparklines."""
        from repro.reporting.sparkline import sparkline_row

        lines = [f"Per-sim-day metrics ({len(self)} days)"]
        for name in ("psrs", "active_doorways", "labels_active",
                     "penalties_active", "serps_served"):
            lines.append(sparkline_row(
                name, [float(v) for v in self.columns[name]],
                width=width, as_percent=False,
            ))
        lines.append(sparkline_row(
            "cache_hit_rate", [float(v) for v in self.columns["cache_hit_rate"]],
            width=width, as_percent=True,
        ))
        return "\n".join(lines)

    def render_telemetry_sparklines(self, width: int = 60) -> str:
        """The timing/shard/disk gauges as terminal sparklines."""
        from repro.reporting.sparkline import sparkline_row

        days = len(self.telemetry["day"])
        lines = [f"Per-sim-day telemetry ({days} days)"]
        for name in ("serp_serve_us", "shard_tasks", "shard_steals",
                     "shard_fallback"):
            lines.append(sparkline_row(
                name, [float(v) for v in self.telemetry[name]],
                width=width, as_percent=False,
            ))
        lines.append(sparkline_row(
            "disk_hit_rate",
            [float(v) for v in self.telemetry["disk_hit_rate"]],
            width=width, as_percent=True,
        ))
        return "\n".join(lines)
