"""Metric names, units, and how each is derived from a run's reps."""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from spans import ROOT, layer_of

#: (name, unit, better) of the end-to-end metrics, reported untraced.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("written_mb", "MB", "lower"),
    ("pass_share", "share", "higher"),
)

#: Layers whose self times, with ``unattributed_s``, add up to the traced
#: wall time (the driver process's timeline).
LAYERS = (
    "cli", "analysis", "study", "ecosystem", "seo", "interventions", "search",
    "crawler", "web", "html", "orders", "classify", "perf.diskcache",
    "perf.shardpool", "faults.checkpoint", "ablations",
)

CACHES = ("dom", "render", "shingle", "features", "notice")

_S, _N, _R = "s", "count", "ratio"
#: (name, unit, better) of the per-layer metrics, reported by a traced run.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("search.serp_s", _S, "lower"), ("search.serp_calls", _N, "lower"),
    ("search.columns_s", _S, "lower"), ("search.columns_calls", _N, "lower"),
    ("search.memo_hit_ratio", _R, "higher"),
    ("ecosystem.build_s", _S, "lower"), ("ecosystem.day_self_s", _S, "lower"),
    ("ecosystem.day_ms_p50", "ms", "lower"), ("ecosystem.day_ms_p95", "ms", "lower"),
    ("seo.campaign_day_s", _S, "lower"), ("interventions.day_s", _S, "lower"),
    ("crawler.day_s", _S, "lower"), ("crawler.dagger_s", _S, "lower"),
    ("crawler.vangogh_s", _S, "lower"),
    ("web.fetch_s", _S, "lower"), ("web.fetch_calls", _N, "lower"),
    ("web.render_s", _S, "lower"), ("web.render_calls", _N, "lower"),
    ("html.parse_s", _S, "lower"), ("html.parse_calls", _N, "lower"),
    ("orders.day_s", _S, "lower"),
    ("classify.features_s", _S, "lower"), ("classify.fit_s", _S, "lower"),
    ("classify.fit_calls", _N, "lower"), ("classify.refine_self_s", _S, "lower"),
    ("classify.attribute_s", _S, "lower"),
    *((f"perf.cache.{c}.hit_ratio", _R, "higher") for c in CACHES),
    ("perf.diskcache.load_s", _S, "lower"), ("perf.diskcache.load_calls", _N, "lower"),
    ("perf.diskcache.hit_ratio", _R, "higher"),
    ("perf.diskcache.store_s", _S, "lower"), ("perf.diskcache.store_calls", _N, "lower"),
    ("perf.diskcache.setup_store_s", _S, "lower"),
    ("perf.diskcache.setup_store_calls", _N, "lower"),
    ("perf.shardpool.overhead_s", _S, "lower"),
    ("faults.checkpoint.save_s", _S, "lower"), ("faults.checkpoint.save_calls", _N, "lower"),
    ("faults.checkpoint.load_s", _S, "lower"), ("faults.checkpoint.delta_ratio", _R, "lower"),
    ("ablations.variant_s", _S, "lower"), ("ablations.pool_efficiency", _R, "higher"),
    ("ablations.straggler_s", _S, "lower"),
    ("gc.pause_s", _S, "lower"), ("gc.collections", _N, "lower"),
    ("analysis.tables_s", _S, "lower"), ("cli.artifacts_s", _S, "lower"),
    ("proc.import_s", _S, "lower"), ("proc.cpu_s", _S, "lower"),
    ("trace.wall_s", _S, "lower"), ("trace.overhead_s", _S, "lower"),
    *((f"{layer}.self_s", _S, "lower") for layer in LAYERS),
    ("unattributed_s", _S, "lower"),
    ("fail_share", "share", "lower"),
)

UNITS: Dict[str, str] = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}


def _metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def end_to_end(workload, reps) -> Dict[str, dict]:
    good = [r for r in reps if r.ok] or reps
    failed = sum(1 for r in reps if not r.ok)
    return {
        "wall_s": _metric("wall_s", statistics.median(r.wall_s for r in good)),
        "setup_s": _metric("setup_s", workload.setup_s(good)),
        "peak_rss_mb": _metric("peak_rss_mb", statistics.median(r.peak_rss_mb for r in good)),
        "written_mb": _metric("written_mb", statistics.median(r.written_mb for r in good)),
        "pass_share": _metric("pass_share", (len(reps) - failed) / len(reps)),
    }


def _merged(legs) -> Dict[str, dict]:
    """Span aggregates of every leg of a rep, local and forwarded."""
    rows: Dict[str, dict] = {}
    for leg in legs:
        for source in ("layers_local", "layers_forwarded"):
            for name, row in leg.result.get(source, {}).items():
                into = rows.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ms": []})
                into["calls"] += row["calls"]
                into["incl_s"] += row["incl_s"]
                into["self_s"] += row["self_s"]
                into["ms"].extend(row["ms"])
    return rows


def _perf(legs, name: str) -> int:
    return sum(leg.result["perf"].get(name, {}).get("count", 0) for leg in legs)


def _ratio(hit: float, miss: float) -> float:
    return hit / (hit + miss) if hit + miss else 0.0


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def self_times(legs) -> Dict[str, float]:
    """Per-layer self seconds on the driver timeline, plus the root's."""
    out = {layer: 0.0 for layer in LAYERS}
    out[ROOT] = 0.0
    for leg in legs:
        for name, row in leg.result.get("layers_local", {}).items():
            key = ROOT if name == ROOT else layer_of(name)
            out[key] = out.get(key, 0.0) + row["self_s"]
    return out


def per_layer(workload, reps, failed_share: float) -> Dict[str, dict]:
    """Per-layer metrics of the traced rep with the median traced wall, so
    the layer self times and ``unattributed_s`` add up exactly to the
    ``trace.wall_s`` reported beside them."""
    good = [r for r in reps if r.ok]
    if not any(r.traced for r in good):
        good = reps  # report what the failed traced reps measured
    traced = sorted((r for r in good if r.traced and all(leg.result for leg in r.legs)),
                    key=lambda r: r.wall_s)
    plain = [r for r in good if not r.traced]
    rep = traced[(len(traced) - 1) // 2]
    legs = [leg for leg in rep.legs if leg.result]
    rows = _merged(legs)

    def incl(name): return rows.get(name, {}).get("incl_s", 0.0)
    def self_s(name): return rows.get(name, {}).get("self_s", 0.0)
    def calls(name): return rows.get(name, {}).get("calls", 0)

    day_ms = rows.get("ecosystem.day", {}).get("ms", [])
    disk_hit = sum(_perf(legs, f"cache.{c}.disk_hit") for c in CACHES)
    disk_miss = sum(_perf(legs, f"cache.{c}.disk_miss") for c in CACHES)
    setup_rows = _merged([leg for leg in workload.setup_legs if leg.result])
    jobs = getattr(workload, "jobs", 1)
    variant_s, sweep_s = incl("ablations.variant"), incl("ablations.sweep")
    ckpt = [s for leg in legs for s in leg.result.get("checkpoint_stats", [])]
    payload = sum(s.get("payload_bytes_total") or 0 for s in ckpt)
    gc_pause = sum(leg.result["gc"]["pause_s"] for leg in legs)
    gc_count = sum(leg.result["gc"]["collections"] for leg in legs)
    selfs = self_times(legs)
    values = {
        "search.serp_s": incl("search.serp"), "search.serp_calls": calls("search.serp"),
        "search.columns_s": incl("search.columns"),
        "search.columns_calls": calls("search.columns"),
        "search.memo_hit_ratio": _ratio(_perf(legs, "cache.serp.hit"),
                                        _perf(legs, "cache.serp.miss")),
        "ecosystem.build_s": incl("ecosystem.build"),
        "ecosystem.day_self_s": self_s("ecosystem.day"),
        "ecosystem.day_ms_p50": _quantile(day_ms, 0.50),
        "ecosystem.day_ms_p95": _quantile(day_ms, 0.95),
        "seo.campaign_day_s": incl("seo.campaign_day"),
        "interventions.day_s": incl("interventions.day"),
        "crawler.day_s": incl("crawler.day"), "crawler.dagger_s": incl("crawler.dagger"),
        "crawler.vangogh_s": incl("crawler.vangogh"),
        "web.fetch_s": incl("web.fetch"), "web.fetch_calls": calls("web.fetch"),
        "web.render_s": incl("web.render"), "web.render_calls": calls("web.render"),
        "html.parse_s": incl("html.parse"), "html.parse_calls": calls("html.parse"),
        "orders.day_s": incl("orders.day"),
        "classify.features_s": incl("classify.features"),
        "classify.fit_s": incl("classify.fit"), "classify.fit_calls": calls("classify.fit"),
        "classify.refine_self_s": self_s("classify.refine"),
        "classify.attribute_s": incl("classify.attribute"),
        **{f"perf.cache.{c}.hit_ratio": _ratio(_perf(legs, f"cache.{c}.hit"),
                                               _perf(legs, f"cache.{c}.miss"))
           for c in CACHES},
        "perf.diskcache.load_s": incl("perf.diskcache.load"),
        "perf.diskcache.load_calls": calls("perf.diskcache.load"),
        "perf.diskcache.hit_ratio": _ratio(disk_hit, disk_miss),
        "perf.diskcache.store_s": incl("perf.diskcache.store"),
        "perf.diskcache.store_calls": calls("perf.diskcache.store"),
        "perf.diskcache.setup_store_s": setup_rows.get("perf.diskcache.store", {}).get("incl_s", 0.0),
        "perf.diskcache.setup_store_calls": setup_rows.get("perf.diskcache.store", {}).get("calls", 0),
        "perf.shardpool.overhead_s": self_s("perf.shardpool.run_day"),
        "faults.checkpoint.save_s": incl("faults.checkpoint.save"),
        "faults.checkpoint.save_calls": calls("faults.checkpoint.save"),
        "faults.checkpoint.load_s": incl("faults.checkpoint.load"),
        "faults.checkpoint.delta_ratio": (
            sum(s.get("bytes_written") or 0 for s in ckpt) / payload if payload else 0.0),
        "ablations.variant_s": variant_s,
        "ablations.pool_efficiency": variant_s / (jobs * sweep_s) if sweep_s else 0.0,
        "ablations.straggler_s": sweep_s - variant_s / jobs if sweep_s else 0.0,
        "gc.pause_s": gc_pause, "gc.collections": gc_count,
        "analysis.tables_s": incl("analysis.tables"),
        "cli.artifacts_s": self_s("cli.run"),
        "proc.import_s": statistics.median(r.startup_s / len(r.legs) for r in good),
        "proc.cpu_s": statistics.median(r.cpu_s for r in (plain or good)),
        "trace.wall_s": sum(leg.result["root_s"] for leg in legs),
        "trace.overhead_s": (statistics.median(r.wall_s for r in traced)
                             - statistics.median(r.wall_s for r in plain)) if plain else 0.0,
        **{f"{layer}.self_s": selfs[layer] for layer in LAYERS},
        "unattributed_s": selfs[ROOT],
        "fail_share": failed_share,
    }
    return {name: _metric(name, values[name]) for name, _, _ in PER_LAYER}


def identity_error(legs) -> float:
    """How far self times plus ``unattributed_s`` miss the traced wall:
    ``|sum of self seconds - sum of root durations|`` over the legs."""
    total = sum(sum(self_times([leg]).values()) for leg in legs if leg.result)
    root = sum(leg.result["root_s"] for leg in legs if leg.result)
    return abs(total - root)
