"""Process driver: one workload leg in a fresh interpreter.

    python3 perfbench/child.py SPEC.json

The spec names the ``repro`` CLI arguments to run and where to write the
result.  The driver imports the program (the parent times interpreter
start plus imports from its side of the spawn), then runs the CLI entry
point as the timed body and writes one JSON result:

* ``ready_mono`` — ``time.monotonic()`` once imports finished;
* ``body_s`` / ``cpu_s`` — wall and CPU seconds of the body (CPU includes
  reaped pool workers);
* ``exit_code`` — what the CLI returned (1 if it raised);
* ``rss_kb`` — the largest RSS of this process or any reaped child;
* ``written_bytes`` / ``written_files`` — every durable write the program
  made, split by store;
* ``perf`` — the program's ``PERF`` counters and timer call counts;
* with ``trace`` on: per-span aggregates, gc pauses, and the span dump.

Durable writes: the program makes every store write durable through
``repro.util.atomicio`` (write a temp file, ``os.fsync``, rename).  This
driver replaces ``os.fsync`` with an accounting shim that records the
file's size and skips the flush to disk, so the numbers measure the
program's work rather than the host disk's fsync latency, the same as a
store on tmpfs.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time
import traceback

WRITTEN = {"bytes": {}, "files": {}}


def _fsync_shim(fd: int) -> None:
    size = os.fstat(fd).st_size
    try:
        target = os.readlink(f"/proc/self/fd/{fd}")
    except OSError:
        target = ""
    kind = "other"
    for name, prefix in _STORES:
        if target.startswith(prefix):
            kind = name
            break
    if kind == "disk_cache" and os.path.basename(target).startswith("manifest.json"):
        # The store manifest carries lifetime hit/miss totals, so its size
        # grows with every run against the store; counted apart.
        kind = "disk_cache_manifest"
    WRITTEN["bytes"][kind] = WRITTEN["bytes"].get(kind, 0) + size
    WRITTEN["files"][kind] = WRITTEN["files"].get(kind, 0) + 1


_STORES: list = []


def _override_defaults(fn, overrides: dict) -> None:
    """Change a preset factory's keyword defaults (the CLI exposes no
    ``--days`` and ``ablations`` no ``--seed``)."""
    names = [p.name for p in inspect.signature(fn).parameters.values()
             if p.default is not inspect.Parameter.empty]
    defaults = list(fn.__defaults__)
    for key, value in overrides.items():
        defaults[names.index(key)] = value
    fn.__defaults__ = tuple(defaults)


def _capture_checkpoint_stats(sink: list) -> None:
    """Keep what ``Checkpointer.stats()`` returns (the run reads it once
    when the simulation ends or crashes) for the delta-ratio metric."""
    try:
        from repro.faults.checkpoint import Checkpointer
    except ImportError:
        return
    original = getattr(Checkpointer, "stats", None)
    if original is None:
        return

    def stats(self):
        value = original(self)
        sink.append(value)
        return value

    Checkpointer.stats = stats


def _rusage() -> tuple:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime
    return cpu, max(me.ru_maxrss, kids.ru_maxrss)


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    import repro.cli
    from repro.ecosystem import presets
    from repro.util.perf import PERF

    for name, path in sorted(spec.get("stores", {}).items()):
        _STORES.append((name, os.path.abspath(path)))
    os.fsync = _fsync_shim
    if spec.get("small_preset"):
        _override_defaults(presets.small_preset, spec["small_preset"])
    recorder = None
    checkpoint_stats: list = []
    if spec.get("trace"):
        from spans import ROOT, SpanRecorder, aggregate

        recorder = SpanRecorder(spec["run_id"])
        recorder.install()
        recorder.watch_gc()
        _capture_checkpoint_stats(checkpoint_stats)
    ready = time.monotonic()

    cpu0, _ = _rusage()
    start = time.perf_counter()
    try:
        if recorder is not None:
            with recorder.span(ROOT):
                code = repro.cli.main(spec["argv"])
        else:
            code = repro.cli.main(spec["argv"])
    except Exception:
        traceback.print_exc()
        code = 1
    body_s = time.perf_counter() - start
    cpu1, rss_kb = _rusage()

    report = PERF.report()
    result = {
        "ready_mono": ready,
        "body_s": body_s,
        "cpu_s": cpu1 - cpu0,
        "exit_code": code,
        "rss_kb": rss_kb,
        "written_bytes": WRITTEN["bytes"],
        "written_files": WRITTEN["files"],
        "perf": {name: {k: v for k, v in row.items() if k in ("calls", "count")}
                 for name, row in report.items()},
    }
    if recorder is not None:
        counters = PERF.counters()
        local = aggregate(recorder.spans)
        result["layers_local"] = local
        result["layers_forwarded"] = aggregate([], counters)
        result["root_s"] = local.get(ROOT, {}).get("incl_s", 0.0)
        result["checkpoint_stats"] = checkpoint_stats
        result["gc"] = {
            "pause_s": recorder.gc_pause_s + counters.get("perfbench.gc.pause_ns", 0) / 1e9,
            "collections": recorder.gc_collections + counters.get("perfbench.gc.collections", 0),
        }
        result["missing_targets"] = recorder.missing
        with open(spec["trace_out"], "w", encoding="utf-8") as handle:
            json.dump(recorder.dump(), handle)
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
