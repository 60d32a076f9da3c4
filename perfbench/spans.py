"""Span recording around the program's layer entry points.

The traced run wraps each layer's public functions from here, outside the
program: a wrapper records one span (run id, span id, parent span id, name,
start, end) per call into an in-memory list, and the list is written out
when the run ends.  The program itself is not edited; the wrappers replace
class attributes and module-level function bindings in the child process
that runs the workload, before any of the program's objects exist.

Self time is a span's duration minus the time its child spans cover.
Every span lives under one ``workload`` root, so the self times of all
spans plus the root's own self time (reported as ``unattributed_s``) add
up to the root's duration, the traced wall time.

Pool workers forked from the traced process inherit the wrappers.  Their
spans cannot reach the parent's list, so a forked worker folds each
closed span into the program's own ``PERF`` counters (``perfbench.<span
name>.calls`` / ``.incl_ns`` / ``.self_ns``), which the ablation pool
already sends home and merges into the parent registry.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import sys
import threading
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: (module, attribute path, span name).  The span name's prefix up to its
#: last dot is the layer (module) the span's self time is charged to.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cli", "command_run", "cli.run"),
    ("repro.cli", "command_ablations", "cli.ablations"),
    ("repro.cli", "_analysis_artifacts", "analysis.tables"),
    ("repro.study", "StudyRun.execute", "study.execute"),
    ("repro.ecosystem.simulator", "Simulator.build", "ecosystem.build"),
    ("repro.ecosystem.simulator", "Simulator.run", "ecosystem.run"),
    ("repro.ecosystem.simulator", "Simulator.step_day", "ecosystem.day"),
    ("repro.seo.campaign", "Campaign.on_day", "seo.campaign_day"),
    ("repro.interventions.search_ops", "SearchQualityTeam.on_day", "interventions.day"),
    ("repro.interventions.seizure", "BrandProtectionFirm.on_day", "interventions.day"),
    ("repro.interventions.payments", "PaymentInterventionTeam.on_day", "interventions.day"),
    ("repro.search.engine", "SearchEngine.serp", "search.serp"),
    ("repro.search.index", "SearchIndex.columns", "search.columns"),
    ("repro.crawler.serp_crawler", "SearchCrawler.on_day", "crawler.day"),
    ("repro.crawler.dagger", "Dagger.check", "crawler.dagger"),
    ("repro.crawler.vangogh", "VanGogh.check", "crawler.vangogh"),
    ("repro.web.hosting", "Web.fetch", "web.fetch"),
    ("repro.web.render", "render_document", "web.render"),
    ("repro.html.parser", "parse_html", "html.parse"),
    ("repro.orders.purchase_pair", "TestOrderer.on_day", "orders.day"),
    ("repro.classify.labeling", "build_seed_labels", "classify.seed_labels"),
    ("repro.classify.labeling", "RefinementLoop.run", "classify.refine"),
    ("repro.classify.features", "extract_features", "classify.features"),
    ("repro.classify.linear", "OneVsRestL1Logistic.fit", "classify.fit"),
    ("repro.classify.pipeline", "CampaignClassifier.attribute", "classify.attribute"),
    ("repro.perf.diskcache", "DiskCache.load", "perf.diskcache.load"),
    ("repro.perf.diskcache", "DiskCache.store", "perf.diskcache.store"),
    ("repro.perf.shardpool", "CrawlExecutor.run_day", "perf.shardpool.run_day"),
    ("repro.faults.checkpoint", "Checkpointer.save", "faults.checkpoint.save"),
    ("repro.faults.checkpoint", "load_checkpoint", "faults.checkpoint.load"),
    ("repro.analysis.ablations", "run_intervention_ablations", "ablations.sweep"),
    ("repro.analysis.ablations", "run_ablation", "ablations.variant"),
)

ROOT = "workload"
#: Spans whose per-call durations feed percentile metrics.
PERCENTILE_SPANS = ("ecosystem.day",)
#: PERF counter prefix for spans folded in by forked pool workers.
FORWARD_PREFIX = "perfbench."


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


class SpanRecorder:
    """In-memory span list plus the wrappers that feed it."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        #: (span id, parent id, name, start s, end s); parent -1 = root.
        self.spans: List[Tuple[int, int, str, float, float]] = []
        self.missing: List[str] = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._next_id = 0
        self._local = threading.local()
        self._forward = False
        self._gc_t0 = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # ------------------------------------------------------------------ #

    def _after_fork(self) -> None:
        # A forked pool worker starts with the parent's open stack; its own
        # spans are rooted afresh and travel home through PERF counters.
        self._forward = True
        self._local = threading.local()
        self.spans = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else -1
        self._next_id += 1
        # [id, parent, name, start, child seconds]
        frame = [self._next_id, parent, name, perf_counter(), 0.0]
        stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame[3]
        if stack:
            stack[-1][4] += duration
        if self._forward:
            self._fold(frame[2], duration, duration - frame[4],
                       any(f[2] == frame[2] for f in stack))
        else:
            self.spans.append((frame[0], frame[1], frame[2], frame[3], end))

    def _fold(self, name: str, duration: float, self_s: float, nested: bool) -> None:
        from repro.util.perf import PERF

        base = FORWARD_PREFIX + name
        PERF.count(base + ".calls")
        PERF.count(base + ".self_ns", int(self_s * 1e9))
        if not nested:
            PERF.count(base + ".incl_ns", int(duration * 1e9))
        if name in PERCENTILE_SPANS:
            PERF.count(f"{base}.ms.{int(duration * 1e3)}")

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def wrap(self, fn: Callable, name: str) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = recorder._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                recorder._close(frame)

        return traced

    # ------------------------------------------------------------------ #

    def install(self) -> None:
        """Wrap every target; a target the program no longer has is
        recorded in :attr:`missing` and its metrics read 0."""
        originals: Dict[int, Tuple[Callable, Callable]] = {}
        for module_name, attr_path, span_name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                owner = module
                *owners, attr = attr_path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                fn = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}:{attr_path}")
                continue
            wrapped = self.wrap(fn, span_name)
            setattr(owner, attr, wrapped)
            if not isinstance(owner, type):
                originals[id(fn)] = (fn, wrapped)
        # ``from x import f`` copies the binding into the importer: rebind
        # every module-level alias of a wrapped function too.
        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for key, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, key, hit[1])

    def watch_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def _on_gc(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._gc_t0 = perf_counter_ns()
            return
        pause_ns = perf_counter_ns() - self._gc_t0
        if self._forward:
            from repro.util.perf import PERF

            PERF.count(FORWARD_PREFIX + "gc.pause_ns", pause_ns)
            PERF.count(FORWARD_PREFIX + "gc.collections")
        else:
            self.gc_pause_s += pause_ns / 1e9
            self.gc_collections += 1

    # ------------------------------------------------------------------ #

    def dump(self) -> dict:
        return {
            "run_id": self.run_id,
            "fields": ["run_id", "id", "parent", "name", "start_s", "end_s"],
            "spans": [[self.run_id, *s] for s in self.spans],
            "missing_targets": self.missing,
        }


def aggregate(spans, forwarded: Optional[Dict[str, int]] = None) -> dict:
    """Per span name: calls, inclusive seconds (outermost calls only) and
    self seconds, plus per-call milliseconds for :data:`PERCENTILE_SPANS`.

    ``spans`` are ``(id, parent, name, start, end)`` from one process;
    ``forwarded`` are the ``perfbench.*`` PERF counters pool workers sent
    home, added on top (they are other processes' time, so they do not
    enter the root's self-time identity).
    """
    by_id = {s[0]: s for s in spans}
    child_s: Dict[int, float] = {}
    for sid, parent, _name, start, end in spans:
        if parent in by_id:
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    out: Dict[str, dict] = {}
    for sid, parent, name, start, end in spans:
        row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ms": []})
        duration = end - start
        row["calls"] += 1
        row["self_s"] += duration - child_s.get(sid, 0.0)
        ancestor = by_id.get(parent)
        while ancestor is not None and ancestor[2] != name:
            ancestor = by_id.get(ancestor[1])
        if ancestor is None:
            row["incl_s"] += duration
        if name in PERCENTILE_SPANS:
            row["ms"].append(duration * 1e3)
    for key, value in sorted((forwarded or {}).items()):
        if not key.startswith(FORWARD_PREFIX) or key.startswith(FORWARD_PREFIX + "gc."):
            continue
        body = key[len(FORWARD_PREFIX):]
        for name in PERCENTILE_SPANS:
            if body.startswith(name + ".ms."):
                row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ms": []})
                row["ms"].extend([float(body[len(name) + 4:]) + 0.5] * value)
                break
        else:
            name, field = body.rsplit(".", 1)
            row = out.setdefault(name, {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "ms": []})
            if field == "calls":
                row["calls"] += value
            elif field == "incl_ns":
                row["incl_s"] += value / 1e9
            elif field == "self_ns":
                row["self_s"] += value / 1e9
    return out
