"""Self-test of the benchmark at toy sizes (``run.py --self-test``).

Checks, in about half a minute:

1. every metric has a valid name and unit, and BENCHMARK.json lists the
   same metrics, units and workloads as the code;
2. span aggregation: self time is duration minus covered child time, and
   inclusive time counts only the outermost of nested same-name spans;
3. a toy study (small preset, 14 days) whose third rep's artifact is
   corrupted after the run counts that rep in ``fail_share``;
4. a traced toy rep's layer self times plus ``unattributed_s`` add up to
   its traced wall time.
"""

from __future__ import annotations

import json
import os
import re
import shutil

from harness import Context, RunState
from metrics import END_TO_END, LAYERS, PER_LAYER, end_to_end, identity_error, per_layer
from spans import ROOT, aggregate
from workloads import WORKLOADS, PaperStudy

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
TOY_DAYS = 14


class _ToyStudy(PaperStudy):
    """The paper-study workload on a 14-day small preset; rep 2's
    ``summary.txt`` gets one byte appended before its outputs are read."""

    args = ["--preset", "small"]
    corrupt_rep = 2

    def _finish(self, rep, out):
        if rep.index == self.corrupt_rep and rep.ok:
            with open(os.path.join(out, "summary.txt"), "a", encoding="utf-8") as handle:
                handle.write("x")
        return super()._finish(rep, out)


def _check_names(root: str) -> None:
    names = [n for n, _, _ in END_TO_END + PER_LAYER]
    assert len(names) == len(set(names)), "metric names repeat"
    for name, unit, better in END_TO_END + PER_LAYER:
        assert NAME.match(name), f"bad metric name {name!r}"
        assert UNIT.match(unit), f"metric {name} has bad unit {unit!r}"
        assert better in ("lower", "higher"), f"metric {name}: better={better!r}"
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS), "workloads"
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(table), f"BENCHMARK.json {key} differs from metrics.py"


def _check_aggregate() -> None:
    # root 0..10 > a 1..5 > a 2..3 (nested same name); root > b 6..8
    spans = [(1, -1, ROOT, 0.0, 10.0), (2, 1, "x.a", 1.0, 5.0),
             (3, 2, "x.a", 2.0, 3.0), (4, 1, "y.b", 6.0, 8.0)]
    rows = aggregate(spans)
    assert rows[ROOT]["self_s"] == 4.0, rows[ROOT]
    assert rows["x.a"]["calls"] == 2 and rows["x.a"]["incl_s"] == 4.0, rows["x.a"]
    assert rows["x.a"]["self_s"] == 4.0 and rows["y.b"]["self_s"] == 2.0
    assert sum(r["self_s"] for r in rows.values()) == 10.0
    forwarded = aggregate([], {"perfbench.x.a.calls": 3, "perfbench.x.a.incl_ns": 2_000_000_000,
                               "perfbench.x.a.self_ns": 1_500_000_000, "cache.dom.hit": 5})
    assert forwarded["x.a"] == {"calls": 3, "incl_s": 2.0, "self_s": 1.5, "ms": []}, forwarded


def _toy(root: str):
    """Three reps of the toy study; rep 1 traced, rep 2 corrupted."""
    ctx = Context(root, "self-test", 7, trace=True)
    ctx.small_preset = {"days": TOY_DAYS}
    workload = _ToyStudy(ctx)
    reps = [workload.rep(i, i == 1) for i in range(3)]
    workload.check(reps, RunState(root, path=ctx.path("state.json")))
    return ctx, workload, reps


def main(root: str) -> int:
    _check_names(root)
    print("ok  metric names, units and BENCHMARK.json agree")
    _check_aggregate()
    print("ok  span self/inclusive time arithmetic")

    ctx, workload, reps = _toy(root)
    try:
        assert [r.ok for r in reps] == [True, True, False], [r.describe() for r in reps]
        assert any("outputs differ" in e for e in reps[2].errors), reps[2].errors
        share = end_to_end(workload, reps)["pass_share"]["value"]
        assert abs(share - 2 / 3) < 1e-12, share
        print("ok  a corrupted artifact fails its rep: pass_share", round(share, 4))

        error = identity_error(reps[1].legs)
        assert error < 1e-6, f"self times miss the traced wall by {error}"
        layers = per_layer(workload, reps, 1 / 3)
        total = sum(layers[f"{layer}.self_s"]["value"] for layer in LAYERS)
        total += layers["unattributed_s"]["value"]
        wall = layers["trace.wall_s"]["value"]
        assert abs(total - wall) < 1e-6, (total, wall)
        assert layers["fail_share"]["value"] == 1 / 3
        assert layers["web.fetch_calls"]["value"] > 0 and layers["classify.fit_calls"]["value"] >= 1
        print(f"ok  traced self times + unattributed_s = traced wall ({wall:.4f}s)")
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)
    print("self-test passed")
    return 0
