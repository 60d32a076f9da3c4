"""The four workloads: what each runs, and how its outputs are checked.

Every workload drives the program through its CLI entry point
(``repro.cli.main``) in fresh child processes; see README.md for why each
one exists and which layers it stresses.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from harness import Context, Leg, RunState, digest_dir, digest_json

#: Paper preset cut down so one cold study takes ~10 s on 2 vCPUs.
PAPER_ARGS = ["--preset", "paper", "--scale", "0.01", "--terms", "1", "--stride", "3"]
#: Small-preset window for crash-resume, and the day index it dies after.
CRASH_DAYS = 16
CRASH_AFTER_DAY = CRASH_DAYS // 2 - 1
#: Window of the ablation sweep: eight weeks.
ABLATION_DAYS = 56


def ablation_jobs() -> int:
    """Pool width: the host's CPU count, at least 2 so the pool runs."""
    return min(8, max(2, len(os.sched_getaffinity(0))))


@dataclass
class Rep:
    """One timed repetition of a workload (one or two child processes)."""

    index: int
    traced: bool
    legs: List[Leg] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    digest: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.errors and all(leg.ok for leg in self.legs)

    @property
    def wall_s(self) -> float:
        return sum(leg.body_s for leg in self.legs)

    @property
    def startup_s(self) -> float:
        return sum(leg.startup_s for leg in self.legs)

    @property
    def cpu_s(self) -> float:
        return sum(leg.result["cpu_s"] for leg in self.legs if leg.result)

    @property
    def peak_rss_mb(self) -> float:
        return max((leg.result["rss_kb"] * 1024 / 1e6 for leg in self.legs if leg.result),
                   default=0.0)

    @property
    def written_mb(self) -> float:
        return sum(sum(leg.result["written_bytes"].values()) / 1e6
                   for leg in self.legs if leg.result)

    def counts(self, skip: tuple = ()) -> dict:
        """Per-leg counts, minus names starting with a ``skip`` prefix."""
        def keep(group):
            return {k: v for k, v in group.items() if not k.startswith(skip)}

        return {f"leg{i}": {key: keep(group) if key in ("perf", "spans") else group
                            for key, group in leg.counts().items()}
                for i, leg in enumerate(self.legs)}

    def describe(self) -> dict:
        return {
            "index": self.index, "traced": self.traced, "ok": self.ok,
            "errors": self.errors + [leg.error for leg in self.legs if leg.error],
            "wall_s": self.wall_s, "startup_s": self.startup_s,
            "cpu_s": self.cpu_s, "peak_rss_mb": self.peak_rss_mb,
            "written_mb": self.written_mb,
            "host": [leg.host for leg in self.legs],
        }


def _perf_count(leg: Leg, suffix: str) -> int:
    """Sum of PERF counters whose name ends with ``suffix``."""
    if not leg.result:
        return 0
    return sum(row.get("count", 0) for name, row in leg.result["perf"].items()
               if name.endswith(suffix) and not name.startswith("perfbench."))


class Workload:
    name = ""
    default_seed = 0
    #: Key under which outputs are compared across workloads and runs.
    outputs_key = ""
    #: Count-name prefixes that legitimately vary from run to run.
    schedule_dependent: tuple = ()

    def __init__(self, ctx: Context):
        self.ctx = ctx
        #: Failures outside any rep (reference runs, setup); each one fails
        #: every rep, since nothing can be checked against it.
        self.errors: List[str] = []
        #: Digest every rep's outputs must equal (None: the first rep's).
        self.reference: Optional[str] = None
        self.setup_legs: List[Leg] = []

    def prepare(self) -> None:
        """Untimed work before the first rep."""

    def rep(self, index: int, traced: bool) -> Rep:
        raise NotImplementedError

    def setup_s(self, reps: List[Rep]) -> float:
        return statistics.median(r.startup_s for r in reps)

    # ------------------------------------------------------------------ #

    def _out(self, index: int) -> str:
        out = self.ctx.path(f"rep{index}")
        shutil.rmtree(out, ignore_errors=True)
        return out

    def _finish(self, rep: Rep, out: str) -> Rep:
        if rep.ok and os.path.isdir(out):
            rep.digest = digest_dir(out)
        elif rep.ok:
            rep.errors.append(f"no output directory {out}")
        shutil.rmtree(out, ignore_errors=True)
        return rep

    def check(self, reps: List[Rep], state: RunState) -> None:
        """Output and count checks; failures land on the rep at fault."""
        for rep in reps:
            rep.errors.extend(self.errors)
        good = [r for r in reps if r.ok]
        if not good:
            return
        reference = self.reference or good[0].digest
        first = good[0]
        skip = self.schedule_dependent
        base_counts = first.counts(skip)
        traced_base = next((r for r in good if r.traced), None)
        for rep in good:
            if rep.digest != reference:
                rep.errors.append("outputs differ from the reference outputs")
            counts = rep.counts(skip)
            for leg, (base, mine) in enumerate(zip(base_counts.values(), counts.values())):
                for key in ("perf", "written"):
                    if base.get(key) != mine.get(key):
                        rep.errors.append(f"leg {leg} {key} counts differ from rep {first.index}")
            if rep.traced and traced_base is not None and rep is not traced_base:
                if [c.get("spans") for c in counts.values()] != \
                        [c.get("spans") for c in traced_base.counts(skip).values()]:
                    rep.errors.append(f"span counts differ from rep {traced_base.index}")
        seed = self.ctx.seed
        stable = {k: {kk: vv for kk, vv in v.items() if kk != "spans"}
                  for k, v in base_counts.items()}
        remembered = [
            (f"{self.name}|{seed}|counts", digest_json(stable)),
            (f"{self.outputs_key or self.name}|{seed}|outputs", reference),
        ]
        if traced_base is not None:
            spans = [c.get("spans") for c in traced_base.counts(skip).values()]
            remembered.append((f"{self.name}|{seed}|spans", digest_json(spans)))
        for key, digest in remembered:
            error = state.check(key, digest)
            if error:
                first.errors.append(error)


class PaperStudy(Workload):
    name = "paper-study"
    default_seed = 20141105
    outputs_key = "paper"

    args = PAPER_ARGS

    def rep(self, index: int, traced: bool) -> Rep:
        out = self._out(index)
        leg = self.ctx.launch(["run", *self.args, "--seed", str(self.ctx.seed),
                               "--out", out],
                              trace=traced, stores={"artifacts": out},
                              small_preset=self.ctx.small_preset)
        return self._finish(Rep(index, traced, [leg]), out)


class WarmRerun(Workload):
    name = "warm-rerun"
    default_seed = 20141105
    outputs_key = "paper"

    def prepare(self) -> None:
        self.store = self.ctx.path("disk-cache")
        out = self._out(-1)
        # Traced runs trace the populate too: the store writes happen here.
        leg = self.ctx.launch(
            ["run", *PAPER_ARGS, "--seed", str(self.ctx.seed), "--out", out,
             "--disk-cache", self.store],
            trace=self.ctx.trace,
            stores={"artifacts": out, "disk_cache": self.store})
        self.setup_legs.append(leg)
        if not leg.ok:
            self.errors.append(f"cold populate failed: {leg.error}")
        elif _perf_count(leg, ".write") == 0:
            self.errors.append("cold populate stored nothing in the disk cache")
        else:
            self.reference = digest_dir(out)
        shutil.rmtree(out, ignore_errors=True)

    def rep(self, index: int, traced: bool) -> Rep:
        out = self._out(index)
        leg = self.ctx.launch(
            ["run", *PAPER_ARGS, "--seed", str(self.ctx.seed), "--out", out,
             "--disk-cache", self.store],
            trace=traced, stores={"artifacts": out, "disk_cache": self.store})
        rep = Rep(index, traced, [leg])
        if leg.ok and _perf_count(leg, ".disk_hit") == 0:
            rep.errors.append("warm run read nothing from the disk cache")
        return self._finish(rep, out)

    def setup_s(self, reps: List[Rep]) -> float:
        return super().setup_s(reps) + sum(leg.total_s for leg in self.setup_legs)


class AblationSweep(Workload):
    name = "ablation-sweep"
    default_seed = 7

    #: A pool worker runs several variants and keeps its process-global
    #: LRU caches between them, so which worker gets which variant moves
    #: the cache hit/miss split and the parses and renders behind it.
    schedule_dependent = tuple(f"cache.{c}." for c in (
        "dom", "render", "shingle", "features", "notice")) + (
        "html.parse", "web.render", "classify.features")

    def __init__(self, ctx: Context):
        super().__init__(ctx)
        self.jobs = ablation_jobs()

    def _sweep(self, index: int, jobs: int, traced: bool):
        out = self._out(index)
        os.makedirs(out)
        leg = self.ctx.launch(
            ["ablations", "--days", str(ABLATION_DAYS), "--jobs", str(jobs),
             "--json", os.path.join(out, "outcomes.json")],
            trace=traced, stores={"artifacts": out},
            small_preset={"seed": self.ctx.seed})
        outcomes = None
        if leg.ok:
            with open(os.path.join(out, "outcomes.json"), encoding="utf-8") as handle:
                # The manifest names the jobs level; the outcomes must not.
                outcomes = digest_json(json.load(handle)["outcomes"])
        shutil.rmtree(out, ignore_errors=True)
        return leg, outcomes

    def prepare(self) -> None:
        leg, self.reference = self._sweep(-1, 1, False)
        if not leg.ok:
            self.errors.append(f"jobs=1 reference sweep failed: {leg.error}")

    def rep(self, index: int, traced: bool) -> Rep:
        leg, outcomes = self._sweep(index, self.jobs, traced)
        return Rep(index, traced, [leg], digest=outcomes)


class CrashResume(Workload):
    name = "crash-resume"
    default_seed = 7

    def _run(self, out: str, *extra: str, expected_exit: int = 0,
             traced: bool = False, checkpoint: Optional[str] = None) -> Leg:
        stores = {"artifacts": out}
        if checkpoint:
            stores["checkpoint"] = checkpoint
        return self.ctx.launch(
            ["run", "--preset", "small", "--seed", str(self.ctx.seed),
             "--out", out, *extra],
            expected_exit=expected_exit, trace=traced, stores=stores,
            small_preset={"days": CRASH_DAYS})

    def prepare(self) -> None:
        out = self._out(-1)
        leg = self._run(out)
        if leg.ok:
            self.reference = digest_dir(out)
        else:
            self.errors.append(f"uninterrupted reference run failed: {leg.error}")
        shutil.rmtree(out, ignore_errors=True)

    def rep(self, index: int, traced: bool) -> Rep:
        out = self._out(index)
        checkpoint = self.ctx.path(f"checkpoint{index}")
        shutil.rmtree(checkpoint, ignore_errors=True)
        every = ["--checkpoint", checkpoint, "--checkpoint-every", "1"]
        crash = self._run(out, *every, "--die-after-day", str(CRASH_AFTER_DAY),
                          expected_exit=3, traced=traced, checkpoint=checkpoint)
        rep = Rep(index, traced, [crash])
        if crash.ok:
            resume = self._run(out, *every, "--resume", traced=traced,
                               checkpoint=checkpoint)
            rep.legs.append(resume)
            if resume.ok and _perf_count(resume, "checkpoint.loaded") != 1:
                rep.errors.append("resume leg did not load the checkpoint")
        shutil.rmtree(checkpoint, ignore_errors=True)
        return self._finish(rep, out)


WORKLOADS = {w.name: w for w in (PaperStudy, WarmRerun, AblationSweep, CrashResume)}
