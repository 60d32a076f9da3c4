"""The repo's benchmark: four study workloads, end-to-end and per layer.

One workload, as the harness contract runs it (last stdout line = JSON):

    python3 perfbench/run.py --workload paper-study --seed 1 --seconds 12 --trace 0

All workloads, round-robin over sets with a traced run each, as a table:

    python3 perfbench/run.py --sets 3

Self-test at toy sizes:

    python3 perfbench/run.py --self-test

Run from the root of a checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from harness import Context, RunState, WORK_DIR
from metrics import END_TO_END, PER_LAYER, end_to_end, identity_error, per_layer
from workloads import WORKLOADS

#: Self times plus unattributed_s may miss the traced wall by this share.
IDENTITY_TOLERANCE = 1e-6
#: Reps every run makes at least, so outputs and counts can be compared.
MIN_REPS = 2


def _checkout_root() -> str:
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "repro", "cli.py")):
        raise SystemExit(f"perfbench: no program at {root}/src/repro; "
                         "run from the root of a checkout")
    return root


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds`` and return the result object."""
    root = _checkout_root()
    ctx = Context(root, name, seed, trace)
    workload = WORKLOADS[name](ctx)
    state = RunState(root)
    # Untimed warm-up: byte-compile the program and warm the page cache.
    subprocess.run([sys.executable, "-c", "import repro.cli"], cwd=root,
                   env=ctx.env, check=True)
    workload.prepare()
    reps = []
    start = time.monotonic()
    while True:
        # Traced runs alternate untraced and traced reps, so the overhead
        # is a difference between neighbours.
        traced = trace and len(reps) % 2 == 1
        reps.append(workload.rep(len(reps), traced))
        spent = time.monotonic() - start
        per_rep = statistics.median(r.wall_s + r.startup_s for r in reps)
        enough = len(reps) >= MIN_REPS and (not trace or any(r.traced for r in reps))
        if enough and spent + per_rep > seconds:
            break
        if ctx.remaining_s() < 1.5 * per_rep + 10:
            break
    workload.check(reps, state)
    if trace:
        for rep in reps:
            if rep.traced and rep.ok:
                error = identity_error(rep.legs)
                if error > IDENTITY_TOLERANCE * max(1.0, rep.wall_s):
                    rep.errors.append(f"self times miss the traced wall by {error:.3g}s")
    state.save()
    failed = sum(1 for r in reps if not r.ok)
    if trace and any(r.traced for r in reps):
        metrics = per_layer(workload, reps, failed / len(reps))
    elif trace:
        metrics = {}
        failed = len(reps)
    else:
        metrics = end_to_end(workload, reps)
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "store_medium": "checkout directory; os.fsync elided by the driver "
                        "(tmpfs-equivalent), durable bytes still counted",
        "jobs": getattr(workload, "jobs", 1),
        "reps": [r.describe() for r in reps],
        "setup_legs": [{"startup_s": leg.startup_s, "total_s": leg.total_s,
                        "error": leg.error, "host": leg.host}
                       for leg in workload.setup_legs],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(root, WORK_DIR), exist_ok=True)
    report_path = os.path.join(root, WORK_DIR,
                               f"report-{name}-{seed}-trace{int(trace)}.json")
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
    if failed == 0:
        ctx.close()
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": metrics,
        "_report": report_path,
        "_errors": [e for r in reps for e in r.describe()["errors"]],
    }


def _print_result(result: dict) -> None:
    for error in result.pop("_errors"):
        print(f"  failure: {error}")
    print(f"  report: {result.pop('_report')}")
    print(json.dumps(result, sort_keys=True))


def run_all(sets: int, seconds: float, seed) -> int:
    """Every workload, one fresh process each, round-robin per set, then
    one traced run each; prints a metric table and returns 1 on failure."""
    runs = {name: [] for name in WORKLOADS}
    traces = {}
    names = list(WORKLOADS)
    for set_index in range(sets):
        # Rotate the order too, so no workload always runs first.
        order = names[set_index % len(names):] + names[:set_index % len(names)]
        for name in order:
            base = seed if seed is not None else WORKLOADS[name].default_seed
            runs[name].append(_subrun(name, base + set_index, seconds, 0))
    for name in names:
        base = seed if seed is not None else WORKLOADS[name].default_seed
        traces[name] = _subrun(name, base, seconds, 1)
    ok = True
    header = f"{'metric':36s}" + "".join(f"{n:>16s}" for n in names)
    print(header)
    for metric, unit, _ in END_TO_END:
        cells = []
        for name in names:
            values = [r["metrics"][metric]["value"] for r in runs[name] if r["metrics"]]
            cells.append(f"{statistics.median(values):.4g} (n={len(values)})"
                         if values else "-")
        print(f"{metric + ' [' + unit + ']':36s}" + "".join(f"{c:>16s}" for c in cells))
    fail = [sum(r["failed"] for r in runs[n]) / max(1, sum(r["attempted"] for r in runs[n]))
            for n in names]
    print(f"{'fail_share [share]':36s}" + "".join(f"{v:>16.4g}" for v in fail))
    print()
    print(f"{'per-layer (traced run)':36s}" + "".join(f"{n:>16s}" for n in names))
    for metric, unit, _ in PER_LAYER:
        cells = [traces[n]["metrics"].get(metric, {}).get("value") for n in names]
        print(f"{metric + ' [' + unit + ']':36s}"
              + "".join(f"{c:>16.4g}" if c is not None else f"{'-':>16s}" for c in cells))
    for name in names:
        for result in runs[name] + [traces[name]]:
            ok = ok and result["correct"]
    return 0 if ok else 1


def _subrun(name: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="scenario seed (default: the preset's seed)")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed reps run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: alternate untraced and traced reps and "
                             "report the per-layer metrics")
    parser.add_argument("--sets", type=int, default=3,
                        help="without --workload: round-robin sets to run")
    parser.add_argument("--self-test", action="store_true",
                        help="check the benchmark itself at toy sizes")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main(_checkout_root())
    if args.workload is None:
        _checkout_root()
        return run_all(args.sets, args.seconds, args.seed)
    seed = args.seed if args.seed is not None else WORKLOADS[args.workload].default_seed
    _print_result(run_workload(args.workload, seed, args.seconds, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
