"""Child-process launching, output digests, host readings and run state."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space inside the checkout; listed in the root .gitignore.
WORK_DIR = ".perfbench-run"
#: Fixed so set iteration and str hashing repeat from run to run.
HASH_SEED = "0"
#: No leg may outlive this, so a whole run stays inside 180 seconds.
RUN_DEADLINE_S = 170.0


def child_env(root: str) -> Dict[str, str]:
    """The parent environment minus every ``REPRO_*`` knob (no ledger
    appends, no stray disk store, caches at their defaults), with the
    program on the path and hash randomisation fixed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = HASH_SEED
    return env


def host_reading() -> dict:
    """Steal ticks so far and the 1-minute load average."""
    steal = 0
    with open("/proc/stat", encoding="ascii") as handle:
        fields = handle.readline().split()
    if len(fields) > 8:
        steal = int(fields[8])
    with open("/proc/loadavg", encoding="ascii") as handle:
        load1 = float(handle.read().split()[0])
    return {"steal_ticks": steal, "load1": load1}


@dataclass
class Leg:
    """One child process: its result, or why there is none."""

    argv: List[str]
    expected_exit: int = 0
    result: Optional[dict] = None
    startup_s: float = 0.0
    total_s: float = 0.0
    error: Optional[str] = None
    host: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def body_s(self) -> float:
        return self.result["body_s"] if self.result else 0.0

    def counts(self) -> dict:
        """Everything this leg counted that must repeat exactly: PERF
        counters and timer calls, durable files written per store, bytes
        per store, and span calls when traced.  Left out: the disk store's
        manifest bytes, since it carries lifetime totals and grows with
        every run against the store, and the checkpoint store's files and
        bytes.  Each save pickles a run manifest stamped with the
        wall-clock second, so the chunk holding it is new whenever a save
        lands in a new second and is reused otherwise: how many chunks a
        leg writes, and their bytes, follow the clock."""
        if not self.result:
            return {}
        perf = {k: v for k, v in self.result["perf"].items()
                if not k.startswith("perfbench.")}
        written = {
            "files": {k: v for k, v in self.result["written_files"].items()
                      if k != "checkpoint"},
            "bytes": {k: v for k, v in self.result["written_bytes"].items()
                      if k not in ("disk_cache_manifest", "checkpoint")},
        }
        out = {"perf": perf, "written": written}
        if "layers_local" in self.result:
            out["spans"] = span_calls(self.result)
        return out


def span_calls(result: dict) -> Dict[str, int]:
    calls: Dict[str, int] = {}
    for source in ("layers_local", "layers_forwarded"):
        for name, row in result.get(source, {}).items():
            calls[name] = calls.get(name, 0) + row["calls"]
    return calls


class Context:
    """Paths, seed and clock of one benchmark run of one workload."""

    def __init__(self, root: str, workload: str, seed: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.started = time.monotonic()
        self.work = os.path.join(root, WORK_DIR, f"{workload}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.env = child_env(root)
        #: Small-preset defaults to override in every leg (self-test sizes).
        self.small_preset: Optional[dict] = None
        self._legs = 0

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    def remaining_s(self) -> float:
        return RUN_DEADLINE_S - (time.monotonic() - self.started)

    def launch(self, argv: List[str], *, expected_exit: int = 0,
               trace: bool = False, stores: Optional[Dict[str, str]] = None,
               small_preset: Optional[dict] = None) -> Leg:
        """Run ``repro <argv>`` in a fresh interpreter through child.py."""
        self._legs += 1
        tag = f"leg{self._legs:03d}"
        spec = {
            "argv": argv,
            "result": self.path(tag + ".result.json"),
            "trace": trace,
            "trace_out": self.path(tag + ".spans.json"),
            "run_id": f"{self.workload}-{self.seed}-{tag}",
            "stores": stores or {},
            "small_preset": small_preset,
        }
        spec_path = self.path(tag + ".spec.json")
        with open(spec_path, "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        leg = Leg(argv=argv, expected_exit=expected_exit, host=host_reading())
        timeout = self.remaining_s()
        if timeout <= 0:
            leg.error = "run deadline reached before the leg started"
            return leg
        with open(self.path(tag + ".log"), "w", encoding="utf-8") as log:
            start = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, os.path.join(HERE, "child.py"), spec_path],
                cwd=self.root, env=self.env, stdout=log, stderr=subprocess.STDOUT,
            )
            try:
                code = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                leg.error = f"timed out after {timeout:.0f}s"
                return leg
            leg.total_s = time.monotonic() - start
        after = host_reading()
        leg.host["steal_ticks"] = after["steal_ticks"] - leg.host["steal_ticks"]
        if code != 0 or not os.path.exists(spec["result"]):
            leg.error = f"driver exited {code} (see {tag}.log)"
            return leg
        with open(spec["result"], encoding="utf-8") as handle:
            leg.result = json.load(handle)
        leg.startup_s = leg.result["ready_mono"] - start
        if leg.result["exit_code"] != expected_exit:
            leg.error = (f"repro {argv[0]} exited {leg.result['exit_code']}, "
                         f"expected {expected_exit} (see {tag}.log)")
        return leg

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)


def digest_dir(path: str) -> str:
    """One digest over every file's name and bytes under ``path``."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(path):
        dirnames.sort()
        for name in sorted(filenames):
            full = os.path.join(dirpath, name)
            h.update(os.path.relpath(full, path).encode() + b"\0")
            with open(full, "rb") as handle:
                h.update(hashlib.sha256(handle.read()).digest())
    return h.hexdigest()


def digest_json(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def code_fingerprint(root: str) -> str:
    """Digest of the program and benchmark sources: run state is only
    compared between runs of identical code."""
    h = hashlib.sha256()
    for top in ("src", os.path.relpath(HERE, root)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                if name.endswith(".py"):
                    full = os.path.join(dirpath, name)
                    h.update(os.path.relpath(full, root).encode() + b"\0")
                    with open(full, "rb") as handle:
                        h.update(handle.read())
    return h.hexdigest()[:16]


class RunState:
    """Digests remembered across runs of the same code in one checkout.

    A later run with the same code, workload and seed must reproduce the
    same counts, and every run of the paper configuration with one seed
    (cold or warm) the same artifact bytes."""

    def __init__(self, root: str, path: Optional[str] = None):
        self.path = path or os.path.join(root, WORK_DIR, "state.json")
        self.fingerprint = code_fingerprint(root)
        try:
            with open(self.path, encoding="utf-8") as handle:
                self.data = json.load(handle)
        except (OSError, ValueError):
            self.data = {}
        if self.data.get("fingerprint") != self.fingerprint:
            self.data = {"fingerprint": self.fingerprint, "digests": {}}

    def check(self, key: str, digest: str) -> Optional[str]:
        """Remember ``digest`` under ``key``; a mismatch is an error."""
        known = self.data["digests"].setdefault(key, digest)
        if known != digest:
            return f"{key} differs from an earlier run of the same code"
        return None

    def save(self) -> None:
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(self.data, handle, indent=1, sort_keys=True)
        os.replace(tmp, self.path)
