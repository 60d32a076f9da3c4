"""Crash-safe per-sim-day checkpoints of the whole study state.

The simulator, its observers (crawler, orderer, metrics recorder), and
everything they reference — the world, the engine caches, the RNG streams
— form one object graph; pickling them together in a single payload
preserves every shared reference, so a resumed run is the *same* program
state, not a reconstruction.

Persisting that payload whole every day is wasteful: consecutive days
share almost all of their bytes.  A checkpoint is therefore a *directory*
holding a content-addressed chunk store plus one small manifest per saved
day.  The payload is pickled with protocol 5 and a ``buffer_callback``:
every :class:`random.Random` stream reduces to its packed 624-word state
as a :class:`~pickle.PickleBuffer` (:func:`repro.util.rng.reduce_stream`),
and NumPy arrays hand over their column data the same way.  Each such
buffer of at least ``_OOB_MIN_BYTES`` is stored out of band as its own
chunk named by its digest — a stream whose words did not change since
yesterday, or a column that was not rebuilt, re-uses yesterday's file.
The remaining in-band stream is cut into chunks (512 B–64 KiB, see
:func:`chunk_spans`) and stored the same way.  Every chunk is
zlib-compressed and written once.

Write ordering makes a kill at any instant safe: chunks first, then the
day manifest, then ``HEAD`` (each file through
:func:`repro.util.atomicio.atomic_write`) — a torn save leaves the
previous complete checkpoint behind ``HEAD``.  Every few saves the store
is compacted: manifests older than ``HEAD`` and chunks nothing references
are pruned, bounding the directory to roughly one payload plus the
recent deltas.  Day manifests carry a chained digest
(``H(prev_chain, payload_digest)``, where the payload digest covers the
in-band bytes and the ordered buffer digests) so the surviving lineage is
tamper-evident across saves and resumes.

``repro run --resume`` (and :class:`repro.study.StudyRun` with
``resume=True``) loads ``HEAD``, reassembles the payload, verifies every
chunk digest, the payload digest, the scenario config digest, and a
recomputed state digest, and continues the day loop — producing final
artifacts byte-identical to an uninterrupted run (pinned in
``tests/test_faults.py``), at any ``--jobs`` level on either side of the
crash.

:class:`SimulatedCrash` gives tests and CI a deterministic kill: the
checkpointer raises it right after persisting the configured day, which
sidesteps flaky subprocess-kill timing entirely.
"""

from __future__ import annotations

import copyreg
import io
import json
import os
import pickle
import re
import shutil
import zlib
from hashlib import blake2b
from typing import List, Optional, Sequence, Tuple

from repro.obs.manifest import config_digest, run_manifest
from repro.util.atomicio import atomic_write
from repro.util.perf import PERF
from repro.util.rng import STREAM_REDUCERS

#: Checkpoint layout schema, bumped on layout changes.  Schema 1 was a
#: single whole-graph pickle file; 2 the chunked delta directory; 3 adds
#: out-of-band buffer chunks (RNG words, NumPy columns).
CHECKPOINT_SCHEMA = 3

#: Chunk-boundary anchor: the byte pair ``\x94\x00``.  It never marks a
#: pickle ``MEMOIZE`` opcode (``\x00`` is not an opcode); it matches
#: inside argument bytes.  Measured on the day-8 payload of a small-preset
#: every-day run (seed 7, 16 days): with RNG state in band, 905 of 913
#: matches fell inside ``LONG1`` RNG ints; with it out of band, the 1.1 MB
#: in-band stream holds one match, most chunks end at ``_MAX_CHUNK``, and
#: fixed 64 KiB slices wrote the same bytes (4.189 vs 4.188 MB over the
#: run).  In that run no in-band chunk was re-used across days; the
#: day-to-day savings come from the out-of-band buffers.
_ANCHOR = re.compile(rb"\x94\x00")
_MIN_CHUNK = 512
_MAX_CHUNK = 65536

#: Out-of-band pickle buffers at least this large become their own
#: chunk; smaller ones are written in band.
_OOB_MIN_BYTES = 1024

#: Prune unreferenced chunks / stale manifests every this many saves.
_COMPACT_EVERY = 7


class CheckpointError(RuntimeError):
    """A checkpoint exists but cannot be resumed from."""


class SimulatedCrash(RuntimeError):
    """Deterministic kill raised after checkpointing ``--die-after-day``."""

    #: Process exit code the CLI maps this to.
    exit_code = 3


def chunk_spans(data: bytes) -> List[Tuple[int, int]]:
    """Content-defined ``(start, end)`` spans covering ``data``.

    Each chunk ends at the first anchor match past ``_MIN_CHUNK`` bytes
    (or at ``_MAX_CHUNK``).  Where anchors recur, an insertion or
    deletion only redraws the boundaries of the chunks it touches and
    downstream chunks re-align on the next anchor; on study payloads the
    anchor is sparse and most chunks end at ``_MAX_CHUNK`` (see
    ``_ANCHOR``)."""
    spans: List[Tuple[int, int]] = []
    start = 0
    n = len(data)
    while start < n:
        limit = min(start + _MAX_CHUNK, n)
        match = _ANCHOR.search(data, start + _MIN_CHUNK, limit)
        end = match.end() if match is not None else limit
        spans.append((start, end))
        start = end
    return spans


def state_digest(simulator, observers: Sequence[object]) -> str:
    """A cheap fingerprint of resumable study state.

    Covers the simulation clock, the traffic RNG's full state, and each
    observer's progress counters.  Recomputed after load and compared to
    the value recorded at save time, it catches state that silently fails
    to round-trip through pickle (a ``__getstate__`` that drops a field).
    """
    parts: List[str] = []
    today = getattr(simulator.world, "today", None)
    parts.append(today.isoformat() if today is not None else "")
    parts.append(str(simulator._traffic_rng.getstate()))
    for observer in observers:
        parts.append(type(observer).__name__)
        dataset = getattr(observer, "dataset", None)
        records = getattr(dataset, "records", None)
        if records is not None:
            parts.append(str(len(records)))
            if records:
                parts.append(records[-1].to_json())
        total = getattr(observer, "total_orders_created", None)
        if total is not None:
            parts.append(str(total))
    digest = blake2b(digest_size=8)
    for part in parts:
        digest.update(part.encode("utf-8"))
        digest.update(b"\x00")
    return digest.hexdigest()


class Checkpointer:
    """Persists the (simulator, observers) graph at day boundaries."""

    def __init__(
        self,
        path: str,
        config,
        every_days: int = 1,
        die_after_day: Optional[int] = None,
    ):
        self.path = path
        self.config = config
        self.config_digest = config_digest(config)
        self.every_days = max(1, every_days)
        #: When set, raise :class:`SimulatedCrash` after checkpointing this
        #: 0-based day index (testing/CI hook).
        self.die_after_day = die_after_day
        self.saves = 0
        self.compactions = 0
        self.last_digest: Optional[str] = None
        #: Running digest chain; a fresh Checkpointer over an existing
        #: store (a resumed run) continues the surviving lineage.
        self.chain = self._head_chain()
        #: Accounting for ``BENCH_study.json``'s ``disk`` block: bytes
        #: pickled (in band plus buffers), i.e. what whole-payload saves
        #: would write, vs what this store wrote.  ``chunks_*`` count
        #: buffer chunks too.
        self.payload_bytes_total = 0
        self.bytes_written = 0
        self.chunks_written = 0
        self.chunks_reused = 0

    # ---------------------------------------------------------------- #
    # Store layout helpers
    # ---------------------------------------------------------------- #

    def _chunk_dir(self) -> str:
        return os.path.join(self.path, "chunks")

    def _head_path(self) -> str:
        return os.path.join(self.path, "HEAD")

    def _day_manifest_path(self, day_index: int) -> str:
        return os.path.join(self.path, f"day-{day_index:05d}.json")

    def _head_chain(self) -> str:
        head = _read_json(self._head_path())
        if head is None:
            return ""
        return str(head.get("chain_digest", ""))

    # ---------------------------------------------------------------- #
    # Day-boundary hook
    # ---------------------------------------------------------------- #

    def on_day_complete(self, simulator, observers, day_index: int, day) -> None:
        """Called by the simulator after every completed sim day."""
        dying = self.die_after_day is not None and day_index >= self.die_after_day
        total_days = len(simulator.world.window)
        due = (day_index + 1) % self.every_days == 0
        if due or dying or day_index == total_days - 1:
            self.save(simulator, observers, day_index, day)
        if dying:
            raise SimulatedCrash(
                f"simulated crash after sim day {day_index} ({day.isoformat()})"
            )

    def save(self, simulator, observers, day_index: int, day) -> None:
        digest = state_digest(simulator, observers)
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "config_digest": self.config_digest,
            "day_index": day_index,
            "day": day.isoformat(),
            "state_digest": digest,
            "simulator": simulator,
            "observers": list(observers),
        }
        blob, buffers = _dumps(payload)
        self.payload_bytes_total += len(blob) + sum(b.nbytes for b in buffers)

        os.makedirs(self._chunk_dir(), exist_ok=True)
        chunk_digests = [self._put(blob[start:end]) for start, end in chunk_spans(blob)]
        buffer_digests = [self._put(buffer) for buffer in buffers]
        payload_digest = _payload_digest(blob, buffer_digests)

        self.chain = blake2b(
            (self.chain + payload_digest).encode("ascii"), digest_size=16
        ).hexdigest()
        day_manifest = {
            "schema": CHECKPOINT_SCHEMA,
            "config_digest": self.config_digest,
            "day_index": day_index,
            "day": day.isoformat(),
            "state_digest": digest,
            "payload_digest": payload_digest,
            "payload_bytes": len(blob),
            "chain_digest": self.chain,
            "chunks": chunk_digests,
            "buffers": buffer_digests,
            # The standard provenance block, extended with where and what
            # this checkpoint captured.  It lives here, not in the pickled
            # payload, so its wall-clock ``created_at`` never changes a
            # chunk's content.
            "manifest": run_manifest(
                self.config, checkpoint_day_index=day_index, state_digest=digest
            ),
        }
        manifest_blob = json.dumps(day_manifest, indent=2, sort_keys=True)
        with atomic_write(self._day_manifest_path(day_index)) as handle:
            handle.write(manifest_blob)
            handle.write("\n")
        self.bytes_written += len(manifest_blob) + 1
        # HEAD last: everything it points at is already durable, so a kill
        # anywhere above leaves the previous HEAD's checkpoint complete.
        head = {
            "schema": CHECKPOINT_SCHEMA,
            "day_index": day_index,
            "manifest": os.path.basename(self._day_manifest_path(day_index)),
            "chain_digest": self.chain,
        }
        with atomic_write(self._head_path()) as handle:
            json.dump(head, handle, indent=2, sort_keys=True)
            handle.write("\n")

        self.saves += 1
        self.last_digest = digest
        PERF.count("faults.checkpoint.saved")
        if self.saves % _COMPACT_EVERY == 0:
            self.compact()

    def _put(self, data) -> str:
        """Store ``data`` as a compressed chunk named by its digest, unless
        the store already holds it; returns the digest."""
        hexdigest = blake2b(data, digest_size=16).hexdigest()
        chunk_path = os.path.join(self._chunk_dir(), hexdigest + ".z")
        if os.path.exists(chunk_path):
            self.chunks_reused += 1
            return hexdigest
        compressed = zlib.compress(data, 6)
        with atomic_write(chunk_path, "wb") as handle:
            handle.write(compressed)
        self.chunks_written += 1
        self.bytes_written += len(compressed)
        return hexdigest

    def compact(self) -> int:
        """Prune manifests behind ``HEAD`` and chunks nothing references.

        Safe at any time: HEAD's manifest and chunks are never touched,
        and everything removed is re-creatable (older days are not
        resumable-to anyway — resume always continues from HEAD).
        Returns the number of files removed."""
        head = _read_json(self._head_path())
        if head is None:
            return 0
        keep_manifest = head.get("manifest")
        referenced: set = set()
        removed = 0
        for name in sorted(os.listdir(self.path)):
            if not (name.startswith("day-") and name.endswith(".json")):
                continue
            if name == keep_manifest:
                manifest = _read_json(os.path.join(self.path, name))
                if manifest is not None:
                    referenced.update(manifest.get("chunks", ()))
                    referenced.update(manifest.get("buffers", ()))
                continue
            try:
                os.unlink(os.path.join(self.path, name))
                removed += 1
            except OSError:
                pass
        chunk_dir = self._chunk_dir()
        try:
            chunk_files = sorted(os.listdir(chunk_dir))
        except OSError:
            chunk_files = []
        for name in chunk_files:
            if name.endswith(".z") and name[:-2] not in referenced:
                try:
                    os.unlink(os.path.join(chunk_dir, name))
                    removed += 1
                except OSError:
                    pass
        self.compactions += 1
        PERF.count("faults.checkpoint.compacted")
        return removed

    def clear(self) -> None:
        """Remove the checkpoint after a successful complete run."""
        if os.path.isdir(self.path):
            # Refuse to rmtree anything that is not recognisably ours.
            if not (
                os.path.exists(self._head_path())
                or os.path.isdir(self._chunk_dir())
            ):
                raise CheckpointError(
                    f"refusing to remove {self.path!r}: not a checkpoint store"
                )
            shutil.rmtree(self.path, ignore_errors=True)
        elif os.path.exists(self.path):
            # Schema-1 leftover: a single pickle file.
            os.unlink(self.path)

    def stats(self) -> dict:
        """Delta-store accounting for benchmarks and docs."""
        return {
            "saves": self.saves,
            "compactions": self.compactions,
            "payload_bytes_total": self.payload_bytes_total,
            "bytes_written": self.bytes_written,
            "chunks_written": self.chunks_written,
            "chunks_reused": self.chunks_reused,
            "delta_ratio": (
                self.bytes_written / self.payload_bytes_total
                if self.payload_bytes_total
                else None
            ),
        }


def _dumps(payload) -> Tuple[bytes, List[memoryview]]:
    """Pickle ``payload`` with RNG words and large NumPy buffers out of
    band; returns the in-band stream and the buffers in stream order."""
    buffers: List[memoryview] = []

    def out_of_band(buffer: pickle.PickleBuffer) -> bool:
        raw = buffer.raw()
        if raw.nbytes < _OOB_MIN_BYTES:
            return True  # serialize in band
        buffers.append(raw)
        return False

    stream = io.BytesIO()
    pickler = pickle.Pickler(stream, protocol=5, buffer_callback=out_of_band)
    pickler.dispatch_table = copyreg.dispatch_table.copy()
    pickler.dispatch_table.update(STREAM_REDUCERS)
    pickler.dump(payload)
    return stream.getvalue(), buffers


def _payload_digest(blob: bytes, buffer_digests: Sequence[str]) -> str:
    """Digest of the in-band stream plus the ordered buffer digests."""
    digest = blake2b(blob, digest_size=16)
    for hexdigest in buffer_digests:
        digest.update(hexdigest.encode("ascii"))
    return digest.hexdigest()


def _read_chunk(chunk_dir: str, hexdigest: str) -> bytes:
    chunk_path = os.path.join(chunk_dir, hexdigest + ".z")
    try:
        with open(chunk_path, "rb") as handle:
            chunk = zlib.decompress(handle.read())
    except (OSError, zlib.error) as exc:
        raise CheckpointError(
            f"checkpoint chunk {hexdigest} unreadable: {exc}"
        ) from exc
    if blake2b(chunk, digest_size=16).hexdigest() != hexdigest:
        raise CheckpointError(f"checkpoint chunk {hexdigest} failed its digest")
    return chunk


def _read_json(path: str) -> Optional[dict]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            value = json.load(handle)
    except (OSError, ValueError):
        return None
    return value if isinstance(value, dict) else None


def load_checkpoint(path: str, config) -> Tuple[object, List[object], int, dict]:
    """Load and verify a checkpoint.

    Returns ``(simulator, observers, next_day_index, manifest)``.  Raises
    :class:`CheckpointError` when the store belongs to a different
    scenario config, uses a different schema, is missing or corrupt, or
    its state fails digest verification after unpickling.
    """
    if os.path.isfile(path):
        # A schema-1 single-pickle checkpoint (or something else entirely).
        try:
            with open(path, "rb") as handle:
                legacy = pickle.load(handle)
            schema = legacy.get("schema") if isinstance(legacy, dict) else None
        except Exception:
            schema = None
        raise CheckpointError(
            f"checkpoint schema {schema!r} != supported {CHECKPOINT_SCHEMA}"
        )
    head = _read_json(os.path.join(path, "HEAD"))
    if head is None:
        raise CheckpointError(f"no checkpoint HEAD under {path!r}")
    if head.get("schema") != CHECKPOINT_SCHEMA:
        raise CheckpointError(
            f"checkpoint schema {head.get('schema')!r} != supported "
            f"{CHECKPOINT_SCHEMA}"
        )
    manifest_name = head.get("manifest", "")
    day_manifest = _read_json(os.path.join(path, str(manifest_name)))
    if day_manifest is None:
        raise CheckpointError(
            f"checkpoint HEAD points at missing manifest {manifest_name!r}"
        )
    expected = config_digest(config)
    if day_manifest.get("config_digest") != expected:
        raise CheckpointError(
            f"checkpoint was written for config "
            f"{day_manifest.get('config_digest')}, not {expected} — refusing "
            f"to resume a different scenario"
        )
    chunk_dir = os.path.join(path, "chunks")
    blob = b"".join(
        _read_chunk(chunk_dir, hexdigest) for hexdigest in day_manifest.get("chunks", ())
    )
    buffer_digests = list(day_manifest.get("buffers", ()))
    # Writable copies: NumPy arrays rebuilt over them stay mutable, as
    # they are after an in-band round trip.
    buffers = [bytearray(_read_chunk(chunk_dir, d)) for d in buffer_digests]
    if _payload_digest(blob, buffer_digests) != day_manifest.get("payload_digest"):
        raise CheckpointError(
            "reassembled checkpoint payload failed its digest — "
            "the chunk store is incomplete or damaged"
        )
    payload = pickle.loads(blob, buffers=buffers)
    simulator = payload["simulator"]
    observers = payload["observers"]
    recomputed = state_digest(simulator, observers)
    if recomputed != payload["state_digest"]:
        raise CheckpointError(
            f"state digest mismatch after load: saved {payload['state_digest']}, "
            f"recomputed {recomputed} — checkpointed state did not round-trip"
        )
    for observer in observers:
        rebase = getattr(observer, "rebase", None)
        if callable(rebase):
            # e.g. MetricsRecorder: PERF deltas must restart from the new
            # process's registry, not the dead process's totals.
            rebase()
    PERF.count("faults.checkpoint.loaded")
    return simulator, observers, payload["day_index"] + 1, day_manifest.get("manifest", {})
