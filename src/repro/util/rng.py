"""Deterministic RNG discipline.

Every component of the simulator owns a named stream derived from the
scenario seed via a stable hash.  Streams are independent: drawing more from
one never shifts another, so scenarios stay reproducible as the codebase
grows new consumers of randomness.
"""

from __future__ import annotations

import hashlib
import random
from array import array
from pickle import PickleBuffer
from typing import Dict, Sequence, Tuple, TypeVar

T = TypeVar("T")


def derive_seed(base_seed: int, *names: str) -> int:
    """Derive a child seed from a base seed and a path of stream names.

    Uses SHA-256 so the mapping is stable across Python versions and
    processes (unlike the builtin ``hash``).
    """
    digest = hashlib.sha256()
    digest.update(str(base_seed).encode("utf-8"))
    for name in names:
        digest.update(b"\x00")
        digest.update(name.encode("utf-8"))
    return int.from_bytes(digest.digest()[:8], "big")


def reduce_stream(stream: random.Random) -> Tuple[object, tuple]:
    """Pickle reducer for an exact :class:`random.Random`.

    The 624-word MT19937 state travels as one packed
    :class:`~pickle.PickleBuffer` (out of band under a protocol-5
    ``buffer_callback``), and only the word index and ``gauss_next`` stay
    in the pickle stream.  Between regenerations — every 624 draws — a
    stream's words do not change, so a checkpoint store that addresses
    buffers by content re-uses yesterday's copy.
    """
    _, internal, gauss_next = stream.getstate()
    words = array("I", internal[:-1])
    return restore_stream, (PickleBuffer(words), internal[-1], gauss_next)


def restore_stream(words, index: int, gauss_next) -> random.Random:
    """Inverse of :func:`reduce_stream`: the stream continues the same draws."""
    stream = random.Random(0)
    state = tuple(array("I", bytes(words))) + (index,)
    stream.setstate((stream.VERSION, state, gauss_next))
    return stream


#: Extra ``Pickler.dispatch_table`` entries for checkpoint payloads.  The
#: table is keyed by exact type, so subclasses keep their own reduction.
STREAM_REDUCERS = {random.Random: reduce_stream}


class RandomStreams:
    """A tree of named :class:`random.Random` instances.

    >>> streams = RandomStreams(42)
    >>> streams.get("search").random() == RandomStreams(42).get("search").random()
    True
    """

    def __init__(self, base_seed: int, path: Sequence[str] = ()):
        self.base_seed = base_seed
        self.path = tuple(path)
        self._streams: Dict[str, random.Random] = {}
        self._children: Dict[str, "RandomStreams"] = {}

    def get(self, name: str) -> random.Random:
        """Return (creating if needed) the stream with the given name."""
        if name not in self._streams:
            seed = derive_seed(self.base_seed, *self.path, name)
            self._streams[name] = random.Random(seed)
        return self._streams[name]

    def child(self, name: str) -> "RandomStreams":
        """Return a namespaced sub-tree, e.g. one per campaign."""
        if name not in self._children:
            self._children[name] = RandomStreams(self.base_seed, self.path + (name,))
        return self._children[name]

    def bounded_lognormal(
        self, name: str, mu: float, sigma: float, low: float, high: float
    ) -> float:
        """A lognormal draw clamped into [low, high]; handy for delays."""
        value = self.get(name).lognormvariate(mu, sigma)
        return max(low, min(high, value))

    def weighted_choice(self, name: str, items: Sequence[T], weights: Sequence[float]) -> T:
        return self.get(name).choices(list(items), weights=list(weights), k=1)[0]

    def __repr__(self) -> str:
        return f"RandomStreams(base_seed={self.base_seed}, path={self.path!r})"
