"""Shared-memory fan-out for the parallel job runner.

``run_many`` ships :class:`~repro.fastsim.parallel.FastSimJob`s to a
``ProcessPoolExecutor`` by pickle. A job's large read-mostly arrays —
the Zipf cumulative-weight table, a shifted rank→key mapping, a trace
workload's recorded stream — dominate that payload: at 10^8 keys the
table alone is gigabytes, and an N-worker pool holds N+1 copies. (A
stream on the identity mapping holds ``None`` for it: nothing to ship.)

This module keeps those arrays out of the pickle stream entirely:

* the parent copies each distinct array once into a
  ``multiprocessing.shared_memory`` block owned by a :class:`ShmArena`
  (deduplicated by object identity, so a Zipf table shared by twenty
  sweep cells occupies one segment);
* the object graph shipped to workers has every such array replaced by
  a tiny picklable :class:`SharedArrayRef` (:func:`extract_arrays` —
  the originals are never mutated, replacement happens on shallow
  copies);
* workers map the segments back into read-only numpy views
  (:func:`restore_arrays`), attaching each segment at most once per
  worker process regardless of how many jobs reference it.

The pickle payload per job stays a handful of scalars no matter the key
count. Read-only attachment is safe because the workload layer never
mutates shared arrays in place: rank→key *re*-mappings rebind the
attribute with a fresh array (``WorkloadModel.apply`` is documented to
return, not mutate).

Lifecycle: the arena owns the segments. ``run_many`` unlinks them in a
``finally`` as soon as the pool has drained — worker crashes included —
so no ``/dev/shm`` blocks outlive the call. :func:`leaked_segments`
scans for stragglers (used by the CI smoke and the cleanup tests);
every segment name carries :data:`SHM_PREFIX` so ours are
distinguishable from anyone else's.
"""

from __future__ import annotations

import copy
import os
import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = [
    "SHM_PREFIX",
    "MIN_SHARE_BYTES",
    "SharedArrayRef",
    "ShmArena",
    "extract_arrays",
    "restore_arrays",
    "leaked_segments",
]

#: Prefix of every segment this module creates (leak scans key on it).
SHM_PREFIX = "repro-shm-"

#: Arrays below this size ride the pickle stream as-is — a shared
#: segment costs a syscall + page mapping per worker, which only pays
#: off for large blocks.
MIN_SHARE_BYTES = 1 << 16


@dataclass(frozen=True)
class SharedArrayRef:
    """Picklable handle to one array living in a shared-memory segment."""

    name: str
    shape: tuple[int, ...]
    dtype: str


class ShmArena:
    """Parent-side owner of a set of shared-memory segments.

    ``share`` copies an array into a fresh segment (once per distinct
    array object — repeat calls return the same ref) and returns its
    handle; ``close`` unlinks everything. Always pair with
    ``try/finally``: the arena is the only owner, nothing else unlinks.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self._by_id: dict[int, SharedArrayRef] = {}
        #: Keep the shared objects alive while the arena is: id() keys
        #: are only unique while the object they came from lives.
        self._keepalive: list[np.ndarray] = []

    def share(self, array: np.ndarray) -> SharedArrayRef:
        ref = self._by_id.get(id(array))
        if ref is not None:
            return ref
        name = f"{SHM_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        segment = shared_memory.SharedMemory(
            create=True, size=max(1, array.nbytes), name=name
        )
        staged = np.ndarray(array.shape, dtype=array.dtype, buffer=segment.buf)
        staged[...] = array
        ref = SharedArrayRef(
            name=name, shape=tuple(array.shape), dtype=array.dtype.str
        )
        self._segments.append(segment)
        self._by_id[id(array)] = ref
        self._keepalive.append(array)
        return ref

    @property
    def segment_names(self) -> list[str]:
        return [segment.name for segment in self._segments]

    @property
    def total_bytes(self) -> int:
        return sum(segment.size for segment in self._segments)

    def close(self) -> None:
        """Unmap and unlink every segment (idempotent)."""
        segments, self._segments = self._segments, []
        self._by_id.clear()
        self._keepalive.clear()
        for segment in segments:
            try:
                segment.close()
                segment.unlink()
            except FileNotFoundError:  # already unlinked elsewhere
                pass

    def __enter__(self) -> "ShmArena":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: Worker-side attachment cache: pool workers are reused across jobs, so
#: each segment is mapped at most once per process.
_ATTACHED: dict[str, shared_memory.SharedMemory] = {}


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    # On 3.11/3.12 the attach re-registers the name with the resource
    # tracker (3.13's track=False isn't available). That is harmless —
    # pool workers share the parent's tracker process, whose cache is a
    # set, so the parent's unlink still balances the books. Do NOT
    # unregister here: a worker-side unregister empties the shared cache
    # early and the parent's unlink then trips a KeyError inside the
    # tracker.
    return shared_memory.SharedMemory(name=name)


def attach(ref: SharedArrayRef) -> np.ndarray:
    """Map a handle back to a read-only numpy view of the segment."""
    segment = _ATTACHED.get(ref.name)
    if segment is None:
        segment = _attach_segment(ref.name)
        _ATTACHED[ref.name] = segment
    array = np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=segment.buf)
    array.flags.writeable = False
    return array


def _is_leaf(value: object) -> bool:
    """Values never worth walking into for arrays."""
    return isinstance(
        value,
        (
            np.random.Generator,
            np.random.BitGenerator,
            np.random.SeedSequence,
            str,
            bytes,
            int,
            float,
            bool,
            type(None),
        ),
    )


def extract_arrays(
    obj: object,
    arena: ShmArena,
    min_bytes: int = MIN_SHARE_BYTES,
    _depth: int = 4,
) -> object:
    """Replace large ndarrays in ``obj``'s object graph with shared refs.

    Returns a structurally-shallow copy wherever a replacement happened
    (the original graph is never touched); objects without large arrays
    are returned as-is. The walk covers ndarray attributes up to
    ``_depth`` levels of ``__dict__``-bearing objects plus list/tuple/
    dict containers — enough for every stream in the repo (stream →
    zipf → table; stream → a shifted rank_to_key; a replay stream's own
    ``_times`` / ``_ranks`` / ``_keys``).
    """
    if isinstance(obj, np.ndarray):
        if obj.nbytes >= min_bytes and obj.dtype != object:
            return arena.share(obj)
        return obj
    if _depth <= 0 or _is_leaf(obj):
        return obj
    if isinstance(obj, (list, tuple)):
        swapped = [
            extract_arrays(item, arena, min_bytes, _depth - 1) for item in obj
        ]
        if all(new is old for new, old in zip(swapped, obj)):
            return obj
        return type(obj)(swapped)
    if isinstance(obj, dict):
        swapped_dict = {
            key: extract_arrays(value, arena, min_bytes, _depth - 1)
            for key, value in obj.items()
        }
        if all(swapped_dict[key] is obj[key] for key in obj):
            return obj
        return swapped_dict
    attributes = getattr(obj, "__dict__", None)
    if not isinstance(attributes, dict):
        return obj
    replacements = {
        key: swapped
        for key, value in attributes.items()
        if (swapped := extract_arrays(value, arena, min_bytes, _depth - 1))
        is not value
    }
    if not replacements:
        return obj
    clone = copy.copy(obj)
    for key, value in replacements.items():
        # object.__setattr__ so frozen dataclasses in the graph clone too.
        object.__setattr__(clone, key, value)
    return clone


def restore_arrays(obj: object, _depth: int = 4) -> object:
    """Worker-side inverse of :func:`extract_arrays`.

    Swaps every :class:`SharedArrayRef` for a read-only view of its
    segment. A graph holding refs is the worker's private unpickled copy,
    so restoration happens in place where possible; a graph without refs
    (a workload that was never staged) comes back untouched.
    """
    if isinstance(obj, SharedArrayRef):
        return attach(obj)
    if _depth <= 0 or _is_leaf(obj) or isinstance(obj, np.ndarray):
        return obj
    if isinstance(obj, (list, tuple)):
        restored = [restore_arrays(item, _depth - 1) for item in obj]
        if all(new is old for new, old in zip(restored, obj)):
            return obj
        return type(obj)(restored)
    if isinstance(obj, dict):
        restored_dict = {
            key: restore_arrays(value, _depth - 1)
            for key, value in obj.items()
        }
        if all(restored_dict[key] is obj[key] for key in obj):
            return obj
        return restored_dict
    attributes = getattr(obj, "__dict__", None)
    if not isinstance(attributes, dict):
        return obj
    for key, value in list(attributes.items()):
        restored = restore_arrays(value, _depth - 1)
        if restored is not value:
            object.__setattr__(obj, key, restored)
    return obj


def leaked_segments() -> list[str]:
    """Names of this module's segments still present in ``/dev/shm``.

    Empty on platforms without a ``/dev/shm`` (the CI runners and dev
    boxes this repo targets are Linux, where POSIX shared memory is a
    tmpfs entry per segment).
    """
    try:
        entries = os.listdir("/dev/shm")
    except OSError:
        return []
    return sorted(entry for entry in entries if entry.startswith(SHM_PREFIX))
