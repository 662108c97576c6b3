"""The cyclic collector's policy: the one module that switches it.

Reference counting frees every object graph a run builds — an event
substrate and a calibration probe's substrate are acyclic
(``tests/integration/test_acyclic_substrates.py``) — so the cyclic
collector has nothing to find in them, only ground to walk. Two places
keep it off that ground:

* :func:`long_lived` builds an event cell's substrate with automatic
  collection off and freezes it for the cell's query loop;
* :func:`freeze_for_exit` freezes the whole heap once a command-line run
  is done, so interpreter finalization does not traverse it.

No other module under ``src/repro`` may call ``gc.disable``, ``enable``,
``freeze``, ``unfreeze``, ``collect`` or ``set_threshold`` (RL109 in
``tests/test_invariants.py``). Imported by the runner, so it imports no
numpy.
"""

from __future__ import annotations

import gc
import sys
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

__all__ = ["freeze_for_exit", "long_lived"]

_T = TypeVar("_T")


@contextmanager
def long_lived(build: Callable[[], _T]) -> Iterator[_T]:
    """Build a large object graph that lives exactly as long as the
    ``with`` body, keeping the cyclic collector off it for that long.

    An event substrate is ~400k containers that reference counting alone
    manages, allocated in one burst and then only read. Left alone, the
    collector walks the growing graph hundreds of times while it is
    built and again in every older-generation pass of the query loop.
    So: build with automatic collection off, and freeze the result out
    of every later pass; the body's own garbage is collected as usual.
    On every way out the heap is unfrozen and automatic collection is as
    the caller had it — a caller that had switched it off never sees it
    on. The graph itself is freed by reference counting once the caller
    drops it.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        built = build()
        gc.freeze()
        if was_enabled:
            gc.enable()
        yield built
    finally:
        gc.unfreeze()
        if was_enabled:
            gc.enable()


def freeze_for_exit() -> None:
    """Ready the process to exit: close the ``REPRO_STORE`` handle, then
    freeze the heap so that finalization frees modules without walking
    every object the run left behind.

    A frozen object is never collected, so a handle that only the
    collector would close must be closed first: an SQLite connection
    left open keeps its ``-wal`` and ``-shm`` files beside the database.
    Only the command-line entry point calls this, after ``main()``
    returns; ``main()`` itself leaves the collector as it found it.
    """
    # A run that never touched a store has no handle to close, and need
    # not import sqlite3 to find that out.
    store = sys.modules.get("repro.store.store")
    if store is not None:
        store.close_env_store()
    gc.freeze()
