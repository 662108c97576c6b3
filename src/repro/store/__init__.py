"""``repro.store`` — content-addressed artifact store + resumable sweeps.

A zero-dependency (stdlib SQLite) persistent cache for the expensive
artifacts of the reproduction pipeline:

``costs`` / ``churn_costs`` / ``lookup_probe``
    Event-substrate calibrations — the dominant fixed cost of every
    vectorized run. With a store active, the per-process ``lru_cache``
    in :mod:`repro.fastsim.compare` becomes an L1 over this disk L2, so
    fresh processes (including ``run_many`` workers) never re-pay a
    probe already on disk.
``sweep_cell``
    One kernel run (a :class:`~repro.fastsim.parallel.FastSimJob`'s
    report). ``run_many`` — and therefore ``sweep_grid`` — loads cells
    already stored and computes only the misses, making interrupted
    sweeps resumable with bit-identical merged results.
``replicate``
    One seed's figure payload from ``api.run(replicates=N)``.
``result``
    A full provenance-stamped experiment-result export.

Keys are sha-256 hashes over a canonical envelope of
``(kind, per-kind schema rev, repro.__version__, inputs)`` where the
inputs record the frozen workload model, scenario/config parameters,
seed, and per-op cost inputs — change any of these and the artifact is
recomputed; change none and it is reused. See :mod:`repro.store.keys`.

Activate with ``--store PATH`` on the experiment runner, the
``REPRO_STORE`` environment variable, or programmatically::

    from repro.store import Store, using_store

    with using_store(Store("artifacts.sqlite")):
        sweep_grid(axes, scenario)   # resumable

``--no-store`` (or ``using_store(None)``) explicitly disables all
store traffic, masking ``REPRO_STORE``.
"""

from repro.store.db import Database
from repro.store.keys import canonical, canonical_json, content_key
from repro.store.schema import (
    ARTIFACT_KINDS,
    ARTIFACT_SCHEMA_REVS,
    MIGRATIONS,
    SCHEMA_VERSION,
)
from repro.store.store import (
    STORE_ENV,
    Store,
    active_store,
    open_store,
    using_store,
)

__all__ = [
    "Database",
    "Store",
    "STORE_ENV",
    "ARTIFACT_KINDS",
    "ARTIFACT_SCHEMA_REVS",
    "MIGRATIONS",
    "SCHEMA_VERSION",
    "canonical",
    "canonical_json",
    "content_key",
    "active_store",
    "open_store",
    "using_store",
]
