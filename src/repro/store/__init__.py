"""``repro.store`` — content-addressed artifact store + resumable sweeps.

A zero-dependency (stdlib SQLite) persistent cache for the expensive
artifacts of the reproduction pipeline. Each kind is declared once, in
:data:`repro.store.schema.KINDS` (schema rev, payload tag, codec):

``costs`` / ``churn_costs`` / ``lookup_probe``
    Event-substrate calibrations — the dominant fixed cost of every
    vectorized run. Their probes in :mod:`repro.fastsim.compare` are
    :func:`~repro.store.memo.stored`, so with a store active the
    per-process ``lru_cache`` becomes an L1 over this disk L2, and fresh
    processes (including ``run_many`` workers) never re-pay a probe
    already on disk.
``sweep_cell``
    One kernel run (a :class:`~repro.fastsim.parallel.FastSimJob`'s
    report). ``run_many`` — and therefore ``sweep_grid`` — loads cells
    already stored and computes only the misses, making interrupted
    sweeps resumable with bit-identical merged results.
``replicate``
    One seed's finished figure from ``api.run``: every simulated run
    with a store, ``replicates=1`` included, so a repeated run is one
    lookup.

Keys are sha-256 hashes over a canonical envelope of
``(kind, per-kind schema rev, repro.__version__, inputs)`` where the
inputs record the frozen workload model, scenario/config parameters,
seed, and per-op cost inputs — change any of these and the artifact is
recomputed; change none and it is reused. See :mod:`repro.store.keys`.
Every row also carries the sha-256 of its payload text, checked on
load: a row that no longer matches is a counted miss and is recomputed.

Activate with ``--store PATH`` on the experiment runner, the
``REPRO_STORE`` environment variable, or programmatically::

    from repro.store import Store, using_store

    with using_store(Store("artifacts.sqlite")):
        sweep_grid(axes, scenario)   # resumable

``--no-store`` (or ``using_store(None)``) explicitly disables all
store traffic, masking ``REPRO_STORE``.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.store.db": ("Database",),
    "repro.store.store": (
        "Store",
        "STORE_ENV",
        "active_store",
        "open_store",
        "using_store",
    ),
    "repro.store.schema": ("KINDS", "MIGRATIONS", "SCHEMA_VERSION"),
    "repro.store.keys": ("canonical", "canonical_json", "content_key"),
    "repro.store.memo": ("stored",),
})
