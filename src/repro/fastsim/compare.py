"""Cross-engine agreement: the fast path must reproduce the event engine.

The tools:

* :func:`calibrate_costs` — measure the event engine's actual per-operation
  message costs (DHT lookup hops, replica-flood size, broadcast-walk
  length, maintenance rate) off a real :class:`~repro.pdht.network.PdhtNetwork`
  substrate, so the kernel charges what the event engine *measures* rather
  than what the model predicts;
* :func:`calibrate_churn_costs` — the same idea at a given availability:
  run an instrumented probe workload (plus interleaved broadcast-walk
  probes) on a *churned* substrate, classify every query against a
  shadow TTL tracker mirroring the kernel's index recurrence, and read
  off the availability-dependent per-op costs and hit-path fractions the
  kernel's churn model charges (:class:`~repro.fastsim.churncosts.ChurnOpCosts`);
* :func:`compare_engines` / :func:`compare_engines_churn` /
  :func:`compare_engines_staleness` — run the same scenario through both
  engines over several seeds and report the relative disagreement of the
  aggregate hit rate, total message cost and (for staleness) the stale
  hit fraction.

The agreement property tests and the ``cross_engine_10k`` rows of
``benchmarks/gates.py`` are thin wrappers around the ``compare_engines*``
family.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.obs.clock import perf_counter
from repro.analysis.costs import c_search_index
from repro.analysis.parameters import ScenarioParameters
from repro.analysis.zipf import ZipfDistribution
from repro.errors import ParameterError, require_period
from repro.fastsim.churncosts import ChurnOpCosts, conditional_walk_failure
from repro.fastsim.kernel import PerOpCosts, run_fastsim
from repro.fastsim.workload import BatchWorkload
from repro.net.churn import ChurnConfig
from repro.pdht.config import PdhtConfig
from repro.pdht.strategies import key_name
from repro.sim.engine import whole_rounds

__all__ = [
    "CALIBRATION_LIMIT",
    "calibrate_costs",
    "calibration_cache_stats",
    "probe_substrates_built",
    "costs_for",
    "calibrate_churn_costs",
    "churn_costs_for",
    "churn_config_for_availability",
    "EngineAgreement",
    "compare_engines",
    "compare_engines_churn",
    "compare_engines_staleness",
    "staleness_probe_event",
    "staleness_probe_fast",
]


#: Largest scenario the facade will calibrate against the event engine;
#: beyond it, building the substrate costs more than it informs and the
#: analytical Eq. 6-8/16 costs are used instead.
CALIBRATION_LIMIT = 5_000


#: The observable calibration caches, by short name: each
#: ``obs.counted_cache(..., registry=_CALIBRATION_CACHES)`` below adds
#: itself; :func:`calibration_cache_stats` reads it back. They are
#: per-process — every fresh process pays calibration again — unless an
#: artifact store is active, in which case they are an L1 over the disk
#: tier (see :func:`_active_store`).
_CALIBRATION_CACHES: dict[str, object] = {}


def calibration_cache_stats() -> dict[str, dict[str, int]]:
    """Hit/miss/size statistics of every calibration cache, by name.

    Makes the per-process calibration cost visible: a profile showing
    ``misses == calls`` in a worker means that worker rebuilt every
    substrate from scratch (the in-memory caches do not survive process
    boundaries; the artifact store does).
    """
    return obs.cache_stats(_CALIBRATION_CACHES)


#: Event substrates built for a probe in this process so far.
_probe_substrates = 0


def probe_substrates_built() -> int:
    """How many event substrates this process has built to measure a cost.

    Moves only when a probe really constructs a
    :class:`~repro.pdht.network.PdhtNetwork` — not on a cache miss that
    the artifact store or an analytical formula answers — so a caller can
    tell whether resolving costs left dead substrates behind.
    """
    return _probe_substrates


def _probe_network(*args, **kwargs) -> "PdhtNetwork":
    """The substrate a probe measures on, counted."""
    from repro.pdht.network import PdhtNetwork

    global _probe_substrates
    _probe_substrates += 1
    return PdhtNetwork(*args, **kwargs)


def _active_store():
    """The artifact store calibrations read through, or ``None``.

    Resolved lazily per call (import and lookup) so ``repro.store``
    stays an optional layer: with no store configured every calibration
    behaves exactly as before.
    """
    from repro.store.store import active_store

    return active_store()


def calibrate_costs(
    params: ScenarioParameters,
    config: Optional[PdhtConfig] = None,
    seed: int = 0,
    lookup_probes: int = 512,
    flood_probes: int = 128,
    walk_probes: int = 512,
    num_active_peers: Optional[int] = None,
) -> PerOpCosts:
    """Measure per-operation costs on a real event-engine substrate.

    Builds the same :class:`~repro.pdht.network.PdhtNetwork` the
    partial-selection strategy would (same default ``numActivePeers``
    unless one is given) and probes it with the workload's own key
    universe: DHT lookups for Zipf-drawn keys (lookups happen per query,
    so hot keys' responsible members dominate), replica-subnetwork floods
    for uniform-drawn keys (floods happen on misses, which the cold tail
    dominates), and broadcast walks for freshly published probe keys.
    Means over the probes become the kernel's per-op charges.
    """
    if min(lookup_probes, flood_probes, walk_probes) < 1:
        raise ParameterError("probe counts must be >= 1")
    config = config or PdhtConfig.from_scenario(params)
    store = _active_store()
    inputs = {
        "params": params,
        "config": config,
        "seed": seed,
        "lookup_probes": lookup_probes,
        "flood_probes": flood_probes,
        "walk_probes": walk_probes,
        "num_active_peers": num_active_peers,
    }
    if store is not None:
        stored = store.load_costs(inputs)
        if stored is not None:
            return stored
    with obs.span("calibrate.costs", peers=params.num_peers, seed=seed):
        costs = _calibrate_costs_probe(
            params,
            config,
            seed,
            lookup_probes,
            flood_probes,
            walk_probes,
            num_active_peers,
        )
    if store is not None:
        store.save_costs(inputs, costs)
    return costs


def _calibrate_costs_probe(
    params: ScenarioParameters,
    config: Optional[PdhtConfig],
    seed: int,
    lookup_probes: int,
    flood_probes: int,
    walk_probes: int,
    num_active_peers: Optional[int],
) -> PerOpCosts:
    config = config or PdhtConfig.from_scenario(params)
    net = _probe_network(
        params, config, seed=seed, num_active_peers=num_active_peers
    )
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    members = net.dht.online_members()
    zipf = ZipfDistribution(params.n_keys, params.alpha)

    # Keys are named by the event engine's key_name, so the probes hash to
    # the same responsible members the real workload exercises.
    lookup_total = 0.0
    for rank in zipf.sample_ranks(rng, lookup_probes):
        gateway = members[int(rng.integers(0, len(members)))]
        key = key_name(int(rank) - 1)
        lookup_total += net.dht.lookup(gateway, key).messages

    flood_total = 0.0
    for key_index in rng.integers(0, params.n_keys, size=flood_probes):
        responsible = net.dht.responsible_for(key_name(int(key_index)))
        _, messages = net.group_of(responsible).flood(responsible)
        flood_total += messages

    # Placement draws from its own stream, so publishing every probe key
    # first leaves each walk what it would have found one key at a time.
    net.publish_all({f"cal-walk-{i}": i for i in range(walk_probes)})
    walk_total = 0.0
    for i in range(walk_probes):
        walk = net.walker.search(net.random_online_peer(), f"cal-walk-{i}")
        walk_total += walk.messages

    return PerOpCosts(
        lookup=lookup_total / lookup_probes,
        flood=flood_total / flood_probes,
        walk=walk_total / walk_probes,
        gateway_discovery=2.0,
        maintenance_per_round=net.maintenance.expected_rate(),
        num_active_peers=len(members),
        source="calibrated",
    )


def costs_for(
    params: ScenarioParameters,
    config: PdhtConfig,
    num_active_peers: int,
    seed: int = 0,
) -> PerOpCosts:
    """The kernel's default cost policy: calibrate while the event-engine
    substrate is cheap to build, fall back to the analytical Eq. 6-8/16
    expressions beyond :data:`CALIBRATION_LIMIT` peers.

    Calibration is what keeps ``engine="vectorized"`` figures quantitatively
    interchangeable with the event engine (the analytical costs idealise
    e.g. routing-table sizes and can reorder strategies); the cache makes
    repeated runs over the same scenario pay for the substrate once.

    Each distinct ``num_active_peers`` calibrates its own substrate (the
    lookup and maintenance costs genuinely depend on the DHT size), so a
    four-strategy comparison below the limit builds up to four probe
    networks — sub-second each at these scales, and amortised by the
    cache across repeated figure runs. Per-op costs are rate- and
    TTL-independent (probes never exercise the TTL stores), so the cache
    key normalises ``query_freq``/``update_freq``/``key_ttl`` and a
    frequency sweep reuses one calibration per DHT size.
    """
    return _costs_for_cached(
        dc_replace(params, query_freq=1.0, update_freq=0.0),
        config.with_ttl(0.0),
        num_active_peers,
        seed,
    )


@obs.counted_cache("costs", maxsize=64, registry=_CALIBRATION_CACHES)
def _costs_for_cached(
    params: ScenarioParameters,
    config: PdhtConfig,
    num_active_peers: int,
    seed: int,
) -> PerOpCosts:
    if params.num_peers <= CALIBRATION_LIMIT:
        return calibrate_costs(
            params,
            config,
            seed=seed,
            lookup_probes=256,
            flood_probes=64,
            walk_probes=256,
            num_active_peers=num_active_peers,
        )
    return PerOpCosts.analytical(
        params, config, num_active_peers=num_active_peers
    )


def churn_config_for_availability(
    availability: float, mean_session: float = 1800.0
) -> Optional[ChurnConfig]:
    """The :class:`ChurnConfig` hitting a target stationary availability
    (mean session fixed, offline time derived); None at availability 1."""
    if not 0.0 < availability <= 1.0:
        raise ParameterError(
            f"availability must be in (0, 1], got {availability}"
        )
    if availability == 1.0:
        return None
    return ChurnConfig(
        mean_session=mean_session,
        mean_offline=mean_session * (1.0 - availability) / availability,
    )


def calibrate_churn_costs(
    params: ScenarioParameters,
    churn: ChurnConfig,
    config: Optional[PdhtConfig] = None,
    seed: int = 0,
    warmup: float = 60.0,
    rounds: float = 200.0,
    walk_probes: int = 600,
    model: "WorkloadModel | None" = None,
) -> ChurnOpCosts:
    """Measure availability-dependent per-op costs on a churned substrate.

    Builds the same churned :class:`~repro.pdht.network.PdhtNetwork` the
    event-engine strategies run on, warms its index with the scenario's
    own Zipf workload, then keeps driving that workload for ``rounds``
    while classifying every query against a *shadow* TTL tracker that
    mirrors the kernel's per-key max-expiry recurrence:

    * shadow-live query answered without a flood -> direct hit;
    * shadow-live query answered after the replica-group flood -> the
      responsible-peer-turnover surcharge (``hit_flood_fraction``);
    * shadow-live query that misses anyway -> ``turnover_miss``;
    * shadow-dead query -> an ordinary miss, whose flood/walk/insert
      messages calibrate the per-event costs.

    Broadcast-walk probes (fresh keys, random online origins) are
    interleaved with the workload rounds so the failure probability and
    the resolved/failed walk costs are sampled across the same churn
    trajectory the comparison runs traverse, not one frozen percolation
    snapshot. The probe runs the *actual* :class:`ChurnConfig` (not just
    its stationary availability): session length controls how fast the
    online mask mixes, which the walk statistics inherit.

    ``model`` makes the calibration *rank-permutation aware*: the probe
    drives that :class:`~repro.workloads.models.WorkloadModel`'s own
    query stream — realizing the model's rank -> key mapping per segment
    — instead of the stationary identity mapping, so the hit-path
    fractions (turnover misses, hit floods) and the hot-key lookup mix
    reflect the shifting workload the kernel will actually run.
    """
    config = config or PdhtConfig.from_scenario(params)
    store = _active_store()
    inputs = {
        "params": params,
        "churn": churn,
        "config": config,
        "seed": seed,
        "warmup": warmup,
        "rounds": rounds,
        "walk_probes": walk_probes,
        "model": model,
    }
    if store is not None:
        stored = store.load_churn_costs(inputs)
        if stored is not None:
            return stored
    with obs.span(
        "calibrate.churn",
        peers=params.num_peers,
        availability=getattr(churn, "availability", None),
        seed=seed,
    ):
        costs = _calibrate_churn_costs_probe(
            params, churn, config, seed, warmup, rounds, walk_probes, model
        )
    if store is not None:
        store.save_churn_costs(inputs, costs)
    return costs


def _calibrate_churn_costs_probe(
    params: ScenarioParameters,
    churn: ChurnConfig,
    config: Optional[PdhtConfig],
    seed: int,
    warmup: float,
    rounds: float,
    walk_probes: int,
    model: "WorkloadModel | None",
) -> ChurnOpCosts:
    from repro.sim.metrics import MessageCategory
    from repro.workloads.models import StationaryZipf

    if not churn.enabled:
        raise ParameterError(
            "calibrate_churn_costs needs enabled churn "
            "(the no-churn costs come from calibrate_costs)"
        )
    availability = churn.availability
    if warmup < 0 or rounds <= 0:
        raise ParameterError("need warmup >= 0 and rounds > 0")
    if int(round(warmup + rounds)) <= int(round(warmup)):
        raise ParameterError(
            f"rounds={rounds} adds no measuring round after "
            f"warmup={warmup}; use at least one whole round"
        )
    if walk_probes < 1:
        raise ParameterError(f"walk_probes must be >= 1, got {walk_probes}")
    config = config or PdhtConfig.from_scenario(params)
    net = _probe_network(params, config, seed=seed, churn=churn)
    net.publish_all({key_name(i): i for i in range(params.n_keys)})
    # The walk probes' keys too: nothing else draws from the placement
    # stream, so each probe key gets the holders it would get published
    # just before its walk, and no query's walk can see a probe key.
    net.publish_all(
        {f"churn-cal-{serial}": serial + 1 for serial in range(walk_probes)}
    )
    workload = (model or StationaryZipf()).build(
        ZipfDistribution(params.n_keys, params.alpha),
        net.streams.get("churn-cal-queries"),
    )
    count_rng = net.streams.get("churn-cal-counts")
    probe_rng = net.streams.get("churn-cal-probes")
    rate = params.network_query_rate
    key_ttl = config.key_ttl
    shadow = np.full(params.n_keys, -np.inf)

    direct_hits = flooded_hits = turnover = shadow_live = 0
    lookup_sum = lookup_n = 0
    miss_lookup_sum = 0
    hit_flood_sum = miss_flood_sum = miss_flood_n = 0
    insert_sum = insert_n = 0
    resolved_sum = resolved_n = 0
    failed_sum = failed_n = walks = 0
    maintenance_start: Optional[float] = None

    total_rounds = int(round(warmup + rounds))
    measure_from = int(round(warmup))
    # Diff of the *rounded cumulative* schedule: the per-round quotas sum
    # to exactly walk_probes for any probes/rounds ratio (rounding each
    # quota independently collapses to zero below 0.5 probes per round).
    probes_per_round = [
        int(n)
        for n in np.diff(
            np.round(
                np.linspace(
                    0, walk_probes, max(total_rounds - measure_from, 1) + 1
                )
            )
        )
    ]
    probe_serial = 0
    query_seconds = probe_seconds = 0.0
    queries = 0
    for round_index in range(total_rounds):
        net.advance(1.0)
        now = net.simulation.now
        measuring = round_index >= measure_from
        if measuring and maintenance_start is None:
            maintenance_start = net.metrics.total(MessageCategory.MAINTENANCE)
        count = int(count_rng.poisson(rate * workload.rate_multiplier(now)))
        queries_started = perf_counter()
        for _, key_index in workload.draw(now, count):
            key = key_name(key_index)
            try:
                origin = net.random_online_peer()
            except ParameterError:
                continue  # nobody online to originate (extreme churn)
            outcome = net.query(origin, key)
            queries += 1
            live = shadow[key_index] > now
            if outcome.via_index or outcome.found:
                shadow[key_index] = now + key_ttl
            if not measuring:
                continue
            lookup_sum += outcome.index_messages
            lookup_n += 1
            if outcome.via_index:
                if outcome.flood_messages:
                    flooded_hits += 1
                    hit_flood_sum += outcome.flood_messages
                else:
                    direct_hits += 1
            else:
                miss_lookup_sum += outcome.index_messages
                miss_flood_sum += outcome.flood_messages
                miss_flood_n += 1
                walks += 1
                if outcome.found:
                    resolved_sum += outcome.walk_messages
                    resolved_n += 1
                    insert_sum += outcome.insert_messages
                    insert_n += 1
                else:
                    failed_sum += outcome.walk_messages
                    failed_n += 1
            if live:
                shadow_live += 1
                if not outcome.via_index:
                    turnover += 1
        probes_started = perf_counter()
        query_seconds += probes_started - queries_started
        if measuring:
            for _ in range(probes_per_round[round_index - measure_from]):
                try:
                    origin = net.random_online_peer()
                except ParameterError:
                    break  # nobody online this round
                probe_key = f"churn-cal-{probe_serial}"
                probe_serial += 1
                walk = net.walker.search(origin, probe_key)
                walks += 1
                if walk.found:
                    resolved_sum += walk.messages
                    resolved_n += 1
                else:
                    failed_sum += walk.messages
                    failed_n += 1
            probe_seconds += perf_counter() - probes_started
    obs.add_duration("calibrate.churn.queries", query_seconds, n=queries)
    obs.add_duration(
        "calibrate.churn.walk_probes", probe_seconds, n=probe_serial
    )

    maintenance = (
        net.metrics.total(MessageCategory.MAINTENANCE)
        - (maintenance_start or 0.0)
    ) / rounds
    lookup = lookup_sum / max(lookup_n, 1)
    miss_lookup = miss_lookup_sum / miss_flood_n if miss_flood_n else lookup
    hits = direct_hits + flooded_hits
    hit_flood = hit_flood_sum / flooded_hits if flooded_hits else 0.0
    probe_flood_rng = net.streams.get("churn-cal-flood-fallback")
    if miss_flood_n:
        miss_flood = miss_flood_sum / miss_flood_n
    else:
        from repro.fastsim.churncosts import structural_flood_cost

        miss_flood = structural_flood_cost(
            config.replication, config.replica_degree, availability,
            probe_flood_rng,
        )
    # The insert re-looks-up the key that just missed, so its flood share
    # is whatever remains after that (cheaper, tail-keyed) lookup.
    insert_flood = (
        max(insert_sum / insert_n - miss_lookup, 0.0)
        if insert_n
        else miss_flood
    )
    return ChurnOpCosts(
        availability=availability,
        lookup=lookup,
        miss_lookup=miss_lookup,
        hit_flood=hit_flood if flooded_hits else miss_flood,
        miss_flood=miss_flood,
        insert_flood=insert_flood,
        resolved_walk=resolved_sum / resolved_n if resolved_n else 0.0,
        failed_walk=(
            failed_sum / failed_n
            if failed_n
            else float(config.walkers * config.walk_ttl)
        ),
        walk_failure=conditional_walk_failure(
            failed_n / walks if walks else 0.0,
            availability,
            config.replication,
        ),
        hit_flood_fraction=flooded_hits / hits if hits else 0.0,
        turnover_miss=turnover / shadow_live if shadow_live else 0.0,
        maintenance_per_round=max(maintenance, 0.0),
        num_active_peers=len(net.nodes),
        source="calibrated",
    )


def churn_costs_for(
    params: ScenarioParameters,
    config: PdhtConfig,
    num_active_peers: int,
    churn: ChurnConfig,
    base: PerOpCosts,
    seed: int = 0,
    model: "WorkloadModel | None" = None,
) -> ChurnOpCosts:
    """The kernel's default churn-cost policy, mirroring :func:`costs_for`:
    measure on a churned event-engine substrate while one is cheap to
    build, fall back to the structural Monte-Carlo estimators beyond
    :data:`CALIBRATION_LIMIT` peers.

    The calibration probe runs at the network's own DHT sizing; when a
    strategy asks for a different ``num_active_peers`` (indexAll's full
    index, partialIdeal's threshold) the member-dependent costs (lookup,
    maintenance) are rescaled analytically to the requested online
    membership. Walks depend on the overlay, not the DHT size, and carry
    over unchanged; floods normally do too (groups hold ``replication``
    members either way) except when a DHT is smaller than the
    replication factor, where the flood costs are rescaled to the
    undersized merged group (see :func:`_rescale_members`).

    Cost note: below the limit the probe drives a real event-engine
    workload for ~260 rounds per (scenario, config, churn, seed), so a
    *sub-limit* ``engine="vectorized"`` churn run pays roughly one
    event-engine run per availability and seed up front (cached across
    repeats; unlike ``costs_for`` the cache key cannot normalise
    ``key_ttl``/``query_freq`` — the measured hit-path fractions
    genuinely depend on them). That is the price of 5% fidelity where
    the event engine is still tractable; the kernel's scale advantage
    is beyond the limit, where the structural estimators replace the
    probe entirely.
    """
    if params.num_peers <= CALIBRATION_LIMIT:
        calibrated = _churn_costs_cached(params, config, churn, seed, model)
        return _rescale_members(
            calibrated, num_active_peers, config, params, seed
        )
    return ChurnOpCosts.structural(
        params,
        config,
        num_active_peers,
        churn.availability,
        base_walk=base.walk,
        base_flood=base.flood,
        base_maintenance=base.maintenance_per_round,
        seed=seed,
    )


@obs.counted_cache("churn_costs", maxsize=32, registry=_CALIBRATION_CACHES)
def _churn_costs_cached(
    params: ScenarioParameters,
    config: PdhtConfig,
    churn: ChurnConfig,
    seed: int,
    model: "WorkloadModel | None" = None,
) -> ChurnOpCosts:
    return calibrate_churn_costs(params, churn, config, seed=seed, model=model)


def resolve_costs(
    params: ScenarioParameters,
    config: PdhtConfig,
    num_active_peers: int,
    seed: int = 0,
    churn: Optional[ChurnConfig] = None,
    workload: Optional[BatchWorkload] = None,
    costs: Optional[PerOpCosts] = None,
    churn_costs: Optional[ChurnOpCosts] = None,
) -> tuple[PerOpCosts, Optional[ChurnOpCosts]]:
    """The ``(costs, churn_costs)`` one run charges: given values pass
    through, missing ones come from the default policies.

    The single resolution :class:`~repro.fastsim.kernel.FastSimKernel`
    and :func:`~repro.fastsim.parallel.resolve_jobs` share, so a run
    whose kernel resolves for itself and one resolved in the pool's
    parent charge identical costs. ``num_active_peers`` is the DHT size
    of the run's strategy policy
    (:func:`~repro.fastsim.kernel.strategy_setup`). Churn costs are
    resolved only under enabled churn, at the run's own ``seed`` (they
    are substrate-realisation properties — which hot keys' responsible
    members churn — and ``PdhtNetwork(seed)`` is the substrate the event
    engine would run), scaled from ``costs``. The
    ``workload``'s model is threaded into that calibration so the probe
    drives the same shifting rank->key mapping the kernel will run
    (rank-permutation awareness); no workload is the stationary stream.
    """
    costs = costs or costs_for(params, config, num_active_peers)
    if churn_costs is None and churn is not None and churn.enabled:
        model = (
            workload.model.calibration_model if workload is not None else None
        )
        churn_costs = churn_costs_for(
            params, config, num_active_peers, churn, base=costs, seed=seed,
            model=model,
        )
    return costs, churn_costs


@obs.counted_cache("lookup_probe", maxsize=64, registry=_CALIBRATION_CACHES)
def _churned_lookup_probe(
    params: ScenarioParameters,
    config: PdhtConfig,
    availability: float,
    num_active_peers: int,
    seed: int,
    probes: int = 256,
    mask_epochs: int = 4,
) -> float:
    """Measured per-lookup messages on a churned substrate of a given size.

    Builds the real DHT at ``num_active_peers`` members, draws several
    stationary online masks (averaging out the single-realization noise a
    short churn trajectory cannot mix away) and probes Zipf-drawn lookups
    from random online members — the same hot-key mix the query path
    routes. This is the measured stand-in the member rescale uses where
    the analytic ``c_search_index`` ratio misrepresents how churn
    reshapes lookups: offline routing references shorten some routes
    (the responsible-peer hand-over) and detour others, with a net
    effect that genuinely depends on the trie size.
    """
    store = _active_store()
    inputs = {
        "params": params,
        "config": config,
        "availability": availability,
        "num_active_peers": num_active_peers,
        "seed": seed,
        "probes": probes,
        "mask_epochs": mask_epochs,
    }
    if store is not None:
        stored = store.load_probe(inputs)
        if stored is not None:
            return stored
    with obs.span(
        "calibrate.lookup_probe",
        peers=params.num_peers,
        members=num_active_peers,
    ):
        value = _churned_lookup_probe_impl(
            params, config, availability, num_active_peers, seed, probes,
            mask_epochs,
        )
    if store is not None:
        store.save_probe(inputs, value)
    return value


def _churned_lookup_probe_impl(
    params: ScenarioParameters,
    config: PdhtConfig,
    availability: float,
    num_active_peers: int,
    seed: int,
    probes: int,
    mask_epochs: int,
) -> float:
    from repro.errors import RoutingError

    net = _probe_network(
        params, config, seed=seed, num_active_peers=num_active_peers
    )
    rng = np.random.default_rng(
        np.random.SeedSequence([seed, 0x10CF, num_active_peers])
    )
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    all_members = list(net.dht.online_members())  # everyone online at build
    now = net.simulation.now
    total = 0.0
    measured = 0
    per_epoch = max(1, probes // mask_epochs)
    for _ in range(mask_epochs):
        # A fresh stationary mask per epoch, guaranteed non-empty.
        mask = rng.random(len(all_members)) < availability
        if not mask.any():
            mask[int(rng.integers(0, len(all_members)))] = True
        for member, online in zip(all_members, mask):
            net.population.set_online(member, bool(online), now)
        online_members = [m for m, o in zip(all_members, mask) if o]
        for rank in zipf.sample_ranks(rng, per_epoch):
            gateway = online_members[
                int(rng.integers(0, len(online_members)))
            ]
            try:
                total += net.dht.lookup(
                    gateway, key_name(int(rank) - 1)
                ).messages
            except RoutingError:
                continue
            measured += 1
    # Leave the probe population online (the network object is discarded,
    # but a tidy state keeps accidental reuse harmless).
    for member in all_members:
        net.population.set_online(member, True, now)
    return total / max(measured, 1)


def _rescale_members(
    costs: ChurnOpCosts,
    num_active_peers: int,
    config: PdhtConfig,
    params: ScenarioParameters,
    seed: int = 0,
) -> ChurnOpCosts:
    """Adjust the member-dependent costs to a different DHT size.

    Lookups and maintenance scale with the member count; floods normally
    carry over unchanged (replica groups hold ``replication`` members
    regardless of the DHT size) — *except* when one of the two DHTs is
    smaller than the replication factor, where the event engine merges
    everyone into a single undersized group (partialIdeal's
    threshold-sized DHT is the common case). There the flood-type costs
    are rescaled by the structural Monte-Carlo flood estimate at each
    effective group size, so a 10-member group is not charged a
    50-member group's flood.

    Lookups and maintenance are rescaled the *measured* way — the
    indexAll churn-fidelity fix:

    * lookups scale by the ratio of churned-substrate lookup probes at
      each DHT size (:func:`_churned_lookup_probe`). The analytic
      ``c_search_index`` ratio misses that offline routing entries both
      shorten routes (responsible hand-over) and detour them, with a
      size-dependent net effect (~10% at availability 0.5 on the
      Table-1/50 scenario); it stands in only when the probe at the
      calibrated size measured no lookup;
    * maintenance re-anchors to the *measured no-churn* rate at the
      target size times the stationary availability. The calibrated rate
      bakes in the probe membership's realized online-fraction
      trajectory (sessions mix far slower than the probe window, so a
      98-member sample can sit several percent off the stationary mean
      for the whole probe) — a substrate-realisation property that is
      *correct* at the probe's own size, where the comparison run shares
      the trajectory, and wrong for any other membership. The kernel
      multiplies by its own instantaneous online fraction, which
      supplies the target membership's trajectory.

    Structural estimators beyond the calibration limit never reach this
    path — :meth:`ChurnOpCosts.structural` sizes itself directly.
    """
    if num_active_peers == costs.num_active_peers:
        return costs
    old_probe = _churned_lookup_probe(
        params, config, costs.availability, costs.num_active_peers, seed
    )
    new_probe = _churned_lookup_probe(
        params, config, costs.availability, num_active_peers, seed
    )
    if old_probe > 0:
        lookup_scale = new_probe / old_probe
    else:
        old_lookup = c_search_index(
            max(2, int(round(costs.num_active_peers * costs.availability)))
        )
        new_lookup = c_search_index(
            max(2, int(round(num_active_peers * costs.availability)))
        )
        lookup_scale = new_lookup / old_lookup if old_lookup else 1.0
    target_base = costs_for(params, config, num_active_peers)
    maintenance = costs.availability * target_base.maintenance_per_round
    flood_scale = 1.0
    old_group = min(config.replication, costs.num_active_peers)
    new_group = min(config.replication, num_active_peers)
    if new_group != old_group:
        from repro.fastsim.churncosts import structural_flood_cost

        old_flood = structural_flood_cost(
            old_group,
            config.replica_degree,
            costs.availability,
            np.random.default_rng(0x5CA1E),
        )
        new_flood = structural_flood_cost(
            new_group,
            config.replica_degree,
            costs.availability,
            np.random.default_rng(0x5CA1E),
        )
        flood_scale = new_flood / old_flood if old_flood else 1.0
    return dc_replace(
        costs,
        lookup=costs.lookup * lookup_scale,
        miss_lookup=costs.miss_lookup * lookup_scale,
        hit_flood=costs.hit_flood * flood_scale,
        miss_flood=costs.miss_flood * flood_scale,
        insert_flood=costs.insert_flood * flood_scale,
        maintenance_per_round=maintenance,
        num_active_peers=num_active_peers,
    )


@dataclass
class EngineAgreement:
    """Per-seed aggregates of both engines plus their relative deviation."""

    params: ScenarioParameters
    duration: float
    seeds: tuple[int, ...]
    event_hit_rates: list[float] = field(default_factory=list)
    fast_hit_rates: list[float] = field(default_factory=list)
    event_costs: list[float] = field(default_factory=list)
    fast_costs: list[float] = field(default_factory=list)
    #: Stale-hit fractions (staleness comparisons only; empty otherwise).
    event_staleness: list[float] = field(default_factory=list)
    fast_staleness: list[float] = field(default_factory=list)
    #: Stationary availability of a churn comparison (None without churn).
    availability: Optional[float] = None
    event_seconds: float = 0.0
    fast_seconds: float = 0.0

    @staticmethod
    def _mean(values: list[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    @property
    def hit_rate_rel_diff(self) -> float:
        """|fast - event| / event, on seed-averaged hit rates."""
        event = self._mean(self.event_hit_rates)
        if event == 0:
            return abs(self._mean(self.fast_hit_rates))
        return abs(self._mean(self.fast_hit_rates) - event) / event

    @property
    def cost_rel_diff(self) -> float:
        """|fast - event| / event, on seed-averaged total messages."""
        event = self._mean(self.event_costs)
        if event == 0:
            return abs(self._mean(self.fast_costs))
        return abs(self._mean(self.fast_costs) - event) / event

    @property
    def staleness_rel_diff(self) -> float:
        """|fast - event| / event, on seed-averaged stale hit fractions."""
        if not self.event_staleness and not self.fast_staleness:
            return 0.0
        event = self._mean(self.event_staleness)
        if event == 0:
            return abs(self._mean(self.fast_staleness))
        return abs(self._mean(self.fast_staleness) - event) / event

    @property
    def speedup(self) -> float:
        """Event-engine wall-clock over fast-path wall-clock."""
        if self.fast_seconds <= 0:
            return float("inf")
        return self.event_seconds / self.fast_seconds

    def agrees(self, tolerance: float = 0.05) -> bool:
        """Within-tolerance on hit rate, total cost and (when measured)
        the stale hit fraction."""
        return (
            self.hit_rate_rel_diff <= tolerance
            and self.cost_rel_diff <= tolerance
            and self.staleness_rel_diff <= tolerance
        )

    def summary(self) -> str:
        text = (
            f"hit rate: event {self._mean(self.event_hit_rates):.4f} vs "
            f"fast {self._mean(self.fast_hit_rates):.4f} "
            f"({100 * self.hit_rate_rel_diff:.2f}% off); "
            f"total msgs: event {self._mean(self.event_costs):.0f} vs "
            f"fast {self._mean(self.fast_costs):.0f} "
            f"({100 * self.cost_rel_diff:.2f}% off)"
        )
        if self.event_staleness or self.fast_staleness:
            text += (
                f"; staleness: event {self._mean(self.event_staleness):.4f} "
                f"vs fast {self._mean(self.fast_staleness):.4f} "
                f"({100 * self.staleness_rel_diff:.2f}% off)"
            )
        if self.availability is not None:
            text += f"; availability {self.availability:g}"
        return text + f"; speedup {self.speedup:.1f}x"


def _event_model_strategy(
    params: ScenarioParameters,
    config: PdhtConfig,
    seed: int,
    model,
    churn: Optional[ChurnConfig] = None,
) -> "SimulatedStrategy":
    """A selection strategy driving a workload-model stream (or the
    default stationary stream when ``model`` is None)."""
    from repro.pdht.strategies import SimulatedStrategy

    strategy = SimulatedStrategy(
        params, config=config, strategy="partialSelection", seed=seed,
        churn=churn,
    )
    if model is not None:
        strategy.workload = model.build(
            ZipfDistribution(params.n_keys, params.alpha),
            strategy.network.streams.get("queries-model"),
        )
    return strategy


def _batch_model_workload(params: ScenarioParameters, seed: int, model):
    """The kernel-side workload for ``model`` (None = kernel default)."""
    if model is None:
        return None
    return model.build(
        ZipfDistribution(params.n_keys, params.alpha),
        np.random.default_rng(np.random.SeedSequence([seed, 0x3037DE1])),
    )


def compare_engines(
    params: ScenarioParameters,
    config: Optional[PdhtConfig] = None,
    duration: float = 240.0,
    seeds: Sequence[int] = (0, 1, 2),
    costs: Optional[PerOpCosts] = None,
    calibration_seed: int = 0,
    model=None,
) -> EngineAgreement:
    """Run the selection algorithm through both engines and compare.

    The event engine runs ``partialSelection`` through
    :class:`~repro.pdht.strategies.SimulatedStrategy` verbatim; the fast
    path runs :func:`~repro.fastsim.kernel.run_fastsim` with costs
    calibrated off the same substrate (unless given).
    ``model`` swaps the stationary stream for a
    :class:`~repro.workloads.models.WorkloadModel` on both engines.
    """
    if not seeds:
        raise ParameterError("need at least one seed")
    config = config or PdhtConfig.from_scenario(params)
    if costs is None:
        costs = calibrate_costs(params, config, seed=calibration_seed)
    agreement = EngineAgreement(
        params=params, duration=duration, seeds=tuple(seeds)
    )
    for seed in seeds:
        started = perf_counter()
        event_report = _event_model_strategy(
            params, config, seed, model
        ).run(duration)
        agreement.event_seconds += perf_counter() - started
        agreement.event_hit_rates.append(event_report.hit_rate)
        agreement.event_costs.append(event_report.total_messages)

        started = perf_counter()
        fast_report = run_fastsim(
            params,
            config=config,
            duration=duration,
            seed=seed,
            workload=_batch_model_workload(params, seed, model),
            costs=costs,
        )
        # Kernel construction included, like the event path above.
        agreement.fast_seconds += perf_counter() - started
        agreement.fast_hit_rates.append(fast_report.hit_rate)
        agreement.fast_costs.append(fast_report.total_messages)
    return agreement


def compare_engines_churn(
    params: ScenarioParameters,
    availability: float,
    config: Optional[PdhtConfig] = None,
    duration: float = 240.0,
    seeds: Sequence[int] = (0, 1, 2),
    mean_session: float = 1800.0,
    costs: Optional[PerOpCosts] = None,
    churn_costs: Optional[ChurnOpCosts] = None,
    calibration_seed: int = 0,
    model=None,
) -> EngineAgreement:
    """Run the selection algorithm under churn through both engines.

    The event engine runs ``partialSelection`` through
    :class:`~repro.pdht.strategies.SimulatedStrategy` with a real
    :class:`~repro.net.churn.ChurnProcess`; the kernel runs with the
    availability-dependent cost model (calibrated via
    :func:`churn_costs_for` unless given). Agreement on hit rate *and*
    total cost is the acceptance bar that lifted the churn engine gate.

    ``calibration_seed`` picks the substrate the *base* (no-churn) per-op
    costs are measured on, exactly like :func:`compare_engines` — it also
    anchors the base-cost resolution :func:`churn_costs_for` scales its
    structural estimators from. The churn calibration itself still runs
    at each comparison seed (churn per-op costs are substrate-realisation
    properties; see :class:`~repro.fastsim.kernel.FastSimKernel`).

    ``model`` runs a :class:`~repro.workloads.models.WorkloadModel` on
    both engines *and* threads it into the churn calibration — the
    rank-permutation-aware path the adaptivity-under-churn agreement
    tests pin.
    """
    if not seeds:
        raise ParameterError("need at least one seed")
    churn = churn_config_for_availability(availability, mean_session)
    if churn is None:
        raise ParameterError(
            "compare_engines_churn needs availability < 1; "
            "use compare_engines for the churn-free comparison"
        )
    config = config or PdhtConfig.from_scenario(params)
    if costs is None:
        costs = calibrate_costs(params, config, seed=calibration_seed)
    agreement = EngineAgreement(
        params=params,
        duration=duration,
        seeds=tuple(seeds),
        availability=availability,
    )
    for seed in seeds:
        started = perf_counter()
        event_report = _event_model_strategy(
            params, config, seed, model, churn=churn
        ).run(duration)
        agreement.event_seconds += perf_counter() - started
        agreement.event_hit_rates.append(event_report.hit_rate)
        agreement.event_costs.append(event_report.total_messages)

        # Resolve the churn cost model before starting the fast timer:
        # below the calibration limit it runs an event-engine probe, and
        # `speedup` should measure the simulation, not the (cached,
        # one-off) calibration.
        seed_churn_costs = churn_costs or churn_costs_for(
            params, config, costs.num_active_peers, churn, costs, seed=seed,
            model=model.calibration_model if model is not None else None,
        )
        started = perf_counter()
        fast_report = run_fastsim(
            params,
            config=config,
            duration=duration,
            seed=seed,
            workload=_batch_model_workload(params, seed, model),
            churn=churn,
            costs=costs,
            churn_costs=seed_churn_costs,
        )
        agreement.fast_seconds += perf_counter() - started
        agreement.fast_hit_rates.append(fast_report.hit_rate)
        agreement.fast_costs.append(fast_report.total_messages)
    return agreement


def staleness_probe_event(
    params: ScenarioParameters,
    config: PdhtConfig,
    duration: float,
    refresh_period: float,
    seed: int = 0,
) -> tuple[float, float]:
    """Event-engine staleness measurement: ``(stale fraction, hit rate)``.

    Publishes versioned payloads, refreshes all content every
    ``refresh_period`` rounds, drives the scenario's Zipf query stream
    through :meth:`~repro.pdht.network.PdhtNetwork.query` and counts the
    index hits whose payload predates the last refresh — the inner loop
    ``figures.staleness_experiment`` historically ran inline, factored
    here so figure generation and cross-engine checks share it.
    """
    from repro.pdht.network import PdhtNetwork
    from repro.workloads.models import StationaryZipf

    rounds = whole_rounds(duration)
    require_period("refresh_period", refresh_period)
    zipf = ZipfDistribution(params.n_keys, params.alpha)
    net = PdhtNetwork(params, config, seed=seed)
    versions = dict.fromkeys(range(params.n_keys), 0)
    net.publish_all({key_name(i): (i, 0) for i in versions})
    workload = StationaryZipf().build(
        zipf, net.streams.get("staleness-queries")
    )
    rate = params.network_query_rate
    rng = net.streams.get("staleness-counts")

    hits = stale_hits = queries = 0
    next_refresh = refresh_period
    for _ in range(rounds):
        net.advance(1.0)
        now = net.simulation.now
        if now >= next_refresh:
            for i in range(params.n_keys):
                versions[i] += 1
            net.refresh_content_all(
                {key_name(i): (i, version) for i, version in versions.items()}
            )
            next_refresh += refresh_period
        for _, key_index in workload.draw(now, int(rng.poisson(rate))):
            outcome = net.query(net.random_online_peer(), key_name(key_index))
            queries += 1
            if outcome.via_index:
                hits += 1
                _, version = outcome.value
                if version != versions[key_index]:
                    stale_hits += 1
    return (
        stale_hits / hits if hits else 0.0,
        hits / queries if queries else 0.0,
    )


def staleness_probe_fast(
    params: ScenarioParameters,
    config: PdhtConfig,
    duration: float,
    refresh_period: float,
    seed: int = 0,
) -> tuple[float, float]:
    """Kernel staleness measurement: ``(stale fraction, hit rate)``.

    The kernel tracks payload/indexed versions as batch state, so this is
    one :func:`run_fastsim` call with ``content_refresh_period`` set.
    """
    report = run_fastsim(
        params,
        config=config,
        duration=duration,
        seed=seed,
        content_refresh_period=refresh_period,
    )
    return report.stale_hit_fraction, report.hit_rate


def compare_engines_staleness(
    params: ScenarioParameters,
    config: Optional[PdhtConfig] = None,
    duration: float = 300.0,
    refresh_period: float = 100.0,
    seeds: Sequence[int] = (0, 1, 2),
    ttl_factor: float = 1.0,
) -> EngineAgreement:
    """Measure the staleness experiment through both engines and compare.

    Agreement on the stale hit fraction (alongside hit rate) is the
    acceptance bar that lifted the staleness engine gate.
    """
    if not seeds:
        raise ParameterError("need at least one seed")
    if ttl_factor <= 0:
        raise ParameterError(f"ttl_factor must be > 0, got {ttl_factor}")
    config = config or PdhtConfig.from_scenario(params)
    config = config.with_ttl(config.key_ttl * ttl_factor)
    agreement = EngineAgreement(
        params=params, duration=duration, seeds=tuple(seeds)
    )
    for seed in seeds:
        started = perf_counter()
        stale, hit_rate = staleness_probe_event(
            params, config, duration, refresh_period, seed=seed
        )
        agreement.event_seconds += perf_counter() - started
        agreement.event_staleness.append(stale)
        agreement.event_hit_rates.append(hit_rate)

        started = perf_counter()
        stale, hit_rate = staleness_probe_fast(
            params, config, duration, refresh_period, seed=seed
        )
        agreement.fast_seconds += perf_counter() - started
        agreement.fast_staleness.append(stale)
        agreement.fast_hit_rates.append(hit_rate)
    return agreement
