"""Availability-dependent per-operation costs for the vectorized kernel.

Under churn the event engine's per-operation costs stop being constants:

* broadcast walks traverse only the *online* subgraph of the overlay.
  Near the percolation point (occupation ``availability`` on the
  ``overlay_degree``-regular graph) that subgraph fragments, so walkers
  trapped in a component without an online replica holder burn their
  full TTL — a failed walk costs up to ``walkers * walk_ttl`` messages
  where a fixed per-walk charge predicts ``numPeers/repl * dup``
  (measured ~139x off at availability 0.5 on the Table-1/50 scenario);
* replica-subnetwork floods shrink: offline members break flood paths,
  so a flood reaches (and charges for) only the online component of the
  group graph around the responsible member;
* DHT lookups run over the online member subset (``log2`` of a smaller
  network); a fraction of index hits pays a flood first because the
  rerouted responsible member does not hold the entry (responsible-peer
  turnover), and a small fraction of queries for *live* keys misses the
  index outright (the entry is unreachable behind offline members).

:class:`ChurnOpCosts` packages those quantities for one stationary
availability. Two constructors exist, mirroring the no-churn
``costs_for`` policy:

* :func:`repro.fastsim.compare.calibrate_churn_costs` *measures* them on
  a real churned event-engine substrate (below the calibration limit);
* :meth:`ChurnOpCosts.structural` estimates them beyond the calibration
  range with the structural Monte-Carlo probes in this module —
  batched lock-step walker simulation on a sampled overlay
  (:func:`structural_walk_costs`) and BFS floods over sampled replica
  group graphs (:func:`structural_flood_cost`) — anchored to the
  kernel's base :class:`~repro.fastsim.kernel.PerOpCosts` so the model
  joins the validated no-churn costs continuously as availability -> 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.analysis.costs import c_search_index
from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError
from repro.fastsim.precision import INDEX_DTYPE
from repro.pdht.config import PdhtConfig
from repro.replication.replica_network import group_rows

__all__ = [
    "conditional_walk_failure",
    "WalkCostEstimate",
    "structural_walk_costs",
    "structural_flood_cost",
    "ChurnOpCosts",
]


#: Calibration-anchored coefficients for the two second-order hit-path
#: effects only a full workload probe can measure directly (they are
#: fractions of *hits*, not per-op costs). Fit against
#: ``calibrate_churn_costs`` measurements on Table-1/50 and Table-1/20
#: scenarios across availabilities 0.5-0.9; both stay <= ~5% of hits.
_HIT_FLOOD_COEFF = 0.2  # hit_flood_fraction ~ 0.2  * (1 - availability)
_TURNOVER_COEFF = 0.05  # turnover_miss     ~ 0.05 * (1 - availability)^2


def conditional_walk_failure(
    unconditional: float, availability: float, replication: int
) -> float:
    """P(search fails | at least one replica online).

    Both failure estimators (the calibration probe and the structural
    Monte-Carlo) observe the *unconditional* failure rate — their probe
    keys' replicas can all be offline. The kernel draws that zero-online
    case separately from the per-round replica-availability vector, so
    the rate applied on top must be conditioned on ``>= 1`` online
    replica or the ``(1-a)^repl`` mass is double-counted (noticeable at
    small replication factors; ~0 at the paper's repl = 50).
    """
    p_zero = (1.0 - availability) ** replication
    if p_zero >= 1.0:
        return 0.0
    return min(1.0, max(0.0, (unconditional - p_zero) / (1.0 - p_zero)))


@dataclass(frozen=True)
class WalkCostEstimate:
    """Monte-Carlo estimate of broadcast-walk behaviour at one availability."""

    resolved_walk: float
    failed_walk: float
    failure_probability: float
    probes: int


def _overlay_sample(
    num_peers: int, degree: int, rng: np.random.Generator
) -> np.ndarray:
    """A ``(num_peers, degree)`` neighbour table: ``degree`` matchings.

    Random-regular sample of the overlay
    :func:`~repro.net.topology.gnutella_rows` builds for real — the
    structural stand-in at scales where pairing stubs one by one in
    Python is pointless. Each of the ``degree`` slots is one
    random perfect matching (the classical permutation model of random
    regular graphs), so *every* peer holds exactly ``degree`` mutual
    links by construction, for any ``num_peers``/``degree`` parity. The
    rare parallel edges across slots are harmless for cost estimation.
    """
    neighbors = np.empty((num_peers, degree), dtype=INDEX_DTYPE)
    half = num_peers // 2
    for slot in range(degree):
        perm = rng.permutation(num_peers)
        partner = np.empty(num_peers, dtype=INDEX_DTYPE)
        partner[perm[:half]] = perm[half : 2 * half]
        partner[perm[half : 2 * half]] = perm[:half]
        if num_peers % 2:
            partner[perm[-1]] = perm[0]  # odd peer out joins a pair
        neighbors[:, slot] = partner
    return neighbors


def structural_walk_costs(
    num_peers: int,
    replication: int,
    overlay_degree: int,
    walkers: int,
    walk_ttl: int,
    availability: float,
    rng: np.random.Generator,
    probes: int = 192,
    mask_groups: int = 12,
) -> WalkCostEstimate:
    """Monte-Carlo the k-walker search over a sampled churned overlay.

    Mirrors :class:`~repro.unstructured.random_walk.RandomWalkSearch`
    semantics: walkers advance in lock-step to uniformly random *online*
    neighbours, die at dead ends, stop as soon as any walker reaches an
    online replica holder, and exhaust after ``walk_ttl`` steps. Each
    mask group redraws the overlay and the online mask (a fresh
    percolation realisation); each probe redraws holders and origin. All
    probes of a mask group step together, so the loop depth is bounded
    by ``mask_groups * walk_ttl`` regardless of the probe budget.
    """
    if not 0.0 < availability <= 1.0:
        raise ParameterError(
            f"availability must be in (0, 1], got {availability}"
        )
    if probes < 1 or mask_groups < 1:
        raise ParameterError("probes and mask_groups must be >= 1")
    mask_groups = min(mask_groups, probes)
    per_group = max(1, probes // mask_groups)
    resolved_msgs: list[float] = []
    failed_msgs: list[float] = []
    total = 0
    for _ in range(mask_groups):
        table = _overlay_sample(num_peers, overlay_degree, rng)
        online = rng.random(num_peers) < availability
        if not online.any():
            online[int(rng.integers(0, num_peers))] = True
        online_peers = np.flatnonzero(online)
        total += per_group
        holders = rng.integers(0, num_peers, size=(per_group, replication))
        holder_of = np.zeros((per_group, num_peers), dtype=bool)
        holder_of[np.arange(per_group)[:, None], holders] = True
        origins = online_peers[
            rng.integers(0, online_peers.size, size=per_group)
        ]
        found = holder_of[np.arange(per_group), origins]  # origin holds it
        pos = np.tile(origins[:, None], (1, walkers))
        alive = np.ones((per_group, walkers), dtype=bool)
        messages = np.zeros(per_group, dtype=INDEX_DTYPE)
        for _step in range(walk_ttl):
            act = alive & ~found[:, None]
            if not act.any():
                break
            rows, cols = np.nonzero(act)
            current = pos[rows, cols]
            neigh = table[current]  # (n_active, degree)
            ok = online[neigh]
            has_next = ok.any(axis=1)
            # Uniform choice among online neighbours (masked argmax).
            scores = rng.random(neigh.shape)
            scores[~ok] = -1.0
            nxt = neigh[np.arange(neigh.shape[0]), scores.argmax(axis=1)]
            np.add.at(messages, rows[has_next], 1)
            stepped = current.copy()
            stepped[has_next] = nxt[has_next]
            pos[rows, cols] = stepped
            alive[rows[~has_next], cols[~has_next]] = False
            # A walker that reached an online holder resolves its probe at
            # the end of the lock step (all walkers above already moved).
            hit_rows = rows[has_next & holder_of[rows, stepped]]
            if hit_rows.size:
                found[hit_rows] = True
        for p in range(per_group):
            (resolved_msgs if found[p] else failed_msgs).append(
                float(messages[p])
            )
    failure = len(failed_msgs) / total
    resolved = float(np.mean(resolved_msgs)) if resolved_msgs else 0.0
    # No failure observed: exhaustion is still possible in the tail;
    # bound its cost by the hard TTL so any tiny failure term stays sane.
    failed = (
        float(np.mean(failed_msgs))
        if failed_msgs
        else float(walkers * walk_ttl)
    )
    return WalkCostEstimate(
        resolved_walk=resolved,
        failed_walk=failed,
        failure_probability=failure,
        probes=total,
    )


def structural_flood_cost(
    group_size: int,
    degree: int,
    availability: float,
    rng: np.random.Generator,
    probes: int = 64,
) -> float:
    """Mean messages of a replica-group flood at one availability.

    Builds the sparse regular group graph of
    :class:`~repro.replication.replica_network.ReplicaNetwork`
    (:func:`~repro.replication.replica_network.group_rows`) and floods
    from a random online member: every visited member messages each of
    its online neighbours except the one it heard from, duplicates
    included — exactly the event engine's flood accounting.
    """
    if not 0.0 < availability <= 1.0:
        raise ParameterError(
            f"availability must be in (0, 1], got {availability}"
        )
    if group_size < 1:
        raise ParameterError(f"group_size must be >= 1, got {group_size}")
    if probes < 1:
        raise ParameterError(f"probes must be >= 1, got {probes}")
    if group_size == 1:
        return 0.0
    adjacency = group_rows(group_size, degree, rng)
    totals = 0.0
    for _ in range(probes):
        online = rng.random(group_size) < availability
        if not online.any():
            continue
        online_members = np.flatnonzero(online)
        origin = int(online_members[int(rng.integers(0, online_members.size))])
        seen = {origin}
        frontier = [(origin, -1)]
        messages = 0
        while frontier:
            member, came_from = frontier.pop()
            for neighbor in adjacency[member]:
                if neighbor == came_from or not online[neighbor]:
                    continue
                messages += 1
                if neighbor in seen:
                    continue
                seen.add(neighbor)
                frontier.append((neighbor, member))
        totals += messages
    return totals / probes


@dataclass(frozen=True)
class ChurnOpCosts:
    """Per-operation costs and hit-path fractions at one availability.

    Attributes
    ----------
    availability:
        The stationary online fraction the costs were evaluated at.
    lookup:
        Messages per DHT lookup over the online member subset, averaged
        over the query mix.
    miss_lookup:
        Lookup messages averaged over the *missing* queries only. An
        insert routes a second lookup for the key that just missed, so
        it pays this (the Zipf tail's responsible members sit at
        systematically different routing depths than the hot set's).
    hit_flood / hit_flood_fraction:
        Mean flood messages when an index hit needs the replica-group
        flood first (responsible-peer turnover), and the fraction of
        hits that do.
    miss_flood:
        Mean flood messages charged on every index-miss occurrence.
    insert_flood:
        Mean flood messages re-inserting a resolved key.
    resolved_walk / failed_walk:
        Mean messages of a broadcast search that finds the key vs one
        that exhausts (dead ends / TTL) through the online overlay.
    walk_failure:
        Probability a broadcast search fails although online replicas
        exist (component fragmentation; the zero-online-replica case is
        drawn separately from the per-round replica-availability
        vector, see :meth:`FastSimKernel._resolve_probability`).
    turnover_miss:
        Probability a query for a *live* indexed key misses the index
        outright (entry unreachable behind offline members).
    maintenance_per_round:
        Routing-probe messages per round at the stationary availability.
    num_active_peers:
        DHT size the costs were evaluated at (all members, online or not).
    source:
        ``"calibrated"`` (measured off a churned event-engine substrate)
        or ``"structural"`` (Monte-Carlo estimates of this module).
    """

    availability: float
    lookup: float
    miss_lookup: float
    hit_flood: float
    miss_flood: float
    insert_flood: float
    resolved_walk: float
    failed_walk: float
    walk_failure: float
    hit_flood_fraction: float
    turnover_miss: float
    maintenance_per_round: float
    num_active_peers: int
    source: str = "structural"

    def __post_init__(self) -> None:
        if not 0.0 < self.availability <= 1.0:
            raise ParameterError(
                f"availability must be in (0, 1], got {self.availability}"
            )
        for name in (
            "lookup",
            "miss_lookup",
            "hit_flood",
            "miss_flood",
            "insert_flood",
            "resolved_walk",
            "failed_walk",
            "maintenance_per_round",
        ):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be >= 0")
        for name in ("walk_failure", "hit_flood_fraction", "turnover_miss"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ParameterError(f"{name} must be in [0, 1]")

    @classmethod
    def structural(
        cls,
        params: ScenarioParameters,
        config: PdhtConfig,
        num_active_peers: int,
        availability: float,
        base_walk: float,
        base_flood: float,
        base_maintenance: float,
        seed: int = 0,
        walk_probes: int = 48,
        flood_probes: int = 64,
    ) -> "ChurnOpCosts":
        """Estimate the costs beyond the calibration range.

        Walk and flood behaviour comes from the structural Monte-Carlo
        probes; both are *anchored* to the kernel's validated no-churn
        base costs (an availability-1 probe normalises the estimates) so
        the model joins the no-churn cost policy continuously. The two
        hit-path fractions use the calibration-anchored coefficients
        documented at the top of this module.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence(
                [seed, 0xC4A2, int(round(availability * 1e6))]
            )
        )
        baseline = structural_walk_costs(
            params.num_peers,
            config.replication,
            config.overlay_degree,
            config.walkers,
            config.walk_ttl,
            1.0,
            rng,
            probes=walk_probes,
        )
        churned = structural_walk_costs(
            params.num_peers,
            config.replication,
            config.overlay_degree,
            config.walkers,
            config.walk_ttl,
            availability,
            rng,
            probes=walk_probes,
        )
        walk_scale = (
            base_walk / baseline.resolved_walk
            if baseline.resolved_walk > 0
            else 1.0
        )
        flood_base = structural_flood_cost(
            config.replication, config.replica_degree, 1.0, rng, probes=8
        )
        flood_churned = structural_flood_cost(
            config.replication,
            config.replica_degree,
            availability,
            rng,
            probes=flood_probes,
        )
        flood = flood_churned * (
            base_flood / flood_base if flood_base > 0 else 1.0
        )
        online_members = max(2, int(round(num_active_peers * availability)))
        if num_active_peers > 1:
            lookup = c_search_index(online_members)
            maintenance = base_maintenance * availability * (
                math.log2(online_members) / math.log2(num_active_peers)
            )
        else:
            lookup = 0.0
            maintenance = base_maintenance * availability
        return cls(
            availability=availability,
            lookup=lookup,
            miss_lookup=lookup,
            hit_flood=flood,
            miss_flood=flood,
            insert_flood=flood,
            resolved_walk=churned.resolved_walk * walk_scale,
            # The anchor scale must not push an exhausted walk past the
            # physical walkers * walk_ttl message bound.
            failed_walk=min(
                churned.failed_walk * walk_scale,
                float(config.walkers * config.walk_ttl),
            ),
            walk_failure=conditional_walk_failure(
                churned.failure_probability, availability, config.replication
            ),
            hit_flood_fraction=min(
                1.0, _HIT_FLOOD_COEFF * (1.0 - availability)
            ),
            turnover_miss=min(
                1.0, _TURNOVER_COEFF * (1.0 - availability) ** 2
            ),
            maintenance_per_round=maintenance,
            num_active_peers=num_active_peers,
            source="structural",
        )
