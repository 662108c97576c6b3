"""PDHT configuration."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.analysis.parameters import ScenarioParameters
from repro.analysis.threshold import solve_threshold
from repro.errors import require_count, require_key_ttl

__all__ = ["PdhtConfig"]


@dataclass(frozen=True)
class PdhtConfig:
    """Tuning knobs of a PDHT deployment.

    Attributes
    ----------
    key_ttl:
        Expiration time (rounds) of an index entry that receives no
        queries. The paper chooses ``1/fMin``;
        :meth:`from_scenario` derives that value analytically.
    replication:
        Index replication factor ``repl`` (replica group size).
    storage_per_peer:
        Always 100 (Table 1's ``stor``) and not an argument. Like
        ``dht_kind`` it stays a field only for the store keys: membership
        is sized from :class:`ScenarioParameters`' own ``storage_per_peer``.
    dht_kind:
        Always ``"pgrid"`` and not an argument. It stays a field only so
        that the store keys built from a config — and so existing stores —
        do not change.
    enforce_capacity:
        Always ``False`` and not an argument, for the same store-key
        reason: the paper uses ``stor`` to size ``numActivePeers``, not as
        a drop policy, so no index store has a slot limit.
    overlay_degree:
        Connections per peer in the unstructured overlay.
    walkers / walk_ttl:
        Random-walk search parameters ([LvCa02]).
    replica_degree:
        Connections per replica inside a replica subnetwork.
    """

    key_ttl: float = 1800.0
    replication: int = 10
    storage_per_peer: int = field(default=100, init=False)
    dht_kind: str = field(default="pgrid", init=False)
    overlay_degree: int = 4
    walkers: int = 8
    walk_ttl: int = 4096
    replica_degree: int = 3
    enforce_capacity: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        require_key_ttl(self.key_ttl)
        for name in ("replication", "overlay_degree", "walkers", "walk_ttl",
                     "replica_degree"):
            require_count(name, getattr(self, name), 1)

    def with_ttl(self, key_ttl: float) -> "PdhtConfig":
        return replace(self, key_ttl=key_ttl)

    @classmethod
    def from_scenario(
        cls, params: ScenarioParameters, **overrides
    ) -> "PdhtConfig":
        """Derive the paper's configuration from scenario parameters.

        ``key_ttl`` is set to the analytical ``1/fMin`` (Section 5.1.1);
        replication comes straight from Table 1.
        """
        threshold = solve_threshold(params)
        defaults = dict(
            key_ttl=threshold.key_ttl,
            replication=params.replication,
        )
        defaults.update(overrides)
        return cls(**defaults)
