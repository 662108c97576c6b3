"""Scenario parameters (Table 1 of the paper) as a validated dataclass.

The paper's evaluation instantiates the model for a decentralized news
system: 2,000 articles, 20 metadata keys per article, 20,000 peers, random
replication with factor 50, Zipf(1.2) queries, per-peer query frequency
swept between one query every 30 s and one every 2 h, one article update
per day, Pastry-derived routing-maintenance constant ``env = 1/14``
[MaCa03], and random-walk duplication factors ``dup = dup2 = 1.8`` [LvCa02].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Real
from typing import Iterator

from repro.errors import ParameterError, require_finite

__all__ = ["ScenarioParameters"]

#: One round is a fixed period of time; the paper sets it to one second
#: (footnote 1), so all per-round rates are per-second rates.
SECONDS_PER_ROUND = 1.0

#: The eight query periods (seconds per query per peer) on the paper's x-axes.
PAPER_QUERY_PERIODS: tuple[float, ...] = (30, 60, 120, 300, 600, 1800, 3600, 7200)

#: The same grid expressed as frequencies (queries per second per peer).
PAPER_FREQUENCIES: tuple[float, ...] = tuple(1.0 / p for p in PAPER_QUERY_PERIODS)


@dataclass(frozen=True)
class ScenarioParameters:
    """All inputs of the analytical model (paper Table 1).

    Attributes
    ----------
    num_peers:
        Total number of peers in the network (``numPeers``).
    n_keys:
        Number of unique keys occurring in the network (``keys``).
    storage_per_peer:
        Key-value cache capacity each peer contributes to the index
        (``stor``).
    replication:
        Random replication factor for both index entries and content
        (``repl``); the paper replicates both with the same factor so the
        structured and unstructured search reliability match.
    alpha:
        Zipf exponent of the query distribution (``alpha``).
    query_freq:
        Average per-peer query frequency in queries/second (``fQry``).
    update_freq:
        Average per-key update frequency in updates/second (``fUpd``).
    env:
        Routing-maintenance environment constant: probe messages per routing
        entry per second (``env``), derived from [MaCa03] as
        ``1 / log2(17000) ~= 1/14``.
    dup:
        Message duplication factor of unstructured search (``dup``).
    dup2:
        Message duplication factor when flooding the replica subnetwork
        (``dup2``).
    """

    num_peers: int = 20_000
    n_keys: int = 40_000
    storage_per_peer: int = 100
    replication: int = 50
    alpha: float = 1.2
    query_freq: float = 1.0 / 30.0
    update_freq: float = 1.0 / (3600.0 * 24.0)
    env: float = 1.0 / 14.0
    dup: float = 1.8
    dup2: float = 1.8

    def __post_init__(self) -> None:
        self._require_positive_int("num_peers", self.num_peers)
        self._require_positive_int("n_keys", self.n_keys)
        self._require_positive_int("storage_per_peer", self.storage_per_peer)
        self._require_positive_int("replication", self.replication)
        for name in ("alpha", "query_freq", "update_freq", "env"):
            require_finite(name, getattr(self, name), 0.0)
        # A search sends at least one copy.
        require_finite("dup", self.dup, 1.0)
        require_finite("dup2", self.dup2, 1.0)
        if self.replication > self.num_peers:
            raise ParameterError(
                f"replication ({self.replication}) cannot exceed num_peers "
                f"({self.num_peers})"
            )

    @staticmethod
    def _require_positive_int(name: str, value: int) -> None:
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ParameterError(f"{name} must be a positive integer, got {value!r}")

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def network_query_rate(self) -> float:
        """Total queries per round network-wide: ``numPeers * fQry``."""
        return self.num_peers * self.query_freq

    @property
    def full_index_peers(self) -> int:
        """Peers needed to host the *full* index (all ``n_keys`` keys)."""
        return self.active_peers_for(self.n_keys)

    def active_peers_for(self, indexed_keys: float) -> int:
        """Peers needed to host an index of ``indexed_keys`` keys.

        Each indexed key is stored ``replication`` times and each peer
        contributes ``storage_per_peer`` slots, so
        ``numActivePeers = ceil(indexed_keys * repl / stor)``, capped at
        ``num_peers`` (more peers than exist cannot participate) and floored
        at 2 so that ``log2(numActivePeers)`` stays positive for any
        non-empty index.
        """
        if indexed_keys <= 0:
            return 0
        needed = math.ceil(indexed_keys * self.replication / self.storage_per_peer)
        return max(2, min(self.num_peers, needed))

    @property
    def query_update_ratio(self) -> float:
        """Average per-key query/update ratio (the paper quotes 1440/1-6/1).

        Per-key query rate is ``numPeers * fQry / keys``; dividing by the
        per-key update rate ``fUpd`` gives the ratio.
        """
        if self.update_freq == 0:
            return math.inf
        per_key_query_rate = self.network_query_rate / self.n_keys
        return per_key_query_rate / self.update_freq

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    def with_query_freq(self, query_freq: float) -> "ScenarioParameters":
        """Return a copy with a different per-peer query frequency."""
        return replace(self, query_freq=query_freq)

    def scaled(self, factor: float) -> "ScenarioParameters":
        """Return a copy with ``num_peers`` and ``n_keys`` scaled together.

        Scaling both by the same factor preserves the keys/peer ratio; it
        is how the reduced-scale simulation presets are derived from
        Table 1. ``replication`` and ``storage_per_peer`` stay fixed, so a
        full index still needs every peer (``n_keys * replication /
        storage_per_peer == num_peers``), while the walk/flood cost ratio
        ``num_peers * dup / (replication**2 * dup2)`` scales with the
        factor (8 at Table 1, 0.4 at 1,000 peers). A factor that is not a
        finite real number above 0 (a boolean included) is a
        :class:`ParameterError`.
        """
        if (
            isinstance(factor, bool)
            or not isinstance(factor, Real)
            or not 0.0 < factor < math.inf
        ):
            raise ParameterError(
                f"scale factor must be a finite number > 0, got {factor!r}"
            )
        return replace(
            self,
            num_peers=max(self.replication, int(round(self.num_peers * factor))),
            n_keys=max(1, int(round(self.n_keys * factor))),
        )

    @classmethod
    def paper_scenario(cls) -> "ScenarioParameters":
        """The exact Table 1 scenario of the paper."""
        return cls()

    def iter_fields(self) -> Iterator[tuple[str, object]]:
        """Yield ``(name, value)`` pairs in Table 1 order (for reporting)."""
        yield "numPeers", self.num_peers
        yield "keys", self.n_keys
        yield "stor", self.storage_per_peer
        yield "repl", self.replication
        yield "alpha", self.alpha
        yield "fQry", self.query_freq
        yield "fUpd", self.update_freq
        yield "env", self.env
        yield "dup", self.dup
        yield "dup2", self.dup2

    # ------------------------------------------------------------------
    # Serialisation (experiment configs on disk)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """Plain-dict form (field names match the constructor)."""
        from dataclasses import asdict

        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, object]) -> "ScenarioParameters":
        """Rebuild from :meth:`to_dict` output; unknown keys are errors
        (typos in experiment configs must not pass silently)."""
        from dataclasses import fields as dataclass_fields

        known = {f.name for f in dataclass_fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise ParameterError(
                f"unknown scenario fields: {sorted(unknown)}"
            )
        return cls(**payload)  # type: ignore[arg-type]
