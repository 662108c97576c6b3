"""Array-of-peers state for the vectorized batch simulator.

The event engine keeps one Python object per peer and one
:class:`~repro.pdht.ttl_cache.ReplicaGroupIndex` per replica group of DHT
members. At million-peer scale that representation is unusable, so the
fast path collapses the whole network into a handful of numpy arrays.

The crucial observation that makes a *per-key* (rather than per-replica)
representation faithful: under the Section 5 selection algorithm an insert
stamps every replica of a key with the same expiry, and a hit refreshes
only the answering entry — which is always the entry with the latest
expiry. The latest expiry over a key's replicas is therefore
``written_at + keyTtl``, where ``written_at`` is the key's last write
time and follows exactly the scalar recurrence

    hit  (written_at + keyTtl > now):  written_at <- now
    miss (resolved):                   written_at <- now

so one float per key reproduces the event engine's index dynamics without
materialising any per-peer store. It also records whether a key was ever
indexed: ``-inf`` until its first insert, finite ever after. Without
churn every query writes its key whatever keyTtl it runs under, so the
write times of runs that differ only in keyTtl are one array: the kernel
runs such runs as lanes over one :class:`FastSimState`, each with its
own :class:`Membership`. The peers that already queried the index are
one mask too (:attr:`FastSimState.seen`): the lanes' queries come from
the same origins, and a lane's gateway-equipped peers are its members
and the seen ones.

The write times exist only where a run reads them: they are allocated
the first time :attr:`FastSimState.written_at` is used. Every write time
of a run is at least 1.0, so a lane whose ``1.0 + keyTtl`` is after a
span's last round reads only whether a key was ever written, which the
kernel keeps as a byte per key of its own; a run in which every lane
reads only that never holds write times (see :mod:`repro.fastsim.kernel`).
"""

from __future__ import annotations

import numpy as np

from repro.analysis.parameters import ScenarioParameters
from repro.fastsim.precision import TIME_DTYPE, VERSION_DTYPE

__all__ = ["FastSimState", "Membership"]

#: Keys :meth:`FastSimState.index_size` sizes per numpy pass: bounds its
#: temporaries at any key count.
_SIZE_CHUNK = 1 << 14


class FastSimState:
    """Vectorized network state: the per-key write times (allocated on
    first use), the content versions (allocated on the first refresh),
    every peer's liveness and the peers that already queried the index,
    sized by ``params``. Every peer starts online and unseen.
    """

    def __init__(self, params: ScenarioParameters) -> None:
        self.params = params
        num_peers = params.num_peers
        self._written_at: np.ndarray | None = None

        # --- content plane --------------------------------------------
        #: Version of every key's *content* replicas (a refresh replaces
        #: all of them; the paper's Section 4 scenario replaces every
        #: article periodically).
        self.content_version = 0
        #: Version an index hit serves: the content version captured when
        #: the entry was (re-)inserted after a broadcast search. Without
        #: proactive updates it lags ``content_version`` — that lag is
        #: exactly what the staleness experiment measures. ``None`` (no
        #: entry can be stale) until the first :meth:`bump_versions`.
        self.indexed_version: np.ndarray | None = None

        # --- per-peer plane -------------------------------------------
        self.online = np.ones(num_peers, dtype=bool)
        #: ``online.sum()``, kept up to date by :meth:`set_online` and
        #: :meth:`flip` so a round never re-sums the whole mask.
        self.online_count = num_peers
        #: Peers whose query already took the index path: each found a
        #: gateway then, so a run's gateway-equipped peers are this mask
        #: and its members (:meth:`first_contacts`).
        self.seen = np.zeros(num_peers, dtype=bool)

    # ------------------------------------------------------------------
    @property
    def written_at(self) -> np.ndarray:
        """Last write time of each key's entry; ``-inf`` = never indexed.
        Allocated, every key at ``-inf``, on first use."""
        if self._written_at is None:
            self._written_at = np.full(
                self.params.n_keys, -np.inf, dtype=TIME_DTYPE
            )
        return self._written_at

    @property
    def has_write_times(self) -> bool:
        """Whether :attr:`written_at` was ever used (so may hold a write)."""
        return self._written_at is not None

    def index_size(self, now: float, key_ttl: float) -> int:
        """Number of keys resident in the index at ``now`` under
        ``key_ttl``. An entry at its expiry instant is already dead
        (``ReplicaGroupIndex`` treats ``expires_at <= now`` as a miss), hence
        the strict ``>``."""
        written = self._written_at
        if written is None:
            return 0
        live = 0
        # A never-written key under an infinite keyTtl sums to NaN, which
        # is not live.
        with np.errstate(invalid="ignore"):
            for lo in range(0, written.size, _SIZE_CHUNK):
                expiry = written[lo:lo + _SIZE_CHUNK] + key_ttl
                live += int(np.count_nonzero(expiry > now))
        return live

    def write(self, keys: np.ndarray, now: float) -> None:
        """Record that ``keys`` were written at ``now`` (hit or insert
        path): it rearms their expiration clocks."""
        self.written_at[keys] = now

    # ------------------------------------------------------------------
    def bump_versions(self) -> None:
        """Refresh all content, mirroring
        :meth:`~repro.pdht.network.PdhtNetwork.refresh_content_all`. Index
        entries are *not* touched — the selection algorithm has no
        proactive updates, so stale entries keep serving old versions.
        The first call allocates the per-entry versions at 0, the one
        every entry inserted so far captured."""
        if self.indexed_version is None:
            self.indexed_version = np.zeros(
                self.params.n_keys, dtype=VERSION_DTYPE
            )
        self.content_version += 1

    def capture_versions(self, keys: np.ndarray) -> None:
        """Record that ``keys`` were (re-)inserted with current content
        (a resolved broadcast search always fetches the live replicas)."""
        if self.indexed_version is not None:
            self.indexed_version[keys] = self.content_version

    def stale_count(
        self, keys: np.ndarray, where: np.ndarray | None = None
    ) -> int:
        """How many of these hit occurrences (those ``where`` selects, if
        given) served an outdated payload."""
        if self.indexed_version is None:
            return 0
        if where is not None:
            keys = keys[where]
        return int(
            np.count_nonzero(self.indexed_version[keys] != self.content_version)
        )

    # ------------------------------------------------------------------
    def set_online(self, online: np.ndarray) -> None:
        """Replace every peer's liveness with the mask ``online``."""
        self.online[:] = online
        self.online_count = int(online.sum())

    def flip(self, flips: np.ndarray) -> int:
        """Toggle the liveness of the peers the mask ``flips`` selects;
        returns how many flipped."""
        went_offline = int((flips & self.online).sum())
        self.online[flips] = ~self.online[flips]
        flipped = int(flips.sum())
        self.online_count += flipped - 2 * went_offline
        return flipped

    @property
    def online_fraction(self) -> float:
        """Instantaneous online fraction of the whole population."""
        return self.online_count / self.online.size

    def first_contacts(
        self,
        origins: np.ndarray,
        rounds: np.ndarray | None = None,
        size: int = 1,
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Mark the index-path query ``origins`` as seen; returns the
        distinct ones not seen before and the round each first queried in.

        ``rounds[i]`` is the round (``0 .. size - 1``) of a span that
        origin ``i`` queried in; without it they all queried in one round,
        and the rounds returned are ``None``. Which of the first contacts
        pay gateway discovery depends on a run's members
        (:meth:`Membership.discoveries`).
        """
        fresh = ~self.seen[origins]
        if rounds is None:
            peers = _distinct(origins[fresh])
            self.seen[peers] = True
            return peers, None
        # One sort of (origin, round) pairs packed into an int64 orders
        # each origin's rounds; its first pair is its first contact.
        pairs = _distinct(origins[fresh] * size + rounds[fresh])
        peers = pairs // size
        first = np.ones(pairs.size, dtype=bool)
        np.not_equal(peers[1:], peers[:-1], out=first[1:])
        self.seen[peers] = True
        return peers[first], pairs[first] % size


class Membership:
    """One run's DHT members, as a mask over ``num_peers`` peers. There
    are no members until :meth:`set_members`.
    """

    def __init__(self, num_peers: int) -> None:
        self.num_members = 0
        self.is_member = np.zeros(num_peers, dtype=bool)

    def set_members(self, members: np.ndarray) -> None:
        """Make the peers ``members`` the DHT members
        (``numActivePeers``); member origins reach the index for free,
        everyone else pays gateway discovery once."""
        self.num_members = members.size
        self.is_member[members] = True

    def set_everyone(self) -> None:
        """Make every peer a DHT member: :meth:`set_members` of all of
        them, without the array that names them."""
        self.num_members = self.is_member.size
        self.is_member[:] = True

    def online_fraction(self, online: np.ndarray) -> float:
        """Fraction of members the liveness mask ``online`` has online
        (scales maintenance)."""
        if self.num_members == 0:
            return 0.0
        return float(online[self.is_member].sum()) / self.num_members

    def discoveries(
        self,
        peers: np.ndarray,
        rounds: np.ndarray | None = None,
        size: int = 1,
    ) -> list[int]:
        """How many of the first contacts ``peers`` (first querying in
        ``rounds``, as :meth:`FastSimState.first_contacts` returns them)
        discover a gateway in each of the ``size`` rounds of a span: the
        non-members. A member is its own gateway.

        Mirrors :class:`~repro.net.bootstrap.GatewayCache`: the first
        index-path query from a non-member origin pays one bootstrap probe
        pair, after which the cached gateway answers for free.
        """
        outside = ~self.is_member[peers]
        if rounds is None:
            return [int(np.count_nonzero(outside))]
        return np.bincount(rounds[outside], minlength=size).tolist()


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct ``values``: ``np.unique`` without its
    ``numpy.ma`` import (numpy 2.4 reaches it when no counts are asked
    for)."""
    values = np.sort(values)
    keep = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]
