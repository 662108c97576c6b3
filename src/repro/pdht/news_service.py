"""High-level news-system facade — the paper's motivating application.

Section 1 motivates the PDHT with a decentralized news system: articles
described by metadata element-value pairs, queried by predicates such as
``title = "Weather Iraklion" AND date = "2004/03/14"``. This module glues
the metadata machinery (:mod:`repro.workloads.metadata`) to a
:class:`~repro.pdht.network.PdhtNetwork` into the API such a system would
actually expose:

* :meth:`NewsService.publish` — store an article, derive its index keys
  [FeBi04], and replicate the article under each key;
* :meth:`NewsService.query` — resolve a predicate query (AND-combination
  of element-value pairs) through the PDHT's index-first/broadcast-fallback
  path and return matching articles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.errors import ParameterError
from repro.net.node import PeerId
from repro.pdht.network import PdhtNetwork, QueryOutcome
from repro.workloads.metadata import MetadataKey, NewsArticle, extract_keys

__all__ = ["NewsQueryResult", "NewsService"]


@dataclass(frozen=True)
class NewsQueryResult:
    """Articles answering one predicate query, with the transport outcome."""

    key: MetadataKey
    articles: tuple[str, ...]
    outcome: QueryOutcome

    @property
    def found(self) -> bool:
        return bool(self.articles)

    @property
    def via_index(self) -> bool:
        return self.outcome.via_index

    @property
    def messages(self) -> int:
        return self.outcome.total_messages


@dataclass
class _PublishedArticle:
    article: NewsArticle
    keys: list[MetadataKey] = field(default_factory=list)


class NewsService:
    """The decentralized news system on top of a PDHT.

    Parameters
    ----------
    network:
        The underlying PDHT deployment.
    keys_per_article:
        Index keys derived per article (Table 1 scenario: 20).
    indexable_elements:
        Metadata elements allowed to form keys; None allows all. The
        paper's Section 1 example argues e.g. ``size`` alone is a poor
        key — exclude it here.
    """

    def __init__(
        self,
        network: PdhtNetwork,
        keys_per_article: int = 20,
        indexable_elements: Optional[Iterable[str]] = None,
    ) -> None:
        if keys_per_article < 1:
            raise ParameterError(
                f"keys_per_article must be >= 1, got {keys_per_article}"
            )
        self.network = network
        self.keys_per_article = keys_per_article
        self.indexable_elements = (
            None if indexable_elements is None else set(indexable_elements)
        )
        self._published: dict[str, _PublishedArticle] = {}
        #: key string -> article ids carrying that key.
        self._inverted: dict[str, list[str]] = {}

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(self, article: NewsArticle) -> list[MetadataKey]:
        """Publish an article: derive keys and replicate content under each.

        Returns the derived keys. Re-publishing an article id replaces it
        (the scenario's articles are "replaced every 24 hours on average").
        """
        if article.article_id in self._published:
            self.retract(article.article_id)
        keys = extract_keys(
            article,
            max_keys=self.keys_per_article,
            indexable_elements=self.indexable_elements,
        )
        record = _PublishedArticle(article=article, keys=keys)
        for key in keys:
            key_string = key.key_string
            holders = self._inverted.setdefault(key_string, [])
            holders.append(article.article_id)
            payload = tuple(holders)
            if len(holders) == 1:
                self.network.publish(key_string, payload)
            else:
                self.network.replicator.refresh(key_string, payload)
        self._published[article.article_id] = record
        return keys

    def retract(self, article_id: str) -> None:
        """Remove an article and de-replicate keys it alone carried."""
        record = self._published.pop(article_id, None)
        if record is None:
            raise ParameterError(f"article {article_id!r} was never published")
        for key in record.keys:
            key_string = key.key_string
            holders = self._inverted.get(key_string, [])
            if article_id in holders:
                holders.remove(article_id)
            if holders:
                self.network.replicator.refresh(key_string, tuple(holders))
            else:
                self._inverted.pop(key_string, None)
                self.network.replicator.remove(key_string)

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def query(
        self,
        origin: PeerId,
        predicates: dict[str, str] | Iterable[tuple[str, str]],
    ) -> NewsQueryResult:
        """Answer a predicate query (AND of element-value pairs).

        The predicates are canonicalised into the same key form publishing
        used, so any order and stop-word/case variation resolves to the
        same index key.
        """
        if isinstance(predicates, dict):
            pairs = tuple(predicates.items())
        else:
            pairs = tuple(predicates)
        key = MetadataKey(predicates=pairs)
        outcome = self.network.query(origin, key.key_string)
        if outcome.found and isinstance(outcome.value, tuple):
            # The payload is the holder list at (re)publication time. An
            # index hit can be stale — older than the latest republication
            # — which is exactly the Section 5.1 behaviour (no proactive
            # updates; stale entries age out via the TTL).
            articles = tuple(str(a) for a in outcome.value)
        else:
            articles = ()
        return NewsQueryResult(key=key, articles=articles, outcome=outcome)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def published_count(self) -> int:
        return len(self._published)

    @property
    def key_universe_size(self) -> int:
        """Distinct keys currently carried by published articles."""
        return len(self._inverted)

    def articles_for_key(self, key: MetadataKey) -> tuple[str, ...]:
        """Oracle view of the holder list (tests and diagnostics)."""
        return tuple(self._inverted.get(key.key_string, ()))
