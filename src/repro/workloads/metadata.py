"""News articles, metadata element-value pairs, and key extraction.

Articles carry metadata files of element-value pairs, e.g.::

    title  = "Weather Iraklion"
    author = "Crete Weather Service"
    date   = "2004/03/14"
    size   = "2405"

Queries contain predicates over those attributes (``element1 = value1 AND
element2 = value2``); candidate index keys are produced by hashing single
or concatenated pairs [FeBi04] — the paper's example is
``key1 = hash(title = "Weather Iraklion" AND date = "2004/03/14")``. Stop
words inside values are dropped before hashing so "The Weather" and
"Weather" produce the same key.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ParameterError
from repro.workloads.stopwords import strip_stop_words

__all__ = ["MetadataKey", "NewsArticle", "extract_keys"]


def _canonical_value(value: str) -> str:
    """Normalise an attribute value: lowercase, drop stop words."""
    words = strip_stop_words(value.split())
    return " ".join(w.lower() for w in words)


@dataclass(frozen=True)
class MetadataKey:
    """An index key derived from one or more element-value predicates.

    ``key_string`` is the canonical text that gets hashed; ``digest`` is
    the hex SHA-1 the DHT key space consumes.
    """

    predicates: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        if not self.predicates:
            raise ParameterError("a metadata key needs at least one predicate")

    @property
    def key_string(self) -> str:
        """Canonical form, e.g. ``date=2004/03/14&title=weather iraklion``.

        Predicates are sorted by element so the key is order-insensitive
        (an AND-query is the same key no matter how the user ordered it).
        """
        parts = sorted(
            f"{element}={_canonical_value(value)}"
            for element, value in self.predicates
        )
        return "&".join(parts)

    @property
    def digest(self) -> str:
        return hashlib.sha1(self.key_string.encode("utf-8")).hexdigest()

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(sorted(e for e, _ in self.predicates))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.key_string


@dataclass(frozen=True)
class NewsArticle:
    """One news article with its metadata file."""

    article_id: str
    attributes: tuple[tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.article_id:
            raise ParameterError("article_id must be non-empty")
        elements = [e for e, _ in self.attributes]
        if len(set(elements)) != len(elements):
            raise ParameterError(
                f"duplicate metadata elements in article {self.article_id}"
            )

    def attribute(self, element: str) -> str:
        for key, value in self.attributes:
            if key == element:
                return value
        raise ParameterError(
            f"article {self.article_id} has no element {element!r}"
        )

    @property
    def elements(self) -> tuple[str, ...]:
        return tuple(e for e, _ in self.attributes)


def extract_keys(
    article: NewsArticle,
    max_keys: int = 20,
    max_predicates: int = 2,
    indexable_elements: Iterable[str] | None = None,
) -> list[MetadataKey]:
    """Generate up to ``max_keys`` index keys from an article's metadata.

    Keys are hashed single pairs plus concatenations of up to
    ``max_predicates`` pairs [FeBi04], in a deterministic order: singles
    first (most selective queries in practice), then pairs ordered
    lexicographically. ``indexable_elements`` restricts which metadata
    elements participate (an application-level decision, per Section 1:
    indexing ``size=2405`` is pointless).
    """
    if max_keys < 1:
        raise ParameterError(f"max_keys must be >= 1, got {max_keys}")
    if max_predicates < 1:
        raise ParameterError(f"max_predicates must be >= 1, got {max_predicates}")

    usable = [
        (element, value)
        for element, value in article.attributes
        if indexable_elements is None or element in set(indexable_elements)
    ]
    keys: list[MetadataKey] = []
    for size in range(1, max_predicates + 1):
        for combo in itertools.combinations(usable, size):
            keys.append(MetadataKey(predicates=tuple(combo)))
            if len(keys) >= max_keys:
                return keys
    return keys
