"""Synthetic news-corpus generation.

The evaluation scenario stores 2,000 unique news articles and derives 20
metadata keys per article (40,000 unique keys). :func:`generate_corpus`
builds such a corpus deterministically from a seed: article titles, authors
(drawn from a pool of news services), dates, categories and sizes, then
extracts the per-article keys with :func:`repro.workloads.metadata.extract_keys`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ParameterError
from repro.workloads.metadata import MetadataKey, NewsArticle, extract_keys

__all__ = ["CorpusConfig", "NewsCorpus", "generate_corpus"]

_PLACES = (
    "Iraklion", "Lausanne", "Geneva", "Zurich", "Athens", "Paris", "Rome",
    "Berlin", "Vienna", "Oslo", "Madrid", "Lisbon", "Dublin", "Prague",
)
_TOPICS = (
    "Weather", "Elections", "Markets", "Football", "Research", "Transport",
    "Energy", "Health", "Culture", "Education",
)
_SERVICES = (
    "Crete Weather Service", "Alpine News Desk", "Metro Daily",
    "Continental Wire", "Harbor Gazette", "Summit Press",
)
_CATEGORIES = ("weather", "politics", "economy", "sports", "science", "local")


@dataclass(frozen=True)
class CorpusConfig:
    """Corpus shape. Defaults reproduce the Section 4 scenario."""

    n_articles: int = 2_000
    keys_per_article: int = 20
    start_date: str = "2004/03/14"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_articles < 1:
            raise ParameterError(f"n_articles must be >= 1, got {self.n_articles}")
        if self.keys_per_article < 1:
            raise ParameterError(
                f"keys_per_article must be >= 1, got {self.keys_per_article}"
            )


@dataclass
class NewsCorpus:
    """A generated corpus: articles plus the global key universe."""

    config: CorpusConfig
    articles: list[NewsArticle] = field(default_factory=list)
    #: Deduplicated key strings in deterministic (generation) order; the
    #: Zipf rank of a key is its position here (1-based).
    key_universe: list[str] = field(default_factory=list)
    #: key string -> articles carrying it.
    keys_to_articles: dict[str, list[str]] = field(default_factory=dict)

    @property
    def n_keys(self) -> int:
        return len(self.key_universe)

    def key_at_rank(self, rank: int) -> str:
        """The key string assigned Zipf rank ``rank`` (1-based)."""
        if not 1 <= rank <= self.n_keys:
            raise ParameterError(
                f"rank must be in [1, {self.n_keys}], got {rank}"
            )
        return self.key_universe[rank - 1]

    def articles_for(self, key: str) -> list[str]:
        """Article ids answering a query for ``key``."""
        return list(self.keys_to_articles.get(key, ()))


def _render_date(rng: np.random.Generator, start: str) -> str:
    """A date near ``start`` (YYYY/MM/DD), uniform over ~60 days."""
    year, month, _day = (int(x) for x in start.split("/"))
    offset = int(rng.integers(0, 60))
    month_extra, day = divmod(offset, 28)
    month = (month - 1 + month_extra) % 12 + 1
    return f"{year}/{month:02d}/{day + 1:02d}"


def generate_corpus(config: CorpusConfig | None = None) -> NewsCorpus:
    """Generate a deterministic corpus for the given configuration.

    Keys are deduplicated across articles (several articles can share
    e.g. ``category=weather``), so ``corpus.n_keys`` can be slightly below
    ``n_articles * keys_per_article``; with default parameters the universe
    stays close to the paper's 40,000 because most keys embed the unique
    title.
    """
    config = config or CorpusConfig()
    rng = np.random.Generator(np.random.PCG64(config.seed))
    corpus = NewsCorpus(config=config)
    seen: set[str] = set()

    for i in range(config.n_articles):
        place = _PLACES[int(rng.integers(0, len(_PLACES)))]
        topic = _TOPICS[int(rng.integers(0, len(_TOPICS)))]
        service = _SERVICES[int(rng.integers(0, len(_SERVICES)))]
        category = _CATEGORIES[int(rng.integers(0, len(_CATEGORIES)))]
        article = NewsArticle(
            article_id=f"article-{i:05d}",
            attributes=(
                ("title", f"{topic} {place} {i}"),
                ("author", service),
                ("date", _render_date(rng, config.start_date)),
                ("category", category),
                ("place", place),
                ("topic", topic),
                ("size", str(int(rng.integers(500, 10_000)))),
            ),
        )
        corpus.articles.append(article)
        keys: list[MetadataKey] = extract_keys(
            article, max_keys=config.keys_per_article, max_predicates=2
        )
        for key in keys:
            key_string = key.key_string
            corpus.keys_to_articles.setdefault(key_string, []).append(
                article.article_id
            )
            if key_string not in seen:
                seen.add(key_string)
                corpus.key_universe.append(key_string)

    # Shuffle the rank assignment so popularity is independent of
    # generation order (rank 1 should not always be article 0's title).
    order = rng.permutation(len(corpus.key_universe))
    corpus.key_universe = [corpus.key_universe[int(j)] for j in order]
    return corpus
