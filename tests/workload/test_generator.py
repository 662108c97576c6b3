"""Tests for corpus generation."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.workloads.generator import CorpusConfig, generate_corpus


class TestCorpusConfig:
    def test_defaults_match_section4(self):
        config = CorpusConfig()
        assert config.n_articles == 2_000
        assert config.keys_per_article == 20

    @pytest.mark.parametrize("kwargs", [{"n_articles": 0}, {"keys_per_article": 0}])
    def test_invalid_config(self, kwargs):
        with pytest.raises(ParameterError):
            CorpusConfig(**kwargs)


class TestGenerateCorpus:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_corpus(CorpusConfig(n_articles=200, keys_per_article=10, seed=1))

    def test_article_count(self, corpus):
        assert len(corpus.articles) == 200

    def test_key_universe_near_nominal(self, corpus):
        # Dedup across articles shrinks the universe a little, but most
        # keys embed the unique title.
        assert 200 * 10 * 0.5 < corpus.n_keys <= 200 * 10

    def test_key_universe_deduplicated(self, corpus):
        assert len(set(corpus.key_universe)) == corpus.n_keys

    def test_every_key_maps_to_articles(self, corpus):
        for key in corpus.key_universe[:50]:
            assert corpus.articles_for(key)

    def test_key_at_rank_roundtrip(self, corpus):
        assert corpus.key_at_rank(1) == corpus.key_universe[0]
        assert corpus.key_at_rank(corpus.n_keys) == corpus.key_universe[-1]

    def test_rank_bounds_checked(self, corpus):
        with pytest.raises(ParameterError):
            corpus.key_at_rank(0)
        with pytest.raises(ParameterError):
            corpus.key_at_rank(corpus.n_keys + 1)

    def test_deterministic_for_seed(self):
        a = generate_corpus(CorpusConfig(n_articles=50, seed=7))
        b = generate_corpus(CorpusConfig(n_articles=50, seed=7))
        assert a.key_universe == b.key_universe

    def test_different_seeds_shuffle_ranks(self):
        a = generate_corpus(CorpusConfig(n_articles=50, seed=1))
        b = generate_corpus(CorpusConfig(n_articles=50, seed=2))
        assert a.key_universe != b.key_universe

    def test_articles_have_paper_metadata_shape(self, corpus):
        article = corpus.articles[0]
        elements = set(article.elements)
        assert {"title", "author", "date", "size"} <= elements

    def test_dates_well_formed(self, corpus):
        for article in corpus.articles[:20]:
            year, month, day = article.attribute("date").split("/")
            assert len(year) == 4
            assert 1 <= int(month) <= 12
            assert 1 <= int(day) <= 31
