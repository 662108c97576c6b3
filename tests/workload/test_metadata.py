"""Tests for metadata keys and stop words."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.workloads.metadata import MetadataKey, NewsArticle, extract_keys
from repro.workloads.stopwords import STOP_WORDS, is_stop_word, strip_stop_words


class TestStopWords:
    def test_classic_stop_words_present(self):
        for word in ("the", "and", "of", "to"):
            assert word in STOP_WORDS

    def test_case_insensitive(self):
        assert is_stop_word("The")
        assert is_stop_word("AND")

    def test_content_words_pass(self):
        assert not is_stop_word("weather")
        assert not is_stop_word("iraklion")

    def test_strip_preserves_order(self):
        assert strip_stop_words(["the", "Weather", "of", "Iraklion"]) == [
            "Weather",
            "Iraklion",
        ]


class TestMetadataKey:
    def test_paper_example_key(self):
        # key1 = hash(title = "Weather Iraklion" AND date = "2004/03/14")
        key = MetadataKey(
            predicates=(("title", "Weather Iraklion"), ("date", "2004/03/14"))
        )
        assert key.key_string == "date=2004/03/14&title=weather iraklion"
        assert len(key.digest) == 40  # hex SHA-1

    def test_predicate_order_irrelevant(self):
        a = MetadataKey(predicates=(("title", "X"), ("date", "D")))
        b = MetadataKey(predicates=(("date", "D"), ("title", "X")))
        assert a.key_string == b.key_string
        assert a.digest == b.digest

    def test_stop_words_normalised_away(self):
        a = MetadataKey(predicates=(("title", "The Weather"),))
        b = MetadataKey(predicates=(("title", "Weather"),))
        assert a.digest == b.digest

    def test_case_normalised(self):
        a = MetadataKey(predicates=(("title", "WEATHER"),))
        b = MetadataKey(predicates=(("title", "weather"),))
        assert a.digest == b.digest

    def test_empty_predicates_rejected(self):
        with pytest.raises(ParameterError):
            MetadataKey(predicates=())

    def test_elements_sorted(self):
        key = MetadataKey(predicates=(("title", "X"), ("author", "Y")))
        assert key.elements == ("author", "title")


class TestNewsArticle:
    def test_attribute_access(self):
        article = NewsArticle(
            article_id="a1", attributes=(("title", "T"), ("size", "2405"))
        )
        assert article.attribute("size") == "2405"

    def test_missing_attribute_rejected(self):
        article = NewsArticle(article_id="a1", attributes=(("title", "T"),))
        with pytest.raises(ParameterError):
            article.attribute("author")

    def test_duplicate_elements_rejected(self):
        with pytest.raises(ParameterError):
            NewsArticle(article_id="a1", attributes=(("t", "1"), ("t", "2")))

    def test_empty_id_rejected(self):
        with pytest.raises(ParameterError):
            NewsArticle(article_id="")


class TestExtractKeys:
    @pytest.fixture
    def article(self):
        return NewsArticle(
            article_id="a1",
            attributes=(
                ("title", "Weather Iraklion"),
                ("author", "Crete Weather Service"),
                ("date", "2004/03/14"),
                ("size", "2405"),
            ),
        )

    def test_respects_max_keys(self, article):
        assert len(extract_keys(article, max_keys=3)) == 3

    def test_singles_come_first(self, article):
        keys = extract_keys(article, max_keys=4)
        assert all(len(k.predicates) == 1 for k in keys)

    def test_pairs_follow_singles(self, article):
        keys = extract_keys(article, max_keys=20)
        sizes = [len(k.predicates) for k in keys]
        assert sizes == sorted(sizes)
        assert 2 in sizes

    def test_full_article_key_count(self, article):
        # 4 singles + C(4,2)=6 pairs = 10 candidate keys.
        keys = extract_keys(article, max_keys=100)
        assert len(keys) == 10

    def test_keys_unique(self, article):
        keys = extract_keys(article, max_keys=100)
        assert len({k.digest for k in keys}) == len(keys)

    def test_indexable_elements_filter(self, article):
        keys = extract_keys(
            article, max_keys=100, indexable_elements=["title", "date"]
        )
        for key in keys:
            assert set(key.elements) <= {"title", "date"}

    def test_invalid_limits_rejected(self, article):
        with pytest.raises(ParameterError):
            extract_keys(article, max_keys=0)
        with pytest.raises(ParameterError):
            extract_keys(article, max_predicates=0)
