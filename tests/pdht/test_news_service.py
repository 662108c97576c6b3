"""Tests for the news-system facade."""

from __future__ import annotations

import pytest

from repro.analysis.parameters import ScenarioParameters
from repro.errors import ParameterError
from repro.pdht.config import PdhtConfig
from repro.pdht.network import PdhtNetwork
from repro.pdht.news_service import NewsService
from repro.workloads.metadata import MetadataKey, NewsArticle


@pytest.fixture
def service():
    params = ScenarioParameters(
        num_peers=120, n_keys=200, replication=10, storage_per_peer=30
    )
    config = PdhtConfig(key_ttl=200.0, replication=10, walkers=8)
    network = PdhtNetwork(params, config, seed=8, num_active_peers=40)
    return NewsService(network, keys_per_article=10)


@pytest.fixture
def weather_article():
    return NewsArticle(
        article_id="article-weather",
        attributes=(
            ("title", "Weather Iraklion"),
            ("author", "Crete Weather Service"),
            ("date", "2004/03/14"),
            ("size", "2405"),
        ),
    )


class TestPublish:
    def test_publish_derives_keys(self, service, weather_article):
        keys = service.publish(weather_article)
        assert 1 <= len(keys) <= 10
        assert service.published_count == 1
        assert service.key_universe_size == len(keys)

    def test_republish_replaces(self, service, weather_article):
        service.publish(weather_article)
        service.publish(weather_article)
        assert service.published_count == 1

    def test_shared_keys_accumulate_holders(self, service, weather_article):
        service.publish(weather_article)
        second = NewsArticle(
            article_id="article-weather-2",
            attributes=(
                ("title", "Weather Lausanne"),
                ("author", "Crete Weather Service"),
                ("date", "2004/03/15"),
            ),
        )
        service.publish(second)
        author_key = MetadataKey(
            predicates=(("author", "Crete Weather Service"),)
        )
        holders = service.articles_for_key(author_key)
        assert set(holders) == {"article-weather", "article-weather-2"}

    def test_retract_removes_keys(self, service, weather_article):
        service.publish(weather_article)
        service.retract("article-weather")
        assert service.published_count == 0
        assert service.key_universe_size == 0

    def test_retract_unknown_rejected(self, service):
        with pytest.raises(ParameterError):
            service.retract("ghost")

    def test_indexable_elements_respected(self, service, weather_article):
        restricted = NewsService(
            service.network, keys_per_article=10,
            indexable_elements=["title", "date"],
        )
        keys = restricted.publish(weather_article)
        for key in keys:
            assert set(key.elements) <= {"title", "date"}


class TestQuery:
    def test_single_predicate_query(self, service, weather_article):
        service.publish(weather_article)
        origin = service.network.random_online_peer()
        result = service.query(origin, {"title": "Weather Iraklion"})
        assert result.found
        assert "article-weather" in result.articles

    def test_paper_example_and_query(self, service, weather_article):
        service.publish(weather_article)
        origin = service.network.random_online_peer()
        result = service.query(
            origin,
            {"title": "Weather Iraklion", "date": "2004/03/14"},
        )
        assert result.found

    def test_predicate_order_irrelevant(self, service, weather_article):
        service.publish(weather_article)
        origin = service.network.random_online_peer()
        a = service.query(
            origin, [("date", "2004/03/14"), ("title", "Weather Iraklion")]
        )
        b = service.query(
            origin, [("title", "Weather Iraklion"), ("date", "2004/03/14")]
        )
        assert a.key.key_string == b.key.key_string
        assert a.found and b.found

    def test_stop_words_normalised_in_query(self, service, weather_article):
        service.publish(weather_article)
        origin = service.network.random_online_peer()
        result = service.query(origin, {"title": "The Weather Iraklion"})
        assert result.found

    def test_repeated_query_moves_to_index(self, service, weather_article):
        service.publish(weather_article)
        predicates = {"title": "Weather Iraklion"}
        origin = service.network.random_online_peer()
        first = service.query(origin, predicates)
        second = service.query(service.network.random_online_peer(), predicates)
        assert not first.via_index
        assert second.via_index
        assert second.messages < first.messages

    def test_unknown_query_not_found(self, service, weather_article):
        service.publish(weather_article)
        origin = service.network.random_online_peer()
        result = service.query(origin, {"title": "Nonexistent Story"})
        assert not result.found
        assert result.articles == ()
