#!/usr/bin/env python
"""The decentralized news system of the paper's Section 4.

Generates a news corpus (articles with metadata element-value pairs),
derives index keys by hashing attribute predicates [FeBi04], publishes the
articles into a PDHT, and replays a Zipf query workload. Afterwards it
shows which *kinds* of keys ended up indexed — the paper's motivating
point that ``hash(title=... AND date=...)`` is worth indexing while
``hash(size=2405)`` is not.

Run with::

    python examples/news_system.py
"""

from __future__ import annotations

from collections import Counter

from repro import PdhtConfig, PdhtNetwork, ZipfDistribution
from repro.experiments import simulation_scenario
from repro.workloads import CorpusConfig, StationaryZipf, generate_corpus


def main() -> None:
    # A corpus of 100 articles x up to 20 keys each (scaled-down Sec. 4).
    corpus = generate_corpus(CorpusConfig(n_articles=100, keys_per_article=20, seed=3))
    print(
        f"corpus   : {len(corpus.articles)} articles, "
        f"{corpus.n_keys} unique metadata keys"
    )

    from dataclasses import replace

    # 400 peers; match the key universe to the corpus so Zipf ranks map
    # onto real metadata keys.
    params = replace(simulation_scenario(scale=0.02), n_keys=corpus.n_keys)
    config = PdhtConfig.from_scenario(params)
    net = PdhtNetwork(params, config, seed=11)
    print(f"network  : {params.num_peers} peers, keyTtl {config.key_ttl:.0f}s\n")

    # Publish every article under each of its metadata keys.
    net.publish_all(
        {key: corpus.articles_for(key) for key in corpus.key_universe}
    )

    # Replay a Zipf(1.2) workload: popular predicates dominate.
    workload = StationaryZipf().build(
        ZipfDistribution(corpus.n_keys, params.alpha),
        net.streams.get("news-queries"),
    )
    queries = 0
    hits = 0
    for _ in range(60):  # 60 rounds of traffic
        net.advance(1.0)
        for rank, _ in workload.draw(net.simulation.now, 20):
            key = corpus.key_at_rank(rank)
            outcome = net.query(net.random_online_peer(), key)
            queries += 1
            hits += int(outcome.via_index)

    print(f"queries  : {queries}, answered from index: {hits} "
          f"({hits / queries:.0%})")
    print(f"indexed  : {net.distinct_indexed_keys()} of {corpus.n_keys} keys\n")

    # Which metadata elements made it into the index?
    indexed_keys: set[str] = set()
    for node in net.nodes.values():
        indexed_keys.update(node.store.keys())
    element_counts: Counter[str] = Counter()
    for key in indexed_keys:
        elements = tuple(sorted(p.split("=", 1)[0] for p in key.split("&")))
        element_counts["+".join(elements)] += 1
    print("indexed key shapes (element combinations):")
    for shape, count in element_counts.most_common(8):
        print(f"  {shape:24s} {count}")


if __name__ == "__main__":
    main()
