#!/usr/bin/env python
"""Quickstart: the PDHT in five minutes.

Builds a small query-adaptive partial DHT, publishes some content, issues
queries, and shows how popular keys migrate into the index while unpopular
ones stay broadcast-only.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import PdhtConfig, PdhtNetwork
from repro.experiments import simulation_scenario


def main() -> None:
    # A reduced Table-1 scenario: 400 peers, 800 keys, replication 50.
    params = simulation_scenario(scale=0.02)
    config = PdhtConfig.from_scenario(params)
    print(f"scenario : {params.num_peers} peers, {params.n_keys} keys")
    print(f"keyTtl   : {config.key_ttl:.0f} rounds (analytically derived 1/fMin)")

    net = PdhtNetwork(params, config, seed=42)
    print(f"DHT      : P-Grid with {net.dht.size} active peers\n")

    # Publish two items: replicas land on 50 random peers each.
    net.publish("title=weather iraklion", {"article": "article-00042"})
    net.publish("size=2405", {"article": "article-00017"})

    # --- A popular key: repeated queries -----------------------------
    print("querying 'title=weather iraklion' five times:")
    for i in range(5):
        origin = net.random_online_peer()
        outcome = net.query(origin, "title=weather iraklion")
        source = "index" if outcome.via_index else "broadcast"
        print(
            f"  query {i + 1}: answered via {source:9s} "
            f"({outcome.total_messages:4d} messages)"
        )

    # --- An unpopular key: queried once, then left to expire ---------
    print("\nquerying 'size=2405' once:")
    outcome = net.query(net.random_online_peer(), "size=2405")
    print(
        f"  answered via {'index' if outcome.via_index else 'broadcast'} "
        f"({outcome.total_messages} messages); now indexed with TTL "
        f"{config.key_ttl:.0f}s"
    )

    print(f"\ndistinct indexed keys now : {net.distinct_indexed_keys()}")
    net.advance(config.key_ttl + 1)  # let the quiet key expire
    print(
        f"after {config.key_ttl:.0f} quiet rounds   : "
        f"{net.distinct_indexed_keys()} (unqueried keys timed out)"
    )

    # The first query after expiry pays the broadcast again.
    outcome = net.query(net.random_online_peer(), "size=2405")
    print(
        f"re-query 'size=2405'      : via "
        f"{'index' if outcome.via_index else 'broadcast'}"
    )


if __name__ == "__main__":
    main()
