#!/usr/bin/env python
"""Adaptivity demo: a flash crowd promotes a cold key to rank 1.

The paper's Section 5.2/6 claim is that the TTL selection algorithm
"adapts to changing query frequencies and distributions". Here a breaking
story — a key from the far tail of the Zipf distribution — suddenly becomes
the most queried key. The first post-crowd query pays a broadcast; every
subsequent query hits the index because the TTL keeps being reset, with no
coordination or reconfiguration anywhere.

Run with::

    python examples/flash_crowd.py
"""

from __future__ import annotations

from repro import PdhtConfig, PdhtNetwork, ZipfDistribution
from repro.experiments import simulation_scenario
from repro.workloads import FlashCrowd


def main() -> None:
    params = simulation_scenario(scale=0.02)  # 400 peers, 800 keys
    config = PdhtConfig.from_scenario(params)
    net = PdhtNetwork(params, config, seed=5)

    # Publish the whole key universe as content.
    net.publish_all({f"key-{i:06d}": f"value-{i}" for i in range(params.n_keys)})

    crowd_time = 120.0
    workload = FlashCrowd(
        crowd_time, cold_rank=params.n_keys  # the very coldest key
    ).build(
        ZipfDistribution(params.n_keys, params.alpha),
        net.streams.get("crowd-queries"),
    )
    promoted_index = workload.key_for_rank(params.n_keys)
    promoted_key = f"key-{promoted_index:06d}"
    print(f"cold key {promoted_key!r} will become rank 1 at t={crowd_time:.0f}s\n")

    window = 30.0
    window_end = window
    window_stats = {"queries": 0, "hits": 0, "promoted_hits": 0, "promoted": 0}

    for _ in range(int(300)):
        net.advance(1.0)
        now = net.simulation.now
        for _, key_index in workload.draw(now, 15):
            key = f"key-{key_index:06d}"
            outcome = net.query(net.random_online_peer(), key)
            window_stats["queries"] += 1
            window_stats["hits"] += int(outcome.via_index)
            if key == promoted_key:
                window_stats["promoted"] += 1
                window_stats["promoted_hits"] += int(outcome.via_index)
        if now >= window_end:
            marker = "  << flash crowd" if window_end == crowd_time + window else ""
            q = window_stats["queries"] or 1
            p = window_stats["promoted"]
            print(
                f"t={now:5.0f}s  hit rate {window_stats['hits'] / q:5.0%}   "
                f"promoted-key queries {p:4d} "
                f"(hits {window_stats['promoted_hits']:4d}){marker}"
            )
            window_stats = {k: 0 for k in window_stats}
            window_end += window

    print(
        f"\nthe promoted key is{' ' if net.distinct_indexed_keys() else ' not '}"
        f"now held by the index; total indexed keys: "
        f"{net.distinct_indexed_keys()} of {params.n_keys}"
    )


if __name__ == "__main__":
    main()
