#!/usr/bin/env python
"""Self-tuning keyTtl — the paper's future work, implemented.

Section 5.1.1 derives keyTtl = 1/fMin from *estimates* of cSUnstr, cSIndx
and cIndKey, and defers the self-tuning mechanism to future work. This
example starts a PDHT with a deliberately terrible TTL (10x too small, so
worthwhile keys keep timing out), attaches the
:class:`~repro.pdht.adaptive_ttl.AdaptiveTtlController`, and watches the
TTL walk towards the analytical target as the controller's online cost
estimates converge.

Run with::

    python examples/adaptive_ttl_demo.py
"""

from __future__ import annotations

from repro import AdaptiveTtlController, PdhtConfig, PdhtNetwork, ZipfDistribution
from repro.analysis.threshold import solve_threshold
from repro.experiments import simulation_scenario
from repro.workloads import StationaryZipf


def main() -> None:
    params = simulation_scenario(scale=0.02)  # 400 peers, 800 keys
    ideal_ttl = solve_threshold(params).key_ttl
    bad_ttl = max(1.0, ideal_ttl / 10.0)
    config = PdhtConfig.from_scenario(params).with_ttl(bad_ttl)

    net = PdhtNetwork(params, config, seed=23)
    controller = AdaptiveTtlController(
        net, alpha=0.2, retarget_interval=60.0, min_ttl=1.0
    )
    print(f"analytical keyTtl target : {ideal_ttl:8.1f} rounds")
    print(f"starting (mis-set) keyTtl: {bad_ttl:8.1f} rounds\n")

    net.publish_all({f"key-{i:06d}": f"value-{i}" for i in range(params.n_keys)})

    workload = StationaryZipf().build(
        ZipfDistribution(params.n_keys, params.alpha),
        net.streams.get("adaptive-queries"),
    )

    for round_idx in range(600):
        net.advance(1.0)
        for _, key_index in workload.draw(net.simulation.now, 13):
            key = f"key-{key_index:06d}"
            outcome = net.query(net.random_online_peer(), key)
            controller.observe_query_outcome(outcome)
        if (round_idx + 1) % 120 == 0:
            est = controller.estimates
            print(
                f"t={round_idx + 1:4d}s  keyTtl={controller.current_ttl:8.1f}  "
                f"est cSUnstr={est.c_search_unstructured:6.1f}  "
                f"est cSIndx={est.c_search_index:6.1f}  "
                f"est cIndKey={est.c_index_key_per_round:8.4f}"
            )

    print(f"\nretargets applied: {len(controller.retargets)}")
    final = controller.current_ttl
    print(
        f"final keyTtl {final:.1f} vs analytical {ideal_ttl:.1f} "
        f"(ratio {final / ideal_ttl:.2f}; the paper's Section 5.1.1 shows "
        f"+/-50% error barely hurts)"
    )


if __name__ == "__main__":
    main()
