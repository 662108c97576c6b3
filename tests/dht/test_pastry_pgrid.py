"""P-Grid: the trie, its references and its routes."""

from __future__ import annotations

import math

import pytest

from repro.dht.pgrid import PGridDht
from repro.errors import RoutingError
from repro.net.node import PeerPopulation
from repro.sim.metrics import MessageMetrics

from test_routing_views_equivalence import leave


def _path(dht, peer):
    """A member's trie path, routing built."""
    dht._ensure_routing()
    return dht._paths[peer]


@pytest.fixture
def pgrid():
    population = PeerPopulation(300)
    dht = PGridDht(population, MessageMetrics())
    dht.join_all(range(256))
    dht.responsible_for("warmup")
    return dht


class TestPGrid:
    def test_paths_are_binary_and_prefix_free(self, pgrid):
        paths = [_path(pgrid, m) for m in pgrid._members]
        for path in paths:
            assert set(path) <= {"0", "1"}
        # With one-member buckets the paths form a prefix-free code (no
        # path is a proper prefix of another), i.e. trie leaves.
        path_set = set(paths)
        for path in path_set:
            for other in path_set:
                if path != other:
                    assert not other.startswith(path)

    def test_trie_roughly_balanced(self, pgrid):
        depths = [len(_path(pgrid, m)) for m in pgrid._members]
        expected = math.log2(256)
        assert expected - 3 <= sum(depths) / len(depths) <= expected + 3

    def test_responsible_owns_matching_prefix(self, pgrid):
        key = "prefix-key"
        target_bits = pgrid.keyspace.to_bits(pgrid.keyspace.hash_key(key))
        responsible = pgrid.responsible_for(key)
        path = _path(pgrid, responsible)
        assert target_bits.startswith(path)

    def test_refs_point_to_complement_subtrees(self, pgrid):
        member = next(iter(pgrid._members))
        path = _path(pgrid, member)
        for level, refs in pgrid._refs[member].items():
            complement = path[:level] + ("1" if path[level] == "0" else "0")
            for ref in refs:
                ref_path = _path(pgrid, ref)
                assert ref_path.startswith(complement) or complement.startswith(
                    ref_path
                )

    def test_members_under_memo_equals_a_fresh_scan(self, pgrid):
        def scan(prefix):
            return tuple(sorted(
                peer
                for leaf, peers in pgrid._leaf_members.items()
                if leaf.startswith(prefix) or prefix.startswith(leaf)
                for peer in peers
            ))

        pgrid.responsible_for("warmup")
        prefixes = {
            path[:n]
            for path in pgrid._leaf_members
            for n in range(len(path) + 1)
        }
        prefixes |= {prefix + "0" for prefix in prefixes}
        for prefix in sorted(prefixes):
            assert pgrid._members_under(prefix) == scan(prefix)
            # second ask is the memoised tuple itself
            assert pgrid._members_under(prefix) is pgrid._members_under(prefix)
        assert pgrid._members_under("") == tuple(sorted(pgrid._members))

    def test_members_under_memo_dropped_on_rebuild(self, pgrid):
        pgrid.responsible_for("warmup")
        leaver = pgrid._members_under("0")[0]
        assert leaver in pgrid._members_under("")
        leave(pgrid, leaver)
        pgrid.responsible_for("warmup")  # triggers the routing rebuild
        assert leaver not in pgrid._members_under("")
        assert all(
            leaver not in refs
            for table in pgrid._refs.values()
            for refs in table.values()
        )

    def test_mean_hops_match_eq7(self, pgrid):
        members = pgrid.online_members()
        hops = [
            pgrid.lookup(members[i % 256], f"key-{i}").messages
            for i in range(200)
        ]
        mean = sum(hops) / len(hops)
        model = 0.5 * math.log2(256)
        # P-Grid is the paper's own substrate: Eq. 7 should be tight.
        assert model * 0.6 <= mean <= model * 1.6

    def test_invalid_parameters(self):
        population = PeerPopulation(4)
        with pytest.raises(RoutingError):
            PGridDht(population, MessageMetrics(), refs_per_level=0)

    def test_leaf_index_at_table1_size(self):
        """At Table 1 size (20,000 members under indexAll) a leaf is
        found through an index with one entry per leaf, whatever the
        deepest leaf's length; every member's own identifier and a run of
        keys locate the leaf whose path prefixes them."""
        dht = PGridDht(PeerPopulation(20_000), MessageMetrics())
        dht.join_all(range(20_000))
        dht._ensure_routing()
        assert len(dht._leaf_index) == len(dht._leaf_members) <= 20_000
        keyspace = dht.keyspace
        targets = [dht.dht_id(m) for m in range(0, 20_000, 7)]
        targets += [keyspace.hash_key(f"key-{i}") for i in range(500)]
        for target in targets:
            leaf = dht._locate(target)
            assert leaf in dht._leaf_members
            assert keyspace.to_bits(target).startswith(leaf)
        for member in range(0, 20_000, 7):
            assert dht._locate(dht.dht_id(member)) == _path(dht, member)
