"""Tests for the array-of-peers state."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.state import FastSimState, Membership


def membership_with(params, num_members):
    """Masks whose members are the kernel's draw for seed 0."""
    membership = Membership(params.num_peers)
    membership.set_members(
        RoundInputs(0).members(params.num_peers, num_members)
    )
    return membership


class TestConstruction:
    def test_starts_unindexed_and_online(self, small_params):
        state = FastSimState(small_params)
        membership = membership_with(small_params, 10)
        assert state.index_size(now=0.0, key_ttl=10.0) == 0
        assert int(state.online.sum()) == small_params.num_peers
        assert int(membership.is_member.sum()) == 10

    def test_members_have_gateways_for_free(self, small_params):
        membership = membership_with(small_params, 10)
        members = np.flatnonzero(membership.is_member)
        assert membership.discoveries(members) == [0]

    def test_invalid_member_count_rejected(self, small_params):
        with pytest.raises(ParameterError):
            membership_with(small_params, -1)
        with pytest.raises(ParameterError):
            membership_with(small_params, small_params.num_peers + 1)

    def test_every_draw_of_members_is_the_first(self, small_params):
        # Each lane of a kernel draws the members its run draws alone.
        inputs = RoundInputs(0)
        first = inputs.members(small_params.num_peers, 10)
        assert (inputs.members(small_params.num_peers, 10) == first).all()


class TestIndexDynamics:
    def test_refresh_then_live(self, small_params):
        state = FastSimState(small_params)
        keys = np.array([3, 7])
        state.write(keys, now=5.0)
        assert state.index_size(now=10.0, key_ttl=10.0) == 2

    def test_expiry_instant_is_a_miss_like_ttl_store(self, small_params):
        # The event index treats expires_at <= now as a miss; so does the
        # array.
        state = FastSimState(small_params)
        keys = np.array([0])
        state.write(keys, now=0.0)
        assert state.index_size(now=10.0, key_ttl=10.0) == 0
        assert state.index_size(now=9.999, key_ttl=10.0) == 1

    def test_one_write_serves_every_key_ttl(self, small_params):
        state = FastSimState(small_params)
        state.write(np.array([1, 2]), now=4.0)
        state.write(np.array([2]), now=6.0)
        assert state.index_size(now=7.0, key_ttl=0.0) == 0
        assert state.index_size(now=7.0, key_ttl=2.0) == 1
        assert state.index_size(now=7.0, key_ttl=3.5) == 2

    def test_infinite_key_ttl_counts_only_written_keys(self, small_params):
        # -inf + inf is NaN: a never-written key stays unindexed, quietly.
        state = FastSimState(small_params)
        state.write(np.array([0, 5]), now=1.0)
        with np.errstate(all="raise"):
            assert state.index_size(now=1e300, key_ttl=np.inf) == 2


def test_no_per_key_array_until_one_is_used(small_params):
    # The write time is the only per-key fact a round of the general
    # path needs: it exists once read or written. The per-entry versions
    # exist once content has been refreshed.
    state = FastSimState(small_params)

    def per_key_arrays():
        return sorted(
            name
            for name, value in vars(state).items()
            if isinstance(value, np.ndarray) and value.size == small_params.n_keys
        )

    assert per_key_arrays() == []
    assert not state.has_write_times
    assert state.index_size(now=1.0, key_ttl=np.inf) == 0
    assert per_key_arrays() == []
    state.write(np.array([3]), now=1.0)
    assert state.has_write_times
    assert per_key_arrays() == ["_written_at"]
    assert state.written_at.dtype == np.float64
    assert state.written_at[3] == 1.0 and np.isneginf(state.written_at).sum() == (
        small_params.n_keys - 1
    )
    state.bump_versions()
    assert per_key_arrays() == ["_written_at", "indexed_version"]
    assert state.indexed_version.dtype == np.int64
    assert not state.indexed_version.any()
    state.bump_versions()
    assert per_key_arrays() == ["_written_at", "indexed_version"]


class TestGatewayDiscovery:
    """A kernel's one ``seen`` mask finds a span's first contacts; each
    lane's members decide which of them discover a gateway."""

    def test_first_contact_counts_once(self, small_params):
        state = FastSimState(small_params)
        membership = membership_with(small_params, 0)
        origins = np.array([1, 2, 2, 3])
        peers, rounds = state.first_contacts(origins)
        assert (peers.tolist(), rounds) == ([1, 2, 3], None)
        assert membership.discoveries(peers) == [3]
        assert membership.discoveries(*state.first_contacts(origins)) == [0]
        assert np.flatnonzero(state.seen).tolist() == [1, 2, 3]

    def test_span_counts_each_origin_in_its_first_round(self, small_params):
        state = FastSimState(small_params)
        membership = membership_with(small_params, 0)
        state.seen[9] = True
        # Rounds 0..3 of a span: 5 first appears in round 1, 4 in round 2
        # (its later queries are free), 9 was seen before.
        origins = np.array([9, 5, 4, 5, 4, 9, 4])
        rounds = np.array([0, 1, 2, 2, 2, 3, 3])
        peers, first = state.first_contacts(origins, rounds, 4)
        assert (peers.tolist(), first.tolist()) == ([4, 5], [2, 1])
        assert membership.discoveries(peers, first, 4) == [0, 1, 1, 0]
        again = state.first_contacts(origins, rounds, 4)
        assert membership.discoveries(*again, 4) == [0, 0, 0, 0]

    def test_member_origins_are_free(self, small_params):
        state = FastSimState(small_params)
        membership = membership_with(small_params, small_params.num_peers)
        origins = np.arange(10)
        assert membership.discoveries(*state.first_contacts(origins)) == [0]
        # Seen all the same: the mask is every lane's, members or not.
        assert state.seen[:10].all()

    def test_empty_batch(self, small_params):
        state = FastSimState(small_params)
        membership = membership_with(small_params, 2)
        contacts = state.first_contacts(np.empty(0, dtype=np.int64))
        assert membership.discoveries(*contacts) == [0]

    def test_one_seen_mask_serves_every_lane(self, small_params):
        # Lanes with different members over one state's first contacts
        # count what each counted with its own gateway set, its members
        # plus every origin it met.
        state = FastSimState(small_params)
        lanes = [membership_with(small_params, n) for n in (0, 10, 150)]
        gateways = [set(np.flatnonzero(lane.is_member).tolist()) for lane in lanes]
        rng = np.random.default_rng(4)
        for size in (1, 3, 1, 5, 2):
            origins = rng.integers(0, small_params.num_peers, size=40)
            rounds = np.sort(rng.integers(0, size, size=40)) if size > 1 else None
            contacts = state.first_contacts(origins, rounds, size)
            for lane, known in zip(lanes, gateways):
                expected = [0] * size
                for i, origin in enumerate(origins.tolist()):
                    if origin not in known:
                        known.add(origin)
                        expected[0 if rounds is None else rounds[i]] += 1
                assert lane.discoveries(*contacts, size) == expected

    def test_online_member_fraction(self, small_params):
        state = FastSimState(small_params)
        membership = membership_with(small_params, 10)
        assert membership.online_fraction(state.online) == 1.0
        state.online[membership.is_member] = False
        assert membership.online_fraction(state.online) == 0.0


class TestPayloadVersions:
    def test_versions_start_fresh_and_bump(self, small_params):
        state = FastSimState(small_params)
        keys = np.array([0, 1, 2])
        assert state.stale_count(keys) == 0
        state.bump_versions()  # refresh all content
        assert state.stale_count(keys) == 3
        state.capture_versions(np.array([1]))  # re-insert fetches fresh
        assert state.stale_count(keys) == 2
        assert state.stale_count(np.array([1, 1, 1])) == 0  # per occurrence
        assert state.stale_count(np.array([0, 0, 2])) == 3

    def test_empty_batch(self, small_params):
        state = FastSimState(small_params)
        assert state.stale_count(np.empty(0, dtype=np.int64)) == 0


def test_a_kernel_run_does_not_import_numpy_ma():
    # np.unique without return_counts imports numpy.ma on numpy 2.4: the
    # first kernel run of every process (pool workers too) paid for it in
    # time and resident memory. Gateway discovery dedupes by sorting.
    code = (
        "import sys\n"
        "from repro.experiments.scenario import simulation_scenario\n"
        "from repro.fastsim import PerOpCosts, run_fastsim\n"
        "params = simulation_scenario(scale=0.02)\n"
        "for strategy in ('indexAll', 'partialSelection'):\n"
        "    run_fastsim(params, duration=30.0, strategy=strategy,\n"
        "                costs=PerOpCosts.analytical(params))\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": "src"},
        cwd=str(Path(__file__).parents[2]),
    )
    assert out.stdout.strip() == "False", out.stderr
