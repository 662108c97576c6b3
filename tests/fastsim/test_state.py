"""Tests for the array-of-peers state."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fastsim.inputs import RoundInputs
from repro.fastsim.state import FastSimState


def state_with(params, num_members):
    """A state whose members are the kernel's draw for seed 0."""
    state = FastSimState(params)
    state.set_members(RoundInputs(0).members(params.num_peers, num_members))
    return state


class TestConstruction:
    def test_starts_unindexed_and_online(self, small_params):
        state = state_with(small_params, 10)
        assert state.index_size(now=0.0) == 0
        assert int(state.online.sum()) == small_params.num_peers
        assert int(state.is_member.sum()) == 10

    def test_members_have_gateways_for_free(self, small_params):
        state = state_with(small_params, 10)
        assert (state.has_gateway == state.is_member).all()

    def test_invalid_member_count_rejected(self, small_params):
        with pytest.raises(ParameterError):
            state_with(small_params, -1)
        with pytest.raises(ParameterError):
            state_with(small_params, small_params.num_peers + 1)


class TestIndexDynamics:
    def test_refresh_then_live(self, small_params):
        state = state_with(small_params, 4)
        keys = np.array([3, 7])
        state.refresh(keys, now=5.0, key_ttl=10.0)
        assert state.index_size(now=10.0) == 2

    def test_expiry_instant_is_a_miss_like_ttl_store(self, small_params):
        # TtlKeyStore treats expires_at <= now as a miss; so does the array.
        state = state_with(small_params, 4)
        keys = np.array([0])
        state.refresh(keys, now=0.0, key_ttl=10.0)
        assert state.index_size(now=10.0) == 0
        assert state.index_size(now=9.999) == 1


def test_one_per_key_array_until_the_first_refresh(small_params):
    # The expiry is the only per-key fact a round needs; the per-entry
    # versions exist once content has been refreshed.
    state = state_with(small_params, 4)

    def per_key_arrays():
        return sorted(
            name
            for name, value in vars(state).items()
            if isinstance(value, np.ndarray) and value.size == small_params.n_keys
        )

    assert per_key_arrays() == ["expires_at"]
    assert state.expires_at.dtype == np.float64
    state.bump_versions()
    assert per_key_arrays() == ["expires_at", "indexed_version"]
    assert state.indexed_version.dtype == np.int64
    assert not state.indexed_version.any()
    state.bump_versions()
    assert per_key_arrays() == ["expires_at", "indexed_version"]


class TestGatewayDiscovery:
    def test_first_contact_counts_once(self, small_params):
        state = state_with(small_params, 0)
        origins = np.array([1, 2, 2, 3])
        assert state.discover_gateways(origins) == [3]
        assert state.discover_gateways(origins) == [0]

    def test_span_counts_each_origin_in_its_first_round(self, small_params):
        state = state_with(small_params, 0)
        state.has_gateway[9] = True
        # Rounds 0..3 of a span: 5 first appears in round 1, 4 in round 2
        # (its later queries are free), 9 already has a gateway.
        origins = np.array([9, 5, 4, 5, 4, 9, 4])
        rounds = np.array([0, 1, 2, 2, 2, 3, 3])
        assert state.discover_gateways(origins, rounds, 4) == [0, 1, 1, 0]
        assert state.discover_gateways(origins, rounds, 4) == [0, 0, 0, 0]

    def test_member_origins_are_free(self, small_params):
        state = state_with(small_params, small_params.num_peers)
        origins = np.arange(10)
        assert state.discover_gateways(origins) == [0]

    def test_empty_batch(self, small_params):
        state = state_with(small_params, 2)
        assert state.discover_gateways(np.empty(0, dtype=np.int64)) == [0]

    def test_online_member_fraction(self, small_params):
        state = state_with(small_params, 10)
        assert state.online_member_fraction() == 1.0
        state.online[state.is_member] = False
        assert state.online_member_fraction() == 0.0


class TestPayloadVersions:
    def test_versions_start_fresh_and_bump(self, small_params):
        state = state_with(small_params, 4)
        keys = np.array([0, 1, 2])
        assert state.stale_count(keys) == 0
        state.bump_versions()  # refresh all content
        assert state.stale_count(keys) == 3
        state.capture_versions(np.array([1]))  # re-insert fetches fresh
        assert state.stale_count(keys) == 2
        assert state.stale_count(np.array([1, 1, 1])) == 0  # per occurrence
        assert state.stale_count(np.array([0, 0, 2])) == 3

    def test_empty_batch(self, small_params):
        state = state_with(small_params, 4)
        assert state.stale_count(np.empty(0, dtype=np.int64)) == 0
