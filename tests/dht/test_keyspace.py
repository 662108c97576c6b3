"""Tests for key-space arithmetic."""

from __future__ import annotations

import pytest

from repro.dht.keyspace import KeySpace
from repro.errors import KeyspaceError


@pytest.fixture
def small_space() -> KeySpace:
    return KeySpace(bits=8)


class TestHashing:
    def test_hash_in_range(self):
        space = KeySpace(bits=160)
        assert 0 <= space.hash_key("anything") < space.size

    def test_hash_deterministic(self):
        space = KeySpace()
        assert space.hash_key("k") == space.hash_key("k")

    def test_hash_respects_small_spaces(self, small_space):
        for key in ("a", "b", "c", "d"):
            assert 0 <= small_space.hash_key(key) < 256

    def test_check_rejects_out_of_range(self, small_space):
        with pytest.raises(KeyspaceError):
            small_space.check(256)
        with pytest.raises(KeyspaceError):
            small_space.check(-1)

    def test_invalid_bits_rejected(self):
        with pytest.raises(KeyspaceError):
            KeySpace(bits=0)
        with pytest.raises(KeyspaceError):
            KeySpace(bits=1000)


class TestBits:
    def test_to_bits_width(self, small_space):
        assert small_space.to_bits(5) == "00000101"

    def test_digit_binary(self, small_space):
        # 0b10110000: digits (bits) MSB-first are 1,0,1,1,0,0,0,0.
        bits = [small_space.digit(0b10110000, i) for i in range(8)]
        assert bits == [1, 0, 1, 1, 0, 0, 0, 0]

    def test_digit_position_bounds(self, small_space):
        with pytest.raises(KeyspaceError):
            small_space.digit(0, 8)
        with pytest.raises(KeyspaceError):
            small_space.digit(0, -1)
