"""Property-based tests for key-space arithmetic."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dht.keyspace import KeySpace

BITS = 16
space = KeySpace(bits=BITS)
ident_st = st.integers(min_value=0, max_value=space.size - 1)


@given(ident=ident_st)
@settings(max_examples=100, deadline=None)
def test_to_bits_is_the_binary_numeral(ident):
    bits = space.to_bits(ident)
    assert len(bits) == BITS
    assert int(bits, 2) == ident


@given(ident=ident_st, position=st.integers(min_value=0, max_value=BITS - 1))
@settings(max_examples=100, deadline=None)
def test_binary_digits_rebuild_identifier(ident, position):
    bits = [space.digit(ident, i) for i in range(BITS)]
    rebuilt = int("".join(str(b) for b in bits), 2)
    assert rebuilt == ident


@given(key=st.text(min_size=0, max_size=30))
@settings(max_examples=100, deadline=None)
def test_hash_key_in_range(key):
    assert 0 <= space.hash_key(key) < space.size
