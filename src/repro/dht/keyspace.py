"""The DHT's identifier space.

Keys (strings) and peers are mapped by SHA-1 into one ``2^bits``
identifier space; P-Grid reads an identifier as a binary string, one trie
level per bit, and the helpers here are what it reads it with.

A key's SHA-1 digest is memoised per process (``cache.key_hash.*``): every
network of a figure hashes the same keys.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.errors import KeyspaceError
from repro.obs.cache import counted_cache

__all__ = ["KeySpace", "HASH_MEMO"]

#: Digests :func:`_sha1` keeps: every key of a figure at the default
#: scale (2,000). A larger key universe cycles through it without hits,
#: and holds no more than this many digests beside its networks' own.
HASH_MEMO = 1 << 11


@counted_cache("key_hash", maxsize=HASH_MEMO)
def _sha1(key: str) -> int:
    """``key``'s SHA-1 digest, as a 160-bit int."""
    return int.from_bytes(hashlib.sha1(key.encode("utf-8")).digest(), "big")


@dataclass(frozen=True)
class KeySpace:
    """An identifier space of ``2**bits`` points.

    The paper assumes "a binary key space" (footnote 3); ``bits`` defaults
    to 160 (SHA-1) but tests use small spaces.
    """

    bits: int = 160

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 512:
            raise KeyspaceError(f"bits must be in [1, 512], got {self.bits}")

    @property
    def size(self) -> int:
        return 1 << self.bits

    # ------------------------------------------------------------------
    # Hashing
    # ------------------------------------------------------------------
    def hash_key(self, key: str) -> int:
        """Map an application key (string) into the identifier space."""
        return _sha1(key) % self.size

    def check(self, ident: int) -> int:
        """Validate that an identifier lies in the space; return it."""
        if not 0 <= ident < self.size:
            raise KeyspaceError(
                f"identifier {ident} outside [0, 2^{self.bits})"
            )
        return ident

    # ------------------------------------------------------------------
    # Binary prefixes
    # ------------------------------------------------------------------
    def to_bits(self, ident: int) -> str:
        """Fixed-width binary string of ``ident`` (MSB first)."""
        return format(self.check(ident), f"0{self.bits}b")

    def digit(self, ident: int, position: int) -> int:
        """The ``position``-th bit of ``ident`` (MSB first)."""
        if not 0 <= position < self.bits:
            raise KeyspaceError(
                f"position must be in [0, {self.bits}), got {position}"
            )
        return (self.check(ident) >> (self.bits - 1 - position)) & 1
