"""Globally-known stop words.

"It is a standard approach in information retrieval to avoid indexing stop
words, such as 'the', 'and', etc. We assume that the set of such stop
words is globally known to all peers in the system" (Section 4).
"""

from __future__ import annotations

__all__ = ["STOP_WORDS", "is_stop_word", "strip_stop_words"]

#: A conventional English stop-word list (the classic SMART subset most
#: relevant to news titles). Frozen so every peer agrees on it.
STOP_WORDS: frozenset[str] = frozenset(
    {
        "a", "an", "and", "are", "as", "at", "be", "but", "by", "for",
        "from", "has", "have", "he", "her", "his", "if", "in", "into",
        "is", "it", "its", "no", "not", "of", "on", "or", "our", "she",
        "so", "such", "that", "the", "their", "then", "there", "these",
        "they", "this", "to", "was", "were", "will", "with", "you",
    }
)


def is_stop_word(word: str) -> bool:
    """Case-insensitive stop-word test."""
    return word.lower() in STOP_WORDS


def strip_stop_words(words: list[str]) -> list[str]:
    """Remove stop words, preserving the order of the remaining words."""
    return [w for w in words if not is_stop_word(w)]
