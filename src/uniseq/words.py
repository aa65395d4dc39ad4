"""Primitives for finite words over the fixed alphabet {a, b}.

Words are plain Python strings.  The empty string is the identity for
concatenation and counts as a prefix, suffix and subword of every word.
"""

from .errors import AlphabetError

ALPHABET = "ab"


def check_word(w):
    """Validate that ``w`` is a string using only the letters a and b."""
    if not isinstance(w, str):
        raise AlphabetError(f"expected a string, got {type(w).__name__}")
    for ch in w:
        if ch not in ALPHABET:
            raise AlphabetError(f"letter {ch!r} is not in the alphabet {{a, b}}")
    return w


def word_key(w):
    """Sort key giving the (length, lexicographic) order used in reports."""
    return (len(w), w)
