"""Brute-force solver for word equations in the monoid of all self-maps of
a small finite set.

A map on {0, ..., m-1} is a tuple of images.  Words act on the right:
evaluating "ab" sends x to g(f(x)) where f and g are the images of a and
b.  The solver exhausts all (f, g) pairs in lexicographic order, so the
returned solution is the least one and identical across runs.
"""

from itertools import product

from .errors import CapExceeded
from .words import check_word

DEFAULT_CAP = 4
# Hard limit on ``cap``: the search visits up to m^(2m) assignments, about
# 10^7 at m = 5 and 2.2 * 10^9 at m = 6.
MAX_SET_SIZE = 5


def compose_maps(first, then):
    """Apply ``first``, then ``then``."""
    return tuple(then[v] for v in first)


def evaluate(word, assignment):
    """Image map of a nonempty word under a letter-to-map assignment,
    composing left to right.  ``solve`` checks each word once, so this does
    not: an unknown letter raises KeyError and the empty word IndexError."""
    current = assignment[word[0]]
    for ch in word[1:]:
        current = compose_maps(current, assignment[ch])
    return current


def _check_map(images, size, what):
    images = tuple(images)
    if len(images) != size or any(
        not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < size
        for v in images
    ):
        raise ValueError(f"{what} must list {size} images in range 0..{size - 1}")
    return images


def all_maps(size):
    """Every self-map of {0, ..., size-1}, in lexicographic order."""
    return product(range(size), repeat=size)


def solve(words, targets, size, cap=DEFAULT_CAP):
    """Letter assignment sending every word to its target map, or None.

    Enumerates assignments lexicographically; candidates for the letter a
    are pruned early against equations whose word uses only a, and every
    returned assignment has passed the full equation list.  ``cap`` may
    not exceed MAX_SET_SIZE.
    """
    if cap > MAX_SET_SIZE:
        raise CapExceeded(f"set size cap {cap} exceeds the hard limit {MAX_SET_SIZE}")
    if size > cap:
        raise CapExceeded(f"ground size {size} exceeds the cap {cap}")
    if size < 1:
        raise ValueError("the ground set needs at least one point")
    if len(words) != len(targets):
        raise ValueError("need exactly one target per word")
    equations = []
    for w, t in zip(words, targets):
        check_word(w)
        if not w:
            raise ValueError("equation words must be nonempty")
        equations.append((w, _check_map(t, size, f"target for {w!r}")))
    a_only = [(w, t) for w, t in equations if "b" not in w]
    for f in all_maps(size):
        if any(evaluate(w, {"a": f}) != t for w, t in a_only):
            continue
        for g in all_maps(size):
            assignment = {"a": f, "b": g}
            if all(evaluate(w, assignment) == t for w, t in equations):
                return assignment
    return None
