"""Partial permutations of a finite ground set and their orbit structure.

A partial permutation is an injective map between subsets of the ground
set.  The blocks of a generator list are the connected components of the
point graph whose arcs are generator (and inverse) applications; they
partition the ground set.  ``blocks`` computes them for the CLI's
``blocks`` command, an independent check on partial-permutation actions.
"""

from collections import namedtuple


def _point_key(p):
    return (repr(type(p)), repr(p))


class PartialPerm(namedtuple("PartialPerm", "ground pairs")):
    __slots__ = ()

    def __new__(cls, ground, pairs):
        ground = frozenset(ground)
        pairs = [(x, y) for x, y in pairs]
        sources = [x for x, _ in pairs]
        images = [y for _, y in pairs]
        if len(set(sources)) != len(sources):
            raise ValueError("a point has two images")
        if len(set(images)) != len(images):
            raise ValueError("not injective")
        for p in sources + images:
            if p not in ground:
                raise ValueError(f"point {p!r} is outside the ground set")
        return tuple.__new__(cls, (ground, frozenset(pairs)))


def partial_perm(mapping, ground):
    """Build a partial permutation from a point-to-point dict."""
    return PartialPerm(frozenset(ground), tuple(mapping.items()))


def blocks(generators, ground):
    """Partition of the ground set into connected components of the arcs
    x -> (x)g over the generators and their inverses, listed in order of
    first appearance over the sorted ground set."""
    ground = frozenset(ground)
    neighbors = {p: set() for p in ground}
    for g in generators:
        if g.ground != ground:
            raise ValueError("generator ground set mismatch")
        for x, y in g.pairs:
            neighbors[x].add(y)
            neighbors[y].add(x)
    seen = set()
    out = []
    for start in sorted(ground, key=_point_key):
        if start in seen:
            continue
        component = set()
        stack = [start]
        while stack:
            p = stack.pop()
            if p in component:
                continue
            component.add(p)
            stack.extend(q for q in neighbors[p] if q not in component)
        seen |= component
        out.append(frozenset(component))
    return out
