"""Independent oracles used to cross-check the package implementations.

Everything here deliberately uses a different algorithm than the code
under test: breadth-first product enumeration instead of word-break
dynamic programming, union-find instead of graph search, unpruned
exhaustion instead of the pruned solver, and a witness machine whose every
transition goes through the validating ``StackState(...)`` constructor
instead of the machine's trusted one.
"""

from itertools import product

from uniseq.equations import evaluate
from uniseq.errors import AmbiguousCollapse
from uniseq.witness import TARGETED, StackState, _cell_at, _scan_matches, gw_inv, gw_mul


def submonoid_members(generators, max_len):
    """All products of the generators up to the given length, by BFS."""
    members = {""}
    frontier = [""]
    while frontier:
        next_frontier = []
        for w in frontier:
            for g in generators:
                p = w + g
                if len(p) <= max_len and p not in members:
                    members.add(p)
                    next_frontier.append(p)
        frontier = next_frontier
    return members


def decompose_oracle(w, generators):
    """Longest member prefix and suffix by exhaustive scan over every
    (prefix, suffix) pair against the BFS member set."""
    members = submonoid_members(generators, len(w))
    prefix_end = max(i for i in range(len(w) + 1) if w[:i] in members)
    suffix_start = min(i for i in range(len(w) + 1) if w[i:] in members)
    return prefix_end, suffix_start


class UnionFind:
    def __init__(self, points):
        self.parent = {p: p for p in points}

    def find(self, p):
        root = p
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[p] != root:
            self.parent[p], p = root, self.parent[p]
        return root

    def union(self, p, q):
        self.parent[self.find(p)] = self.find(q)


def blocks_oracle(perms, ground):
    """Orbit partition via union-find over the generator arcs."""
    uf = UnionFind(ground)
    for g in perms:
        for x, y in g.pairs:
            uf.union(x, y)
    groups = {}
    for p in ground:
        groups.setdefault(uf.find(p), set()).add(p)
    return {frozenset(b) for b in groups.values()}


def brute_solve(words, targets, size):
    """Unpruned exhaustive search, first hit in lexicographic order."""
    for f in product(range(size), repeat=size):
        for g in product(range(size), repeat=size):
            assignment = {"a": f, "b": g}
            if all(evaluate(w, assignment) == t for w, t in zip(words, targets)):
                return assignment
    return None


def _collapse_reference(state, depth, word):
    merged = gw_mul(_cell_at(state, depth), word)
    stored = len(state.entries)
    kept = state.entries[: stored - 1 - depth] if depth < stored else ()
    return StackState(state.tail, kept + (merged,))


def _append_reference(state, word):
    if not word:
        return state
    if state.entries:
        return StackState(
            state.tail, state.entries[:-1] + (gw_mul(state.entries[-1], word),)
        )
    return StackState(state.tail, (gw_mul(state.tail, word),))


def _unique_match(state, keys, tails):
    matches = _scan_matches(state, keys, tails)
    if len(matches) > 1:
        raise AmbiguousCollapse(f"overlapping matches: {matches}")
    return matches[0] if matches else None


def eval_hom_reference(word, state, mode, ctx):
    """``witness.eval_hom`` with every state re-validated: each push, fold,
    firing and append builds its result through ``StackState(...)``."""
    for ch in word:
        state = StackState(state.tail, state.entries + (ch,))
        if ch != "b":
            continue
        match = _unique_match(state, ctx._gen_keys, ctx._gen_tails)
        if match:
            state = _collapse_reference(state, *match)
        if mode != TARGETED:
            continue
        match = _unique_match(state, ctx._middle_map, ctx._middle_tails)
        if match:
            depth, middle = match
            dec = ctx._middle_map[middle]
            unwound = _collapse_reference(state, depth, gw_inv(dec.prefix))
            mapped = ctx.targets[dec.index - 1](unwound)
            state = _append_reference(mapped, gw_inv(dec.suffix))
    return state
