"""Reference computations the benchmark checks the program's reports against.

Nothing here imports ``uniseq``.  Each function re-derives a result from the
definitions with a different algorithm than the program uses:

* membership is a breadth-first search over the positions of a word that
  whole generators can reach, not a word-break table;
* the closure enumerates each distinct subword and its occurrences instead
  of pairs of member boundaries, and takes the unique minimal generating
  set as the indecomposable elements instead of a greedy scan;
* prefix/suffix overlaps are found by locating an anchor (the last letters
  of one word) inside the other, not by trying every prefix length;
* maps are composed by hand, and blocks come from union-find.
"""

from functools import lru_cache
from itertools import product


def word_key(w):
    return (len(w), w)


# -- builtin families, restated from their definitions -----------------------

def builtin_word(name, n):
    """The n-th word (n >= 1) of a builtin family."""
    if name == "banach":
        return "ab" + "a" * (n + 1) + "bb"
    if name == "sierpinski":
        return "aabbb" + "ababbb" * (n + 1) + "abbabbb"
    if name == "alternating":
        return "aba" + "ab" * (n + 1) + "bab"
    raise KeyError(name)


def family_word(spec, n):
    """The n-th word of a family given as a list of segments
    ``("lit", word)`` or ``("pow", base, c, d)``."""
    out = []
    for seg in spec:
        if seg[0] == "lit":
            out.append(seg[1])
        else:
            _, base, c, d = seg
            out.append(base * (c * n + d))
    return "".join(out)


# -- membership ---------------------------------------------------------------

def reachable(gens, w, backwards=False):
    """Positions of ``w`` reachable from its start (or, backwards, from its
    end) by reading whole generators: the member-prefix ends, or the
    member-suffix starts."""
    n = len(w)
    start = n if backwards else 0
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for i in frontier:
            for g in gens:
                j = i - len(g) if backwards else i + len(g)
                if j in seen or j < 0 or j > n:
                    continue
                if (w[j:i] if backwards else w[i:j]) == g:
                    seen.add(j)
                    nxt.append(j)
        frontier = nxt
    return seen


def is_member(gens, w):
    return len(w) in reachable(gens, w)


def indecomposables(words):
    """The unique minimal generating set of the submonoid generated by
    ``words``: its nonempty elements that are not a product of two
    nonempty elements."""
    pool = sorted({w for w in words if w}, key=word_key)
    out = []
    for x in pool:
        others = [y for y in pool if len(y) < len(x)]
        if not is_member(others, x):
            out.append(x)
    return out


# -- closure ------------------------------------------------------------------

def _occurrences(w, v):
    out = []
    i = w.find(v)
    while i >= 0:
        out.append(i)
        i = w.find(v, i + 1)
    return out


def extraction_round(gens, words):
    """(repeated, cross) pieces for one closure pass with generators ``gens``."""
    pre = [reachable(gens, w) for w in words]
    suf = [reachable(gens, w, backwards=True) for w in words]
    repeated = {""}
    follows_prefix = []
    precedes_suffix = []
    for k, w in enumerate(words):
        subwords = {w[i:j] for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
        after = set()
        before = set()
        for v in subwords:
            occ = _occurrences(w, v)
            firsts = [o for o in occ if o in pre[k]]
            lasts = [o for o in occ if o + len(v) in suf[k]]
            if firsts:
                after.add(v)
            if lasts:
                before.add(v)
            if firsts and lasts and firsts[0] + len(v) <= lasts[-1]:
                repeated.add(v)
        follows_prefix.append(after)
        precedes_suffix.append(before)
    cross = {""}
    for i in range(len(words)):
        for j in range(len(words)):
            if i != j:
                cross |= follows_prefix[i] & precedes_suffix[j]
    return repeated, cross


@lru_cache(maxsize=None)
def closure(words):
    """Rounds, pool and generators of the least closed submonoid of a tuple
    of words.  Cached: several jobs check against the same family."""
    gens = []
    pool = set()
    rounds = []
    while True:
        rep, cro = extraction_round(gens, words)
        rounds.append((sorted(rep, key=word_key), sorted(cro, key=word_key)))
        pool |= rep | cro
        if all(is_member(gens, v) for v in rep | cro):
            break
        gens = indecomposables(pool)
    return {
        "generators": indecomposables(pool),
        "iterations": len(rounds),
        "pool": sorted(pool, key=word_key),
        "rounds": [{"repeated": r, "cross": c} for r, c in rounds],
    }


# -- conditions ---------------------------------------------------------------

def decomposition(gens, w):
    """(prefix end, suffix start) of the longest member prefix and suffix."""
    return max(reachable(gens, w)), min(reachable(gens, w, backwards=True))


def theorem(gens, words):
    """Decompositions, violations and warnings of the main condition, given
    the closure generators."""
    decomps = []
    violations = []
    warnings = []
    for n, w in enumerate(words, 1):
        p, s = decomposition(gens, w)
        if p < s:
            decomps.append((n, w[:p], w[p:s], w[s:]))
        else:
            decomps.append(None)
            violations.append({"condition": "split", "indices": [n], "witness": [w]})
    for dec in decomps:
        if dec is None:
            continue
        n, prefix, middle, _ = dec
        for m, w in enumerate(words, 1):
            if m != n and w.find(middle) >= 0:
                violations.append(
                    {"condition": "middle-unique", "indices": [n, m], "witness": [middle, w]}
                )
        if prefix.find(middle) >= 0:
            violations.append(
                {"condition": "middle-in-own-prefix", "indices": [n], "witness": [middle, prefix]}
            )
        for other in decomps:
            if other is not None and other[0] != n and other[1].find(middle) >= 0:
                warnings.append({
                    "condition": "middle-in-other-prefix",
                    "indices": [n, other[0]],
                    "witness": [middle, other[1]],
                })
    complete = [] if any(d is None for d in decomps) else [
        {"n": n, "prefix": p, "middle": m, "suffix": s} for n, p, m, s in decomps
    ]
    return complete, violations, warnings


ANCHOR = 8


def shortest_overlap(u, v):
    """Least l with 0 < l < len(u) and u[:l] == v[-l:], or 0.

    Every overlap longer than the anchor ends, inside ``u``, with an
    occurrence of the last ``ANCHOR`` letters of ``v``; those occurrences
    are found left to right, so the first one that extends to a full
    overlap is the shortest."""
    top = min(len(u) - 1, len(v))
    k = min(ANCHOR, top)
    for l in range(1, k + 1):
        if u[:l] == v[len(v) - l:]:
            return l
    if top <= k:
        return 0
    tail = v[len(v) - k:]
    pos = u.find(tail, 1, top)
    while pos >= 0:
        l = pos + k
        if u[:l] == v[len(v) - l:]:
            return l
        pos = u.find(tail, pos + 1, top)
    return 0


def corollary_violations(words):
    """Violations of the overlap-free condition, in the program's order."""
    out = []
    for n, wn in enumerate(words, 1):
        for m, wm in enumerate(words, 1):
            l = shortest_overlap(wn, wm)
            if l:
                out.append(
                    {"condition": "prefix-suffix-overlap", "indices": [n, m], "witness": [wn[:l]]}
                )
            if n != m and wm.find(wn) >= 0:
                out.append({"condition": "subword", "indices": [n, m], "witness": [wn]})
    return out


# -- witness ------------------------------------------------------------------

def product_count(gens, max_len=24, limit=40):
    """How many distinct nonempty generator products of at most ``max_len``
    letters there are, capped at ``limit``: the products the witness
    checks for append and agreement."""
    by_length = [set() for _ in range(max_len + 1)]
    by_length[0].add("")
    for length in range(1, max_len + 1):
        for g in gens:
            if len(g) <= length:
                by_length[length].update(w + g for w in by_length[length - len(g)])
    return min(limit, sum(len(s) for s in by_length[1:]))


# -- equations and actions ----------------------------------------------------

def image(word, a, b):
    """The map a word sends {0..m-1} through, letters applied left to right."""
    out = list(range(len(a)))
    for ch in word:
        step = a if ch == "a" else b
        out = [step[x] for x in out]
    return out


def exhaustive_solutions(words, targets, size):
    """Whether any letter assignment solves the system (full search)."""
    maps = list(product(range(size), repeat=size))
    return any(
        all(image(w, f, g) == list(t) for w, t in zip(words, targets))
        for f in maps
        for g in maps
    )


def union_find_blocks(ground, pairs_lists):
    parent = {p: p for p in ground}

    def find(p):
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for pairs in pairs_lists:
        for x, y in pairs:
            parent[find(x)] = find(y)
    groups = {}
    for p in ground:
        groups.setdefault(find(p), []).append(p)
    return sorted(sorted(b) for b in groups.values())
