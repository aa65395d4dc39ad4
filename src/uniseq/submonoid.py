"""Least submonoid of the free monoid closed under two factor extractions.

Starting from the trivial submonoid, the closure of a finite word list
repeatedly adjoins

* every piece that occurs twice inside one input word with both flanks
  already members (``repeated_factors``), and
* every piece that occurs after a member prefix in one word and before a
  member suffix in a different word (``cross_factors``),

until nothing new appears.  Every adjoined piece is a subword of an input
word, so the iteration stabilizes.  Membership in the generated submonoid
is decided by word-break dynamic programming over prefixes.  Each round
tests its candidates in one batch: in reverse lexicographic order every
candidate that is a prefix of another comes right after a word it is a
prefix of, so one prefix table answers for a whole chain of prefixes.
Generating sets are plain tuples of words.
"""

from bisect import bisect_left
from collections import namedtuple
from itertools import compress, count

from .errors import EmptyInput
from .words import SHARED, Automaton, check_word, word_key


# The words extracted during one closure pass.
Round = namedtuple("Round", "repeated cross")
ClosureResult = namedtuple("ClosureResult", "generators rounds pool iterations")
# The generators of the whole free monoid.
_LETTERS = ("a", "b")


def prefix_members(gens, w):
    """Table t with t[i] true iff the length-i prefix of ``w`` is a member.

    The dynamic programming runs forward over member prefix ends only: at
    each, in increasing order, every generator occurring there marks the
    end it reaches, and ``list.index`` skips to the next marked end.
    """
    ok = [False] * (len(w) + 1)
    ok[0] = True
    i = 0
    try:
        while True:
            for g in gens:
                if w.startswith(g, i):
                    ok[i + len(g)] = True
            i = ok.index(True, i + 1)
    except ValueError:
        return ok


def suffix_members(gens, w):
    """Table t with t[i] true iff the suffix of ``w`` starting at i is a
    member: the prefix table of the mirrored word and generators, mirrored."""
    return prefix_members([g[::-1] for g in gens], w[::-1])[::-1]


def member(gens, w):
    """Is ``w`` a product of generators?  The empty word always is.

    >>> member(("ab",), "abab")
    True
    >>> member(("ab",), "aba")
    False
    >>> member((), "")
    True
    """
    check_word(w)
    return prefix_members(gens, w)[-1]


def repeated_factors(gens, words):
    """All pieces occurring twice in a single word with member flanks.

    A piece v qualifies when some input word splits as s v u v s' with s
    and s' members and u arbitrary.  The empty word always qualifies.

    Algorithm: for each member start i of a word w of length L, in
    increasing order, and for m = 1, 2, ... while 2m <= L - i, the piece
    v = w[i:i+m] qualifies when one of its occurrences at s >= i + m ends
    at a member end s + m.  ``str.find`` gives the first such occurrence.

    Stop rule: the search for i stops at the first m that has no such
    occurrence.  An occurrence of a longer piece at s >= i + m + 1 contains
    one of the shorter piece at s >= i + m, so no longer piece has one.

    Each piece is decided once per word.  The occurrences it may use only
    shrink as i grows, so its verdict holds for later starts.  A dict maps
    each decided piece to its last occurrence (``str.rfind``), which
    answers the stop rule when the piece comes again.  Pieces already in
    the result are not decided again.

    Guard: the later occurrences are walked until one ends at a member end,
    but never more of them than there are member ends l >= i + 2m.  Past
    that budget those ends are tested instead, with
    ``str.startswith(v, l - m)``.  So many occurrences with few member ends
    (a^k b^k over the generator a) cost as little as every position being
    a member end (both letters generators), where the first occurrence
    qualifies.

    Cost: at most L^2/4 pairs (i, m) per word, each a slice and a dict
    lookup; deciding a piece adds one ``find`` and ``rfind`` and at most
    twice the shorter of the two lists above.
    """
    out = {""}
    for w in words:
        n = len(w)
        suf = suffix_members(gens, w)
        ends = list(compress(range(n + 1), suf))
        last = {}  # pieces of w already decided -> their last occurrence
        for i in compress(range(n + 1), prefix_members(gens, w)):
            for m in range(1, (n - i) // 2 + 1):
                v = w[i:i + m]
                s = last.get(v)
                if s is not None:
                    if s < i + m:
                        break
                    continue
                s = w.find(v, i + m)
                if s < 0:
                    break
                last[v] = w.rfind(v)
                if v not in out and (suf[s + m] or _later_member_end(
                    w, v, s, suf, ends[bisect_left(ends, i + 2 * m):]
                )):
                    out.add(v)
    return out


def _later_member_end(w, v, s, suf, ends):
    """Does an occurrence of ``v`` after the one at s end at a member end?
    ``ends`` lists the member ends such an occurrence can reach.  At most
    len(ends) occurrences are walked; past that budget the ends are tested
    instead."""
    m = len(v)
    for _ in ends:
        s = w.find(v, s + 1)
        if s < 0:
            return False
        if suf[s + m]:
            return True
    return any(w.startswith(v, l - m) for l in ends)


def cross_factors(gens, words):
    """All pieces following a member prefix in one word and preceding a
    member suffix in a different word (distinct indices; repeated input
    words count separately).  The empty word always qualifies.

    One Aho-Corasick automaton holds w_i[p:] for every word w_i and every
    p where w_i[:p] is a member, each distinct piece once, labelled i, or
    ``SHARED`` when two words have it; each node is owned by the index
    whose pieces pass it, or ``SHARED`` once a second index has passed.
    The pieces go in sorted, each resuming at the prefix it shares with
    the one before, so every shared prefix is stepped once.  The empty
    prefix is a member, so w_j itself is a piece, and the automaton's state
    after w_j[:u] is the node at depth u on w_j's own path: no word is run
    through the automaton.  Only the path nodes at the u where w_j[u:] is a
    member are kept.  From each, the failure chain lists each suffix of
    w_j[:u] that follows a member prefix in some word, and those on nodes
    not owned by j alone are cross factors.  A node already visited for
    w_j had its whole chain visited, so the walk stops there.  With P the
    total length of the pieces, this costs a sort and O(log) slice
    comparisons per piece, O(nodes) <= O(P) Python steps to build, and at
    most one visit per node and word on the chains.
    """
    labels = {}  # piece -> the index of its one word, or SHARED
    for i, w in enumerate(words):
        # p = 0 makes every word, the empty word too, a piece with a path.
        for p in compress(range(len(w) or 1), prefix_members(gens, w)):
            piece = w[p:]
            labels[piece] = i if labels.setdefault(piece, i) == i else SHARED
    index = dict(zip(labels, count()))
    keep = {index[w]: bytes(suffix_members(gens, w)) for w in words}
    automaton = Automaton(list(labels.items()), keep)
    fail, depth, owner = automaton.fail, automaton.depth, automaton.owner
    visited = [-1] * len(depth)
    out = {""}
    for j, w in enumerate(words):
        for v in automaton.paths[index[w]]:
            u = depth[v]
            while v and visited[v] != j:
                visited[v] = j
                if owner[v] != j:
                    out.add(w[u - depth[v]:u])
                v = fail[v]
    return out


def irredundant_generators(pool):
    """The irredundant generators of a pool of words, a tuple sorted by ``word_key``.

    Words are taken shortest first; a word is kept only when the words
    already kept cannot produce it.  Keeping shorter words first means no
    kept word can later become redundant, since a product involving a
    longer word is itself longer.
    """
    chosen = []
    for x in sorted(set(pool), key=word_key):
        if x and not member(chosen, x):
            chosen.append(x)
    return tuple(chosen)


def _non_members(gens, words):
    """The words that are not members, with one prefix table per chain of
    prefixes.  In reverse lexicographic order, a word that is a prefix of
    another is a prefix of the word just before it, and so of the last word
    whose table was built; that table answers for it."""
    out = []
    head = None
    for v in sorted(words, reverse=True):
        if head is None or not head.startswith(v):
            head, table = v, prefix_members(gens, v)
        if not table[len(v)]:
            out.append(v)
    return out


def closure(words, *, generators_only=False):
    """Least submonoid closed under both extractions over ``words``.

    By default every round runs, up to the one that adjoins nothing, and
    the result records each round and the whole pool.  With
    ``generators_only`` the loop stops once the generators must become
    ``("a", "b")``: right after a round's repeated factors when they and
    the current generators hold both letters (that round's cross factors
    are skipped), or at the end of a round whose generators are both
    letters.  A submonoid holding both letters is the whole free monoid,
    so every later candidate is a member and the fixpoint is
    ``("a", "b")`` whatever the skipped rounds would find.  The generators
    are then exact; ``rounds``, ``pool`` and ``iterations`` cover only the
    rounds run in full, a prefix of the default result's.

    >>> closure(["aa"]).generators
    ('a',)
    >>> full = closure(["aa", "bb"])
    >>> full.generators, full.iterations
    (('a', 'b'), 2)
    >>> closure(["aa", "bb"], generators_only=True)
    ClosureResult(generators=('a', 'b'), rounds=(), pool=(), iterations=0)
    """
    words = [check_word(w) for w in words]
    if not words or any(not w for w in words):
        raise EmptyInput("closure needs a nonempty list of nonempty words")
    guard = sum(len(w) * (len(w) + 1) // 2 for w in words) + 2
    pool = set()
    gens = ()
    rounds = []
    for _ in range(guard):
        rep = repeated_factors(gens, words)
        if generators_only and rep.union(gens).issuperset(_LETTERS):
            gens = _LETTERS
            break
        cro = cross_factors(gens, words)
        rounds.append(
            Round(tuple(sorted(rep, key=word_key)), tuple(sorted(cro, key=word_key)))
        )
        pool |= rep | cro
        fresh = _non_members(gens, rep | cro)
        if not fresh:
            break
        # Every earlier pool word is a product of the current generators,
        # so these and the fresh words generate what the whole pool does,
        # and both reduce to its unique irredundant generators: the
        # indecomposable members, as in any submonoid of a free monoid.
        gens = irredundant_generators(gens + tuple(fresh))
        if generators_only and gens == _LETTERS:
            break
    else:
        raise AssertionError("closure did not stabilize inside the subword pool")
    return ClosureResult(
        generators=gens,
        rounds=tuple(rounds),
        pool=tuple(sorted(pool, key=word_key)),
        iterations=len(rounds),
    )
