"""Bounded checks of the sufficient conditions a word family must meet.

``analyze_family`` checks the main condition (split-freeness and middle
uniqueness over the longest-member-prefix/suffix decompositions) and keeps
the words, generators and decompositions it computed; ``check_corollary``
checks the stronger overlap-free condition.  All family-level verdicts are
computed from the first N instantiated words and carry that bound; they
never claim anything about larger indices.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import groupby, repeat
from operator import itemgetter

from .families import instantiate_many
from .submonoid import closure, prefix_members, suffix_members
from .words import Automaton, check_word


# Split of a word into its longest member prefix, a nonempty middle, and
# its longest member suffix.
Decomposition = namedtuple("Decomposition", "index prefix middle suffix")
# Outcome of a check at ``bound``.  A finding is a plain row
# ``(condition, 1-based word indices, witness words)`` of str and tuples.
Verdict = namedtuple("Verdict", "holds bound violations warnings", defaults=((), ()))


def decompose(w, gens, index):
    """Longest-member-prefix / middle / longest-member-suffix split.

    None when a cut pair covers ``w``: some split w = s t v has both s t
    and t v members, so the longest member prefix does not end strictly
    before the earliest member suffix starts.  In particular a member
    ``w`` has no decomposition.
    """
    check_word(w)
    pre = prefix_members(gens, w)
    suf = suffix_members(gens, w)
    longest_prefix_end = len(w) - pre[::-1].index(True)
    earliest_suffix_start = suf.index(True)
    if longest_prefix_end >= earliest_suffix_start:
        return None
    return Decomposition(
        index=index,
        prefix=w[:longest_prefix_end],
        middle=w[longest_prefix_end:earliest_suffix_start],
        suffix=w[earliest_suffix_start:],
    )


# Everything the main condition check computes, kept for reuse;
# ``decompositions`` is None when a word has none.
FamilyAnalysis = namedtuple("FamilyAnalysis", "words generators decompositions verdict")


def analyze_family(family, bound):
    """Instantiate the first ``bound`` words, compute their closure, and
    check the three main conditions:

    * no word is covered by a member prefix/suffix cut pair;
    * each middle occurs as a subword of exactly its own word;
    * no middle occurs inside its own member prefix.

    A middle occurring inside a different word's member prefix is reported
    as a warning, not a violation.  Findings are ``(condition, indices,
    witness)`` rows: ``split`` at (n,) with (w_n,), ``middle-unique`` at
    (n, m) with (middle n, w_m), ``middle-in-own-prefix`` at (n,) with
    (middle n, prefix n), and the ``middle-in-other-prefix`` warning at
    (n, m) with (middle n, prefix m).  The two middle conditions and the
    warning come from one sorted trie of the words and middles
    (``_middle_findings``): O(trie nodes) Python steps plus one step per
    (middle, word) occurrence.

    The checks read only the closure's generators, so only they are kept;
    ``submonoid.closure(words)`` gives every round.
    """
    if bound < 2:
        raise ValueError("family checks need a bound of at least 2")
    words = instantiate_many(family, bound)
    gens = closure(words, generators_only=True).generators
    decomps = [decompose(w, gens, n) for n, w in enumerate(words, 1)]
    violations = [("split", (n + 1,), (w,)) for n, w in enumerate(words) if decomps[n] is None]
    found, warnings = _middle_findings(words, decomps)
    violations += found
    verdict = Verdict(not violations, bound, tuple(violations), tuple(warnings))
    complete = None if None in decomps else tuple(decomps)
    return FamilyAnalysis(tuple(words), gens, complete, verdict)


def _middle_findings(words, decomps):
    """The middle-unique and middle-in-own-prefix violations and the
    middle-in-other-prefix warnings: for each n in order, the pairs (n, m)
    of middle-unique by m, then n's own prefix, then the warnings by m.

    ``decomps[n]`` is None or splits ``words[n]`` with a nonempty middle.
    The middles and the words go into one sorted trie (``Automaton``), so
    each shared prefix is stepped once, and no word is run through the
    automaton: its path is its trie path.  ``occurrences`` gives, for each
    word, every middle occurring in it with the end of its first
    occurrence u.  Prefix m is w_m[:len(prefix m)], so middle n lies
    inside it exactly when u is at most that length.  With T the trie
    nodes and H the (middle, word) occurrence pairs, this costs
    O(T + H log H) steps.
    """
    middles = [(n, dec.middle) for n, dec in enumerate(decomps) if dec is not None]
    if not middles:
        return [], []
    automaton = Automaton([(mid, 0) for _, mid in middles] + [(w, 0) for w in words], {})
    found = automaton.occurrences(range(len(middles)))[len(middles):]
    hits = sorted((middles[j][0], m, u) for m, ends in enumerate(found) for j, u in ends.items())
    violations, warnings = [], []
    for n, group in groupby(hits, itemgetter(0)):
        dec = decomps[n]
        ends = {m: u for _, m, u in group}
        violations += [
            ("middle-unique", (n + 1, m + 1), (dec.middle, words[m])) for m in ends if m != n
        ]
        if ends[n] <= len(dec.prefix):
            violations.append(("middle-in-own-prefix", (n + 1,), (dec.middle, dec.prefix)))
        for m, u in ends.items():
            other = decomps[m]
            if m != n and other is not None and u <= len(other.prefix):
                warnings.append(
                    ("middle-in-other-prefix", (n + 1, m + 1), (dec.middle, other.prefix))
                )
    return violations, warnings


def check_corollary(family, bound):
    """Verdict for the stronger overlap-free condition at the given bound:
    no nonempty proper prefix of any word is a suffix of any word
    (including the word itself), and no word is a subword of another.

    The empty prefix is excluded; it is a suffix of everything and would
    make the condition vacuous.

    One Aho-Corasick automaton holds all N words, inserted as one sorted
    trie, so each shared prefix is stepped once and w_m's path is its trie
    path.  ``occurrences`` gives every word occurring in w_m (a subword),
    and the failure chain from w_m's end node lists every suffix of w_m
    that is a prefix of some word.  Taken shortest first, a chain suffix s
    is the witness for every word that properly extends s and no shorter
    chain suffix; those words form one range of the sorted word list,
    which is either wholly claimed by a shorter suffix already or not at
    all.  Violations are ``(condition, (n, m), (witness,))`` rows in
    (n, m) order, a ``prefix-suffix-overlap`` (witness: the overlap) before
    a ``subword`` (witness: w_n).  With T the trie nodes, S the subword
    pairs and V the violation count, this costs a sort,
    O(T + N^2 + S + V log V) steps and two binary searches per chain
    suffix.
    """
    if bound < 2:
        raise ValueError("family checks need a bound of at least 2")
    words = instantiate_many(family, bound)
    automaton = Automaton([(w, 0) for w in words], {})
    fail, depth = automaton.fail, automaton.depth
    subwords = automaton.occurrences(range(len(words)))
    by_text = sorted(range(len(words)), key=words.__getitem__)
    sorted_words = [words[k] for k in by_text]
    found = []
    for m, (wm, node) in enumerate(zip(words, automaton.ends)):
        found.extend((n, m, 1, words[n]) for n in subwords[m] if n != m)
        chain = []
        while node:
            chain.append(depth[node])
            node = fail[node]
        claimed = bytearray(len(words))
        for d in reversed(chain):
            piece = wm[len(wm) - d:]
            # "c" sorts after both letters, so the words longer than piece
            # that start with it lie between these two positions.
            lo = bisect_right(sorted_words, piece)
            hi = bisect_left(sorted_words, piece + "c", lo)
            if lo < hi and not claimed[lo]:
                claimed[lo:hi] = b"\1" * (hi - lo)
                found.extend(zip(by_text[lo:hi], repeat(m), repeat(0), repeat(piece)))
    found.sort()
    names = ("prefix-suffix-overlap", "subword")
    violations = tuple([(names[kind], (n + 1, m + 1), (w,)) for n, m, kind, w in found])
    return Verdict(not violations, bound, violations)
