"""Bounded checks of the sufficient conditions a word family must meet.

All family-level verdicts are computed from the first N instantiated words
and carry that bound; they never claim anything about larger indices.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .errors import EmptyInput, SplitViolation
from .families import instantiate_many
from .submonoid import ClosureResult, closure, member, prefix_members, suffix_members
from .words import Automaton, check_word


@dataclass(frozen=True)
class Decomposition:
    """Split of a word into its longest member prefix, a nonempty middle,
    and its longest member suffix."""

    index: int
    prefix: str
    middle: str
    suffix: str

    @property
    def word(self):
        return self.prefix + self.middle + self.suffix


@dataclass(frozen=True)
class Violation:
    condition: str
    indices: tuple[int, ...]
    witness: tuple[str, ...]

    def to_json(self):
        return {
            "condition": self.condition,
            "indices": list(self.indices),
            "witness": list(self.witness),
        }


@dataclass(frozen=True)
class Verdict:
    holds: bool
    bound: int
    violations: tuple[Violation, ...] = ()
    warnings: tuple[Violation, ...] = ()
    applicable: bool = True


def decompose(w, gens, index):
    """Longest-member-prefix / middle / longest-member-suffix split.

    Raises SplitViolation when a cut pair covers ``w``: some split
    w = s t v has both s t and t v members, so the longest member prefix
    does not end strictly before the earliest member suffix starts.  In
    particular a member ``w`` has no decomposition.
    """
    check_word(w)
    pre = prefix_members(gens, w)
    suf = suffix_members(gens, w)
    longest_prefix_end = len(w) - pre[::-1].index(True)
    earliest_suffix_start = suf.index(True)
    if longest_prefix_end >= earliest_suffix_start:
        raise SplitViolation(
            f"word {index}: member prefix and suffix overlap or cover the word"
        )
    return Decomposition(
        index=index,
        prefix=w[:longest_prefix_end],
        middle=w[longest_prefix_end:earliest_suffix_start],
        suffix=w[earliest_suffix_start:],
    )


@dataclass(frozen=True)
class FamilyAnalysis:
    """Everything the main condition check computes, kept for reuse."""

    words: tuple[str, ...]
    closure: ClosureResult
    decompositions: tuple[Decomposition, ...] | None
    verdict: Verdict


def analyze_family(family, bound):
    """Instantiate the first ``bound`` words, compute their closure, and
    check the three main conditions:

    * no word is covered by a member prefix/suffix cut pair;
    * each middle occurs as a subword of exactly its own word;
    * no middle occurs inside its own member prefix.

    A middle occurring inside a different word's member prefix is reported
    as a warning, not a violation.
    """
    if bound < 2:
        raise ValueError("family checks need a bound of at least 2")
    words = instantiate_many(family, bound)
    clo = closure(words)
    gens = clo.generators
    violations = []
    warnings = []
    decomps = []
    for n, w in enumerate(words, 1):
        try:
            decomps.append(decompose(w, gens, n))
        except SplitViolation:
            decomps.append(None)
            violations.append(Violation("split", (n,), (w,)))
    for n, dec in enumerate(decomps, 1):
        if dec is None:
            continue
        for m, w in enumerate(words, 1):
            if n != m and dec.middle in w:
                violations.append(Violation("middle-unique", (n, m), (dec.middle, w)))
        if dec.middle in dec.prefix:
            violations.append(
                Violation("middle-in-own-prefix", (n,), (dec.middle, dec.prefix))
            )
        for m, other in enumerate(decomps, 1):
            if other is not None and m != n and dec.middle in other.prefix:
                warnings.append(
                    Violation("middle-in-other-prefix", (n, m), (dec.middle, other.prefix))
                )
    verdict = Verdict(not violations, bound, tuple(violations), tuple(warnings))
    complete = None if any(d is None for d in decomps) else tuple(decomps)
    return FamilyAnalysis(tuple(words), clo, complete, verdict)


def check_theorem(family, bound):
    """Verdict for the main sufficient condition at the given bound."""
    return analyze_family(family, bound).verdict


def check_corollary(family, bound):
    """Verdict for the stronger overlap-free condition at the given bound:
    no nonempty proper prefix of any word is a suffix of any word
    (including the word itself), and no word is a subword of another.

    The empty prefix is excluded; it is a suffix of everything and would
    make the condition vacuous.

    One Aho-Corasick automaton holds all N words.  Running w_m through it
    meets, at each position, the nodes of every word ending there (a
    subword), and the failure chain from the final node lists every suffix
    of w_m that is a prefix of some word.  Taken shortest first, a chain
    suffix s is the witness for every word that properly extends s and no
    shorter chain suffix; those words form one range of the sorted word
    list, which is either wholly claimed by a shorter suffix already or not
    at all.  Violations come out in (n, m) order, an overlap before a
    subword.  With L the total word length and V the violation count, this
    costs O(L + N^2 + V log V) steps plus two binary searches per chain
    suffix, instead of trying every prefix length of every pair.
    """
    if bound < 2:
        raise ValueError("family checks need a bound of at least 2")
    words = instantiate_many(family, bound)
    automaton = Automaton()
    ending = {}
    for n, w in enumerate(words):
        ending.setdefault(automaton.add(w, n), []).append(n)
    automaton.close()
    step, fail, depth = automaton.step, automaton.fail, automaton.depth
    # nearest[k]: the first node on k's failure chain, k included, where a
    # word ends (0 if none).
    nearest = [0] * len(depth)
    for k in ending:
        nearest[k] = k
    for k in automaton.order:
        if not nearest[k]:
            nearest[k] = nearest[fail[k]]
    by_text = sorted(range(len(words)), key=words.__getitem__)
    sorted_words = [words[k] for k in by_text]
    found = []
    met = [-1] * len(depth)
    for m, wm in enumerate(words):
        node = 0
        for letter in wm:
            node = step[letter][node]
            k = nearest[node]
            while k and met[k] != m:
                met[k] = m
                found.extend((n, m, 1, words[n]) for n in ending[k] if n != m)
                k = nearest[fail[k]]
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
                found.extend((by_text[k], m, 0, piece) for k in range(lo, hi))
    found.sort()
    violations = tuple(
        Violation(
            "subword" if kind else "prefix-suffix-overlap", (n + 1, m + 1), (witness,)
        )
        for n, m, kind, witness in found
    )
    return Verdict(not violations, bound, violations)


def check_sandwich(gens, words):
    """Consistency check on closure output: when neither single letter is
    a member, all words must share one starting letter and end with the
    other, and every generator must do the same.  Not applicable when a
    single letter is already a member.
    """
    if not words:
        raise EmptyInput("sandwich check needs at least one word")
    bound = len(words)
    if member(gens, "a") or member(gens, "b"):
        return Verdict(True, bound, (), applicable=False)
    first = words[0][0]
    last = "b" if first == "a" else "a"
    violations = []
    for i, w in enumerate(words, 1):
        if len(w) < 2 or w[0] != first or w[-1] != last:
            violations.append(Violation("word-orientation", (i,), (w,)))
    for g in gens:
        if g[0] != first or g[-1] != last:
            violations.append(Violation("generator-orientation", (), (g,)))
    return Verdict(not violations, bound, tuple(violations))
