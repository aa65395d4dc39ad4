"""Bounded checks of the sufficient conditions a word family must meet.

All family-level verdicts are computed from the first N instantiated words
and carry that bound; they never claim anything about larger indices.
"""

from dataclasses import dataclass

from .errors import EmptyInput, SplitViolation
from .families import instantiate_many
from .submonoid import ClosureResult, closure, member, prefix_members, suffix_members
from .words import check_word


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
    longest_prefix_end = max(i for i, ok in enumerate(pre) if ok)
    earliest_suffix_start = min(i for i, ok in enumerate(suf) if ok)
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
    """
    if bound < 2:
        raise ValueError("family checks need a bound of at least 2")
    words = instantiate_many(family, bound)
    violations = []
    for n, wn in enumerate(words, 1):
        for m, wm in enumerate(words, 1):
            for length in range(1, len(wn)):
                prefix = wn[:length]
                if wm.endswith(prefix):
                    violations.append(
                        Violation("prefix-suffix-overlap", (n, m), (prefix,))
                    )
                    break
            if n != m and wn in wm:
                violations.append(Violation("subword", (n, m), (wn,)))
    return Verdict(not violations, bound, tuple(violations))


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
