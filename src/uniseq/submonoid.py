"""Least submonoid of the free monoid closed under two factor extractions.

Starting from the trivial submonoid, the closure of a finite word list
repeatedly adjoins

* every piece that occurs twice inside one input word with both flanks
  already members (``repeated_factors``), and
* every piece that occurs after a member prefix in one word and before a
  member suffix in a different word (``cross_factors``),

until nothing new appears.  Every adjoined piece is a subword of an input
word, so the iteration stabilizes.  Membership in the generated submonoid
is decided by word-break dynamic programming over prefixes.
"""

from dataclasses import dataclass

from .errors import EmptyInput
from .words import check_word, word_key


@dataclass(frozen=True)
class GeneratorSet:
    """A finite set of nonempty words, standing for the submonoid they
    generate (which always contains the empty word)."""

    generators: tuple[str, ...] = ()

    def __post_init__(self):
        if isinstance(self.generators, str):
            raise TypeError("pass a tuple of words, not a single string")
        canon = []
        seen = set()
        for g in sorted(self.generators, key=word_key):
            check_word(g)
            if not g:
                raise ValueError("generators must be nonempty words")
            if g not in seen:
                seen.add(g)
                canon.append(g)
        object.__setattr__(self, "generators", tuple(canon))

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __bool__(self):
        return bool(self.generators)


@dataclass(frozen=True)
class Round:
    """Words extracted during one closure pass."""

    repeated: tuple[str, ...]
    cross: tuple[str, ...]


@dataclass(frozen=True)
class ClosureResult:
    generators: GeneratorSet
    rounds: tuple[Round, ...]
    pool: tuple[str, ...]
    iterations: int


def _as_words(gens):
    if isinstance(gens, GeneratorSet):
        return gens.generators
    return tuple(gens)


def prefix_members(gens, w):
    """Table t with t[i] true iff the length-i prefix of ``w`` is a member."""
    gen_words = _as_words(gens)
    ok = [False] * (len(w) + 1)
    ok[0] = True
    for i in range(1, len(w) + 1):
        for g in gen_words:
            L = len(g)
            if L <= i and ok[i - L] and w.startswith(g, i - L):
                ok[i] = True
                break
    return ok


def suffix_members(gens, w):
    """Table t with t[i] true iff the suffix of ``w`` starting at i is a member."""
    gen_words = _as_words(gens)
    n = len(w)
    ok = [False] * (n + 1)
    ok[n] = True
    for i in range(n - 1, -1, -1):
        for g in gen_words:
            L = len(g)
            if i + L <= n and ok[i + L] and w.startswith(g, i):
                ok[i] = True
                break
    return ok


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


def factorize(gens, w):
    """A factorization of ``w`` into generators, or None.

    The witness is deterministic: scanning left to right, the longest
    generator that still leaves a factorizable remainder wins each step.
    """
    check_word(w)
    gen_words = _as_words(gens)
    suffix_ok = suffix_members(gen_words, w)
    if not suffix_ok[0]:
        return None
    by_length = sorted(gen_words, key=word_key, reverse=True)
    out = []
    i = 0
    while i < len(w):
        for g in by_length:
            if w.startswith(g, i) and suffix_ok[i + len(g)]:
                out.append(g)
                i += len(g)
                break
        else:
            return None
    return out


def repeated_factors(gens, words):
    """All pieces occurring twice in a single word with member flanks.

    A piece v qualifies when some input word splits as s v u v s' with s
    and s' members and u arbitrary.  The empty word always qualifies.
    """
    out = {""}
    for w in words:
        pre = prefix_members(gens, w)
        suf = suffix_members(gens, w)
        starts = [i for i, m in enumerate(pre) if m]
        ends = [l for l, m in enumerate(suf) if m]
        for i in starts:
            for l in ends:
                for m in range(1, (l - i) // 2 + 1):
                    if w[i:i + m] == w[l - m:l]:
                        out.add(w[i:i + m])
    return out


def cross_factors(gens, words):
    """All pieces following a member prefix in one word and preceding a
    member suffix in a different word (distinct indices; repeated input
    words count separately).  The empty word always qualifies.
    """
    out = {""}
    after_prefix = []
    before_suffix = []
    for w in words:
        pre = prefix_members(gens, w)
        suf = suffix_members(gens, w)
        starts = [p for p, m in enumerate(pre) if m]
        ends = [u for u, m in enumerate(suf) if m]
        after_prefix.append({w[p:q] for p in starts for q in range(p, len(w) + 1)})
        before_suffix.append({w[r:u] for u in ends for r in range(u + 1)})
    for i in range(len(words)):
        for j in range(len(words)):
            if i != j:
                out |= after_prefix[i] & before_suffix[j]
    return out


def irredundant_generators(pool):
    """Reduce a pool of words to an irredundant generating set.

    Words are taken shortest first; a word is kept only when the words
    already kept cannot produce it.  Keeping shorter words first means no
    kept word can later become redundant, since a product involving a
    longer word is itself longer.
    """
    chosen = []
    for x in sorted(set(pool), key=word_key):
        if x and not member(chosen, x):
            chosen.append(x)
    return GeneratorSet(tuple(chosen))


def satisfies_conditions(gens, words):
    """Fixed-point test: both extractions stay inside the submonoid."""
    found = repeated_factors(gens, words) | cross_factors(gens, words)
    return all(member(gens, v) for v in found)


def closure(words):
    """Least submonoid closed under both extractions over ``words``.

    >>> closure(["aa"]).generators.generators
    ('a',)
    """
    words = [check_word(w) for w in words]
    if not words or any(not w for w in words):
        raise EmptyInput("closure needs a nonempty list of nonempty words")
    guard = sum(len(w) * (len(w) + 1) // 2 for w in words) + 2
    pool = set()
    gens = GeneratorSet()
    rounds = []
    for _ in range(guard):
        rep = repeated_factors(gens, words)
        cro = cross_factors(gens, words)
        rounds.append(
            Round(tuple(sorted(rep, key=word_key)), tuple(sorted(cro, key=word_key)))
        )
        pool |= rep | cro
        fresh = [v for v in rep | cro if v and not member(gens, v)]
        if not fresh:
            break
        gens = irredundant_generators(pool)
    else:
        raise AssertionError("closure did not stabilize inside the subword pool")
    # The last round adjoined only members, so the pool's irredundant
    # generators are the current ones.
    return ClosureResult(
        generators=gens,
        rounds=tuple(rounds),
        pool=tuple(sorted(pool, key=word_key)),
        iterations=len(rounds),
    )
