"""Finite descriptions of infinite word sequences, plus letter substitution.

A family is a list of templates.  A template concatenates literal segments
and powers whose exponent is an affine function ``coeff * n + offset`` of
the index n.  A family with a single template describes the whole sequence
w_1, w_2, ...; a family with k > 1 templates is the explicit finite list
w_1, ..., w_k and larger indices are errors.
"""

import json
from dataclasses import dataclass

from .errors import (
    AlphabetError,
    CapExceeded,
    IndexOutOfRange,
    MissingLetterImage,
    ParseError,
    UnsupportedAlphabet,
)
from .words import ALPHABET, check_word


@dataclass(frozen=True)
class Literal:
    word: str

    def __post_init__(self):
        check_word(self.word)


@dataclass(frozen=True)
class Power:
    base: str
    coeff: int
    offset: int

    def __post_init__(self):
        check_word(self.base)
        if not self.base:
            raise ValueError("a power needs a nonempty base word")
        if self.coeff < 0 or self.offset < 0:
            raise ValueError("exponent coefficients must be nonnegative")
        if self.coeff + self.offset < 1:
            raise ValueError("the exponent must be positive for every index")

    def exponent(self, index):
        return self.coeff * index + self.offset


Segment = Literal | Power


@dataclass(frozen=True)
class SequenceFamily:
    """A family is infinite when it consists of a single template (used for
    every index) and ``explicit`` is false; otherwise the templates form an
    explicit finite list, one per index, and larger indices are errors."""

    templates: tuple[tuple[Segment, ...], ...]
    explicit: bool = False

    def __post_init__(self):
        templates = tuple(tuple(t) for t in self.templates)
        if not templates:
            raise ValueError("a family needs at least one template")
        for template in templates:
            if not template:
                raise ValueError("templates cannot be empty")
            for seg in template:
                if not isinstance(seg, (Literal, Power)):
                    raise TypeError(f"bad segment {seg!r}")
            if not any(isinstance(s, Power) or s.word for s in template):
                raise ValueError("template would produce the empty word")
        object.__setattr__(self, "templates", templates)

    @property
    def finite(self):
        return self.explicit or len(self.templates) > 1


def instantiate(family, index):
    """The index-th word of the family (indices start at 1)."""
    if not isinstance(index, int) or index < 1:
        raise ValueError(f"indices start at 1, got {index!r}")
    if not family.finite:
        template = family.templates[0]
    elif index <= len(family.templates):
        template = family.templates[index - 1]
    else:
        raise IndexOutOfRange(
            f"family lists only {len(family.templates)} words, asked for word {index}"
        )
    pieces = []
    for seg in template:
        if isinstance(seg, Literal):
            pieces.append(seg.word)
        else:
            pieces.append(seg.base * seg.exponent(index))
    return "".join(pieces)


# Hard limits on what a bounded check instantiates: the number of words,
# and their total length, since exponents are unbounded and closure builds
# an automaton over all the letters.  The builtins at MAX_BOUND stay below
# MAX_LETTERS: sierpinski's first 1,000 words have 3,021,000 letters.
MAX_BOUND = 1000
MAX_LETTERS = 4_000_000


def total_letters(family, bound):
    """Total length of the first ``bound`` words, from the templates alone.

    Word n of a template has length a + b * n, with a the letters of its
    literals and constant exponents and b those of its exponent
    coefficients, so an infinite family sums to a * N + b * N(N+1)/2.
    """
    def affine(template):
        a = b = 0
        for seg in template:
            if isinstance(seg, Literal):
                a += len(seg.word)
            else:
                a += len(seg.base) * seg.offset
                b += len(seg.base) * seg.coeff
        return a, b

    if not family.finite:
        a, b = affine(family.templates[0])
        return a * bound + b * bound * (bound + 1) // 2
    return sum(
        a + b * n for n, (a, b) in enumerate(map(affine, family.templates[:bound]), 1)
    )


def instantiate_many(family, bound):
    """The first ``bound`` words of the family; ``bound`` may not exceed
    MAX_BOUND, nor their total length MAX_LETTERS."""
    if bound > MAX_BOUND:
        raise CapExceeded(f"bound {bound} exceeds the cap {MAX_BOUND}")
    letters = total_letters(family, bound)
    if letters > MAX_LETTERS:
        raise CapExceeded(
            f"the first {bound} words have {letters} letters, above the cap {MAX_LETTERS}"
        )
    return [instantiate(family, n) for n in range(1, bound + 1)]


def substitute(words, assignment):
    """Replace every occurrence of every letter by its image word.

    ``words`` may use any single-character letters; every letter that
    occurs must have an image over {a, b}.  The map respects concatenation.
    """
    images = {letter: check_word(image) for letter, image in assignment.items()}
    out = []
    for w in words:
        pieces = []
        for ch in w:
            if ch not in images:
                raise MissingLetterImage(f"no image for letter {ch!r}")
            pieces.append(images[ch])
        out.append("".join(pieces))
    return out


def family_from_json(data):
    """Build a family from the JSON document format.

    The document looks like::

        {"alphabet": "ab",
         "templates": [[{"lit": "aba"},
                        {"pow": {"base": "ab", "c": 1, "d": 1}},
                        {"lit": "bab"}]]}
    """
    if not isinstance(data, dict):
        raise ParseError("family document must be a JSON object")
    alphabet = data.get("alphabet")
    if alphabet != ALPHABET:
        raise UnsupportedAlphabet(f"alphabet must be {ALPHABET!r}, got {alphabet!r}")
    raw_templates = data.get("templates")
    if not isinstance(raw_templates, list) or not raw_templates:
        raise ParseError("'templates' must be a nonempty list")
    templates = []
    for ti, raw in enumerate(raw_templates):
        if not isinstance(raw, list) or not raw:
            raise ParseError(f"templates[{ti}] must be a nonempty list of segments")
        segs = []
        for si, seg in enumerate(raw):
            where = f"templates[{ti}][{si}]"
            if not isinstance(seg, dict) or set(seg) not in ({"lit"}, {"pow"}):
                raise ParseError(f"{where}: segment must be {{'lit': ...}} or {{'pow': ...}}")
            if "lit" in seg:
                lit = seg["lit"]
                if not isinstance(lit, str):
                    raise ParseError(f"{where}.lit must be a string")
                try:
                    segs.append(Literal(lit))
                except (AlphabetError, ValueError) as exc:
                    raise ParseError(f"{where}.lit: {exc}") from exc
            else:
                pw = seg["pow"]
                if not isinstance(pw, dict):
                    raise ParseError(f"{where}.pow must be an object")
                base = pw.get("base")
                c = pw.get("c")
                d = pw.get("d")
                if not isinstance(base, str):
                    raise ParseError(f"{where}.pow.base must be a string")
                if not isinstance(c, int) or not isinstance(d, int) or isinstance(c, bool) or isinstance(d, bool):
                    raise ParseError(f"{where}.pow needs integer fields 'c' and 'd'")
                try:
                    segs.append(Power(base, c, d))
                except (AlphabetError, ValueError) as exc:
                    raise ParseError(f"{where}.pow: {exc}") from exc
        templates.append(tuple(segs))
    explicit = data.get("explicit", False)
    if not isinstance(explicit, bool):
        raise ParseError("'explicit' must be a boolean when present")
    try:
        return SequenceFamily(tuple(templates), explicit=explicit)
    except (TypeError, ValueError) as exc:
        raise ParseError(str(exc)) from exc


def load_family(path):
    """Read and validate a family file."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except UnicodeDecodeError:
            raise ParseError(f"{path}: not UTF-8 text") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None
        except ValueError:  # int() past sys.get_int_max_str_digits()
            raise ParseError(f"{path}: an integer has too many digits") from None
    return family_from_json(data)


BANACH = SequenceFamily(((Literal("ab"), Power("a", 1, 1), Literal("bb")),))
SIERPINSKI = SequenceFamily(((Literal("aabbb"), Power("ababbb", 1, 1), Literal("abbabbb")),))
ALTERNATING = SequenceFamily(((Literal("aba"), Power("ab", 1, 1), Literal("bab")),))

BUILTIN_FAMILIES = {
    "banach": BANACH,
    "sierpinski": SIERPINSKI,
    "alternating": ALTERNATING,
}
