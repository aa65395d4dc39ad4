from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import explicit_family
from uniseq import families
from uniseq.errors import (
    CapExceeded,
    IndexOutOfRange,
    MissingLetterImage,
    ParseError,
    UnsupportedAlphabet,
)
from uniseq.families import (
    ALTERNATING,
    BANACH,
    BUILTIN_FAMILIES,
    MAX_BOUND,
    MAX_LETTERS,
    SIERPINSKI,
    Literal,
    Power,
    SequenceFamily,
    family_from_json,
    instantiate,
    instantiate_many,
    load_family,
    substitute,
    total_letters,
)


def test_banach_first_word():
    assert instantiate(BANACH, 1) == "abaabb"


def test_alternating_first_word():
    assert instantiate(ALTERNATING, 1) == "abaababbab"


def test_sierpinski_shape():
    assert instantiate(SIERPINSKI, 1) == "aabbb" + "ababbb" * 2 + "abbabbb"


def test_explicit_list_rejects_large_index():
    fam = explicit_family(["ab"])
    assert instantiate(fam, 1) == "ab"
    with pytest.raises(IndexOutOfRange):
        instantiate(fam, 2)


def test_multiple_templates_serve_their_own_index_only():
    fam = SequenceFamily(((Literal("ab"),), (Literal("ba"),)))
    assert instantiate(fam, 1) == "ab"
    assert instantiate(fam, 2) == "ba"
    with pytest.raises(IndexOutOfRange):
        instantiate(fam, 3)


def test_bad_indices_rejected():
    with pytest.raises(ValueError):
        instantiate(BANACH, 0)


def test_invalid_segments_rejected():
    with pytest.raises(ValueError):
        Power("a", -1, 2)
    with pytest.raises(ValueError):
        Power("a", 0, 0)
    with pytest.raises(ValueError):
        Power("", 1, 1)
    with pytest.raises(ValueError):
        SequenceFamily(((Literal(""),),))
    with pytest.raises(ValueError):
        SequenceFamily(())


def test_substitution_examples():
    assert substitute(["cd"], {"c": "ab", "d": "ba"}) == ["abba"]
    assert substitute(["c"], {"c": "ab"}) == ["ab"]
    assert substitute(["cc"], {"c": "a"}) == ["aa"]


def test_substitution_missing_image():
    with pytest.raises(MissingLetterImage):
        substitute(["cd"], {"c": "ab"})


letters_st = st.text(alphabet="cde", max_size=6)
images_st = st.fixed_dictionaries(
    {
        "c": st.text(alphabet="ab", max_size=3),
        "d": st.text(alphabet="ab", max_size=3),
        "e": st.text(alphabet="ab", max_size=3),
    }
)


@given(letters_st, letters_st, images_st)
def test_substitution_respects_concatenation(u, v, images):
    joined = substitute([u + v], images)[0]
    pieces = substitute([u], images)[0] + substitute([v], images)[0]
    assert joined == pieces


@given(st.integers(min_value=1, max_value=12))
def test_word_lengths_never_shrink_with_the_index(n):
    for fam in (BANACH, SIERPINSKI, ALTERNATING):
        assert len(instantiate(fam, n + 1)) >= len(instantiate(fam, n))


def test_instantiate_many_counts():
    assert instantiate_many(BANACH, 4) == [instantiate(BANACH, n) for n in (1, 2, 3, 4)]


def test_word_length_cap_is_checked_before_any_word_is_built(monkeypatch):
    # Word 1000 alone would have 2 * 10^9 letters.
    huge = SequenceFamily(((Power("ab", 1_000_000, 0),),))

    def never(family, index):
        raise AssertionError(f"word {index} was built")

    monkeypatch.setattr(families, "instantiate", never)
    with pytest.raises(CapExceeded, match="letters"):
        instantiate_many(huge, 1000)
    with pytest.raises(CapExceeded, match="letters"):
        instantiate_many(SequenceFamily(((Literal("ab"),), (Power("a", 0, MAX_LETTERS),))), 2)


@pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
def test_every_builtin_fits_the_letter_cap_at_the_largest_bound(name):
    assert total_letters(BUILTIN_FAMILIES[name], MAX_BOUND) <= MAX_LETTERS


segments_st = st.lists(
    st.one_of(
        st.builds(Literal, st.text(alphabet="ab", max_size=3)),
        st.builds(Power, st.text(alphabet="ab", min_size=1, max_size=3),
                  st.integers(1, 3), st.integers(0, 3)),
    ),
    min_size=1, max_size=3,
).filter(lambda t: any(isinstance(s, Power) or s.word for s in t))


@given(st.lists(segments_st, min_size=1, max_size=3), st.booleans(), st.integers(1, 6))
def test_total_letters_is_the_length_of_the_instantiated_words(templates, explicit, bound):
    family = SequenceFamily(tuple(templates), explicit=explicit)
    if family.finite:
        bound = min(bound, len(templates))
    assert total_letters(family, bound) == sum(map(len, instantiate_many(family, bound)))


@pytest.mark.parametrize("name", sorted(BUILTIN_FAMILIES))
def test_shipped_family_files_match_the_builtins(name):
    path = Path(__file__).resolve().parent.parent / "families" / f"{name}.json"
    assert load_family(path) == BUILTIN_FAMILIES[name]


def test_json_alphabet_must_be_ab():
    with pytest.raises(UnsupportedAlphabet):
        family_from_json({"alphabet": "abc", "templates": [[{"lit": "a"}]]})


def test_json_rejects_bad_exponent():
    doc = {"alphabet": "ab", "templates": [[{"pow": {"base": "a", "c": -1, "d": 1}}]]}
    with pytest.raises(ParseError):
        family_from_json(doc)


def test_json_rejects_malformed_segments():
    with pytest.raises(ParseError):
        family_from_json({"alphabet": "ab", "templates": [[{"lit": "a", "pow": {}}]]})
    with pytest.raises(ParseError):
        family_from_json({"alphabet": "ab", "templates": [[{"foo": 1}]]})
    with pytest.raises(ParseError):
        family_from_json({"alphabet": "ab", "templates": []})
    with pytest.raises(ParseError):
        family_from_json({"alphabet": "ab", "templates": [[{"pow": {"base": "a", "c": "x", "d": 0}}]]})
    with pytest.raises(ParseError):
        family_from_json([])
