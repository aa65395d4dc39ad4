import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import satisfies_conditions, submonoid_members
from uniseq.errors import EmptyInput
from uniseq.families import ALTERNATING, BANACH, instantiate_many
from uniseq.submonoid import (
    closure,
    cross_factors,
    irredundant_generators,
    member,
    prefix_members,
    repeated_factors,
    suffix_members,
)

words_st = st.text(alphabet="ab", min_size=1, max_size=5)
gens_st = st.sets(words_st, max_size=3).map(lambda s: tuple(sorted(s)))


def test_membership_small_cases():
    assert member(("ab",), "abab")
    assert not member(("ab",), "aba")
    assert member((), "")


@given(gens_st, words_st)
def test_membership_agrees_with_product_enumeration(gens, w):
    assert member(gens, w) == (w in submonoid_members(gens, len(w)))


@given(gens_st, st.text(alphabet="ab", max_size=8))
def test_member_tables_agree_with_product_enumeration(gens, w):
    members = submonoid_members(gens, len(w))
    assert prefix_members(gens, w) == [w[:i] in members for i in range(len(w) + 1)]
    assert suffix_members(gens, w) == [w[i:] in members for i in range(len(w) + 1)]


def test_repeated_factors_small_cases():
    assert repeated_factors((), ["aa"]) == {"", "a"}
    assert repeated_factors((), ["abaababbab"]) == {"", "ab"}
    assert repeated_factors((), ["abaabb"]) == {""}


def test_cross_factors_small_cases():
    assert cross_factors((), ["abaababbab", "abaabababbab"]) == {"", "ab"}
    assert cross_factors((), ["aa"]) == {""}
    assert cross_factors((), ["abaabb", "abaaabb"]) == {""}


def test_cross_factors_uses_indices_not_words():
    assert "ab" in cross_factors((), ["ab", "ab"])


def test_closure_alternating_family():
    result = closure(instantiate_many(ALTERNATING, 3))
    assert result.generators == ("ab",)
    assert set(result.rounds[0].repeated) == {"", "ab"}
    assert set(result.rounds[0].cross) == {"", "ab"}


def test_closure_banach_family_is_trivial():
    result = closure(instantiate_many(BANACH, 3))
    assert result.generators == ()
    assert result.iterations == 1


def test_closure_single_square_word():
    assert closure(["aa"]).generators == ("a",)


def test_closure_rejects_empty_inputs():
    with pytest.raises(EmptyInput):
        closure([])
    with pytest.raises(EmptyInput):
        closure(["ab", ""])


def test_irredundant_small_cases():
    assert irredundant_generators({"", "ab", "abab"}) == ("ab",)
    assert irredundant_generators({""}) == ()
    assert irredundant_generators({"a", "aa", "ab"}) == ("a", "ab")
    assert irredundant_generators(["ba", "ab", "ab", "a"]) == ("a", "ab", "ba")


@given(st.sets(words_st, max_size=5))
def test_irredundant_generates_the_pool_without_redundancy(pool):
    kept = irredundant_generators(pool)
    for w in pool:
        assert member(kept, w)
    for i, t in enumerate(kept):
        rest = kept[:i] + kept[i + 1:]
        assert not member(rest, t)


@settings(max_examples=40)
@given(st.lists(words_st, min_size=1, max_size=3))
def test_closure_reaches_a_fixed_point(words):
    result = closure(words)
    gens = result.generators
    assert satisfies_conditions(gens, words)
    for v in repeated_factors(gens, words) | cross_factors(gens, words):
        assert member(gens, v)


@settings(max_examples=40)
@given(st.lists(words_st, min_size=1, max_size=3))
def test_closure_generators_stay_inside_the_subword_pool(words):
    result = closure(words)
    for g in result.generators:
        assert any(g in w for w in words)


@settings(max_examples=40)
@given(st.lists(words_st, min_size=2, max_size=4))
def test_closure_is_monotone_in_the_word_list(words):
    smaller = closure(words[:-1]).generators
    larger = closure(words).generators
    for g in smaller:
        assert member(larger, g)


@settings(max_examples=25)
@given(st.lists(st.text(alphabet="ab", min_size=1, max_size=3), min_size=1, max_size=2))
def test_closure_is_least_among_condition_satisfying_sets(words):
    nonempty_subwords = sorted(
        {w[i:j] for w in words for i in range(len(w)) for j in range(i + 1, len(w) + 1)}
    )
    result = closure(words).generators
    for mask in range(2 ** len(nonempty_subwords)):
        candidate = tuple(
            w for k, w in enumerate(nonempty_subwords) if mask & (1 << k)
        )
        if satisfies_conditions(candidate, words):
            for g in result:
                assert member(candidate, g)


@given(words_st, words_st)
def test_concatenation_never_shrinks(x, y):
    assert len(x + y) >= max(len(x), len(y))
