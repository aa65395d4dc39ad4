import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import decompose_oracle
from uniseq.conditions import (
    analyze_family,
    check_corollary,
    decompose,
)
from uniseq.errors import SplitViolation
from uniseq.families import (
    ALTERNATING,
    BANACH,
    SIERPINSKI,
    Literal,
    Power,
    SequenceFamily,
    instantiate_many,
)
from uniseq.submonoid import closure

ALTERNATING_POWERS = SequenceFamily(((Power("ab", 1, 0),),))  # w_n = (ab)^n
A_POWER_BA = SequenceFamily(((Power("a", 1, 0), Literal("ba")),))  # w_n = a^n ba


def test_check_split_small_cases():
    assert decompose("abaababbab", ("ab",), 1).middle
    with pytest.raises(SplitViolation):
        decompose("ab", ("ab",), 1)
    assert decompose("abaabb", (), 1).middle


def test_decompose_small_cases():
    d = decompose("abaababbab", ("ab",), 1)
    assert (d.prefix, d.middle, d.suffix) == ("ab", "aababb", "ab")
    assert d.word == "abaababbab"

    d = decompose("abaabb", (), 1)
    assert (d.prefix, d.middle, d.suffix) == ("", "abaabb", "")

    with pytest.raises(SplitViolation):
        decompose("ab", ("ab",), 1)


gens_st = st.sets(st.text(alphabet="ab", min_size=1, max_size=4), max_size=2).map(tuple)
word_st = st.text(alphabet="ab", min_size=1, max_size=8)


@settings(max_examples=80)
@given(word_st, gens_st)
def test_decompose_agrees_with_exhaustive_oracle(w, gens):
    prefix_end, suffix_start = decompose_oracle(w, gens)
    if prefix_end >= suffix_start:
        with pytest.raises(SplitViolation):
            decompose(w, gens, 1)
    else:
        d = decompose(w, gens, 1)
        assert d.prefix == w[:prefix_end]
        assert d.suffix == w[suffix_start:]
        assert d.middle


def test_theorem_holds_for_alternating_family():
    verdict = analyze_family(ALTERNATING, 5).verdict
    assert verdict.holds
    assert verdict.bound == 5
    assert verdict.violations == ()


def test_theorem_holds_for_banach_family():
    assert analyze_family(BANACH, 5).verdict.holds


def test_theorem_fails_for_alternating_powers():
    verdict = analyze_family(ALTERNATING_POWERS, 3).verdict
    assert not verdict.holds
    split = [v for v in verdict.violations if v.condition == "split"]
    assert split and split[0].indices == (1,)


def test_alternating_decompositions():
    analysis = analyze_family(ALTERNATING, 5)
    for n, d in enumerate(analysis.decompositions, 1):
        assert d.prefix == "ab"
        assert d.suffix == "ab"
        assert d.middle == "a" + "ab" * (n + 1) + "b"


def test_corollary_holds_for_named_families():
    assert check_corollary(BANACH, 10).holds
    assert check_corollary(SIERPINSKI, 5).holds


def test_corollary_fails_on_prefix_suffix_overlap():
    verdict = check_corollary(A_POWER_BA, 2)
    assert not verdict.holds
    first = verdict.violations[0]
    assert first.condition == "prefix-suffix-overlap"
    assert first.indices == (1, 1)
    assert first.witness == ("a",)


def test_corollary_implies_theorem_on_named_families():
    for fam in (BANACH, SIERPINSKI):
        assert check_corollary(fam, 5).holds
        assert closure(instantiate_many(fam, 5)).generators == ()
        assert analyze_family(fam, 5).verdict.holds


def test_middles_share_the_word_orientation():
    analysis = analyze_family(ALTERNATING, 5)
    assert analysis.closure.generators
    for d in analysis.decompositions:
        assert d.middle[0] == "a" and d.middle[-1] == "b"


def test_verdict_serialization_shape():
    verdict = analyze_family(ALTERNATING, 3).verdict
    assert verdict.holds is True
    assert verdict.bound == 3
    assert verdict.violations == ()


def test_bound_must_be_at_least_two():
    with pytest.raises(ValueError):
        analyze_family(ALTERNATING, 1)
    with pytest.raises(ValueError):
        check_corollary(BANACH, 1)
