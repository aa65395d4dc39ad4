"""The Aho-Corasick string kernels, the occurrence-search repeated factors
and the incremental closure against the references they replaced, kept in
``helpers``."""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import (
    check_corollary_reference,
    closure_reference,
    cross_factors_reference,
    repeated_factors_reference,
    satisfies_conditions,
)
from uniseq import cli
from uniseq.conditions import check_corollary
from uniseq.families import BUILTIN_FAMILIES, explicit_family, instantiate_many
from uniseq.submonoid import closure, cross_factors, repeated_factors

BUILTINS = sorted(BUILTIN_FAMILIES)


@st.composite
def word_lists(draw, min_size=1):
    """Random words plus copies, prefixes, suffixes and single letters of
    them, shuffled."""
    base = draw(st.lists(st.text(alphabet="ab", min_size=1, max_size=6), min_size=1, max_size=4))
    words = list(base)
    derived = st.tuples(
        st.sampled_from(base), st.sampled_from(("copy", "prefix", "suffix", "letter")),
        st.integers(0, 5),
    )
    for w, kind, cut in draw(st.lists(derived, max_size=4)):
        if kind == "copy":
            words.append(w)
        elif kind == "prefix":
            words.append(w[: cut % len(w) + 1])
        elif kind == "suffix":
            words.append(w[cut % len(w):])
        else:
            words.append("ab"[cut % 2])
    words = draw(st.permutations(words))
    if len(words) < min_size:
        words.append(words[0])
    return words


gens_st = st.sets(st.text(alphabet="ab", min_size=1, max_size=3), max_size=3).map(tuple)
# Half the draws add both letters, so that every position is a member
# start and end, as in the last round of a closure that fails.
both_letters_st = st.one_of(gens_st, gens_st.map(lambda g: g + ("a", "b")))


@st.composite
def shaped_word_lists(draw):
    """A shape label and a word list: random words, the same plus a
    periodic word such as (ab)^k, or a single a^k b^k."""
    shape = draw(st.sampled_from(("random", "periodic", "a^k b^k")))
    if shape == "a^k b^k":
        k = draw(st.integers(1, 12))
        return shape, ["a" * k + "b" * k]
    words = draw(word_lists())
    if shape == "periodic":
        base = draw(st.text(alphabet="ab", min_size=1, max_size=3))
        words.append(base * draw(st.integers(2, 8)))
    return shape, words


@st.composite
def repeated_factor_inputs(draw):
    """A shape label, generators and words; a^k b^k comes with the
    generator a, so many occurrences of each piece miss its one member end."""
    shape, words = draw(shaped_word_lists())
    gens = ("a",) if shape == "a^k b^k" else draw(both_letters_st)
    return shape, gens, words


@settings(max_examples=200)
@given(repeated_factor_inputs())
def test_repeated_factors_match_the_triple_loop_reference(inputs):
    shape, gens, words = inputs
    event(shape)
    if {"a", "b"} <= set(gens):
        event("both letters are generators")
    expected = repeated_factors_reference(gens, words)
    event("some nonempty repeated factor" if len(expected) > 1 else "only the empty word")
    assert repeated_factors(gens, words) == expected


@pytest.mark.parametrize("k", [40, 120])
def test_repeated_factors_with_one_member_end(k):
    """a^k b^k over the generator a, longer than the drawn ones: every start
    up to k is a member, the only member end is the word's end, and each
    a^m has many occurrences that all miss it."""
    words = ["a" * k + "b" * k]
    assert repeated_factors(("a",), words) == repeated_factors_reference(("a",), words)


@settings(max_examples=200)
@given(gens_st, word_lists())
def test_cross_factors_match_the_pairwise_reference(gens, words):
    expected = cross_factors_reference(gens, words)
    event("some nonempty cross factor" if len(expected) > 1 else "only the empty word")
    assert cross_factors(gens, words) == expected


@settings(max_examples=200)
@given(word_lists(min_size=2))
def test_corollary_matches_the_prefix_scan_reference(words):
    family = explicit_family(words)
    expected = check_corollary_reference(family, len(words))
    event("violations" if expected.violations else "holds")
    assert check_corollary(family, len(words)) == expected


@settings(max_examples=100)
@given(shaped_word_lists())
def test_closure_matches_the_full_pool_rebuild(shaped):
    shape, words = shaped
    expected = closure_reference(words)
    event(shape)
    event(f"{expected.iterations} rounds")
    if expected.generators.generators[:2] == ("a", "b"):
        event("ends with both letters as generators")
    result = closure(words)
    assert result == expected
    assert satisfies_conditions(result.generators, words)


@pytest.mark.parametrize("name", BUILTINS)
def test_kernels_match_the_references_on_the_builtins(name):
    family = BUILTIN_FAMILIES[name]
    words = instantiate_many(family, 40)
    assert check_corollary(family, 40) == check_corollary_reference(family, 40)
    for gens in ((), closure(words).generators):
        assert cross_factors(gens, words) == cross_factors_reference(gens, words)
        assert repeated_factors(gens, words) == repeated_factors_reference(gens, words)
    assert closure(words) == closure_reference(words)


# aaaba (ab)^(3n) baaab: its closure takes five rounds and ends with both
# letters as generators, so the last round has every position a member.
FAILING_FAMILY = {
    "alphabet": "ab",
    "templates": [[{"lit": "aaaba"}, {"pow": {"base": "ab", "c": 3, "d": 0}}, {"lit": "baaab"}]],
}


def _outputs(capsys, families):
    out = {}
    for name, bound in families:
        for command in ("closure", "check-thm", "decompose", "check-cor"):
            for fmt in ("text", "json"):
                argv = (command, name, "--bound", bound, "--format", fmt)
                code = cli.main(list(argv))
                out[argv] = (code, capsys.readouterr().out)
    return out


def test_cli_output_is_identical_with_the_reference_kernels(capsys, monkeypatch, tmp_path):
    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps(FAILING_FAMILY))
    families = [(name, "30") for name in BUILTINS] + [(str(failing), "10")]
    fast = _outputs(capsys, families)
    monkeypatch.setattr(cli, "closure", closure_reference)
    monkeypatch.setattr(cli, "check_corollary", check_corollary_reference)
    monkeypatch.setattr("uniseq.conditions.closure", closure_reference)
    assert _outputs(capsys, families) == fast
    # The matrix reaches overlap witnesses, not only holding verdicts.
    alternating = fast[("check-cor", "alternating", "--bound", "30", "--format", "json")]
    assert alternating[0] == 1 and json.loads(alternating[1])["violations"]
    # ... and a closure whose last round has both letters as generators.
    report = fast[("closure", str(failing), "--bound", "10", "--format", "json")][1]
    assert json.loads(report)["generators"] == ["a", "b"]
    assert fast[("check-thm", str(failing), "--bound", "10", "--format", "json")][0] == 1
