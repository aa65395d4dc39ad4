"""The Aho-Corasick string kernels and the incremental closure against the
references they replaced, kept in ``helpers``."""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import check_corollary_reference, closure_reference, cross_factors_reference
from uniseq import cli
from uniseq.conditions import check_corollary
from uniseq.families import BUILTIN_FAMILIES, explicit_family, instantiate_many
from uniseq.submonoid import closure, cross_factors

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
@given(word_lists())
def test_closure_matches_the_full_pool_rebuild(words):
    expected = closure_reference(words)
    event(f"{expected.iterations} rounds")
    assert closure(words) == expected


@pytest.mark.parametrize("name", BUILTINS)
def test_kernels_match_the_references_on_the_builtins(name):
    family = BUILTIN_FAMILIES[name]
    words = instantiate_many(family, 40)
    assert check_corollary(family, 40) == check_corollary_reference(family, 40)
    for gens in ((), closure(words).generators):
        assert cross_factors(gens, words) == cross_factors_reference(gens, words)
    assert closure(words) == closure_reference(words)


def _outputs(capsys):
    out = {}
    for name in BUILTINS:
        for command in ("closure", "check-thm", "decompose", "check-cor"):
            for fmt in ("text", "json"):
                argv = (command, name, "--bound", "30", "--format", fmt)
                code = cli.main(list(argv))
                out[argv] = (code, capsys.readouterr().out)
    return out


def test_cli_output_is_identical_with_the_reference_kernels(capsys, monkeypatch):
    fast = _outputs(capsys)
    monkeypatch.setattr(cli, "closure", closure_reference)
    monkeypatch.setattr(cli, "check_corollary", check_corollary_reference)
    monkeypatch.setattr("uniseq.conditions.closure", closure_reference)
    assert _outputs(capsys) == fast
    # The matrix reaches overlap witnesses, not only holding verdicts.
    alternating = fast[("check-cor", "alternating", "--bound", "30", "--format", "json")]
    assert alternating[0] == 1 and json.loads(alternating[1])["violations"]
