"""The sorted shared-prefix trie, the Aho-Corasick string kernels, the
middle scan, the occurrence-search repeated factors, the incremental
closure and the report renderers against the references they replaced,
kept in ``helpers``."""

import json

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from helpers import (
    IncrementalTrie,
    check_corollary_reference,
    closure_reference,
    cross_factors_reference,
    explicit_family,
    middle_findings_reference,
    render_json_reference,
    render_text_reference,
    repeated_factors_reference,
    satisfies_conditions,
)
from uniseq import cli
from uniseq import conditions
from uniseq.conditions import Decomposition, analyze_family, check_corollary
from uniseq.families import BUILTIN_FAMILIES, instantiate_many
from uniseq.submonoid import closure, cross_factors, repeated_factors
from uniseq.words import SHARED, Automaton

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


@st.composite
def labelled_pieces(draw):
    """Pieces w[start:] of drawn word lists, labelled from a small range,
    ``SHARED`` included, so that equal pieces under different labels
    occur, and the indices whose paths to keep, each with a random
    selector."""
    words = draw(word_lists())
    pieces = [
        (w[draw(st.integers(0, len(w) - 1)):], draw(st.sampled_from((SHARED, 0, 1, 2))))
        for w in words
    ]
    keep = {}
    for i in draw(st.sets(st.integers(0, len(pieces) - 1))):
        keep[i] = draw(st.lists(st.booleans(), max_size=8))
    return pieces, keep


def _walk(step, piece):
    """The trie nodes spelling each prefix of ``piece``, from the root."""
    nodes = [0]
    for letter in piece:
        nodes.append(step[letter][nodes[-1]])
    return nodes


@settings(max_examples=300)
@given(labelled_pieces())
def test_sorted_insertion_builds_the_incremental_trie(drawn):
    pieces, keep = drawn
    reference = IncrementalTrie()
    reference_ends = [reference.add(word, label) for word, label in pieces]
    automaton = Automaton(pieces, keep)
    assert len(automaton.depth) == len(reference.depth)
    texts = [word for word, _ in pieces]
    if len(set(texts)) < len(texts):
        event("equal pieces")
    if len(set(texts)) < len(set(pieces)):
        event("equal pieces under different labels")
    if any(a != b and b.startswith(a) for a in texts for b in texts):
        event("a piece is a proper prefix of another")
    for i, (word, label) in enumerate(pieces):
        nodes = _walk(automaton.step, word)
        reference_nodes = _walk(reference.step, word)
        # Same depth and owner for every prefix, so the same trie up to
        # node numbering, as both hold only prefixes of the pieces.
        assert [automaton.depth[k] for k in nodes] == list(range(len(word) + 1))
        assert [reference.depth[k] for k in reference_nodes] == list(range(len(word) + 1))
        assert [automaton.owner[k] for k in nodes] == [reference.owner[k] for k in reference_nodes]
        assert (automaton.ends[i], reference_ends[i]) == (nodes[-1], reference_nodes[-1])
        if i in keep:
            assert automaton.paths[i] == [k for k, s in zip(nodes, keep[i]) if s]
    assert sorted(automaton.paths) == sorted(keep)


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
    if expected.generators[:2] == ("a", "b"):
        event("ends with both letters as generators")
    result = closure(words)
    assert result == expected
    assert satisfies_conditions(result.generators, words)


@st.composite
def split_words(draw):
    """Words with arbitrary decompositions: each word is split at drawn cut
    points into a prefix, a nonempty middle and a suffix, or has none."""
    words = draw(word_lists(min_size=2))
    decomps = []
    for n, w in enumerate(words, 1):
        if draw(st.integers(0, 4)) == 0:
            decomps.append(None)
            continue
        start = draw(st.integers(0, len(w) - 1))
        end = draw(st.integers(start + 1, len(w)))
        decomps.append(Decomposition(n, w[:start], w[start:end], w[end:]))
    return words, decomps


@settings(max_examples=300)
@given(split_words())
def test_middle_findings_match_the_pairwise_reference(drawn):
    words, decomps = drawn
    expected = middle_findings_reference(words, decomps)
    for finding in expected[0] + expected[1]:
        event(finding[0])
    middles = [d.middle for d in decomps if d is not None]
    if len(set(middles)) < len(middles):
        event("equal middles")
    if None in decomps:
        event("a word without a decomposition")
    assert conditions._middle_findings(words, decomps) == expected


@pytest.mark.parametrize("name", BUILTINS)
def test_kernels_match_the_references_on_the_builtins(name):
    family = BUILTIN_FAMILIES[name]
    words = instantiate_many(family, 40)
    assert check_corollary(family, 40) == check_corollary_reference(family, 40)
    for gens in ((), closure(words).generators):
        assert cross_factors(gens, words) == cross_factors_reference(gens, words)
        assert repeated_factors(gens, words) == repeated_factors_reference(gens, words)
    assert closure(words) == closure_reference(words)
    analysis = analyze_family(family, 40)
    decomps = analysis.decompositions
    if decomps is not None:
        assert conditions._middle_findings(words, decomps) == middle_findings_reference(words, decomps)


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
    monkeypatch.setattr("uniseq.conditions._middle_findings", middle_findings_reference)
    monkeypatch.setattr(cli, "render_json", render_json_reference)
    monkeypatch.setattr(cli, "render_text", render_text_reference)
    assert _outputs(capsys, families) == fast
    # The matrix reaches overlap witnesses, not only holding verdicts.
    alternating = fast[("check-cor", "alternating", "--bound", "30", "--format", "json")]
    assert alternating[0] == 1 and json.loads(alternating[1])["violations"]
    # ... and a closure whose last round has both letters as generators.
    report = fast[("closure", str(failing), "--bound", "10", "--format", "json")][1]
    assert json.loads(report)["generators"] == ["a", "b"]
    assert fast[("check-thm", str(failing), "--bound", "10", "--format", "json")][0] == 1


CONDITIONS = (
    "split",
    "middle-unique",
    "middle-in-own-prefix",
    "middle-in-other-prefix",
    "prefix-suffix-overlap",
    "subword",
)
report_words = st.text(alphabet="ab", max_size=4)
finding_rows = st.tuples(
    st.sampled_from(CONDITIONS),
    st.lists(st.integers(1, 10**6), min_size=1, max_size=2).map(tuple),
    st.lists(report_words, min_size=1, max_size=2).map(tuple),
)


@st.composite
def finding_reports(draw):
    """Reports shaped like those of check-thm, check-cor, decompose and
    witness: violations, maybe warnings, and maybe fields after them."""
    report = {
        "command": draw(st.sampled_from(("check-thm", "check-cor", "decompose", "witness"))),
        "family": draw(st.text(max_size=6)),
        "bound": draw(st.integers(2, 500)),
        "verdict": draw(st.sampled_from(("holds", "fails", "not-verified"))),
    }
    # The package passes findings as tuples and as lists.
    rows = st.lists(finding_rows, max_size=4)
    report["violations"] = draw(st.one_of(rows, rows.map(tuple)))
    if draw(st.booleans()):
        report["warnings"] = draw(rows)
    if draw(st.booleans()):
        report["generators"] = draw(st.lists(report_words, max_size=3))
        report["decompositions"] = [
            {"n": n, "prefix": prefix, "middle": middle, "suffix": suffix}
            for n, (prefix, middle, suffix) in enumerate(
                draw(st.lists(st.tuples(report_words, report_words, report_words), max_size=3)), 1
            )
        ]
    return report


@settings(max_examples=300)
@given(finding_reports())
def test_renderers_match_the_reference_renderer(report):
    findings = [*report["violations"], *report.get("warnings", ())]
    for condition, indices, witness in findings:
        event(condition)
        event(f"indices: {len(indices)}, witness words: {len(witness)}")
        if "" in witness:
            event("the empty word in a witness")
    event("violations" if report["violations"] else "no violations")
    if report.get("warnings"):
        event("warnings")
    if "decompositions" in report:
        event("fields after the findings")
    assert cli.render_json(report) == render_json_reference(report)
    assert cli.render_text(report) == render_text_reference(report)
