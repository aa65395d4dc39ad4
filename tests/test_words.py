import pytest
from hypothesis import event, given
from hypothesis import strategies as st

from uniseq.errors import AlphabetError
from uniseq.words import SHARED, Automaton, check_word, common_prefix_length

word_st = st.text(alphabet="ab", max_size=7)


def test_alphabet_validation():
    with pytest.raises(AlphabetError):
        check_word("abc")
    with pytest.raises(AlphabetError):
        check_word(3)
    with pytest.raises(AlphabetError, match="'X'"):
        check_word("abXcab")
    assert check_word("") == ""


@given(st.lists(word_st, max_size=4), word_st)
def test_failure_chain_lists_the_suffixes_that_start_a_pattern(patterns, text):
    automaton = Automaton([(p, k) for k, p in enumerate(patterns)], {})
    for k, p in enumerate(patterns):
        assert automaton.depth[automaton.ends[k]] == len(p)
    node = 0
    for letter in text:
        node = automaton.step[letter][node]
    chain = []
    while node:
        chain.append(automaton.depth[node])
        node = automaton.fail[node]
    starts = {d for d in range(1, len(text) + 1) for p in patterns if p.startswith(text[-d:])}
    assert chain == sorted(starts, reverse=True)


def test_nodes_remember_one_label_until_a_second_passes():
    automaton = Automaton([("ab", 0), ("abb", 0), ("a", 1)], {})
    ab, abb, a = automaton.ends
    assert (automaton.owner[a], automaton.owner[ab], automaton.owner[abb]) == (SHARED, 0, 0)


@pytest.mark.parametrize(
    "x, y, length",
    [
        ("", "", 0),
        ("", "ab", 0),
        ("ab", "", 0),
        ("abba", "abba", 4),
        ("ab", "abba", 2),
        ("abba", "ab", 2),
        ("abba", "abab", 2),
        ("a", "b", 0),
    ],
)
def test_common_prefix_length_edge_cases(x, y, length):
    assert common_prefix_length(x, y) == length


@given(word_st, word_st)
def test_common_prefix_length_is_the_longest_agreeing_prefix(x, y):
    length = common_prefix_length(x, y)
    assert x[:length] == y[:length]
    assert length == min(len(x), len(y)) or x[length] != y[length]


@st.composite
def marked_pieces(draw):
    """1-8 nonempty pieces, some of them copies of others, and the indices
    of the ones marked."""
    words = st.text(alphabet="ab", min_size=1, max_size=6)
    base = draw(st.lists(words, min_size=1, max_size=4))
    pieces = draw(st.lists(st.sampled_from(base) | words, min_size=1, max_size=8))
    return pieces, draw(st.sets(st.integers(0, len(pieces) - 1)))


@given(marked_pieces())
def test_occurrences_are_the_first_ends_found_by_search(drawn):
    pieces, marked = drawn
    found = Automaton([(p, 0) for p in pieces], {}).occurrences(sorted(marked))
    assert len(found) == len(pieces)
    for i, text in enumerate(pieces):
        expected = {}
        for j in sorted(marked):
            start = text.find(pieces[j])
            if start >= 0:
                expected[j] = start + len(pieces[j])
        assert found[i] == expected
        assert list(found[i].values()) == sorted(expected.values())
    for j in marked:
        hosts = {pieces[i] for i in range(len(pieces)) if pieces[j] in pieces[i]}
        event("occurs in another piece" if len(hosts) > 1 else "occurs in itself only")
    if len(set(pieces)) < len(pieces):
        event("repeated piece")
