import pytest
from hypothesis import given
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
