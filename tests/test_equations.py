import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import brute_solve
from uniseq.equations import MAX_SET_SIZE, all_maps, compose_maps, evaluate, solve
from uniseq.errors import CapExceeded

IDENT2 = (0, 1)
SWAP2 = (1, 0)


def test_single_letter_evaluates_to_its_map():
    assert evaluate("a", {"a": SWAP2, "b": IDENT2}) == SWAP2


def test_composition_is_left_to_right():
    f = (1, 0)
    g = (0, 0)
    # x goes through f first, then g
    assert evaluate("ab", {"a": f, "b": g}) == compose_maps(f, g) == (0, 0)
    assert evaluate("ba", {"a": f, "b": g}) == (1, 1)


def test_squaring_the_identity():
    assert evaluate("aa", {"a": IDENT2}) == IDENT2


def test_evaluate_raises_on_a_bad_word_instead_of_checking_it():
    with pytest.raises(KeyError):
        evaluate("ac", {"a": IDENT2, "b": IDENT2})
    with pytest.raises(IndexError):
        evaluate("", {"a": IDENT2, "b": IDENT2})


def test_swap_has_no_square_root_on_two_points():
    maps = list(all_maps(2))
    assert all(compose_maps(g, g) != SWAP2 for g in maps)
    assert solve(["aa"], [SWAP2], 2) is None


def test_single_letter_equations_are_forced():
    assignment = solve(["a"], [SWAP2], 2)
    assert assignment is not None and assignment["a"] == SWAP2


def test_two_letter_word_is_satisfiable_on_three_points():
    target = (2, 0, 1)
    assignment = solve(["ab"], [target], 3)
    assert assignment is not None
    assert evaluate("ab", assignment) == target


def test_cap_and_input_validation():
    with pytest.raises(CapExceeded):
        solve(["a"], [tuple(range(5))], 5)
    # A one-point system: without the check this would be a trivial search.
    with pytest.raises(CapExceeded):
        solve(["a"], [(0,)], 1, cap=MAX_SET_SIZE + 1)
    with pytest.raises(ValueError):
        solve(["a"], [(0, 1), (1, 0)], 2)
    with pytest.raises(ValueError):
        solve(["a"], [(0, 2)], 2)
    with pytest.raises(ValueError):
        solve([""], [(0, 1)], 2)
    with pytest.raises(ValueError):
        solve(["ac"], [(0, 1)], 2)


def test_identical_calls_return_identical_solutions():
    words = ["ab", "ba"]
    targets = [(1, 0), (1, 0)]
    assert solve(words, targets, 2) == solve(words, targets, 2)


words_st = st.lists(st.text(alphabet="ab", min_size=1, max_size=4), min_size=1, max_size=2)


@settings(max_examples=60)
@given(words_st, st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
def test_solver_agrees_with_unpruned_enumeration(words, size, rng):
    targets = [tuple(rng.randrange(size) for _ in range(size)) for _ in words]
    assert solve(words, targets, size) == brute_solve(words, targets, size)


@settings(max_examples=60)
@given(words_st, st.integers(min_value=1, max_value=3), st.randoms(use_true_random=False))
def test_solutions_satisfy_every_equation(words, size, rng):
    targets = [tuple(rng.randrange(size) for _ in range(size)) for _ in words]
    assignment = solve(words, targets, size)
    if assignment is not None:
        for w, t in zip(words, targets):
            assert evaluate(w, assignment) == t
