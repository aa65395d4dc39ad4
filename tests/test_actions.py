import random

import pytest

from helpers import blocks_oracle
from uniseq.actions import PartialPerm, blocks, partial_perm


def pp(mapping, ground):
    return partial_perm(mapping, ground)


def random_partial_perm(rng, ground):
    points = list(ground)
    sources = rng.sample(points, rng.randint(0, len(points)))
    images = rng.sample(points, len(sources))
    return pp(dict(zip(sources, images)), ground)


def test_injectivity_is_enforced():
    with pytest.raises(ValueError):
        pp({1: 3, 2: 3}, [1, 2, 3])
    with pytest.raises(ValueError):
        pp({1: 4}, [1, 2, 3])


def test_pairs_are_a_set_and_a_repeated_pair_is_refused():
    assert PartialPerm([1, 2, 3, 4], [(3, 4), (1, 2)]) == pp({1: 2, 3: 4}, [1, 2, 3, 4])
    assert pp({1: 2}, [1, 2]).pairs == frozenset({(1, 2)})
    with pytest.raises(ValueError, match="two images"):
        PartialPerm([1, 2], [(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="point 9 is outside"):
        pp({9: 1, 8: 2}, [1, 2])


def test_blocks_small_cases():
    one_arc = pp({1: 2}, [1, 2, 3, 4])
    assert set(blocks([one_arc], [1, 2, 3, 4])) == {
        frozenset({1, 2}),
        frozenset({3}),
        frozenset({4}),
    }
    ident = pp({1: 1, 2: 2}, [1, 2])
    assert set(blocks([ident], [1, 2])) == {frozenset({1}), frozenset({2})}
    chain = pp({1: 2, 2: 3}, [1, 2, 3])
    assert set(blocks([chain], [1, 2, 3])) == {frozenset({1, 2, 3})}
    cycle_and_chain = pp({1: 2, 2: 1, 3: 4}, [1, 2, 3, 4])
    assert set(blocks([cycle_and_chain], [1, 2, 3, 4])) == {
        frozenset({1, 2}),
        frozenset({3, 4}),
    }


def test_blocks_refuses_a_generator_on_another_ground_set():
    with pytest.raises(ValueError, match="ground set mismatch"):
        blocks([pp({1: 2}, [1, 2, 3])], [1, 2])


def test_blocks_partition_the_ground_set():
    rng = random.Random(11)
    for _ in range(60):
        size = rng.randint(1, 8)
        ground = frozenset(range(size))
        gens = [random_partial_perm(rng, ground) for _ in range(rng.randint(0, 3))]
        part = blocks(gens, ground)
        assert set().union(*part) == ground
        for i, b in enumerate(part):
            for c in part[i + 1:]:
                assert not (b & c)
        assert set(part) == blocks_oracle(gens, ground)
