"""End-to-end checks of the shipped behaviors, one test per criterion.

Each test prints a single ``criterion N: PASS``/``FAIL`` line so a verbose
run reads as a checklist.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import random
import time
from contextlib import contextmanager

from helpers import TableTarget, blocks_oracle, brute_solve, submonoid_members
from uniseq.actions import blocks, partial_perm
from uniseq.conditions import analyze_family, check_corollary
from uniseq.families import ALTERNATING, BANACH, SIERPINSKI, instantiate_many
from uniseq.submonoid import closure, member
from uniseq.witness import (
    BASE,
    WitnessContext,
    _append_innermost,
    eval_hom,
    sample_states,
    seeded_targets,
    verify_witness,
)

FAMILIES = {
    "banach": BANACH,
    "sierpinski": SIERPINSKI,
    "alternating": ALTERNATING,
}


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_closure_reproduction():
    with criterion(1, "closure reproduction"):
        start = time.perf_counter()
        result = closure(instantiate_many(ALTERNATING, 5))
        elapsed = time.perf_counter() - start
        assert result.generators == ("ab",)
        assert set(result.rounds[0].repeated) == {"", "ab"}
        assert set(result.rounds[0].cross) == {"", "ab"}
        assert elapsed < 1.0


def test_criterion_2_corollary_suite():
    with criterion(2, "corollary suite"):
        for family in (BANACH, SIERPINSKI):
            start = time.perf_counter()
            verdict = check_corollary(family, 10)
            trivial = closure(instantiate_many(family, 10))
            elapsed = time.perf_counter() - start
            assert verdict.holds
            assert trivial.generators == ()
            assert elapsed < 1.0


def test_criterion_3_theorem_suite():
    with criterion(3, "theorem suite"):
        analysis = analyze_family(ALTERNATING, 5)
        assert analysis.verdict.holds
        generators = analysis.closure.generators
        for n, dec in enumerate(analysis.decompositions, 1):
            assert dec.prefix == "ab"
            assert dec.suffix == "ab"
            assert dec.middle == "a" + "ab" * (n + 1) + "b"
            word = analysis.words[n - 1]
            members = submonoid_members(generators, len(word))
            oracle_prefix = max(i for i in range(len(word) + 1) if word[:i] in members)
            oracle_suffix = min(i for i in range(len(word) + 1) if word[i:] in members)
            assert dec.prefix == word[:oracle_prefix]
            assert dec.suffix == word[oracle_suffix:]


def test_criterion_4_witness_verification():
    with criterion(4, "witness verification"):
        start = time.perf_counter()
        total = 0
        for family in FAMILIES.values():
            targets = seeded_targets(0, 3)
            samples = sample_states(50, 0)
            report = verify_witness(family, 3, targets, samples)
            assert report.passed
            assert report.checks["target"] == 3 * 50
            assert report.checks["stacking"] == 3 * 50
            assert report.checks["firing_step"] == 3 * 50
            total += report.checks["target"]
        elapsed = time.perf_counter() - start
        assert total >= 200
        assert elapsed < 10.0


def test_criterion_5_append_property():
    with criterion(5, "append property"):
        analysis = analyze_family(ALTERNATING, 3)
        ctx = WitnessContext(
            analysis.closure.generators,
            analysis.decompositions,
            tuple(TableTarget() for _ in range(3)),
        )
        generators = tuple(ctx.generators)
        rng = random.Random(42)
        states = sample_states(20, 42)
        for _ in range(50):
            product = ""
            while True:
                extended = product + rng.choice(generators)
                if len(extended) > 12:
                    break
                product = extended
                if rng.random() < 0.4 and product:
                    break
            if not product:
                product = generators[0]
            outputs = set()
            for state in states:
                got = eval_hom(product, state, BASE, ctx)
                assert got == _append_innermost(state, product)
                outputs.add(got)
            assert len(outputs) == len(states)


def test_criterion_6_equation_oracle_cross_check():
    with criterion(6, "equation oracle cross-check"):
        from uniseq.equations import solve

        assert solve(["aa"], [(1, 0)], 2) is None
        rng = random.Random(7)
        for _ in range(120):
            size = rng.randint(1, 3)
            count = rng.randint(1, 2)
            words = [
                "".join(rng.choice("ab") for _ in range(rng.randint(1, 4)))
                for _ in range(count)
            ]
            targets = [
                tuple(rng.randrange(size) for _ in range(size)) for _ in range(count)
            ]
            assert solve(words, targets, size) == brute_solve(words, targets, size)


def test_criterion_7_blocks_cross_check():
    with criterion(7, "blocks cross-check"):
        rng = random.Random(13)
        for _ in range(120):
            size = rng.randint(3, 8)
            points = list(range(1, size + 1))
            core = rng.sample(points, rng.randint(2, 3))
            rest = [p for p in points if p not in core]
            ground = frozenset(points)
            gens = []
            for _ in range(rng.randint(1, 3)):
                shuffled = core[:]
                rng.shuffle(shuffled)
                mapping = dict(zip(core, shuffled))
                sources = rng.sample(rest, rng.randint(0, len(rest)))
                images = rng.sample(rest, len(sources))
                mapping.update(zip(sources, images))
                gens.append(partial_perm(mapping, ground))
            partition = blocks(gens, ground)
            assert set(partition) == blocks_oracle(gens, ground)
            closed = [b for b in partition if b <= set(core)]
            assert closed


def test_criterion_8_closure_monotonicity():
    with criterion(8, "closure monotonicity"):
        for family in FAMILIES.values():
            words = instantiate_many(family, 8)
            for bound in range(2, 8):
                smaller = closure(words[:bound]).generators
                larger = closure(words[:bound + 1]).generators
                for g in smaller:
                    assert member(larger, g)
