from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eval_hom_reference
from uniseq.conditions import analyze_family, check_theorem
from uniseq.errors import (
    AmbiguousCollapse,
    CapExceeded,
    HypothesisNotVerified,
    VerificationFailure,
)
from uniseq.families import (
    ALTERNATING,
    BANACH,
    SIERPINSKI,
    Literal,
    Power,
    SequenceFamily,
)
from uniseq.witness import (
    BASE,
    MAX_SAMPLES,
    TARGETED,
    Atom,
    SeededTarget,
    StackState,
    TableTarget,
    WitnessContext,
    collapse_generator,
    eval_hom,
    fire_target,
    generator_products,
    gw_inv,
    gw_mul,
    is_positive,
    reduce_word,
    sample_states,
    seeded_targets,
    state_key,
    step,
    verify_witness,
)

Y0 = Atom("y0")

signed_st = st.text(alphabet="abAB", max_size=8)


def alternating_ctx(bound=3):
    analysis = analyze_family(ALTERNATING, bound)
    targets = tuple(TableTarget() for _ in range(bound))
    return analysis, WitnessContext(
        analysis.closure.generators, analysis.decompositions, targets
    )


def test_reduction_small_cases():
    assert reduce_word("aA") == ""
    assert gw_mul("ab", gw_inv("ab")) == ""
    assert gw_mul("ab", "ab") == "abab"
    assert gw_inv("aB") == "bA"


@given(signed_st)
def test_reduction_is_idempotent(s):
    r = reduce_word(s)
    assert reduce_word(r) == r


@given(signed_st, signed_st, signed_st)
def test_signed_word_multiplication_laws(x, y, z):
    x, y, z = reduce_word(x), reduce_word(y), reduce_word(z)
    assert gw_mul(gw_mul(x, y), z) == gw_mul(x, gw_mul(y, z))
    assert gw_mul(x, "") == x
    assert gw_mul("", x) == x
    assert gw_mul(x, gw_inv(x)) == ""


def test_positive_words():
    assert is_positive("ab")
    assert not is_positive("")
    assert not is_positive("aB")


def test_state_canonicalization():
    assert StackState("ab", ("ab", "a")).entries == ("a",)
    assert StackState("ab", ("ab", "ab")).entries == ()
    assert StackState(Y0, (Y0, "a")).entries == ("a",)


def test_state_validation():
    with pytest.raises(ValueError):
        StackState(Y0)  # constant sequences need a signed-word value
    with pytest.raises(ValueError):
        StackState("a", ("b", Y0))  # innermost cell must be a signed word
    with pytest.raises(ValueError):
        StackState("aA")  # cells must be stored reduced
    with pytest.raises(ValueError):
        Atom("ab")  # atom names cannot look like signed words


def test_push_a_shifts_cells_inward():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("",))
    assert step(state, "a", BASE, ctx) == StackState(Y0, ("", "a"))


def test_generator_fold_merges_into_the_cell_above():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("", "a", "b"))
    assert collapse_generator(state, ctx) == StackState(Y0, ("ab",))


def test_push_b_without_a_match_just_pushes():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("ba",))
    assert step(state, "b", BASE, ctx) == StackState(Y0, ("ba", "b"))
    assert step(state, "b", TARGETED, ctx) == StackState(Y0, ("ba", "b"))


def test_generator_evaluation_appends_to_the_innermost_cell():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("",))
    assert eval_hom("ab", state, BASE, ctx) == StackState(Y0, ("ab",))
    assert eval_hom("abab", StackState(Y0, ("A",)), BASE, ctx) == StackState(Y0, ("bab",))


def test_base_and_targeted_modes_agree_on_generator_products():
    _, ctx = alternating_ctx()
    for v in generator_products(ctx.generators, max_len=12):
        for state in sample_states(10, 7):
            assert eval_hom(v, state, BASE, ctx) == eval_hom(v, state, TARGETED, ctx)


def test_firing_is_inert_along_generator_product_paths():
    _, ctx = alternating_ctx()
    for v in generator_products(ctx.generators, max_len=8):
        for state in sample_states(5, 11):
            current = state
            for ch in v:
                current = step(current, ch, BASE, ctx)
                assert fire_target(current, ctx) == current


def test_target_fires_and_restores_the_start_state():
    analysis, _ = alternating_ctx()
    marker = StackState("ba")
    start = StackState(Y0, ("A",))
    table = TableTarget({start: marker})
    targets = (table,) + tuple(TableTarget() for _ in range(2))
    ctx = WitnessContext(analysis.closure.generators, analysis.decompositions, targets)
    got = eval_hom(analysis.words[0], start, TARGETED, ctx)
    assert got == marker


# Two different powers around a literal; passes the theorem with the single
# generator aab.
TWO_POWERS = SequenceFamily(
    ((Literal("aabaa"), Power("aab", 1, 1), Literal("b"), Power("abb", 1, 0), Literal("bbaab")),)
)


@pytest.mark.parametrize(
    "family",
    [BANACH, SIERPINSKI, ALTERNATING, TWO_POWERS],
    ids=["banach", "sierpinski", "alternating", "two-powers"],
)
def test_evaluation_matches_the_validating_reference(family):
    bound = 4
    analysis = analyze_family(family, bound)
    assert check_theorem(family, bound).holds
    ctx = WitnessContext(
        analysis.closure.generators, analysis.decompositions, seeded_targets(2, bound)
    )
    words = (
        analysis.words
        + tuple(d.middle for d in analysis.decompositions)
        + tuple(generator_products(ctx.generators, max_len=12, limit=8))
    )
    for state in sample_states(12, 5):
        for w in words:
            for mode in (BASE, TARGETED):
                out = eval_hom(w, state, mode, ctx)
                assert out == eval_hom_reference(w, state, mode, ctx)
                assert StackState(out.tail, out.entries) == out


def test_machine_states_equal_and_hash_like_validated_ones():
    _, ctx = alternating_ctx()
    # The pushed cell equals the tail and must be absorbed, as the public
    # constructor would.
    pushed = step(StackState("a"), "a", BASE, ctx)
    assert pushed == StackState("a") and hash(pushed) == hash(StackState("a"))
    target = SeededTarget(0, 1)
    outputs = [eval_hom("abaab", s, TARGETED, ctx) for s in sample_states(20, 21)]
    images = [target(out) for out in outputs]
    memo_size = len(target._memo)
    for out, image in zip(outputs, images):
        rebuilt = StackState(out.tail, out.entries)
        assert rebuilt == out and hash(rebuilt) == hash(out)
        assert target(rebuilt) is image
    assert len(target._memo) == memo_size


def test_ambiguous_fold_is_reported():
    ctx = WitnessContext(("ab", "aab"), (), ())
    state = StackState("", ("a", "a", "b"))
    with pytest.raises(AmbiguousCollapse):
        collapse_generator(state, ctx)


def test_state_keys_are_distinct():
    states = sample_states(25, 3)
    assert len({state_key(s) for s in states}) == len(states)


@pytest.mark.parametrize("count", [0, -5])
def test_sample_count_must_be_positive(count):
    with pytest.raises(ValueError):
        sample_states(count, 0)


def test_sample_count_is_capped():
    with pytest.raises(CapExceeded):
        sample_states(MAX_SAMPLES + 1, 0)


def test_seeded_targets_are_deterministic_functions():
    first = SeededTarget(5, 2)
    second = SeededTarget(5, 2)
    other = SeededTarget(6, 2)
    states = sample_states(20, 9)
    assert [first(s) for s in states] == [second(s) for s in states]
    assert [first(s) for s in states] == [first(s) for s in states]
    assert any(first(s) != other(s) for s in states)


def test_table_target_defaults_to_identity():
    t = TableTarget()
    state = StackState("ab")
    assert t(state) == state


ab_words = st.text(alphabet="ab", min_size=1, max_size=6)


@settings(max_examples=60)
@given(ab_words, ab_words)
def test_evaluation_is_a_homomorphism(u, v):
    _, ctx = alternating_ctx()
    for state in sample_states(3, 13):
        assert eval_hom(u + v, state, TARGETED, ctx) == eval_hom(
            v, eval_hom(u, state, TARGETED, ctx), TARGETED, ctx
        )


@settings(max_examples=60)
@given(ab_words)
def test_steps_keep_states_canonical(w):
    _, ctx = alternating_ctx()
    for state in sample_states(3, 17):
        out = eval_hom(w, state, TARGETED, ctx)
        if out.entries:
            assert out.entries[0] != out.tail
        else:
            assert isinstance(out.tail, str)


def test_verification_passes_on_the_alternating_family():
    report = verify_witness(
        ALTERNATING, 3, seeded_targets(1, 3), sample_states(20, 1)
    )
    assert report.passed
    assert report.checks["target"] == 60
    assert report.checks["append"] > 0


def test_verification_rejects_failing_families():
    powers = SequenceFamily(((Power("ab", 1, 0),),))
    with pytest.raises(HypothesisNotVerified):
        verify_witness(powers, 3, seeded_targets(0, 3), sample_states(5, 0))


def test_verification_rejects_the_mirrored_orientation():
    mirrored = SequenceFamily(((Literal("bab"), Power("ba", 1, 1), Literal("aba")),))
    with pytest.raises(HypothesisNotVerified) as info:
        verify_witness(mirrored, 3, seeded_targets(0, 3), sample_states(5, 0))
    assert "substitute" in str(info.value)


def test_verification_with_a_three_letter_generator():
    family = SequenceFamily(((Literal("aaba"), Power("aab", 1, 1), Literal("baab")),))
    analysis = analyze_family(family, 3)
    assert analysis.closure.generators.generators == ("aab",)
    report = verify_witness(family, 3, seeded_targets(4, 3), sample_states(25, 4))
    assert report.passed
    assert report.checks["append"] > 0


def test_every_family_passing_the_checks_verifies():
    # All 294 families a+lead (base)^(n+1) trail+b with lead and trail of at
    # most two letters and a base of one or two.  Every word starts with a
    # and ends with b, so only the theorem check filters; 83 of them pass
    # it, and each must verify.
    short = ("", "a", "b", "aa", "ab", "ba", "bb")
    verified = 0
    for lead, base, trail in product(short, short[1:], short):
        family = SequenceFamily(
            ((Literal("a" + lead), Power(base, 1, 1), Literal(trail + "b")),)
        )
        if not check_theorem(family, 3).holds:
            continue
        report = verify_witness(family, 3, seeded_targets(3, 3), sample_states(8, 3))
        assert report.passed, (lead, base, trail)
        verified += 1
    assert verified == 83


class _Unstable:
    """Deliberately violates the determinism every target must have."""

    def __init__(self):
        self.calls = 0

    def __call__(self, state):
        self.calls += 1
        if self.calls == 1:
            return state
        return StackState("ba", (state_key(state) and "a",))


def test_verification_failure_carries_a_report():
    targets = (_Unstable(),) + tuple(TableTarget() for _ in range(2))
    samples = [StackState(Y0, ("",))] + sample_states(4, 2)
    with pytest.raises(VerificationFailure) as info:
        verify_witness(ALTERNATING, 3, targets, samples)
    report = info.value.report
    assert report is not None
    assert report.failure is not None
    assert report.failure["check"] == "target"
