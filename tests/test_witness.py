import gc
import tracemalloc
from collections import Counter
from itertools import permutations, product
from os.path import commonprefix

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    STACKING_CLASH,
    TableTarget,
    eval_hom_reference,
    explicit_family,
    verify_witness_reference,
)
from uniseq import conditions, witness
from uniseq.conditions import Decomposition, analyze_family
from uniseq.errors import (
    AlphabetError,
    AmbiguousCollapse,
    CapExceeded,
    EmptyInput,
    HypothesisNotVerified,
)
from uniseq.families import (
    ALTERNATING,
    BANACH,
    SIERPINSKI,
    Literal,
    Power,
    SequenceFamily,
)
from uniseq.submonoid import ClosureResult
from uniseq.words import common_prefix_length, word_key
from uniseq.witness import (
    BASE,
    MAX_SAMPLES,
    TARGETED,
    Atom,
    SeededTarget,
    StackState,
    WitnessContext,
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
    state_to_json,
    step,
    verify_witness,
)

Y0 = Atom("y0")

signed_st = st.text(alphabet="abAB", max_size=8)


def alternating_ctx(bound=3, targets=None):
    analysis = analyze_family(ALTERNATING, bound)
    targets = targets or tuple(TableTarget() for _ in range(bound))
    return analysis, WitnessContext(analysis.generators, analysis.decompositions, targets)


def step_from(state, letter, mode, ctx):
    """``step`` from the node derived for ``state``; the state it returns."""
    return step(state, witness._start_node(state, ctx), letter, mode, ctx)[0]


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


def test_a_foreign_letter_is_not_a_signed_letter():
    with pytest.raises(AlphabetError, match="'c'"):
        reduce_word("abc")


def test_positive_words():
    assert is_positive("ab")
    assert not is_positive("")
    assert not is_positive("aB")


def test_state_canonicalization():
    assert StackState("ab", ("ab", "a")).entries == ("a",)
    assert StackState("ab", ("ab", "ab")).entries == ()
    assert StackState(Y0, (Y0, "a")).entries == ("a",)
    # Two states are equal, and then hash alike, exactly when the
    # sequences they encode are: cells agree at every depth.
    states = [
        StackState(tail, entries)
        for tail in ("", "a", "ab", Y0, Atom("y1"))
        for entries in ((), ("a",), ("ab",), ("a", "a"), ("ab", "a"), (Y0, ""), ("a", Y0, "a"))
        if entries or isinstance(tail, str)
    ]
    for x, y in product(states, repeat=2):
        cells = [
            (witness._cell_at(x.tail, x.entries, d), witness._cell_at(y.tail, y.entries, d))
            for d in range(max(len(x.entries), len(y.entries)) + 1)
        ]
        same = all(u == v and type(u) is type(v) for u, v in cells)
        assert (x == y) == same, (x, y)
        assert not same or hash(x) == hash(y)
    # An atom never equals a word, another atom or a state.
    assert Y0 not in {"y0", "", "ab", Atom("y1"), StackState(""), StackState(Y0, ("",))}
    assert all(Y0 != x for x in states)


def test_state_validation():
    with pytest.raises(ValueError):
        StackState(Y0)  # constant sequences need a signed-word value
    with pytest.raises(ValueError):
        StackState("a", ("b", Y0))  # innermost cell must be a signed word
    with pytest.raises(ValueError):
        StackState("aA")  # cells must be stored reduced
    with pytest.raises(ValueError):
        Atom("ab")  # atom names cannot look like signed words
    with pytest.raises(TypeError):
        StackState("", "ab")  # a string is not split into one-letter cells
    with pytest.raises(TypeError):
        StackState("", (1,))  # a cell is a signed word or an atom


def test_push_a_shifts_cells_inward():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("",))
    assert step_from(state, "a", BASE, ctx) == StackState(Y0, ("", "a"))


def test_generator_fold_merges_into_the_cell_above():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("", "a"))
    assert step_from(state, "b", BASE, ctx) == StackState(Y0, ("ab",))


def test_push_b_without_a_match_just_pushes():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("ba",))
    assert step_from(state, "b", BASE, ctx) == StackState(Y0, ("ba", "b"))
    assert step_from(state, "b", TARGETED, ctx) == StackState(Y0, ("ba", "b"))


def test_generator_evaluation_appends_to_the_innermost_cell():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("",))
    assert eval_hom("ab", state, BASE, ctx) == StackState(Y0, ("ab",))
    assert eval_hom("abab", StackState(Y0, ("A",)), BASE, ctx) == StackState(Y0, ("bab",))


def test_base_and_targeted_modes_agree_on_generator_products():
    _, ctx = alternating_ctx()
    for v in [p for p in generator_products(ctx.generators) if len(p) <= 12]:
        for state in sample_states(10, 7):
            assert eval_hom(v, state, BASE, ctx) == eval_hom(v, state, TARGETED, ctx)


def test_a_letter_outside_the_alphabet_is_refused_before_any_step(monkeypatch):
    # ``step`` trusts its letter; ``eval_hom`` is the boundary that checks.
    _, ctx = alternating_ctx()
    monkeypatch.setattr(witness, "step", lambda *args: pytest.fail("stepped"))
    with pytest.raises(AlphabetError, match="'c'"):
        eval_hom("abc", StackState(Y0, ("",)), BASE, ctx)


def test_eval_hom_refuses_an_empty_word_and_an_unknown_mode():
    _, ctx = alternating_ctx()
    state = StackState(Y0, ("",))
    with pytest.raises(EmptyInput):
        eval_hom("", state, BASE, ctx)
    with pytest.raises(ValueError, match="unknown mode 'other'"):
        eval_hom("ab", state, "other", ctx)


@pytest.mark.parametrize("generators", [("a", "b"), ("ab",), ("b", "ab", "aab"), ("ab", "ba", "aabb", "b")])
def test_generator_products_do_not_depend_on_the_order_of_the_generators(generators):
    expected = generator_products(generators)
    assert expected == sorted(expected, key=word_key)
    for order in permutations(generators):
        assert generator_products(order) == expected
        assert generator_products(list(reversed(order))) == expected


def test_firing_is_inert_along_generator_product_paths():
    _, ctx = alternating_ctx()
    for v in [p for p in generator_products(ctx.generators) if len(p) <= 8]:
        for state in sample_states(5, 11):
            current, node = state, witness._start_node(state, ctx)
            for ch in v:
                current, node = step(current, node, ch, BASE, ctx)
                assert fire_target(current, node, ctx) == (current, node)


def test_target_fires_and_restores_the_start_state():
    analysis, _ = alternating_ctx()
    marker = StackState("ba")
    start = StackState(Y0, ("A",))
    table = TableTarget({start: marker})
    targets = (table,) + tuple(TableTarget() for _ in range(2))
    ctx = WitnessContext(analysis.generators, analysis.decompositions, targets)
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
    assert analyze_family(family, bound).verdict.holds
    ctx = WitnessContext(analysis.generators, analysis.decompositions, seeded_targets(2, bound))
    words = (
        analysis.words
        + tuple(d.middle for d in analysis.decompositions)
        + tuple([p for p in generator_products(ctx.generators) if len(p) <= 12][:8])
    )
    for state in sample_states(12, 5):
        for w in words:
            for mode in (BASE, TARGETED):
                out = eval_hom(w, state, mode, ctx)
                assert out == eval_hom_reference(w, state, mode, ctx)
                assert StackState(out.tail, out.entries) == out


KEY_POOL = ("b", "ab", "ba", "aab", "abb", "bab", "abab", "aabb")
RUN_CELLS = ("a", "b", "ab", "ba", "aab", "abb")
OTHER_CELLS = ("", "A", "B", "aB", "Ab", "bA", Atom("y0"), Atom("y1"))


@st.composite
def machines(draw):
    """A context over drawn generators and middles (keys that may overlap,
    so two can match at once), a start state whose cells mix multi-letter
    positive words, other signed words and atoms under any tail, a word
    and a mode."""
    generators = draw(st.lists(st.sampled_from(KEY_POOL), max_size=3, unique=True))
    middles = draw(st.lists(st.sampled_from(KEY_POOL), max_size=3, unique=True))
    sides = st.text("ab", max_size=2)
    decs = [Decomposition(n, draw(sides), m, draw(sides)) for n, m in enumerate(middles, 1)]
    ctx = WitnessContext(generators, decs, seeded_targets(draw(st.integers(0, 9)), len(decs)))
    cells = st.sampled_from(RUN_CELLS + OTHER_CELLS)
    tail = draw(cells)
    entries = draw(st.lists(cells, max_size=4))
    if not entries or not isinstance(entries[-1], str):
        entries.append(draw(st.sampled_from(RUN_CELLS + ("", "A"))))
    word = draw(st.text("ab", min_size=1, max_size=10))
    return ctx, StackState(tail, tuple(entries)), word, draw(st.sampled_from((BASE, TARGETED)))


def _run_and_above(state):
    """The innermost run of positive cells, innermost first, and the cell
    above it, None when the run goes on into a positive tail."""
    run = []
    for cell in reversed(state.entries):
        if not (isinstance(cell, str) and is_positive(cell)):
            return run, cell
        run.append(cell)
    if isinstance(state.tail, str) and is_positive(state.tail):
        return run + [state.tail], None
    return run, state.tail


def _reference_steps(ctx, start, word, mode):
    """``eval_hom_reference`` one letter at a time: the state after each
    letter, ending with the exception a letter raised, if one did."""
    states, state = [], start
    for ch in word:
        try:
            state = eval_hom_reference(ch, state, mode, ctx)
        except AmbiguousCollapse as exc:
            return states + [exc]
        states.append(state)
    return states


def test_carried_nodes_step_like_the_rescanning_reference():
    """``step`` with the node carried along, and ``eval_hom``, against the
    reference that rescans the cells after every b.  After every letter the
    states agree and the carried node is the one derived from the state;
    a letter where two keys match raises the same error in both.  Each
    trap the carried node could fall into is labelled and must be drawn
    with a key check on the way, so the draws are not vacuous."""
    seen = Counter()

    @settings(max_examples=400, deadline=None)
    @given(machines())
    def run_case(drawn):
        ctx, start, word, mode = drawn
        expected = _reference_steps(ctx, start, word, mode)
        state, node = start, witness._start_node(start, ctx)
        checked, labels = False, set()
        for ch, want in zip(word, expected):
            pushed = ctx.step[ch][node]
            keyed = ctx.folds[pushed] or mode == TARGETED and ctx.fires[pushed]
            checked |= ch == "b" and bool(keyed)
            if isinstance(want, Exception):
                with pytest.raises(AmbiguousCollapse) as info:
                    step(state, node, ch, mode, ctx)
                assert str(info.value) == str(want)
                with pytest.raises(AmbiguousCollapse):
                    eval_hom(word, start, mode, ctx)
                labels.add("two keys match: raised")
                break
            stored = len(state.entries)
            state, node = step(state, node, ch, mode, ctx)
            assert state == want
            assert node == witness._start_node(state, ctx)
            # In base mode a letter that leaves no more cells folded.
            inner = (state.entries or (state.tail,))[-1]
            folded = mode == BASE and len(state.entries) <= stored
            if checked and folded and len(inner) > 1 and is_positive(inner):
                labels.add("multi-letter positive cell from a fold")
        else:
            assert eval_hom(word, start, mode, ctx) == state
        if checked:
            run, above = _run_and_above(start)
            if any(len(c) > 1 for c in run):
                labels.add("multi-letter positive cell from the sample")
            if above is None:
                labels.add("positive tail")
            if isinstance(above, Atom):
                labels.add("atom above the run")
        for label in labels:
            event(label)
            seen[label] += 1

    run_case()
    assert {label for label, count in seen.items() if count} == {
        "multi-letter positive cell from the sample",
        "multi-letter positive cell from a fold",
        "positive tail",
        "atom above the run",
        "two keys match: raised",
    }, seen


def test_machine_states_equal_and_hash_like_validated_ones():
    _, ctx = alternating_ctx()
    # The pushed cell equals the tail and must be absorbed, as the public
    # constructor would.
    pushed = step_from(StackState("a"), "a", BASE, ctx)
    assert pushed == StackState("a") and hash(pushed) == hash(StackState("a"))
    # Machine states, validated states and atoms are all immutable.
    for record, field in ((pushed, "tail"), (StackState("a"), "entries"), (Y0, "name")):
        with pytest.raises(AttributeError):
            setattr(record, field, "b")
    target = SeededTarget(0, 1)
    outputs = [eval_hom("abaab", s, TARGETED, ctx) for s in sample_states(20, 21)]
    images = [target(out) for out in outputs]
    for out, image in zip(outputs, images):
        rebuilt = StackState(out.tail, out.entries)
        assert rebuilt == out and hash(rebuilt) == hash(out)
        assert target(rebuilt) == image


def test_ambiguous_fold_is_reported():
    ctx = WitnessContext(("ab", "aab"), (), ())
    state = StackState("", ("a", "a"))
    with pytest.raises(AmbiguousCollapse):
        step_from(state, "b", BASE, ctx)


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


def test_seeded_target_outputs_equal_the_validated_states():
    """Seeded targets build their outputs without validation; each one must
    be the state the validating constructor gives for its cells."""
    shapes = Counter()
    for seed in range(12):
        states = sample_states(40, seed)
        # Outputs are inputs too, as when a target's result is walked on.
        states += [SeededTarget(seed, 1)(x) for x in states]
        for index in (1, 2, 9, 200):
            target = SeededTarget(seed, index)
            for x in states:
                got = target(x)
                assert got == StackState(got.tail, tuple(got.entries))
                shapes[len(got.entries), isinstance(got.tail, Atom)] += 1
    # Every depth the pools give, under both kinds of tail.
    assert {depth for depth, _ in shapes} == {0, 1, 2, 3}
    assert {atom for _, atom in shapes} == {False, True}


@pytest.mark.parametrize("family", [ALTERNATING, BANACH, SIERPINSKI])
def test_walk_plans_resume_where_commonprefix_does(monkeypatch, family):
    """The walk plans' shared-prefix lengths come from
    ``words.common_prefix_length``; they must be those of
    ``os.path.commonprefix``, which the plans were built with before."""
    pairs = []

    def recording(x, y):
        pairs.append((x, y))
        return common_prefix_length(x, y)

    monkeypatch.setattr(witness, "common_prefix_length", recording)
    verify_witness(family, 10, seeded_targets(0, 10), sample_states(2, 0))
    assert len(pairs) > 10
    assert [common_prefix_length(x, y) for x, y in pairs] == [
        len(commonprefix((x, y))) for x, y in pairs
    ]


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


def test_an_empty_sample_list_is_refused_before_the_analysis(monkeypatch):
    # With no sample every check would count 0 and the report would pass.
    def no_analysis(family, bound):
        raise AssertionError("analyzed a family with no sample to check")

    monkeypatch.setattr(witness, "analyze_family", no_analysis)
    with pytest.raises(EmptyInput):
        verify_witness(ALTERNATING, 3, seeded_targets(0, 3), [])


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


def test_equal_middles_stop_verification_before_a_context_is_built(monkeypatch):
    # A middle two words share is a cross factor, so a real closure makes
    # it a member; a closure that adjoins nothing leaves every whole word
    # as its own middle.
    monkeypatch.setattr(
        conditions, "closure", lambda words, *, generators_only=False: ClosureResult((), (), (), 1)
    )

    def no_context(*args):
        raise AssertionError("a context was built for equal middles")

    monkeypatch.setattr(witness, "WitnessContext", no_context)
    family = explicit_family(["aab", "aab"])
    assert [d.middle for d in analyze_family(family, 2).decompositions] == ["aab", "aab"]
    with pytest.raises(HypothesisNotVerified) as info:
        verify_witness(family, 2, seeded_targets(0, 2), sample_states(3, 0))
    assert [v[0] for v in info.value.verdict.violations] == ["middle-unique"] * 2


def test_fewer_targets_than_the_bound_are_refused():
    with pytest.raises(ValueError, match="need at least 3 targets, got 2"):
        verify_witness(ALTERNATING, 3, seeded_targets(0, 2), sample_states(3, 0))


def test_repeated_sample_states_are_rejected():
    samples = sample_states(5, 0)
    with pytest.raises(ValueError, match="distinct"):
        verify_witness(ALTERNATING, 3, seeded_targets(0, 3), samples + samples[:1])


def test_verification_with_a_three_letter_generator():
    family = SequenceFamily(((Literal("aaba"), Power("aab", 1, 1), Literal("baab")),))
    analysis = analyze_family(family, 3)
    assert analysis.generators == ("aab",)
    report = verify_witness(family, 3, seeded_targets(4, 3), sample_states(25, 4))
    assert report.passed
    assert report.checks["append"] > 0


def _verify_passing(families, samples, bound=5):
    """Reports of ``verify_witness`` on every family passing the theorem
    check; each must pass."""
    reports = []
    for family in families:
        if not analyze_family(family, bound).verdict.holds:
            continue
        report = verify_witness(
            family, bound, seeded_targets(3, bound), sample_states(samples, 3)
        )
        assert report.passed, family
        reports.append(report)
    return reports


def test_every_family_passing_the_checks_verifies():
    # All 588 families a+lead (base)^(cn+1) trail+b with lead and trail of
    # at most two letters, a base of one or two and c in {1, 2}.  Every word
    # starts with a and ends with b, so only the theorem check filters; at
    # bound 5, 166 of them pass it, and each must verify.
    short = ("", "a", "b", "aa", "ab", "ba", "bb")
    families = [
        SequenceFamily(((Literal("a" + lead), Power(base, c, 1), Literal(trail + "b")),))
        for lead, base, trail, c in product(short, short[1:], short, (1, 2))
    ]
    assert len(_verify_passing(families, 4)) == 166


def test_every_two_power_family_passing_the_checks_verifies():
    # All 108 families g a X^(cn+1) m Y^n b g with the end piece g and the
    # bases X, Y drawn from ab, aab, abb, a middle m of "" or b, and c in
    # {1, 2}.  At bound 5, 54 of them pass the theorem, all with
    # generators, so every check runs; each must verify.
    ends = ("ab", "aab", "abb")
    families = [
        SequenceFamily((
            (Literal(g + "a"), Power(x, c, 1), Literal(m), Power(y, 1, 0), Literal("b" + g)),
        ))
        for g, x, m, y, c in product(ends, ends, ("", "b"), ends, (1, 2))
    ]
    reports = _verify_passing(families, 2)
    assert len(reports) == 54
    assert all(not r.not_applicable and r.checks["agreement"] for r in reports)


MARKER = StackState(Atom("marker"), ("",))


def _last_step(word, sample, mode, ctx):
    """Arguments of the ``step`` call that ends the run of ``word`` from
    ``sample``."""
    before = eval_hom(word[:-1], sample, mode, ctx) if len(word) > 1 else sample
    return before, word[-1], mode


def _fault_steps(monkeypatch, faults):
    """Make ``witness.step`` return, or raise, ``faults[args]`` on those
    arguments (the state, letter and mode; the node is the state's own),
    with the node derived for it.  Both verifiers step through this one
    pure function, so they see the same faulty machine."""
    real = witness.step

    def faulty(state, node, letter, mode, ctx):
        fault = faults.get((state, letter, mode))
        if fault is None:
            return real(state, node, letter, mode, ctx)
        if isinstance(fault, Exception):
            raise fault
        return fault, witness._start_node(fault, ctx)

    monkeypatch.setattr(witness, "step", faulty)


def test_verification_failure_carries_a_report(monkeypatch):
    analysis, ctx = alternating_ctx()
    targets = tuple(TableTarget() for _ in range(3))
    samples = [StackState(Y0, ("",))] + sample_states(4, 2)
    _fault_steps(monkeypatch, {_last_step(analysis.words[0], samples[0], TARGETED, ctx): MARKER})
    report = verify_witness(ALTERNATING, 3, targets, samples)
    assert not report.passed
    assert report.failure["check"] == "target"


@pytest.mark.parametrize(
    "result, start, word, extends",
    [
        (StackState(Y0, ("", "a", "b")), StackState(Y0, ("",)), "ab", True),
        (StackState("ab"), StackState("ab"), "abab", True),  # pushes absorbed by the tail
        (StackState("b", ("", "ab")), StackState("a", ("",)), "ab", False),
        (StackState(Y0, ("b", "ab")), StackState(Y0, ("",)), "ab", False),
        (StackState(Y0, ("", "A")), StackState(Y0, ("",)), "A", False),
        (StackState("A"), StackState("A"), "ab", False),
        (StackState("ab"), StackState("ab"), "aba", False),
    ],
    ids=["pushed", "absorbed", "tail-differs", "entries-differ", "not-positive",
         "tail-not-positive", "not-whole-tails"],
)
def test_stacking_accepts_exactly_the_pushed_cells(result, start, word, extends):
    assert witness._extends_with(result, start, word) is extends


def test_a_middle_ending_a_generator_fails_the_stacking_hypothesis(monkeypatch):
    # Rows that run before the stacking rows still count; no stacking or
    # firing_step row runs.
    monkeypatch.setattr(witness, "analyze_family", lambda family, bound: STACKING_CLASH)
    monkeypatch.setattr(helpers, "analyze_family", lambda family, bound: STACKING_CLASH)
    samples = [StackState(Y0, ("",)), StackState(Atom("y1"), ("A",))]
    for verify in (verify_witness, verify_witness_reference):
        report = verify(ALTERNATING, 1, (TableTarget(),), samples)
        assert report.failure == {"check": "stacking-hypothesis", "index": 1, "prefix": "b"}
        assert report.checks == {
            "target": 2, "append": 24, "agreement": 24, "stacking": 0, "firing_step": 0
        }
        assert not report.passed


def _outcome(verify, family, bound, targets, samples):
    """Check counts, inapplicable checks and failure of one verification,
    or the message of the collapse it raised."""
    try:
        report = verify(family, bound, targets, samples)
    except AmbiguousCollapse as exc:
        return "raised", str(exc)
    return report.checks, report.not_applicable, report.failure


@pytest.mark.parametrize("bound", range(2, 7))
@pytest.mark.parametrize(
    "family", [BANACH, SIERPINSKI, ALTERNATING], ids=["banach", "sierpinski", "alternating"]
)
def test_shared_runs_give_the_reference_report(family, bound):
    samples = sample_states(10, bound)
    got = _outcome(verify_witness, family, bound, seeded_targets(bound, bound), samples)
    expected = _outcome(
        verify_witness_reference, family, bound, seeded_targets(bound, bound), samples
    )
    assert got == expected
    assert got[2] is None


def _alternating_runs():
    """The words, generator products and middles of alternating at bound 3."""
    analysis = analyze_family(ALTERNATING, 3)
    return {
        "words": analysis.words,
        "products": generator_products(analysis.generators),
        "middles": [d.middle for d in analysis.decompositions],
    }


def _faulty_outcomes(monkeypatch, faults, samples):
    """Outcomes of both verifiers on alternating at bound 3 with
    ``faults[(word, sample, mode)]`` ending that run."""
    _, ctx = alternating_ctx(targets=seeded_targets(0, 3))
    steps = {_last_step(word, samples[k], mode, ctx): f for (word, k, mode), f in faults.items()}
    _fault_steps(monkeypatch, steps)
    return [
        _outcome(verify, ALTERNATING, 3, seeded_targets(0, 3), samples)
        for verify in (verify_witness, verify_witness_reference)
    ]


@pytest.mark.parametrize(
    "check, index, mode, source",
    [
        ("target", 2, TARGETED, "words"),
        ("append", None, BASE, "products"),
        ("agreement", None, TARGETED, "products"),
        ("stacking", 2, BASE, "middles"),
        ("firing_step", 2, TARGETED, "middles"),
    ],
)
def test_an_injected_failure_gives_the_reference_report(monkeypatch, check, index, mode, source):
    # The run of the second word of its kind on the fourth sample ends in a
    # state no check expects; both loops must stop at the same check with
    # the same partial counts.
    inputs = _alternating_runs()[source]
    samples = sample_states(6, 8)
    got, expected = _faulty_outcomes(monkeypatch, {(inputs[1], 3, mode): MARKER}, samples)
    assert got == expected
    failure = got[2]
    assert (failure["check"], failure["index"]) == (check, index)
    assert failure["state"] == state_to_json(samples[3])
    assert state_to_json(MARKER) in (failure["got"], failure["expected"])


@pytest.mark.parametrize(
    "raise_on, fail_on, check",
    [
        # firing_step raises on the first sample and append fails on the
        # last: checked row by row, append comes first, so it is the report.
        ((0, "middles", TARGETED), (5, "products", BASE), "append"),
        # target fails on the second sample, firing_step raises on the last.
        ((5, "middles", TARGETED), (1, "words", TARGETED), "target"),
    ],
    ids=["earlier-check-on-a-later-sample", "earlier-check-on-an-earlier-sample"],
)
def test_the_earliest_check_outranks_a_later_check_raising(monkeypatch, raise_on, fail_on, check):
    inputs = _alternating_runs()
    (k, source, mode), (bad, bad_source, bad_mode) = raise_on, fail_on
    faults = {
        (inputs[source][0], k, mode): AmbiguousCollapse("injected"),
        (inputs[bad_source][1], bad, bad_mode): MARKER,
    }
    samples = sample_states(6, 8)
    got, expected = _faulty_outcomes(monkeypatch, faults, samples)
    assert got == expected
    assert got[2]["check"] == check
    assert got[2]["state"] == state_to_json(samples[bad])


@pytest.mark.parametrize(
    "prefix, mode",
    # Shared by the three words and by the three middles; sorted, each
    # group runs in the reverse of its row order, and the word after the
    # first leaves it with a b, so it must not resume below the a that
    # raised.
    [("abaa", TARGETED), ("aaba", BASE)],
)
def test_an_exception_at_a_shared_prefix_gives_the_reference_outcome(monkeypatch, prefix, mode):
    # The step ending ``prefix`` on the third sample raises.  The first run
    # through it records the exception, the runs sorted after it that share
    # the prefix inherit it, and the earliest row reading one raises it.
    faults = {(prefix, 2, mode): AmbiguousCollapse("injected")}
    got, expected = _faulty_outcomes(monkeypatch, faults, sample_states(6, 8))
    assert got == expected == ("raised", "injected")


def _trie_size(words):
    return len({w[:k] for w in words for k in range(1, len(w) + 1)})


@pytest.mark.parametrize(
    "family, bound, samples, letters",
    [
        # Targeted mode steps the 52 distinct prefixes of 3 words, 12
        # products and 3 middles, base mode the 35 of the products and
        # middles: 20 * (52 + 35) letters.
        (ALTERNATING, 3, 20, 1740),
        # No generators, and every middle is its whole word: 10 * (57 + 57).
        (SIERPINSKI, 4, 10, 1140),
    ],
    ids=["alternating", "sierpinski"],
)
def test_no_run_is_evaluated_twice(monkeypatch, family, bound, samples, letters):
    stepped = Counter()
    real = witness.step

    def counted(state, node, letter, mode, ctx):
        stepped[mode] += 1
        return real(state, node, letter, mode, ctx)

    monkeypatch.setattr(witness, "step", counted)
    report = verify_witness(family, bound, seeded_targets(1, bound), sample_states(samples, 1))
    assert report.passed
    analysis = analyze_family(family, bound)
    shared = generator_products(analysis.generators)
    shared += [d.middle for d in analysis.decompositions]
    assert stepped == {
        TARGETED: samples * _trie_size(list(analysis.words) + shared),
        BASE: samples * _trie_size(shared),
    }
    assert sum(stepped.values()) == letters


def test_memory_stays_flat_in_the_sample_count():
    # CPython keeps up to 2,000 freed tuples of each small size allocated
    # for reuse, so tracemalloc would count their high-water mark, which
    # creeps up with the sample count.  Filling those free lists first (with
    # the collector off, since a full collection empties them) leaves the
    # states the call keeps alive, which a per-sample run table would grow.
    samples = sample_states(40, 4)

    def peak(count):
        spare = [tuple(range(k)) for k in range(1, 20) for _ in range(2000)]
        del spare
        tracemalloc.start()
        try:
            verify_witness(ALTERNATING, 3, seeded_targets(4, 3), samples[:count])
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    collecting = gc.isenabled()
    gc.disable()
    try:
        small, large = peak(10), peak(40)
    finally:
        if collecting:
            gc.enable()
    assert large <= 1.25 * small


APPEND_PRODUCTS = [
    (name, v)
    for name, family in (("alternating", ALTERNATING), ("two-powers", TWO_POWERS))
    for v in generator_products(analyze_family(family, 3).generators)
]


@settings(max_examples=80)
@given(st.sampled_from(APPEND_PRODUCTS), st.integers(1, 40), st.integers(0, 10**6), signed_st)
def test_append_is_injective_on_distinct_states(named, count, seed, tail):
    # Why verify_witness needs no injectivity check once append passes.
    name, v = named
    t = reduce_word(tail)
    merged = gw_mul(t, gw_inv(v))
    drawn = {StackState(t), StackState(t, (merged,)), StackState(Y0, (merged,)), StackState(Y0, (t,))}
    states = set(sample_states(count, seed)) | drawn
    images = {witness._collapse(s.tail, s.entries, 0, v) for s in states}
    stripped = StackState(t, (merged,))
    assert witness._collapse(stripped.tail, stripped.entries, 0, v) == StackState(t)
    event(f"products of {name}")
    event(f"{sum(not image.entries for image in images)} image(s) stripped to the tail")
    assert len(images) == len(states)


# After the member prefix ab, folding ab into the cell A leaves the cells
# a (tail), a (tail), ba, b, b: they spell the middle aababb with a signed
# word above it, so word 1 fires its target two letters early.  The
# reference machine gives the same image, so the fast path is not at fault.
COUNTEREXAMPLE = StackState("a", ("ba", "b", "A"))


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="open: the machine fires early on this state")
def test_alternating_realizes_its_targets_on_the_counterexample_state():
    for seed in range(4):
        report = verify_witness(ALTERNATING, 3, seeded_targets(seed, 3), [COUNTEREXAMPLE])
        assert report.failure is None, report.failure
