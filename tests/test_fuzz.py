"""Fuzz tests of the input boundary.

``cli.main`` runs in process on generated argv for all seven subcommands:
builtin families and family files with random segments, deeply nested
JSON, bounds, sample counts and seeds inside and outside their ranges,
solve equations, blocks ground sets and perms, and the option value
``--``.  Every argv is valid for argparse and written as ``--opt=value``,
so values starting with ``-`` still parse.  Each run must return 0, 1 or
2, print ``error:`` first on stderr exactly when it returns 2, and raise
nothing.  Each case is labelled with ``event()`` by its command and exit
code, and a rejected case by the exception type behind its ``error:``
line; the draws are weighted so that every exit code is common.  The
labels run inside a plain test, so ``--hypothesis-show-statistics`` does
not list them; with ``HYPOTHESIS_EXPERIMENTAL_OBSERVABILITY=1`` they are the
``features`` of each case in ``.hypothesis/observed/``.

Each case stays small: bounds inside the range are at most 5, sample
counts at most 5, and solve ground sets at most 3 points, because an
unsatisfiable system over 4 points makes the solver try all 4^8 = 65,536
assignments.
"""

import hashlib
import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import event, given, settings
from hypothesis import strategies as st

from uniseq import cli
from uniseq.errors import ParseError
from uniseq.families import BUILTIN_FAMILIES, MAX_BOUND, SequenceFamily, family_from_json
from uniseq.witness import MAX_SAMPLES

FAMILY_COMMANDS = ("closure", "check-thm", "check-cor", "decompose", "witness")
COMMANDS = FAMILY_COMMANDS + ("solve", "blocks")


def weighted(*choices):
    """One of the strategies in ``choices``, (weight, strategy) pairs.
    ``st.one_of`` would merge repeated strategies, so this samples them."""
    pool = [strategy for weight, strategy in choices for _ in range(weight)]
    return st.sampled_from(pool).flatmap(lambda strategy: strategy)


def rarely(weight=9):
    """True about once in ``weight`` + 1 draws."""
    return st.sampled_from([False] * weight + [True])


junk = st.sampled_from([None, True, 1.5, -1, "", "x", [], {}])
good_segments = st.one_of(
    st.fixed_dictionaries({"lit": st.text("ab", min_size=1, max_size=4)}),
    st.fixed_dictionaries({"pow": st.fixed_dictionaries({
        "base": st.text("ab", min_size=1, max_size=3),
        "c": st.integers(0, 2),
        "d": st.integers(0, 2),
    })}),
)
# 10**7 is a valid exponent that puts any family over the letter cap.
odd_exponents = st.one_of(
    st.integers(0, 2), st.booleans(), st.floats(0, 2), st.integers(-3, -1), st.just(10**7), junk
)
odd_segments = st.one_of(
    st.fixed_dictionaries({"lit": st.one_of(st.text("abc", min_size=1, max_size=3), junk)}),
    st.fixed_dictionaries({"pow": st.fixed_dictionaries(
        {"base": st.one_of(
            st.text("ab", min_size=1, max_size=3), st.text("abc", max_size=2), junk
        )},
        optional={"c": odd_exponents, "d": odd_exponents},
    )}),
    st.fixed_dictionaries({"pow": junk}),
    st.dictionaries(st.sampled_from(["lit", "pow", "other"]), junk, max_size=2),
    junk,
)
families = st.fixed_dictionaries(
    {
        "alphabet": st.just("ab"),
        "templates": st.lists(
            st.lists(good_segments, min_size=1, max_size=3), min_size=1, max_size=3
        ),
    },
    optional={"explicit": st.booleans()},
)
odd_documents = st.fixed_dictionaries(
    {"templates": st.one_of(
        st.lists(st.lists(st.one_of(good_segments, odd_segments), max_size=3), max_size=3),
        junk,
    )},
    optional={
        "alphabet": st.sampled_from(["ab", "ba", "abc", None]),
        "explicit": st.one_of(st.booleans(), junk),
    },
)


def _nested(depth, closed):
    return "[" * depth + ("]" * depth if closed else "")


nested_texts = st.builds(_nested, st.sampled_from([3, 1000, 100_000]), st.booleans())
# A family file's content: its text, or bytes that are not UTF-8.
family_files = weighted(
    (4, families.map(json.dumps)),
    (2, odd_documents.map(json.dumps)),
    (1, nested_texts),
    (1, families.map(json.dumps).map(lambda text: text[: len(text) // 2])),
    (1, st.just(b'{"alphabet": "\xff"}')),
)
bounds = weighted(
    (6, st.integers(2, 5)),
    (1, st.sampled_from([-(10**9), -1, 0, 1, MAX_BOUND + 1, 10**12])),
)
sample_counts = weighted(
    (6, st.integers(1, 5)), (1, st.sampled_from([-3, 0, MAX_SAMPLES + 1]))
)
odd_perms = st.one_of(
    st.lists(st.lists(st.one_of(st.integers(-1, 6), junk), max_size=3), max_size=3).map(
        json.dumps
    ),
    st.text("[],0123", max_size=8),
    st.builds(_nested, st.sampled_from([3, 1000]), st.booleans()),
)

FILE = object()


def _join(values):
    return ",".join(map(str, values))


@st.composite
def cases(draw):
    """(argv, family file content or None); a family file's place in argv
    holds ``FILE`` until the test has written it."""
    command = draw(st.sampled_from(COMMANDS))
    positional = []
    options = []
    content = None
    if command in FAMILY_COMMANDS:
        source = draw(st.sampled_from(["builtin", "builtin", "file", "file", "file", "missing"]))
        if source == "builtin":
            positional.append(draw(st.sampled_from(sorted(BUILTIN_FAMILIES))))
        elif source == "file":
            positional.append(FILE)
            content = draw(family_files)
        else:
            positional.append("no-such-family")
        options.append(("--bound", draw(bounds)))
        if command == "witness":
            options.append(("--samples", draw(sample_counts)))
            if draw(st.booleans()):
                options.append(("--seed", draw(st.integers())))
    elif command == "solve":
        size = draw(st.integers(1, 3))
        equations = draw(st.lists(
            st.tuples(
                st.text("ab", min_size=1, max_size=4),
                st.lists(st.integers(0, size - 1), min_size=size, max_size=size).map(_join),
            ),
            min_size=1,
            max_size=3,
        ))
        words = [w for w, _ in equations]
        targets = [t for _, t in equations]
        if draw(rarely(5)):
            words[0] = draw(st.text("abc", max_size=3))
        if draw(rarely(5)):
            # At most five characters list at most three points.
            targets[-1] = draw(st.text("0123,-", max_size=5))
        if draw(rarely(5)):
            targets.pop()
        options += [("--word", w) for w in words] + [("--target", t) for t in targets]
        if draw(rarely(2)):
            options.append(("--max-set-size", draw(st.integers(-1, 7))))
    else:
        ground = draw(st.lists(st.integers(0, 6), min_size=1, max_size=7, unique=True))
        text = draw(weighted(
            (6, st.just(_join(ground))),
            (1, st.lists(st.integers(0, 6), min_size=1, max_size=4).map(_join)),
            (1, st.text("0123,-x", max_size=6)),
        ))
        options.append(("--ground", text))
        for _ in range(draw(st.integers(0, 2))):
            sources = draw(st.permutations(ground))
            images = draw(st.permutations(ground))
            k = draw(st.integers(0, len(ground)))
            perm = json.dumps([list(pair) for pair in zip(sources[:k], images[:k])])
            options.append(("--perm", draw(weighted((4, st.just(perm)), (1, odd_perms)))))
    if draw(st.booleans()):
        options.append(("--format", draw(st.sampled_from(["text", "json"]))))
    if draw(rarely()):
        k = draw(st.integers(0, len(options) - 1))
        options[k] = (options[k][0], "--")
    options = draw(st.permutations(options))
    return [command, *positional, *(f"{opt}={value}" for opt, value in options)], content


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_cli_input_gets_a_verdict_or_a_usage_error(tmp_path, monkeypatch):
    raised = []

    def recording(func):
        def run(args):
            try:
                return func(args)
            except Exception as exc:
                raised.append(type(exc).__name__)
                raise

        return run

    for name in ("cmd_closure", "cmd_check_thm", "cmd_check_cor", "cmd_decompose",
                 "cmd_witness", "cmd_solve", "cmd_blocks"):
        monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
    codes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(cases())
    def run_case(case):
        argv, content = case
        if content is not None:
            data = content if isinstance(content, bytes) else content.encode()
            path = tmp_path / (hashlib.sha256(data).hexdigest()[:16] + ".json")
            path.write_bytes(data)
            argv = [str(path) if a is FILE else a for a in argv]
        raised.clear()
        code, out, err = _run(argv)
        assert code in (0, 1, 2)
        assert err.startswith("error: ") == (code == 2), (code, err)
        assert (out == "") == (code == 2), (code, out)
        if code == 2:
            # main's own checks run before any command; their message names them.
            event(f"{argv[0]} exit 2: {raised[0] if raised else err.strip()}")
        else:
            event(f"{argv[0]} exit {code}")
        codes[code] += 1

    run_case()
    assert set(codes) == {0, 1, 2}, codes


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=12,
)


@settings(max_examples=150, deadline=None)
@given(st.one_of(json_values, families, odd_documents))
def test_family_from_json_returns_a_family_or_raises_parse_error(data):
    try:
        family = family_from_json(data)
    except ParseError as exc:
        event(f"ParseError: {type(exc).__name__}")
        return
    event("family")
    assert isinstance(family, SequenceFamily)
