"""Stack machine realizing arbitrary target maps as images of a word family.

The machine constructs, for a family meeting the checked conditions, a
single letter-to-map assignment under which the n-th family word acts as
the n-th target map.  Its states encode right-infinite, eventually
constant sequences of cells exactly: a repeating tail value plus the
finite run of cells below the tail that differ from it.  A cell holds
either a reduced signed word (a free-group element over a and b, capital
letters marking inverses) or an opaque atom; the innermost cell is always
a signed word.

Letter a pushes a fresh positive 'a' cell.  Letter b pushes 'b' and then
tries to fold the deepest run of positive cells whose concatenation is a
generator into the signed-word cell just above it.  In targeted mode the
machine additionally watches for a run matching one of the family
middles; on a match it unwinds the stored member prefix, fires the
attached target map, and pre-cancels the member suffix that the remaining
input letters will append.  Both matches are provably unique for families
meeting the conditions; ambiguity raises an error instead of guessing.
Nothing is rescanned: each state travels with its node in one
Aho-Corasick automaton over the generators and middles, so a push is one
transition and only the keys ending at the node are checked.

The family is assumed to be in the orientation where every word starts
with a and ends with b.  Mirrored families can be handled by substituting
a and b for each other first.

States and atoms are immutable tuples (``collections.namedtuple``), so
equality and hashing run in C; a state equals the plain tuple
``(tail, entries)``, and an atom never equals a word, since a tuple never
equals a string.

Trust boundary: the public ``StackState(...)`` constructor validates every
cell (reduced signed word or atom, signed-word innermost cell) and is what
samples and user code go through.  The machine's own transitions (push,
fold, fire, append) build their states through ``_trusted``, which only
canonicalizes and builds the tuple: they start from valid states and
produce cells that are valid by construction (a plain letter, or the
product of reduced words), so re-checking every stored cell on each letter
would cost O(depth) per letter for nothing.  ``WitnessContext`` checks
nothing either: its one caller builds it from an analysis that holds.
"""

import hashlib
import random
from collections import namedtuple

from .conditions import analyze_family
from .errors import (
    AlphabetError,
    AmbiguousCollapse,
    CapExceeded,
    EmptyInput,
    HypothesisNotVerified,
)
from .families import MAX_BOUND
from .words import Automaton, check_word, common_prefix_length, word_key

BASE = "base"
TARGETED = "targeted"


def reduce_word(s):
    """Reduced form of a signed word: adjacent inverse pairs cancel.

    >>> reduce_word("aA")
    ''
    >>> reduce_word("abBA")
    ''
    >>> reduce_word("abab")
    'abab'
    """
    out = []
    for ch in s:
        if ch not in "abAB":
            raise AlphabetError(f"letter {ch!r} is not a signed letter")
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def gw_mul(u, v):
    """Product of two reduced signed words; cancellation happens only at
    the junction, so the result is reduced."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and u[i - 1] == v[j].swapcase():
        i -= 1
        j += 1
    return u[:i] + v[j:]


def gw_inv(u):
    """Inverse of a reduced signed word: reversed, each letter inverted."""
    return u[::-1].swapcase()


def is_positive(u):
    """Is ``u`` a nonempty word using only plain (uninverted) letters?"""
    return bool(u) and u.islower()


class Atom(namedtuple("Atom", "name")):
    """Opaque cell value distinct from every signed word."""

    __slots__ = ()

    def __new__(cls, name):
        if not name or all(ch in "abAB" for ch in name):
            raise ValueError("atom names must be distinguishable from signed words")
        return tuple.__new__(cls, (name,))


def _check_cell(cell):
    if isinstance(cell, Atom):
        return cell
    if isinstance(cell, str):
        if reduce_word(cell) != cell:
            raise ValueError(f"cell word {cell!r} is not reduced")
        return cell
    raise TypeError(f"cells are signed words or atoms, got {type(cell).__name__}")


class StackState(namedtuple("StackState", "tail entries")):
    """Eventually constant cell sequence: ``entries`` runs deepest first,
    ``entries[-1]`` is the innermost cell, and everything above
    ``entries[0]`` repeats ``tail`` forever.  Construction canonicalizes
    (the topmost stored entry never equals the tail), so structural
    equality coincides with equality of the encoded sequences."""

    __slots__ = ()

    def __new__(cls, tail, entries=()):
        if isinstance(entries, str):
            raise TypeError("entries are a sequence of cells, not a string")
        state = _trusted(_check_cell(tail), tuple(_check_cell(e) for e in entries))
        if not isinstance(_cell_at(*state, 0), str):
            raise ValueError("the innermost cell must be a signed word")
        return state


def _trusted(tail, entries):
    """State built from valid cells: canonicalize, comparing only cells of
    one type (a word is no atom), then build the tuple.  ``StackState(...)``
    validates its cells and builds through here; machine transitions call it
    directly, skipping the validation."""
    while entries and type(entries[0]) is type(tail) and entries[0] == tail:
        entries = entries[1:]
    return tuple.__new__(StackState, (tail, entries))


def _cell_at(tail, entries, depth):
    """Cell at the given depth, 0 being the innermost."""
    if depth < len(entries):
        return entries[-1 - depth]
    return tail


def cell_to_str(cell):
    return cell.name if isinstance(cell, Atom) else cell


def state_to_json(state):
    return {
        "tail": cell_to_str(state.tail),
        "entries": [cell_to_str(e) for e in state.entries],
    }


def state_key(state):
    """Canonical line encoding, the input fed to seeded target hashing."""
    return "|".join([cell_to_str(c) for c in (state.tail, *state.entries)])


ATOMS = tuple(Atom(f"y{i}") for i in range(8))
CELL_WORDS = ("", "a", "b", "A", "B", "ab", "ba", "aB", "Ab")
CELLS = ATOMS + CELL_WORDS


class SeededTarget:
    """Deterministic pseudo-random total map on states.

    The output state is built from a bounded pool of cell values using a
    hash of (seed, index, canonical encoding of the input state).
    Evaluation is a pure function: equal inputs always produce equal
    outputs, regardless of call order or interleaving.  Outputs are built by
    ``_trusted``, unvalidated: each cell is an atom or reduced word from
    ``CELLS`` and the innermost a word from ``CELL_WORDS``, so they are valid.
    """

    def __init__(self, seed, index):
        self._prefix = f"{seed}|{index}|"

    def __call__(self, state):
        return self._build(state)

    def _build(self, state):
        digest = hashlib.sha256((self._prefix + state_key(state)).encode()).digest()
        depth = digest[0] % 4
        if depth == 0:
            return _trusted(CELL_WORDS[digest[1] % len(CELL_WORDS)], ())
        tail = CELLS[digest[1] % len(CELLS)]
        middles = tuple(CELLS[digest[2 + k] % len(CELLS)] for k in range(depth - 1))
        innermost = CELL_WORDS[digest[6] % len(CELL_WORDS)]
        return _trusted(tail, middles + (innermost,))


def seeded_targets(seed, count):
    """One seeded target per family index 1..count; ``count`` is a family
    bound, so it may not exceed MAX_BOUND."""
    if count > MAX_BOUND:
        raise CapExceeded(f"bound {count} exceeds the cap {MAX_BOUND}")
    return tuple(SeededTarget(seed, n) for n in range(1, count + 1))


class WitnessContext:
    """Immutable data the machine folds over: the family's irredundant
    generators, each middle's decomposition, one target map per index, and
    an Aho-Corasick automaton (``words.Automaton``) over the generators and
    middles; ``folds[k]`` and ``fires[k]`` list, longest first, those on
    node k's failure chain.  It trusts its one caller, ``verify_witness``,
    and keeps the tuples it is given: ``analyze_family`` numbers the
    decompositions 1..N, ``decompose`` gives each a nonempty middle over
    {a, b}, exactly ``bound`` targets are sliced, and equal middles fail
    ``middle-unique`` before any context is built."""

    def __init__(self, generators, decompositions, targets):
        self.generators = generators
        self.targets = targets
        self.middles = {d.middle: d for d in decompositions}
        automaton = Automaton([(key, 0) for key in (*self.generators, *self.middles)], {})
        self.step, self.longest = automaton.step, max(automaton.depth)
        self.folds, self.fires = [()] * len(automaton.depth), [()] * len(automaton.depth)
        ends = automaton.ends
        for chains, keyed in ((self.folds, dict(zip(ends, self.generators))),
                              (self.fires, dict(zip(ends[len(self.generators):], self.middles)))):
            for k in automaton.order:  # breadth first: fail[k] comes before k
                chains[k] = ((keyed[k],) if k in keyed else ()) + chains[automaton.fail[k]]


def _start_node(state, ctx):
    """Node of ``state``: the automaton's node after reading its innermost
    run of positive cells, outermost first.  Only the run's last
    ``ctx.longest`` letters decide it, so the read stops there; a positive
    tail repeats up to that length."""
    text = ""
    for cell in reversed(state.entries):
        if len(text) >= ctx.longest or not (isinstance(cell, str) and cell.islower()):
            break
        text = cell + text
    else:
        if isinstance(state.tail, str) and is_positive(state.tail):
            text = state.tail * ((ctx.longest - len(text)) // len(state.tail) + 1) + text
    node = 0
    for letter in text:
        node = ctx.step[letter][node]
    return node


def _match(tail, entries, keys, what):
    """The (depth, key) of the one key in ``keys`` (those ending at the
    state's node, longest first) made of the whole cells below ``depth``,
    the cell at ``depth`` being a signed word: None if there is none,
    AmbiguousCollapse if there are two.  The node was read off the positive
    cells, so they end with each key's letters: only the cell lengths are
    walked, to find where a key starts."""
    cells = reversed(entries)  # depth 0, 1, ..., then the tail forever
    above, covered, depth, matches = next(cells, tail), 0, 0, []
    for key in reversed(keys):
        while covered < len(key):
            covered, above, depth = covered + len(above), next(cells, tail), depth + 1
        if covered == len(key) and isinstance(above, str):
            matches.append((depth, key))
    if len(matches) > 1:
        raise AmbiguousCollapse(f"overlapping {what}: {matches}")
    return matches[0] if matches else None


def _collapse(tail, entries, depth, word):
    """The state of these cells less those below ``depth``, with ``word``
    multiplied into the cell there (at depth 0, the innermost cell)."""
    if depth < len(entries):
        kept = entries[: len(entries) - 1 - depth]
        return _trusted(tail, kept + (gw_mul(entries[-1 - depth], word),))
    return _trusted(tail, (gw_mul(tail, word),))


def fire_target(state, node, ctx):
    """Fire the target attached to a positive run matching a family
    middle: unwind the member prefix, apply the target map, pre-cancel
    the member suffix.  Takes and returns the state's node, as ``step``."""
    match = _match(state.tail, state.entries, ctx.fires[node], "middle matches")
    if not match:
        return state, node
    dec = ctx.middles[match[1]]
    unwound = _collapse(state.tail, state.entries, match[0], gw_inv(dec.prefix))
    fired = ctx.targets[dec.index - 1](unwound)
    if dec.suffix:
        fired = _collapse(fired.tail, fired.entries, 0, gw_inv(dec.suffix))
    return fired, _start_node(fired, ctx)


def step(state, node, letter, mode, ctx):
    """Apply one letter to ``state``, whose automaton node is ``node``;
    return the next state and its node.  Letter a pushes; letter b pushes,
    folds the deepest positive run matching a generator, if any, and in
    targeted mode fires; both only where a key ends at the node.  The
    letter is trusted: its callers step through checked words and their
    subwords, and any other letter is a KeyError of ``ctx.step``."""
    tail, entries = state.tail, state.entries + (letter,)
    node = ctx.step[letter][node]
    folds = ctx.folds[node] if letter == "b" else ()
    match = folds and _match(tail, entries, folds, "generator folds")
    if not match:
        state = _trusted(tail, entries)
    else:
        state = _collapse(tail, entries, *match)
        # Merged into a positive cell, the run keeps its letters: the node stays.
        if not _cell_at(tail, entries, match[0]).islower():
            node = _start_node(state, ctx)
    if letter == "b" and mode == TARGETED and ctx.fires[node]:
        state, node = fire_target(state, node, ctx)
    return state, node


def eval_hom(word, state, mode, ctx):
    """Image of ``state`` under the map assigned to ``word``; folding is
    left to right, matching the right-action convention."""
    check_word(word)
    if not word:
        raise EmptyInput("eval_hom needs a nonempty word")
    if mode not in (BASE, TARGETED):
        raise ValueError(f"unknown mode {mode!r}")
    node = _start_node(state, ctx)
    for ch in word:
        state, node = step(state, node, ch, mode, ctx)
    return state


# Largest sample ``sample_states`` draws: far below the 751,689 distinct
# states the pools form, so rejection sampling ends within a few
# hundred thousand draws.
MAX_SAMPLES = 100_000


def sample_states(count, seed):
    """Deterministic sample of distinct states mixing atom and signed-word
    cells at depths 0 through 4.  ``count`` must lie in 1..MAX_SAMPLES."""
    if count < 1:
        raise ValueError(f"need at least one sampled state, got {count}")
    if count > MAX_SAMPLES:
        raise CapExceeded(f"{count} sampled states exceeds the cap {MAX_SAMPLES}")
    rng = random.Random(f"states:{seed}")
    seen = set()
    out = []
    while len(out) < count:
        depth = rng.randrange(0, 5)
        if depth == 0:
            state = StackState(rng.choice(CELL_WORDS))
        else:
            tail = rng.choice(CELLS)
            middles = tuple(rng.choice(CELLS) for _ in range(depth - 1))
            state = StackState(tail, middles + (rng.choice(CELL_WORDS),))
        if state not in seen:
            seen.add(state)
            out.append(state)
    return out


def generator_products(generators):
    """Up to 40 nonempty products of the generators, at most 24 letters long, shortest first."""
    out = []
    seen = {""}
    frontier = [""]
    while frontier and len(out) < 40:
        next_frontier = []
        for w in frontier:
            for g in generators:
                p = w + g
                if len(p) <= 24 and p not in seen:
                    seen.add(p)
                    out.append(p)
                    next_frontier.append(p)
        frontier = next_frontier
    return sorted(out, key=word_key)[:40]


def _extends_with(result, start, word):
    """Does ``result`` equal ``start`` with extra positive cells pushed
    inside whose concatenation is ``word``?  When ``start`` stores no
    entries and its tail is a positive word, leading pushed cells equal to
    the tail may have been absorbed by canonicalization."""
    if result.tail != start.tail:
        return False
    stored = len(start.entries)
    if stored and result.entries[:stored] != start.entries:
        return False
    added = result.entries[stored:]
    if not all(isinstance(c, str) and is_positive(c) for c in added):
        return False
    joined = "".join(added)
    if stored == 0:
        missing = len(word) - len(joined)
        if missing:
            tail = start.tail
            if not (isinstance(tail, str) and is_positive(tail)):
                return False
            if missing % len(tail):
                return False
            return tail * (missing // len(tail)) + joined == word
    return joined == word


_CHECK_NAMES = ("target", "append", "agreement", "stacking", "firing_step")


class WitnessReport(namedtuple("WitnessReport", "checks failure not_applicable")):
    """Passes per check, the first ``failure`` (None on a pass) and the
    checks that do not apply."""

    __slots__ = ()

    @property
    def passed(self):
        return self.failure is None


def _read(run):
    """A walk's (state, node) result, raising the exception it recorded."""
    if isinstance(run[0], Exception):
        raise run[0]
    return run


def verify_witness(family, bound, targets, samples):
    """Exercise the machine on sampled states and check, exactly:

    * target equality: in targeted mode every family word acts as its
      target map on every sample;
    * append: in base mode every product of generators appends itself to
      the innermost cell, hence acts injectively on the sample (states
      encode cell sequences one to one, and right multiplication by v is a
      bijection of the free group; stripping merges (t, (t v^-1,)) into
      (t, ()), whose own image (t, (t v,)) keeps its entry);
    * agreement: base and targeted modes agree on generator products;
      with no generators these two do not apply and the report's
      ``not_applicable`` names them;
    * stacking: in base mode each middle piles up positive cells that
      concatenate back to it, leaving the state below untouched;
    * firing step: evaluating a middle in targeted mode equals the base
      evaluation followed by one firing pass.

    Sample-major walk: per sample and mode, the words run in sorted order,
    each shared prefix stepped once, each state kept with its node for the
    next word and the firing step.  A first-failure table keeps, of the rows
    (check, item) in the order above, only the earliest to fail or raise,
    with its first bad sample, and re-runs that cell on the sample for the
    report, so the report is the row-by-row one.  Targets must be
    deterministic, and ``walk`` records step exceptions, so a row that
    threw throws again there: an exception of the same type and message,
    but a new object.  A call holds O(longest word + rows) states, whatever
    the sample count.

    Returns the report, whose ``failure`` names the first mismatch if
    any.  Raises EmptyInput without samples, ValueError when a sample
    repeats, and HypothesisNotVerified when the family fails its condition
    check.
    """
    if not samples:
        raise EmptyInput("verify_witness needs at least one sampled state")
    if len(set(samples)) != len(samples):
        raise ValueError("the sampled states must be distinct")
    analysis = analyze_family(family, bound)
    if not analysis.verdict.holds:
        raise HypothesisNotVerified(
            f"family fails the side conditions at bound {bound}", analysis.verdict
        )
    if not all(w[0] == "a" and w[-1] == "b" for w in analysis.words):
        raise HypothesisNotVerified(
            "the machine needs words starting with a and ending with b; "
            "substitute the letters for each other first",
            analysis.verdict,
        )
    if len(targets) < bound:
        raise ValueError(f"need at least {bound} targets, got {len(targets)}")
    ctx = WitnessContext(analysis.generators, analysis.decompositions, tuple(targets)[:bound])
    products = generator_products(ctx.generators)
    plans = {
        mode: [(w, common_prefix_length(p, w)) for p, w in zip([""] + words, words)]
        for mode, words in ((TARGETED, sorted({*analysis.words, *products, *ctx.middles})),
                            (BASE, sorted({*products, *ctx.middles})))
    }
    rows = [("target", n, w) for n, w in enumerate(analysis.words, 1)]
    rows += [(name, None, v) for name in ("append", "agreement") for v in products]
    failure = None  # the first failing row, if any, takes its place
    for dec in analysis.decompositions:
        prefixes = (dec.middle[:k] for k in range(1, len(dec.middle) + 1))
        prefix = next((p for p in prefixes if any(g.endswith(p) for g in ctx.generators)), None)
        if prefix:
            failure = {"check": "stacking-hypothesis", "index": dec.index, "prefix": prefix}
            break
        rows.append(("stacking", dec.index, dec.middle))
    else:
        rows += [("firing_step", d.index, d.middle) for d in analysis.decompositions]

    def walk(x):
        # Each word resumes after the prefix it shares with the one before.
        # An exception a step raises is the result of its word and of the
        # next words sharing the prefix through that letter.
        runs = {}
        start = _start_node(x, ctx)
        for mode, plan in plans.items():
            results = runs[mode] = {}
            path = [(x, start)]
            for word, shared in plan:
                del path[shared + 1:]
                state, node = path[-1]
                if not isinstance(state, Exception):
                    try:
                        for ch in word[shared:]:
                            state, node = step(state, node, ch, mode, ctx)
                            path.append((state, node))
                    except Exception as exc:  # thrown by the row that reads it
                        path.append((state := exc, None))
                results[word] = path[-1]
        return runs

    def cell(row, x, runs):
        # Runs are read and targets called in the row-by-row order.
        name, index, word = row
        got = _read(runs[BASE if name in ("append", "stacking") else TARGETED][word])[0]
        if name == "stacking":
            return got, x, _extends_with(got, x, word)
        if name == "target":
            expected = ctx.targets[index - 1](x)
        elif name == "append":
            expected = _collapse(x.tail, x.entries, 0, word)
        else:
            expected, node = _read(runs[BASE][word])
            if name == "firing_step":
                expected = fire_target(expected, node, ctx)[0]
        return got, expected, got == expected

    first, bad = len(rows), None
    for i, x in enumerate(samples):
        if not first:
            break
        runs = walk(x)
        for r in range(first):
            try:
                if cell(rows[r], x, runs)[2]:
                    continue
            except Exception:  # thrown again below if its row is reported
                pass
            first, bad = r, i
            break

    checks = dict.fromkeys(_CHECK_NAMES, 0)
    for name, _, _ in rows[:first]:
        checks[name] += len(samples)
    if first < len(rows):
        name, index, _ = rows[first]
        checks[name] += bad
        x = samples[bad]
        got, expected, _ = cell(rows[first], x, walk(x))
        failure = {
            "check": name,
            "index": index,
            "state": state_to_json(x),
            "got": state_to_json(got),
            "expected": state_to_json(expected),
        }
    return WitnessReport(checks, failure, () if products else ("append", "agreement"))
