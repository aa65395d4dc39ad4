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

The family is assumed to be in the orientation where every word starts
with a and ends with b.  Mirrored families can be handled by substituting
a and b for each other first.

Trust boundary: the public ``StackState(...)`` constructor validates every
cell (reduced signed word or atom, signed-word innermost cell) and is what
samples, seeded targets and user code go through.  The machine's own
transitions (push, fold, fire, append) build their states through
``_trusted``, which only canonicalizes: they start from valid states and
produce cells that are valid by construction (a plain letter, or the
product of reduced words), so re-checking every stored cell on each letter
would cost O(depth) per letter for nothing.  ``WitnessContext`` checks
nothing either: its one caller builds it from an analysis that holds.
"""

import hashlib
import random
from dataclasses import dataclass

from .conditions import analyze_family
from .errors import (
    AlphabetError,
    AmbiguousCollapse,
    CapExceeded,
    EmptyInput,
    HypothesisNotVerified,
    VerificationFailure,
)
from .families import MAX_BOUND
from .words import check_word, word_key

BASE = "base"
TARGETED = "targeted"

_INVERSE = {"a": "A", "b": "B", "A": "a", "B": "b"}


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
        if ch not in _INVERSE:
            raise AlphabetError(f"letter {ch!r} is not a signed letter")
        if out and out[-1] == _INVERSE[ch]:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def gw_mul(u, v):
    """Product of two reduced signed words; cancellation happens only at
    the junction, so the result is reduced."""
    i = len(u)
    j = 0
    while i > 0 and j < len(v) and _INVERSE[u[i - 1]] == v[j]:
        i -= 1
        j += 1
    return u[:i] + v[j:]


def gw_inv(u):
    """Inverse of a reduced signed word."""
    return "".join(_INVERSE[ch] for ch in reversed(u))


def is_positive(u):
    """Is ``u`` a nonempty word using only plain (uninverted) letters?"""
    return bool(u) and u.islower()


@dataclass(frozen=True)
class Atom:
    """Opaque cell value distinct from every signed word."""

    name: str

    def __post_init__(self):
        if not self.name or all(ch in "abAB" for ch in self.name):
            raise ValueError("atom names must be distinguishable from signed words")


Cell = str | Atom


def _check_cell(cell):
    if isinstance(cell, Atom):
        return cell
    if isinstance(cell, str):
        if reduce_word(cell) != cell:
            raise ValueError(f"cell word {cell!r} is not reduced")
        return cell
    raise TypeError(f"cells are signed words or atoms, got {type(cell).__name__}")


@dataclass(frozen=True)
class StackState:
    """Eventually constant cell sequence: ``entries`` runs deepest first,
    ``entries[-1]`` is the innermost cell, and everything above
    ``entries[0]`` repeats ``tail`` forever.  Construction canonicalizes
    (the topmost stored entry never equals the tail), so structural
    equality coincides with equality of the encoded sequences."""

    tail: Cell
    entries: tuple[Cell, ...] = ()

    def __post_init__(self):
        tail = _check_cell(self.tail)
        entries = tuple(_check_cell(e) for e in self.entries)
        while entries and entries[0] == tail:
            entries = entries[1:]
        innermost = entries[-1] if entries else tail
        if not isinstance(innermost, str):
            raise ValueError("the innermost cell must be a signed word")
        object.__setattr__(self, "entries", entries)


def _trusted(tail, entries):
    """State built by a machine transition from valid cells: canonicalize
    like ``StackState(...)`` but skip the per-cell validation."""
    while entries and entries[0] == tail:
        entries = entries[1:]
    state = object.__new__(StackState)
    object.__setattr__(state, "tail", tail)
    object.__setattr__(state, "entries", entries)
    return state


def _cell_at(state, depth):
    """Cell at the given depth, 0 being the innermost."""
    if depth < len(state.entries):
        return state.entries[-1 - depth]
    return state.tail


def cell_to_str(cell):
    return cell.name if isinstance(cell, Atom) else cell


def state_to_json(state):
    return {
        "tail": cell_to_str(state.tail),
        "entries": [cell_to_str(e) for e in state.entries],
    }


def state_key(state):
    """Canonical line encoding, the input fed to seeded target hashing."""
    return "|".join([cell_to_str(state.tail)] + [cell_to_str(e) for e in state.entries])


ATOMS = tuple(Atom(f"y{i}") for i in range(8))
CELL_WORDS = ("", "a", "b", "A", "B", "ab", "ba", "aB", "Ab")
CELLS = ATOMS + CELL_WORDS


class SeededTarget:
    """Deterministic pseudo-random total map on states.

    The output state is built from a bounded pool of cell values using a
    hash of (seed, index, canonical encoding of the input state), then
    memoized.  Evaluation is a pure function: equal inputs always produce
    equal outputs, regardless of call order or interleaving.
    """

    def __init__(self, seed, index):
        self.seed = seed
        self.index = index
        self._memo = {}

    def __call__(self, state):
        got = self._memo.get(state)
        if got is None:
            got = self._memo.setdefault(state, self._build(state))
        return got

    def _build(self, state):
        text = f"{self.seed}|{self.index}|{state_key(state)}"
        digest = hashlib.sha256(text.encode("utf-8")).digest()
        depth = digest[0] % 4
        if depth == 0:
            return StackState(CELL_WORDS[digest[1] % len(CELL_WORDS)])
        tail = CELLS[digest[1] % len(CELLS)]
        middles = tuple(CELLS[digest[2 + k] % len(CELLS)] for k in range(depth - 1))
        innermost = CELL_WORDS[digest[6] % len(CELL_WORDS)]
        return StackState(tail, middles + (innermost,))


def seeded_targets(seed, count):
    """One seeded target per family index 1..count; ``count`` is a family
    bound, so it may not exceed MAX_BOUND."""
    if count > MAX_BOUND:
        raise CapExceeded(f"bound {count} exceeds the cap {MAX_BOUND}")
    return tuple(SeededTarget(seed, n) for n in range(1, count + 1))


class WitnessContext:
    """Immutable data the machine folds over: the irredundant generators
    of the family's submonoid, the per-index decompositions, and one
    target map per index.  It trusts its one caller, ``verify_witness``:
    ``analyze_family`` numbers the decompositions 1..N, ``decompose`` gives
    each a nonempty middle over {a, b}, exactly ``bound`` targets are sliced,
    and equal middles fail ``middle-unique`` before any context is built."""

    def __init__(self, generators, decompositions, targets):
        self.generators = tuple(generators)
        self.targets = tuple(targets)
        self._gen_keys = frozenset(self.generators)
        self._gen_tails = _suffix_closure(self.generators)
        self._middle_map = {d.middle: d for d in decompositions}
        self._middle_tails = _suffix_closure(self._middle_map)


def _suffix_closure(keys):
    out = set()
    for key in keys:
        for i in range(len(key)):
            out.add(key[i:])
    return frozenset(out)


def _push(state, letter):
    return _trusted(state.tail, state.entries + (letter,))


def _scan_matches(state, keys, tails):
    """All (depth, word) pairs where the innermost cells up to ``depth``
    are positive, concatenate to a word in ``keys``, and the cell at
    ``depth`` holds a signed word.  The scan walks outward and stops as
    soon as the accumulated run is no longer a suffix of any key."""
    matches = []
    run = ""
    depth = 0
    while True:
        cell = _cell_at(state, depth)
        if not isinstance(cell, str) or not is_positive(cell):
            break
        run = cell + run
        if run not in tails:
            break
        if run in keys and isinstance(_cell_at(state, depth + 1), str):
            matches.append((depth + 1, run))
        depth += 1
    return matches


def _collapse(state, depth, word):
    """Drop the cells below ``depth`` and multiply ``word`` into the
    signed-word cell there."""
    merged = gw_mul(_cell_at(state, depth), word)
    stored = len(state.entries)
    kept = state.entries[: stored - 1 - depth] if depth < stored else ()
    return _trusted(state.tail, kept + (merged,))


def _append_innermost(state, word):
    """Multiply ``word`` into the innermost cell."""
    if not word:
        return state
    if state.entries:
        return _trusted(state.tail, state.entries[:-1] + (gw_mul(state.entries[-1], word),))
    return _trusted(state.tail, (gw_mul(state.tail, word),))


def collapse_generator(state, ctx):
    """Fold the deepest positive run matching a generator, if any."""
    matches = _scan_matches(state, ctx._gen_keys, ctx._gen_tails)
    if not matches:
        return state
    if len(matches) > 1:
        raise AmbiguousCollapse(f"overlapping generator folds: {matches}")
    depth, word = matches[0]
    return _collapse(state, depth, word)


def fire_target(state, ctx):
    """Fire the target attached to a positive run matching a family
    middle: unwind the member prefix, apply the target map, pre-cancel
    the member suffix."""
    matches = _scan_matches(state, ctx._middle_map, ctx._middle_tails)
    if not matches:
        return state
    if len(matches) > 1:
        raise AmbiguousCollapse(f"overlapping middle matches: {matches}")
    depth, word = matches[0]
    dec = ctx._middle_map[word]
    unwound = _collapse(state, depth, gw_inv(dec.prefix))
    mapped = ctx.targets[dec.index - 1](unwound)
    return _append_innermost(mapped, gw_inv(dec.suffix))


def step(state, letter, mode, ctx):
    """Apply one input letter.  Letter a pushes; letter b pushes, folds
    generators, and in targeted mode also tries to fire a target."""
    if letter == "a":
        return _push(state, "a")
    if letter == "b":
        folded = collapse_generator(_push(state, "b"), ctx)
        return fire_target(folded, ctx) if mode == TARGETED else folded
    raise AlphabetError(f"letter {letter!r} is not in the alphabet {{a, b}}")


def eval_hom(word, state, mode, ctx):
    """Image of ``state`` under the map assigned to ``word``; folding is
    left to right, matching the right-action convention."""
    check_word(word)
    if not word:
        raise EmptyInput("eval_hom needs a nonempty word")
    if mode not in (BASE, TARGETED):
        raise ValueError(f"unknown mode {mode!r}")
    for ch in word:
        state = step(state, ch, mode, ctx)
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
        for w in sorted(frontier, key=word_key):
            for g in sorted(generators, key=word_key):
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


@dataclass
class WitnessReport:
    bound: int
    sample_count: int
    checks: dict
    failure: dict | None = None
    not_applicable: tuple[str, ...] = ()

    @property
    def passed(self):
        return self.failure is None


def verify_witness(family, bound, targets, samples):
    """Exercise the machine on sampled states and check, exactly:

    * target equality: in targeted mode every family word acts as its
      target map on every sample;
    * append: in base mode every product of generators appends itself to
      the innermost cell, hence acts injectively on the sample;
    * agreement: base and targeted modes agree on generator products;
      with no generators these two do not apply and the report's
      ``not_applicable`` names them;
    * stacking: in base mode each middle piles up positive cells that
      concatenate back to it, leaving the state below untouched;
    * firing step: evaluating a middle in targeted mode equals the base
      evaluation followed by one firing pass.

    Checks share their runs: each (word, sample, mode) goes through
    ``eval_hom`` once per call, where a check first needs it, so targets
    must be deterministic, and up to (3N + 2P) * S states stay alive until
    the call returns (N words, P generator products, S samples).

    Raises ValueError when a sample repeats, HypothesisNotVerified when the
    family fails its condition check, and VerificationFailure (carrying the
    partial report) on the first mismatch.
    """
    if len(set(samples)) != len(samples):
        raise ValueError("the sampled states must be distinct")
    analysis = analyze_family(family, bound)
    if not analysis.verdict.holds or analysis.decompositions is None:
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
    ctx = WitnessContext(
        analysis.closure.generators, analysis.decompositions, tuple(targets)[:bound]
    )
    products = generator_products(ctx.generators)
    report = WitnessReport(
        bound, len(samples), {name: 0 for name in _CHECK_NAMES},
        not_applicable=() if products else ("append", "agreement"),
    )

    runs = {}

    def run(word, x, mode):
        key = (word, x, mode)
        got = runs.get(key)
        if got is None:
            got = runs[key] = eval_hom(word, x, mode, ctx)
        return got

    def check(name, index, x, got, expected, ok=None):
        if not (got == expected if ok is None else ok):
            report.failure = {
                "check": name,
                "index": index,
                "state": state_to_json(x),
                "got": state_to_json(got),
                "expected": state_to_json(expected),
            }
            raise VerificationFailure(
                f"{name} check failed at index {index} on {state_key(x)!r}", report
            )
        report.checks[name] += 1

    for n, (w, target) in enumerate(zip(analysis.words, ctx.targets), 1):
        for x in samples:
            check("target", n, x, run(w, x, TARGETED), target(x))

    for v in products:
        outputs = set()
        for x in samples:
            got = run(v, x, BASE)
            check("append", None, x, got, _append_innermost(x, v))
            outputs.add(got)
        if len(outputs) != len(samples):
            report.failure = {"check": "append-injective", "index": None, "product": v}
            raise VerificationFailure(
                f"append map for {v!r} is not injective on the sample", report
            )

    for v in products:
        for x in samples:
            check("agreement", None, x, run(v, x, TARGETED), run(v, x, BASE))

    for dec in analysis.decompositions:
        for length in range(1, len(dec.middle) + 1):
            prefix = dec.middle[:length]
            if any(g.endswith(prefix) for g in ctx.generators):
                report.failure = {
                    "check": "stacking-hypothesis",
                    "index": dec.index,
                    "prefix": prefix,
                }
                raise VerificationFailure(
                    f"middle {dec.middle!r} shares a prefix with a generator suffix",
                    report,
                )
        for x in samples:
            got = run(dec.middle, x, BASE)
            check("stacking", dec.index, x, got, x, ok=_extends_with(got, x, dec.middle))

    for dec in analysis.decompositions:
        for x in samples:
            lhs = run(dec.middle, x, TARGETED)
            rhs = fire_target(run(dec.middle, x, BASE), ctx)
            check("firing_step", dec.index, x, lhs, rhs)

    return report
