"""Independent oracles used to cross-check the package implementations.

Everything here deliberately uses a different algorithm than the code
under test: breadth-first product enumeration instead of word-break
dynamic programming, union-find instead of graph search, unpruned
exhaustion instead of the pruned solver, pairwise substring sets and
prefix-length scans instead of the Aho-Corasick string kernels, a triple
loop over member starts, member ends and lengths instead of the occurrence
search for repeated factors, a closure that rebuilds its generators from
the whole pool every round and tests each candidate with ``member``, and a
witness machine whose every transition goes through the validating
``StackState(...)`` constructor instead of the machine's trusted one.  The
reference witness verification runs the machine afresh for every check,
as ``verify_witness`` did before its checks shared one table of runs.

It also holds two test fixtures: ``explicit_family``, a family listing
given words verbatim, and ``TableTarget``, a target map given by a table.
"""

from itertools import product

from uniseq.conditions import Verdict, Violation, analyze_family
from uniseq.equations import evaluate
from uniseq import witness
from uniseq.errors import AmbiguousCollapse, HypothesisNotVerified, VerificationFailure
from uniseq.families import Literal, SequenceFamily, instantiate_many
from uniseq.submonoid import (
    ClosureResult,
    Round,
    irredundant_generators,
    member,
    prefix_members,
    suffix_members,
)
from uniseq.words import word_key
from uniseq.witness import (
    BASE,
    TARGETED,
    StackState,
    WitnessContext,
    WitnessReport,
    _cell_at,
    _scan_matches,
    gw_inv,
    gw_mul,
    state_key,
    state_to_json,
)


def explicit_family(words):
    """Explicit finite family listing the given words verbatim."""
    return SequenceFamily(tuple((Literal(w),) for w in words), explicit=True)


class TableTarget:
    """Target map given by a finite table; identity off the table."""

    def __init__(self, table=None):
        self.table = dict(table or {})

    def __call__(self, state):
        return self.table.get(state, state)


def submonoid_members(generators, max_len):
    """All products of the generators up to the given length, by BFS."""
    members = {""}
    frontier = [""]
    while frontier:
        next_frontier = []
        for w in frontier:
            for g in generators:
                p = w + g
                if len(p) <= max_len and p not in members:
                    members.add(p)
                    next_frontier.append(p)
        frontier = next_frontier
    return members


def decompose_oracle(w, generators):
    """Longest member prefix and suffix by exhaustive scan over every
    (prefix, suffix) pair against the BFS member set."""
    members = submonoid_members(generators, len(w))
    prefix_end = max(i for i in range(len(w) + 1) if w[:i] in members)
    suffix_start = min(i for i in range(len(w) + 1) if w[i:] in members)
    return prefix_end, suffix_start


def repeated_factors_reference(gens, words):
    """``submonoid.repeated_factors`` by comparing, for every member start
    i, every member end l and every length m with 2m <= l - i, the piece
    at i with the piece ending at l."""
    out = {""}
    for w in words:
        pre = prefix_members(gens, w)
        suf = suffix_members(gens, w)
        starts = [i for i, ok in enumerate(pre) if ok]
        ends = [l for l, ok in enumerate(suf) if ok]
        for i in starts:
            for l in ends:
                for m in range(1, (l - i) // 2 + 1):
                    if w[i:i + m] == w[l - m:l]:
                        out.add(w[i:i + m])
    return out


def cross_factors_reference(gens, words):
    """``submonoid.cross_factors`` by intersecting, for every ordered pair
    of distinct indices, the set of pieces after a member prefix of one
    word with the set of pieces before a member suffix of the other."""
    out = {""}
    after_prefix = []
    before_suffix = []
    for w in words:
        pre = prefix_members(gens, w)
        suf = suffix_members(gens, w)
        starts = [p for p, m in enumerate(pre) if m]
        ends = [u for u, m in enumerate(suf) if m]
        after_prefix.append({w[p:q] for p in starts for q in range(p, len(w) + 1)})
        before_suffix.append({w[r:u] for u in ends for r in range(u + 1)})
    for i in range(len(words)):
        for j in range(len(words)):
            if i != j:
                out |= after_prefix[i] & before_suffix[j]
    return out


def check_corollary_reference(family, bound):
    """``conditions.check_corollary`` by trying every prefix length of
    every ordered pair of words."""
    if bound < 2:
        raise ValueError("family checks need a bound of at least 2")
    words = instantiate_many(family, bound)
    violations = []
    for n, wn in enumerate(words, 1):
        for m, wm in enumerate(words, 1):
            for length in range(1, len(wn)):
                prefix = wn[:length]
                if wm.endswith(prefix):
                    violations.append(
                        Violation("prefix-suffix-overlap", (n, m), (prefix,))
                    )
                    break
            if n != m and wn in wm:
                violations.append(Violation("subword", (n, m), (wn,)))
    return Verdict(not violations, bound, tuple(violations))


def satisfies_conditions(gens, words):
    """Fixed-point test of a closure, through the reference kernels: every
    repeated and cross factor over ``words`` is a product of ``gens``."""
    found = repeated_factors_reference(gens, words) | cross_factors_reference(gens, words)
    return all(member(gens, v) for v in found)


def closure_reference(words):
    """``submonoid.closure`` with the reference repeated and cross factors,
    testing every candidate with ``member`` and rebuilding the irredundant
    generators from the whole pool every round."""
    guard = sum(len(w) * (len(w) + 1) // 2 for w in words) + 2
    pool = set()
    gens = ()
    rounds = []
    for _ in range(guard):
        rep = repeated_factors_reference(gens, words)
        cro = cross_factors_reference(gens, words)
        rounds.append(
            Round(tuple(sorted(rep, key=word_key)), tuple(sorted(cro, key=word_key)))
        )
        pool |= rep | cro
        if all(member(gens, v) for v in rep | cro):
            break
        gens = irredundant_generators(pool)
    else:
        raise AssertionError("closure did not stabilize inside the subword pool")
    return ClosureResult(gens, tuple(rounds), tuple(sorted(pool, key=word_key)), len(rounds))


class UnionFind:
    def __init__(self, points):
        self.parent = {p: p for p in points}

    def find(self, p):
        root = p
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[p] != root:
            self.parent[p], p = root, self.parent[p]
        return root

    def union(self, p, q):
        self.parent[self.find(p)] = self.find(q)


def blocks_oracle(perms, ground):
    """Orbit partition via union-find over the generator arcs."""
    uf = UnionFind(ground)
    for g in perms:
        for x, y in g.pairs:
            uf.union(x, y)
    groups = {}
    for p in ground:
        groups.setdefault(uf.find(p), set()).add(p)
    return {frozenset(b) for b in groups.values()}


def brute_solve(words, targets, size):
    """Unpruned exhaustive search, first hit in lexicographic order."""
    for f in product(range(size), repeat=size):
        for g in product(range(size), repeat=size):
            assignment = {"a": f, "b": g}
            if all(evaluate(w, assignment) == t for w, t in zip(words, targets)):
                return assignment
    return None


def _collapse_reference(state, depth, word):
    merged = gw_mul(_cell_at(state, depth), word)
    stored = len(state.entries)
    kept = state.entries[: stored - 1 - depth] if depth < stored else ()
    return StackState(state.tail, kept + (merged,))


def _append_reference(state, word):
    if not word:
        return state
    if state.entries:
        return StackState(
            state.tail, state.entries[:-1] + (gw_mul(state.entries[-1], word),)
        )
    return StackState(state.tail, (gw_mul(state.tail, word),))


def _unique_match(state, keys, tails):
    matches = _scan_matches(state, keys, tails)
    if len(matches) > 1:
        raise AmbiguousCollapse(f"overlapping matches: {matches}")
    return matches[0] if matches else None


def eval_hom_reference(word, state, mode, ctx):
    """``witness.eval_hom`` with every state re-validated: each push, fold,
    firing and append builds its result through ``StackState(...)``."""
    for ch in word:
        state = StackState(state.tail, state.entries + (ch,))
        if ch != "b":
            continue
        match = _unique_match(state, ctx._gen_keys, ctx._gen_tails)
        if match:
            state = _collapse_reference(state, *match)
        if mode != TARGETED:
            continue
        match = _unique_match(state, ctx._middle_map, ctx._middle_tails)
        if match:
            depth, middle = match
            dec = ctx._middle_map[middle]
            unwound = _collapse_reference(state, depth, gw_inv(dec.prefix))
            mapped = ctx.targets[dec.index - 1](unwound)
            state = _append_reference(mapped, gw_inv(dec.suffix))
    return state


def verify_witness_reference(family, bound, targets, samples):
    """``witness.verify_witness`` evaluating the machine anew for every
    check.  It reaches ``eval_hom``, ``fire_target``, ``_append_innermost``
    and ``_extends_with`` through the module, so a test that patches one of
    them changes both implementations alike."""
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
    products = witness.generator_products(ctx.generators)
    report = WitnessReport(
        bound, len(samples), {name: 0 for name in witness._CHECK_NAMES},
        not_applicable=() if products else ("append", "agreement"),
    )

    def fail(check, index, state, got, expected):
        report.failure = {
            "check": check,
            "index": index,
            "state": state_to_json(state),
            "got": state_to_json(got),
            "expected": state_to_json(expected),
        }
        raise VerificationFailure(
            f"{check} check failed at index {index} on {state_key(state)!r}", report
        )

    for n, w in enumerate(analysis.words, 1):
        target = ctx.targets[n - 1]
        for x in samples:
            got = witness.eval_hom(w, x, TARGETED, ctx)
            expected = target(x)
            if got != expected:
                fail("target", n, x, got, expected)
            report.checks["target"] += 1

    for v in products:
        outputs = set()
        for x in samples:
            got = witness.eval_hom(v, x, BASE, ctx)
            expected = witness._append_innermost(x, v)
            if got != expected:
                fail("append", None, x, got, expected)
            outputs.add(got)
            report.checks["append"] += 1
        if len(outputs) != len(samples):
            report.failure = {"check": "append-injective", "index": None, "product": v}
            raise VerificationFailure(
                f"append map for {v!r} is not injective on the sample", report
            )

    for v in products:
        for x in samples:
            base = witness.eval_hom(v, x, BASE, ctx)
            targeted = witness.eval_hom(v, x, TARGETED, ctx)
            if base != targeted:
                fail("agreement", None, x, targeted, base)
            report.checks["agreement"] += 1

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
            got = witness.eval_hom(dec.middle, x, BASE, ctx)
            if not witness._extends_with(got, x, dec.middle):
                fail("stacking", dec.index, x, got, x)
            report.checks["stacking"] += 1

    for dec in analysis.decompositions:
        for x in samples:
            lhs = witness.eval_hom(dec.middle, x, TARGETED, ctx)
            rhs = witness.fire_target(witness.eval_hom(dec.middle, x, BASE, ctx), ctx)
            if lhs != rhs:
                fail("firing_step", dec.index, x, lhs, rhs)
            report.checks["firing_step"] += 1

    return report
