"""Independent oracles used to cross-check the package implementations.

Everything here deliberately uses a different algorithm than the code
under test: breadth-first product enumeration instead of word-break
dynamic programming, union-find instead of graph search, unpruned
exhaustion instead of the pruned solver, pairwise substring sets and
prefix-length scans instead of the Aho-Corasick string kernels, a trie
built one piece and one letter at a time instead of the sorted
shared-prefix insertion, two loops of subword tests over every pair of
words and middles instead of the middle scan over one trie, a triple
loop over member starts, member ends and lengths instead of the occurrence
search for repeated factors, a closure that rebuilds its generators from
the whole pool every round and tests each candidate with ``member``, and a
witness machine that rescans the cells outward for a generator and then
for a middle after every b, instead of carrying an automaton node along,
and whose every transition goes through the validating ``StackState(...)``
constructor instead of the machine's trusted one.  The
reference witness verification runs the machine afresh for every check,
as ``verify_witness`` did before its checks shared one table of runs.  The
reference renderer turns each finding row into a dict and hands the report
to ``json.dumps``, instead of writing the rows' JSON text directly.

It also holds two test fixtures: ``explicit_family``, a family listing
given words verbatim, and ``TableTarget``, a target map given by a table.
"""

import json
from itertools import product

from uniseq import cli
from uniseq.conditions import Verdict, analyze_family
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
from uniseq.words import SHARED, word_key
from uniseq.witness import (
    BASE,
    TARGETED,
    StackState,
    WitnessContext,
    WitnessReport,
    _cell_at,
    gw_inv,
    gw_mul,
    is_positive,
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


class IncrementalTrie:
    """The trie of ``words.Automaton`` built one piece at a time, stepping
    every letter, with the same node arrays: ``step``, ``depth`` and
    ``owner``."""

    def __init__(self):
        self.step = {"a": [0], "b": [0]}
        self.depth = [0]
        self.owner = [SHARED]

    def add(self, word, label, start=0):
        """Insert ``word[start:]`` under ``label`` and return its end node."""
        step, depth, owner = self.step, self.depth, self.owner
        node = 0
        for letter in word[start:]:
            row = step[letter]
            child = row[node]
            if not child:
                child = row[node] = len(depth)
                step["a"].append(0)
                step["b"].append(0)
                depth.append(depth[node] + 1)
                owner.append(label)
            elif owner[child] != label:
                owner[child] = SHARED
            node = child
        return node


def middle_findings_reference(words, decomps):
    """``conditions._middle_findings`` by testing every middle against every
    word and every other member prefix with ``in``."""
    violations = []
    warnings = []
    for n, dec in enumerate(decomps, 1):
        if dec is None:
            continue
        for m, w in enumerate(words, 1):
            if n != m and dec.middle in w:
                violations.append(("middle-unique", (n, m), (dec.middle, w)))
        if dec.middle in dec.prefix:
            violations.append(("middle-in-own-prefix", (n,), (dec.middle, dec.prefix)))
        for m, other in enumerate(decomps, 1):
            if other is not None and m != n and dec.middle in other.prefix:
                warnings.append(("middle-in-other-prefix", (n, m), (dec.middle, other.prefix)))
    return violations, warnings


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
                    violations.append(("prefix-suffix-overlap", (n, m), (prefix,)))
                    break
            if n != m and wn in wm:
                violations.append(("subword", (n, m), (wn,)))
    return Verdict(not violations, bound, tuple(violations))


def finding_to_json(row):
    """A finding row as the dict its JSON object encodes."""
    condition, indices, witness = row
    return {"condition": condition, "indices": list(indices), "witness": list(witness)}


def render_json_reference(report):
    """``cli.render_json`` as ``json.dumps`` of the report with each
    finding row turned into its dict."""
    return json.dumps({
        key: [finding_to_json(row) for row in value] if key in FINDINGS else value
        for key, value in report.items()
    })


def findings_text_reference(kind):
    """The text lines for finding rows, read from each row's dict."""
    def render(rows):
        for v in map(finding_to_json, rows):
            indices = ",".join(str(i) for i in v["indices"])
            witness = " ".join(w if w else "''" for w in v["witness"])
            yield f"{kind} {v['condition']} at {indices}: {witness}"

    return render


FINDINGS = {"violations": findings_text_reference("violation"),
            "warnings": findings_text_reference("warning")}


def render_text_reference(report):
    """``cli.render_text`` with the finding lines of the reference."""
    lines = []
    for key, render in cli.TEXT_LINES.items():
        if report.get(key) is not None:
            lines.extend(FINDINGS.get(key, render)(report[key]))
    return "\n".join(lines)


def satisfies_conditions(gens, words):
    """Fixed-point test of a closure, through the reference kernels: every
    repeated and cross factor over ``words`` is a product of ``gens``."""
    found = repeated_factors_reference(gens, words) | cross_factors_reference(gens, words)
    return all(member(gens, v) for v in found)


def closure_reference(words, *, generators_only=False):
    """``submonoid.closure`` with the reference repeated and cross factors,
    testing every candidate with ``member`` and rebuilding the irredundant
    generators from the whole pool every round.  It always runs to the
    fixpoint: ``generators_only`` is accepted and ignored, so an analysis
    through this reference compares against the full closure."""
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
    merged = gw_mul(_cell_at(state.tail, state.entries, depth), word)
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


def _suffix_closure(keys):
    """Every nonempty suffix of every key."""
    out = set()
    for key in keys:
        for i in range(len(key)):
            out.add(key[i:])
    return frozenset(out)


def _scan_matches(state, keys, tails):
    """All (depth, word) pairs where the innermost cells up to ``depth``
    are positive, concatenate to a word in ``keys``, and the cell at
    ``depth`` holds a signed word.  The scan walks outward and stops as
    soon as the accumulated run is no longer a suffix of any key."""
    matches = []
    run = ""
    depth = 0
    while True:
        cell = _cell_at(state.tail, state.entries, depth)
        if not isinstance(cell, str) or not is_positive(cell):
            break
        run = cell + run
        if run not in tails:
            break
        if run in keys and isinstance(_cell_at(state.tail, state.entries, depth + 1), str):
            matches.append((depth + 1, run))
        depth += 1
    return matches


def _unique_match(state, keys, tails, what):
    matches = _scan_matches(state, keys, tails)
    if len(matches) > 1:
        raise AmbiguousCollapse(f"overlapping {what}: {matches}")
    return matches[0] if matches else None


def eval_hom_reference(word, state, mode, ctx):
    """``witness.eval_hom`` by rescanning the cells outward for a
    generator, and then for a middle, after every b, with every state
    re-validated: each push, fold, firing and append builds its result
    through ``StackState(...)``."""
    gen_keys = frozenset(ctx.generators)
    gen_tails = _suffix_closure(gen_keys)
    middle_tails = _suffix_closure(ctx.middles)
    for ch in word:
        state = StackState(state.tail, state.entries + (ch,))
        if ch != "b":
            continue
        match = _unique_match(state, gen_keys, gen_tails, "generator folds")
        if match:
            state = _collapse_reference(state, *match)
        if mode != TARGETED:
            continue
        match = _unique_match(state, ctx.middles, middle_tails, "middle matches")
        if match:
            depth, middle = match
            dec = ctx.middles[middle]
            unwound = _collapse_reference(state, depth, gw_inv(dec.prefix))
            mapped = ctx.targets[dec.index - 1](unwound)
            state = _append_reference(mapped, gw_inv(dec.suffix))
    return state


def verify_witness_reference(family, bound, targets, samples):
    """``witness.verify_witness`` evaluating the machine anew for every
    check.  It reaches ``eval_hom``, ``fire_target``, ``_collapse`` and
    ``_extends_with`` through the module, so a test that patches one of
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
        {name: 0 for name in witness._CHECK_NAMES}, None,
        not_applicable=() if products else ("append", "agreement"),
    )

    def fail(check, index, state, got, expected):
        failure = {
            "check": check,
            "index": index,
            "state": state_to_json(state),
            "got": state_to_json(got),
            "expected": state_to_json(expected),
        }
        raise VerificationFailure(
            f"{check} check failed at index {index} on {state_key(state)!r}",
            report._replace(failure=failure),
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
            expected = witness._collapse(x.tail, x.entries, 0, v)
            if got != expected:
                fail("append", None, x, got, expected)
            outputs.add(got)
            report.checks["append"] += 1
        if len(outputs) != len(samples):
            failure = {"check": "append-injective", "index": None, "product": v}
            raise VerificationFailure(
                f"append map for {v!r} is not injective on the sample",
                report._replace(failure=failure),
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
                failure = {"check": "stacking-hypothesis", "index": dec.index, "prefix": prefix}
                raise VerificationFailure(
                    f"middle {dec.middle!r} shares a prefix with a generator suffix",
                    report._replace(failure=failure),
                )
        for x in samples:
            got = witness.eval_hom(dec.middle, x, BASE, ctx)
            if not witness._extends_with(got, x, dec.middle):
                fail("stacking", dec.index, x, got, x)
            report.checks["stacking"] += 1

    for dec in analysis.decompositions:
        for x in samples:
            lhs = witness.eval_hom(dec.middle, x, TARGETED, ctx)
            base = witness.eval_hom(dec.middle, x, BASE, ctx)
            rhs = witness.fire_target(base, witness._start_node(base, ctx), ctx)[0]
            if lhs != rhs:
                fail("firing_step", dec.index, x, lhs, rhs)
            report.checks["firing_step"] += 1

    return report
