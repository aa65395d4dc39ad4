"""Output checks for every job the benchmark runs.

A check takes the parsed report and the exit code of one CLI call and
raises ``CheckFailed`` when they disagree with what ``oracles`` computes
from the job's inputs, or with a closed form worked out by hand.  No check
compares against a stored copy of an earlier output.
"""

import json

from . import oracles
from .oracles import word_key


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def expect_equal(got, want, what):
    if got != want:
        g, w = repr(got), repr(want)
        raise CheckFailed(f"{what}: got {g[:200]}, want {w[:200]}")


# -- text reports ---------------------------------------------------------------

def _word(text):
    return "" if text == "''" else text


def _word_list(text):
    if text in ("", "(none)"):
        return []
    return [_word(x) for x in text.split(", ")]


def _violation(text):
    cond, rest = text.split(" at ", 1)
    indices, witness = rest.split(": ", 1)
    return {
        "condition": cond,
        "indices": [int(i) for i in indices.split(",") if i],
        "witness": [_word(w) for w in witness.split(" ")],
    }


def parse_text(command, text):
    """Rebuild the JSON report shape from a text report.  The result is
    marked with ``"format": "text"``, since some fields are not rendered."""
    rep = {"command": command, "format": "text"}
    rounds = {}
    for line in text.splitlines():
        key, _, value = line.partition(": ")
        if key in ("family", "verdict", "result", "reason"):
            rep[key] = value
        elif key in ("bound", "iterations", "samples", "seed"):
            rep[key] = int(value)
        elif key == "ground size":
            rep["ground_size"] = int(value)
        elif key in ("generators", "pool"):
            rep[key] = _word_list(value)
        elif key.startswith("round "):
            _, k, kind = key.split(" ")
            rounds.setdefault(int(k), {})[kind] = _word_list(value)
        elif key.startswith("decomposition "):
            fields = dict(part.split("=", 1) for part in value.split(" "))
            rep.setdefault("decompositions", []).append({
                "n": int(key.split(" ")[1]),
                "prefix": _word(fields["prefix"]),
                "middle": _word(fields["middle"]),
                "suffix": _word(fields["suffix"]),
            })
        elif key.startswith("violation "):
            rep.setdefault("violations", []).append(_violation(line[len("violation "):]))
        elif key.startswith("warning "):
            rep.setdefault("warnings", []).append(_violation(line[len("warning "):]))
        elif key.startswith("check "):
            rep.setdefault("checks", {})[key[len("check "):]] = int(value)
        elif key == "failure":
            rep["failure"] = json.loads(value)
        elif key in ("a", "b"):
            rep.setdefault("witness", {})[key] = [int(v) for v in value.split(",")]
        elif key == "ground":
            rep["ground"] = [int(v) for v in value.split(", ")]
        elif key == "block":
            rep.setdefault("blocks", []).append([int(v) for v in value.split(", ")])
    if rounds:
        rep["rounds"] = [rounds[k] for k in sorted(rounds)]
    if command in ("check-thm", "check-cor", "decompose"):
        rep.setdefault("violations", [])
    if command in ("check-thm", "decompose"):
        rep.setdefault("decompositions", [])
    if command in ("check-thm", "check-cor"):
        rep.setdefault("warnings", [])
    if command == "solve":
        rep.setdefault("witness", None)
    return rep


def parse(command, fmt, stdout):
    if fmt == "json":
        return json.loads(stdout)
    return parse_text(command, stdout)


# -- closure --------------------------------------------------------------------

def closed_form_closure(family, bound):
    """Closure of a builtin family, worked out by hand.

    Banach and Sierpinski words start with ``ab``/``aab`` and end with
    ``abb``/``abbabbb``; no nonempty piece is both a prefix of one word and
    a suffix of one word, so one pass extracts only the empty word.  Every
    alternating word is ``ab`` . a(ab)^(n+1)b . ``ab``: the first pass
    extracts ``ab`` as a repeated piece (and, with two or more words, as a
    cross piece), and the second pass finds nothing new.
    """
    if family in ("banach", "sierpinski"):
        return {"generators": [], "iterations": 1, "pool": [""],
                "rounds": [{"repeated": [""], "cross": [""]}]}
    cross = ["", "ab"] if bound >= 2 else [""]
    return {"generators": ["ab"], "iterations": 2, "pool": ["", "ab"],
            "rounds": [{"repeated": ["", "ab"], "cross": cross}] * 2}


def closure_properties(rep, words):
    """Properties every closure report must have, at any bound."""
    gens = rep["generators"]
    expect(all(gens), "empty generator")
    expect_equal(gens, sorted(set(gens), key=word_key), "generator order")
    for g in gens:
        others = [h for h in gens if h != g]
        expect(not oracles.is_member(others, g), f"generator {g!r} is redundant")
    expect_equal(rep["iterations"], len(rep["rounds"]), "iterations")
    pool = rep["pool"]
    expect_equal(pool, sorted(set(pool), key=word_key), "pool order")
    seen = set()
    for rnd in rep["rounds"]:
        seen.update(rnd["repeated"])
        seen.update(rnd["cross"])
    expect_equal(sorted(seen, key=word_key), pool, "pool is the union of the rounds")
    for v in pool:
        expect(any(w.find(v) >= 0 for w in words), f"pool word {v!r} is no subword")
        expect(oracles.is_member(gens, v), f"pool word {v!r} is not generated")
    expect(set(gens) <= set(pool), "a generator is not in the pool")


def check_closure(words, closed=None, naive=False):
    def check(rep, rc):
        expect_equal(rc, 0, "exit code")
        expect_equal(rep["bound"], len(words), "bound")
        closure_properties(rep, words)
        if closed is not None or naive:
            want = closed if closed is not None else oracles.closure(tuple(words))
            for key in ("generators", "iterations", "pool", "rounds"):
                expect_equal(rep[key], want[key], key)
    return check


# -- conditions -----------------------------------------------------------------

def check_theorem(command, words, gens=None, closed_decomps=None):
    """check-thm or decompose.  The generators must equal ``gens`` (a closed
    form) when given, and otherwise have the properties a closure result
    has; the decompositions, violations and verdict are then recomputed
    from them."""
    def check(rep, rc):
        expect_equal(rep["bound"], len(words), "bound")
        got_gens = rep["generators"]
        if gens is not None:
            expect_equal(got_gens, gens, "generators")
        else:
            for g in got_gens:
                expect(any(w.find(g) >= 0 for w in words), f"generator {g!r} is no subword")
                expect(not oracles.is_member([h for h in got_gens if h != g], g),
                       f"generator {g!r} is redundant")
        decomps, violations, warnings = oracles.theorem(got_gens, words)
        if closed_decomps is not None:
            expect_equal(decomps, closed_decomps, "closed-form decompositions")
        expect_equal(rep["decompositions"], decomps, "decompositions")
        if command == "decompose":
            splits = [v for v in violations if v["condition"] == "split"]
            expect_equal(rep["violations"], splits, "split violations")
            expect_equal(rc, 1 if splits else 0, "exit code")
            return
        expect_equal(rep["violations"], violations, "violations")
        expect_equal(rep["warnings"], warnings, "warnings")
        expect_equal(rep["verdict"], "fails" if violations else "holds", "verdict")
        expect_equal(rc, 1 if violations else 0, "exit code")
    return check


def builtin_decompositions(family, bound):
    """Decompositions of a builtin family, worked out by hand: no prefix or
    suffix for Banach and Sierpinski, ``ab`` | a(ab)^(n+1)b | ``ab`` for the
    alternating family."""
    out = []
    for n in range(1, bound + 1):
        if family == "alternating":
            out.append({"n": n, "prefix": "ab", "middle": "a" + "ab" * (n + 1) + "b",
                        "suffix": "ab"})
        else:
            out.append({"n": n, "prefix": "", "middle": oracles.builtin_word(family, n),
                        "suffix": ""})
    return out


def check_corollary(words, holds=None):
    def check(rep, rc):
        expect_equal(rep["bound"], len(words), "bound")
        violations = oracles.corollary_violations(words)
        expect_equal(rep["violations"], violations, "violations")
        expect_equal(rep["warnings"], [], "warnings")
        expect_equal(rep["verdict"], "fails" if violations else "holds", "verdict")
        if holds is not None:
            expect_equal(rep["verdict"], "holds" if holds else "fails", "closed-form verdict")
        expect_equal(rc, 1 if violations else 0, "exit code")
    return check


# -- witness --------------------------------------------------------------------

def check_witness(words, bound, samples, seed, gens=None):
    """A witness report: the verdict follows from the theorem check on the
    first ``bound`` words, and each check ran once per sample for every
    word, middle or generator product."""
    def check(rep, rc):
        for key, want in (("bound", bound), ("samples", samples), ("seed", seed)):
            expect_equal(rep[key], want, key)
        got_gens = gens if gens is not None else oracles.closure(tuple(words))["generators"]
        _, violations, _ = oracles.theorem(got_gens, words)
        if violations:
            expect_equal(rep["verdict"], "not-verified", "verdict")
            if rep.get("format") != "text":  # text reports do not list them
                expect_equal(rep["violations"], violations, "violations")
            expect_equal(rc, 1, "exit code")
            return
        expect_equal(rep["verdict"], "pass", "verdict")
        expect_equal(rc, 0, "exit code")
        expect(rep.get("failure") is None, "failure recorded on a pass")
        products = oracles.product_count(got_gens)
        want = {"target": bound * samples, "append": products * samples,
                "agreement": products * samples, "stacking": bound * samples,
                "firing_step": bound * samples}
        expect_equal(rep["checks"], want, "check counts")
    return check


# -- oracles: equations and actions -----------------------------------------------

def check_solve(words, targets, size, sat, exhaustive=False):
    """A sat answer must send every word to its target when the maps are
    composed here.  An unsat answer is right by construction of the system,
    and is also confirmed by full search when ``exhaustive`` is set."""
    def check(rep, rc):
        expect_equal(rep["ground_size"], size, "ground size")
        if not sat:
            expect_equal((rep["result"], rep["witness"], rc), ("unsat", None, 1), "unsat answer")
            if exhaustive:
                expect(not oracles.exhaustive_solutions(words, targets, size),
                       "system has a solution")
            return
        expect_equal((rep["result"], rc), ("sat", 0), "sat answer")
        a, b = rep["witness"]["a"], rep["witness"]["b"]
        for m in (a, b):
            expect(len(m) == size and all(0 <= v < size for v in m), f"bad map {m}")
        for w, t in zip(words, targets):
            expect_equal(oracles.image(w, a, b), list(t), f"image of {w}")
    return check


def check_blocks(ground, pairs_lists):
    def check(rep, rc):
        expect_equal(rc, 0, "exit code")
        expect_equal(rep["ground"], sorted(ground), "ground")
        blocks = rep["blocks"]
        expect(all(b == sorted(b) for b in blocks), "a block is not sorted")
        expect_equal(sorted(blocks), oracles.union_find_blocks(ground, pairs_lists), "blocks")
    return check
