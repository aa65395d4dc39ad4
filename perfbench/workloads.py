"""The benchmark's workloads: each is a list of CLI jobs made from a seed.

A job is one ``uniseq`` command line plus a function that builds its
output check.  The checks are built on first use, so that set-up time
covers only what the program needs: the argv lists and the family files.
"""

import json
import random
from dataclasses import dataclass, field
from typing import Callable

from . import checks, oracles

BUILTINS = ("banach", "sierpinski", "alternating")

# closure-large: bounds ramped up to where closure and check-cor take
# seconds.  check-cor on banach and sierpinski stops at COR_TOP: at 200 the
# sierpinski job alone takes 5-8 s, which would leave one round per run.
RAMP = (25, 50, 100, 150, 200)
COR_TOP = 150
# witness-builtin: (bound, samples) per job; fewer samples at larger bounds.
WITNESS_SHAPES = ((2, 40), (4, 24), (6, 16), (8, 12), (10, 10))
WITNESS_SEEDS = 3
MIN_JOBS = 40  # per round, so that ten jobs lie beyond the 75th percentile
# random-families: families per round of each outcome, the bound the naive
# closure replays, the bound of the other jobs, the witness size and how
# many witness seeds each family gets.
FAMILIES_PER_OUTCOME = 12
NAIVE_BOUND = 3
FAMILY_BOUND = 10
FAMILY_WITNESS = (5, 8)
WITNESS_RUNS = 3
# oracles: blocks jobs per round and their size.
BLOCK_JOBS = 24
BLOCK_POINTS = 3000
BLOCK_PERMS = 3


@dataclass
class Job:
    argv: list
    make_check: Callable
    check: Callable = field(default=None, repr=False)

    @property
    def command(self):
        return self.argv[0]

    @property
    def fmt(self):
        return self.argv[self.argv.index("--format") + 1]


def _job(argv, fmt, make_check):
    return Job(list(argv) + ["--format", fmt], make_check)


# -- builtin families -----------------------------------------------------------

def builtin_words(family, bound):
    return [oracles.builtin_word(family, n) for n in range(1, bound + 1)]


def builtin_job(command, family, bound, fmt):
    argv = [command, family, "--bound", str(bound)]

    def make_check():
        words = builtin_words(family, bound)
        closed = checks.closed_form_closure(family, bound)
        if command == "closure":
            return checks.check_closure(words, closed=closed)
        if command == "check-cor":
            return checks.check_corollary(words, holds=family != "alternating")
        return checks.check_theorem(
            command, words, gens=closed["generators"],
            closed_decomps=checks.builtin_decompositions(family, bound),
        )

    return _job(argv, fmt, make_check)


def builtin_witness_job(family, bound, samples, seed, fmt):
    argv = ["witness", family, "--bound", str(bound), "--samples", str(samples),
            "--seed", str(seed)]

    def make_check():
        gens = checks.closed_form_closure(family, bound)["generators"]
        return checks.check_witness(builtin_words(family, bound), bound, samples, seed, gens)

    return _job(argv, fmt, make_check)


# -- equations and actions --------------------------------------------------------

def _random_map(rng, size):
    return [rng.randrange(size) for _ in range(size)]


def _random_word(rng, lo, hi):
    return "".join(rng.choice("ab") for _ in range(rng.randint(lo, hi)))


def solve_job(rng, size, kind, fmt):
    """A solve job.  ``sat`` plants a solution; ``pinned`` also states the
    map of ``a``, so the search is short whatever the planted maps are;
    ``dup`` repeats one word with two different targets, which makes the
    search exhaust every assignment; ``rank`` makes ``a`` a constant map
    and asks a word containing ``a`` to act as a permutation, which no
    composition through a rank-one map can."""
    a, b = _random_map(rng, size), _random_map(rng, size)
    if kind in ("sat", "pinned"):
        words = [_random_word(rng, 2, 6) for _ in range(rng.randint(1, 3))]
        if kind == "pinned":
            words.insert(0, "a")
        targets = [oracles.image(w, a, b) for w in words]
    elif kind == "dup":
        w = "a" + _random_word(rng, 2, 2) + "b"
        first = oracles.image(w, a, b)
        second = list(first)
        second[0] = (second[0] + 1) % size
        words, targets = [w, w], [first, second]
    else:
        perm = list(range(size))
        rng.shuffle(perm)
        words = ["a", _random_word(rng, 1, 3) + "a" + _random_word(rng, 0, 3)]
        targets = [[rng.randrange(size)] * size, perm]
    argv = ["solve"]
    for w, t in zip(words, targets):
        argv += ["-w", w, "-t", ",".join(map(str, t))]

    def make_check():
        return checks.check_solve(words, targets, size, sat=kind in ("sat", "pinned"),
                                  exhaustive=kind in ("dup", "rank") and size <= 3)

    return _job(argv, fmt, make_check)


def blocks_job(rng, points, perms, fmt):
    """Partial permutations of 1..points, each defined on 40% of them."""
    ground = list(range(1, points + 1))
    pairs_lists = []
    for _ in range(perms):
        src = rng.sample(ground, points * 2 // 5)
        dst = rng.sample(ground, len(src))
        pairs_lists.append(list(zip(src, dst)))
    argv = ["blocks", "--ground", ",".join(map(str, ground))]
    for pairs in pairs_lists:
        argv += ["--perm", json.dumps([[x, y] for x, y in pairs])]
    return _job(argv, fmt, lambda: checks.check_blocks(ground, pairs_lists))


# -- random families ----------------------------------------------------------------

# Powers per family: each choice adds 6 letters per index, so every word n
# has about 6n + 12 letters and the families of a round cost alike.
ONE_POWER = (("ab", 3), ("aab", 2), ("abb", 2))
TWO_POWERS = ((("ab", 1), ("ab", 2)), (("ab", 2), ("ab", 1)), (("aab", 1), ("abb", 1)),
              (("abb", 1), ("aab", 1)), (("aab", 1), ("aab", 1)), (("abb", 1), ("abb", 1)))
# End pieces g and the runs a^i, b^j around the powers.  In a survey of
# every power choice above at bounds 5 and 10, each HOLDS shape passed the
# theorem with the single generator its end piece gives (ab, aab, abb or
# aabb), and each FAILS shape failed after a closure of four or five rounds
# that ends with both letters as generators.  A round takes as many of each,
# so its cost and its mix of job latencies do not depend on the seed.
HOLDS = (("ab", 2, 2), ("abab", 2, 2), ("aab", 2, 2), ("abb", 2, 2), ("aabb", 2, 2))
FAILS = (("aaab", 1, 1), ("aaab", 1, 2), ("abbb", 1, 1), ("abbb", 2, 1))


def random_family(rng, shapes):
    """A family g a^i X^(cn+d) [m Y^(c'n+d')] b^j g, with (g, i, j) drawn
    from ``shapes`` and one or two powers."""
    g, i, j = rng.choice(shapes)
    if rng.random() < 0.5:
        (x, c), (y, e) = rng.choice(TWO_POWERS)
        d = rng.randint(0, 1)
        powers = [("pow", x, c, d), ("lit", _random_word(rng, 1, 2)), ("pow", y, e, 1 - d)]
    else:
        x, c = rng.choice(ONE_POWER)
        powers = [("pow", x, c, rng.randint(0, 1))]
    return [("lit", g + "a" * i)] + powers + [("lit", "b" * j + g)]


def write_family(spec, path):
    segments = [
        {"lit": seg[1]} if seg[0] == "lit"
        else {"pow": {"base": seg[1], "c": seg[2], "d": seg[3]}}
        for seg in spec
    ]
    path.write_text(json.dumps({"alphabet": "ab", "templates": [segments]}))


def family_jobs(spec, path, witness_seeds, fmts):
    """closure at the naive bound and at the family bound, check-thm,
    check-cor, and one witness per seed, for one generated family."""
    name = str(path)

    def words(bound):
        return [oracles.family_word(spec, n) for n in range(1, bound + 1)]

    def witness(seed, fmt):
        return _job(["witness", name, "--bound", str(wb), "--samples", str(samples),
                     "--seed", str(seed)], fmt,
                    lambda: checks.check_witness(words(wb), wb, samples, seed))

    bound = str(FAMILY_BOUND)
    wb, samples = FAMILY_WITNESS
    return [
        _job(["closure", name, "--bound", str(NAIVE_BOUND)], fmts[0],
             lambda: checks.check_closure(words(NAIVE_BOUND), naive=True)),
        _job(["closure", name, "--bound", bound], fmts[1],
             lambda: checks.check_closure(words(FAMILY_BOUND))),
        _job(["check-thm", name, "--bound", bound], fmts[2],
             lambda: checks.check_theorem("check-thm", words(FAMILY_BOUND))),
        _job(["check-cor", name, "--bound", bound], fmts[3],
             lambda: checks.check_corollary(words(FAMILY_BOUND))),
    ] + [witness(seed, fmts[4 + k]) for k, seed in enumerate(witness_seeds)]


# -- workloads ----------------------------------------------------------------------

def probes(rng, seed, layers):
    """One small job per named layer, so that every layer's traced time is
    measured on every workload (they cost well under 1% of a round)."""
    jobs = []
    if "witness" in layers:
        jobs.append(builtin_witness_job("banach", 3, 8, seed, "json"))
    if "conditions" in layers:
        jobs.append(builtin_job("check-cor", "banach", 6, "json"))
    if "equations" in layers:
        jobs.append(solve_job(rng, 3, "sat", "json"))
    if "actions" in layers:
        jobs.append(blocks_job(rng, 40, 2, "json"))
    return jobs


def closure_large(rng, seed, workdir):
    jobs = []
    for family in BUILTINS:
        for command in ("closure", "check-thm", "decompose", "check-cor"):
            for k, bound in enumerate(RAMP):
                if command == "check-cor" and family != "alternating" and bound > COR_TOP:
                    continue
                bound -= rng.randrange(3)
                jobs.append(builtin_job(command, family, bound, "text" if k % 2 else "json"))
    return jobs + probes(rng, seed, ("witness", "equations", "actions"))


def witness_builtin(rng, seed, workdir):
    jobs = []
    for family in BUILTINS:
        for bound, samples in WITNESS_SHAPES:
            for k in range(WITNESS_SEEDS):
                fmt = "text" if bound in (4, 8) else "json"
                jobs.append(builtin_witness_job(family, bound, samples, seed * 10 + k, fmt))
    return jobs + probes(rng, seed, ("conditions", "equations", "actions"))


def random_families(rng, seed, workdir):
    jobs = []
    for k in range(2 * FAMILIES_PER_OUTCOME):
        spec = random_family(rng, HOLDS if k % 2 else FAILS)
        path = workdir / f"family-{seed}-{k}.json"
        write_family(spec, path)
        seeds = [seed * 1000 + k * WITNESS_RUNS + t for t in range(WITNESS_RUNS)]
        fmts = ["json"] * (4 + WITNESS_RUNS)
        fmts[k % len(fmts)] = "text"
        jobs += family_jobs(spec, path, seeds, fmts)
    return jobs + probes(rng, seed, ("equations", "actions"))


def oracle_jobs(rng, seed, workdir):
    jobs = []
    for size, kinds in ((3, (("sat", 6), ("dup", 2), ("rank", 2))),
                        (4, (("pinned", 6), ("dup", 4), ("rank", 2)))):
        for kind, count in kinds:
            jobs += [solve_job(rng, size, kind, "json") for _ in range(count)]
    jobs += [blocks_job(rng, BLOCK_POINTS, BLOCK_PERMS, "json") for _ in range(BLOCK_JOBS)]
    for k in range(0, len(jobs), 4):
        jobs[k].argv[-1] = "text"
    return jobs + probes(rng, seed, ("witness", "conditions"))


WORKLOADS = {
    "closure-large": closure_large,
    "witness-builtin": witness_builtin,
    "random-families": random_families,
    "oracles": oracle_jobs,
}


def build(name, seed, workdir):
    """The job list of one round of a workload, in a seeded order."""
    rng = random.Random(f"{name}:{seed}")
    jobs = WORKLOADS[name](rng, seed, workdir)
    if len(jobs) < MIN_JOBS:
        raise ValueError(f"{name} has {len(jobs)} jobs per round, fewer than {MIN_JOBS}")
    rng.shuffle(jobs)
    return jobs
