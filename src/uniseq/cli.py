"""Command line front door emitting deterministic text or JSON reports.

Exit codes: 0 when a verdict holds or a solution exists, 1 when a verdict
fails or the system is unsatisfiable, 2 on usage or input errors.
"""

import argparse
import json
import sys
from itertools import chain
from pathlib import Path

from .actions import blocks, partial_perm
from .conditions import analyze_family, check_corollary
from .equations import DEFAULT_CAP, MAX_SET_SIZE, solve
from .errors import HypothesisNotVerified, ParseError, UniseqError
from .families import BUILTIN_FAMILIES, MAX_BOUND, instantiate_many, load_family
from .submonoid import closure
from .witness import sample_states, seeded_targets, verify_witness


def _resolve_family(text):
    if text in BUILTIN_FAMILIES:
        return BUILTIN_FAMILIES[text]
    path = Path(text)
    if not path.exists():
        names = ", ".join(sorted(BUILTIN_FAMILIES))
        raise ParseError(f"no family file {text!r} and not one of the builtins ({names})")
    return load_family(path)


_EMPTY = "''"  # how text reports show the empty word


def _words(words):
    return ", ".join(w or _EMPTY for w in words)


def _line(label):
    return lambda value: [f"{label}: {value}"]


def _findings(kind):
    return lambda rows: [
        f"{kind} {c} at {i[0]},{i[1]}: {w[0] or _EMPTY}"
        if len(i) == 2 and len(w) == 1
        else f"{kind} {c} at {','.join(map(str, i))}: {' '.join(x or _EMPTY for x in w)}"
        for c, i, w in rows
    ]


# Text lines for each report key, in the order text reports print them.
# Keys a report lacks, or holds as null, print nothing.
TEXT_LINES = {
    "command": _line("command"),
    "family": _line("family"),
    "ground_size": _line("ground size"),
    "ground": lambda ground: ["ground: " + ", ".join(str(p) for p in ground)],
    "bound": _line("bound"),
    "samples": _line("samples"),
    "seed": _line("seed"),
    "verdict": _line("verdict"),
    "result": _line("result"),
    "generators": lambda gens: ["generators: " + (_words(gens) or "(none)")],
    "iterations": _line("iterations"),
    "pool": lambda pool: ["pool: " + _words(pool)],
    "rounds": lambda rounds: [
        f"round {k} {part}: " + _words(rnd[part])
        for k, rnd in enumerate(rounds, 1)
        for part in ("repeated", "cross")
    ],
    "decompositions": lambda decomps: [
        f"decomposition {d['n']}: prefix={d['prefix'] or _EMPTY} "
        f"middle={d['middle'] or _EMPTY} suffix={d['suffix'] or _EMPTY}"
        for d in decomps
    ],
    "checks": lambda checks: [f"check {name}: {count}" for name, count in checks.items()],
    "not_applicable": lambda names: ["not applicable: " + ", ".join(names)],
    "failure": lambda failure: [f"failure: {json.dumps(failure)}"],
    "reason": _line("reason"),
    "witness": lambda assignment: [
        f"{letter}: " + ",".join(str(v) for v in assignment[letter]) for letter in "ab"
    ],
    "blocks": lambda parts: ["block: " + ", ".join(str(p) for p in b) for b in parts],
    "violations": _findings("violation"),
    "warnings": _findings("warning"),
}


def render_json(report):
    """``json.dumps`` of the report, with each finding row written directly
    as its condition, indices, witness object: keys and conditions are fixed
    identifiers, indices ints and witnesses words over {a, b}, so nothing
    needs escaping.  Fields and rows are both separated by ", ", so the rows
    join as fields of their own and a long report is copied once."""
    fields = []
    words_sep = '", "'  # between the quoted words of a witness
    for key, value in report.items():
        if key not in ("violations", "warnings") or not value:
            fields.append(f'"{key}": {json.dumps(value)}')
            continue
        rows = [
            f'{{"condition": "{c}", "indices": [{i[0]}, {i[1]}], "witness": ["{w[0]}"]}}'
            if len(i) == 2 and len(w) == 1
            else f'{{"condition": "{c}", "indices": [{", ".join(map(str, i))}], '
            f'"witness": ["{words_sep.join(w)}"]}}'
            for c, i, w in value
        ]
        rows[0] = f'"{key}": [' + rows[0]
        rows[-1] += "]"
        fields += rows
    fields[0] = "{" + fields[0]
    fields[-1] += "}"
    return ", ".join(fields)


def render_text(report):
    """The text form of a report: each non-null field in TEXT_LINES order."""
    lines = []
    for key, render in TEXT_LINES.items():
        if report.get(key) is not None:
            lines.extend(render(report[key]))
    return "\n".join(lines)


def _family_report(args, **fields):
    return {"command": args.command, "family": args.family, "bound": args.bound, **fields}


def cmd_closure(args):
    words = instantiate_many(_resolve_family(args.family), args.bound)
    result = closure(words)
    report = _family_report(
        args,
        generators=result.generators,
        iterations=result.iterations,
        pool=result.pool,
        rounds=[{"repeated": r.repeated, "cross": r.cross} for r in result.rounds],
    )
    return report, 0


def _check_report(args, verdict, **extra):
    report = _family_report(
        args,
        verdict="holds" if verdict.holds else "fails",
        violations=verdict.violations,
        warnings=verdict.warnings,
        **extra,
    )
    return report, 0 if verdict.holds else 1


def _decomposition_json(analysis):
    return [
        {"n": d.index, "prefix": d.prefix, "middle": d.middle, "suffix": d.suffix}
        for d in analysis.decompositions or ()
    ]


def cmd_check_thm(args):
    analysis = analyze_family(_resolve_family(args.family), args.bound)
    return _check_report(
        args,
        analysis.verdict,
        generators=analysis.generators,
        decompositions=_decomposition_json(analysis),
    )


def cmd_check_cor(args):
    return _check_report(args, check_corollary(_resolve_family(args.family), args.bound))


def cmd_decompose(args):
    analysis = analyze_family(_resolve_family(args.family), args.bound)
    split_failures = [v for v in analysis.verdict.violations if v[0] == "split"]
    report = _family_report(
        args,
        generators=analysis.generators,
        decompositions=_decomposition_json(analysis),
        violations=split_failures,
    )
    return report, 0 if not split_failures else 1


def cmd_witness(args):
    family = _resolve_family(args.family)
    targets = seeded_targets(args.seed, args.bound)
    samples = sample_states(args.samples, args.seed)
    report = _family_report(args, samples=args.samples, seed=args.seed)
    try:
        result = verify_witness(family, args.bound, targets, samples)
    except HypothesisNotVerified as exc:
        report.update(verdict="not-verified", reason=str(exc), violations=exc.verdict.violations)
        return report, 1
    report.update(verdict="pass" if result.passed else "fail", checks=result.checks,
                  failure=result.failure)
    if result.passed and result.not_applicable:
        report["not_applicable"] = result.not_applicable
    return report, 0 if result.passed else 1


def _parse_ints(name, text):
    """The comma-separated integers of the option ``--name``."""
    parts = text.split(",")
    try:
        return tuple(map(int, parts))
    except ValueError:
        # int() also refuses a numeral with more digits than this limit
        # (0: no limit); name the option instead of echoing the numeral.
        limit = sys.get_int_max_str_digits()
        digits = (part.strip().lstrip("+-").replace("_", "") for part in parts)
        if limit and any(len(d) > limit and d.isdecimal() for d in digits):
            raise ParseError(f"--{name}: an integer has too many digits") from None
        raise ParseError(f"{name} {text!r} must be comma-separated integers") from None


def cmd_solve(args):
    if not args.word:
        raise ParseError("give at least one equation with -w WORD -t TARGET")
    if len(args.word) != len(args.target or ()):
        raise ParseError("need exactly one -t TARGET per -w WORD")
    targets = [_parse_ints("target", t) for t in args.target]
    sizes = {len(t) for t in targets}
    if len(sizes) != 1:
        raise ParseError("all targets must have the same length")
    size = sizes.pop()
    assignment = solve(args.word, targets, size, cap=args.max_set_size)
    report = {
        "command": "solve",
        "ground_size": size,
        "result": "sat" if assignment else "unsat",
        "witness": assignment,
    }
    return report, 0 if assignment else 1


def cmd_blocks(args):
    ground = _parse_ints("ground", args.ground)
    if len(set(ground)) != len(ground):
        raise ParseError(f"ground {args.ground!r} lists a point twice")
    perms = []
    for text in args.perm or ():
        try:
            pairs = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"perm {text!r} is not valid JSON: {exc.msg}")
        except RecursionError:
            raise ParseError(f"perm {text!r} is nested too deeply") from None
        except ValueError:  # int() past sys.get_int_max_str_digits()
            raise ParseError("--perm: an integer has too many digits") from None
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs
        ):
            raise ParseError(f"perm {text!r} must be a list of [from, to] pairs")
        if not {type(p) for p in chain.from_iterable(pairs)} <= {int}:
            raise ParseError(f"perm {text!r}: points must be integers")
        try:
            mapping = dict(pairs)
            if len(mapping) < len(pairs) and any(mapping[x] != y for x, y in pairs):
                raise ValueError("a point has two images")
            perms.append(partial_perm(mapping, ground))
        except ValueError as exc:
            raise ParseError(f"perm {text!r}: {exc}")
    partition = blocks(perms, ground)
    report = {
        "command": "blocks",
        "ground": sorted(ground),
        "blocks": [sorted(b) for b in partition],
    }
    return report, 0


def _add_common(sub, func, min_bound=2):
    """Route the subcommand to ``func`` and add ``--format``; with a
    ``min_bound`` it also takes a family argument and ``--bound``."""
    if min_bound is not None:
        sub.add_argument("family", help="builtin family name or path to a family JSON file")
        sub.add_argument(
            "--bound",
            type=int,
            default=8,
            help=f"number of family words to check (default 8, {min_bound} to {MAX_BOUND})",
        )
    sub.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default text)",
    )
    sub.set_defaults(func=func, min_bound=min_bound)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uniseq",
        description="Condition checks, closures and witness verification for "
        "word families over the alphabet {a, b}.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("closure", help="compute the closed submonoid of the first N words")
    _add_common(sub, cmd_closure, min_bound=1)

    sub = subparsers.add_parser("check-thm", help="check the main sufficient condition")
    _add_common(sub, cmd_check_thm)

    sub = subparsers.add_parser("check-cor", help="check the overlap-free condition")
    _add_common(sub, cmd_check_cor)

    sub = subparsers.add_parser("decompose", help="prefix/middle/suffix split of each word")
    _add_common(sub, cmd_decompose)

    sub = subparsers.add_parser("witness", help="verify the constructed letter assignment")
    _add_common(sub, cmd_witness)
    sub.add_argument("--seed", type=int, default=0, help="seed for targets and samples")
    sub.add_argument("--samples", type=int, default=50, help="sampled states per word")

    sub = subparsers.add_parser("solve", help="solve word equations over a small map monoid")
    sub.add_argument("-w", "--word", action="append", help="equation word")
    sub.add_argument(
        "-t",
        "--target",
        action="append",
        help="target map as comma-separated images, e.g. 1,0",
    )
    sub.add_argument(
        "--max-set-size",
        type=int,
        default=DEFAULT_CAP,
        help=f"cap on the ground set size (default {DEFAULT_CAP}, at most {MAX_SET_SIZE})",
    )
    _add_common(sub, cmd_solve, min_bound=None)

    sub = subparsers.add_parser("blocks", help="orbit partition of partial permutations")
    sub.add_argument("--ground", required=True, help="comma-separated points, e.g. 1,2,3,4")
    sub.add_argument(
        "--perm",
        action="append",
        help='partial permutation as JSON pairs, e.g. "[[1,2],[2,1]]"',
    )
    _add_common(sub, cmd_blocks, min_bound=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # argparse reads "--opt=--" as [], and append options default to None.
        if any(v == [] or (isinstance(v, list) and [] in v) for v in vars(args).values()):
            raise ParseError("'--' is not a valid option value")
        if args.min_bound is not None and args.bound < args.min_bound:
            raise ParseError(f"--bound must be at least {args.min_bound}")
        report, code = args.func(args)
        print(render_json(report) if args.format == "json" else render_text(report))
    except (UniseqError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; the input is too large to finish", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
