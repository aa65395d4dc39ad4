"""Golden digests of the CLI output.

The CLI runs in process over a fixed matrix; the sha256 of every exit code
and stdout, concatenated in matrix order, must equal the digest recorded
when the matrix was first run, so a change that alters any report byte,
verdict or exit code fails here.  The ``witness`` matrix covers the builtin
families, bounds 2 through 10, seeds 0 through 2 and both formats, with a
fixed sample count; a second ``witness`` matrix runs ``FAILING_FAMILY`` and
two more failing families, whose closures end with both letters as
generators, at bounds 2 through 6.  The family-command matrix runs ``closure``,
``check-thm``, ``check-cor`` and ``decompose`` in both formats on the
builtins at bounds 2, 9 and 30 and on ``FAILING_FAMILY`` at bound 10.
The oracle matrix runs ``solve`` on sat, unsat and ``dup`` systems over
ground sizes 1 to 4, and ``blocks`` on partial permutations listing their
pairs in different orders and on a ground of 3,000 points, both formats;
it also hashes stderr, so usage errors are pinned too.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from test_kernels import FAILING_FAMILY
from uniseq import cli
from uniseq.equations import evaluate

FAMILIES = ("banach", "sierpinski", "alternating")
BOUNDS = range(2, 11)
SEEDS = range(3)
FORMATS = ("text", "json")
SAMPLES = 20
DIGEST = "b0fed91530cfa28701bf488cd566227d053bf1f0cb214f30733fcc6bcb366849"


def test_witness_output_matches_the_recorded_digest():
    digest = hashlib.sha256()
    codes = set()
    for family in FAMILIES:
        for bound in BOUNDS:
            for seed in SEEDS:
                for fmt in FORMATS:
                    out = io.StringIO()
                    with redirect_stdout(out):
                        code = cli.main([
                            "witness", family, "--bound", str(bound), "--seed", str(seed),
                            "--samples", str(SAMPLES), "--format", fmt,
                        ])
                    codes.add(code)
                    digest.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    assert codes == {0}
    assert digest.hexdigest() == DIGEST


# Two more families of the failing random-family shape g a^i X [m Y] b^j g:
# their closures take four rounds and end with both letters as generators.
FAILING_FAMILIES = {
    "failing.json": FAILING_FAMILY,
    "failing-one-power.json": {
        "alphabet": "ab",
        "templates": [[{"lit": "aaaba"}, {"pow": {"base": "aab", "c": 2, "d": 1}},
                       {"lit": "bbaaab"}]],
    },
    "failing-two-powers.json": {
        "alphabet": "ab",
        "templates": [[{"lit": "abbbaa"}, {"pow": {"base": "aab", "c": 1, "d": 0}},
                       {"lit": "ba"}, {"pow": {"base": "abb", "c": 1, "d": 1}},
                       {"lit": "babbb"}]],
    },
}
FAILING_WITNESS_DIGEST = "4edc8d3967098a36c54a434634be8ef2c425bd31d2c16b760c73999b4bdc0b7d"


def test_failing_family_witness_output_matches_the_recorded_digest(monkeypatch, tmp_path):
    # Reports name the family as given, so the files go in by a fixed relative path.
    monkeypatch.chdir(tmp_path)
    digest = hashlib.sha256()
    codes = set()
    for name, spec in FAILING_FAMILIES.items():
        (tmp_path / name).write_text(json.dumps(spec))
        for bound in range(2, 7):
            for fmt in FORMATS:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main([
                        "witness", name, "--bound", str(bound),
                        "--samples", str(SAMPLES), "--format", fmt,
                    ])
                codes.add(code)
                digest.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    assert codes == {1}
    assert digest.hexdigest() == FAILING_WITNESS_DIGEST


FAMILY_COMMANDS = ("closure", "check-thm", "check-cor", "decompose")
FAMILY_DIGEST = "4b0f32b892bc25b73a96a09a896aed5fa415dcaba34878117b11a131aa04bf7b"


def test_family_command_output_matches_the_recorded_digest(monkeypatch, tmp_path):
    # Reports name the family as given, so the file goes in by a fixed relative path.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "failing.json").write_text(json.dumps(FAILING_FAMILY))
    matrix = [(name, bound) for name in FAMILIES for bound in (2, 9, 30)]
    digest = hashlib.sha256()
    codes = set()
    for family, bound in matrix + [("failing.json", 10)]:
        for command in FAMILY_COMMANDS:
            for fmt in FORMATS:
                out = io.StringIO()
                with redirect_stdout(out):
                    code = cli.main([command, family, "--bound", str(bound), "--format", fmt])
                codes.add(code)
                digest.update(f"{code}\n{out.getvalue()}".encode("utf-8"))
    assert codes == {0, 1}
    assert digest.hexdigest() == FAMILY_DIGEST


def _solve_argvs():
    rng = random.Random("golden-solve")
    systems = []
    for size in range(1, 5):
        for _ in range(3):
            a, b = (tuple(rng.randrange(size) for _ in range(size)) for _ in "ab")
            planted = {"a": a, "b": b}
            words = ["".join(rng.choice("ab") for _ in range(rng.randint(1, 5))) for _ in range(3)]
            # sat: every target is the image under the planted assignment.
            systems.append([(w, evaluate(w, planted)) for w in words])
            if size > 1:
                # unsat: a maps to a and aa to something other than a twice.
                wrong = tuple((v + 1) % size for v in evaluate("aa", planted))
                systems.append([("a", a), ("aa", wrong), (words[0], evaluate(words[0], planted))])
                # dup: one word with two different targets.
                first = evaluate(words[1], planted)
                other = tuple((v + 1) % size for v in first)
                systems.append([(words[1], first), (words[1], other)])
    return [
        ["solve", *(arg for w, t in system for arg in ("-w", w, "-t", ",".join(map(str, t))))]
        for system in systems
    ]


def _blocks_argvs():
    rng = random.Random("golden-blocks")
    argvs = [
        # The same perms with their pairs in opposite orders.
        ["blocks", "--ground", "1,2,3,4,5", "--perm", "[[1,2],[4,5],[2,3]]"],
        ["blocks", "--ground", "5,4,3,2,1", "--perm", "[[2,3],[4,5],[1,2]]"],
        ["blocks", "--ground=-3,0,7,2", "--perm", "[[7,-3],[0,2]]", "--perm", "[[2,0]]"],
        ["blocks", "--ground=-3,0,7,2", "--perm", "[[0,2],[7,-3]]", "--perm", "[[2,0]]"],
        ["blocks", "--ground", "1,2,3"],
        # Usage errors the partial permutation reports.
        ["blocks", "--ground", "1,2,3", "--perm", "[[1,3],[2,3]]"],
        ["blocks", "--ground", "1,2,3", "--perm", "[[1,2],[3,9]]"],
    ]
    points = rng.sample(range(-5000, 5000), 3000)
    ground = ",".join(map(str, points))
    for _ in range(2):
        perms = []
        for _ in range(3):
            sources = rng.sample(points, 400)
            images = rng.sample(points, 400)
            perms += ["--perm", json.dumps([list(p) for p in zip(sources, images)])]
        argvs.append(["blocks", f"--ground={ground}", *perms])
    return argvs


ORACLE_DIGEST = "0a6df7839072a6ff1ebecf58490f0a1c0726e1292808dcf8009ef04740ad9618"


def test_oracle_command_output_matches_the_recorded_digest():
    digest = hashlib.sha256()
    codes = set()
    for argv in _solve_argvs() + _blocks_argvs():
        for fmt in FORMATS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main([*argv, "--format", fmt])
            codes.add(code)
            digest.update(f"{code}\n{out.getvalue()}\n{err.getvalue()}".encode("utf-8"))
    assert codes == {0, 1, 2}
    assert digest.hexdigest() == ORACLE_DIGEST
