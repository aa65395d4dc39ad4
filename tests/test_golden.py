"""Golden digests of the CLI output.

The CLI runs in process over a fixed matrix; the sha256 of every exit code
and stdout, concatenated in matrix order, must equal the digest recorded
when the matrix was first run, so a change that alters any report byte,
verdict or exit code fails here.  The ``witness`` matrix covers the builtin
families, bounds 2 through 10, seeds 0 through 2 and both formats, with a
fixed sample count.  The family-command matrix runs ``closure``,
``check-thm``, ``check-cor`` and ``decompose`` in both formats on the
builtins at bounds 2, 9 and 30 and on ``FAILING_FAMILY`` at bound 10.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from test_kernels import FAILING_FAMILY
from uniseq import cli

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
