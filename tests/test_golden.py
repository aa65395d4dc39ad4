"""Golden digest of the ``uniseq witness`` output.

The CLI runs in process over the builtin families, bounds 2 through 10,
seeds 0 through 2 and both formats, with a fixed sample count.  The sha256
of every exit code and stdout, concatenated in that order, must equal the
digest recorded when the matrix was first run, so a change to the witness
machine that alters any report byte, verdict or exit code fails here.
"""

import hashlib
import io
from contextlib import redirect_stdout

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
