"""Each output check accepts the program's real report and rejects a
deliberately corrupted copy of it.

Run from the root of a checkout with ``python3 -m pytest perfbench`` or
``python3 perfbench/test_checks.py``.
"""

import copy
import json
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, oracles, workloads  # noqa: E402
from perfbench.run import call  # noqa: E402
from uniseq.cli import main  # noqa: E402

WORKDIR = ROOT / "perfbench" / "out" / "test"


def report(job):
    rc, stdout, _ = call(main, job.argv)
    return checks.parse(job.command, job.fmt, stdout), rc


def rejected(job, corrupt, rc_delta=0):
    rep, rc = report(job)
    check = job.make_check()
    check(rep, rc)
    bad = copy.deepcopy(rep)
    corrupt(bad)
    try:
        check(bad, rc + rc_delta)
    except checks.CheckFailed:
        return True
    return False


def family_job(index):
    spec = [("lit", "aba"), ("pow", "aab", 2, 1), ("lit", "bab")]
    WORKDIR.mkdir(parents=True, exist_ok=True)
    path = WORKDIR / "family.json"
    workloads.write_family(spec, path)
    return workloads.family_jobs(spec, path, [3], ["json"] * 5)[index]


def test_closure_checks_reject_a_dropped_generator():
    job = workloads.builtin_job("closure", "alternating", 7, "json")
    assert rejected(job, lambda r: r["generators"].clear())
    assert rejected(job, lambda r: r.update(iterations=3))


def test_naive_closure_rejects_a_dropped_round_word():
    job = family_job(0)
    assert rejected(job, lambda r: r["rounds"][-1]["cross"].pop())


def test_closure_properties_reject_a_foreign_pool_word():
    job = family_job(1)
    assert rejected(job, lambda r: r["pool"].append("bbbbbbbbbbbb"))


def test_theorem_checks_reject_a_flipped_verdict():
    job = workloads.builtin_job("check-thm", "sierpinski", 6, "json")
    assert rejected(job, lambda r: r.update(verdict="fails"))
    assert rejected(job, lambda r: r["decompositions"][2].update(middle="ab"))
    assert rejected(workloads.builtin_job("decompose", "banach", 5, "text"),
                    lambda r: r["decompositions"].pop())


def test_theorem_check_rejects_a_redundant_generator():
    job = family_job(2)
    assert rejected(job, lambda r: r["generators"].append(r["generators"][0] * 2))


def test_corollary_checks_reject_a_dropped_violation():
    job = workloads.builtin_job("check-cor", "alternating", 6, "json")
    assert rejected(job, lambda r: r["violations"].pop(4))
    assert rejected(job, lambda r: r.update(verdict="holds"), rc_delta=-1)
    assert rejected(workloads.builtin_job("check-cor", "banach", 6, "json"),
                    lambda r: r.update(verdict="fails"), rc_delta=1)


def test_witness_checks_reject_a_wrong_count():
    job = workloads.builtin_witness_job("alternating", 3, 5, 2, "json")
    assert rejected(job, lambda r: r["checks"].update(append=r["checks"]["append"] - 5))
    assert rejected(job, lambda r: r["checks"].update(target=14))
    assert rejected(workloads.builtin_witness_job("banach", 3, 5, 2, "text"),
                    lambda r: r.update(verdict="fail"))
    assert rejected(family_job(4), lambda r: r["checks"].update(stacking=0))


def test_solve_checks_reject_a_wrong_map():
    rng = random.Random(5)
    job = workloads.solve_job(rng, 3, "sat", "json")

    def corrupt(r):
        r["witness"]["b"] = [(v + 1) % 3 for v in r["witness"]["b"]]
        r["witness"]["a"] = [(v + 1) % 3 for v in r["witness"]["a"]]

    assert rejected(job, corrupt)
    for kind in ("dup", "rank"):
        job = workloads.solve_job(rng, 3, kind, "json")
        assert rejected(job, lambda r: r.update(result="sat", witness={"a": [0] * 3, "b": [0] * 3}),
                        rc_delta=-1)


def test_blocks_checks_reject_merged_blocks():
    job = workloads.blocks_job(random.Random(2), 60, 2, "json")
    assert rejected(job, lambda r: r["blocks"].__setitem__(
        slice(0, 2), [sorted(r["blocks"][0] + r["blocks"][1])]))


def test_text_reports_parse_to_the_json_reports():
    jobs = [
        workloads.builtin_job("closure", "alternating", 4, "json"),
        workloads.builtin_job("check-thm", "alternating", 4, "json"),
        workloads.builtin_job("decompose", "banach", 4, "json"),
        workloads.builtin_job("check-cor", "alternating", 3, "json"),
        workloads.builtin_witness_job("alternating", 3, 4, 1, "json"),
        workloads.solve_job(random.Random(1), 3, "sat", "json"),
        workloads.blocks_job(random.Random(1), 30, 2, "json"),
    ]
    for job in jobs:
        rc, as_json, _ = call(main, job.argv)
        rc_text, as_text, _ = call(main, job.argv[:-1] + ["text"])
        assert rc == rc_text
        want = json.loads(as_json)
        got = checks.parse_text(job.command, as_text)
        assert {k: got[k] for k in want if k in got} == {
            k: v for k, v in want.items() if k in got}, job.argv
        assert set(want) - set(got) <= {"failure"}, job.argv
        assert set(got) - set(want) == {"format"}, job.argv


def test_shortest_overlap_matches_a_scan_of_every_length():
    rng = random.Random(7)
    for _ in range(2000):
        u = "".join(rng.choice("ab") for _ in range(rng.randint(1, 30)))
        v = "".join(rng.choice("ab") for _ in range(rng.randint(1, 30)))
        want = next((l for l in range(1, len(u)) if v.endswith(u[:l])), 0)
        assert oracles.shortest_overlap(u, v) == want, (u, v)


if __name__ == "__main__":
    failures = 0
    for name, test in sorted(globals().items()):
        if name.startswith("test_"):
            try:
                test()
                print(f"ok   {name}")
            except AssertionError as exc:
                failures += 1
                print(f"FAIL {name}: {exc!r}")
    sys.exit(1 if failures else 0)
