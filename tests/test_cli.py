import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from uniseq import cli
from uniseq.equations import MAX_SET_SIZE
from uniseq.families import MAX_BOUND
from uniseq.witness import MAX_SAMPLES, StackState, sample_states

REPO = Path(__file__).resolve().parent.parent


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run(
        [sys.executable, "-m", "uniseq", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        timeout=120,
    )


POWERS = {"alphabet": "ab", "templates": [[{"pow": {"base": "ab", "c": 1, "d": 0}}]]}


@pytest.fixture
def powers_file(tmp_path):
    """Family file for w_n = (ab)^n, which fails the split condition."""
    path = tmp_path / "powers.json"
    path.write_text(json.dumps(POWERS), encoding="utf-8")
    return str(path)


def run_main(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def lines(*rows):
    return "".join(row + "\n" for row in rows)


def test_closure_text(capsys):
    assert run_main(capsys, "closure", "alternating", "--bound", "3") == (0, lines(
        "command: closure",
        "family: alternating",
        "bound: 3",
        "generators: ab",
        "iterations: 2",
        "pool: '', ab",
        "round 1 repeated: '', ab",
        "round 1 cross: '', ab",
        "round 2 repeated: '', ab",
        "round 2 cross: '', ab",
    ))


def test_check_thm_text(capsys):
    assert run_main(capsys, "check-thm", "alternating", "--bound", "3") == (0, lines(
        "command: check-thm",
        "family: alternating",
        "bound: 3",
        "verdict: holds",
        "generators: ab",
        "decomposition 1: prefix=ab middle=aababb suffix=ab",
        "decomposition 2: prefix=ab middle=aabababb suffix=ab",
        "decomposition 3: prefix=ab middle=aababababb suffix=ab",
    ))


def test_check_cor_text_holding_and_failing(capsys, powers_file):
    assert run_main(capsys, "check-cor", "banach", "--bound", "3") == (0, lines(
        "command: check-cor",
        "family: banach",
        "bound: 3",
        "verdict: holds",
    ))
    assert run_main(capsys, "check-cor", powers_file, "--bound", "2") == (1, lines(
        "command: check-cor",
        f"family: {powers_file}",
        "bound: 2",
        "verdict: fails",
        "violation subword at 1,2: ab",
        "violation prefix-suffix-overlap at 2,1: ab",
        "violation prefix-suffix-overlap at 2,2: ab",
    ))


def test_decompose_text(capsys):
    assert run_main(capsys, "decompose", "alternating", "--bound", "2") == (0, lines(
        "command: decompose",
        "family: alternating",
        "bound: 2",
        "generators: ab",
        "decomposition 1: prefix=ab middle=aababb suffix=ab",
        "decomposition 2: prefix=ab middle=aabababb suffix=ab",
    ))


def test_witness_text_pass(capsys):
    argv = ("witness", "alternating", "--bound", "2", "--samples", "3", "--seed", "1")
    assert run_main(capsys, *argv) == (0, lines(
        "command: witness",
        "family: alternating",
        "bound: 2",
        "samples: 3",
        "seed: 1",
        "verdict: pass",
        "check target: 6",
        "check append: 36",
        "check agreement: 36",
        "check stacking: 6",
        "check firing_step: 6",
    ))


def test_witness_without_generators_names_the_checks_that_do_not_apply(capsys):
    argv = ("witness", "banach", "--bound", "2", "--samples", "3")
    assert run_main(capsys, *argv) == (0, lines(
        "command: witness",
        "family: banach",
        "bound: 2",
        "samples: 3",
        "seed: 0",
        "verdict: pass",
        "check target: 6",
        "check append: 0",
        "check agreement: 0",
        "check stacking: 6",
        "check firing_step: 6",
        "not applicable: append, agreement",
    ))
    code, out = run_main(capsys, *argv, "--format", "json")
    assert json.loads(out)["not_applicable"] == ["append", "agreement"]
    code, out = run_main(capsys, "witness", "alternating", "--bound", "2", "--samples", "3",
                         "--format", "json")
    assert "not_applicable" not in json.loads(out)


@pytest.fixture
def faulty_target(monkeypatch):
    """Target 2 answers the second sample of seed 1 with a state that breaks
    the canonical form (its stored top entry equals the tail), which no run
    of the machine ends in, so the target check must fail there."""
    real = cli.seeded_targets
    bad_input = sample_states(3, 1)[1]

    def patched(seed, count):
        targets = list(real(seed, count))
        good, bad_output = targets[1], tuple.__new__(StackState, ("b", ("b", "a")))
        targets[1] = lambda x: bad_output if x == bad_input else good(x)
        return tuple(targets)

    monkeypatch.setattr(cli, "seeded_targets", patched)


WITNESS_FAILURE = (
    '{"check": "target", "index": 2, '
    '"state": {"tail": "ba", "entries": ["y2", "Ab", "y7", "B"]}, '
    '"got": {"tail": "b", "entries": ["a"]}, '
    '"expected": {"tail": "b", "entries": ["b", "a"]}}'
)


def test_witness_fail_report(capsys, faulty_target):
    argv = ("witness", "alternating", "--bound", "2", "--samples", "3", "--seed", "1")
    assert run_main(capsys, *argv) == (1, lines(
        "command: witness",
        "family: alternating",
        "bound: 2",
        "samples: 3",
        "seed: 1",
        "verdict: fail",
        "check target: 4",
        "check append: 0",
        "check agreement: 0",
        "check stacking: 0",
        "check firing_step: 0",
        f"failure: {WITNESS_FAILURE}",
    ))
    assert run_main(capsys, *argv, "--format", "json") == (1, (
        '{"command": "witness", "family": "alternating", "bound": 2, "samples": 3, '
        '"seed": 1, "verdict": "fail", "checks": {"target": 4, "append": 0, "agreement": 0, '
        f'"stacking": 0, "firing_step": 0}}, "failure": {WITNESS_FAILURE}}}\n'
    ))


def test_witness_text_not_verified_lists_the_violations(capsys, powers_file):
    argv = ("witness", powers_file, "--bound", "3", "--samples", "5")
    assert run_main(capsys, *argv) == (1, lines(
        "command: witness",
        f"family: {powers_file}",
        "bound: 3",
        "samples: 5",
        "seed: 0",
        "verdict: not-verified",
        "reason: family fails the side conditions at bound 3",
        "violation split at 1: ab",
        "violation split at 2: abab",
        "violation split at 3: ababab",
    ))


def test_solve_text_sat_and_unsat(capsys):
    assert run_main(capsys, "solve", "-w", "a", "-t", "1,0") == (0, lines(
        "command: solve",
        "ground size: 2",
        "result: sat",
        "a: 1,0",
        "b: 0,0",
    ))
    assert run_main(capsys, "solve", "-w", "aa", "-t", "1,0") == (1, lines(
        "command: solve",
        "ground size: 2",
        "result: unsat",
    ))


def test_blocks_text(capsys):
    argv = ("blocks", "--ground", "1,2,3,4", "--perm", "[[1,2]]", "--perm", "[[3,3]]")
    assert run_main(capsys, *argv) == (0, lines(
        "command: blocks",
        "ground: 1, 2, 3, 4",
        "block: 1, 2",
        "block: 3",
        "block: 4",
    ))


def test_every_json_field_has_a_text_rendering(capsys, powers_file):
    commands = [
        ("closure", "alternating", "--bound", "3"),
        ("check-thm", "alternating", "--bound", "3"),
        ("check-thm", powers_file, "--bound", "2"),
        ("check-cor", powers_file, "--bound", "2"),
        ("decompose", powers_file, "--bound", "2"),
        ("witness", "alternating", "--bound", "2", "--samples", "3"),
        ("witness", "banach", "--bound", "2", "--samples", "3"),
        ("witness", powers_file, "--bound", "2", "--samples", "3"),
        ("solve", "-w", "a", "-t", "1,0"),
        ("solve", "-w", "aa", "-t", "1,0"),
        ("blocks", "--ground", "1,2", "--perm", "[[1,2]]"),
    ]
    for argv in commands:
        _, out = run_main(capsys, *argv, "--format", "json")
        missing = set(json.loads(out)) - set(cli.TEXT_LINES)
        assert not missing, (argv, missing)


def test_closure_reports_generators_and_rounds():
    result = run_cli("closure", "alternating", "--bound", "5", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["generators"] == ["ab"]
    assert payload["rounds"][0]["repeated"] == ["", "ab"]
    assert payload["rounds"][0]["cross"] == ["", "ab"]


def test_closure_accepts_family_files():
    result = run_cli("closure", "families/banach.json", "--bound", "4", "--format", "json")
    assert result.returncode == 0
    assert json.loads(result.stdout)["generators"] == []


def test_check_cor_holds_for_banach():
    result = run_cli("check-cor", "banach", "--bound", "10")
    assert result.returncode == 0
    assert "verdict: holds" in result.stdout


def test_check_thm_fails_for_alternating_powers(powers_file):
    result = run_cli("check-thm", powers_file, "--bound", "3", "--format", "json")
    assert result.returncode == 1
    payload = json.loads(result.stdout)
    assert payload["verdict"] == "fails"
    assert any(v["condition"] == "split" for v in payload["violations"])


def test_decompose_lists_the_splits():
    result = run_cli("decompose", "alternating", "--bound", "3", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["decompositions"][0] == {
        "n": 1,
        "prefix": "ab",
        "middle": "aababb",
        "suffix": "ab",
    }


def test_witness_passes_and_is_byte_deterministic():
    first = run_cli("witness", "alternating", "--bound", "3", "--samples", "20", "--format", "json")
    second = run_cli("witness", "alternating", "--bound", "3", "--samples", "20", "--format", "json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    payload = json.loads(first.stdout)
    assert payload["verdict"] == "pass"
    assert payload["checks"]["target"] == 60


def test_solve_reports_unsat_with_exit_one():
    result = run_cli("solve", "-w", "aa", "-t", "1,0")
    assert result.returncode == 1
    assert "result: unsat" in result.stdout


def test_solve_reports_sat_with_exit_zero():
    result = run_cli("solve", "-w", "a", "-t", "1,0", "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["result"] == "sat"
    assert payload["witness"]["a"] == [1, 0]


def test_blocks_partition_output():
    result = run_cli(
        "blocks", "--ground", "1,2,3,4", "--perm", "[[1,2]]", "--format", "json"
    )
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert payload["blocks"] == [[1, 2], [3], [4]]


def test_unknown_family_is_a_usage_error():
    result = run_cli("closure", "nonexistent")
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_bad_alphabet_file_is_a_usage_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": "abc", "templates": [[{"lit": "a"}]]}))
    result = run_cli("check-cor", str(path))
    assert result.returncode == 2
    assert "alphabet" in result.stderr


def test_bad_exponent_file_is_a_usage_error(tmp_path):
    doc = {"alphabet": "ab", "templates": [[{"pow": {"base": "a", "c": -1, "d": 1}}]]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = run_cli("check-thm", str(path))
    assert result.returncode == 2


def test_segment_neither_lit_nor_pow_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"alphabet": "ab", "templates": [[{"foo": 1}]]}))
    code = cli.main(["closure", str(path)])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("error: templates[0][0]: ")


@pytest.mark.parametrize(
    "perm", ["[[1,2],[1,3]]", "[[[1],2]]", "[[true,2]]", "[[1,2.0]]", '[[1,{"a":2}]]']
)
def test_perm_that_is_not_a_partial_function_is_a_usage_error(capsys, perm):
    code = cli.main(["blocks", "--ground", "1,2,3", "--perm", perm])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith(f"error: perm {perm!r}")


def test_ground_that_lists_a_point_twice_is_a_usage_error(capsys):
    code = cli.main(["blocks", "--ground", "1,1,2", "--perm", "[[1,2]]"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: ground '1,1,2' lists a point twice\n"


def test_deeply_nested_json_is_a_usage_error(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    deep = "[" * 1000
    assert cli.main(["closure", str(path)]) == 2
    assert cli.main(["blocks", "--ground", "1,2", "--perm", deep]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: {path}: JSON nested too deeply",
        f"error: perm {deep!r} is nested too deeply",
    ]


@pytest.mark.parametrize(
    "content, message",
    [
        (b'\xff\xfe{"alphabet": "ab"}', "not UTF-8 text"),
        (
            b'{"alphabet": "ab", "templates": [[{"pow": {"base": "ab", "c": '
            + b"7" * 5000 + b', "d": 0}}]]}',
            "an integer has too many digits",
        ),
    ],
    ids=["not-utf8", "long-integer"],
)
def test_unreadable_family_file_is_a_usage_error_naming_the_file(capsys, tmp_path, content, message):
    path = tmp_path / "f.json"
    path.write_bytes(content)
    code = cli.main(["closure", str(path), "--bound", "3"])
    assert (code, *capsys.readouterr()) == (2, "", f"error: {path}: {message}\n")


def test_perm_with_a_long_integer_is_a_usage_error_naming_the_option(capsys):
    perm = "[[1," + "9" * 5000 + "]]"
    code = cli.main(["blocks", "--ground", "1,2", "--perm", perm])
    assert (code, *capsys.readouterr()) == (
        2, "", "error: --perm: an integer has too many digits\n"
    )


@pytest.mark.parametrize(
    "argv, option",
    [
        (["blocks", "--ground", "1," + "9" * 5000], "--ground"),
        (["solve", "-w", "a", "-t", "0," + "9" * 5000], "--target"),
    ],
    ids=["ground", "target"],
)
def test_comma_separated_long_integer_is_a_usage_error_naming_the_option(capsys, argv, option):
    code = cli.main(argv)
    assert (code, *capsys.readouterr()) == (
        2, "", f"error: {option}: an integer has too many digits\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        "solve -w a --target=--",
        "blocks --ground=--",
        "blocks --ground 1 --perm=--",
        "closure banach --bound=--",
        "witness banach --samples=--",
        "solve -w a -t 0 --max-set-size=--",
        "witness banach --seed=--",
        "closure banach --format=--",
    ],
)
def test_the_option_value_double_dash_is_a_usage_error(capsys, argv):
    code = cli.main(argv.split())
    assert (code, *capsys.readouterr()) == (2, "", "error: '--' is not a valid option value\n")


@pytest.mark.parametrize("samples", [0, -5, MAX_SAMPLES + 1])
def test_witness_sample_count_out_of_range_is_a_usage_error(capsys, samples):
    code = cli.main(["witness", "banach", "--samples", str(samples)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")


def test_max_set_size_above_the_hard_limit_is_a_usage_error(capsys):
    code = cli.main(["solve", "-w", "a", "-t", "0", "--max-set-size", str(MAX_SET_SIZE + 1)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert "exceeds the hard limit" in err


@pytest.mark.parametrize("command", ["closure", "check-cor", "witness"])
def test_bound_above_the_cap_is_a_usage_error(capsys, command):
    code = cli.main([command, "banach", "--bound", str(MAX_BOUND + 1)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err == f"error: bound {MAX_BOUND + 1} exceeds the cap {MAX_BOUND}\n"


@pytest.mark.parametrize("command", ["closure", "check-cor", "witness"])
def test_family_longer_than_the_letter_cap_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(
        {"alphabet": "ab", "templates": [[{"pow": {"base": "ab", "c": 1000000, "d": 0}}]]}
    ))
    code = cli.main([command, str(path), "--bound", str(MAX_BOUND)])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "letters" in err


def _limit_memory():
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))


@pytest.mark.parametrize("command, verdict", [("check-thm", "fails"), ("witness", "not-verified")])
def test_two_long_words_are_checked_in_bounded_time_and_memory(tmp_path, command, verdict):
    # ab R ab and ba R ab with a random core R of L = 2,000 letters: the
    # full closure's pool holds about L^2/2 words, but the repeated
    # factors of its second round already hold both letters, so these
    # commands, which read only the generators, skip its cross factors.
    rng = random.Random(2000)
    core = "".join(rng.choice("ab") for _ in range(2000))
    path = tmp_path / "long-core.json"
    path.write_text(json.dumps(
        {"alphabet": "ab", "templates": [[{"lit": "ab" + core + "ab"}], [{"lit": "ba" + core + "ab"}]]}
    ))
    result = subprocess.run(
        [sys.executable, "-m", "uniseq", command, str(path), "--bound", "2", "--format", "json"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        timeout=10,
        preexec_fn=_limit_memory,
    )
    assert result.returncode == 1, result.stderr
    report = json.loads(result.stdout)
    assert report["verdict"] == verdict
    assert [v["condition"] for v in report["violations"]] == ["split", "split"]


def test_bound_below_two_is_rejected_for_checks():
    result = run_cli("check-thm", "banach", "--bound", "1")
    assert result.returncode == 2


def test_text_and_json_formats_agree_on_the_verdict():
    text = run_cli("check-cor", "sierpinski", "--bound", "6")
    data = run_cli("check-cor", "sierpinski", "--bound", "6", "--format", "json")
    assert text.returncode == data.returncode == 0
    assert "verdict: holds" in text.stdout
    assert json.loads(data.stdout)["verdict"] == "holds"
