"""CLI dispatch, JSON output shape, determinism, and exit codes."""

import argparse
import contextlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction as F

import jsonschema
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import padicdyn.cli as cli
from padicdyn import ExactField, MonicPoly
from padicdyn.cli import (EXIT_CHECK_FAILED, EXIT_DOMAIN, EXIT_OK, EXIT_USAGE,
                          JobSpec, build_parser, is_prime, job_from_args, run)

ROOT = pathlib.Path(__file__).parent.parent
SCHEMA = json.loads((ROOT / "docs" / "schema.json").read_text())


def run_cli(argv):
    args = build_parser().parse_args(argv)
    job = job_from_args(args)
    return run(job)


def validate(doc):
    jsonschema.validate(doc, SCHEMA)
    # series and element payloads against their sub-schemas
    resolver = {"definitions": SCHEMA["definitions"]}
    for key in ("omega", "omega_inverse"):
        if key in doc["results"]:
            jsonschema.validate(
                doc["results"][key],
                {**SCHEMA["definitions"]["series"], **resolver})


def test_cf_example():
    doc, status = run_cli(["cf", "--prime", "5", "--poly", "1/5,0,1"])
    assert status == EXIT_OK
    assert doc["results"] == {"cf_valuation": "-1/2", "good_reduction": False}
    validate(doc)


def test_boettcher_example_coefficients():
    doc, status = run_cli(["boettcher", "--prime", "5", "--poly", "3,0,1",
                           "--order", "8", "--backend", "exact"])
    assert status == EXIT_OK
    coeffs = [c["rational"] for c in doc["results"]["omega"]["coeffs"]]
    assert coeffs[:5] == ["1", "0", "-3/2", "0", "21/8"]
    assert doc["results"]["omega"]["ord"] == 1
    validate(doc)


def test_verify_example():
    doc, status = run_cli(["verify", "--prime", "7", "--poly", "2,1,0,1",
                           "--order", "32"])
    assert status == EXIT_OK
    assert doc["results"]["verified_order"] == 32
    validate(doc)


def test_newton_polygon_output():
    doc, status = run_cli(["newton-polygon", "--prime", "5",
                           "--poly=-5,0,1"])
    assert status == EXIT_OK
    res = doc["results"]
    assert res["segments"] == [{"slope": "-1/2", "length": 2}]
    assert res["certificate"]["ramification_index"] == 2
    validate(doc)


def test_escape_command():
    doc, status = run_cli(["escape", "--prime", "5", "--poly", "3,0,1",
                           "--point", "1/5"])
    assert status == EXIT_OK
    assert doc["results"]["status"] == "escapes"
    assert doc["results"]["certified"] is True


def test_degrees_command():
    doc, status = run_cli(["degrees", "--prime", "3", "--poly", "1,0,1",
                           "--point", "1/3", "--levels", "3"])
    assert status == EXIT_OK
    levels = doc["results"]["levels"]
    assert [rec["certified_degree"] for rec in levels] == [2, 4, 8]
    assert doc["results"]["v_q"] == 1
    validate(doc)


def test_kummer_command():
    doc, status = run_cli(["kummer", "--d", "2", "--N", "3",
                           "--generators", "0,3"])
    assert status == EXIT_OK
    assert doc["results"]["orbits"] == 5
    assert doc["results"]["group_order"] == 8 * 4
    validate(doc)


def test_transport_command():
    doc, status = run_cli(["transport", "--prime", "5", "--poly", "0,0,1",
                           "--point", "1/5", "--ext=-5,0,1",
                           "--ext-point", "0,1/5", "--order", "12"])
    assert status == EXIT_OK
    assert doc["results"]["passed"] is True
    validate(doc)


def test_verify_with_sampled_points_deterministic():
    argv = ["verify", "--prime", "5", "--poly", "3,0,1", "--order", "16",
            "--points", "5", "--seed", "7"]
    doc1, _ = run_cli(argv)
    doc2, _ = run_cli(argv)
    text1 = json.dumps(doc1, sort_keys=True)
    text2 = json.dumps(doc2, sort_keys=True)
    assert text1 == text2
    assert all(s["passed"] for s in doc1["results"]["sampled_points"])


def test_round_trip_jobspec():
    doc, _ = run_cli(["boettcher", "--prime", "5", "--poly", "3,0,1",
                      "--order", "8"])
    job = JobSpec.from_json(doc["inputs"])
    doc2, status = run(job)
    assert status == EXIT_OK
    assert json.dumps(doc2, sort_keys=True) == json.dumps(doc, sort_keys=True)


def test_usage_errors(monkeypatch, capsys, tmp_path):
    job = JobSpec(command="cf", prime=6, poly=("1", "1"))
    with pytest.raises(Exception):
        run(job)
    from padicdyn.cli import main
    cases = [  # argv, environment variable, what stderr must name
        (["cf", "--prime", "6", "--poly", "1,1"], None, "--prime"),
        (["cf", "--prime", "5", "--poly", "1,2"], None, "--poly"),
        ([], None, ""),
        (["cf", "--prime", "5", "--poly=1/0,1"], None, "--poly"),
        (["boettcher", "--prime", "5", "--poly=abc,1"], None, "--poly"),
        (["escape", "--prime", "5", "--poly", "3,0,1", "--point", "1/0"],
         None, "--point"),
        (["kummer", "--d", "2", "--N", "2", "--generators", "1"], None,
         "--generators"),
        # a non-unit generator is a usage error even when over budget
        (["kummer", "--d", "2", "--N", "3", "--generators", "0,2"],
         ("PADICDYN_MAX_ORBIT", "4"), "second component 2"),
        (["boettcher", "--prime", "5", "--poly", "3,0,1", "--order", "8"],
         ("PADICDYN_MAX_ORDER", "x"), "PADICDYN_MAX_ORDER"),
        # negative counts would make their checks pass vacuously
        (["verify", "--prime", "5", "--poly", "3,0,1", "--points", "-2"],
         None, "--points"),
        (["escape", "--prime", "5", "--poly", "3,0,1", "--point", "1/5",
          "--max-iter", "-3"], None, "--max-iter"),
        (["degrees", "--prime", "3", "--poly", "1,0,1", "--point", "1/3",
          "--levels", "-1"], None, "--levels"),
        (["degrees", "--prime", "3", "--poly", "1,0,1", "--point", "1/3",
          "--levels", "0"], None, "--levels"),
        # an empty field is malformed, never skipped or read as absent
        (["cf", "--prime", "5", "--poly="], None, "--poly"),
        (["boettcher", "--prime", "5", "--poly="], None, "--poly"),
        (["verify", "--prime", "5", "--poly="], None, "--poly"),
        (["escape", "--prime", "5", "--poly=", "--point", "1/5"], None,
         "--poly"),
        (["degrees", "--prime", "3", "--poly=", "--point", "1/3"], None,
         "--poly"),
        (["cf", "--prime", "5", "--poly=1,,0,1"], None, "--poly"),
        (["transport", "--prime", "5", "--poly=", "--point", "1/5",
          "--ext=-5,0,1", "--ext-point", "0,1/5"], None, "--poly"),
        (["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
          "--ext=1", "--ext-point", "0,1/5"], None, "--ext needs"),
        (["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
          "--ext=-5,0,1", "--ext-point", "0,,1/5"], None, "--ext-point"),
        (["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
          "--ext=-5,0,1", "--ext-point="], None, "--ext-point"),
        # one coordinate per power of the generator below the degree
        (["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
          "--ext=-5,0,1", "--ext-point", "1/5"], None, "--ext-point"),
        (["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
          "--ext=-5,0,1", "--ext-point", "0,1/5,1"], None, "--ext-point"),
        # an output file that cannot be opened, never a traceback
        (["cf", "--prime", "5", "--poly", "3,0,1", "--output",
          str(tmp_path / "missing" / "x.json")], None, "--output"),
        (["cf", "--prime", "5", "--poly", "3,0,1", "--output",
          str(tmp_path)], None, "--output"),
    ]
    for argv, env, named in cases:
        with monkeypatch.context() as patch:
            if env is not None:
                patch.setenv(*env)
            assert main(argv) == EXIT_USAGE, argv
        out, err = capsys.readouterr()
        assert out == "", argv
        assert named in err, (argv, err)


def test_domain_error_exit_code():
    from padicdyn.cli import main
    # degree divisible by the residue characteristic
    assert main(["boettcher", "--prime", "5", "--poly", "1,0,0,0,0,1",
                 "--order", "8"]) == EXIT_DOMAIN
    # an exact orbit 5^-21-close to the repelling fixed point 6/5: its
    # iterates double in size until they pass PADICDYN_MAX_COEFF_BITS
    assert main(["escape", "--prime", "5", "--poly=0,-1/5,1",
                 f"--point={6 + 5 ** 21}/5", "--max-iter", "40"]) == EXIT_DOMAIN


def test_byte_identical_output(tmp_path):
    from padicdyn.cli import main
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    argv = ["boettcher", "--prime", "3", "--poly", "1,1,1",
            "--order", "12", "--seed", "3"]
    assert main(argv + ["--output", str(out1)]) == EXIT_OK
    assert main(argv + ["--output", str(out2)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_is_prime():
    limit = 10 ** 5
    sieve = bytearray([0, 0]) + bytearray([1]) * (limit - 2)
    for k in range(2, math.isqrt(limit) + 1):
        if sieve[k]:
            sieve[k * k::k] = bytes(len(range(k * k, limit, k)))
    assert [n for n in range(-3, limit) if is_prime(n)] == [
        n for n in range(limit) if sieve[n]]
    assert is_prime(2 ** 31 - 1)
    # Carmichael numbers and the bound itself
    assert not any(map(is_prime, (561, 1105, 2 ** 30, 2 ** 31)))


def test_every_parser_flag_is_a_job_field():
    """argparse holds the flags and JobSpec the fields and defaults: every
    flag but --help and --output names a field, and a job given only its
    required flags has every other field at JobSpec's default."""
    fields = set(JobSpec._fields)
    sample = {  # dest: (flag text, field value)
        "prime": ("5", 5), "d": ("2", 2), "N": ("3", 3),
        "point": ("1/5", "1/5"), "poly": ("3,0,1", ("3", "0", "1")),
        "ext": ("-5,0,1", ("-5", "0", "1")),
        "ext_point": ("0,1/5", ("0", "1/5"))}
    own_defaults = {"verify": {"order": 32}}
    parser = build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    assert set(commands) == set(cli._RUNNERS)
    for command, sp in commands.items():
        dests = {action.dest for action in sp._actions} - {"help", "output"}
        assert dests <= fields, (command, dests - fields)
        required = [action for action in sp._actions if action.required]
        argv = [command] + [f"{action.option_strings[0]}="
                            f"{sample[action.dest][0]}" for action in required]
        want = JobSpec(command=command, **own_defaults.get(command, {}),
                       **{action.dest: sample[action.dest][1]
                          for action in required})
        assert job_from_args(parser.parse_args(argv)) == want, argv


def test_small_flag_values_exit_with_a_documented_code(capsys):
    """Each flag of each subcommand that takes a value (all but --help,
    --output and the switches) set to 0, 1, 2, -1 and a non-number, the
    required flags from one sample: every job exits 0, 2, 3 or 4 and
    none raises."""
    sample = {"--prime": "5", "--poly": "3,1/5,1", "--point": "1/5",
              "--d": "2", "--N": "2", "--ext": "-5,0,1",
              "--ext-point": "0,1/5"}
    codes = []
    for command, sp in build_parser().commands.items():
        flags = [action for action in sp._actions if action.option_strings
                 and action.nargs != 0 and action.dest != "output"]
        required = [action.option_strings[0] for action in flags
                    if action.required]
        for action in flags:
            flag = action.option_strings[0]
            for value in ("0", "1", "2", "-1", "x"):
                argv = [command] + [f"{other}={sample[other]}"
                                    for other in required if other != flag]
                codes.append(cli.main(argv + [f"{flag}={value}"]))
                capsys.readouterr()
    assert len(codes) == 250
    assert set(codes) <= {EXIT_OK, EXIT_USAGE, EXIT_DOMAIN,
                          EXIT_CHECK_FAILED}, sorted(set(codes))


def test_latex_emission():
    doc, _ = run_cli(["boettcher", "--prime", "5", "--poly", "3,0,1",
                      "--order", "6", "--emit-latex"])
    assert "omega_latex" in doc["results"]
    assert "frac" in doc["results"]["omega_latex"]


def test_check_failure_exit_code(monkeypatch):
    # force a failing check through the dispatch table to cover exit 4
    def broken(job, parsed):
        return {"stub": True}, [{"name": "stub-check", "passed": False}]

    monkeypatch.setitem(cli._RUNNERS, "cf", broken)
    doc, status = run(JobSpec(command="cf", prime=5, poly=("1", "0", "1")))
    assert status == EXIT_CHECK_FAILED
    assert doc["checks"][0]["passed"] is False


def test_degrees_single_term_polygon_reads_uncertified():
    # f(x) - P = x^2 has one nonzero coefficient: every root is 0, so no
    # certificate, and the job still exits 0
    doc, status = run_cli(["degrees", "--prime", "3", "--poly", "1/3,0,1",
                           "--point", "1/3", "--levels", "2"])
    assert status == EXIT_OK
    assert [r["certified_degree"] for r in doc["results"]["levels"]] == [
        "uncertified", "uncertified"]
    validate(doc)
    # the polygon of a single term stays a usage error on its own
    from padicdyn.cli import main
    assert main(["newton-polygon", "--prime", "3", "--poly", "0,0,1"]) == \
        EXIT_USAGE


def test_degrees_exit_codes_with_and_without_the_series(monkeypatch, capsys):
    import padicdyn.arboreal as arboreal
    from padicdyn import boettcher_series, transported_valuation
    from padicdyn.cli import main

    builds = []
    build = arboreal.conjugacy

    def counted(f, order):
        builds.append(order)
        return build(f, order)

    monkeypatch.setattr(arboreal, "conjugacy", counted)
    good = ["degrees", "--prime", "3", "--poly", "1,0,1", "--point", "1/3"]
    cases = [  # argv, environment variable, exit code
        (["degrees", "--prime", "2", "--poly", "1,0,1", "--point", "1/2"],
         None, EXIT_DOMAIN),                         # p divides d
        (good + ["--order", "1"], None, EXIT_USAGE),
        (good + ["--order", "600"], None, EXIT_DOMAIN),   # over the budget
        (good + ["--order", "8"], ("PADICDYN_MAX_ORDER", "4"), EXIT_DOMAIN),
        (good[:-1] + ["3", "--order", "8"], None, EXIT_DOMAIN),  # unit disk
        (good + ["--order", "8"], None, EXIT_OK),
    ]
    for argv, env, code in cases:
        with monkeypatch.context() as patch:
            if env is not None:
                patch.setenv(*env)
            assert main(argv) == code, argv
    capsys.readouterr()
    # only the unit-disk point reads omega: good reduction with v(P) < 0
    # gives v_q = -v(P) without a series
    assert builds == [8]

    # bad reduction: omega is built, and v_q is what it transports
    builds.clear()
    doc, status = run_cli(["degrees", "--prime", "5", "--poly=-1/5,0,1",
                           "--point", "1/25", "--levels", "2",
                           "--order", "16"])
    assert status == EXIT_OK and builds == [16]
    f = MonicPoly(ExactField(5), [F(-1, 5), 0])
    assert doc["results"]["v_q"] == transported_valuation(
        boettcher_series(f, 16), F(1, 25)) == 2


def test_only_boettcher_builds_the_inverse(monkeypatch):
    import padicdyn.boettcher as boettcher

    inverses = []
    build = boettcher._omega_inverse

    def counted(f, order):
        inverses.append(order)
        return build(f, order)

    monkeypatch.setattr(boettcher, "_omega_inverse", counted)
    jobs = [  # argv, _omega_inverse calls
        (["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
          "--ext=-5,0,1", "--ext-point", "0,1/5", "--order", "12"], []),
        (["verify", "--prime", "5", "--poly", "3,1/5,1", "--order", "12",
          "--points", "2"], []),
        (["degrees", "--prime", "5", "--poly=-1/5,0,1", "--point", "1/25",
          "--levels", "2", "--order", "16"], []),     # bad reduction
        (["boettcher", "--prime", "5", "--poly", "3,0,1", "--order", "10"],
         [10]),
    ]
    for argv, calls in jobs:
        inverses.clear()
        doc, status = run_cli(argv)
        assert status == EXIT_OK, argv
        assert inverses == calls, argv
    assert "omega_inverse" in doc["results"]


def test_recorded_outputs_of_all_workloads_are_reproduced():
    # every entry of perfbench/expected.json, rebuilt and compared byte
    # for byte; the script writes nothing.  The 400 capped and exact
    # conjugacy-batch maps run the Newton paths of every build
    probe = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "check_expected.py")],
        capture_output=True, text=True, timeout=300)
    assert probe.returncode == 0, probe.stderr[-2000:]
    summary = json.loads(probe.stdout)
    assert summary["conjugacy-batch"]["entries"] == 400
    assert summary["cli-jobs"]["entries"] == 663
    assert summary["order-scaling"]["entries"] == 9


def test_degrees_at_point_zero_exits_domain(capsys):
    # omega is read at P = 0, that is w = infinity: refused as outside
    # the certified domain, not a ZeroDivisionError traceback
    from padicdyn.cli import main
    for argv in (["degrees", "--prime", "5", "--poly=2,1/2,0,1", "--order",
                  "3", "--point=0"],
                 ["degrees", "--prime", "3", "--poly", "1,0,1", "--point",
                  "0"]):
        assert main(argv) == EXIT_DOMAIN, argv
        out, err = capsys.readouterr()
        assert out == "" and "outside certified domain" in err
        assert "Traceback" not in err


def test_closed_form_degrees_jobs_build_no_iterate_and_no_polygon(
        monkeypatch, capsys):
    """Under good reduction with v(P) < 0 a level within the budgets is
    certified in closed form: with the composition of iterates and the
    polygon patched to raise, a job still prints the bytes it printed
    when both ran (sha256 of the stdout of the polygon route), and 60000
    levels print theirs within 5 s."""
    import hashlib

    import padicdyn.arboreal as arboreal
    import padicdyn.boettcher as boettcher
    from padicdyn.cli import main

    def unbuilt(*args):
        raise AssertionError("iterate or polygon built")

    monkeypatch.setattr(boettcher, "_compose_flat", unbuilt)
    monkeypatch.setattr(arboreal, "polygon_of", unbuilt)
    jobs = [  # argv, certified degrees, sha256 of stdout
        (["--prime", "5", "--poly=1,1/2,0,1", "--point=1/5", "--levels",
          "5"], [3, 9, 27, "uncertified", "uncertified"],
         "35c9f17121019e1c0daef37d968bc32c5a1e1236e5b0c727adfa4892f6b61f94"),
        (["--prime", "3", "--poly=1,0,1", "--point=2/9", "--levels", "4"],
         ["uncertified"] * 4,    # k = 2 shares a factor with d = 2
         "47f713a2124abe67540512958b11082503c022593bec0cb411b22fd0abddbbeb"),
    ]
    for argv, degrees, digest in jobs:
        assert main(["degrees", *argv]) == EXIT_OK, argv
        out = capsys.readouterr().out
        assert [r["certified_degree"] for r in json.loads(out)["results"][
            "levels"]] == degrees
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "padicdyn.cli", "degrees", "--prime", "3",
         "--poly=1,0,1", "--point=1/3", "--levels", "60000"],
        env=env, capture_output=True, timeout=5)
    assert proc.returncode == EXIT_OK
    assert hashlib.sha256(proc.stdout).hexdigest() == (
        "31e78ffc9dce2979120288fe67972ca0cd2e81e08a888e505f96b4c01be5009f")


def test_parser_is_built_once_and_not_at_import():
    assert build_parser() is build_parser()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    probe = subprocess.run(
        [sys.executable, "-c", "import padicdyn.cli as cli; "
         "print(cli.build_parser.cache_info().currsize)"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert probe.stdout.strip() == "0"


def test_shared_parser_leaks_nothing_between_jobs(monkeypatch, capsys):
    """Jobs run one after another in one process give, job by job, the
    exit code and stdout that each gives in a process of its own."""
    from padicdyn.cli import main

    monkeypatch.setenv("COLUMNS", "80")   # one help width on both sides
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    boettcher = ["boettcher", "--prime", "5", "--poly", "3,0,1",
                 "--order", "6"]
    jobs = [
        boettcher + ["--emit-latex"],
        boettcher,                                     # no latex leaks in
        ["--help"],
        ["cf", "--prime", "5", "--poly=abc,1"],        # malformed: exit 2
        ["cf", "--prime", "5", "--poly", "1/5,0,1"],
        ["verify", "--prime", "5", "--poly", "3,0,1", "--order", "8",
         "--points", "2", "--seed", "3"],
        boettcher + ["--backend", "capped", "--precision", "12"],
        ["kummer", "--d", "2", "--N", "2", "--generators", "1,1"],
        ["boettcher", "--prime", "5", "--order", "6"],  # no --poly: exit 2
        ["degrees", "--prime", "3", "--poly", "1,0,1", "--point", "1/3",
         "--levels", "2"],
        ["--help"],
        ["newton-polygon", "--prime", "3", "--poly", "3,1,1"],
        boettcher,
        ["transport", "--prime", "5", "--poly", "0,0,1", "--point", "1/5",
         "--ext=-5,0,1", "--ext-point", "0,1/5", "--order", "8"],
    ]
    together = []
    for argv in jobs:
        code = main(argv)
        together.append((code, capsys.readouterr().out))
    alone = []
    for argv in jobs:
        proc = subprocess.run([sys.executable, "-m", "padicdyn.cli", *argv],
                              capture_output=True, text=True, timeout=120)
        alone.append((proc.returncode, proc.stdout))
    for argv, got, want in zip(jobs, together, alone):
        assert got == want, argv
    codes = [code for code, _ in together]
    assert codes == [0, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0]
    assert "omega_latex" in together[0][1]
    assert "omega_latex" not in together[1][1]
    assert together[2] == together[10] and "usage: padicdyn" in together[2][1]
    assert together[1] == together[12]


def test_transport_lifts_a_capped_stage_to_its_cap(capsys):
    # the generator images are lifted to max(--precision, 16) digits, but
    # over a capped base never past the cap: a capped element holds no
    # more, so a pure cubic or quartic stage passes at every cap 5-15
    from padicdyn.cli import main
    stages = (["--prime", "7", "--poly=0,0,0,1", "--point=1/7",
               "--ext=-7,0,0,1", "--ext-point=0,0,1/7"],
              ["--prime", "5", "--poly=0,0,0,0,1", "--point=1/5",
               "--ext=-5,0,0,0,1", "--ext-point=0,0,0,1/5"])
    for stage in stages:
        for precision in range(5, 17):
            for order in ("8", "12", "16"):
                argv = ["transport", *stage, "--backend", "capped",
                        "--precision", str(precision), "--order", order]
                assert main(argv) == EXIT_OK, argv
    capsys.readouterr()
    # where deflating by an approximate root costs digits, a lift to the
    # cap falls short: that is a precision refusal (exit 3), not a bug
    argv = ["transport", "--prime", "13", "--poly=0,1/14,1/14,1/14,1",
            "--point=-1/182", "--ext=182,13,13,13,1",
            "--ext-point=-1/14,-1/14,-1/14,-1/182", "--order", "8",
            "--backend", "capped", "--precision", "8"]
    assert main(argv) == EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert out == "" and "target precision exceeds" in err
    assert "Traceback" not in err


def test_each_rational_text_is_parsed_once(monkeypatch, capsys):
    """``validate`` parses --poly, --point, --ext and --ext-point, and
    the runners read its tuples: one ``parse_rational`` call per text."""
    texts = []
    real = cli.parse_rational
    monkeypatch.setattr(cli, "parse_rational",
                        lambda text, flag: texts.append(text) or
                        real(text, flag))
    poly = ["--prime", "5", "--poly=3,1/5,1"]
    jobs = (["cf", *poly], ["boettcher", *poly, "--order", "8"],
            ["verify", *poly, "--order", "8"], ["newton-polygon", *poly],
            ["escape", *poly, "--point=1/5"],
            ["degrees", "--prime", "3", "--poly=1/3,0,1", "--point=1/3",
             "--levels", "2"],
            ["transport", "--prime", "7", "--poly=0,0,0,1", "--point=1/7",
             "--ext=-7,0,0,1", "--ext-point=0,0,1/7", "--order", "8"])
    for argv in jobs:
        texts.clear()
        assert cli.main(argv) == EXIT_OK, argv
        job = cli.job_from_args(cli.parse_args(argv))
        point = () if job.point is None else (job.point,)
        assert texts == [*job.poly, *point, *job.ext, *job.ext_point], argv
    capsys.readouterr()


def test_exact_transport_lift_stops_at_the_coefficient_budget(
        monkeypatch, capsys):
    # over exact Q_13 the Newton iterates for the other roots of
    # x^4 + 13x^3 + 13x^2 + 13x + 182 keep every digit and grow without
    # bound; the lift holds them to PADICDYN_MAX_COEFF_BITS and exits 3
    monkeypatch.setenv("PADICDYN_MAX_COEFF_BITS", "2000")
    argv = ["transport", "--prime", "13", "--poly=0,1/14,1/14,1/14,1",
            "--point=-1/182", "--ext=182,13,13,13,1",
            "--ext-point=-1/14,-1/14,-1/14,-1/182", "--order", "8"]
    assert cli.main(argv) == EXIT_DOMAIN
    out, err = capsys.readouterr()
    assert out == "" and "coefficient size exceeds the budget" in err
    assert "Traceback" not in err


def test_integers_past_the_int_to_str_limit_exit_by_their_budget(capsys):
    # 2^20000, 2^14300 and the exact omega of z^2 + c, c of 3000 digits,
    # each pass Python's 4300-digit int-to-str limit: kummer names sizes
    # as d^N (a non-unit generator stays a usage error over budget), a
    # degrees level past the degree budget reads "uncertified", and a
    # rational too long to print is refused, all without a traceback
    big = f"--poly={'3' * 3000},0,1"
    for argv, code, message in (
            (["kummer", "--d", "2", "--N", "20000", "--generators", "1,1"],
             EXIT_DOMAIN, "label set of size 2^20000 exceeds the budget"),
            (["kummer", "--d", "2", "--N", "20000", "--generators", "0,2"],
             EXIT_USAGE, "second component 2 is not invertible mod 2^20000"),
            (["boettcher", "--prime", "5", big, "--order", "16"],
             EXIT_DOMAIN, "digits exceeds the print limit"),
            (["boettcher", "--prime", "5", big, "--order", "16",
              "--emit-latex"], EXIT_DOMAIN, "digits exceeds the print limit")):
        assert cli.main(argv) == code, argv[:5]
        out, err = capsys.readouterr()
        assert out == "" and message in err and "Traceback" not in err
    assert cli.main(["degrees", "--prime", "3", "--poly=1,0,1",
                     "--point=1/3", "--levels", "14300"]) == EXIT_OK
    levels = json.loads(capsys.readouterr().out)["results"]["levels"]
    assert [r["certified_degree"] for r in levels[5:7]] == [64, "uncertified"]
    assert levels[-1] == {"n": 14300, "predicted_step": 2,
                          "certified_degree": "uncertified"}
    # the LaTeX form reads each rational through the same refusal
    f = MonicPoly(ExactField(5), [F(int("3" * 3000)), 0])
    with pytest.raises(cli.BudgetError, match="print limit"):
        cli.series_latex(cli.conjugacy(f, 16).omega)


def test_transport_with_a_euclid_remainder_lost_to_precision_exits_3(capsys):
    # at 3 digits an inverse in x^4 + 7x - 7 meets a remainder that is
    # indistinguishable from zero; every stage is irreducible, so that
    # is precision running out (exit 3), as it is at 6 digits, not a
    # zero divisor (exit 2)
    from padicdyn.cli import main
    for precision in ("3", "6"):
        argv = ["transport", "--prime", "7", "--poly", "0,1/49,0,0,1",
                "--point", "1/343", "--ext=-7,7,0,0,1",
                "--ext-point", "0,1/7,0,0", "--backend", "capped",
                "--precision", precision, "--order", "8"]
        assert main(argv) == EXIT_DOMAIN, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("domain error: ")
        assert "Traceback" not in err


# the texts a document can hold: quotes, backslashes, control characters,
# non-ASCII and astral characters among any others
TEXTS = st.text(st.one_of(st.sampled_from('"\\/\n\t\x00\x1f\x7f\u00e9\u2028'
                                          '\U0001d54f'),
                          st.characters()), max_size=8)
SCALARS = st.one_of(st.none(), st.booleans(), TEXTS,
                    st.integers(-2 ** 70, 2 ** 70), st.integers(-9, 9))
DOCUMENTS = st.recursive(
    SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(TEXTS, inner, max_size=4)), max_leaves=24)


@settings(max_examples=200, deadline=None)
@given(DOCUMENTS)
def test_emitter_writes_the_bytes_of_json_dumps(doc):
    assert cli.to_json(doc) == json.dumps(doc, sort_keys=True, indent=2)


def test_emitter_spells_bools_and_refuses_other_types(tmp_path):
    doc = {"b": [True, False, 1, 0, None], "a": {}, "c": [[], {"x": -1}]}
    assert cli.to_json(doc) == json.dumps(doc, sort_keys=True, indent=2)
    assert '"b": [\n    true,\n    false,\n    1,\n    0,\n    null' \
        in cli.to_json(doc)
    out = tmp_path / "doc.json"
    cli.emit(doc, str(out))
    assert out.read_text() == json.dumps(doc, sort_keys=True, indent=2) + "\n"
    for bad in (1.5, F(1, 2), {"a": [F(1, 3)]}, {"a": (1, 2)}, [float("nan")]):
        with pytest.raises(TypeError):
            cli.to_json(bad)


# argv tokens: every subcommand, flags whole, abbreviated, with "=" or
# help, values that look like flags or negative numbers, and strays
ARGV_TOKENS = [
    "cf", "boettcher", "verify", "newton-polygon", "escape", "degrees",
    "kummer", "transport", "bogus", "--prime", "5", "--poly", "1,0,1",
    "--poly=1/2,1", "--point", "-1/3", "--point=-1/3", "--order", "12",
    "--order=x", "--backend", "capped", "--backend=exact", "bad",
    "--precision", "3", "--seed", "-4", "--levels", "--d", "2", "--N",
    "--generators", "1,1", "--ext", "3,0,1", "--ext-point", "0,1",
    "--ext-kind", "unramified", "--emit-latex", "--emit-latex=1", "-h",
    "--help", "--", "--pri", "--po", "--max-iter", "--points", "--output",
    "x.json", "", "--prime=", "-", "--e", "--h", "extra"]


def parse_outcome(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = ("args", vars(parse(argv)))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(ARGV_TOKENS[:8]),
       st.lists(st.sampled_from(ARGV_TOKENS), max_size=8), st.booleans())
@example("cf", ["--prime", "5", "--poly=1,0,1"], True)
@example("cf", ["--prime", "5", "--poly=1,0,1", "extra"], True)
@example("cf", ["--prime", "5", "--po", "1,0,1", "--help"], True)
def test_parse_args_agrees_with_the_full_parser(command, rest, lead):
    argv = [command] + rest if lead else rest
    assert parse_outcome(cli.parse_args, argv) == \
        parse_outcome(build_parser().parse_args, argv)
