"""Tests for the command-line front end: golden outputs, exit codes,
env defaults, and deterministic sweeps."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

from qcells import cells, cli


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects bad option values this way
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_all_positions(capsys):
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,2,1", "--k", "all")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    assert all(": ok" in line for line in lines)
    assert "lhs = q^1 · t1^-1" in lines[0]


def test_verify_json_record(capsys):
    code, out, err = run(
        capsys, "verify", "--cartan", "A1", "--word", "1", "--k", "1", "--format", "json"
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["cartan"] == "A1"
    assert rec["word"] == [1]
    assert rec["k"] == 1
    assert rec["lhs"] == rec["rhs"] == "q^1 · t1^-1"
    assert rec["equal"] is True
    assert rec["presentation"] == {"lambda": [1], "uprime_coeffs": ["1"]}
    assert rec["residual_q_power"] == -1


def test_verify_rejects_non_reduced_word(capsys):
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,1")
    assert code == 2
    assert "not reduced" in err


def test_verify_rejects_bad_k(capsys):
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,2", "--k", "5")
    assert code == 2
    assert "out of range" in err


def test_verify_rejects_unknown_type(capsys):
    code, out, err = run(capsys, "verify", "--cartan", "E8", "--word", "1")
    assert code == 2


def test_verify_rejects_letters_outside_index_set(capsys):
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,3")
    assert code == 2
    assert "index set" in err
    # a negative letter, given as a separate argument or after "=", is not
    # mistaken for an unknown option
    for form in (("--word", "-1,2"), ("--word=-1,2",)):
        code, out, err = run(capsys, "verify", "--cartan", "A2", *form)
        assert (code, out, err) == (2, "", "error: letter -1 is outside the index set 1..2\n")


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--cartan", "A2", "--word", "1,,2"),
        ("verify", "--cartan", "A2", "--word", "1,2,"),
        ("verify", "--cartan", "A2", "--word", ",1,2"),
        ("reduced-words", "--cartan", "A2", "--word", "1,2,,1"),
        ("feigin-minor", "--cartan", "A3", "--word", "1,2,3", "--lambda", "1,,0,1"),
        ("feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1,0,"),
    ],
)
def test_empty_comma_field_is_usage_error(capsys, argv):
    # an empty field is not dropped: "1,,2" does not run as "1,2"
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "cannot parse" in err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ("feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1 0,1"),
        ("feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1_0,1"),
        ("verify", "--cartan", "A3", "--word", "1 2,3"),
        ("verify", "--cartan", "A3", "--word", "1,2_3"),
    ],
)
def test_digits_of_two_fields_are_not_joined(capsys, argv):
    # "1 0" is not read as 10, nor "1 2" as letter 12
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "cannot parse" in err and not out


@pytest.mark.parametrize(
    "argv, env",
    [
        (("verify", "--cartan", "A2", "--word", "1,2,1", "--k", "0_3"), None),
        (("sweep", "--cartan", "A2", "--max-length", "0_1"), None),
        (("sweep", "--cartan", "A2", "--search-cap", "0_3"), None),
        (("verify", "--cartan", "A2", "--word", "1,2,1", "--search-cap", "0_3"), None),
        (("verify", "--cartan", "A1", "--word", "1"), "0_3"),
        (("sweep", "--cartan", "A1"), "0_3"),
        (("verify", "--cartan", "A2", "--word", "1,2,1", "--k", "١"), None),
        (("verify", "--cartan", "A2", "--word", "١,2,1"), None),
        (("feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "１,0"), None),
        (("sweep", "--cartan", "A2", "--max-length", "２"), None),
        (("sweep", "--cartan", "A2", "--search-cap", "３"), None),
        (("verify", "--cartan", "A1", "--word", "1"), "٣"),
        (("verify", "--cartan", "A٢", "--word", "1"), None),
    ],
    ids=[
        "k",
        "max-length",
        "sweep-search-cap",
        "verify-search-cap",
        "env-verify",
        "env-sweep",
        "k-non-ascii",
        "word-non-ascii",
        "lambda-non-ascii",
        "max-length-non-ascii",
        "search-cap-non-ascii",
        "env-non-ascii",
        "cartan-non-ascii",
    ],
)
def test_underscore_in_an_integer_is_usage_error(capsys, monkeypatch, argv, env):
    # int() reads "0_3" and the Arabic-Indic or fullwidth digit 3 as 3; the
    # command line reads neither, as it accepts ASCII digits only
    if env is None:
        monkeypatch.delenv("QCELLS_SEARCH_CAP", raising=False)
    else:
        monkeypatch.setenv("QCELLS_SEARCH_CAP", env)
    code, out, err = run(capsys, *argv)
    assert code == 2
    bad = env or next(a for a in argv if "_" in a or not a.isascii())
    assert bad in err and not out


def test_spaces_around_fields_are_ignored(capsys):
    minor = ("feigin-minor", "--cartan", "A2", "--word")
    spaced = run(capsys, *minor, " 1 ,2", "--lambda", "1 , 0")
    plain = run(capsys, *minor, "1,2", "--lambda", "1,0")
    assert spaced == plain and plain[0] == 0
    # and around a lone integer
    verify = ("verify", "--cartan", "A2", "--word", "1,2,1", "--k")
    spaced = run(capsys, *verify, " 2 ")
    assert spaced == run(capsys, *verify, "2") and spaced[0] == 0
    sweep = ("sweep", "--cartan", "A2", "--max-length")
    spaced = run(capsys, *sweep, " 1 ", "--search-cap", " 3")
    assert spaced == run(capsys, *sweep, "1") and spaced[0] == 0


def test_feigin_minor_golden(capsys):
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1,0"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t2 t3"
    assert lines[-1] == "equal: yes"
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A1", "--word", "1", "--lambda", "1"
    )
    assert code == 0 and out.splitlines()[0] == "t1"
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "0,0"
    )
    assert code == 0 and out.splitlines()[0] == "1"


def test_feigin_minor_rejects_non_dominant(capsys):
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda=-1,0"
    )
    assert code == 2
    assert "dominant" in err
    # the separate argument reaches the same check
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "-1,0"
    )
    assert (code, out, err) == (2, "", "error: weight must be dominant (all coordinates >= 0)\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_feigin_minor_over_the_size_cap_is_usage_error(capsys, fmt):
    code, out, err = run(
        capsys,
        "feigin-minor",
        "--cartan",
        "A2",
        "--word",
        "1,2,1",
        "--lambda",
        "100,100",
        "--format",
        fmt,
    )
    assert (code, out, err) == (2, "", "error: module dimension 1030301 exceeds cap 5000\n")


def test_abbreviated_option_takes_a_signed_value(capsys):
    # argparse takes "--lam" for "--lambda" and "--w" for "--word"; their
    # negative values reach the CLI's own checks too
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lam", "-1,0"
    )
    assert (code, out, err) == (2, "", "error: weight must be dominant (all coordinates >= 0)\n")
    code, out, err = run(
        capsys, "feigin-minor", "--cartan", "A2", "--w", "-1,2", "--lambda", "1,0"
    )
    assert (code, out, err) == (2, "", "error: letter -1 is outside the index set 1..2\n")


def test_only_a_prefix_of_one_signed_option_is_joined():
    join = cli._join_signed_values
    assert join(["--lam", "-1,0"]) == ["--lam=-1,0"]
    assert join(["--max", "-1"]) == ["--max=-1"]
    # "--" is a prefix of every option, "--format" takes no signed value,
    # and a value that is not a negative number is left apart
    assert join(["--", "-1"]) == ["--", "-1"]
    assert join(["--format", "-1"]) == ["--format", "-1"]
    assert join(["--w", "-x"]) == ["--w", "-x"]


def test_search_cap_bounds_only_the_later_candidates(capsys):
    """varpi_{i_k} and varpi_{i_k} + varpi_j are tried whatever the cap: at
    cap 0 the A2 word 1,2,1 is presented with lam' = 1,1 at k = 1, whose
    coordinate sum is 2."""
    code, out, err = run(
        capsys, "verify", "--cartan", "A2", "--word", "1,2,1", "--k", "all", "--search-cap", "0"
    )
    assert code == 0 and not err
    lams = [line.split("lam' = ")[1].split()[0] for line in out.splitlines()]
    assert lams == ["1,1", "0,1", "1,0"]


def test_feigin_minor_has_no_search_cap(capsys):
    # feigin-minor runs no presentation search, so it takes no search cap
    code, out, err = run(
        capsys,
        "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1,0",
        "--search-cap", "3",
    )
    assert code == 2
    assert "--search-cap" in err and not out


def test_feigin_minor_json(capsys):
    code, out, err = run(
        capsys,
        "feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1,0",
        "--format", "json",
    )
    assert code == 0
    rec = json.loads(out)
    assert rec["closed_form"] == rec["pairing"] == "t2 t3"
    assert rec["equal"] is True


def test_reduced_words_listing(capsys):
    code, out, err = run(capsys, "reduced-words", "--cartan", "A2", "--word", "1,2,1")
    assert code == 0
    assert out.strip().splitlines() == ["1,2,1", "2,1,2"]


def test_reduced_words_elements(capsys):
    code, out, err = run(capsys, "reduced-words", "--cartan", "A2", "--max-length", "1")
    assert code == 0
    assert out.strip().splitlines() == ["1  (1 reduced words)", "2  (1 reduced words)"]


def test_reduced_words_json(capsys):
    code, out, err = run(
        capsys, "reduced-words", "--cartan", "B2", "--word", "2,1,2,1", "--format", "json"
    )
    rec = json.loads(out)
    assert rec["reduced_words"] == [[1, 2, 1, 2], [2, 1, 2, 1]]


def test_sweep_summary_and_exit(capsys):
    code, out, err = run(capsys, "sweep", "--cartan", "A2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "A2: 12 instances, 12 equal, 0 mismatched, 0 capped"


def test_sweep_json_deterministic_across_jobs(capsys):
    outs = []
    for _ in range(3):
        code, out, err = run(capsys, "sweep", "--cartan", "A2", "--format", "json")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    lines = outs[0].strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary == {
        "cartan": "A2",
        "instances": 12,
        "equal": 12,
        "mismatched": 0,
        "capped": 0,
    }
    for line in lines[:-1]:
        rec = json.loads(line)
        assert rec["equal"] is True


def test_sweep_max_length(capsys):
    code, out, err = run(capsys, "sweep", "--cartan", "B2", "--max-length", "2")
    assert code == 0
    lines = out.strip().splitlines()
    # elements: 1, 2, 12, 21 -> words 1; 2; 1,2; 2,1 -> 1+1+2+2 positions
    assert len(lines) == 6 + 1


def test_env_defaults(capsys, monkeypatch):
    monkeypatch.setenv("QCELLS_FORMAT", "json")
    code, out, err = run(capsys, "verify", "--cartan", "A1", "--word", "1", "--k", "1")
    assert code == 0
    assert json.loads(out)["equal"] is True
    monkeypatch.setenv("QCELLS_FORMAT", "text")
    code, out, err = run(capsys, "verify", "--cartan", "A1", "--word", "1", "--k", "1")
    assert ": ok" in out


def test_selftest_passes(capsys):
    code, out, err = run(capsys, "selftest")
    assert code == 0
    assert out.strip().splitlines()[-1] == "selftest: all passed"


def test_selftest_reports_disagreeing_minor_routes(capsys, monkeypatch):
    def broken(pres, lam):
        raise cells.MinorRoutesDisagree(pres.generator(1), pres.monomial((0,) * pres.nvars))

    # feigin_minor and the twist both reach the minor through cells._checked_minor
    monkeypatch.setattr(cells, "_checked_minor", broken)
    monkeypatch.setattr(cli, "feigin_minor", broken)
    code, out, err = run(capsys, "selftest")
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[0] == "A1 word 1 k=1: FAIL  minor routes disagree: t1 vs 1"
    assert all(": FAIL  minor routes disagree: t1 vs 1" in line for line in lines[:7])
    assert lines[-1] == "selftest: 7 failed"


def test_selftest_reports_exhausted_search(capsys, monkeypatch):
    real = cells.find_presentation

    def capped(pres, k, search_cap=3):
        if pres.datum.name == "B2":
            raise cells.PresentationError([(1, 0)])
        return real(pres, k, search_cap)

    monkeypatch.setattr(cells, "find_presentation", capped)
    code, out, err = run(capsys, "selftest")
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 8
    assert lines[4] == (
        "B2 word 2,1,2,1 k=2: FAIL  no presentation found; candidates tried: (1, 0)"
    )
    assert all(": ok  " in line for i, line in enumerate(lines[:7]) if i != 4)
    assert lines[-1] == "selftest: 1 failed"


def test_failed_identity_outranks_capped_search(capsys, monkeypatch):
    # every k=1 search is capped, every k=2 chamber ansatz fails
    real_find, real_chamber = cells.find_presentation, cli.chamber_ansatz

    def find(pres, k, search_cap=3):
        if k == 1:
            raise cells.PresentationError([(1, 0)])
        return real_find(pres, k, search_cap)

    def chamber(pres, k):
        rep = real_chamber(pres, k)
        rep.exponent_match = False
        return rep

    monkeypatch.setattr(cells, "find_presentation", find)
    monkeypatch.setattr(cli, "chamber_ansatz", chamber)
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,2", "--k", "all")
    assert code == 1
    lines = out.splitlines()
    assert ": CAP  " in lines[0] and ": MISMATCH  " in lines[1]
    code, out, err = run(capsys, "sweep", "--cartan", "A2", "--max-length", "2")
    assert code == 1
    assert out.splitlines()[-1] == "A2: 6 instances, 0 equal, 2 mismatched, 4 capped"
    # with the chamber ansatz intact the capped searches alone give 3
    monkeypatch.setattr(cli, "chamber_ansatz", real_chamber)
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,2", "--k", "all")
    assert code == 3


# stdout sha256 of passing runs of every instance-checking command, text and
# JSON; a passing output must stay byte-identical
PINNED_OUTPUTS = [
    (
        ("sweep", "--cartan", "A3", "--format", "json"),
        "ded777dc31c33d2e0d356745f7ab698a5cc722d3a835ab92fe68d2905b0e736b",
    ),
    (
        ("sweep", "--cartan", "B2"),
        "5ec6b678b2ea6aabcb119b8eb031d12739be916da79158d11978aecd7f57ff24",
    ),
    (
        ("verify", "--cartan", "B3", "--word", "3,2,3,2", "--format", "json"),
        "dd1d59c53221c9ed7bd25537f8ac24e6f317b2e7d8b7317ff7c468700cc1161b",
    ),
    (
        ("feigin-minor", "--cartan", "G2", "--word", "1,2,1", "--lambda", "1,1"),
        "bd6e92355904f66fa86817f55abd02836ce4f03c1a5880984eb8ee96fd8fbf11",
    ),
    (
        ("selftest",),
        "0ba5d55b5429590de0e3134c384041fa0055f94abfc9dad05e432ff2ce67550d",
    ),
    # the two hard instances, whose lam' searches reject large candidates
    (
        ("verify", "--cartan", "G2", "--word", "1,2,1,2,1,2", "--k", "2"),
        "a08c535cd8fd44e3837b79b6d2287d9a5a6c4394cb204ecf52f719551c97ad8f",
    ),
    (
        ("verify", "--cartan", "B3", "--word", "1,2,3,2,1,3,2,3,2", "--k", "7"),
        "800b6da9c01d69ebd114179e954af72bd254dd508be2e4301b6d09b69ab57f34",
    ),
    # one exact build of G2 V(2,1), dimension 189
    (
        ("feigin-minor", "--cartan", "G2", "--word", "1,2,1,2,1,2", "--lambda", "2,1"),
        "604cd5076a8a7484ef8cba2e48d4c76a98cee33394d4f8898d632423ced7b9c3",
    ),
    # reduced words that share path systems and u', so the search and the
    # twist read their solve and leaf memos
    (
        ("sweep", "--cartan", "C3", "--max-length", "6", "--format", "json"),
        "2ed72ffb415350897867c04fa48ebcaa22c586f4ee6d123dc59f72320cdd7525",
    ),
]


def test_pinned_outputs(capsys, monkeypatch):
    monkeypatch.delenv("QCELLS_FORMAT", raising=False)
    monkeypatch.delenv("QCELLS_SEARCH_CAP", raising=False)
    for argv, digest in PINNED_OUTPUTS:
        code, out, err = run(capsys, *argv)
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_sweep_streams_its_instances(capsys, monkeypatch):
    """The sweep makes a word's presentation only when it reaches the word,
    so every instance runs before the presentation of the next word."""
    made = []
    real_pres = cli.TorusPresentation

    def pres(datum, word):
        made.append(word)
        return real_pres(datum, word)

    ran = []
    real_run = cli._run_instance

    def run_instance(cartan, p, k, search_cap):
        ran.append((len(made), k))
        return real_run(cartan, p, k, search_cap)

    monkeypatch.setattr(cli, "TorusPresentation", pres)
    monkeypatch.setattr(cli, "_run_instance", run_instance)
    code, out, err = run(capsys, "sweep", "--cartan", "A2")
    assert code == 0
    assert len(made) == 6
    assert ran == [(m, k) for m, word in enumerate(made, 1) for k in range(1, len(word) + 1)]


def test_feigin_minor_reports_disagreeing_routes(capsys, monkeypatch):
    # feigin_minor checks its closed form against the pairing route on every
    # call, so the broken route is reached however often the minor was asked
    monkeypatch.setattr(
        cells, "feigin_matrix_coeff", lambda pres, left, right: pres.monomial((0,) * pres.nvars)
    )
    argv = ("feigin-minor", "--cartan", "A2", "--word", "1,2,1", "--lambda", "1,0")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out.splitlines() == ["t2 t3", "pairing route: 1", "equal: NO"]
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1
    rec = json.loads(out)
    assert (rec["closed_form"], rec["pairing"], rec["equal"]) == ("t2 t3", "1", False)


def test_failed_chamber_ansatz_is_a_mismatch(capsys, monkeypatch):
    real = cli.chamber_ansatz

    def broken(pres, k):
        rep = real(pres, k)
        rep.exponent_match = False
        return rep

    monkeypatch.setattr(cli, "chamber_ansatz", broken)
    code, out, err = run(
        capsys, "verify", "--cartan", "A1", "--word", "1", "--k", "1", "--format", "json"
    )
    assert code == 1
    rec = json.loads(out)
    assert rec["equal"] is True
    assert "residual_q_power" not in rec
    assert rec["chamber_mismatch"] == "q^-1 · t1"
    code, out, err = run(capsys, "sweep", "--cartan", "A1")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0].startswith("A1 word 1 k=1: MISMATCH")
    assert "t_1 not recovered: q^-1 · t1" in lines[0]
    assert lines[-1] == "A1: 1 instances, 0 equal, 1 mismatched, 0 capped"


def test_disagreeing_minor_routes_are_a_sweep_mismatch(capsys, monkeypatch):
    def broken(pres, lam):
        raise cells.MinorRoutesDisagree(pres.generator(1), pres.monomial((0,) * pres.nvars))

    monkeypatch.setattr(cells, "_checked_minor", broken)
    code, out, err = run(capsys, "sweep", "--cartan", "A2")
    assert code == 1
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0] == "A2 word 1 k=1: MISMATCH  minor routes disagree: t1 vs 1"
    assert lines[-1] == "A2: 12 instances, 0 equal, 12 mismatched, 0 capped"
    code, out, err = run(capsys, "sweep", "--cartan", "A2", "--format", "json")
    assert code == 1
    lines = out.strip().splitlines()
    assert json.loads(lines[0]) == {
        "cartan": "A2",
        "word": [1],
        "k": 1,
        "equal": False,
        "minor_mismatch": "t1 vs 1",
    }
    assert json.loads(lines[-1])["summary"]["mismatched"] == 12
    code, out, err = run(capsys, "verify", "--cartan", "A2", "--word", "1,2", "--k", "2")
    assert code == 1
    assert out == "A2 word 1,2 k=2: MISMATCH  minor routes disagree: t1 vs 1\n"


@pytest.mark.parametrize(
    "name, value",
    [("QCELLS_FORMAT", "xml"), ("QCELLS_SEARCH_CAP", "abc"), ("QCELLS_SEARCH_CAP", "-1")],
)
def test_bad_environment_value_is_usage_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "verify", "--cartan", "A1", "--word", "1")
    assert code == 2
    assert name in err and not out


@pytest.mark.parametrize("name, value", [("QCELLS_FORMAT", "xml"), ("QCELLS_SEARCH_CAP", "abc")])
def test_bad_environment_value_stops_sweep_even_with_option(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    for option in ((), ("--format", "text"), ("--search-cap", "3")):
        code, out, err = run(capsys, "sweep", "--cartan", "A1", *option)
        assert code == 2, option
        assert name in err and not out


@pytest.mark.parametrize(
    "name, value, argv",
    [
        ("QCELLS_SEARCH_CAP", "abc", ("reduced-words", "--cartan", "A2")),
        (
            "QCELLS_SEARCH_CAP",
            "-1",
            ("feigin-minor", "--cartan", "A2", "--word", "1", "--lambda", "1,0"),
        ),
        ("QCELLS_SEARCH_CAP", "abc", ("selftest",)),
        ("QCELLS_FORMAT", "xml", ("selftest",)),
    ],
)
def test_environment_value_is_read_only_where_its_option_is(
    capsys, monkeypatch, name, value, argv
):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out and not err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--cartan", "A1", "--word", "1", "--search-cap", "-1"),
        ("sweep", "--cartan", "A2", "--max-length", "-1"),
        ("reduced-words", "--cartan", "A2", "--max-length", "-1"),
    ],
)
def test_negative_bounds_are_usage_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert ">= 0" in err and not out


# Standard-library modules the CLI's start-up must not load: dataclasses
# pulls in inspect, fractions pulls in decimal, and json serves only
# --format json.  The child runs without site (-S), so none of them is
# loaded before the probe and each one it loads shows as new.
SLOW_TO_IMPORT = {"dataclasses", "fractions", "decimal", "inspect", "json"}
IMPORT_PROBE = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from qcells import cli\n"
    "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
    "print(' '.join(sorted(set(sys.modules) - before)))\n"
    "raise SystemExit(code)\n"
)


@pytest.mark.parametrize(
    "argv, loaded",
    [
        ((), set()),
        (("verify", "--cartan", "A1", "--word", "1"), set()),
        (("verify", "--cartan", "A1", "--word", "1", "--format", "json"), {"json"}),
    ],
)
def test_start_up_loads_no_slow_module(child_env, argv, loaded):
    child_env.pop("QCELLS_FORMAT", None)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_PROBE, *argv],
        capture_output=True,
        text=True,
        env=child_env,
    )
    assert proc.returncode == 0 and not proc.stderr, proc.stderr
    new = set(proc.stdout.splitlines()[-1].split())
    assert "qcells.cli" in new
    assert new & SLOW_TO_IMPORT == loaded
