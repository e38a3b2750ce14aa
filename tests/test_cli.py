import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import pytest

import heartproof
from heartproof import cli
from heartproof.cli import main, parse_group_tag
from heartproof.groups import MAX_Q_BITS
from heartproof.perm import MAX_DEGREE
from heartproof.weights import MAX_PROFILE_Q, MAX_R

FIXTURES = Path("src/heartproof/data/fixtures.jsonl")


def run_cli(args, capsys):
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_tag_parsing():
    assert parse_group_tag("S", 7).kind == "symmetric"
    assert parse_group_tag("A", 5).kind == "alternating"
    assert parse_group_tag("M11", None).n == 11
    t = parse_group_tag("PSL2(13)", None)
    assert (t.ell, t.r, t.n) == (13, 1, 14)
    t = parse_group_tag("PSL2(2^4)", None)
    assert (t.ell, t.r, t.n) == (2, 4, 17)
    t = parse_group_tag("U3(3)", None)
    assert t.n == 28
    with pytest.raises(ValueError):
        parse_group_tag("B7", 7)
    # a fixed-degree tag takes --n only when it names the tag's own degree
    assert parse_group_tag("M11", 11).n == 11
    for text, n, degree in [("M11", 12, 11), ("PSL2(13)", 15, 14), ("U3(3)", 27, 28)]:
        with pytest.raises(ValueError, match=rf"^tag degree {degree} of .* does not match n = {n}$"):
            parse_group_tag(text, n)


def test_analyze_symmetric(capsys):
    code, out, _ = run_cli(["analyze", "--group", "S", "--n", "7", "--p", "11"], capsys)
    assert code == 0
    assert "Z[zeta_11]" in out


def test_analyze_mathieu_p3(capsys):
    code, out, _ = run_cli(["analyze", "--group", "M11", "--p", "3"], capsys)
    assert code == 2
    assert "p > 3" in out


def test_analyze_poly(capsys):
    code, out, _ = run_cli(["analyze", "--poly", "x^5-x-1", "--p", "7"], capsys)
    assert code == 0
    assert "proven_sn" in out and "Z[zeta_7]" in out


def test_analyze_invalid(capsys):
    code, _, err = run_cli(["analyze", "--group", "S", "--n", "4", "--p", "7"], capsys)
    assert code == 1
    assert "at least 5" in err


def test_analyze_usage_error(capsys):
    code, _, err = run_cli(["analyze", "--p", "7"], capsys)
    assert code == 64


def test_parser_is_reused_across_calls(monkeypatch, capsys):
    # one parser serves every in-process call: a usage error leaves no state
    # behind, and each call's options start from their defaults
    first = run_cli(["analyze", "--group", "S", "--n", "7", "--p", "11"], capsys)
    assert first[0] == 0
    assert run_cli(["analyze", "--p", "7"], capsys)[0] == 64
    assert run_cli(["analyze", "--group", "S", "--n", "7", "--p", "11", "--r", "0"],
                   capsys)[0] == 1
    assert run_cli(["analyze", "--group", "S", "--n", "7", "--p", "11"], capsys) == first
    code, out, _ = run_cli(["weights", "--n", "5", "--p", "3"], capsys)
    assert code == 0 and out
    # the plain path and the whole parser's path both use that parser, and
    # neither leaves state for the other
    monkeypatch.setattr(cli, "build_parser", None)
    assert run_cli(["weights", "--n", "5", "--p", "3", "extra"], capsys)[0] == 64
    assert run_cli(["--p", "3", "weights", "--n", "5"], capsys)[0] == 64
    assert run_cli(["weights", "--n", "5", "--p", "3"], capsys) == (code, out, "")
    assert run_cli(["analyze", "--group", "S", "--n", "7", "--p", "11"], capsys) == first


def full_parser_main(argv):
    """`main` as it ran before it dispatched on a leading subcommand: every
    argv through the whole parser."""
    parser = cli.build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "command", None) in ("analyze", "heart") and not (
        getattr(args, "group", None) or getattr(args, "group_file", None)
        or getattr(args, "poly", None)
    ):
        parser.error("one of --group, --group-file or --poly is required")
    return cli._run(args)


PARSE_ARGVS = [
    *[[name, "--help"] for name in cli.build_parser().commands], ["--help"], [],
    ["frobnicate"], ["heart", "--group", "A", "--n", "5"],
    ["heart", "--group", "A", "--n", "5", "--p", "x"], ["heart", "--p", "7"],
    ["probe", "--poly", "x^5 - x - 1", "--budget", "0"],
    ["weights", "--n", "5", "--p", "7", "extra"], ["--p", "7", "weights", "--n", "5"],
    ["weights", "--n", "5", "--p", "7"],
    # edge forms of the plain path: most fall back to the whole parser; the
    # repeated --p, the --assume-zeta forms and a '-'-leading polynomial
    # with a space are read plainly
    ["heart", "--gr", "A", "--n", "5", "--p", "7"],
    ["heart", "--group", "A", "--n", "5", "--p=7"],
    ["heart", "--group", "A", "--n", "-5", "--p", "7"],
    ["analyze", "--poly", "-x^5 + 1", "--p", "7"],
    ["analyze", "--poly", "-x^5 + 1", "--p", "7", "--json"],
    ["heart", "--group", "A", "--n", "5", "--p", "7", "--seed", "-"],
    ["analyze", "--poly", "-x^5+1", "--p", "7"],
    ["heart", "--group", "A", "--n", "5", "--p", "3", "--p", "5"],
    ["heart", "--group", "A", "--n", "5", "--p", "7", "--seed", "x"],
    ["heart", "--group", "A", "--n", "5", "--p", "7", "--help"],
    ["analyze", "--assume-zeta", "--group", "S", "--n", "7", "--p", "11"],
    ["analyze", "--group", "S", "--n", "7", "--p", "11", "--assume-zeta"],
    ["heart", "--group", "A", "--n", "5", "--", "--p", "7"],
]


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_parse_path_prints_what_the_full_parser_prints(argv, capsys):
    got = run_cli(argv, capsys)
    try:
        code = full_parser_main(argv)
    except SystemExit as exc:
        code = exc.code
    assert got == (code, *capsys.readouterr())


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--group", "S", "--n", "4", "--p", "7"], "degree n = 4 must be at least 5"),
    (["heart", "--group", "A", "--n", "-5", "--p", "7"], "degree must be >= 1"),
    (["weights", "--n", "5", "--p", "9"], "p = 9 must be an odd prime"),
    (["group", "--group", "A", "--n", "0"], "degree must be >= 1"),
    (["probe", "--poly", "x^5 - 2*x^4 + x^3"], "x^5 - 2*x^4 + x^3 has repeated roots"),
    (["fixtures", "--run", "absent.jsonl"], "fixture file absent.jsonl does not exist"),
    (["fixtures", "--run", "."], "cannot read fixture file .: Is a directory"),
    (["analyze", "--group", "M11", "--n", "12", "--p", "5"],
     "tag degree 11 of M11 does not match n = 12"),
    (["heart", "--group", "M11", "--n", "12", "--p", "5"],
     "tag degree 11 of M11 does not match n = 12"),
    (["group", "--group", "M11", "--n", "30"], "tag degree 11 of M11 does not match n = 30"),
    (["analyze", "--poly", "x^5 - x - 1", "--n", "9", "--p", "7"],
     "polynomial degree 5 does not match n = 9"),
], ids=["analyze", "heart", "weights", "group", "probe", "fixtures", "fixtures-directory",
        "analyze-tag-n", "heart-tag-n", "group-tag-n", "analyze-poly-n"])
def test_refused_input_prints_one_error_line(argv, message, capsys):
    # every subcommand refuses through cli._run: exit 1, nothing on stdout,
    # and one error line
    assert run_cli(argv, capsys) == (1, "", f"error: {message}\n")


@pytest.mark.filterwarnings("ignore:heart of an intransitive action")  # A5 on 7 points
def test_group_file_takes_n(tmp_path, capsys):
    # heart and group place the generators on --n points, as analyze does
    # (test_group_file_errors_and_parses)
    path = tmp_path / "a5.txt"
    path.write_text("(0 1 2)\n(0 1 2 3 4)\n")
    code, out, _ = run_cli(["heart", "--group-file", str(path), "--n", "7", "--p", "11"], capsys)
    assert code == 0 and out.startswith("group: custom on 7 points, order 60\n")
    code, out, _ = run_cli(["group", "--group-file", str(path), "--n", "7"], capsys)
    assert code == 0 and "degree: 7\n" in out
    for command in (["heart", "--p", "11"], ["group"]):
        assert run_cli([*command, "--group-file", str(path), "--n", "3"], capsys) == (
            1, "", "error: generator moves a point beyond n\n")


@pytest.mark.parametrize("command", ["heart", "analyze", "heart --dump"])
def test_intransitive_heart_warns_once(command, tmp_path, capsys):
    # the warning comes where the heart is judged, once per request from an
    # empty map, although the report, the verdict and the dump all read the
    # heart
    from heartproof import modules, verdict

    path = tmp_path / "a5.txt"
    path.write_text("(0 1 2)\n(0 1 2 3 4)\n")
    dump = tmp_path / "heart.dump"
    # analyze reaches the heart row only with the root of unity assumed
    extra = {"heart": [], "analyze": ["--assume-zeta"], "heart --dump": ["--dump", str(dump)]}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, _ = run_cli([command.split()[0], "--group-file", str(path), "--n", "7",
                                "--p", "11", *extra[command]], capsys)
    assert code in (0, 2) and out
    assert [str(w.message) for w in caught] == [
        "heart of an intransitive action; dimension laws still apply"]
    if command == "heart --dump":
        g = verdict.custom_group(("(0 1 2)", "(0 1 2 3 4)"), 7)
        mats = [modules.heart_matrix(x, 11) for x in g.generators]
        assert dump.read_text() == modules.dumps(modules.GModule(g, 11, 6, mats))


def test_heart_of_identity_generators_is_one_error_line(tmp_path, capsys):
    # a heart of dimension 0 is refused before the intransitive-action warning
    path = tmp_path / "identity.txt"
    path.write_text("()\n()\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(["heart", "--group-file", str(path), "--p", "5"], capsys)
    assert result == (1, "", "error: module dimension must be >= 1\n") and caught == []


def test_analyze_refuses_p_beyond_the_proven_prime_test(capsys):
    # a strong pseudoprime to the bases 2..37, which once passed as prime
    code, out, err = run_cli(["analyze", "--group", "S", "--n", "7",
                              "--p", "318665857834031151167461"], capsys)
    assert (code, out) == (1, "")
    assert err == "error: p = 318665857834031151167461 must be an odd prime\n"
    code, out, err = run_cli(["analyze", "--group", "S", "--n", "7",
                              "--p", "3317044064679887385961981"], capsys)
    assert (code, out) == (1, "")
    assert err == ("error: p = 3317044064679887385961981 is too large: "
                   "primality is proven only below 3317044064679887385961981\n")


def test_analyze_json_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "cert.json"
    code, out, _ = run_cli(
        ["analyze", "--group", "M23", "--p", "11", "--json", str(out_path)], capsys)
    assert code == 0
    from heartproof import verdict

    text = out_path.read_text()
    cert = verdict.dispatch(verdict.scenario_from_dict(json.loads(text)["scenario"]))
    assert verdict.explain(cert) == out
    assert verdict.certificate_to_json(cert) == text


@pytest.mark.parametrize("argv, path", [
    (["analyze", "--group", "S", "--n", "7", "--p", "11", "--json"], "dir/c.json"),
    (["heart", "--group", "A", "--n", "5", "--p", "7", "--dump"], "dir/x"),
], ids=["analyze-json", "heart-dump"])
def test_unwritable_output_path(argv, path, tmp_path, capsys):
    target = tmp_path / path
    code, out, err = run_cli([*argv, str(target)], capsys)
    written = run_cli(argv[:-1], capsys)[1]
    assert (code, out) == (1, written)
    assert err == f"error: cannot write {target}: No such file or directory\n"


def test_weights_table(capsys):
    code, out, _ = run_cli(["weights", "--n", "5", "--p", "7"], capsys)
    assert code == 0
    assert out == ("i, n_sigma_i\n1, 0\n2, 1\n3, 2\n4, 2\n5, 3\n6, 4\n"
                   "genus 12 gcd 1 support 5\n")
    code, out, _ = run_cli(["weights", "--n", "11", "--p", "5"], capsys)
    assert "gcd 2" in out
    code, out, _ = run_cli(["weights", "--n", "7", "--p", "7"], capsys)
    assert code == 0 and "not applicable" in out


def test_group_command(capsys):
    code, out, _ = run_cli(["group", "--group", "M12"], capsys)
    assert code == 0
    assert "order: 95040" in out and "doubly transitive: True" in out
    assert "order (independent chain): 95040" in out


def test_group_file(tmp_path, capsys):
    path = tmp_path / "grp.txt"
    path.write_text("# A5\n(0 1 2)\n(0 1 2 3 4)\n")
    code, out, _ = run_cli(["group", "--group-file", str(path)], capsys)
    assert code == 0 and "order: 60" in out


@pytest.mark.parametrize("text, extra, degree, transitive", [
    ("()\n", [], 0, False), ("()\n", ["--n", "1"], 1, True), ("(0)\n", [], 1, True)])
def test_group_file_of_degree_below_two(tmp_path, capsys, text, extra, degree, transitive):
    # compositions of degree 0 and 1 take perm.mult's plain path
    path = tmp_path / "grp.txt"
    path.write_text(text)
    code, out, err = run_cli(["group", "--group-file", str(path), *extra], capsys)
    assert (code, err) == (0, "")
    assert out == (f"tag: custom\ndegree: {degree}\norder: 1\norder (independent chain): 1\n"
                   f"transitive: {transitive}\ndoubly transitive: False\ngenerators:\n\n")


def test_analyze_group_file_malformed(tmp_path, capsys):
    path = tmp_path / "grp.txt"
    path.write_text("(0 1 2)\n(0 1 x)\n")
    code, out, err = run_cli(["analyze", "--group-file", str(path), "--p", "7"], capsys)
    assert code == 1 and out == ""
    assert err == "error: malformed permutation '(0 1 x)'\n"
    path.write_text("# comments only\n")
    code, _, err = run_cli(["analyze", "--group-file", str(path), "--p", "7"], capsys)
    assert code == 1 and err == "error: no generators in group file\n"


@pytest.mark.filterwarnings("ignore:heart of an intransitive action")  # A5 on 7 points
def test_group_file_errors_and_parses(tmp_path, monkeypatch, capsys):
    # without --n the degree comes from the parsed generators, so their errors
    # come before the scenario's; with --n the scenario is checked first
    from heartproof import perm, verdict

    verdict._custom_group_on.cache_clear()
    path = tmp_path / "grp.txt"

    def analyze(text, p, *extra):
        path.write_text(text)
        return run_cli(["analyze", "--group-file", str(path), "--p", str(p), *extra], capsys)

    malformed = (1, "", "error: malformed permutation '(0 1'\n")
    assert analyze("(0 1\n", 4) == malformed
    assert analyze("(0 1\n", 3, "--n", "7") == malformed
    assert analyze("(0 1\n", 4, "--n", "7") == (1, "", "error: p = 4 must be an odd prime\n")
    assert analyze("(0 1)(1 2)\n", 4) == (1, "", "error: cycles are not disjoint in '(0 1)(1 2)'\n")
    beyond = (1, "", "error: generator moves a point beyond n\n")
    assert analyze("(0 1 2 3 4 5 6)\n", 3, "--n", "5") == beyond
    assert analyze("(0 1 2)\n(0 1 2 3 4)\n", 3, "--n", "3") == (
        1, "", "error: degree n = 3 must be at least 5\n")
    # each generator is parsed once per group built, and not at all for a
    # cached one; every parse ends in one perm.check_degree call
    parsed = []

    def counted(degree, _check=perm.check_degree):
        parsed.append(degree)
        _check(degree)

    monkeypatch.setattr(perm, "check_degree", counted)
    a5 = "(0 1 2)\n(0 1 2 3 4)\n"
    for extra, calls in [((), 2), ((), 0), (("--n", "5"), 0), (("--n", "7"), 2), (("--n", "7"), 0)]:
        parsed.clear()
        code, out, _ = analyze(a5, 11, "--assume-zeta", *extra)
        assert code in (0, 2) and out.startswith("scenario: n=" + (extra[1] if extra else "5"))
        assert len(parsed) == calls, extra


def test_analyze_parses_the_polynomial_once(monkeypatch, capsys):
    from heartproof import probe

    parsed = []

    def counted(text, _parse=probe.parse_poly):
        parsed.append(text)
        return _parse(text)

    monkeypatch.setattr(probe, "parse_poly", counted)
    code, out, _ = run_cli(["analyze", "--poly", "x^5 - x - 1", "--p", "7"], capsys)
    assert code == 0 and parsed == ["x^5 - x - 1"]


def test_probe_command(capsys):
    code, out, _ = run_cli(["probe", "--poly", "x^5+20*x+16", "--budget", "40"], capsys)
    assert code == 0
    assert "proven_an_or_sn" in out and "resolved group: alternating" in out


def test_heart_command(capsys):
    code, out, _ = run_cli(["heart", "--group", "A", "--n", "5", "--p", "7"], capsys)
    assert code == 0
    assert "dimension 4" in out and "VERY_SIMPLE" in out


@pytest.mark.parametrize("p, message", [
    ("9", "p = 9 must be an odd prime"),
    ("2", "p = 2 must be an odd prime"),
    ("4611686018427387847", "p = 4611686018427387847 is too large for dimension 4: "
                            "exact int64 arithmetic needs dim * p^2 < 2^63"),
], ids=["p9", "p2", "p_past_int64"])
def test_heart_refuses_bad_characteristic(p, message, capsys):
    code, out, err = run_cli(["heart", "--group", "A", "--n", "5", "--p", p], capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_fixtures_bundled(capsys):
    code, out, _ = run_cli(["fixtures"], capsys)
    assert code == 0
    assert "14 passed, 0 failed" in out


def test_fixtures_mismatch(tmp_path, capsys):
    bad = {"name": "wrong_ring",
           "scenario": {"n": 7, "p": 11, "r": 1, "group": {"kind": "symmetric"}},
           "expect": {"conclusion": "cyclotomic_ring", "fields": ["Z[zeta_13]"]}}
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(bad) + "\n")
    code, out, _ = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1
    assert "FAIL" in out and "Z[zeta_13]" in out


def test_fixtures_empty(tmp_path, capsys):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    code, out, _ = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 0
    assert "warning: no fixtures found" in out


def test_fixtures_parse_error_line_number(tmp_path, capsys):
    path = tmp_path / "broken.jsonl"
    path.write_text('{"name": "ok"}\n{nope}\n')
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1
    assert ":1:" in err or ":2:" in err


def test_fixtures_value_errors_are_fail_lines(tmp_path, capsys):
    repeated_root = {"name": "repeated_root",
                     "scenario": {"n": 5, "p": 7, "r": 1,
                                  "group": {"kind": "poly", "poly": "x^5 - 2*x^4 + x^3"}},
                     "expect": {"conclusion": "cyclotomic_ring"}}
    bad_generator = {"name": "bad_generator",
                     "scenario": {"n": 5, "p": 7, "r": 1,
                                  "group": {"kind": "custom", "generators": ["(0 1"]}},
                     "expect": {"conclusion": "cyclotomic_ring"}}
    path = tmp_path / "value_errors.jsonl"
    path.write_text(json.dumps(repeated_root) + "\n" + json.dumps(bad_generator) + "\n")
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1 and err == ""
    assert out == ("[FAIL] repeated_root: unexpected rejection: x^5 - 2*x^4 + x^3 has repeated roots\n"
                   "[FAIL] bad_generator: unexpected rejection: malformed permutation '(0 1'\n"
                   "0 passed, 2 failed\n")


def test_fixtures_invalid_scenario_lines(tmp_path, capsys):
    entries = [{"name": name, "scenario": {"n": 5, "p": 7, "group": group},
                "expect": {"conclusion": "cyclotomic_ring"}}
               for name, group in (("no_generators", {"kind": "custom", "generators": []}),
                                   ("no_poly", {"kind": "poly", "poly": ""}),
                                   ("unknown_kind", {"kind": "dihedral"}))]
    path = tmp_path / "invalid.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1 and err == ""
    assert out == ("[FAIL] no_generators: unexpected rejection: custom scenario without generators\n"
                   "[FAIL] no_poly: unexpected rejection: poly scenario without a polynomial\n"
                   "[FAIL] unknown_kind: unexpected rejection: unknown group kind 'dihedral'\n"
                   "0 passed, 3 failed\n")


@pytest.mark.parametrize("command", [["analyze", "--p", "7"], ["heart", "--p", "7"], ["group"]],
                         ids=["analyze", "heart", "group"])
def test_missing_group_file(command, tmp_path, capsys):
    path = tmp_path / "absent.txt"
    code, out, err = run_cli([*command, "--group-file", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == f"error: cannot read group file {path}: No such file or directory\n"


@pytest.mark.parametrize("command, generator", [
    (["analyze", "--p", "7", "--assume-zeta"], f"(0 {MAX_DEGREE})"),
    (["analyze", "--p", "7", "--n", str(MAX_DEGREE + 1)], "(0 1 2)"),
    (["heart", "--p", "7"], f"(0 {MAX_DEGREE})"),
    (["group"], f"(0 {MAX_DEGREE})"),
], ids=["analyze", "analyze-n", "heart", "group"])
def test_group_file_degree_limit(command, generator, tmp_path, capsys):
    path = tmp_path / "grp.txt"
    path.write_text(generator + "\n")
    code, out, err = run_cli([*command, "--group-file", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == (f"error: degree {MAX_DEGREE + 1} is above the limit "
                   f"MAX_DEGREE = {MAX_DEGREE}\n")


def test_fixtures_refuse_a_degree_above_the_limit(tmp_path, capsys):
    big = {"name": "big", "scenario": {"n": MAX_DEGREE + 1, "p": 7, "r": 1, "group": {
        "kind": "custom", "generators": [f"(0 {MAX_DEGREE})"]}},
        "expect": {"conclusion": "inconclusive"}}
    path = tmp_path / "big.jsonl"
    path.write_text(json.dumps(big) + "\n")
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1 and err == ""
    assert out == (f"[FAIL] big: unexpected rejection: degree {MAX_DEGREE + 1} is above the "
                   f"limit MAX_DEGREE = {MAX_DEGREE}\n0 passed, 1 failed\n")


def test_psl2_degree_limit(monkeypatch, capsys):
    # PSL(2, 1009) acts on 1010 points; with no field to build, an attempt
    # to build it fails at once instead of running for a minute
    from heartproof import groups

    monkeypatch.setattr(groups, "ExtField", None)
    for command in (["group"], ["heart", "--p", "5"]):
        code, out, err = run_cli([*command, "--group", "PSL2(1009)"], capsys)
        assert code == 1 and out == ""
        assert err == f"error: degree 1010 is above the limit MAX_DEGREE = {MAX_DEGREE}\n"
    # the table route never builds the group
    code, out, _ = run_cli(["analyze", "--group", "PSL2(1009)", "--p", "5"], capsys)
    assert code == 0 and out.endswith("endomorphism ring = Z[zeta_5] (dimension 4 over Q)\n")


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--group", "S", "--n", "7", "--p", "11", "--r", str(MAX_R + 1)],
     f"r = {MAX_R + 1} is above the limit MAX_R = {MAX_R}"),
    (["weights", "--n", "5", "--p", "7", "--r", str(MAX_R + 1)],
     f"r = {MAX_R + 1} is above the limit MAX_R = {MAX_R}"),
    (["weights", "--n", "5", "--p", "100003"],
     f"q = 100003 is above the limit MAX_PROFILE_Q = {MAX_PROFILE_Q}"),
], ids=["analyze-r", "weights-r", "weights-q"])
def test_exponent_and_profile_limits(argv, message, capsys):
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


def test_fixtures_refuse_an_exponent_above_the_limit(tmp_path, capsys):
    line = {"name": "high_r", "scenario": {"n": 7, "p": 11, "r": MAX_R + 1, "group": {
        "kind": "symmetric"}}, "expect": {"conclusion": "cyclotomic_product_algebra"}}
    path = tmp_path / "high_r.jsonl"
    path.write_text(json.dumps(line) + "\n")
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1 and err == ""
    assert out == (f"[FAIL] high_r: unexpected rejection: r = {MAX_R + 1} is above the "
                   f"limit MAX_R = {MAX_R}\n0 passed, 1 failed\n")


@pytest.mark.parametrize("budget", ["0", "-3", "1001"])
def test_probe_refuses_budget_outside_limit(budget, capsys):
    code, out, err = run_cli(["probe", "--poly", "x^5 - x - 1", "--budget", budget], capsys)
    assert code == 64 and out == ""
    assert err.endswith(f"heartproof probe: error: argument --budget: {budget} is outside "
                        "1..1000 (MAX_PRIME_BUDGET)\n")


@pytest.mark.parametrize("command", [["probe"], ["analyze", "--p", "7"]],
                         ids=["probe", "analyze"])
def test_poly_degree_limit(command, capsys):
    code, out, err = run_cli([*command, "--poly", "x^99999999 + 1"], capsys)
    assert code == 1 and out == ""
    assert err == "error: degree 99999999 is above the limit MAX_POLY_DEGREE = 50\n"


@pytest.mark.parametrize("command", [["probe"], ["analyze", "--p", "7"]],
                         ids=["probe", "analyze"])
def test_poly_coefficient_limit(command, capsys):
    code, out, err = run_cli([*command, "--poly", "x^5 - x - 18446744073709551616"], capsys)
    assert code == 1 and out == ""
    assert err == "error: a coefficient of 65 bits is above the limit MAX_COEFF_BITS = 64\n"


def test_console_entry_point():
    # the child imports the heartproof this process imported, installed or
    # not, and `main` reads its argv from sys.argv
    path = [str(Path(heartproof.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "heartproof.cli", *argv],
                              capture_output=True, text=True, env=env)

    proc = run("weights", "--n", "5", "--p", "7")
    assert proc.returncode == 0
    assert "genus 12" in proc.stdout
    proc = run("heart", "--group", "A", "--n", "5", "--p", "7")
    assert proc.returncode == 0
    assert proc.stdout == (Path(__file__).parent / "golden" / "heart_a5_f7.txt").read_text()
    proc = run("heart", "--group", "A", "--n", "5")
    assert proc.returncode == 64
    assert "the following arguments are required: --p" in proc.stderr


@pytest.mark.parametrize("group, p, golden", [
    (["--group", "M11"], "3", "heart_m11_f3.txt"),
    (["--group", "PSL2(25)"], "5", "heart_psl2_25_f5.txt"),
    (["--group", "A", "--n", "5"], "7", "heart_a5_f7.txt"),
    # a reducible heart: the cyclic group of order 7
    (["--group-file", "(0 1 2 3 4 5 6)\n"], "11", "heart_c7_f11.txt"),
    # p = +-1 mod 5: the tensor split is a recorded fact, not a computation
    (["--group", "A", "--n", "5"], "11", "heart_a5_f11.txt"),
])
def test_heart_output_golden(group, p, golden, tmp_path, monkeypatch, capsys):
    from heartproof import modules

    if group[0] == "--group-file":
        path = tmp_path / "group.txt"
        path.write_text(group[1])
        group = ["--group-file", str(path)]
    searches = []
    monkeypatch.setattr(modules, "is_irreducible",
                        lambda *args, _f=modules.is_irreducible: searches.append(1) or _f(*args))
    expected_dump = Path(__file__).parent / "golden" / golden.replace(".txt", ".dump")
    dump = tmp_path / "heart.dump"
    # a miss, then a hit on the kept verdict: the same bytes, and one search
    for _ in range(2):
        dumped = ["--dump", str(dump)] if expected_dump.exists() else []
        code, out, _ = run_cli(["heart", *group, "--p", p, *dumped], capsys)
        assert code == 0
        assert out == (Path(__file__).parent / "golden" / golden).read_text()
        if dumped:
            assert dump.read_text() == expected_dump.read_text()
            dump.unlink()
    assert searches == [1]


def test_heart_runs_one_meataxe(monkeypatch, capsys):
    # the printed MeatAxe verdict and the simplicity verdict share one search
    # and one commutant: from an empty memo the report runs the attempts of
    # one fresh search, and the commutant once
    from heartproof import modules
    from heartproof.groups import mathieu_group

    calls = {"_attempt": 0, "commutant_dim": 0}
    for name in calls:
        def counted(*args, _f=getattr(modules, name), _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(modules, name, counted)
    modules.is_irreducible(modules.heart(mathieu_group(11), 3))
    fresh = calls["_attempt"]
    calls["_attempt"] = 0
    code, out, _ = run_cli(["heart", "--group", "M11", "--p", "3"], capsys)
    assert code == 0 and "[computation] heart irreducible" in out
    assert fresh > 0 and calls == {"_attempt": fresh, "commutant_dim": 1}


@pytest.mark.parametrize("command", ["heart", "analyze"])
def test_exhausted_meataxe_is_reported(command, tmp_path, monkeypatch, capsys):
    # no attempt allowed: heart is an error, analyze leaves the heart row open
    from heartproof import modules, verdict

    monkeypatch.setattr(modules, "ATTEMPTS", 0)
    verdict._custom_group_on.cache_clear()
    path = tmp_path / "a5.txt"
    path.write_text("(0 1 2)\n(0 1 2 3 4)\n")
    exhausted = "no singular element of minimal nullity in 0 attempts (modules.ATTEMPTS)"
    if command == "heart":
        code, out, err = run_cli(["heart", "--group-file", str(path), "--p", "3"], capsys)
        assert (code, out, err) == (1, "", f"error: {exhausted}\n")
        return
    argv = ["analyze", "--group-file", str(path), "--p", "3", "--assume-zeta"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2 and err == ""
    assert out.endswith("note: route index_criterion_ring failed at: "
                        "heart of the permutation action is absolutely irreducible\n")
    s = verdict.Scenario(5, 3, 1, "custom", generators=("(0 1 2)", "(0 1 2 3 4)"),
                         assume_zeta=True)
    rows = verdict._route_index_criterion(s, verdict._resolve_group(s))
    assert (rows[1].kind, rows[1].passed, rows[1].detail) == ("computed", None, exhausted)
    assert all(r.detail.startswith("not evaluated") for r in rows[2:])


def test_heart_seeds_share_the_seed_free_verdict(monkeypatch, capsys):
    # PSL2(16)'s heart at p = 3 is decided by the first seed-free random draw
    from heartproof import modules

    attempts = []

    def counted(*args, _f=modules._attempt, **kwargs):
        attempts[-1] += 1
        return _f(*args, **kwargs)

    monkeypatch.setattr(modules, "_attempt", counted)
    outs = []
    for seed in range(5):
        attempts.append(0)
        code, out, _ = run_cli(["heart", "--group", "PSL2(16)", "--p", "3", "--seed", str(seed)],
                               capsys)
        assert code == 0
        outs.append(out)
    assert outs == [outs[0]] * 5
    assert attempts[0] > 0 and attempts[1:] == [0] * 4


@pytest.mark.parametrize("tag, ell", [("PSL2(6^2)", 6), ("PSL2(4^2)", 4), ("U3(6,1)", 6),
                                      ("PSL2(5^0)", None)])
def test_analyze_refuses_non_prime_characteristic(tag, ell, capsys):
    # analyze, heart and group refuse such an l^r with one identical line
    rule = f"l = {ell} must be prime" if ell else "r = 0 must be at least 1"
    errs = []
    for command in (["analyze", "--p", "5"], ["heart", "--p", "5"], ["group"]):
        code, out, err = run_cli([command[0], "--group", tag, *command[1:]], capsys)
        assert code == 1 and out == ""
        errs.append(err)
    assert errs == [errs[0]] * 3 and errs[0].count("\n") == 1
    assert rule in errs[0]


def _count_family_groups(monkeypatch):
    """Calls of the family constructors behind `Family.concrete`, by name."""
    from heartproof import groups
    calls = {}
    for name in ("symmetric_group", "alternating_group", "mathieu_group", "psl2_group"):
        def counted(*args, _f=getattr(groups, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _f(*args)
        monkeypatch.setattr(groups, name, counted)
    return calls


@pytest.mark.parametrize("tag", ["M11", "PSL2(13)"])
def test_analyze_builds_no_group_where_the_table_answers(tag, monkeypatch, capsys):
    calls = _count_family_groups(monkeypatch)
    code, _, _ = run_cli(["analyze", "--group", tag, "--p", "7" if tag == "M11" else "5",
                          "--r", "2"], capsys)
    assert code in (0, 2) and calls == {}


def test_analyze_builds_a_silent_tables_group_once(monkeypatch, capsys):
    calls = _count_family_groups(monkeypatch)
    code, out, _ = run_cli(["analyze", "--group", "PSL2(7)", "--p", "5", "--r", "2"], capsys)
    assert code == 2 and calls == {"psl2_group": 1}
    assert "subgroup of order 24, index 7, generated by " in out


def test_analyze_u3_5_keeps_its_open_index_row(monkeypatch, capsys):
    from heartproof import verdict
    from heartproof.groups import GroupTag
    calls = _count_family_groups(monkeypatch)
    code, out, _ = run_cli(["analyze", "--group", "U3(5)", "--p", "11"], capsys)
    assert code == 2 and calls == {}
    assert "note: route coprime_order_ring failed at: no maximal subgroup index divides 125\n" in out
    s = verdict.Scenario(126, 11, 1, "tag", GroupTag.psu3(5))
    row = verdict._route_coprime_order(s, verdict._resolve_group(s))[-1]
    assert (row.kind, row.passed, row.detail) == (
        "computed", None, "no concrete group available and the family table is inconclusive")


def test_probe_branches_without_another_test(capsys):
    # composite degree: transitive with a transposition, no primitivity proof
    code, out, _ = run_cli(["probe", "--poly", "x^4 - 2"], capsys)
    assert code == 0 and "conclusion: heuristic [symmetric]\n" in out
    # prime degree and a transposition, no 3-cycle
    code, out, _ = run_cli(["probe", "--poly", "x^2 - 2"], capsys)
    assert code == 0 and "conclusion: proven_sn\nresolved group: symmetric\n" in out
    assert "3-cycle" not in out


def test_analyze_poly_without_a_group_leaves_rows_open(capsys):
    code, out, _ = run_cli(["analyze", "--poly", "x^6 + 24*x - 20", "--p", "7",
                            "--assume-zeta"], capsys)
    assert code == 2
    assert ("  [open] group acts doubly transitively on the n roots (computed): "
            "no concrete group to test\n") in out
    assert "note: galois probe could not certify the group: probe conclusion: unknown\n" in out


def test_heart_of_a_group_without_generators(tmp_path, capsys):
    path = tmp_path / "trivial.txt"
    path.write_text("()\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, _ = run_cli(["heart", "--group-file", str(path), "--n", "7", "--p", "5"],
                               capsys)
    assert code == 0
    assert out == ("group: custom on 7 points, order 1\n"
                   "heart: dimension 6 (hyperplane) over F_5\n"
                   "irreducible: no (invariant subspace of dimension 1)\n"
                   "simplicity verdict: NOT_SIMPLE\n"
                   "  [computation] invariant subspace of dimension 1 inside the "
                   "6-dimensional heart\n")


def test_prime_power_from_integer_roots(capsys):
    # q = 10^9 + 7 is prime: found as its own first root, not by trial division
    start = time.perf_counter()
    code, out, _ = run_cli(["analyze", "--group", "PSL2(1000000007)", "--p", "5"], capsys)
    assert code == 0 and time.perf_counter() - start < 1
    assert "group=PSL2(1000000007)" in out
    assert parse_group_tag("PSL2(25)", None).ell == 5
    t = parse_group_tag(f"U3({3**20})", None)
    assert (t.ell, t.r) == (3, 20)
    code, out, err = run_cli(["analyze", "--group", "PSL2(12)", "--p", "5"], capsys)
    assert code == 1 and out == "" and err == "error: 12 is not a prime power\n"


@pytest.mark.parametrize("command", [["group"], ["heart", "--p", "5"], ["analyze", "--p", "5"]],
                         ids=["group", "heart", "analyze"])
@pytest.mark.parametrize("tag, message", [
    ("PSL2(2^10000000000)", f"q = 2^10000000000 is above the limit MAX_Q_BITS = {MAX_Q_BITS}"),
    ("U3(2^10000000000)", f"q = 2^10000000000 is above the limit MAX_Q_BITS = {MAX_Q_BITS}"),
    (f"PSL2({'7' * 4000})",
     f"q written with a 4000-digit number is above the limit MAX_Q_BITS = {MAX_Q_BITS}"),
    ("PSL2(2^99999999)", f"q = 2^99999999 is above the limit MAX_Q_BITS = {MAX_Q_BITS}"),
    (f"PSL2(3^{MAX_Q_BITS})", f"q = 3^{MAX_Q_BITS} is above the limit MAX_Q_BITS = {MAX_Q_BITS}"),
    (f"PSL2({2**MAX_Q_BITS + 1})",
     f"q = {2**MAX_Q_BITS + 1} is above the limit MAX_Q_BITS = {MAX_Q_BITS}"),
    ("PSL2(2^4^5)", "malformed prime power '2^4^5': expected q, l^r or l,r"),
    ("PSL2(2,4,5)", "malformed prime power '2,4,5': expected q, l^r or l,r"),
    ("U3(5^1^1)", "malformed prime power '5^1^1': expected q, l^r or l,r"),
    ("PSL2(x)", "malformed prime power 'x': expected q, l^r or l,r"),
    ("PSL2()", "malformed prime power '': expected q, l^r or l,r"),
    ("PSL2(2^x)", "malformed prime power '2^x': expected q, l^r or l,r"),
], ids=["psl2-huge-r", "u3-huge-r", "bare-4000-digits", "str-limit", "3-power", "bare-bits",
        "two-carets", "three-numbers", "u3-two-carets", "letter", "empty", "letter-exponent"])
def test_prime_power_limits_and_malformed_text(command, tag, message, capsys):
    start = time.perf_counter()
    code, out, err = run_cli([*command, "--group", tag], capsys)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_fixtures_refuse_a_field_order_above_the_limit(tmp_path, capsys):
    line = {"name": "huge_q", "scenario": {"n": 5, "p": 7, "r": 1, "group": {
        "kind": "psl2", "ell": 2, "r": 10**10}}, "expect": {"conclusion": "cyclotomic_ring"}}
    path = tmp_path / "huge_q.jsonl"
    path.write_text(json.dumps(line) + "\n")
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 1 and err == ""
    assert out == (f"[FAIL] huge_q: unexpected rejection: q = 2^{10**10} is above the limit "
                   f"MAX_Q_BITS = {MAX_Q_BITS}\n0 passed, 1 failed\n")


def test_fixtures_refuse_a_mathieu_degree_that_does_not_exist(tmp_path, capsys):
    m13 = {"name": "m13", "scenario": {"n": 13, "p": 5, "r": 1, "group": {"kind": "mathieu"}},
           "expect": {"error": "invalid_scenario"}}
    path = tmp_path / "m13.jsonl"
    path.write_text(json.dumps(m13) + "\n" + FIXTURES.read_text().splitlines()[1] + "\n")
    code, out, err = run_cli(["fixtures", "--run", str(path)], capsys)
    assert code == 0 and err == ""
    assert out == ("[pass] m13: rejected as expected: M13 does not exist: the degree must be "
                   "one of 11, 12, 22, 23, 24\n"
                   "[pass] symmetric_ring: cyclotomic_ring\n"
                   "2 passed, 0 failed\n")
