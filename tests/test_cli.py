"""Command-line interface: outputs, JSON reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from supergeo import cech, cli
from supergeo.cli import _build_parser, _int, main, run
from supergeo.selfcheck import MAX_CASES

GENERATOR = "X0^-1*X1^-1*X2^-1"


def report_of(argv):
    code, report = run(argv)
    return code, report


# ---------------------------------------------------------------------------
# cohomology-style queries
# ---------------------------------------------------------------------------


def test_cohomology_top_basis():
    code, rep = report_of(["cohomology", "--n", "2", "--k", "-3", "--q", "2"])
    assert code == 0
    assert rep["details"] == {"dim": 1, "basis": [GENERATOR]}
    assert rep["outcome"] == "value"


def test_cohomology_sections():
    code, rep = report_of(["cohomology", "--n", "2", "--k", "2", "--q", "0"])
    assert code == 0
    assert rep["details"]["dim"] == 6


def test_cohomology_bad_degree_is_usage_error():
    code, rep = report_of(["cohomology", "--n", "2", "--k", "-3", "--q", "5"])
    assert code == 2
    assert rep["outcome"] == "usage-error"


def test_basis_bound_is_usage_error():
    code, rep = report_of(["cohomology", "--n", "2", "--k=-448", "--q", "2"])
    assert (code, rep["details"]["dim"], len(rep["details"]["basis"])) == (0, 99_681, 99_681)
    assert report_of(["h1-tangent", "--n", "2", "--k=-448"])[1]["details"]["agree"] is True
    error = "H^2(P^2, O(-449)) has 100128 basis monomials, above the bound 100000"
    for argv in (["cohomology", "--n", "2", "--k=-449", "--q", "2"], ["h1-tangent", "--n", "2", "--k=-449"]):
        code, rep = report_of(argv)
        assert (code, rep["outcome"], rep["details"]["error"]) == (2, "usage-error", error)
    code, rep = report_of(["cohomology", "--n", "50", "--k=-100", "--q", "50"])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert "above the bound 100000" in rep["details"]["error"]
    # a count too long to print is not printed
    code, rep = report_of(["h1-tangent", "--n", "2", "--k=-" + "9" * 3000])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"].endswith(") has too many basis monomials, above the bound 100000")


NINES = "9" * 4300


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--n", "20000", "--k", "20000", "--q", "0"],
        ["bott", "--n", "20000", "--p", "0", "--k", "20000", "--q", "0"],
        ["sym-rank", "--k", NINES],
        ["cohomology", "--n", "1", "--k", NINES, "--q", "0"],
    ],
    ids=["cohomology", "bott", "sym-rank", "cohomology-long-k"],
)
def test_unprintable_result_is_usage_error(argv, capsys):
    assert main([*argv, "--json"]) == 2
    rep = json.loads(capsys.readouterr().out)
    assert (rep["outcome"], rep["details"]) == ("usage-error", {"error": "the result has more than 4300 digits"})


def test_basis_exponent_bound_is_usage_error():
    code, rep = report_of(["cohomology", "--n", "999", "--k=-1000", "--q", "999"])
    basis = "*".join(f"X{i}^-1" for i in range(1000))
    assert (code, rep["details"]) == (0, {"dim": 1, "basis": [basis]})
    code, rep = report_of(["cohomology", "--n", "2000", "--k=-2002", "--q", "2000"])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == (
        "H^2000(P^2000, O(-2002)) has 2001 basis monomials of 2001 exponents each, "
        "above the bound 300000 exponents"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["cohomology", "--n", "1000000", "--k", "1000000", "--q", "0"],
        ["cohomology", "--n", "1000000", "--k=-2000001", "--q", "1000000"],
        ["cohomology", "--n", "300", "--k=-" + NINES, "--q", "300"],
        ["bott", "--n", "1000000", "--p", "0", "--k", "1000000", "--q", "0"],
    ],
    ids=["sections", "top", "long-k", "bott"],
)
def test_unprintable_binomial_is_refused_before_it_is_computed(argv, monkeypatch):
    def comb(n, m):
        raise AssertionError(f"comb({n}, {m}) computed")

    monkeypatch.setattr(cech, "comb", comb)
    code, rep = report_of(argv)
    assert (code, rep["outcome"], rep["details"]) == (2, "usage-error", {"error": "the result has more than 4300 digits"})


def test_bott_and_h1_tangent():
    code, rep = report_of(["bott", "--n", "2", "--p", "1", "--k", "0", "--q", "1"])
    assert (code, rep["details"]["dim"]) == (0, 1)
    code, rep = report_of(["h1-tangent", "--n", "2", "--k", "-3"])
    assert code == 0
    assert rep["details"]["dim"] == 1
    assert rep["details"]["dim_bott_serre"] == 1
    assert rep["details"]["agree"] is True


def test_sym_rank():
    code, rep = report_of(["sym-rank", "--k", "3"])
    assert code == 0
    assert rep["details"] == {"k": 3, "even": 6, "odd": 6}
    code, rep = report_of(["sym-rank", "--k", "0"])
    assert (code, rep["outcome"]) == (2, "usage-error")


# ---------------------------------------------------------------------------
# atlas commands
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["decomposable", "omega1", "pi-plane"])
def test_verify_atlas_families(family):
    code, rep = report_of(["verify-atlas", "--family", family])
    assert code == 0
    assert rep["outcome"] == "pass"
    assert rep["details"]["loop_residuals"] == {}


def test_berezinian_normal_and_raw():
    code, rep = report_of(
        ["berezinian", "--family", "decomposable", "--lambda", "2", "--pair", "2", "0"]
    )
    assert code == 0
    assert rep["details"] == {
        "lambda": "2", "pair": "2<-0", "value": "-1", "raw_value": "1"
    }
    code, rep = report_of(
        ["berezinian", "--family", "omega1", "--pair", "0", "1"]
    )
    assert rep["details"] == {
        "lambda": "1", "pair": "0<-1", "value": "-1", "raw_value": "1"
    }


def test_calabi_yau_values():
    code, rep = report_of(["calabi-yau", "--family", "decomposable", "--lambda", "0"])
    assert code == 0
    assert rep["outcome"] == "pass"
    assert rep["details"]["berezinians"] == {"0<-1": "-1", "1<-2": "-1", "2<-0": "1"}


def test_obstruction_and_picard_classes():
    for cmd in ("obstruction", "picard-chase"):
        code, rep = report_of([cmd, "--family", "omega1", "--lambda", "3/2"])
        assert code == 0
        assert rep["details"]["class"] == {GENERATOR: "3/2"}
        code, rep = report_of([cmd, "--family", "decomposable", "--lambda", "0"])
        assert code == 0
        assert rep["details"]["class"] == {}


def test_omega_cocycle_sum_command():
    code, rep = report_of(["omega-cocycle", "--family", "decomposable"])
    assert code == 0
    assert rep["outcome"] == "pass"
    assert rep["details"]["zero_sum"] is True
    assert rep["details"]["residuals"] == {}


def test_pi_plane_compare():
    code, rep = report_of(["pi-plane-compare"])
    assert code == 0
    assert rep["outcome"] == "pass"
    assert rep["details"]["equal"] is True


def test_unknown_family_is_usage_error():
    code, rep = report_of(["verify-atlas", "--family", "nope"])
    assert code == 2


def test_bad_lambda_is_usage_error():
    code, rep = report_of(["verify-atlas", "--family", "omega1", "--lambda", "x/y"])
    assert code == 2
    # one message on every Python: Fraction() reads "3 / 4" from 3.12 on, and
    # its own error text differs between versions
    for text in ("x", "1.d", "3 / 4", "3/ 4", "1/0", ""):
        code, rep = report_of(["verify-atlas", "--family", "omega1", "--lambda", text])
        assert (code, rep["details"]["error"]) == (2, f"not a rational number: {text!r}")


def test_lambda_exponent_bound_is_usage_error():
    # refused before Fraction() builds 10**exponent, which would take seconds
    for text in ("1e10000000", "1e1000000", "-2.5E-99999999999999999999", "1e4_301"):
        code, rep = report_of(["verify-atlas", "--family", "omega1", f"--lambda={text}"])
        assert (code, rep["outcome"]) == (2, "usage-error")
        assert rep["details"]["error"] == f"exponent of {text!r} exceeds the bound 4300"
    # within the exponent bound, but the number itself has too many digits to print
    code, rep = report_of(["verify-atlas", "--family", "omega1", "--lambda", "1e-4300"])
    assert code == 2
    assert "more than 4300 digits" in rep["details"]["error"]
    # a digit string longer than int() reads is refused the same way, without int()'s own text
    code, rep = report_of(["parse", "l", "--bind", f"l={NINES}9"])
    assert (code, rep["details"]["error"]) == (2, f"'{NINES}9' has more than 4300 digits in its numerator or denominator")
    code, rep = report_of(["parse", "l", "--bind", "l=1e10000000"])
    assert (code, rep["details"]["error"]) == (2, "exponent of '1e10000000' exceeds the bound 4300")


ATLAS_COMMANDS = ("verify-atlas", "berezinian", "calabi-yau", "obstruction", "picard-chase", "omega-cocycle")


# text -> its canonical form, str(Fraction(text)) on Python 3.11 and later
@pytest.mark.parametrize("text, canonical", [("1e2", "100"), ("6/4", "3/2"), ("1e0", "1"), ("-0", "0"), ("1_0", "10")])
@pytest.mark.parametrize("command", ATLAS_COMMANDS)
def test_atlas_commands_report_the_canonical_lambda(command, text, canonical):
    argv = [command, "--family", "omega1", *(["--pair", "0", "1"] if command == "berezinian" else [])]
    code, rep = report_of([*argv, "--lambda", text])
    assert (code, rep["details"]["lambda"], rep["inputs"]["lam"]) == (0, canonical, text)
    assert rep["details"] == report_of([*argv, "--lambda", canonical])[1]["details"]


# Forms of the rational grammar, which is Python 3.11's Fraction grammar: signs,
# a bare or empty fractional part, underscores, surrounding whitespace, and
# Unicode digits, which the CLI refuses before anything else.
FRACTION_FORMS = ("-7e{e}", "+.5e{e}", "1.e{e}", "1_0e{e}", " 2.5E{e} ", "\u0663e{e}")


@pytest.mark.parametrize("form", FRACTION_FORMS)
def test_lambda_exponent_bound_reads_fraction_grammar(form):
    for e in ("+4_301", "-99999999999999999999", "1" * 5000, "\u0664\u0663\u0660\u0661"):
        text = form.format(e=e)
        code, rep = report_of(["parse", "l", "--bind", f"l={text}"])
        want = f"exponent of {text!r} exceeds the bound 4300" if text.isascii() else non_ascii_error(text)
        assert (code, rep["details"]["error"]) == (2, want)
    for e in ("-3", "\u0660\u0663", "0" * 4000 + "2"):
        text = form.format(e=e)
        code, rep = report_of(["parse", "l", "--bind", f"l={text}"])
        if text.isascii():  # Fraction() reads "_" only from Python 3.11 on
            assert (code, rep["details"].get("canonical")) == (0, str(Fraction(text.replace("_", "")))), text
        else:
            assert (code, rep["details"].get("error")) == (2, non_ascii_error(text)), text


def non_ascii_error(text):
    return f"numbers are written in ASCII digits, got {text!r}"


def test_lambda_bounds_follow_the_process_limit(str_digits):
    str_digits(640)
    code, rep = report_of(["verify-atlas", "--family", "omega1", "--lambda", "1e641"])
    assert (code, rep["details"]["error"]) == (2, "exponent of '1e641' exceeds the bound 640")
    code, rep = report_of(["verify-atlas", "--family", "omega1", "--lambda", "1e640"])
    assert (code, rep["details"]["error"]) == (2, "'1e640' has more than 640 digits in its numerator or denominator")
    code, rep = report_of(["berezinian", "--family", "omega1", "--lambda", "1e639", "--pair", "0", "1"])
    assert (code, rep["details"]["lambda"]) == (0, "1" + "0" * 639)


def test_pi_plane_needs_lambda_one():
    code, rep = report_of(["verify-atlas", "--family", "pi-plane", "--lambda", "2"])
    assert code == 2


# ---------------------------------------------------------------------------
# generic family via matrix JSON
# ---------------------------------------------------------------------------


def write_cocycle(tmp_path, mats):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps({"matrices": mats}))
    return str(path)


def test_generic_family_from_file(tmp_path):
    path = write_cocycle(
        tmp_path,
        {
            "0<-1": [["1/z11", "0"], ["0", "1/z11^2"]],
            "1<-2": [["1/z22", "0"], ["0", "1/z22^2"]],
            "2<-0": [["1/z20", "0"], ["0", "1/z20^2"]],
        },
    )
    code, rep = report_of(
        ["verify-atlas", "--family", "generic", "--matrix-json", path, "--lambda", "2"]
    )
    assert code == 0
    assert rep["outcome"] == "pass"


def test_generic_family_bad_twist_fails_verification(tmp_path):
    path = write_cocycle(
        tmp_path,
        {
            "0<-1": [["1/z11", "0"], ["0", "1/z11"]],
            "1<-2": [["1/z22", "0"], ["0", "1/z22"]],
            "2<-0": [["1/z20", "0"], ["0", "1/z20"]],
        },
    )
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", path])
    assert code == 1
    assert "det twist -2" in rep["details"]["error"]


def test_generic_family_requires_file():
    code, rep = report_of(["verify-atlas", "--family", "generic"])
    assert code == 2


@pytest.mark.parametrize("doc", [{"cocycle": {}}, {"matrices": ["0<-1"]}, ["matrices"]])
def test_generic_family_without_matrices_object_is_usage_error(tmp_path, doc):
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(doc))
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", str(path)])
    assert code == 2
    assert rep["outcome"] == "usage-error"
    assert '"matrices" object' in rep["details"]["error"]


GOOD_ROWS = [["1/z11", "0"], ["0", "1/z11^2"]]


@pytest.mark.parametrize(
    "key, rows, message",
    [
        ("01", GOOD_ROWS, "matrices key '01' is not \"i<-j\""),
        ("0<-x", GOOD_ROWS, "matrices key '0<-x' is not \"i<-j\""),
        ("0<-1<-2", GOOD_ROWS, "matrices key '0<-1<-2' is not \"i<-j\""),
        ("0<-1", 5, "matrices['0<-1'] is not a list of lists"),
        ("0<-1", ["1/z11", "0"], "matrices['0<-1'] is not a list of lists"),
        ("0<-1", [[1, 0], [0, 1]], "matrices['0<-1'] is not a list of lists of expression strings"),
    ],
    ids=["no-arrow", "non-integer-index", "two-arrows", "number", "flat-list", "number-entries"],
)
def test_generic_family_malformed_matrix_is_usage_error(tmp_path, key, rows, message):
    path = write_cocycle(tmp_path, {key: rows})
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", path])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert message in rep["details"]["error"]


DECOMPOSABLE_ROWS = {
    "0<-1": [["1/z11", "0"], ["0", "1/z11^2"]],
    "1<-2": [["1/z22", "0"], ["0", "1/z22^2"]],
    "2<-0": [["1/z20", "0"], ["0", "1/z20^2"]],
}


@pytest.mark.parametrize(
    "key", ["0<-5", "2<--1", "1<-0", "00<-1"], ids=["out-of-range", "negative", "reversed", "padded"]
)
def test_generic_family_non_overlap_key_is_usage_error(tmp_path, key):
    path = write_cocycle(tmp_path, {**DECOMPOSABLE_ROWS, key: [["1", "0"], ["0", "1"]]})
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", path])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert f"matrices key {key!r} is not one of the overlaps '0<-1', '1<-2', '2<-0'" in rep["details"]["error"]


def test_generic_family_missing_overlap_is_usage_error(tmp_path):
    rows = {key: val for key, val in DECOMPOSABLE_ROWS.items() if key != "1<-2"}
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", write_cocycle(tmp_path, rows)])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert "matrices key '1<-2' is missing" in rep["details"]["error"]


def test_generic_family_deeply_nested_entry_fails(tmp_path):
    rows = {**DECOMPOSABLE_ROWS, "0<-1": [["(" * 400 + "1/z11" + ")" * 400, "0"], ["0", "1/z11^2"]]}
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", write_cocycle(tmp_path, rows)])
    assert (code, rep["outcome"], rep["details"]) == (1, "fail", {"error": "nesting deeper than 100 at position 100"})


def test_generic_family_deeply_nested_json_is_usage_error(tmp_path):
    path = tmp_path / "cocycle.json"
    path.write_text('{"matrices": ' + "[" * 100_000 + "]" * 100_000 + "}")
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", str(path)])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == f"{path}: JSON nested too deeply to read"


@pytest.mark.parametrize("content, reason", [
    (b'{"matrices": ', "not valid JSON: Expecting value: line 1 column 14 (char 13)"),
    (b"\xff\xfe{}", "not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position 0"),
])
def test_generic_family_unreadable_json_names_the_file(tmp_path, content, reason):
    path = tmp_path / "cocycle.json"
    path.write_bytes(content)
    code, rep = report_of(["verify-atlas", "--family", "generic", "--matrix-json", str(path)])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"].startswith(f"{path}: {reason}")


@pytest.mark.parametrize("family", ["decomposable", "omega1", "pi-plane"])
def test_matrix_json_with_another_family_is_usage_error(family):
    # refused before the file is opened, so a missing file is not what is reported
    code, rep = report_of(["verify-atlas", "--family", family, "--matrix-json", "/nonexistent.json"])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == f"--matrix-json is read only with --family generic, not --family {family}"


# ---------------------------------------------------------------------------
# parse and selftest commands
# ---------------------------------------------------------------------------


def test_parse_command():
    code, rep = report_of(
        ["parse", "z21/z11 + l*t11*t21/z11^2", "--table", "1", "--bind", "l=1"]
    )
    assert code == 0
    assert rep["outcome"] == "value"
    assert rep["details"]["canonical"] == "z11^-2*t11*t21 + z11^-1*z21"
    assert rep["details"]["roundtrip_ok"] is True


BIND_REFUSALS = [
    (["z10", "--bind", "z10=2"], "--bind 'z10=2': z10 is a variable of table 0"),
    (["X1", "--table", "hom", "--bind", "X1=2"], "--bind 'X1=2': X1 is a variable of table hom"),
    (["l", "--bind", "l=3", "--bind", "l=4"], "--bind 'l=4': l is already bound"),
    (["l", "--bind", "=3"], "--bind '=3': '' is not an identifier"),
    (["l", "--bind", "l"], "--bind needs NAME=VALUE, got 'l'"),
    (["l", "--bind", "2l=3"], "--bind '2l=3': '2l' is not an identifier"),
    (["l", "--bind", " l=3"], "--bind ' l=3': ' l' is not an identifier"),
    (["l", "--bind", "l m=3"], "--bind 'l m=3': 'l m' is not an identifier"),
    (["l", "--bind", "l-m=3"], "--bind 'l-m=3': 'l-m' is not an identifier"),
    (["l", "--bind", "l$=3"], "--bind 'l$=3': 'l$' is not an identifier"),
]


@pytest.mark.parametrize("argv, error", BIND_REFUSALS, ids=[argv[-1] for argv, _ in BIND_REFUSALS])
def test_parse_command_refuses_a_binding_it_would_drop_or_cannot_read(argv, error):
    code, rep = report_of(["parse", *argv])
    assert (code, rep["outcome"], rep["details"]["error"]) == (2, "usage-error", error)


def test_parse_command_keeps_unused_and_non_ascii_names():
    # a name the text never reads, a variable of another table, and a letter
    # of another script all follow the grammar's identifier rule
    argv = ["parse", "2*\u03bb + z10", "--bind", "a=1", "--bind", "z11=5", "--bind", "\u03bb=3/2", "--bind", "_b2=0"]
    code, rep = report_of(argv)
    assert (code, rep["details"]["canonical"]) == (0, "3 + z10")


def test_parse_command_leading_minus_after_double_dash():
    code, rep = report_of(["parse", "--", "-z10"])
    assert code == 0
    assert (rep["details"]["canonical"], rep["details"]["roundtrip_ok"]) == ("-z10", True)


def test_parse_command_leading_minus_without_double_dash_says_how():
    code, rep = report_of(["parse", "-z10"])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert "put -- before an expression that starts with '-'" in rep["details"]["error"]
    code, rep = report_of(["parse", "z10", "--table", "9"])  # other usage errors get no hint
    assert "put --" not in rep["details"]["error"]


def test_parse_command_syntax_error():
    code, rep = report_of(["parse", "z11 +", "--table", "1"])
    assert code == 1


@pytest.mark.parametrize("expr, pos", [("\u00b2", 0), ("z10^\u00b2", 4), ("z10^\u0663", 4)])
def test_parse_command_refuses_non_ascii_digits(expr, pos, capsys):
    # a verification failure (exit 1) at its position, as for any other stray character
    assert main(["parse", expr, "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert rep["outcome"] == "fail"
    assert rep["details"]["error"].endswith(f"at position {pos}")


def test_parse_command_exponent_bound():
    code, rep = report_of(["parse", "z10^1000000"])
    assert (code, rep["details"]["canonical"]) == (0, "z10^1000000")
    code, rep = report_of(["parse", "a^3000000", "--bind", "a=3/2"])
    assert (code, rep["outcome"]) == (1, "fail")
    assert "exceeds the bound 1000000 at position 2" in rep["details"]["error"]


def test_parse_command_integer_literal_bound():
    code, rep = report_of(["parse", "z10 + " + "7" * 5000])
    assert (code, rep["outcome"]) == (1, "fail")
    assert rep["details"]["error"] == "integer literal exceeds 4300 digits at position 6"
    code, rep = report_of(["parse", "7" * 4300])
    assert (code, rep["details"]["canonical"]) == (0, "7" * 4300)


@pytest.mark.parametrize(
    "expr, pos",
    [("(" * 100 + "z10" + ")" * 100, None), ("(" * 330 + "z10" + ")" * 330, 100), ("1+" + "-" * 1000 + "z10", 102)],
    ids=["at-the-bound", "parentheses", "minus-signs"],
)
def test_parse_command_nesting_bound(expr, pos):
    code, rep = report_of(["parse", expr])
    if pos is None:
        assert (code, rep["details"]["canonical"]) == (0, "z10")
    else:
        assert (code, rep["outcome"], rep["details"]) == (1, "fail", {"error": f"nesting deeper than 100 at position {pos}"})


@pytest.mark.parametrize(
    "argv",
    [["parse", "9" * 3000 + "*" + "9" * 3000], ["parse", "l*l", "--bind", "l=" + "9" * 3000]],
    ids=["literals", "binding"],
)
def test_parse_command_unprintable_coefficient(argv, capsys):
    assert main([*argv, "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)
    assert (rep["outcome"], rep["details"]) == (
        "fail",
        {"error": "a coefficient exceeds 4300 digits in its numerator or denominator"},
    )


@pytest.mark.parametrize("cases", ["0", "-5"])
def test_selftest_budget_below_one_is_usage_error(cases):
    code, rep = report_of(["selftest", "--cases", cases])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == f"the case budget must be at least 1, got {cases}"


@pytest.mark.parametrize("cases", [str(MAX_CASES + 1), "1" + "0" * 400], ids=["above-the-bound", "401-digits"])
def test_selftest_budget_above_the_bound_is_usage_error(cases, capsys):
    # refused before run_all scales the budget in float or runs a case
    code, rep = report_of(["selftest", "--cases", cases])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == f"the case budget must be at most 1000000, got {cases}"
    assert main(["selftest", "--cases", cases]) == 2
    assert "Traceback" not in capsys.readouterr().err


def test_selftest_small_budget():
    code, rep = report_of(["selftest", "--cases", "70"])
    assert code == 0
    assert rep["details"]["ok"] is True
    assert rep["details"]["total_cases"] >= 60


def test_selftest_seed_env(monkeypatch):
    monkeypatch.setenv("SUPERGEO_SEED", "123")
    code, rep = report_of(["selftest", "--cases", "70"])
    assert code == 0
    assert rep["details"]["seed"] == 123


@pytest.mark.parametrize("seed", ["\u0663", "abc", "1" * 5001], ids=["arabic-indic-digit", "not-a-number", "5001-digits"])
def test_selftest_bad_seed_env_is_usage_error(seed, monkeypatch, capsys):
    monkeypatch.setenv("SUPERGEO_SEED", seed)
    code, rep = report_of(["selftest", "--cases", "7"])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == f"SUPERGEO_SEED must be an integer in ASCII digits, got {seed!r}"
    assert main(["selftest", "--cases", "7"]) == 2
    assert "Traceback" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# report shape and determinism
# ---------------------------------------------------------------------------


def test_report_shape():
    _, rep = report_of(["cohomology", "--n", "2", "--k", "-3", "--q", "2"])
    assert set(rep) == {"command", "inputs", "outcome", "details", "version", "exact"}
    assert rep["exact"] is True
    assert rep["command"] == "cohomology"


def test_json_output_deterministic(capsys):
    argv = ["obstruction", "--family", "decomposable", "--lambda", "2", "--json"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    parsed = json.loads(first)
    assert parsed["details"]["class"] == {GENERATOR: "2"}
    assert first == json.dumps(parsed, sort_keys=True) + "\n"


def test_main_text_output(capsys):
    assert main(["cohomology", "--n", "2", "--k", "-3", "--q", "2"]) == 0
    out = capsys.readouterr().out
    assert "1" in out


def test_main_follows_an_abbreviated_json_flag(capsys):
    assert main(["sym-rank", "--k", "2", "--js"]) == 0
    assert json.loads(capsys.readouterr().out)["details"] == {"k": 2, "even": 4, "odd": 4}


@pytest.mark.parametrize(
    "argv, outcome",
    [(["sym-rank", "--k", "2", "--js"], "value"), (["sym-rank", "--json"], "usage-error")],
    ids=["parsed", "unparsed"],
)
def test_main_builds_one_parser(argv, outcome, monkeypatch, capsys):
    built = []

    def counting_build():
        built.append(None)
        return _build_parser()

    monkeypatch.setattr(cli, "_build_parser", counting_build)
    main(argv)
    assert len(built) == 1
    assert json.loads(capsys.readouterr().out)["outcome"] == outcome


def test_main_reads_json_after_double_dash_as_the_expression(capsys):
    assert main(["parse", "--", "--json"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("parse: fail\n")
    assert "unknown identifier 'json'" in out


@pytest.mark.parametrize(
    "argv, as_json",
    [(["parse", "--json"], True), (["parse", "--bogus", "--", "--json"], False)],
    ids=["flag-before-a-usage-error", "after-double-dash"],
)
def test_main_reads_the_flag_of_an_unparsed_argv_before_double_dash(argv, as_json, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    if as_json:
        assert json.loads(captured.out)["outcome"] == "usage-error"
    else:
        assert (captured.out, captured.err.splitlines()[0]) == ("", "supergeo: usage-error")


def test_usage_error_prints_to_stderr(capsys):
    assert main(["cohomology", "--n", "2", "--k", "-3", "--q", "9"]) == 2
    err = capsys.readouterr().err
    assert err.strip()


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "supergeo.cli", "sym-rank", "--k", "2", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["details"] == {"k": 2, "even": 4, "odd": 4}


# ---------------------------------------------------------------------------
# numeric options read ASCII digits only
# ---------------------------------------------------------------------------

# a valid value for every required option, so that only the tested one is bad
VALID = {"--n": ["2"], "--p": ["1"], "--k": ["1"], "--q": ["2"], "--pair": ["0", "1"], "--cases": ["7"],
         "--family": ["decomposable"]}


def subparsers():
    """The subcommand name -> subparser map of a freshly built parser."""
    return next(a for a in _build_parser()._actions if a.choices and a.dest == "command").choices


def int_options():
    """(subcommand, option, nargs, the subcommand's other required options) for
    every integer-typed option of the parser."""
    found = []
    for name, sub in subparsers().items():
        for action in sub._actions:
            if action.type is _int:
                required = [a.option_strings[0] for a in sub._actions if a.required and a is not action]
                found.append((name, action.option_strings[0], action.nargs or 1, required))
    return found


INT_OPTIONS = int_options()


def test_every_integer_option_is_found():
    assert {(name, option) for name, option, _, _ in INT_OPTIONS} == {
        ("cohomology", "--n"), ("cohomology", "--k"), ("cohomology", "--q"),
        ("bott", "--n"), ("bott", "--p"), ("bott", "--k"), ("bott", "--q"),
        ("h1-tangent", "--n"), ("h1-tangent", "--k"),
        ("berezinian", "--pair"), ("sym-rank", "--k"), ("selftest", "--cases"),
    }


@pytest.mark.parametrize("name, option, nargs, required", INT_OPTIONS, ids=[f"{n}{o}" for n, o, _, _ in INT_OPTIONS])
@pytest.mark.parametrize("digit", ["\u0663", "\uff13"], ids=["arabic-indic", "full-width"])
def test_integer_options_read_ascii_digits_only(name, option, nargs, required, digit):
    argv = [name, *(text for opt in required for text in (opt, *VALID[opt]))]
    assert run([*argv, option, *VALID[option]])[0] == 0  # the ASCII spelling is fine
    code, rep = run([*argv, option, digit, *VALID[option][1:nargs]])
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == non_ascii_error(digit)


@pytest.mark.parametrize(
    "argv",
    [["obstruction", "--family", "decomposable", "--lambda", "\u0663"], ["parse", "l", "--bind", "l=\u0663/\u0662"]],
    ids=["lambda", "bind"],
)
def test_rational_options_read_ascii_digits_only(argv):
    code, rep = run(argv)
    assert (code, rep["outcome"]) == (2, "usage-error")
    assert rep["details"]["error"] == non_ascii_error(argv[-1].removeprefix("l="))


def test_a_non_number_keeps_the_argparse_message():
    code, rep = run(["cohomology", "--n", "two", "--k", "1", "--q", "0"])
    assert (code, rep["details"]["error"]) == (2, "argument --n: invalid int value: 'two'")


# ---------------------------------------------------------------------------
# the parser: every subparser's actions, frozen as data
# ---------------------------------------------------------------------------


def required(name):
    return ((f"--{name}",), name, True, None, None, None, None)


FAMILY_FLAGS = [
    (("--family",), "family", True, None, None, ("decomposable", "omega1", "pi-plane", "generic"), None),
    (("--lambda",), "lam", False, None, "1", None, "RATIONAL"),
    (("--matrix-json",), "matrix_json", False, None, None, None, "FILE"),
]

# subcommand -> its actions after -h/--help and --json, in help order, each as
# (option_strings, dest, required, nargs, default, choices, metavar)
PARSER_ACTIONS = {
    "cohomology": [required("n"), required("k"), required("q")],
    "bott": [required("n"), required("p"), required("k"), required("q")],
    "h1-tangent": [required("n"), required("k")],
    "verify-atlas": FAMILY_FLAGS,
    "berezinian": [*FAMILY_FLAGS, (("--pair",), "pair", True, 2, None, None, ("I", "J"))],
    "calabi-yau": FAMILY_FLAGS,
    "obstruction": FAMILY_FLAGS,
    "picard-chase": FAMILY_FLAGS,
    "omega-cocycle": FAMILY_FLAGS,
    "pi-plane-compare": [],
    "sym-rank": [required("k")],
    "parse": [
        ((), "expr", True, None, None, None, None),
        (("--table",), "table", False, None, "0", ("0", "1", "2", "hom"), None),
        (("--bind",), "bind", False, None, None, None, "NAME=VALUE"),
    ],
    "selftest": [(("--cases",), "cases", False, None, None, None, None)],
}


def test_the_parser_keeps_its_actions():
    # compared as data, not as help text, which varies with COLUMNS and the Python version
    help_json = [
        (("-h", "--help"), "help", False, 0, "==SUPPRESS==", None, None),
        (("--json",), "json", False, 0, False, None, None),
    ]
    built = [
        (name, [
            (tuple(a.option_strings), a.dest, a.required, a.nargs, a.default,
             None if a.choices is None else tuple(a.choices), a.metavar)
            for a in sub._actions
        ])
        for name, sub in subparsers().items()
    ]
    assert built == [(name, [*help_json, *actions]) for name, actions in PARSER_ACTIONS.items()]


def test_berezinian_alone_requires_a_pair():
    code, rep = run(["berezinian"])
    assert (code, rep["details"]["error"]) == (2, "the following arguments are required: --family, --pair")
    code, rep = run(["calabi-yau"])
    assert (code, rep["details"]["error"]) == (2, "the following arguments are required: --family")
