import errno
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import centerlab
from centerlab import cli, numeric, ratfunc
from centerlab.cli import main
from centerlab.liapunov import DegreePass
from centerlab.mpoly import EngineError, MPoly, Rat, merge_tables
from centerlab.ratfunc import RatFunc
from centerlab.systems import parse_system

from conftest import (
    DEG_FACTORED,
    DEG_QUINTIC,
    HOMOG_CUBIC,
    NIL_CUBIC_AB,
    NIL_CUBIC_AB_EPS,
    NIL_DARBOUX,
    NIL_REVERSIBLE,
    rf,
)

SAMPLES = Path(__file__).resolve().parent.parent / "sample_systems"
BENCH_SYSTEMS = SAMPLES.parent / "bench" / "systems"


def poly_from_terms(terms, vars=None):
    """The polynomial of a JSON term list, over ``vars`` or the canonical
    table of the variables it names."""
    names = set()
    for t in terms:
        names.update(t["exponents"])
    table = merge_tables(tuple(names)) if vars is None else tuple(vars)
    d = {}
    for t in terms:
        e = [0] * len(table)
        for v, k in t["exponents"].items():
            e[table.index(v)] = k
        d[tuple(e)] = Rat(t["coeff_num"], t["coeff_den"])
    return MPoly(table, d)


def ratfunc_from_entry(entry):
    """The rational function of a JSON Liapunov-constant entry."""
    names = set()
    for t in entry["num_terms"] + entry["den_terms"]:
        names.update(t["exponents"])
    table = merge_tables(tuple(names))
    return RatFunc(poly_from_terms(entry["num_terms"], table),
                   poly_from_terms(entry["den_terms"], table))


@pytest.fixture
def sysfile(tmp_path):
    def write(text, name="system.sys"):
        p = tmp_path / name
        p.write_text(text + "\n")
        return str(p)

    return write


def run_cli(args, capsys):
    rc = main(args)
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out.strip() else None)


def test_liapunov_minimal_report(sysfile, capsys):
    rc, data = run_cli(["liapunov", sysfile(NIL_CUBIC_AB), "--perturb", "minimal",
                        "--max-degree", "6", "--no-timings"], capsys)
    assert rc == 0
    assert data["class"] == {"base": "nilpotent", "analyzed": "perturbed_nilpotent"}
    assert [c["canonical"] for c in data["conditions"]] == ["A*B - 3*L", "A^3*B - 2*A*B*K"]
    v1 = ratfunc_from_entry(data["liapunov"][0])
    assert v1 * 2 == rf("-(2*eps^2*(A*B - 3*L))/(3 + 2*eps + 3*eps^2)", v1.vars)
    assert data["liapunov"][0]["k"] == 1 and data["liapunov"][0]["degree"] == 4
    assert data["convention"]["unit_seed_scale"] == 2


def test_liapunov_linear_center(sysfile, capsys):
    rc, data = run_cli(["liapunov", sysfile("xdot = -y; ydot = x"), "--no-timings"], capsys)
    assert rc == 0
    assert data["liapunov"] == []
    assert data["conditions"] == []


def test_liapunov_first_order_degenerate(sysfile, capsys):
    rc, data = run_cli(["liapunov", sysfile(DEG_QUINTIC), "--perturb", "minimal",
                        "--mode", "first-order", "--max-degree", "10", "--no-timings"],
                       capsys)
    assert rc == 0
    assert [c["canonical"] for c in data["conditions"]] == ["a*mu", "a*lambda"]
    assert data["mode"] == "first_order"


def test_verify_command(sysfile, capsys):
    rc, data = run_cli(["verify", sysfile(DEG_FACTORED),
                        "--integral", "(x^2+y^2)/2 + 2*x^3/3 - y^3/3",
                        "--no-timings"], capsys)
    assert rc == 0
    assert data["residual_zero"] is True
    rc2, data2 = run_cli(["verify", sysfile(DEG_FACTORED),
                          "--integral", "(x^2+y^2)/2", "--no-timings"], capsys)
    assert rc2 == 0
    assert data2["residual_zero"] is False


def test_reversible_command(sysfile, capsys):
    rc, data = run_cli(["reversible", sysfile(DEG_FACTORED), "--no-timings"], capsys)
    assert rc == 0
    assert data["structure"]["verdict"] == "not_reversible"
    conds = {c["canonical"] for c in data["structure"]["conditions"]}
    assert conds == {"2*c^2*s - c*s^2", "c^3 - 2*s^3"}


@pytest.mark.parametrize("B", ["1", "1000000", "1000000000"])
def test_reversible_swap_symmetric_system_at_large_coefficients(sysfile, capsys, B):
    # Q(x, y) = -P(y, x): reversible about the axes at -pi/4 and 3*pi/4 for
    # every B; at B = 10^9 the conditions are about 10^9 times steeper there
    # than the witness's float is accurate, and the axes still read exactly
    rc, data = run_cli(["reversible", sysfile(f"xdot = -y + 2*x^2 + {B}*x*y + 3*y^2; "
                                              f"ydot = x - 2*y^2 - {B}*x*y - 3*x^2"),
                        "--no-timings"], capsys)
    assert rc == 0
    assert data["structure"]["verdict"] == "reversible"
    assert data["structure"]["witness_angles"] == pytest.approx(
        [3 * math.pi / 4, -math.pi / 4], abs=1e-12)


def test_reversible_weighted_hamiltonian_about_both_axes(capsys):
    rc, data = run_cli(["reversible", str(BENCH_SYSTEMS / "center_weighted_hamiltonian.sys"),
                        "--no-timings"], capsys)
    assert rc == 0
    assert data["structure"]["witness_angles"] == [0.0, math.pi / 2, math.pi, -math.pi / 2]


@pytest.mark.parametrize("case", ["missing system file", "system path is a directory",
                                  "output directory missing"])
def test_file_error_exits_3_with_one_line(tmp_path, capsys, case):
    # a system file that cannot be read or a report that cannot be written
    # is unusable input: one line naming the path, no traceback
    missing = tmp_path / "missing.sys"
    out = tmp_path / "no" / "dir" / "out.json"
    argv, path, errno_ = {
        "missing system file": (["liapunov", str(missing)], missing, errno.ENOENT),
        "system path is a directory": (["reversible", str(tmp_path)], tmp_path, errno.EISDIR),
        "output directory missing": (["reversible", str(SAMPLES / "factored_quartic.sys"),
                                      "-o", str(out)], out, errno.ENOENT),
    }[case]
    rc = main(argv + ["--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err == f"error: {path}: {os.strerror(errno_)}\n"


def test_system_file_not_utf8_exits_3_naming_the_file(tmp_path, capsys):
    # a Latin-1 e-acute is not UTF-8: one line that names the file
    path = tmp_path / "latin1.sys"
    path.write_bytes("xdot = -y + café*x\nydot = x\n".encode("latin-1"))
    rc = main(["reversible", str(path), "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err.startswith(f"error: {path}: ")
    assert "can't decode byte 0xe9" in captured.err and captured.err.count("\n") == 1


def _run_in_locale(argv, utf8):
    """The exit code and stdout bytes of the CLI in a fresh interpreter under
    a UTF-8 locale, or under the C locale with UTF-8 mode and locale
    coercion both off (so the locale's encoding is ASCII).  ``-B`` keeps the
    interpreter from writing bytecode into the checkout, since the
    environment it gets has no ``PYTHONDONTWRITEBYTECODE``."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("LC_", "PYTHON")) and k != "LANG"}
    env["PYTHONPATH"] = str(Path(centerlab.__file__).parent.parent)
    env.update({"LC_ALL": "C.UTF-8", "PYTHONUTF8": "1"} if utf8 else
               {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"})
    out = subprocess.run([sys.executable, "-B", "-m", "centerlab.cli", *argv], env=env,
                         capture_output=True)
    return out.returncode, out.stdout


@pytest.mark.parametrize("spelling", ["eps", "ε"])
def test_reports_are_utf8_bytes_whatever_the_locale(tmp_path, spelling):
    # the same bytes on stdout and in -o under the C and a UTF-8 locale, with
    # eps written as U+03B5 in the report and, for one input, in the file
    system = tmp_path / "system.sys"
    system.write_bytes(NIL_CUBIC_AB_EPS.replace("eps", spelling).encode("utf-8"))
    runs = []
    for utf8 in (True, False):
        argv = ["liapunov", str(system), "--max-degree", "6", "--no-timings"]
        report = tmp_path / f"out-{utf8}.json"
        rc_stdout, stdout = _run_in_locale(argv, utf8)
        rc_file, _ = _run_in_locale(argv + ["-o", str(report)], utf8)
        runs.append((rc_stdout, rc_file, stdout, report.read_bytes()))
    assert runs[0] == runs[1]
    rc_stdout, rc_file, stdout, written = runs[0]
    assert (rc_stdout, rc_file) == (0, 0)
    assert stdout == written and "ε".encode("utf-8") in stdout


def test_qhcenter_command(sysfile, capsys):
    rc, data = run_cli(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1",
                        "--set", "mu=1", "--no-timings"], capsys)
    assert rc == 0
    assert data["qhomog"]["verdict"] == "focus"
    assert data["qhomog"]["pq"] == [1, 1]
    assert abs(data["qhomog"]["integral"]) > 1e-3


def test_returnmap_command(sysfile, capsys):
    rc, data = run_cli(["returnmap", sysfile(NIL_REVERSIBLE), "--x0", "0.05",
                        "--no-timings"], capsys)
    assert rc == 0
    assert data["numeric"]["classification"] == "center_evidence"
    sm = data["numeric"]["samples"][0]
    assert abs(sm["displacement"]) <= 1e-9 * sm["x0"]


def test_classify_command(sysfile, capsys):
    rc, data = run_cli(["classify", sysfile(NIL_REVERSIBLE), "--x0", "0.05",
                        "--no-timings"], capsys)
    assert rc == 0
    assert data["numeric"]["classification"] == "center_evidence"
    assert data["structure"]["hamiltonian"] is False


def test_exit_code_parse_error(sysfile, capsys):
    rc = main(["liapunov", sysfile("xdot = y +; ydot = x"), "--no-timings"])
    assert rc == 2


@pytest.mark.parametrize("argv,message", [
    (["returnmap", "--x0", "0"], "--x0 expects a positive radius, got '0'"),
    (["liapunov", "--set", "A"], "--set expects name=value, got 'A'"),
    (["liapunov", "--set", "A=1/0"],
     "--set A expects an integer or N/D with D != 0, got '1/0'"),
    (["qhcenter", "--sweep", "mu=0:x:1/8"],
     "--sweep end expects an integer or N/D with D != 0, got 'x'"),
], ids=["x0=0", "set=A", "set=A=1/0", "sweep-end=x"])
def test_option_error_has_no_source_position(sysfile, capsys, argv, message):
    # an option value has no line and column; only system-file errors do
    rc = main(argv[:1] + [sysfile(NIL_REVERSIBLE)] + argv[1:] + ["--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", f"parse error: {message}\n")


def test_system_file_error_keeps_its_position(sysfile, capsys):
    rc = main(["liapunov", sysfile("xdot = y +; ydot = x"), "--no-timings"])
    assert rc == 2
    assert capsys.readouterr().err.startswith("parse error: line 1, col ")


@pytest.mark.parametrize("text,col", [
    ("xdot = y + (x-x)^(-1); ydot = -x", 17),
    ("xdot = y + 0^(-2); ydot = -x", 13),
    ("xdot = y\nydot = -x + 2*(eps - eps)^-3", 26),
], ids=["difference", "literal", "second-line"])
def test_zero_to_a_negative_power_is_a_parse_error(sysfile, capsys, text, col):
    # a bad input, not an engine fault: exit 2 with the position of the '^'
    line = text.count("\n") + 1
    for command in ("liapunov", "classify"):
        rc = main([command, sysfile(text), "--no-timings"])
        captured = capsys.readouterr()
        assert (rc, captured.out) == (2, "")
        assert captured.err == f"parse error: line {line}, col {col}: zero to a negative power\n"
    # a zero base to a non-negative power is still a polynomial (0^0 = 1)
    assert parse_system("xdot = y + (x-x)^2 + 0^0 - 1; ydot = -x") == parse_system(
        "xdot = y; ydot = -x")


@pytest.mark.parametrize("text,position,message", [
    ("xdot = y + 2*²; ydot = -x^3", "line 1, col 14", "unexpected character '²'"),
    ("xdot = y; ydot = -x^٣", "line 1, col 21", "unexpected character '٣'"),
    ("xdot = y + x²; ydot = -x^3", "line 1, col 13", "unexpected character '²'"),
    ("xdot = y; ydot = -x^3; xdot = 5 + y", "line 1, col 24", "xdot defined twice"),
], ids=["superscript-literal", "arabic-indic-exponent", "superscript-in-name", "repeated-xdot"])
def test_non_ascii_digit_or_repeated_definition_is_a_parse_error(sysfile, capsys, text,
                                                                 position, message):
    # once an internal error (exit 3) or silently read as something else
    rc = main(["liapunov", sysfile(text), "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (2, "", f"parse error: {position}: {message}\n")


def test_verify_zero_integral_factor_to_a_negative_power(capsys):
    # the plain-expression parse refuses it, and the product form then
    # rejects the zero factor: exit 3, not an engine fault
    rc = main(["verify", str(SAMPLES / "factored_quartic.sys"),
               "--integral", "(x-x)^(-1)", "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (3, "", "error: zero power factor\n")


def test_verify_reports_the_parse_error_that_reached_further(capsys):
    # the plain-expression parse stops at the end of "x +", one column past
    # where the product form sees trailing input
    rc = main(["verify", str(SAMPLES / "factored_quartic.sys"),
               "--integral", "x +", "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, "", "parse error: line 1, col 4: unexpected end of expression\n")


def test_verify_names_the_end_of_a_first_integral_expression(capsys):
    # the product form meets the end of input where a factor was expected
    rc = main(["verify", str(SAMPLES / "factored_quartic.sys"),
               "--integral", "exp((x)/(1)) * ", "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, "", "parse error: line 1, col 16: unexpected end of first-integral expression\n")


@pytest.mark.parametrize("integral", [
    "(x^4+y^2)/(1+x)^(2*c) * (1+y)^(-2*a)",
    "(x^4+y^2)/(1+x)^(2*c)/(1+y)^(2*a)",
])
def test_verify_quotient_in_the_product_form(sysfile, capsys, integral):
    # a '/' divides by the whole power after it, so these are the Darboux
    # integral (1+x)^(-2*c) * (1+y)^(-2*a) * (x^4+y^2)
    rc, data = run_cli(["verify", sysfile(NIL_DARBOUX), "--integral", integral,
                        "--no-timings"], capsys)
    assert (rc, data["residual_zero"], data["residual_terms"]) == (0, True, 0)


@pytest.mark.parametrize("integral, col, message", [
    ("argexp(x; x; y)", 8, "argexp weight must be a rational constant"),
    ("argexp(2; x/(1+y); y)", 11, "argexp arguments must be polynomial"),
])
def test_verify_argexp_errors_name_the_argument(capsys, integral, col, message):
    rc = main(["verify", str(SAMPLES / "factored_quartic.sys"),
               "--integral", integral, "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, "", f"parse error: line 1, col {col}: {message}\n")


def test_verify_argexp_integral_warns_of_its_domain(capsys):
    rc, data = run_cli(["verify", str(SAMPLES / "reversible_nilpotent.sys"), "--integral",
                        "argexp(2; x^2; x^2 + 2*y) * (x^4 + 2*x^2*y + 2*y^2)",
                        "--no-timings"], capsys)
    assert (rc, data["residual_zero"]) == (0, True)
    assert data["warnings"] == ["argument factor: identity certified on u^2+v^2 > 0"]


def test_unknown_perturb_choice_is_a_parse_error(capsys):
    rc = main(["liapunov", str(SAMPLES / "reversible_nilpotent.sys"), "--perturb", "foo",
               "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, "", "parse error: unknown --perturb choice 'foo'\n")


DEG_CUBIC = "xdot = -y^3 + x^2*y; ydot = x^3 + x*y^2"
LINEAR_TYPE = "xdot = -y + x^2; ydot = x"
NIL_FAMILY = {"base": "nilpotent", "analyzed": "perturbed_nilpotent"}
DEG_FAMILY = {"base": "degenerate", "analyzed": "perturbed_degenerate"}


@pytest.mark.parametrize("text,choice,perturbation,cls,mode", [
    (NIL_CUBIC_AB, "auto", {"kind": "nilpotent", "template": "minimal"}, NIL_FAMILY,
     "all_orders"),
    (NIL_CUBIC_AB, "minimal", {"kind": "nilpotent", "template": "minimal"}, NIL_FAMILY,
     "all_orders"),
    (NIL_CUBIC_AB, "nilpotent", {"kind": "nilpotent", "template": "minimal"}, NIL_FAMILY,
     "all_orders"),
    (NIL_CUBIC_AB, "general", {"kind": "nilpotent", "template": "general", "degree": 5},
     NIL_FAMILY, "all_orders"),
    (NIL_CUBIC_AB, "general:2", {"kind": "nilpotent", "template": "general", "degree": 2},
     NIL_FAMILY, "all_orders"),
    (DEG_CUBIC, "auto", {"kind": "degenerate", "template": "minimal"}, DEG_FAMILY,
     "first_order"),
    (DEG_CUBIC, "minimal", {"kind": "degenerate", "template": "minimal"}, DEG_FAMILY,
     "first_order"),
    (DEG_CUBIC, "degenerate", {"kind": "degenerate", "template": "minimal"}, DEG_FAMILY,
     "first_order"),
    (DEG_CUBIC, "hamiltonian", {"kind": "hamiltonian", "template": "minimal"}, DEG_FAMILY,
     "first_order"),
    (DEG_CUBIC, "general", {"kind": "degenerate", "template": "general", "degree": 5},
     DEG_FAMILY, "first_order"),
    (DEG_CUBIC, "general:2", {"kind": "degenerate", "template": "general", "degree": 2},
     DEG_FAMILY, "first_order"),
    (LINEAR_TYPE, "auto", {"kind": "none"},
     {"base": "linear_type", "analyzed": "linear_type"}, "all_orders"),
    (LINEAR_TYPE, "none", {"kind": "none"},
     {"base": "linear_type", "analyzed": "linear_type"}, "all_orders"),
])
def test_every_perturb_spelling_reports_its_family(sysfile, capsys, text, choice,
                                                   perturbation, cls, mode):
    rc, data = run_cli(["liapunov", sysfile(text), "--perturb", choice,
                        "--max-degree", "4", "--no-timings"], capsys)
    assert rc == 0
    assert (data["perturbation"], data["class"], data["mode"]) == (perturbation, cls, mode)


@pytest.mark.parametrize("text,choice,message", [
    (NIL_CUBIC_AB, "hamiltonian",
     "hamiltonian perturbation needs a degenerate system, got nilpotent\n"),
    (NIL_CUBIC_AB, "degenerate",
     "degenerate perturbation needs a degenerate system, got nilpotent\n"),
    (DEG_CUBIC, "nilpotent", "nilpotent perturbation needs a nilpotent system, got degenerate\n"),
    (NIL_CUBIC_AB, "none", "Liapunov computation needs a linear_type, perturbed_nilpotent or "
                           "perturbed_degenerate system, got 'nilpotent'; "),
])
def test_perturbation_of_the_wrong_class_exits_3(sysfile, capsys, text, choice, message):
    rc = main(["liapunov", sysfile(text), "--perturb", choice, "--max-degree", "4",
               "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err.startswith(f"class mismatch: {message}")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("path,cls", [
    (SAMPLES.parent / "bench" / "systems" / "center_cubic_member.sys", "linear_type"),
    (SAMPLES / "degenerate_quintic.sys", "perturbed_degenerate"),
])
@pytest.mark.parametrize("choice", ["minimal", "general", "general:3"])
def test_minimal_or_general_on_another_class_names_the_choice(capsys, path, cls, choice):
    # minimal and general take the kind of a nilpotent or degenerate system:
    # on any other class the refusal names the command-line choice and the
    # class, not a kind the command line never asked for
    rc = main(["liapunov", str(path), "--perturb", choice, "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err == (f"class mismatch: --perturb {choice} needs a nilpotent or "
                            f"degenerate system, got {cls}\n")


def test_a_bad_general_degree_is_a_parse_error_on_any_class(capsys):
    # the choice is parsed before the class is checked
    path = SAMPLES.parent / "bench" / "systems" / "center_cubic_member.sys"
    rc = main(["liapunov", str(path), "--perturb", "general:x", "--no-timings"])
    assert (rc, capsys.readouterr().out) == (2, "")


@pytest.mark.parametrize("choice", ["none:3", "minimal:2", "hamiltonian:2", "nilpotent:2"])
def test_a_degree_on_a_minimal_choice_is_a_parse_error(sysfile, capsys, choice):
    rc = main(["liapunov", sysfile(DEG_CUBIC), "--perturb", choice, "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out, captured.err) == (
        2, "", f"parse error: unknown --perturb choice {choice!r}\n")


def test_qhcenter_without_quasi_homogeneous_structure_is_undecided(sysfile, capsys):
    rc, data = run_cli(["qhcenter", sysfile("xdot = -y + x^2; ydot = x"), "--no-timings"],
                       capsys)
    assert rc == 0
    assert data["qhomog"] == {"verdict": "undecided",
                              "note": "no quasi-homogeneous structure detected"}


def test_exit_code_class_mismatch(sysfile, capsys):
    rc = main(["liapunov", sysfile("xdot = x; ydot = -y"), "--no-timings"])
    assert rc == 3


def test_exit_code_engine_fault_on_zero_division(sysfile, capsys, monkeypatch):
    # a ZeroDivisionError inside the exact engine is a fault: exit 4 with a
    # one-line message, not a traceback
    def fail(self, divisor):
        raise ZeroDivisionError("division by zero polynomial")

    monkeypatch.setattr(MPoly, "try_div", fail)
    rc = main(["liapunov", sysfile(NIL_CUBIC_AB), "--perturb", "minimal",
               "--max-degree", "4", "--no-timings"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == "engine fault: division by zero polynomial\n"


def test_exit_code_engine_fault_on_gcd_that_does_not_divide(sysfile, capsys, monkeypatch):
    # a gcd that does not divide both parts is an engine fault, raised as
    # EngineError by RatFunc and mapped to exit 4, not an AttributeError
    def planted(a, b):
        return MPoly.variable("x", a.vars) + 1

    monkeypatch.setattr(ratfunc, "poly_gcd", planted)
    table = ("x", "y")
    with pytest.raises(EngineError):
        RatFunc(MPoly.variable("y", table), MPoly.variable("x", table))
    # the degree pass reduces each constant over its basis of eps-only
    # factors, without poly_gcd: there, a common factor that does not
    # divide the numerator is the same fault
    try_div = MPoly.try_div
    monkeypatch.setattr(MPoly, "try_div", lambda self, divisor: (
        None if set(divisor.variables_present()) == {"eps"} else try_div(self, divisor)))
    rc = main(["liapunov", sysfile(NIL_CUBIC_AB), "--perturb", "minimal",
               "--max-degree", "4", "--no-timings"])
    captured = capsys.readouterr()
    assert rc == 4
    assert captured.out == ""
    assert captured.err == ("engine fault: a common factor of a reduction does not divide "
                            "the numerator\n")


def test_deterministic_output(sysfile, capsys):
    args = ["liapunov", sysfile(NIL_CUBIC_AB), "--perturb", "minimal",
            "--max-degree", "4", "--no-timings"]
    rc1 = main(args)
    out1 = capsys.readouterr().out
    rc2 = main(args)
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_json_polynomials_roundtrip(sysfile, capsys):
    rc, data = run_cli(["liapunov", sysfile(NIL_CUBIC_AB), "--perturb", "minimal",
                        "--max-degree", "6", "--no-timings"], capsys)
    assert rc == 0
    for cond in data["conditions"]:
        poly = poly_from_terms(cond["poly"])
        # the canonical string parses back to the same polynomial
        from centerlab.parser import parse_polynomial

        assert parse_polynomial(cond["canonical"].replace("ε", "eps"),
                                poly.vars) == poly


def test_canonical_renames_only_the_variable_eps(tmp_path, capsys):
    # eps prints as the Greek letter; a parameter whose name contains eps
    # keeps its name
    text = (SAMPLES / "nilpotent_cubic_ab.sys").read_text()
    path = tmp_path / "nilpotent_cubic_keps.sys"
    path.write_text(re.sub(r"\bA\b", "keps", text))
    rc, data = run_cli(["liapunov", str(path), "--perturb", "minimal",
                        "--max-degree", "8", "--no-timings"], capsys)
    assert rc == 0
    assert [c["canonical"] for c in data["conditions"]] == [
        "B*keps - 3*L", "B*keps^3 - 2*B*K*keps"]
    for entry in data["liapunov"]:
        assert "keps" in entry["canonical"] and "ε" in entry["canonical"]
        assert "kε" not in entry["canonical"]


def test_entry_point_runs():
    out = subprocess.run([sys.executable, "-m", "centerlab.cli", "--help"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "centerlab" in out.stdout


def test_perturb_kind_alias(sysfile, capsys):
    rc, data = run_cli(["liapunov", sysfile(DEG_QUINTIC), "--perturb", "degenerate",
                        "--mode", "first-order", "--max-degree", "10", "--no-timings"],
                       capsys)
    assert rc == 0
    assert [c["canonical"] for c in data["conditions"]] == ["a*mu", "a*lambda"]


def test_qhcenter_sweep(sysfile, capsys):
    rc, data = run_cli(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1",
                        "--sweep", "mu=0:2:1", "--no-timings"], capsys)
    assert rc == 0
    entries = data["qhomog"]["sweep"]
    assert [e["verdict"] for e in entries] == ["center", "focus", "focus"]
    assert [e["sweep"]["mu"] for e in entries] == ["0", "1", "2"]


def test_qhcenter_sweep_reports_a_refused_point_and_goes_on(sysfile, capsys):
    # at lambda = 0, mu = 0 the system has the common factor 9x^2 + 25y^2:
    # that point is refused with its reason, and the other 24 are analysed
    rc, data = run_cli(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=0",
                        "--sweep", "mu=0:3:1/8", "--no-timings"], capsys)
    assert rc == 0
    entries = data["qhomog"]["sweep"]
    assert len(entries) == 25
    assert entries[0] == {"sweep": {"mu": "0"}, "verdict": "refused",
                          "reason": "P and Q must be coprime; P(1, t) and Q(1, t) "
                                    "have a common factor"}
    assert all(e["verdict"] in ("center", "focus", "undecided") for e in entries[1:])
    assert [e["sweep"]["mu"] for e in entries[1:3]] == ["1/8", "1/4"]


def test_qhcenter_sweep_with_every_point_refused_exits_3(sysfile, capsys):
    rc = main(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=0",
               "--sweep", "mu=0:0:1/8", "--no-timings"])
    captured = capsys.readouterr()
    assert rc == 3
    assert captured.out == ""
    assert captured.err == ("error: P and Q must be coprime; P(1, t) and Q(1, t) "
                            "have a common factor\n")


@pytest.mark.parametrize("item", ["A=1/0", "A=x", "A=1/2/3", "A=", "A=1.5", "=1", " =1"],
                         ids=["1/0", "x", "1/2/3", "", "1.5", "=1", " =1"])
def test_exit_code_bad_set_value_is_parse_error(sysfile, capsys, item):
    # an empty name is refused as a malformed item, not looked up as a symbol
    rc = main(["liapunov", sysfile(NIL_CUBIC_AB), "--set", item,
               "--max-degree", "4", "--no-timings"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize("sweep", ["mu=0:2:0", "mu=0:2:-1/4", "mu=0:2", "mu=0:1/0:1",
                                   "mu=1:0:1/2", "=0:2:1/4", " =0:2:1/4"])
def test_exit_code_bad_sweep_is_parse_error(sysfile, capsys, sweep):
    # a step <= 0 never reaches the end of the range, and a start above the
    # end gives no point at all: both are refused before the first point
    rc = main(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1", "--sweep", sweep,
               "--no-timings"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("parse error:")


@pytest.mark.parametrize("sweep,count", [("mu=0:1000:1/100000", 100000001),
                                         ("mu=0:10000:1", 10001)])
def test_sweep_with_too_many_points_is_refused_before_any_point(sysfile, capsys, monkeypatch,
                                                                 sweep, count):
    # the count is read from the range, so no point list is built: no
    # analysis runs, and a range of 10^8 points fails at once
    analysed = []
    monkeypatch.setattr(cli, "sweep_table", lambda *a: analysed.append(a))
    rc = main(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1", "--sweep", sweep,
               "--no-timings"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == "" and analysed == []
    assert captured.err == (f"parse error: --sweep gives {count} points, more than "
                            f"{cli.MAX_SWEEP_POINTS}\n")


def test_sweep_of_exactly_the_most_points_runs(sysfile, capsys):
    rc, data = run_cli(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1", "--sweep",
                        f"mu=0:{cli.MAX_SWEEP_POINTS - 1}:1", "--no-timings"], capsys)
    assert rc == 0
    entries = data["qhomog"]["sweep"]
    assert len(entries) == cli.MAX_SWEEP_POINTS
    assert entries[-1]["sweep"] == {"mu": str(cli.MAX_SWEEP_POINTS - 1)}


def _refused(capsys, rc, code, option):
    captured = capsys.readouterr()
    assert rc == code
    assert captured.out == ""
    prefix = "parse error:" if code == 2 else "class mismatch:"
    assert captured.err.startswith(prefix) and option in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("choice", ["general:x", "general:0", "general:", "general:11"])
def test_exit_code_bad_general_degree_is_parse_error(sysfile, capsys, choice):
    rc = main(["liapunov", sysfile(NIL_CUBIC_AB), "--perturb", choice, "--no-timings"])
    _refused(capsys, rc, 2, "--perturb")


@pytest.mark.parametrize("command", ["returnmap", "classify"])
@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1"])
def test_exit_code_bad_x0_is_parse_error(sysfile, capsys, command, value):
    rc = main([command, sysfile(NIL_REVERSIBLE), "--x0", "0.05", "--x0", value,
               "--no-timings"])
    _refused(capsys, rc, 2, "--x0")


@pytest.mark.parametrize("argv,option", [
    (["liapunov", "--max-degree", "2"], "--max-degree"),
    (["liapunov", "--max-degree", "x"], "--max-degree"),
    (["returnmap", "--rel-tol", "0"], "--rel-tol"),
    (["returnmap", "--rel-tol", "1e-3"], "--rel-tol"),
    (["returnmap", "--rel-tol", "nan"], "--rel-tol"),
], ids=["max-degree=2", "max-degree=x", "rel-tol=0", "rel-tol=1e-3", "rel-tol=nan"])
def test_exit_code_out_of_range_option_is_parse_error(sysfile, capsys, argv, option):
    rc = main(argv[:1] + [sysfile(NIL_REVERSIBLE)] + argv[1:] + ["--no-timings"])
    _refused(capsys, rc, 2, option)


def test_unreadable_system_file_is_reported_before_a_bad_max_degree(tmp_path, capsys):
    # every command reads its system file before it reads its own options
    missing = tmp_path / "missing.sys"
    rc = main(["liapunov", str(missing), "--max-degree", "2", "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err == f"error: {missing}: {os.strerror(errno.ENOENT)}\n"


def test_qhcenter_unconverged_quadrature_shows_detail(sysfile, capsys):
    # mu = 25/9 - 1e-8: condition (i) holds, but the peak of F/G at
    # theta = pi/2 is too narrow for the trapezoid rule's node cap
    rc, data = run_cli(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1",
                        "--set", "mu=2499999991/900000000", "--no-timings"], capsys)
    assert rc == 0
    entry = data["qhomog"]
    assert entry["verdict"] == "undecided" and entry["condition_i"] is True
    assert entry["detail"].startswith("trapezoid rule not converged at 65536 nodes: "
                                      "halving difference ")


def test_qhcenter_non_finite_integral_is_undecided_and_valid_json(sysfile, capsys):
    # Q's coefficient underflows to 0.0, so G vanishes at a node and the sum
    # is infinite: no verdict, and no Infinity or NaN in the report
    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    rc = main(["qhcenter", sysfile("xdot = -y^101; ydot = x^101/10^400"), "--no-timings"])
    assert rc == 0
    entry = json.loads(capsys.readouterr().out, parse_constant=refuse)["qhomog"]
    assert (entry["verdict"], entry["integral"], entry["integral_error"]) == ("undecided", None, None)
    assert entry["detail"].startswith("period integral not finite (value inf, error nan): ")


@pytest.mark.parametrize("command", ["returnmap", "classify"])
def test_exit_code_coefficient_too_large_for_a_float(sysfile, capsys, command):
    # float(10^400) overflows: unusable input that names the coefficient,
    # not an OverflowError traceback
    rc = main([command, sysfile("xdot = -y + 10^400*x^5; ydot = x"), "--x0", "0.05",
               "--no-timings"])
    captured = capsys.readouterr()
    assert (rc, captured.out) == (3, "")
    assert captured.err == "error: xdot: the coefficient of x^5 is too large for a float\n"


@pytest.mark.parametrize("command", ["returnmap", "classify"])
def test_exit_code_bad_transversal_is_parse_error(sysfile, capsys, command):
    rc = main([command, sysfile(NIL_REVERSIBLE), "--transversal", "abc", "--no-timings"])
    _refused(capsys, rc, 2, "--transversal")


@pytest.mark.parametrize("command", ["returnmap", "classify"])
def test_exit_code_start_the_return_map_cannot_use(capsys, command):
    # a start outside the guard radius 1.0 is not evidence against
    # monodromy, and a start whose absolute tolerance rel_tol*x0 underflows
    # cannot be integrated: both are unusable input, refused before any
    # integration; a start on the guard radius still runs
    path = str(BENCH_SYSTEMS / "radial_focus.sys")
    for x0, err in [("1.5", "error: x0=1.5 starts outside the guard radius 1.0\n"),
                    ("1e-300", "error: x0=1e-300 is too small: its absolute tolerance "
                               "min(abs_tol, rel_tol*x0) = 1e-312 is not a positive normal "
                               "float\n")]:
        rc = main([command, path, "--x0", "0.05", "--x0", x0, "--no-timings"])
        assert (rc, capsys.readouterr()[:2]) == (3, ("", err))
    rc, data = run_cli([command, path, "--x0", "1.0", "--no-timings"], capsys)
    assert rc == 0 and [sm["x0"] for sm in data["numeric"]["samples"]] == [1.0]


@pytest.mark.parametrize("x0", ["1e-5", "1e-8"])
def test_returnmap_small_start_radius(sysfile, capsys, x0):
    # each start is integrated with the absolute tolerance
    # min(1e-14, rel_tol*x0), so a small orbit is resolved relative to its
    # size: the reversible nilpotent center reads as a center and the linear
    # focus x'' + x'/10 + x = 0 as a stable focus, down to tiny radii
    rc, data = run_cli(["returnmap", sysfile(NIL_REVERSIBLE), "--x0", x0, "--no-timings"],
                       capsys)
    assert (rc, data["numeric"]["classification"]) == (0, "center_evidence")
    rc, data = run_cli(["returnmap", sysfile("xdot = -y - x/10; ydot = x"), "--x0", x0,
                        "--x0", "1e-100", "--no-timings"], capsys)
    assert (rc, data["numeric"]["classification"]) == (0, "stable_focus_evidence")
    assert len(data["numeric"]["samples"]) == 2


def test_returnmap_tiny_radius_returns_after_one_turn(sysfile, capsys):
    # at x0 = 1e-11 this nilpotent center's return time is about 7e11: one
    # turn of psi gets there, with no time horizon to stop it
    rc, data = run_cli(["returnmap", sysfile(NIL_REVERSIBLE), "--x0", "1e-11",
                        "--no-timings"], capsys)
    assert (rc, data["numeric"]["classification"]) == (0, "center_evidence")
    [sm] = data["numeric"]["samples"]
    assert 6e11 < sm["return_time"] < 8e11 and abs(sm["displacement"]) <= 1e-9 * 1e-11
    assert data["warnings"] == ["return-map verdicts are evidence, not proof"]


@pytest.mark.parametrize("command", ["returnmap", "classify"])
def test_no_monodromy_weights_integrates_nothing(sysfile, capsys, monkeypatch, command):
    # a node: no edge of the Newton polygon makes p*x*Q - q*y*P definite, so
    # monodromy is not shown and no orbit is integrated: the command ends at
    # once, not after an orbit that decays into the node has run to max_steps
    integrations = []
    real = numeric.integrate_adaptive
    monkeypatch.setattr(numeric, "integrate_adaptive",
                        lambda *args, **kw: integrations.append(args) or real(*args, **kw))
    t0 = time.perf_counter()
    rc, data = run_cli([command, sysfile("xdot = -x; ydot = x - y"), "--x0", "0.05",
                        "--no-timings"], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert (rc, integrations) == (0, [])
    assert (data["numeric"]["classification"], data["numeric"]["samples"]) == ("inconclusive", [])
    assert data["warnings"][0] == ("no weights (p,q) of the Newton polygon make "
                                   "p*x*Q - q*y*P definite: monodromy not shown, "
                                   "nothing integrated")


@pytest.mark.parametrize("command", ["returnmap", "classify"])
def test_angle_transversal_refused_at_unequal_weights(sysfile, capsys, command):
    # the reversible nilpotent point is monodromic in the weights (1,2): a
    # ray at an angle is no section of their polar angle, the axes are
    rc = main([command, sysfile(NIL_REVERSIBLE), "--transversal", "0.7", "--no-timings"])
    assert (rc, capsys.readouterr()[:2]) == (3, ("", (
        "error: the monodromy weights are (1,2), so a ray at an angle is not a section of "
        "their polar angle; use the transversal x+ or y+\n")))
    rc, data = run_cli([command, sysfile(NIL_REVERSIBLE), "--transversal", "y+",
                        "--x0", "0.02", "--no-timings"], capsys)
    assert (rc, data["numeric"]["classification"]) == (0, "center_evidence")


def test_qhcenter_forced_weights_are_decided_directly(sysfile, capsys):
    # the monomials fix the weights (1,1): no option can or need assert them
    rc, data = run_cli(["qhcenter", sysfile(HOMOG_CUBIC), "--set", "lambda=1", "--set", "mu=0",
                        "--no-timings"], capsys)
    assert rc == 0
    assert (data["qhomog"]["pq"], data["qhomog"]["weight_degree"]) == ([1, 1], 3)
    assert data["qhomog"]["verdict"] == "center"


def test_qhcenter_solves_for_weights_beyond_eight(sysfile, capsys):
    rc, data = run_cli(["qhcenter", sysfile("xdot = y; ydot = -x^17"), "--no-timings"], capsys)
    assert rc == 0
    entry = data["qhomog"]
    assert (entry["pq"], entry["weight_degree"], entry["verdict"]) == ([1, 9], 9, "center")


def test_qhcenter_bound_option_is_refused(sysfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["qhcenter", sysfile(HOMOG_CUBIC), "--bound", "8", "--no-timings"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --bound 8" in capsys.readouterr().err


def test_classify_large_coefficient_finishes(sysfile, capsys):
    # a 21-digit leading coefficient: the characteristic form 7*x^4 +
    # (10^20 + 39)*y^4 has no real root, which root isolation shows without
    # factoring its coefficients, and the orbits are so flat that r falls by
    # five orders of magnitude along a turn, which the error control of r
    # follows
    path = sysfile("xdot = -100000000000000000039*y^3; ydot = 7*x^3")
    t0 = time.perf_counter()
    rc, data = run_cli(["classify", path, "--no-timings"], capsys)
    assert time.perf_counter() - t0 < 10
    assert rc == 0
    assert data["structure"]["characteristic_directions"] == []
    assert data["numeric"]["classification"] == "center_evidence"
    assert [sm["x0"] for sm in data["numeric"]["samples"]] == [0.02, 0.05, 0.1]


def test_consecutive_calls_share_no_option_values(sysfile, capsys):
    # the parser is built once per process; appended options start empty on
    # every call
    path = sysfile(HOMOG_CUBIC)
    rc, first = run_cli(["classify", path, "--set", "lambda=1", "--set", "mu=1",
                         "--x0", "0.05", "--no-timings"], capsys)
    assert rc == 0 and [sm["x0"] for sm in first["numeric"]["samples"]] == [0.05]
    rc, data = run_cli(["classify", sysfile(NIL_REVERSIBLE, "nil.sys"), "--no-timings"], capsys)
    assert rc == 0 and [sm["x0"] for sm in data["numeric"]["samples"]] == [0.02, 0.05, 0.1]
    # without --set the parameters stay symbolic and the command is refused
    assert main(["classify", path, "--no-timings"]) == 3
    assert "specialize parameters first: ['mu']" in capsys.readouterr().err
    rc, again = run_cli(["classify", path, "--set", "lambda=1", "--set", "mu=1",
                         "--x0", "0.05", "--no-timings"], capsys)
    assert again == first


@pytest.mark.parametrize("path", sorted(SAMPLES.glob("*.sys")) + sorted(BENCH_SYSTEMS.glob("*.sys")),
                         ids=lambda p: p.name)
def test_odd_max_degree_reports_as_the_even_degree_below(path, capsys):
    # constants sit at even degrees, so --max-degree 2k+1 computes and
    # reports exactly what 2k does
    for k in (2, 3):
        outputs = []
        for degree in (2 * k, 2 * k + 1):
            rc = main(["liapunov", str(path), "--max-degree", str(degree), "--no-timings"])
            outputs.append((rc, *capsys.readouterr()))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0], k


@pytest.mark.parametrize("text", [NIL_CUBIC_AB_EPS, "xdot = y; ydot = -eps*x + x^2*y - x^3",
                                  "xdot = -y + a*x^2 + b*x*y; ydot = x + c*y^2 + d*x^3"])
def test_odd_bound_degree_pass_stops_at_the_even_degree_below(text):
    s = parse_system(text)
    odd, even = DegreePass(s, 7), DegreePass(s, 6)
    assert odd.max_even_degree == even.max_even_degree == 6
    assert dict(odd) == dict(even)
    got, want = odd.h_table(), even.h_table()
    assert sorted(got) == sorted(want) == list(range(2, 7))
    for k in want:
        assert (got[k].num, got[k].den) == (want[k].num, want[k].den), k
