import random
from pathlib import Path

import pytest

from centerlab.parser import ParseError, parse_expression, parse_first_integral
from centerlab.ratfunc import RatFunc
from centerlab.systems import format_system, parse_system

from conftest import poly, random_poly


def test_nilpotent_family_parse():
    s = parse_system("xdot = y + x^2 + k2*x*y; ydot = k1*x^2 - x^3")
    assert s.linear_class == "nilpotent"
    assert s.params == ("k1", "k2")
    assert s.P == poly("y + x^2 + k2*x*y", s.vars)


def test_zero_system_is_degenerate():
    s = parse_system("xdot = 0; ydot = 0")
    assert s.linear_class == "degenerate"
    assert s.P.is_zero and s.Q.is_zero


def test_rational_literals_and_roundtrip():
    s = parse_system("xdot = -(1/3)*y; ydot = 3*x + 2/7*x^2")
    assert s.P == poly("-1/3*y", s.vars)
    t = parse_system(format_system(s))
    assert t.P == s.P and t.Q == s.Q and t.params == s.params


def test_headers_and_assume():
    s = parse_system("params: a, mu\nassume: a*mu > 0\nxdot = y; ydot = -a*x^3 + mu*y^3")
    assert s.params == ("a", "mu")
    assert len(s.assumptions) == 1
    assert str(s.assumptions[0]) == "a*mu > 0"


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse_system("xdot = y + ; ydot = x")
    assert err.value.line == 1
    assert err.value.col == 12


def test_unknown_function():
    with pytest.raises(ParseError, match="unknown function"):
        parse_system("xdot = sin(x); ydot = -x")


def test_nonzero_constant_term_rejected():
    from centerlab.systems import ClassificationError

    with pytest.raises(ClassificationError, match="constant term"):
        parse_system("xdot = 1 + y; ydot = -x")


def test_missing_ydot():
    with pytest.raises(ParseError, match="both xdot and ydot"):
        parse_system("xdot = y")


def test_nonpolynomial_rhs_rejected():
    with pytest.raises(ParseError, match="polynomial"):
        parse_system("xdot = 1/(1+x); ydot = -x")


def test_greek_eps_accepted():
    s = parse_system("xdot = y; ydot = -ε*x")
    assert s.linear_class == "perturbed_nilpotent"


def test_power_binds_tighter_than_product():
    assert parse_expression("2*x^3", ("x", "y", "eps")) == parse_expression(
        "2*(x^3)", ("x", "y", "eps"))


def test_roundtrip_random_systems(rng):
    table = ("x", "y", "eps", "a", "b")
    count = 0
    trials = 0
    while count < 200 and trials < 1000:
        trials += 1
        P = random_poly(rng, table, ("x", "y", "eps", "a"), max_degree=3, n_terms=4)
        Q = random_poly(rng, table, ("x", "y", "b"), max_degree=3, n_terms=4)
        # force a parseable system: drop constant terms, keep a nilpotent part
        P = sum((v for d, v in P.homogeneous_parts().items() if d >= 2), poly("y", table))
        Q = sum((v for d, v in Q.homogeneous_parts().items() if d >= 2), poly("0", table))
        text = f"xdot = {P}; ydot = {Q}"
        try:
            s = parse_system(text)
        except Exception:
            continue
        count += 1
        t = parse_system(format_system(s))
        assert t.P == s.P and t.Q == s.Q and t.params == s.params
    assert count >= 200


@pytest.mark.parametrize("text,line,col,char", [
    ("xdot = y + 2*²; ydot = -x", 1, 14, "²"),
    ("xdot = y; ydot = -x^٣", 1, 21, "٣"),
    ("xdot = y + x²; ydot = -x", 1, 13, "²"),
    ("xdot = y\nydot = -x + λ٣", 2, 14, "٣"),
], ids=["superscript-literal", "arabic-indic-exponent", "superscript-in-name", "digit-in-name"])
def test_non_ascii_digit_is_an_unexpected_character(text, line, col, char):
    # numbers are [0-9]+ and a name continues with letters, ASCII digits or
    # '_': any other digit is refused where it stands
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"unexpected character {char!r}", line, col)


def test_unicode_letters_and_ascii_digits_make_names():
    s = parse_system("xdot = y + λ2*x^2 + _k*x*y; ydot = -ε*x - x^3")
    assert s.params == ("_k", "λ2")
    assert s.linear_class == "perturbed_nilpotent"


@pytest.mark.parametrize("name,text,line,col", [
    ("xdot", "xdot = y; ydot = -x^3; xdot = 5 + y", 1, 24),
    ("ydot", "xdot = y\nydot = -x^3\nydot = -x^3", 3, 1),
], ids=["xdot", "ydot"])
def test_repeated_definition_is_a_parse_error(name, text, line, col):
    # the second definition is refused at its name, not silently kept
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert (err.value.message, err.value.line, err.value.col) == (
        f"{name} defined twice", line, col)


def test_parsing_system_files_builds_no_rational_function(monkeypatch):
    # a polynomial system file is parsed in MPoly from its first atom: no
    # RatFunc (with its gcd) is built for any sample or benchmark system
    root = Path(__file__).resolve().parent.parent
    paths = sorted(root.glob("sample_systems/*.sys")) + sorted(root.glob("bench/systems/*.sys"))
    assert len(paths) >= 12
    built = []
    init = RatFunc.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(RatFunc, "__init__", counting_init)
    for path in paths:
        parse_system(path.read_text())
    assert built == []
    # a division that cancels still gives a polynomial, and one that does not
    # is still refused at the start of its right-hand side
    s = parse_system("xdot = y + (x^3)/x; ydot = -x^3")
    assert s.P == poly("y + x^2", s.vars)
    with pytest.raises(ParseError) as err:
        parse_system("xdot = y\nydot = -x + 1/(1+x)")
    assert (err.value.line, err.value.col) == (2, 8)
    assert err.value.message.startswith("right-hand side must be polynomial")


@pytest.mark.parametrize("text, position, message", [
    # the plain expression reads past the product form's trailing '+'
    ("x +", (1, 4), "unexpected end of expression"),
    # the product form reads past the plain expression's symbolic power
    ("(1+x)^(-2*c) * (x^4+y^2) +", (1, 26), "trailing input '+'"),
    # a tie: the plain expression's error
    (")", (1, 1), "unexpected ')'"),
])
def test_first_integral_error_is_the_one_that_reached_further(text, position, message):
    with pytest.raises(ParseError) as info:
        parse_first_integral(text, ("x", "y", "eps", "c"))
    assert ((info.value.line, info.value.col), info.value.message) == (position, message)


def _power_factors(text, table=("x", "y", "eps", "c")):
    return [(str(f.num), str(f.den), str(k))
            for f, k in parse_first_integral(text, table).power_factors]


def test_product_form_division_negates_the_next_exponent():
    # '/' binds like '*': it divides by the power after it, exponent and all
    assert _power_factors("(1+x)/(1-y)^2 * exp(x)") == [("x + 1", "1", "1"),
                                                         ("-y + 1", "1", "-2")]
    assert _power_factors("(x^4+y^2)/(1+x)^(2*c)/(1+y)^(-1)") == [
        ("x^4 + y^2", "1", "1"), ("x + 1", "1", "-2*c"), ("y + 1", "1", "1")]
    # numeric bases, and the integer exponents ^2 and ^-1
    assert _power_factors("3/2 * (1+x)^(2*c)") == [("3", "1", "1"), ("2", "1", "-1"),
                                                    ("x + 1", "1", "2*c")]
    assert _power_factors("2^2/x^-1 * (1+x)^(c)") == [("2", "1", "2"), ("x", "1", "1"),
                                                       ("x + 1", "1", "c")]
    # a parenthesized quotient stays one base
    assert _power_factors("((x^2+y^2)/(1+x))^(c)") == [("x^2 + y^2", "x + 1", "c")]


@pytest.mark.parametrize("text, col", [("(1+x)/exp(x)", 11), ("x/argexp(2; x; y)", 10)])
def test_product_form_division_before_exp_or_argexp_is_an_error(text, col):
    with pytest.raises(ParseError) as info:
        parse_first_integral(text, ("x", "y", "eps"))
    assert (info.value.line, info.value.col) == (1, col)
    assert info.value.message.startswith("'/' may not precede")
