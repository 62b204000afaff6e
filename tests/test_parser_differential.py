"""The expression parser against its reference (``rational_parser``): on
generated expressions and system texts both give the same values, or the
same ParseError with the same position.

The generators write ASCII text plus ``ε`` and at most one ``xdot`` and one
``ydot`` definition; ``_outside_the_fixes`` says so explicitly, since on
non-ASCII digits and on repeated definitions the reference was wrong."""

import re

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import rational_parser as reference
from centerlab.mpoly import MPoly
from centerlab.parser import ParseError, parse_expression, parse_polynomial, parse_system_source

TABLE = ("x", "y", "eps", "a", "b")
SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

# each is written out, and each is a building block of the generator
FIXED = ("(x^3-x^2)/x", "1/(1+x)", "(x-x)^(-1)", "0^0", "((((x))))", "2/3*x", "x/(2*a)",
         "(1+x)^(-2)", "(x^2-y^2)/(x+y)", "x/(y-y)", "x/0", "1/x*x", "(a/b)^(-1)*a",
         "-(-(x))^-2", "x*y/(x*y) - 1", "a/b - a/b", "(x+1)/(x+1)^2*(1+x)", "(1/x)^0",
         "1/x + y - 1/x")


def _outside_the_fixes(text):
    """True unless ``text`` has a non-ASCII character other than ``ε`` or
    defines ``xdot`` or ``ydot`` twice: the inputs on which the two parsers
    are meant to differ."""
    ascii_only = all(ch.isascii() or ch == "ε" for ch in text)
    return ascii_only and all(len(re.findall(rf"\b{name}\b", text)) <= 1
                              for name in ("xdot", "ydot"))


def _exponent(k):
    return st.sampled_from([f"^{k}", f"^({k})"])


atoms = st.one_of(st.integers(0, 12).map(str), st.sampled_from(("x", "y", "eps", "ε", "a", "b")),
                  st.sampled_from(FIXED).map(lambda e: f"({e})"))


def _extend(inner):
    factor = st.one_of(
        st.tuples(inner, st.integers(-2, 3).flatmap(_exponent)).map("".join),
        st.tuples(st.sampled_from(("-", "+", "")), inner).map("".join),
        inner.map(lambda e: f"({e})"),
    )
    term = st.lists(st.tuples(st.sampled_from(("*", "/")), factor), min_size=1, max_size=3).map(
        lambda parts: "".join(op + f for op, f in parts)[1:])
    return st.lists(st.tuples(st.sampled_from((" + ", " - ", "+", "-")), term),
                    min_size=1, max_size=3).map(lambda parts: "".join(op + t for op, t in parts))


expressions = st.recursive(atoms, _extend, max_leaves=8)
# stray characters and tokens that make malformed input
noise = st.sampled_from(("(", ")", "+", "*", "/", "^", "-", "=", ";", ":", ",", ">", "!",
                         "@", ".", "\n", " ", "#", "1", "x", "exp(", "params", "xdot"))


@st.composite
def corrupted(draw, base):
    """``base`` with up to two characters replaced by, or two tokens
    inserted from, ``noise``."""
    text = draw(base)
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        j = i + draw(st.integers(0, 1))
        text = text[:i] + draw(noise) + text[j:]
    return text


@st.composite
def systems(draw):
    lines = []
    if draw(st.booleans()):
        lines.append("params: " + ", ".join(draw(st.lists(st.sampled_from("abc"), min_size=1,
                                                          max_size=3))))
    for _ in range(draw(st.integers(0, 2))):
        op = draw(st.sampled_from((">", "<", ">=", "<=", "!=")))
        lines.append(f"assume: {draw(expressions)} {op} {draw(expressions)}")
    dots = [f"xdot = y + {draw(expressions)}", f"ydot = -x + {draw(expressions)}"]
    if draw(st.booleans()):
        dots.reverse()
    lines.append(draw(st.sampled_from(("; ", "\n", " ; "))).join(dots))
    return "\n".join(lines)


def _outcome(parse, *args):
    """What ``parse`` gives: a comparable value, the ParseError fields, or
    the type and text of another exception."""
    try:
        value = parse(*args)
    except ParseError as err:
        return ("error", err.message, err.line, err.col)
    except Exception as err:  # noqa: BLE001 - any other failure must match too
        return ("raised", type(err).__name__, str(err))
    if isinstance(value, MPoly):
        return ("polynomial", value)
    if hasattr(value, "den"):
        return ("value", value.vars, value.num, value.den)
    return ("system", value.P, value.Q, value.params, value.assumptions)


def _check_expression(text):
    for ours, theirs in ((parse_expression, reference.parse_expression),
                         (parse_polynomial, reference.parse_polynomial)):
        assert _outcome(ours, text, TABLE) == _outcome(theirs, text, TABLE), text


@SETTINGS
@given(corrupted(expressions))
def test_expression_matches_reference(text):
    assume(_outside_the_fixes(text))
    _check_expression(text)


@SETTINGS
@given(corrupted(systems()))
def test_system_matches_reference(text):
    assume(_outside_the_fixes(text))
    assert _outcome(parse_system_source, text) == _outcome(reference.parse_system_source, text)


def test_fixed_expressions_match_reference():
    for text in FIXED:
        _check_expression(text)
