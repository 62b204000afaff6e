"""The report writer against ``json.dumps`` and the old Fraction rendering.

``to_json`` must write exactly what ``json.dumps(data, sort_keys=True,
indent=2, ensure_ascii=False)`` writes, and a polynomial exactly as its list
of term dicts would be written.  The oracles below are the writer's former
code path: one ``Fraction`` and one dict per term, ``str`` of the
``Fraction`` rendering, and a regex that turns the word ``eps`` into ``ε``.
"""

import json
import math
import re
from fractions import Fraction

import pytest

from centerlab.mpoly import MPoly
from centerlab.ratfunc import RatFunc
from centerlab.report import condition_entry, polynomial_entry, ratfunc_entry, to_json

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = dict(deadline=None, derandomize=True, database=None,
                suppress_health_check=list(hypothesis.HealthCheck))


def dumps(data):
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False)


def old_sorted_terms(p):
    """Terms in descending graded-lex order, read through the ``terms`` view."""
    return sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)


def old_poly_terms(p):
    return [{"coeff_num": int(c.numerator), "coeff_den": int(c.denominator),
             "exponents": {v: int(k) for v, k in zip(p.vars, e) if k}}
            for e, c in old_sorted_terms(p)]


def old_str(p):
    if p.is_zero:
        return "0"
    pieces = []
    for e, c in old_sorted_terms(p):
        factors = []
        for name, k in zip(p.vars, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        neg = c < 0
        mag = -c if neg else c
        if factors and mag == 1:
            body = "*".join(factors)
        elif factors:
            body = f"{mag}*" + "*".join(factors)
        else:
            body = f"{mag}"
        if not pieces:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


def old_ratfunc_str(v):
    if v.den.is_constant and v.den.constant_value() == 1:
        return old_str(v.num)
    return f"({old_str(v.num)})/({old_str(v.den)})"


def old_display(text):
    return re.sub(r"\beps\b", "ε", text)


# -- (a) generic values --------------------------------------------------------

_SPECIAL_TEXT = ['"', "\\", '\\"', "\x00", "\x1f", "\x7f", "\n\t\r\b\f", "é", "ε",
                 "  ", "\U0001f600", "", "eps", "a\"b\\c\x01d"]
_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, 1e-7,
                   1e22, -1e16, 1.5, math.inf, -math.inf, math.nan, 1.7976931348623157e308]

texts = st.text(max_size=8) | st.sampled_from(_SPECIAL_TEXT)
scalars = st.one_of(
    texts,
    st.integers(),
    st.integers(min_value=2 ** 64, max_value=2 ** 300),
    st.integers(min_value=-2 ** 300, max_value=-2 ** 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(_SPECIAL_FLOATS),
    st.booleans(),
    st.none(),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=25,
)


def test_to_json_matches_json_dumps_property():
    @hypothesis.settings(max_examples=200, **SETTINGS)
    @hypothesis.given(st.dictionaries(texts, values, max_size=5))
    def check(data):
        assert to_json(data) == dumps(data)

    check()


def test_to_json_matches_json_dumps_on_edge_values():
    data = {
        "empty": [{}, [], (), ""],
        "floats": _SPECIAL_FLOATS,
        "ints": [0, -1, 2 ** 64, -2 ** 64, 3 ** 200],
        "nested": {"a": {"b": [[], [{}], {"c": None}]}, "é": True, "\x00": False},
        "text": _SPECIAL_TEXT,
        "tuple": (1, "two", (3.0, None)),
    }
    assert to_json(data) == dumps(data)
    assert to_json({}) == "{}"


def test_to_json_drops_timings_only_when_asked():
    data = {"timings": {"total_s": 0.5}, "warnings": []}
    assert to_json(data) == dumps(data)
    assert to_json(data, no_timings=True) == dumps({"warnings": []})
    assert "timings" in data


# -- (b) polynomials -----------------------------------------------------------

_FIRST = "abcxyzAKL_λεéЖß"
_REST = _FIRST + "0123456789"
names = st.one_of(
    st.sampled_from(["eps", "keps", "eps2", "eps_a", "λeps", "epsilon", "x", "y", "_eps"]),
    st.builds(str.__add__, st.sampled_from(_FIRST), st.text(_REST, max_size=3)),
    st.builds(lambda a, b: a + "eps" + b, st.sampled_from(["", "k", "_", "λ"]),
              st.sampled_from(["", "2", "_a", "s", "ε"])),
)
tables = st.lists(names, min_size=1, max_size=46, unique=True).map(tuple)
coeffs = st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25),
                   st.sampled_from([1, 1, 2, 3, 7, 10 ** 20 + 39]))
exponents = st.sampled_from([0, 0, 0, 0, 1, 1, 2, 3, 17])


def polys_over(table, max_terms=6):
    constant = st.builds(lambda c: MPoly.const(table, c), coeffs)
    general = st.dictionaries(st.tuples(*[exponents] * len(table)), coeffs,
                              max_size=max_terms).map(lambda terms: MPoly(table, terms))
    return st.one_of(st.just(MPoly.zero(table)), constant, general)


polys = tables.flatmap(polys_over)


def test_polynomial_terms_and_canonical_string_match_the_old_writer_property():
    @hypothesis.settings(max_examples=300, **SETTINGS)
    @hypothesis.given(polys)
    def check(p):
        assert to_json({"t": p}) == dumps({"t": old_poly_terms(p)})
        assert str(p) == old_str(p)
        assert polynomial_entry(p)["canonical"] == old_display(old_str(p))
        entry = condition_entry(2, p, constant=1, solved=None)
        old = {"eps_order": 2, "poly": old_poly_terms(p),
               "canonical": old_display(old_str(p)), "constant": 1, "solved": None}
        assert to_json({"conditions": [entry]}) == dumps({"conditions": [old]})

    check()


def test_rational_function_entries_match_the_old_writer_property():
    small_tables = st.lists(names, min_size=1, max_size=4, unique=True).map(tuple)

    @st.composite
    def ratfuncs(draw):
        table = draw(small_tables)
        num = draw(polys_over(table, max_terms=4))
        den = draw(polys_over(table, max_terms=3).filter(bool))
        return RatFunc(num, den)

    @hypothesis.settings(max_examples=150, **SETTINGS)
    @hypothesis.given(ratfuncs())
    def check(v):
        old = {"k": 3, "degree": 8, "num_terms": old_poly_terms(v.num),
               "den_terms": old_poly_terms(v.den), "canonical": old_display(old_ratfunc_str(v))}
        assert to_json({"liapunov": [ratfunc_entry(v, 3, 8)]}) == dumps({"liapunov": [old]})
        assert str(v) == old_ratfunc_str(v)

    check()


def test_canonical_string_shows_only_the_variable_eps_as_epsilon():
    table = ("x", "y", "eps", "eps2", "eps_a", "keps", "λeps")
    p = MPoly(table, {(0, 0, 1, 1, 1, 1, 1): 3, (0, 0, 2, 0, 0, 0, 0): Fraction(-1, 2)})
    def display_str(obj):
        if isinstance(obj, RatFunc):
            return ratfunc_entry(obj, None, 0)["canonical"]
        return polynomial_entry(obj)["canonical"]

    assert display_str(p) == "3*ε*eps2*eps_a*keps*λeps - 1/2*ε^2"
    v = RatFunc(MPoly.variable("keps", table), MPoly.variable("eps", table) + 1)
    assert display_str(v) == "(keps)/(ε + 1)"
    assert display_str(RatFunc(MPoly.variable("keps", table), MPoly.const(table, 1))) == "keps"
    assert display_str(MPoly.const(table, Fraction(-5, 3))) == "-5/3"
    assert display_str(MPoly.zero(table)) == "0"


# -- (c) what json.dumps would write otherwise ------------------------------------

@pytest.mark.parametrize("data", [
    {1: "a"},
    {"a": {2: "b"}},
    {"a": [{None: 1}]},
    {"a": {("t",): 1}},
], ids=["int-key", "nested-int-key", "none-key", "tuple-key"])
def test_to_json_refuses_a_key_that_is_not_a_string(data):
    with pytest.raises(TypeError):
        to_json(data)


@pytest.mark.parametrize("value", [
    object(), {1, 2}, Fraction(1, 2), b"bytes", 1j,
    RatFunc(MPoly.variable("x", ("x",))),
], ids=["object", "set", "fraction", "bytes", "complex", "ratfunc"])
def test_to_json_refuses_an_unsupported_value(value):
    with pytest.raises(TypeError):
        to_json({"a": [value]})
