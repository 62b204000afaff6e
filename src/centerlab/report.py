"""Machine-readable analysis reports.

The JSON layout is stable: polynomials are term lists
``[{coeff_num, coeff_den, exponents: {var: pow}}]`` in descending graded-lex
order, rational functions carry ``num_terms``/``den_terms`` plus a canonical
string (eps rendered as the Greek letter).  Reports round-trip losslessly.

A report is built as data of dicts, lists, tuples, strings, numbers, bools,
None and :class:`MPoly` values, and :func:`to_json` writes it in one pass.
Its text is exactly ``json.dumps(data, sort_keys=True, indent=2,
ensure_ascii=False)`` of the same data with each polynomial replaced by its
term dicts: strings go through ``json``'s own ``encode_basestring``, numbers
through ``int.__repr__`` and ``float.__repr__`` (non-finite floats as
``NaN``/``Infinity``/``-Infinity``), and anything ``json`` would write
otherwise (a key that is not a string, a value of another type) raises
``TypeError``.

A polynomial is written straight from its integer edge,
:meth:`MPoly.integer_terms`: the key text of each table's exponents is built
once, in name order (the ``sort_keys`` order), and each term is one
formatted string, so no ``Fraction`` and no dict is built per term.  An
entry (:func:`polynomial_entry`, :func:`condition_entry`,
:func:`ratfunc_entry`) sorts and unpacks each polynomial once: its term list
and its canonical string (the text of :meth:`MPoly.render`, with eps shown
as ``ε``) are both written from that one list.  Table names are letters,
ASCII digits and ``_``, so this is the variable eps alone: a name such as
``keps`` or ``eps2`` keeps its letters.

The writer walks the data itself because ``json`` encodes indented output
with its pure-Python encoder, and the benchmark's reference outputs pin the
indented bytes.  When those references are regenerated once for ROADMAP
item 7, the report becomes compact ``json.dumps`` (its C encoder) and the
generic walker goes; the term rendering and the canonical strings stay.
"""

from __future__ import annotations

import math
from functools import lru_cache
from json.encoder import encode_basestring
from typing import Optional

from .mpoly import MPoly, render_terms
from .ratfunc import RatFunc

_SHOWN = {"eps": "ε"}
_INDENT = "  "


class _Listed:
    """A polynomial as the writer takes it: its table and its
    :meth:`MPoly.integer_terms` list, read once for both its term list and
    its canonical string."""

    __slots__ = ("vars", "rows")

    def __init__(self, p: MPoly):
        self.vars = p.vars
        self.rows = p.integer_terms()

    def canonical(self) -> str:
        return render_terms(self.vars, self.rows, _SHOWN)


def polynomial_entry(poly: MPoly, key: str = "terms", **extra) -> dict:
    """``{key: the term list of poly, "canonical": its canonical string}``
    plus ``extra``."""
    listed = _Listed(poly)
    return {key: listed, "canonical": listed.canonical(), **extra}


def ratfunc_entry(v: RatFunc, k: Optional[int], degree: int) -> dict:
    num, den = _Listed(v.num), _Listed(v.den)
    # RatFunc.render: the numerator alone over the denominator 1
    text, den_text = num.canonical(), den.canonical()
    return {
        "k": k,
        "degree": degree,
        "num_terms": num,
        "den_terms": den,
        "canonical": text if den_text == "1" else f"({text})/({den_text})",
    }


def condition_entry(eps_order: int, poly: MPoly, **extra) -> dict:
    return polynomial_entry(poly, "poly", eps_order=eps_order, **extra)


def to_json(report: dict, no_timings: bool = False) -> str:
    data = dict(report)
    if no_timings:
        data.pop("timings", None)
    out: list = []
    _write(data, "\n", out)
    return "".join(out)


def _write(value, nl: str, out: list) -> None:
    """Append the text of ``value`` to ``out``; ``nl`` is the newline and
    indent of the line the value starts on."""
    if isinstance(value, str):
        out.append(encode_basestring(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        if value != value:
            out.append("NaN")
        elif math.isinf(value):
            out.append("Infinity" if value > 0 else "-Infinity")
        else:
            out.append(float.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = nl + _INDENT
        sep = "[" + inner
        for item in value:
            out.append(sep)
            sep = "," + inner
            _write(item, inner, out)
        out.append(nl + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = nl + _INDENT
        sep = "{" + inner
        # encode_basestring raises TypeError on a key that is not a str
        for key in sorted(value):
            out.append(f"{sep}{encode_basestring(key)}: ")
            sep = "," + inner
            _write(value[key], inner, out)
        out.append(nl + "}")
    elif isinstance(value, _Listed):
        out.append(_terms_text(value.vars, value.rows, nl))
    elif isinstance(value, MPoly):
        out.append(_terms_text(value.vars, value.integer_terms(), nl))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@lru_cache(maxsize=64)
def _exponent_keys(names: tuple, nl: str) -> tuple:
    """``(slot, text)`` per variable of a table in name order: the text opens
    the variable's exponent entry on a line with newline and indent ``nl``."""
    return tuple((i, f"{nl}{encode_basestring(names[i])}: ")
                 for i in sorted(range(len(names)), key=names.__getitem__))


def _terms_text(table: tuple, terms: list, nl: str) -> str:
    """The term list of a polynomial over ``table`` with the
    :meth:`MPoly.integer_terms` list ``terms``, as its list of term dicts
    would be written."""
    if not terms:
        return "[]"
    t1 = nl + _INDENT
    t2 = t1 + _INDENT
    keys = _exponent_keys(table, t2 + _INDENT)
    head, num_key, exp_key = f'{{{t2}"coeff_den": ', f',{t2}"coeff_num": ', f',{t2}"exponents": '
    items = []
    for e, num, den in terms:
        exps = ",".join([f"{key}{e[i]}" for i, key in keys if e[i]])
        exps = f"{{{exps}{t2}}}" if exps else "{}"
        items.append(f"{head}{den}{num_key}{num}{exp_key}{exps}{t1}}}")
    return f"[{t1}" + f",{t1}".join(items) + f"{nl}]"
