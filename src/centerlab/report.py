"""Machine-readable analysis reports.

The JSON layout is stable: polynomials are term lists
``[{coeff_num, coeff_den, exponents: {var: pow}}]`` in descending graded-lex
order, rational functions carry ``num_terms``/``den_terms`` plus a canonical
string (eps rendered as the Greek letter).  Reports round-trip losslessly.
"""

from __future__ import annotations

import json
import re
from typing import List, Optional

from .mpoly import MPoly
from .ratfunc import RatFunc

EPS_DISPLAY = "ε"
# the variable eps as a whole word: a parameter such as keps keeps its name
_EPS_WORD = re.compile(r"\beps\b")


def poly_terms(p: MPoly) -> List[dict]:
    out = []
    for e, c in p.sorted_terms():
        out.append({
            "coeff_num": int(c.numerator),
            "coeff_den": int(c.denominator),
            "exponents": {v: int(k) for v, k in zip(p.vars, e) if k},
        })
    return out


def display_str(obj) -> str:
    return _EPS_WORD.sub(EPS_DISPLAY, str(obj))


def ratfunc_entry(v: RatFunc, k: Optional[int], degree: int) -> dict:
    return {
        "k": k,
        "degree": degree,
        "num_terms": poly_terms(v.num),
        "den_terms": poly_terms(v.den),
        "canonical": display_str(v),
    }


def condition_entry(eps_order: int, poly: MPoly, **extra) -> dict:
    d = {"eps_order": eps_order, "poly": poly_terms(poly), "canonical": display_str(poly)}
    d.update(extra)
    return d


def to_json(report: dict, no_timings: bool = False) -> str:
    data = dict(report)
    if no_timings:
        data.pop("timings", None)
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=False)
