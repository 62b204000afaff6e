"""Output checks for benchmark jobs.

Exact jobs must reproduce the stored seed-commit ``--no-timings`` output byte
for byte, and their base conditions must match a known condition set that
does not come from the stored output.  Evidence jobs must reproduce the
stored verdicts exactly and the stored floats within ``RTOL``/``ATOL``,
because a rewrite of the integrator legitimately changes rounding.
"""

from __future__ import annotations

import copy
import json
import re
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional

from workloads import Job

REFS = Path(__file__).resolve().parent / "refs"

RTOL = 1e-6
ATOL = 1e-9
# acceptance criterion 6: a center's return map closes to within 1e-8 * x0
CENTER_DISPLACEMENT = 1e-8

_MONO = re.compile(r"\s*([+-]?)\s*(?:(\d+)\*?)?((?:[A-Za-z]\w*(?:\^\d+)?\*?)*)\s*")


def parse_monomial_sum(text: str) -> Dict[frozenset, Fraction]:
    """``"3*a02^3*a11 - 2*L"`` -> {frozenset of (var, exp): coefficient}."""
    out: Dict[frozenset, Fraction] = {}
    for part in re.findall(r"[+-]?[^+-]+", text.replace(" ", "")):
        m = _MONO.fullmatch(part)
        if m is None:
            raise ValueError(f"not a monomial: {part!r}")
        sign, coeff, factors = m.groups()
        expo: Dict[str, int] = {}
        for f in filter(None, factors.split("*")):
            name, _, e = f.partition("^")
            expo[name] = expo.get(name, 0) + int(e or 1)
        c = Fraction(int(coeff or 1)) * (-1 if sign == "-" else 1)
        key = frozenset(expo.items())
        out[key] = out.get(key, Fraction(0)) + c
    return out


def json_poly(terms) -> Dict[frozenset, Fraction]:
    return {frozenset((k, v) for k, v in t["exponents"].items() if v):
            Fraction(t["coeff_num"], t["coeff_den"]) for t in terms}


def _same_up_to_sign(p, q) -> bool:
    return p == q or p == {k: -v for k, v in q.items()}


def oracle_mismatch(doc: dict, relation: str, known) -> Optional[str]:
    got = [json_poly(c["poly"]) for c in doc["conditions"]]
    want = [parse_monomial_sum(t) for t in known]
    got_in_want = all(any(_same_up_to_sign(g, w) for w in want) for g in got)
    want_in_got = all(any(_same_up_to_sign(g, w) for g in got) for w in want)
    ok = {"equal": got_in_want and want_in_got and len(got) == len(want),
          "subset": got_in_want}[relation]
    if ok:
        return None
    return (f"base conditions {[c['canonical'] for c in doc['conditions']]} are not "
            f"the {relation} of the known set {list(known)}")


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b)) + ATOL


def first_mismatch(got, want, path: str = "") -> Optional[str]:
    """Path of the first difference; floats compare within RTOL/ATOL."""
    if isinstance(want, float) and isinstance(got, (int, float)) \
            and not isinstance(got, bool):
        return None if _close(float(got), want) else f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {got!r} != {want!r}"
    if isinstance(want, dict):
        if set(got) != set(want):
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        for k in want:
            bad = first_mismatch(got[k], want[k], f"{path}.{k}")
            if bad:
                return bad
        return None
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            bad = first_mismatch(g, w, f"{path}[{i}]")
            if bad:
                return bad
        return None
    return None if got == want else f"{path}: {got!r} != {want!r}"


def _at(doc: dict, dotted: str):
    for key in dotted.split("."):
        doc = doc[key]
    return doc


class References:
    """Stored seed-commit outputs, loaded once before the first job."""

    def __init__(self, jobs):
        self.raw: Dict[str, bytes] = {}
        self.docs: Dict[str, dict] = {}
        for job in jobs:
            data = (REFS / f"{job.ref_id}.json").read_bytes()
            if job.kind == "exact":
                self.raw[job.ref_id] = data
            else:
                self.docs[job.ref_id] = json.loads(data)

    def expected(self, job: Job) -> dict:
        """The stored document narrowed to this job's seeded inputs."""
        ref = self.docs[job.ref_id]
        if job.kind == "classify":
            return ref
        want = copy.deepcopy(ref)
        if job.kind == "returnmap":
            by_x0 = {s["x0"]: s for s in want["numeric"]["samples"]}
            want["numeric"]["samples"] = [by_x0[float(r)] for r in job.x0]
        elif job.kind == "qhsweep":
            by_mu = {e["sweep"]["mu"]: e for e in want["qhomog"]["sweep"]}
            want["qhomog"]["sweep"] = [by_mu[str(p)] for p in job.sweep]
        return want


def check(job: Job, data: bytes, refs: References) -> Optional[str]:
    """None when the output is correct, otherwise the first problem found."""
    if job.kind == "exact" and data != refs.raw[job.ref_id]:
        return "output differs from the stored reference"
    try:
        doc = json.loads(data)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if job.kind != "exact":
        bad = first_mismatch(doc, refs.expected(job))
        if bad:
            return f"differs from the stored reference at {bad}"
    if job.oracle is not None:
        bad = oracle_mismatch(doc, *job.oracle)
        if bad:
            return bad
    if job.verdict is not None:
        path, value = job.verdict
        if _at(doc, path) != value:
            return f"{path} is {_at(doc, path)!r}, expected {value!r}"
        if value == "center_evidence":
            for s in doc["numeric"]["samples"]:
                if abs(s["displacement"]) > CENTER_DISPLACEMENT * s["x0"]:
                    return f"center displacement {s['displacement']!r} at x0={s['x0']}"
    return None
