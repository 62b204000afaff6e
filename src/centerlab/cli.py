"""Command-line front end.

Subcommands: liapunov, verify, reversible, qhcenter, returnmap, classify.
:func:`main` reads the system file and applies ``--set`` specializations
before any command reads its own options; the command runs its analysis and
returns its keys, and :func:`main` prints them in one JSON report with the
input and class (deterministic up to the timings block, which
``--no-timings`` removes).

Exit codes: 0 ok, 2 parse error, 3 class mismatch / unusable input,
4 internal engine fault.  A ``qhcenter --sweep`` point whose substitution or
analysis is unusable input (exit 3) is reported as ``"verdict": "refused"``
with its ``"reason"``, and the sweep goes on; only a sweep in which every
point is refused exits 3, with the first point's message.  An engine fault
still ends the sweep with exit 4.  A system file that cannot be opened,
read or decoded as UTF-8, or an ``-o`` path that cannot be written, exits 3
with one line ``error: <path>: <reason>``.  System files are read and
reports written as UTF-8, whatever the locale.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
import time
from typing import List, Optional

from .liapunov import MIN_EVEN_DEGREE, EngineError
from .mpoly import Rat
from .parser import ParseError, parse_first_integral
from .perturb import (
    ALL_ORDERS,
    FIRST_ORDER,
    MAX_TEMPLATE_DEGREE,
    build_perturbation,
    center_conditions_pipeline,
)
from .qhomog import classify_qh_center, detect_quasi_homogeneity
from .report import condition_entry, display_str, ratfunc_entry, to_json
from .structure import (
    characteristic_directions,
    is_hamiltonian,
    reversibility_conditions,
    verify_darboux_integral,
)
from .systems import (
    DEGENERATE,
    NILPOTENT,
    ClassificationError,
    PlaneSystem,
    parse_system,
    substitute,
)
from .numeric import check_tolerance, return_map


def _rat(option: str, text: str):
    """An exact rational from ``N`` or ``N/D``; anything else is a parse error
    that names ``option``."""
    try:
        if "/" in text:
            a, b = text.split("/", 1)
            return Rat(int(a), int(b))
        return Rat(int(text))
    except (ValueError, ZeroDivisionError):
        raise ParseError(
            f"{option} expects an integer or N/D with D != 0, got {text!r}") from None


def _number(option: str, text: str) -> float:
    """A finite float option value; anything else is a parse error."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ParseError(f"{option} expects a finite number, got {text!r}")
    return value


def _int_at_least(option: str, text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        raise ParseError(f"{option} expects an integer >= {least}, got {text!r}")
    return value


def _rel_tol(text: str) -> float:
    """The ``--rel-tol`` value: a tolerance the integrator accepts."""
    value = _number("--rel-tol", text)
    try:
        check_tolerance("--rel-tol", value)
    except ValueError as exc:
        raise ParseError(f"{exc}, got {text!r}") from None
    return value


def _radius(text: str) -> float:
    value = _number("--x0", text)
    if value <= 0:
        raise ParseError(f"--x0 expects a positive radius, got {text!r}")
    return value


def _radii(args) -> List[float]:
    return [_radius(v) for v in args.x0] if args.x0 else [0.02, 0.05, 0.1]


def _transversal(text: str):
    """``x+``, ``y+`` (or ``x``, ``y``) or an angle in radians."""
    return text if text in ("x+", "x", "y+", "y") else _number("--transversal", text)


def _load_system(args) -> tuple:
    try:
        with open(args.system, encoding="utf-8") as fh:
            source = fh.read()
    except OSError as exc:
        raise ValueError(f"{args.system}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{args.system}: {exc}") from exc
    s = parse_system(source)
    if args.set:
        binds = {}
        for item in args.set:
            name, _, val = (part.strip() for part in item.partition("="))
            if not (name and val):
                raise ParseError(f"--set expects name=value, got {item!r}")
            binds[name] = _rat(f"--set {name}", val)
        s = substitute(s, binds)
    return s, source


def _perturbation(choice: str, base_class: str) -> tuple:
    """The ``(kind, degree)`` that :func:`build_perturbation` takes for a
    ``--perturb`` choice on a system of ``base_class``: kind None for no
    perturbation, degree None for the minimal family."""
    if choice == "auto":
        choice = "minimal" if base_class in (NILPOTENT, DEGENERATE) else "none"
    default_kind = "nilpotent" if base_class == NILPOTENT else "degenerate"
    if choice in ("none", "minimal", "nilpotent", "degenerate", "hamiltonian"):
        return {"none": None, "minimal": default_kind}.get(choice, choice), None
    if choice == "general":
        return default_kind, 5
    if not choice.startswith("general:"):
        raise ParseError(f"unknown --perturb choice {choice!r}")
    text = choice.partition(":")[2]
    degree = _int_at_least("--perturb general:D", text, 1)
    if degree > MAX_TEMPLATE_DEGREE:
        raise ParseError(f"--perturb general:D expects an integer <= {MAX_TEMPLATE_DEGREE}, "
                         f"got {text!r}")
    return default_kind, degree


def _emit(args, data: dict, t0: float) -> None:
    data.setdefault("warnings", [])
    data["timings"] = {"total_s": round(time.perf_counter() - t0, 6)}
    text = to_json(data, no_timings=args.no_timings)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise ValueError(f"{args.output}: {exc.strerror}") from exc
    else:
        # UTF-8 bytes whatever the locale's encoding ("eps" prints as U+03B5)
        sys.stdout.flush()
        sys.stdout.buffer.write((text + "\n").encode("utf-8"))
        sys.stdout.buffer.flush()


def cmd_liapunov(args, s: PlaneSystem) -> dict:
    max_degree = _int_at_least("--max-degree", args.max_degree, MIN_EVEN_DEGREE)
    base_class = s.linear_class
    kind, degree = _perturbation(args.perturb, base_class)
    perturb_desc = {"kind": "none"}
    perturbation_params: List[str] = []
    if kind is not None:
        perturb_desc = ({"kind": kind, "template": "minimal"} if degree is None else
                        {"kind": kind, "template": "general", "degree": degree})
        before = set(s.params)
        s = build_perturbation(s, kind, degree)
        perturbation_params = [p for p in s.params if p not in before]
    mode = {"all-orders": ALL_ORDERS, "first-order": FIRST_ORDER}.get(args.mode)
    if mode is None:
        mode = FIRST_ORDER if base_class == DEGENERATE else ALL_ORDERS

    result = center_conditions_pipeline(s, max_degree, mode=mode,
                                        perturbation_params=perturbation_params)
    return {
        "class": {"base": base_class, "analyzed": s.linear_class},
        "perturbation": perturb_desc,
        "mode": mode,
        "liapunov": [ratfunc_entry(v, k, deg) for (k, deg, v) in result.constants],
        "conditions": [condition_entry(c.eps_order, c.poly, constant=c.constant_index,
                                       solved=(c.solved[0] if c.solved else None))
                       for c in result.base_conditions],
        "perturbation_conditions": [
            condition_entry(c.eps_order, c.poly, constant=c.constant_index,
                            solved=(c.solved[0] if c.solved else None))
            for c in result.perturbation_conditions],
        "mixed_conditions": [condition_entry(c.eps_order, c.poly, constant=c.constant_index)
                             for c in result.mixed_conditions],
        "side_conditions": [],
        "convention": result.convention.as_dict(),
    }


def cmd_verify(args, s: PlaneSystem) -> dict:
    expr = parse_first_integral(args.integral, s.vars)
    residual = verify_darboux_integral(s, expr)
    return {
        "integral": args.integral,
        "residual_zero": residual.is_zero,
        "residual_terms": len(residual),
        "warnings": (["argument factor: identity certified on u^2+v^2 > 0"]
                     if expr.arg_factor is not None else []),
    }


def cmd_reversible(args, s: PlaneSystem) -> dict:
    r = reversibility_conditions(s)
    return {
        "structure": {
            "verdict": r.verdict,
            "axis_symbols": list(r.axis_symbols),
            "conditions": [{"terms": p, "canonical": display_str(p)}
                           for p in r.conditions],
            "all_angles": r.all_angles,
            "witness_angles": r.witness_angles(),
        },
    }


def cmd_qhcenter(args, s: PlaneSystem) -> dict:
    def analyze(system: PlaneSystem, label: dict) -> dict:
        sig = detect_quasi_homogeneity(system)
        if sig is None:
            return {**label, "verdict": "undecided",
                    "note": "no quasi-homogeneous structure detected"}
        verdict, info = classify_qh_center(system, sig)
        entry = {**label, "pq": [sig.p, sig.q], "weight_degree": sig.m,
                 "verdict": verdict,
                 "condition_i": info["condition_i"].holds if "condition_i" in info else None}
        if "condition_ii" in info:
            # JSON has no inf or nan: a non-finite float is written as null
            res = info["condition_ii"]
            entry["integral"] = res.value if math.isfinite(res.value) else None
            entry["integral_error"] = res.error if math.isfinite(res.error) else None
            entry["numeric"] = True
        if "detail" in info:
            entry["detail"] = info["detail"]
        return entry

    if args.sweep:
        name, _, rng = args.sweep.partition("=")
        name = name.strip()
        bounds = rng.split(":")
        if not name or len(bounds) != 3:
            raise ParseError(f"--sweep expects NAME=A:B:STEP, got {args.sweep!r}")
        a, b, step = (_rat(f"--sweep {part}", v)
                      for part, v in zip(("start", "end", "step"), bounds))
        if step <= 0:
            raise ParseError(f"--sweep step must be positive, got {step}")
        if a > b:
            raise ParseError(f"--sweep start {a} is above its end {b}")
        points = []
        v = a
        while v <= b:
            points.append(v)
            v = v + step
        entries, refused = [], []
        for v in points:
            label = {"sweep": {name: str(v)}}
            try:
                entries.append(analyze(substitute(s, {name: v}), label))
            except (ClassificationError, ValueError, RuntimeError) as exc:
                # what main maps to exit 3 refuses this point alone
                if isinstance(exc, (ParseError, EngineError)):
                    raise
                refused.append(exc)
                entries.append({**label, "verdict": "refused", "reason": str(exc)})
        if len(refused) == len(points):
            raise refused[0]
        qdata = {"sweep": entries}
    else:
        qdata = analyze(s, {})
    return {
        "qhomog": qdata,
        "warnings": ["quasi-homogeneous verdicts are numeric (quadrature-based)"],
    }


def cmd_returnmap(args, s: PlaneSystem) -> dict:
    rm = return_map(s, _radii(args), transversal=_transversal(args.transversal),
                    rel_tol=_rel_tol(args.rel_tol))
    return {
        "numeric": {
            "transversal": rm.transversal,
            "classification": rm.classification,
            "samples": [{"x0": sm.x0, "value": sm.value,
                         "displacement": sm.displacement,
                         "return_time": sm.return_time} for sm in rm.samples],
        },
        "warnings": rm.warnings + ["return-map verdicts are evidence, not proof"],
    }


def cmd_classify(args, s: PlaneSystem) -> dict:
    # both parts are evidence, not proof: an exact result overrides them
    dirs = characteristic_directions(s)
    rm = return_map(s, _radii(args), transversal=_transversal(args.transversal))
    return {
        "structure": {
            "hamiltonian": is_hamiltonian(s),
            "characteristic_directions": [str(d) for d in dirs.directions],
            "every_direction": dirs.every_direction,
            "lowest_degree": dirs.lowest_degree,
        },
        "numeric": {
            "classification": rm.classification,
            "samples": [{"x0": sm.x0, "displacement": sm.displacement} for sm in rm.samples],
        },
        "summary": (f"{len(dirs.directions)} candidate characteristic direction(s); "
                    f"return map: {rm.classification}"),
        "warnings": rm.warnings + ["combined verdict is evidence, not proof"],
    }


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones
    (parsing never changes it)."""
    ap = argparse.ArgumentParser(prog="centerlab",
                                 description="Exact center-vs-focus analysis for planar "
                                             "polynomial systems")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("system", help="system file (xdot = ...; ydot = ...)")
        p.add_argument("--set", action="append", default=[], metavar="NAME=VALUE",
                       help="specialize a parameter (exact rational, e.g. 1/10)")
        p.add_argument("--no-timings", action="store_true")
        p.add_argument("-o", "--output", help="write the JSON report to a file")
        p.set_defaults(func=func)
        return p

    p = command("liapunov", cmd_liapunov, "obstruction constants and center conditions")
    p.add_argument("--perturb", default="auto",
                   help="auto | none | minimal | nilpotent | degenerate | "
                        f"general[:D] (D <= {MAX_TEMPLATE_DEGREE}) | hamiltonian")
    p.add_argument("--max-degree", default="8",
                   help="truncation degree N; constants sit at even degrees, so the pass "
                        "stops at the largest even degree <= N")
    p.add_argument("--mode", choices=["all-orders", "first-order"], default=None)

    p = command("verify", cmd_verify, "check a first-integral candidate exactly")
    p.add_argument("--integral", required=True,
                   help="product form, e.g. \"(1+x)^(-2*c)*(x^4+y^2)\" or exp((g)/(h)) "
                        "or argexp(k; u; v) factors")

    command("reversible", cmd_reversible, "time-reversibility about a rotated axis")

    p = command("qhcenter", cmd_qhcenter, "quasi-homogeneous center test")
    p.add_argument("--sweep", metavar="NAME=A:B:STEP",
                   help="sweep one parameter over a rational range")

    p = command("returnmap", cmd_returnmap, "numeric first-return map")
    p.add_argument("--x0", action="append", help="initial radius (repeatable)")
    p.add_argument("--transversal", default="x+", help="x+ | y+ | angle in radians")
    p.add_argument("--rel-tol", default="1e-12")

    p = command("classify", cmd_classify, "characteristic directions + return map")
    p.add_argument("--x0", action="append")
    p.add_argument("--transversal", default="x+")
    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        t0 = time.perf_counter()
        s, source = _load_system(args)
        # each command returns its own keys; a "class" entry replaces the default
        _emit(args, {"input": source, "class": s.linear_class, **args.func(args, s)}, t0)
        return 0
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except ClassificationError as exc:
        print(f"class mismatch: {exc}", file=sys.stderr)
        return 3
    except (EngineError, ZeroDivisionError) as exc:
        print(f"engine fault: {exc}", file=sys.stderr)
        return 4
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
