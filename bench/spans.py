"""Span tracing from outside the program.

The tracer wraps public ``centerlab`` functions and methods for the length of
a traced pass and restores them afterwards; nothing in ``src/`` is changed.
A name bound with ``from .x import f`` is a separate binding, so every
``centerlab`` module attribute (and class attribute, for ``__rmul__`` beside
``__mul__``) that holds the original object is replaced, not only the one in
the defining module.

Spans are kept in memory as parallel lists and written once, at the end of
the run.  A span's self time is its duration minus the durations of its
direct children; spans nest strictly because the benchmark runs one thread.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence

# counters kept at the layer boundaries; each repeats exactly for a given job list
COUNTERS = ("mpoly.mul.term_products", "mpoly.try_div.inexact", "mpoly.coeff_max_bits",
            "linalg.bareiss.max_n", "liapunov.degrees_solved", "numeric.steps",
            "numeric.nfev", "numeric.rejected_steps", "numeric.segments_stored")


def self_times(names: Sequence[str], parents: Sequence[int], starts: Sequence[float],
               ends: Sequence[float]) -> Dict[str, float]:
    """Total self time per span name."""
    child = [0.0] * len(names)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out: Dict[str, float] = {}
    for i, name in enumerate(names):
        out[name] = out.get(name, 0.0) + (ends[i] - starts[i]) - child[i]
    return out


def _total_degree(p) -> int:
    return max((sum(e) for e in p.terms), default=0)


def _coeff_bits(p) -> int:
    bits = 0
    for c in p.terms.values():
        bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    def __init__(self):
        self.names: List[str] = []
        self.parents: List[int] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = {}
        self._restore: list = []
        self.missing: List[str] = []

    # -- spans ---------------------------------------------------------------

    def open(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(i)
        self.starts.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        self.stack.pop()

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        self.counts[key] = max(self.counts.get(key, 0), n)

    def wrap(self, name: str, fn: Callable, after: Optional[Callable] = None) -> Callable:
        def traced(*args, **kwargs):
            i = self.open(name)
            try:
                out = fn(*args, **kwargs)
                if after is not None:
                    after(self, args, kwargs, out)
                return out
            finally:
                self.close(i)
        return traced

    # -- patching -------------------------------------------------------------

    def patch(self, module: str, attr: str, name: str, after: Optional[Callable] = None):
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) everywhere it is bound."""
        mod = sys.modules.get(module)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = getattr(owner, method, None) if owner is not None else None
        if original is None:
            if f"{module}.{attr}" not in self.missing:
                self.missing.append(f"{module}.{attr}")
            return
        wrapper = self.wrap(name, original, after)
        if owner_name:
            targets = [owner]
        else:
            targets = [m for k, m in sys.modules.items()
                       if m is not None and (k == "centerlab" or k.startswith("centerlab."))]
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    self._restore.append((target, key, value))
                    setattr(target, key, wrapper)

    def unpatch(self) -> None:
        for target, key, value in reversed(self._restore):
            setattr(target, key, value)
        self._restore.clear()

    def install(self) -> None:
        for module, attr, name, after in HOOKS:
            self.patch(module, attr, name, after)

    # -- results --------------------------------------------------------------

    def mark(self) -> int:
        return len(self.names)

    def summary(self, lo: int, hi: int) -> dict:
        """Per-layer numbers for the spans in [lo, hi) (one traced pass)."""
        names = self.names[lo:hi]
        parents = [p - lo if p >= lo else -1 for p in self.parents[lo:hi]]
        own = self_times(names, parents, self.starts[lo:hi], self.ends[lo:hi])
        calls: Dict[str, int] = {}
        for n in names:
            calls[n] = calls.get(n, 0) + 1
        return {"self_s": own, "calls": calls}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"names": self.names, "parents": self.parents,
                       "starts": self.starts, "ends": self.ends}, fh)


# -- counters taken at the layer boundaries ----------------------------------

def _after_mul(tr: Tracer, args, kwargs, out) -> None:
    a, b = args[0], args[1]
    tr.add("mpoly.mul.term_products", len(a.terms) * len(getattr(b, "terms", (0,))))
    if hasattr(out, "terms"):
        tr.peak("mpoly.coeff_max_bits", _coeff_bits(out))


def _after_try_div(tr: Tracer, args, kwargs, out) -> None:
    if out is None:
        tr.add("mpoly.try_div.inexact", 1)
    else:
        tr.peak("mpoly.coeff_max_bits", _coeff_bits(out))


def _after_normalize(tr: Tracer, args, kwargs, out) -> None:
    self = args[0]
    den = args[2] if len(args) > 2 else kwargs.get("den")
    if den is not None and not self.num.is_zero \
            and _total_degree(self.den) < _total_degree(den):
        tr.add("ratfunc.normalize.cancelled", 1)


def _after_bareiss(tr: Tracer, args, kwargs, out) -> None:
    tr.peak("linalg.bareiss.max_n", len(args[0]))


def _after_compute(tr: Tracer, args, kwargs, out) -> None:
    degree = args[1] if len(args) > 1 else kwargs["max_even_degree"]
    tr.add("liapunov.degrees_solved", degree - 2)


def _after_integrate(tr: Tracer, args, kwargs, out) -> None:
    tr.add("numeric.steps", out.steps)
    tr.add("numeric.nfev", out.nfev)
    tr.add("numeric.rejected_steps", (out.nfev - 1) // 6 - out.steps)
    tr.add("numeric.segments_stored", len(out.segments))


HOOKS = (
    ("centerlab.mpoly", "MPoly.__mul__", "mpoly.mul", _after_mul),
    ("centerlab.mpoly", "MPoly.try_div", "mpoly.try_div", _after_try_div),
    ("centerlab.mpoly", "poly_gcd", "mpoly.gcd", None),
    ("centerlab.ratfunc", "RatFunc.__init__", "ratfunc.normalize", _after_normalize),
    ("centerlab.ratfunc", "laurent_expand_eps", "ratfunc.laurent", None),
    ("centerlab.linalg", "bareiss_solve", "linalg.bareiss", _after_bareiss),
    ("centerlab.liapunov", "compute_liapunov_constants", "liapunov.compute", _after_compute),
    ("centerlab.perturb", "center_conditions_pipeline", "perturb.pipeline", None),
    ("centerlab.perturb", "build_perturbation", "perturb.build", None),
    ("centerlab.systems", "parse_system", "systems.parse", None),
    ("centerlab.systems", "substitute", "systems.substitute", None),
    ("centerlab.numeric", "integrate_adaptive", "numeric.integrate", _after_integrate),
    ("centerlab.qhomog", "classify_qh_center", "qhomog.classify", None),
    ("centerlab.structure", "reversibility_conditions", "structure", None),
    ("centerlab.structure", "verify_darboux_integral", "structure", None),
    ("centerlab.structure", "characteristic_directions", "structure", None),
    ("centerlab.structure", "is_hamiltonian", "structure", None),
    ("centerlab.realroots", "isolate_real_roots", "realroots.isolate", None),
    ("centerlab.report", "to_json", "report.to_json", None),
)


def layer_metrics(summary: dict, counts: Dict[str, int]) -> Dict[str, float]:
    """The per-layer metrics of one traced pass."""
    own, calls = summary["self_s"], summary["calls"]
    m: Dict[str, float] = {}
    for span in ("mpoly.mul", "mpoly.try_div", "mpoly.gcd", "ratfunc.normalize",
                 "ratfunc.laurent", "linalg.bareiss", "liapunov.compute",
                 "systems.substitute", "numeric.integrate", "realroots.isolate"):
        m[f"{span}.calls"] = calls.get(span, 0)
    for span in ("mpoly.mul", "mpoly.try_div", "mpoly.gcd", "ratfunc.normalize",
                 "ratfunc.laurent", "linalg.bareiss", "liapunov.compute",
                 "perturb.pipeline", "perturb.build", "systems.parse",
                 "systems.substitute", "numeric.integrate", "qhomog.classify",
                 "structure", "realroots.isolate", "report.to_json", "cli"):
        m[f"{span}.self_s"] = own.get(span, 0.0)
    for key in COUNTERS:
        m[key] = counts.get(key, 0)
    n = calls.get("ratfunc.normalize", 0)
    m["ratfunc.normalize.cancel_ratio"] = counts.get("ratfunc.normalize.cancelled", 0) / n \
        if n else 0.0
    t = own.get("numeric.integrate", 0.0)
    m["numeric.steps_per_s"] = counts.get("numeric.steps", 0) / t if t > 0 else 0.0
    return m
