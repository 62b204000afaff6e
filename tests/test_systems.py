from pathlib import Path

import pytest

from centerlab.liapunov import DegreePass
from centerlab.mpoly import MPoly, Rat
from centerlab.systems import (
    ClassificationError,
    PlaneSystem,
    format_system,
    lie_derivative,
    parse_system,
    substitute,
)

from conftest import (
    DEG_FACTORED,
    DEG_FACTORED_EPS,
    NIL_CUBIC_AB_EPS,
    poly,
    random_poly,
    rf,
)


@pytest.mark.parametrize("text,expected", [
    ("xdot = -y + x^2; ydot = x", "linear_type"),
    ("xdot = 3*y; ydot = -3*x + y^2", "linear_type"),
    ("xdot = y + x^2; ydot = -x^3", "nilpotent"),
    ("xdot = -2*y; ydot = x^3", "nilpotent"),
    ("xdot = x^2 + y^3; ydot = x^2", "degenerate"),
    ("xdot = y; ydot = -eps*x + x^2", "perturbed_nilpotent"),
    ("xdot = -y; ydot = eps*x + x^5", "perturbed_nilpotent"),
    ("xdot = eps*y + x^3; ydot = -eps*x", "perturbed_degenerate"),
    ("xdot = -eps*y + x^3; ydot = eps*x", "perturbed_degenerate"),
    ("xdot = y; ydot = -1/7*x + x^2", "perturbed_nilpotent"),  # specialized eps
    ("xdot = 2*y; ydot = -3*x", "perturbed_nilpotent"),        # elliptic, factor 3/2
])
def test_classification(text, expected):
    assert parse_system(text).linear_class == expected


@pytest.mark.parametrize("text", [
    "xdot = x; ydot = -y",                  # diagonal part
    "xdot = -y + x; ydot = x",              # mixed rotation
    "xdot = y; ydot = eps*x",               # saddle orientation
    "xdot = eps*y; ydot = -3*eps*x",        # mismatched degenerate rotation
])
def test_unsupported_linear_parts_rejected_by_engines(text):
    s = parse_system(text)
    assert s.linear_class == "other"
    with pytest.raises(ClassificationError, match="linear change of variables"):
        DegreePass(s, 4)


def reassemble(s):
    """(P, Q) summed back from the linear part and the nonlinear parts."""
    P, Q = s.linear_part()
    for pd, qd in s.nonlinear_parts().values():
        P, Q = P + pd, Q + qd
    return P, Q


def test_linear_and_nonlinear_parts_of_factored_family():
    s = parse_system(DEG_FACTORED)
    zero = MPoly.zero(s.vars)
    assert s.linear_part() == (zero, zero)
    assert sorted(s.nonlinear_parts()) == [3, 4]
    P, Q = reassemble(s)
    assert P == s.P and Q == s.Q


def test_linear_and_nonlinear_parts_linear_center():
    s = parse_system("xdot = -y; ydot = x")
    assert s.linear_part() == (s.P, s.Q)
    assert s.nonlinear_parts() == {}


def test_reassembly_random(rng):
    for _ in range(50):
        table = ("x", "y", "eps", "a")
        P = random_poly(rng, table, ("x", "y", "a"), max_degree=4, n_terms=5)
        P = sum((v for d, v in P.homogeneous_parts().items() if d >= 2), poly("y", table))
        Q = random_poly(rng, table, ("x", "y"), max_degree=4, n_terms=5)
        Q = sum((v for d, v in Q.homogeneous_parts().items() if d >= 2), poly("0", table))
        try:
            s = PlaneSystem(P, Q, ("a",))
        except ClassificationError:
            continue
        P2, Q2 = reassemble(s)
        assert P2 == s.P and Q2 == s.Q
        parts = {1: s.linear_part(), **s.nonlinear_parts()}
        assert all(set(pd.homogeneous_parts()) <= {d} and set(qd.homogeneous_parts()) <= {d}
                   for d, (pd, qd) in parts.items())


def test_lie_derivative_of_linear_first_integral():
    s = parse_system("xdot = y; ydot = -eps*x")
    H = poly("(eps*x^2 + y^2)/2", s.vars)
    assert lie_derivative(H, s).is_zero


def test_lie_derivative_factored_family_first_integral():
    s = parse_system(DEG_FACTORED)
    H = poly("(x^2 + y^2)/2 + 2*x^3/3 - y^3/3", s.vars)
    assert lie_derivative(H, s).is_zero


def test_lie_derivative_linearity(rng):
    s = parse_system("xdot = y + x^2; ydot = -x^3 + x*y")
    for _ in range(25):
        H1 = random_poly(rng, s.vars, ("x", "y"), max_degree=4, n_terms=4)
        H2 = random_poly(rng, s.vars, ("x", "y"), max_degree=4, n_terms=4)
        assert lie_derivative(H1 + H2, s) == lie_derivative(H1, s) + lie_derivative(H2, s)


def test_substitute_specializes_and_reclassifies():
    s = parse_system(NIL_CUBIC_AB_EPS)
    t = substitute(s, {"A": 1, "B": 3, "K": 0, "L": 1, "eps": Rat(1, 10)})
    assert t.params == ()
    assert t.linear_class == "perturbed_nilpotent"
    assert t.is_numeric()


def test_substitute_eps_to_zero_recovers_base():
    s = parse_system(DEG_FACTORED_EPS)
    base = substitute(s, {"eps": 0})
    ref = parse_system(DEG_FACTORED)
    assert base.P == ref.P and base.Q == ref.Q
    assert base.linear_class == "degenerate"


def test_substitute_rejects_state_variable():
    s = parse_system("xdot = y; ydot = -x^3")
    with pytest.raises(ValueError):
        substitute(s, {"x": 1})


def test_substitution_commutes_with_lie_derivative(rng):
    s = parse_system("xdot = y + a*x^2; ydot = -x^3 + a*x*y")
    for _ in range(25):
        H = random_poly(rng, s.vars, ("x", "y", "a"), max_degree=3, n_terms=4)
        val = Rat(rng.randint(-3, 3), rng.randint(1, 3))
        lhs = lie_derivative(H, s).subs({"a": val})
        rhs = lie_derivative(H.subs({"a": val}), substitute(s, {"a": val}))
        assert lhs == rhs


def test_assumption_checked_on_specialization():
    from centerlab.systems import AssumptionError

    s = parse_system("assume: a > 0\nxdot = y; ydot = -a*x^3")
    with pytest.raises(AssumptionError):
        substitute(s, {"a": -1})
    t = substitute(s, {"a": 2})
    assert t.assumptions == ()


ROOT = Path(__file__).resolve().parent.parent
SYSTEM_FILES = sorted([*ROOT.glob("sample_systems/*.sys"), *ROOT.glob("bench/systems/*.sys")])

# linear class, eps factor and nonlinear degrees of every system file
SYSTEM_FILE_VIEWS = {
    "center_cubic_member": ("linear_type", None, [2, 3]),
    "center_weighted_hamiltonian": ("degenerate", None, [3, 5]),
    "cubic_family_a": ("nilpotent", None, [2, 3]),
    "cubic_family_b": ("nilpotent", None, [2, 3]),
    "cubic_k": ("nilpotent", None, [2, 3]),
    "radial_focus": ("linear_type", None, [3]),
    "sextic": ("nilpotent", None, [4, 5, 6]),
    "degenerate_quintic": ("perturbed_degenerate", "eps", [3, 4, 5]),
    "factored_quartic": ("degenerate", None, [3, 4]),
    "homogeneous_cubic": ("degenerate", None, [3]),
    "nilpotent_cubic_ab": ("nilpotent", None, [2, 3]),
    "reversible_nilpotent": ("nilpotent", None, [2, 3]),
}


def _degree_part(p, d):
    """The terms of p whose degree in x and y is d, read from the public view."""
    ix, iy = p.vars.index("x"), p.vars.index("y")
    return {e: c for e, c in p.terms.items() if e[ix] + e[iy] == d}


@pytest.mark.parametrize("path", SYSTEM_FILES, ids=lambda p: p.stem)
def test_part_views_of_every_system_file(path):
    s = parse_system(path.read_text())
    cls, eps_factor, degrees = SYSTEM_FILE_VIEWS[path.stem]
    assert s.linear_class == cls
    assert (None if s.eps_factor is None else str(s.eps_factor)) == eps_factor
    P1, Q1 = s.linear_part()
    assert (P1.terms, Q1.terms) == (_degree_part(s.P, 1), _degree_part(s.Q, 1))
    parts = s.nonlinear_parts()
    assert list(parts) == degrees
    for d, (pd, qd) in parts.items():
        assert pd.vars == qd.vars == s.vars
        assert (pd.terms, qd.terms) == (_degree_part(s.P, d), _degree_part(s.Q, d))
    # the views hand out fresh containers: changing one leaves the system as it was
    parts.clear()
    assert list(s.nonlinear_parts()) == degrees
    assert reassemble(s) == (s.P, s.Q)


@pytest.mark.parametrize("path", SYSTEM_FILES, ids=lambda p: p.stem)
def test_stored_split_takes_no_part_in_equality(path):
    s = parse_system(path.read_text())
    for same in (parse_system(format_system(s)), substitute(s, {}), PlaneSystem(
            s.P, s.Q, s.params, s.assumptions)):
        assert same == s
        assert hash(same) == hash(s)
    assert "_by_degree" not in repr(s)
    # a system differing only in P is unequal, whatever its split
    other = PlaneSystem(s.P + poly("x^7", s.vars), s.Q, s.params, s.assumptions)
    assert other != s and other.nonlinear_parts()[7][0] == poly("x^7", s.vars)
