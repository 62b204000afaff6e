import sys
from fractions import Fraction

import pytest

from centerlab.liapunov import DegreePass
from centerlab import liapunov, mpoly, perturb, ratfunc
from centerlab.mpoly import MPoly
from centerlab.perturb import (
    ALL_ORDERS,
    FIRST_ORDER,
    Condition,
    PerturbationSpec,
    PipelineResult,
    build_perturbation,
    center_conditions_pipeline,
    check_no_vanishing_singularities,
    general_perturbation,
    minimal_perturbation,
)
from centerlab.ratfunc import laurent_expand_eps
from centerlab.structure import is_hamiltonian
from centerlab.systems import ClassificationError, lie_derivative, parse_system, substitute

from conftest import (
    CUBIC_FAMILY_A,
    CUBIC_FAMILY_B,
    DEG_FACTORED_EPS,
    DEG_QUINTIC,
    DEG_QUINTIC_EPS,
    HOMOG_CUBIC,
    NIL_CUBIC_AB,
    NIL_CUBIC_AB_EPS,
    NIL_CUBIC_K,
    NIL_SEXTIC,
    poly,
    rf,
)


def _conds(result):
    return {str(c.poly) for c in result.base_conditions}


def test_minimal_nilpotent_perturbation_matches_reference_form():
    s = parse_system(NIL_CUBIC_AB)
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    assert pert.linear_class == "perturbed_nilpotent"
    assert pert.Q == poly("-eps*x - x^3 + K*x*y^2 + L*y^3", pert.vars)
    back = substitute(pert, {"eps": 0})
    assert back.P == s.P.embed(back.vars) and back.Q == s.Q.embed(back.vars)


def test_minimal_respects_linear_scaling():
    # (-y, 0) base: the elliptic perturbation must flip sign with it
    s = parse_system(NIL_SEXTIC.replace(" + eps*x", ""))
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    assert pert.linear_class == "perturbed_nilpotent"
    assert pert.Q.homogeneous_part(1) == poly("eps*x", pert.vars)


def test_degenerate_perturbation_form():
    s = parse_system(DEG_QUINTIC)
    pert = build_perturbation(s, minimal_perturbation("degenerate"))
    assert pert.linear_class == "perturbed_degenerate"
    ref = parse_system(DEG_QUINTIC_EPS)
    assert pert.P == ref.P.embed(pert.vars) and pert.Q == ref.Q.embed(pert.vars)


def test_hamiltonian_perturbation_preserves_divergence_and_integral():
    # Hamiltonian base with H0 = x^4/4 + y^4/4: perturbation adds the exact
    # rotation term, keeping divergence zero and eps*(x^2+y^2)/2 + H0 invariant
    s = parse_system("xdot = -y^3; ydot = x^3")
    assert is_hamiltonian(s)
    pert = build_perturbation(s, minimal_perturbation("hamiltonian"))
    assert is_hamiltonian(pert)
    assert pert.linear_class == "perturbed_degenerate"
    H = poly("eps*(x^2 + y^2)/2 + x^4/4 + y^4/4", pert.vars)
    assert lie_derivative(H, pert).is_zero
    assert substitute(pert, {"eps": 0}).P == s.P.embed(pert.vars).embed(s.vars)


def test_spec_invariants_rejected():
    with pytest.raises(ValueError):
        PerturbationSpec("nilpotent", MPoly.const(("x", "y", "eps"), 1), None)
    with pytest.raises(ValueError):
        PerturbationSpec("degenerate", poly("x", ("x", "y", "eps")), None)
    with pytest.raises(ValueError):
        PerturbationSpec("hamiltonian", poly("x^2", ("x", "y", "eps")), None)
    with pytest.raises(ClassificationError):
        build_perturbation(parse_system("xdot = -y; ydot = x"),
                           minimal_perturbation("nilpotent"))


def test_general_perturbation_template():
    s = parse_system(NIL_CUBIC_K)
    spec = general_perturbation(s, degree=2)
    names = {v for v in spec.G1.variables_present()} | {v for v in spec.G2.variables_present()}
    assert names == {"x", "y", "a10", "a01", "a20", "a11", "a02",
                     "b10", "b01", "b20", "b11", "b02"}
    pert = build_perturbation(s, spec)
    assert pert.linear_class == "perturbed_nilpotent"
    # eps -> 0 recovers the base exactly
    base = substitute(pert, {"eps": 0})
    assert base.P.embed(s.vars) == s.P and base.Q.embed(s.vars) == s.Q


def test_general_perturbation_name_collision():
    s = parse_system(CUBIC_FAMILY_A)
    with pytest.raises(ValueError, match="collide"):
        general_perturbation(s, degree=3)


def test_pipeline_all_orders_separates_kinds():
    s = parse_system(
        "xdot = y + x^2 + k2*x*y + eps*x*(a10*x + a01*y + a20*x^2 + a11*x*y + a02*y^2); "
        "ydot = -eps*x + k1*x^2 - x^3 + eps*x*(b10*x + b01*y + b20*x^2 + b11*x*y + b02*y^2)")
    pset = [p for p in s.params if p not in ("k1", "k2")]
    res = center_conditions_pipeline(s, 4, ALL_ORDERS, perturbation_params=pset)
    assert [(str(c.poly), c.eps_order, c.kind) for c in res.base_conditions] == [
        ("k1", 0, "base")]
    # the eps^1 order mixes k2 and b10, and is solved for the perturbation
    # parameter
    first = res.perturbation_conditions[0]
    assert (str(first.poly), first.eps_order, first.kind) == ("2*b10 - k2", 1, "mixed")
    assert (first.solved[0], str(first.solved[1])) == ("b10", "1/2*k2")
    assert all(c.kind == "mixed" and c.solved for c in res.perturbation_conditions)
    assert not res.mixed_conditions


def test_pipeline_first_order_reads_lowest_orders():
    s = parse_system(DEG_QUINTIC_EPS)
    res = center_conditions_pipeline(s, 8, FIRST_ORDER)
    assert [str(c.poly) for c in res.base_conditions] == ["a*mu"]
    assert [c.eps_order for c in res.base_conditions] == [-1]


def test_pipeline_stage_counts():
    # one stage per constant that stays nonzero once the earlier stages'
    # solved conditions are substituted
    assert len(center_conditions_pipeline(parse_system(NIL_CUBIC_AB_EPS), 6).constants) == 2
    assert len(center_conditions_pipeline(parse_system("xdot = y; ydot = -eps*x"),
                                          6).constants) == 0


def test_pipeline_reports_the_first_stage_convention():
    s = parse_system(NIL_CUBIC_AB_EPS)
    res = center_conditions_pipeline(s, 6)
    assert res.convention == DegreePass(s, 6).convention
    assert res.convention.seed == "(mu*x^2+y^2)/2 with mu = eps"


def test_pipeline_cubic_k_family_general_degree5():
    s = parse_system(NIL_CUBIC_K)
    spec = general_perturbation(s, degree=5)
    pert = build_perturbation(s, spec)
    pset = [p for p in pert.params if p not in ("k1", "k2")]
    res = center_conditions_pipeline(pert, 6, perturbation_params=pset)
    assert _conds(res) == {"k1", "k2"}
    solved = {c.solved[0]: c.solved[1] for c in res.perturbation_conditions if c.solved}
    assert str(solved["b10"]) == "1/2*k2"
    assert not res.mixed_conditions


def test_pipeline_cubic_ab_family():
    s = parse_system(NIL_CUBIC_AB)
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    res = center_conditions_pipeline(pert, 6)
    assert _conds(res) == {"A*B - 3*L", "A^3*B - 2*A*B*K"}


def test_pipeline_sextic_family():
    s = parse_system(NIL_SEXTIC)
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    res = center_conditions_pipeline(pert, 10)
    assert _conds(res) == {"c", "a*b"}


def test_pipeline_cubic_family_a():
    s = parse_system(CUBIC_FAMILY_A)
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    res = center_conditions_pipeline(pert, 6)
    assert [str(c.poly) for c in res.base_conditions] == [
        "a30", "a02*a11 + a12", "a02*a11*a21", "a02*a03*a11"]


def test_pipeline_cubic_family_b():
    s = parse_system(CUBIC_FAMILY_B)
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    res = center_conditions_pipeline(pert, 6)
    assert [str(c.poly) for c in res.base_conditions] == [
        "a02*a11 - a21", "a03", "a02*a11*a30", "3*a02^3*a11 + 2*a02*a11*a12"]


def test_pipeline_first_order_degenerate():
    s = parse_system(DEG_QUINTIC)
    pert = build_perturbation(s, minimal_perturbation("degenerate"))
    res = center_conditions_pipeline(pert, 10, mode=FIRST_ORDER)
    assert [str(c.poly) for c in res.base_conditions] == ["a*mu", "a*lambda"]


def test_pipeline_homogeneous_cubic_first_order():
    s = parse_system(HOMOG_CUBIC)
    pert = build_perturbation(s, minimal_perturbation("hamiltonian"))
    res = center_conditions_pipeline(pert, 4, mode=FIRST_ORDER)
    assert [str(c.poly) for c in res.base_conditions] == ["lambda"]


def test_conditions_annihilate_constants():
    # substituting the solved conditions back kills every reported constant
    s = parse_system(NIL_CUBIC_AB)
    pert = build_perturbation(s, minimal_perturbation("nilpotent"))
    res = center_conditions_pipeline(pert, 6)
    sub = {"L": rf("A*B/3", pert.vars).as_poly(), "K": rf("A^2/2", pert.vars).as_poly()}
    for _, _, v in res.constants:
        assert v.num.subs(sub, pert.vars).is_zero


def test_vanishing_singularities_factored_family_fails():
    fam = parse_system(DEG_FACTORED_EPS)
    r = check_no_vanishing_singularities(fam, [Fraction(1, 100), Fraction(1, 10000)])
    assert not r.passed
    d1, d2 = (s.distance for s in r.samples)
    assert abs(d1 - 0.1) < 1e-6 and abs(d2 - 0.01) < 1e-6


def test_vanishing_singularities_ab_family_passes():
    s = parse_system("xdot = y + x*y + 3*y^2; ydot = -eps*x - x^3 + 1/2*x*y^2 + y^3")
    r = check_no_vanishing_singularities(s, [Fraction(1, 100), Fraction(1, 10000)])
    assert r.passed
    assert all(s.distance is None or s.distance > 0.2 for s in r.samples)


def test_vanishing_singularities_linear_family_passes():
    fam = parse_system("xdot = eps*y; ydot = -eps*x")
    r = check_no_vanishing_singularities(fam, [Fraction(1, 100), Fraction(1, 10000)])
    assert r.passed
    assert all(s.distance is None for s in r.samples)


def test_reduce_modulo_long_reduction_terminates():
    # reducing a^3 by a - b takes three steps (a^3 -> a^2*b -> a*b^2 -> b^3);
    # a reduction of 1001 steps is no fault either
    table = ("x", "y", "eps", "a", "b")
    target, cond = poly("a^3", table), poly("a - b", table)
    assert perturb._reduce_modulo(target, [cond]) == poly("b^3", table)
    a, b = poly("a", table), poly("b", table)
    long = MPoly.zero(table)
    for k in range(1001):
        long = long + a * b ** k
    assert perturb._reduce_modulo(long, [a]).is_zero
    assert perturb._reduce_modulo(long + b, [a]) == b


def _restart_pipeline(perturbed, max_even_degree, mode=ALL_ORDERS, perturbation_params=()):
    """Reference: the restart-per-stage pipeline.  After every substitution it
    recomputes all constants of the reduced family from degree 3 and reads
    the first nonzero one above the previous stage's degree."""
    current = perturbed
    run = DegreePass(current, max_even_degree)
    result = PipelineResult(mode=mode, convention=run.convention)
    constants = dict(run)
    full_table = perturbed.vars
    pset = set(perturbation_params)
    index = 0
    floor = 0
    while True:
        first = next(((n, V) for n, V in constants.items()
                      if n > floor and not V.is_zero), None)
        if first is None:
            break
        index += 1
        floor, value = first
        result.constants.append((index, floor, value))
        items = sorted(laurent_expand_eps(value, perturb._order_bound(value)).items())
        if mode == FIRST_ORDER:
            items = items[:2]
        new_subs = {}
        reducers = [c.poly for c in result.base_conditions if c.solved is None]
        for k, coeff in items:
            poly_k = coeff.primitive().embed(current.vars)
            if new_subs:
                poly_k = poly_k.subs(new_subs, current.vars)
            poly_k = perturb._reduce_modulo(poly_k.embed(full_table), reducers).primitive()
            if poly_k.is_zero:
                continue
            present = set(poly_k.variables_present())
            if present & pset:
                sol = perturb._linear_solve_for(poly_k, [p for p in current.params if p in pset])
                if sol is not None:
                    cond = Condition(poly_k, k, index,
                                     "perturbation" if present <= pset else "mixed",
                                     solved=sol)
                    result.perturbation_conditions.append(cond)
                    new_subs[sol[0]] = sol[1].embed(current.vars)
                else:
                    result.mixed_conditions.append(Condition(poly_k, k, index, "mixed"))
            else:
                cond = Condition(poly_k, k, index, "base")
                result.base_conditions.append(cond)
                sol = perturb._linear_solve_for(poly_k,
                                                [p for p in current.params if p not in pset])
                if sol is not None:
                    cond.solved = sol
                    new_subs[sol[0]] = sol[1].embed(current.vars)
                else:
                    reducers.append(poly_k)
        if new_subs:
            current = substitute(current, new_subs)
            constants = dict(DegreePass(current, max_even_degree))
    return result


def _raw(text, base_params=None):
    s = parse_system(text)
    return s, [] if base_params is None else [p for p in s.params if p not in base_params]


def _perturbed(text, kind="nilpotent", general_degree=None):
    s = parse_system(text)
    spec = (general_perturbation(s, degree=general_degree) if general_degree
            else minimal_perturbation(kind))
    pert = build_perturbation(s, spec)
    return pert, [p for p in pert.params if p not in s.params]


K_RAW = ("xdot = y + x^2 + k2*x*y + eps*x*(a10*x + a01*y + a20*x^2 + a11*x*y + a02*y^2); "
         "ydot = -eps*x + k1*x^2 - x^3 + eps*x*(b10*x + b01*y + b20*x^2 + b11*x*y + b02*y^2)")

# every family the pipeline tests here and in test_acceptance.py run:
# id -> (family, perturbation parameters), max_even_degree, mode
PIPELINE_CASES = {
    "k-raw-d4": (lambda: _raw(K_RAW, ("k1", "k2")), 4, ALL_ORDERS),
    "quintic-eps-d8": (lambda: _raw(DEG_QUINTIC_EPS), 8, FIRST_ORDER),
    "ab-eps-d6": (lambda: _raw(NIL_CUBIC_AB_EPS), 6, ALL_ORDERS),
    "linear-d6": (lambda: _raw("xdot = y; ydot = -eps*x"), 6, ALL_ORDERS),
    "k-general5-d6": (lambda: _perturbed(NIL_CUBIC_K, general_degree=5), 6, ALL_ORDERS),
    "ab-minimal-d6": (lambda: _perturbed(NIL_CUBIC_AB), 6, ALL_ORDERS),
    "ab-minimal-d8": (lambda: _perturbed(NIL_CUBIC_AB), 8, ALL_ORDERS),
    "sextic-minimal-d10": (lambda: _perturbed(NIL_SEXTIC), 10, ALL_ORDERS),
    "family-a-d6": (lambda: _perturbed(CUBIC_FAMILY_A), 6, ALL_ORDERS),
    "family-b-d6": (lambda: _perturbed(CUBIC_FAMILY_B), 6, ALL_ORDERS),
    "family-b-d7": (lambda: _perturbed(CUBIC_FAMILY_B), 7, ALL_ORDERS),
    "quintic-degenerate-d10": (lambda: _perturbed(DEG_QUINTIC, "degenerate"), 10, FIRST_ORDER),
    "homog-hamiltonian-d4": (lambda: _perturbed(HOMOG_CUBIC, "hamiltonian"), 4, FIRST_ORDER),
}


def _poly_key(p):
    return p.vars, sorted(p.terms.items())


def _condition_key(c):
    solved = None if c.solved is None else (c.solved[0], _poly_key(c.solved[1]))
    return _poly_key(c.poly), c.eps_order, c.constant_index, c.kind, solved


def _result_key(r):
    return {
        "mode": r.mode,
        "convention": r.convention.as_dict(),
        "constants": [(k, degree, _poly_key(v.num), _poly_key(v.den))
                      for k, degree, v in r.constants],
        "base": [_condition_key(c) for c in r.base_conditions],
        "perturbation": [_condition_key(c) for c in r.perturbation_conditions],
        "mixed": [_condition_key(c) for c in r.mixed_conditions],
    }


@pytest.mark.parametrize("case", sorted(PIPELINE_CASES))
def test_pipeline_matches_restart_reference(case):
    build, degree, mode = PIPELINE_CASES[case]
    family, pset = build()
    got = center_conditions_pipeline(family, degree, mode, perturbation_params=pset)
    want = _restart_pipeline(family, degree, mode, perturbation_params=pset)
    assert _result_key(got) == _result_key(want)


def _recorded_pass(monkeypatch):
    """Make the pipeline's DegreePass instances visible: returns the list
    they are appended to."""
    runs = []

    class Recorded(liapunov.DegreePass):
        def __init__(self, *args):
            super().__init__(*args)
            runs.append(self)

    monkeypatch.setattr(perturb, "DegreePass", Recorded)
    return runs


@pytest.mark.parametrize("text, degree", [(NIL_CUBIC_AB, 8), (CUBIC_FAMILY_B, 7)],
                         ids=["ab-minimal-d8", "family-b-d7"])
def test_specialised_h_table_matches_fresh_pass(monkeypatch, text, degree):
    # the stored H_k, re-expressed by specialise (numerators substituted,
    # chain factors dropped where they cancel), equal those of a pass run
    # on the specialised family from the start
    runs = _recorded_pass(monkeypatch)
    family, _ = _perturbed(text)
    res = center_conditions_pipeline(family, degree)
    assert any(c.solved for c in res.base_conditions)
    [run] = runs
    fresh = liapunov.DegreePass(run.system, degree)
    list(fresh)
    got, want = run.h_table(), fresh.h_table()
    assert sorted(got) == sorted(want) == list(range(2, degree + 1))
    for k in want:
        assert (got[k].num, got[k].den) == (want[k].num, want[k].den), k
    # the stored numerators and chain factors themselves agree: a factor that
    # a vanishing V cancels is out of the specialised chain, as it never
    # enters the fresh one
    assert sorted(run.H) == sorted(fresh.H)
    for k in fresh.H:
        assert run.H[k] == fresh.H[k], k


def test_degree_pass_reduces_only_the_constants(monkeypatch):
    # gcds run once per nonzero V, from the solve, and never from the
    # residual or specialise (poly_lcm would reach mpoly.poly_gcd)
    stacks = []
    gcd = ratfunc.poly_gcd

    def recorded(a, b):
        frame, names = sys._getframe(1), []
        while frame is not None:
            names.append(frame.f_code.co_qualname)
            frame = frame.f_back
        stacks.append(names)
        return gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", recorded)
    monkeypatch.setattr(mpoly, "poly_gcd", recorded)
    runs = _recorded_pass(monkeypatch)
    family, _ = _perturbed(NIL_CUBIC_AB)
    res = center_conditions_pipeline(family, 12)
    assert runs and any(c.solved for c in res.base_conditions)
    in_pass = [names for names in stacks if "DegreePass.__iter__" in names]
    assert all("_solve_degree" in names for names in in_pass)
    assert len(in_pass) == len(res.constants) == len(range(4, 13, 2))
    assert not any({"DegreePass._residual", "DegreePass.specialise"} & set(names)
                   for names in stacks)


@pytest.mark.parametrize("text, degree", [(NIL_CUBIC_AB, 8), (CUBIC_FAMILY_B, 7)],
                         ids=["ab-minimal-d8", "family-b-d7"])
def test_pipeline_solves_each_degree_once(monkeypatch, text, degree):
    solved = []
    solve = liapunov._solve_degree

    def counted(sigma, mu, n, R_num, R_den):
        solved.append(n)
        return solve(sigma, mu, n, R_num, R_den)

    monkeypatch.setattr(liapunov, "_solve_degree", counted)
    family, _ = _perturbed(text)
    res = center_conditions_pipeline(family, degree)
    # the pass specialised the family at least once on the way
    assert any(c.solved for c in res.base_conditions)
    assert solved == list(range(3, degree + 1))
