import sys
from fractions import Fraction

import pytest

from centerlab.liapunov import DegreePass
from centerlab import liapunov, mpoly, perturb, ratfunc
from centerlab.mpoly import MPoly
from centerlab.perturb import (
    ALL_ORDERS,
    FIRST_ORDER,
    MAX_TEMPLATE_DEGREE,
    Condition,
    PipelineResult,
    build_perturbation,
    center_conditions_pipeline,
    check_no_vanishing_singularities,
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
from reduce_modulo import reduce_modulo


def _conds(result):
    return {str(c.poly) for c in result.base_conditions}


def test_minimal_nilpotent_perturbation_matches_reference_form():
    s = parse_system(NIL_CUBIC_AB)
    pert = build_perturbation(s, "nilpotent")
    assert pert.linear_class == "perturbed_nilpotent"
    assert pert.Q == poly("-eps*x - x^3 + K*x*y^2 + L*y^3", pert.vars)
    back = substitute(pert, {"eps": 0})
    assert back.P == s.P.embed(back.vars) and back.Q == s.Q.embed(back.vars)


def test_minimal_respects_linear_scaling():
    # (-y, 0) base: the elliptic perturbation must flip sign with it
    s = parse_system(NIL_SEXTIC.replace(" + eps*x", ""))
    pert = build_perturbation(s, "nilpotent")
    assert pert.linear_class == "perturbed_nilpotent"
    assert pert.Q.homogeneous_parts()[1] == poly("eps*x", pert.vars)


def test_degenerate_perturbation_form():
    s = parse_system(DEG_QUINTIC)
    pert = build_perturbation(s, "degenerate")
    assert pert.linear_class == "perturbed_degenerate"
    ref = parse_system(DEG_QUINTIC_EPS)
    assert pert.P == ref.P.embed(pert.vars) and pert.Q == ref.Q.embed(pert.vars)


def test_hamiltonian_perturbation_preserves_divergence_and_integral():
    # Hamiltonian base with H0 = x^4/4 + y^4/4: perturbation adds the exact
    # rotation term, keeping divergence zero and eps*(x^2+y^2)/2 + H0 invariant
    s = parse_system("xdot = -y^3; ydot = x^3")
    assert is_hamiltonian(s)
    pert = build_perturbation(s, "hamiltonian")
    assert is_hamiltonian(pert)
    assert pert.linear_class == "perturbed_degenerate"
    H = poly("eps*(x^2 + y^2)/2 + x^4/4 + y^4/4", pert.vars)
    assert lie_derivative(H, pert).is_zero
    assert substitute(pert, {"eps": 0}).P == s.P.embed(pert.vars).embed(s.vars)


def test_spec_invariants_rejected():
    s = parse_system(DEG_QUINTIC)
    with pytest.raises(ValueError, match="unknown perturbation kind 'elliptic'"):
        build_perturbation(s, "elliptic")
    with pytest.raises(ValueError, match="hamiltonian perturbation takes no G terms"):
        build_perturbation(s, "hamiltonian", 2)
    for degree in (0, MAX_TEMPLATE_DEGREE + 1):
        with pytest.raises(ValueError, match="general template degree must be 1 to 10"):
            build_perturbation(s, "degenerate", degree)
    with pytest.raises(ClassificationError,
                       match="nilpotent perturbation needs a nilpotent system, got linear_type"):
        build_perturbation(parse_system("xdot = -y; ydot = x"), "nilpotent")
    with pytest.raises(ClassificationError,
                       match="hamiltonian perturbation needs a degenerate system, got nilpotent"):
        build_perturbation(parse_system(NIL_CUBIC_AB), "hamiltonian")


def test_general_perturbation_template():
    s = parse_system(NIL_CUBIC_K)
    pert = build_perturbation(s, "nilpotent", 2)
    assert set(pert.params) - set(s.params) == {"a10", "a01", "a20", "a11", "a02",
                                                "b10", "b01", "b20", "b11", "b02"}
    assert pert.linear_class == "perturbed_nilpotent"
    ref = parse_system(K_RAW)
    assert pert.P == ref.P.embed(pert.vars) and pert.Q == ref.Q.embed(pert.vars)
    # eps -> 0 recovers the base exactly
    base = substitute(pert, {"eps": 0})
    assert base.P.embed(s.vars) == s.P and base.Q.embed(s.vars) == s.Q


@pytest.mark.parametrize("text,kind,count", [(NIL_CUBIC_AB, "nilpotent", 65),
                                             (DEG_QUINTIC, "degenerate", 63)])
def test_general_template_names_stay_distinct_up_to_degree_10(text, kind, count):
    # one parameter per monomial of G1 (a_ij) and of G2 (b_ij), degrees lo..10
    s = parse_system(text)
    pert = build_perturbation(s, kind, 10)
    new = set(pert.params) - set(s.params)
    assert len([p for p in new if p[0] == "a"]) == len([p for p in new if p[0] == "b"]) == count
    lo = 1 if kind == "nilpotent" else 2
    scale = "eps*x" if kind == "nilpotent" else "eps"
    minimal = build_perturbation(s, kind)
    for prefix, got, base in (("a", pert.P, minimal.P), ("b", pert.Q, minimal.Q)):
        G = " + ".join(f"{prefix}{i}{d - i}*x^{i}*y^{d - i}"
                       for d in range(lo, 11) for i in range(d + 1))
        assert got - base.embed(pert.vars) == poly(f"{scale}*({G})", pert.vars)


def test_general_perturbation_name_collision():
    s = parse_system(CUBIC_FAMILY_A)
    with pytest.raises(ValueError, match="collide"):
        build_perturbation(s, "nilpotent", 3)


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
    pert = build_perturbation(s, "nilpotent", 5)
    pset = [p for p in pert.params if p not in ("k1", "k2")]
    res = center_conditions_pipeline(pert, 6, perturbation_params=pset)
    assert _conds(res) == {"k1", "k2"}
    solved = {c.solved[0]: c.solved[1] for c in res.perturbation_conditions if c.solved}
    assert str(solved["b10"]) == "1/2*k2"
    assert not res.mixed_conditions


def test_pipeline_cubic_ab_family():
    s = parse_system(NIL_CUBIC_AB)
    pert = build_perturbation(s, "nilpotent")
    res = center_conditions_pipeline(pert, 6)
    assert _conds(res) == {"A*B - 3*L", "A^3*B - 2*A*B*K"}


def test_pipeline_sextic_family():
    s = parse_system(NIL_SEXTIC)
    pert = build_perturbation(s, "nilpotent")
    res = center_conditions_pipeline(pert, 10)
    assert _conds(res) == {"c", "a*b"}


def test_pipeline_cubic_family_a():
    s = parse_system(CUBIC_FAMILY_A)
    pert = build_perturbation(s, "nilpotent")
    res = center_conditions_pipeline(pert, 6)
    assert [str(c.poly) for c in res.base_conditions] == [
        "a30", "a02*a11 + a12", "a02*a11*a21", "a02*a03*a11"]


def test_pipeline_cubic_family_b():
    s = parse_system(CUBIC_FAMILY_B)
    pert = build_perturbation(s, "nilpotent")
    res = center_conditions_pipeline(pert, 6)
    assert [str(c.poly) for c in res.base_conditions] == [
        "a02*a11 - a21", "a03", "a02*a11*a30", "3*a02^3*a11 + 2*a02*a11*a12"]


def test_pipeline_first_order_degenerate():
    s = parse_system(DEG_QUINTIC)
    pert = build_perturbation(s, "degenerate")
    res = center_conditions_pipeline(pert, 10, mode=FIRST_ORDER)
    assert [str(c.poly) for c in res.base_conditions] == ["a*mu", "a*lambda"]


def test_pipeline_homogeneous_cubic_first_order():
    s = parse_system(HOMOG_CUBIC)
    pert = build_perturbation(s, "hamiltonian")
    res = center_conditions_pipeline(pert, 4, mode=FIRST_ORDER)
    assert [str(c.poly) for c in res.base_conditions] == ["lambda"]


def test_conditions_annihilate_constants():
    # substituting the solved conditions back kills every reported constant
    s = parse_system(NIL_CUBIC_AB)
    pert = build_perturbation(s, "nilpotent")
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
    assert target.remainder([cond]) == poly("b^3", table)
    a, b = poly("a", table), poly("b", table)
    long = MPoly.zero(table)
    for k in range(1001):
        long = long + a * b ** k
    assert long.remainder([a]).is_zero
    assert (long + b).remainder([a]) == b


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
            poly_k = reduce_modulo(poly_k.embed(full_table), reducers).primitive()
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
    pert = build_perturbation(s, kind, general_degree)
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


@pytest.mark.parametrize("text, general_degree, degree",
                         [(NIL_CUBIC_AB, None, 8), (CUBIC_FAMILY_B, None, 7),
                          (NIL_CUBIC_K, 3, 8)],
                         ids=["ab-minimal-d8", "family-b-d7", "k-general3-d8"])
def test_specialised_h_table_matches_fresh_pass(monkeypatch, text, general_degree, degree):
    # the stored H_k, re-expressed by specialise (numerators substituted, the
    # slot of each V that vanishes set to 0), equal those of a pass run on
    # the specialised family from the start
    runs = _recorded_pass(monkeypatch)
    family, pset = _perturbed(text, general_degree=general_degree)
    res = center_conditions_pipeline(family, degree, perturbation_params=pset)
    assert any(c.solved for c in res.base_conditions)
    [run] = runs
    fresh = liapunov.DegreePass(run.system, degree)
    list(fresh)
    got, want = run.h_table(), fresh.h_table()
    assert sorted(got) == sorted(want) == list(range(2, degree - degree % 2 + 1))
    for k in want:
        assert (got[k].num, got[k].den) == (want[k].num, want[k].den), k
    # the stored numerators themselves agree, slots included: on the K
    # family, V_6 and V_8 stay nonzero through the specialisations at their
    # stages, so their slots stay in both tables
    assert sorted(run.H) == sorted(fresh.H)
    for k in fresh.H:
        assert run.H[k] == fresh.H[k], k
    if general_degree:
        assert {"V(6)", "V(8)"} <= set(run.H[8].variables_present())


def test_specialise_reads_only_the_nonlinear_parts(monkeypatch):
    # sigma, mu and the chain factors carry no parameters: specialise keeps
    # them, re-embedded into the new table, and reads the linear part of no
    # substituted family
    runs = _recorded_pass(monkeypatch)
    read = []
    scalars = liapunov._linear_scalars
    monkeypatch.setattr(liapunov, "_linear_scalars", lambda s: read.append(s) or scalars(s))
    family, pset = _perturbed(NIL_CUBIC_K, general_degree=3)
    res = center_conditions_pipeline(family, 8, perturbation_params=pset)
    assert any(c.solved for c in res.base_conditions)
    [run] = runs
    assert len(read) == 1 and run.system != read[0]
    assert {run._sigma.vars, run._mu.vars} | {f.vars for f in run._factors.values()} == {run._vars}


def test_degree_pass_reduces_only_the_constants(monkeypatch):
    # no poly_gcd runs in the pipeline: each nonzero V is reduced once, where
    # _assemble builds it, over the pass's basis of eps-only factors, and
    # neither the residual, specialise nor a zero V reduces anything
    gcds, reductions = [], []
    gcd, reduce = mpoly.poly_gcd, liapunov.EpsBasis.reduce

    def recorded_gcd(a, b):
        gcds.append((a, b))
        return gcd(a, b)

    def recorded_reduce(self, num, exps):
        reductions.append(sys._getframe(1).f_code.co_qualname)
        return reduce(self, num, exps)

    monkeypatch.setattr(ratfunc, "poly_gcd", recorded_gcd)
    monkeypatch.setattr(mpoly, "poly_gcd", recorded_gcd)
    monkeypatch.setattr(liapunov.EpsBasis, "reduce", recorded_reduce)
    runs = _recorded_pass(monkeypatch)
    family, _ = _perturbed(NIL_CUBIC_AB)
    res = center_conditions_pipeline(family, 12)
    assert runs and any(c.solved for c in res.base_conditions)
    assert gcds == []
    # a reduction that refines the basis starts again from EpsBasis.reduce
    assert reductions.count("DegreePass._assemble") == len(res.constants) == len(range(4, 13, 2))
    assert set(reductions) <= {"DegreePass._assemble", "EpsBasis.reduce"}


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
    assert solved == list(range(3, degree - degree % 2 + 1))


@pytest.mark.parametrize("text, general_degree, degree, last_stage_solves",
                         [(NIL_CUBIC_AB, None, 8, False), (CUBIC_FAMILY_B, None, 7, False),
                          (NIL_CUBIC_K, 3, 5, True)],
                         ids=["ab-minimal-d8", "family-b-d7", "k-general3-d5"])
def test_pass_does_no_work_after_its_last_constant(monkeypatch, text, general_degree, degree,
                                                    last_stage_solves):
    # the pass stops at the last even degree, and the bindings of a last
    # stage are recorded but not substituted, since no later degree reads them
    events, solved, yielded = [], [], []

    def from_pass():
        frame = sys._getframe(2)
        while frame is not None:
            if frame.f_code.co_qualname.startswith("DegreePass."):
                return True
            frame = frame.f_back
        return False

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            if from_pass():
                events.append(name)
            return fn(*args, **kwargs)
        return wrapped

    solve, iterate = liapunov._solve_degree, liapunov.DegreePass.__iter__
    specialise = liapunov.DegreePass.specialise

    def counted(sigma, mu, n, R_num, R_den):
        solved.append(n)
        return solve(sigma, mu, n, R_num, R_den)

    def recorded_iter(self):
        for n, V in iterate(self):
            events.append("yield")
            yielded.append(n)
            yield n, V

    def recorded_specialise(self, bindings):
        events.append("specialise")
        specialise(self, bindings)

    monkeypatch.setattr(liapunov, "_solve_degree", counted)
    monkeypatch.setattr(liapunov, "substitute", recording("substitute", liapunov.substitute))
    monkeypatch.setattr(MPoly, "subs", recording("subs", MPoly.subs))
    monkeypatch.setattr(liapunov.DegreePass, "__iter__", recorded_iter)
    monkeypatch.setattr(liapunov.DegreePass, "specialise", recorded_specialise)
    runs = _recorded_pass(monkeypatch)
    family, pset = _perturbed(text, general_degree=general_degree)
    res = center_conditions_pipeline(family, degree, perturbation_params=pset)
    [run] = runs
    last = degree - degree % 2
    assert solved == list(range(3, last + 1)) and yielded[-1] == last
    assert any(c.solved for c in res.base_conditions + res.perturbation_conditions)
    after_last_yield = events[len(events) - events[::-1].index("yield"):]
    assert after_last_yield == ["specialise"] * last_stage_solves
    if last_stage_solves:
        # the substitution runs at the next read, here of the table
        del events[:]
        run.h_table()
        assert events[0] == "substitute" and events.count("subs") > len(run.H)
