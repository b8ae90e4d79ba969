"""Dual-bracket construction, bialgebra checks, builders and classification."""

import pickle
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    b_dual_reference,
    b_dual_sum_reference,
    bracket_compat_plain_reference,
    bracket_compat_reference,
    broken_noncob,
    ce_differential_reference,
    check_glb_reference,
    coboundary_system_reference,
    compact_algebras,
    compact_kind_bialgebras,
    contraction_compat_reference,
    cubic_noninvariant_yb,
    dual_bracket_adjoint_reference,
    dual_bracket_pointwise_reference,
    fm,
    induced,
    invariant_scalar_product_reference,
    mixed_algebras,
    mixed_fraction,
    mv,
    non_lie_glb,
    random_basis,
    random_element,
    rational_system,
    seeded_brackets,
    seeded_quadruples,
    semidirect_dual_reference,
    sharp_homomorphism_reference,
    solve_cocycle_reference,
    solve_reference,
    third_kind_series,
    unimodular_basis,
    vec,
)
from liejacobi.bialgebra import (
    _check_glb,
    _check_sharp_homomorphism,
    _coboundary_system,
    _twisted_ad,
    _unit_dual,
    CoboundarySolutions,
    GeneralizedBialgebra,
    SharpCertificate,
    YbData,
    build_dual_bracket,
    build_first_kind,
    build_from_jacobi,
    build_second_kind,
    build_semidirect_glb,
    build_third_kind,
    check_glb,
    check_yb_hypotheses,
    classify_compact,
    dual_bracket_adjoint_route,
    dual_bracket_pointwise_route,
    extract_jacobi,
    glb_from_cocycle,
    solve_coboundary,
    su2_triple,
    third_kind_pair,
    unit_center_vector,
)
from liejacobi import bialgebra, jacobi, linalg
from liejacobi.catalog import catalog, catalog_names, heisenberg
from liejacobi.exterior import Form, Multivector, contract, pair, wedge
from liejacobi.jacobi import (ContactStructure, JacobiPair, LcsStructure, check_jacobi,
                              contact_to_jacobi)
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    abelian,
    annihilator,
    center,
    central_extension,
    change_basis,
    coordinates,
    direct_product,
    is_compact,
    one_cocycles,
    standard_labels,
)
from liejacobi.linalg import invert, transpose
from liejacobi.schouten import ce_differential, schouten

F = Fraction
SU2 = catalog("su2")


def glb_of(name):
    y = catalog(name)
    return GeneralizedBialgebra(y.g, build_dual_bracket(y), y.phi0, y.x0)


def catalog_bialgebras():
    """The seven catalog bialgebras: three built from Yang-Baxter data, four
    prebuilt."""
    return ([glb_of(name) for name in ("solvable3_51", "h11", "semidirect4_53")]
            + [catalog(name) for name in ("noncob4_53", "firstkind4", "secondkind4",
                                          "thirdkind_u2")])


def test_check_glb_noncob_golden():
    report = check_glb(catalog("noncob4_53"))
    assert report.passed
    assert report.phi0_cocycle.is_zero()
    assert report.x0_cocycle.is_zero()
    assert report.pairing == 0
    assert report.bracket_compat == () and report.contraction_compat == ()


def test_check_glb_perturbed_x0():
    nb = catalog("noncob4_53")
    bad = GeneralizedBialgebra(nb.g, nb.g_star, nb.phi0, nb.x0 + vec(4, 3))
    report = check_glb(bad)
    assert not report.passed
    assert report.pairing == 1                      # phi0(x0) must vanish
    assert report.x0_cocycle == mv(4, 2, {(0, 3): -1})
    assert len(report.bracket_compat) == 6
    assert len(report.contraction_compat) == 3
    assert "phi0(x0) = 1" in report.describe()
    # a base and a dual bracket that fail the Jacobi identity are each named
    assert check_glb(non_lie_glb()).describe() == (
        "generalized bialgebra fails:\n"
        "  base algebra:\n"
        "    bad: Jacobi identity fails on 1 triple(s)\n"
        "      (e1,e2,e3): residual e1\n"
        "  dual algebra:\n"
        "    bad*: Jacobi identity fails on 1 triple(s)\n"
        "      (e^1,e^2,e^3): residual e^1\n"
        "  bracket compatibility at (e1, e2): 2*e1^e2 - e1^e3\n"
        "  bracket compatibility at (e1, e3): -e1^e2")


def test_check_glb_perturbed_phi0():
    nb = catalog("noncob4_53")
    bad = GeneralizedBialgebra(nb.g, nb.g_star, Form.basis(4, 0), nb.x0)
    report = check_glb(bad)
    assert not report.passed
    assert report.phi0_cocycle == fm(4, 2, {(0, 3): 1})
    assert report.pairing == 1
    assert len(report.bracket_compat) == 4
    assert len(report.contraction_compat) == 2


def test_glb_constructor_rejections():
    nb = catalog("noncob4_53")
    with pytest.raises(ValueError):
        GeneralizedBialgebra(nb.g, SU2, nb.phi0, nb.x0)       # dim mismatch
    with pytest.raises(ValueError):
        GeneralizedBialgebra(nb.g, nb.g_star, fm(4, 2, {(0, 1): 1}), nb.x0)
    with pytest.raises(TypeError):
        GeneralizedBialgebra(nb.g, nb.g_star, nb.phi0, Form.basis(4, 0))


def argument_sites():
    """(site, call, valid keyword arguments, the element inputs as
    (argument, kind, grade, nonzero)) for each site that checks its element
    inputs by exterior._check_argument."""
    nb, y, su2 = catalog("noncob4_53"), catalog("h11"), catalog("su2")
    yb = dict(g=y.g, phi0=y.phi0, r=y.r, x0=y.x0)
    yb_inputs = [("phi0", Form, 1, False), ("r", Multivector, 2, False),
                 ("x0", Multivector, 1, False)]
    return [
        ("GeneralizedBialgebra", GeneralizedBialgebra,
         dict(g=nb.g, g_star=nb.g_star, phi0=nb.phi0, x0=nb.x0),
         [("phi0", Form, 1, False), ("x0", Multivector, 1, False)]),
        ("dual_bracket_adjoint_route", dual_bracket_adjoint_route, yb, yb_inputs),
        ("dual_bracket_pointwise_route", dual_bracket_pointwise_route, yb, yb_inputs),
        ("YbData", YbData, yb, yb_inputs),
        ("glb_from_cocycle", glb_from_cocycle, dict(g=heisenberg(1), phi=Form.basis(3, 0)),
         [("phi", Form, 1, False)]),
        ("JacobiPair", JacobiPair, dict(algebra=su2, r=mv(3, 2, {(1, 2): 1}), x0=-vec(3, 0)),
         [("r", Multivector, 2, False), ("x0", Multivector, 1, False)]),
        ("ContactStructure", ContactStructure, dict(algebra=su2, eta=-Form.basis(3, 0)),
         [("eta", Form, 1, True)]),
        ("LcsStructure", LcsStructure,
         dict(algebra=catalog("solvable2"), omega2=fm(2, 2, {(0, 1): -1}), lee=Form.zero(2, 1)),
         [("omega2", Form, 2, True), ("lee", Form, 1, False)]),
        ("central_extension", central_extension,
         dict(h=abelian(2), omega=fm(2, 2, {(0, 1): 1})), [("omega", Form, 2, False)]),
    ]


@pytest.mark.parametrize("call, valid, argument, kind, grade, nonzero", [
    pytest.param(call, valid, *element, id=f"{site}-{element[0]}")
    for site, call, valid, inputs in argument_sites() for element in inputs])
def test_element_inputs_follow_one_rule(call, valid, argument, kind, grade, nonzero):
    # the wrong kind raises TypeError; another dimension, a forbidden zero
    # and a nonzero element of another grade raise ValueError; zero of
    # another grade is accepted where zero is
    n = valid[argument].dim
    other_kind = Multivector if kind is Form else Form
    other_grade = 3 - grade
    element = lambda cls, dim, k: cls.from_terms(dim, k, {tuple(range(k)): 1})
    call(**valid)
    with pytest.raises(TypeError, match=f"^{argument} must be a "):
        call(**{**valid, argument: element(other_kind, n, grade)})
    for bad in (element(kind, n + 1, grade), element(kind, n, other_grade)):
        with pytest.raises(ValueError, match=f"^{argument} must have "):
            call(**{**valid, argument: bad})
    for zero in (kind.zero(n, grade), kind.zero(n, other_grade), kind.zero(n, 0)):
        if nonzero:
            with pytest.raises(ValueError, match=f"^{argument} must be nonzero$"):
                call(**{**valid, argument: zero})
        else:
            call(**{**valid, argument: zero})


def test_dual_bracket_solvable_golden():
    dual = build_dual_bracket(catalog("solvable3_51"))
    assert dict(dual.structure) == {(0, 2): mv(3, 1, {(2,): -1}),
                                    (1, 2): mv(3, 1, {(2,): 1})}


def test_dual_bracket_heisenberg_golden():
    dual = build_dual_bracket(catalog("h11"))
    assert dict(dual.structure) == {(0, 2): mv(3, 1, {(0,): -3}),
                                    (1, 2): mv(3, 1, {(1,): -3})}


def test_dual_bracket_semidirect_golden():
    dual = build_dual_bracket(catalog("semidirect4_53"))
    assert dict(dual.structure) == {(2, 3): mv(4, 1, {(3,): 1})}


def test_dual_bracket_heisenberg_contact_is_abelian():
    for n in (1, 2):
        h = heisenberg(n)
        jp = contact_to_jacobi(ContactStructure(h, Form.basis(2 * n + 1, 2 * n)))
        y = YbData(h, Form.zero(2 * n + 1, 1), jp.r, jp.x0)
        dual = build_dual_bracket(y)
        assert not dual.structure
        assert check_glb(GeneralizedBialgebra(h, dual, y.phi0, y.x0)).passed


def test_dual_bracket_rejects_failed_hypotheses():
    y = YbData(SU2, Form.zero(3, 1), mv(3, 2, {(0, 1): 1}), vec(3, 0))
    with pytest.raises(ValueError, match=r"\[x0,r\]"):
        build_dual_bracket(y)


def test_dual_bracket_routes_agree_on_catalog():
    for name in ("solvable3_51", "h11", "semidirect4_53"):
        y = catalog(name)
        adj = dual_bracket_adjoint_route(y.g, y.phi0, y.r, y.x0)
        pw = dual_bracket_pointwise_route(y.g, y.phi0, y.r, y.x0)
        assert adj == pw


def test_yb_hypotheses_catalog_entries_pass():
    for name in ("solvable3_51", "h11", "semidirect4_53"):
        assert check_yb_hypotheses(catalog(name)).passed


def test_reports_are_true_exactly_when_they_pass():
    assert bool(check_glb(catalog("noncob4_53"))) is True
    assert bool(check_glb(broken_noncob())) is False
    assert bool(check_yb_hypotheses(catalog("h11"))) is True
    failing = YbData(SU2, Form.zero(3, 1), mv(3, 2, {(0, 1): 1}), vec(3, 0))
    assert bool(check_yb_hypotheses(failing)) is False


def test_classification_result_describes_its_kind():
    for name, kind in (("firstkind4", "first"), ("secondkind4", "second"),
                       ("thirdkind_u2", "third")):
        assert classify_compact(catalog(name)).describe() == f"kind: {kind}"


def test_yb_hypotheses_cocycle_precondition_raises():
    y = YbData(SU2, Form.basis(3, 0), mv(3, 2, {(0, 1): 1}), Multivector.zero(3, 1))
    with pytest.raises(ValueError, match="1-cocycle"):
        check_yb_hypotheses(y)


def test_yb_hypotheses_weaker_than_jacobi():
    # invariant nonzero cubic term passes here though check_jacobi would not
    y = YbData(SU2, Form.zero(3, 1), mv(3, 2, {(0, 1): 1}), Multivector.zero(3, 1))
    report = check_yb_hypotheses(y)
    assert report.passed
    assert report.cubic == mv(3, 3, {(0, 1, 2): -2})
    assert report.x0_commutes.is_zero()
    h = catalog("h11")
    hrep = check_yb_hypotheses(h)
    assert hrep.passed
    assert hrep.cubic == mv(3, 3, {(0, 1, 2): -12})


def test_yb_hypotheses_commuting_failure():
    y = YbData(SU2, Form.zero(3, 1), mv(3, 2, {(0, 1): 1}), vec(3, 0))
    report = check_yb_hypotheses(y)
    assert not report.passed
    assert report.x0_commutes == mv(3, 2, {(0, 2): 1})
    assert "[x0,r]" in report.describe()


def test_yb_hypotheses_cubic_invariance_failure():
    # [r,r] - 2 x0^r = -2 e1^e2^e3 is moved by e4 alone; the other two
    # hypotheses hold
    report = check_yb_hypotheses(cubic_noninvariant_yb())
    assert not report.passed
    assert report.cubic == mv(4, 3, {(0, 1, 2): -2})
    assert report.cubic_invariance == ((3, mv(4, 3, {(0, 1, 2): -4})),)
    assert report.x0_commutes.is_zero() and report.vector_invariance == ()
    assert report.describe() == ("yang-baxter hypotheses fail:\n"
                                 "  [r,r]-2*x0^r not invariant at e4: -4*e1^e2^e3")


def test_zero_phi0_of_any_grade_acts_as_the_grade_one_zero():
    # YbData takes a zero phi0 of any grade, as the argument check counts
    # zero as every grade; the hypotheses and the dual bracket must then be
    # those of the grade-1 zero
    r = mv(3, 2, {(0, 1): 1})
    reference = YbData(SU2, Form.zero(3, 1), r, Multivector.zero(3, 1))
    want, dual = check_yb_hypotheses(reference), build_dual_bracket(reference)
    for grade in (0, 2):
        y = YbData(SU2, Form.zero(3, grade), r, Multivector.zero(3, 1))
        assert replace(check_yb_hypotheses(y), data=reference) == want, grade
        assert build_dual_bracket(y) == dual, grade


def test_build_from_jacobi_u2_family():
    u2 = catalog("u2")
    y = YbData(u2, Form.basis(4, 3), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0))
    result = build_from_jacobi(y)
    assert result.certificate.homomorphism
    assert result.certificate.isomorphism
    assert check_glb(result.bialgebra).passed
    assert dict(result.bialgebra.g_star.structure) == {
        (1, 2): mv(4, 1, {(3,): 1}),
        (1, 3): mv(4, 1, {(2,): -1}),
        (2, 3): mv(4, 1, {(1,): 1})}


def test_build_from_jacobi_gl2r_family():
    g = catalog("gl2r")
    y = YbData(g, Form.basis(4, 3), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0))
    result = build_from_jacobi(y)
    assert result.certificate.isomorphism
    assert check_glb(result.bialgebra).passed
    assert dict(result.bialgebra.g_star.structure) == {
        (1, 2): mv(4, 1, {(3,): 1}),
        (1, 3): mv(4, 1, {(1,): 2}),
        (2, 3): mv(4, 1, {(2,): -2})}


def test_build_from_jacobi_partial_rank_certificate():
    g = abelian(4)
    y = YbData(g, Form.basis(4, 1), mv(4, 2, {(0, 1): 1}), -vec(4, 0))
    result = build_from_jacobi(y)
    assert result.certificate.homomorphism
    assert not result.certificate.isomorphism      # rank 2 < 4


def test_build_from_jacobi_rejects_contraction_mismatch():
    # the catalog solvable entry satisfies the weak hypotheses only
    with pytest.raises(ValueError, match="i\\(phi0\\) r - x0"):
        build_from_jacobi(catalog("solvable3_51"))


def test_build_from_jacobi_rejects_non_jacobi_pair():
    y = catalog("semidirect4_53")
    with pytest.raises(ValueError, match="jacobi construction preconditions"):
        build_from_jacobi(y)
    # r = x0 = 0 is a Jacobi pair, but e^1 is no 1-cocycle of su2
    with pytest.raises(ValueError) as exc:
        build_from_jacobi(YbData(SU2, Form.basis(3, 0), Multivector.zero(3, 2),
                                 Multivector.zero(3, 1)))
    assert str(exc.value) == "jacobi construction preconditions fail:\n  phi0 is not a 1-cocycle"


def _coboundary_property(b, r):
    # d_{*x0}(x) = [x, r] - phi0(x) r for every basis vector x
    g = b.g
    for i in range(g.dim):
        x = g.basis_vector(i)
        lhs = ce_differential(b.g_star, x) + wedge(b.x0, x)
        rhs = schouten(g, x, r) - r.scale(pair(b.phi0, x))
        assert lhs == rhs


def test_solve_coboundary_empty_on_noncoboundary_example():
    sols = solve_coboundary(catalog("noncob4_53"))
    assert sols.is_empty
    assert sols.particular is None and sols.homogeneous == ()


def test_solve_coboundary_recovers_generator():
    b = glb_of("solvable3_51")
    sols = solve_coboundary(b)
    assert sols.particular == mv(3, 2, {(0, 2): -1, (1, 2): 1})
    assert sols.homogeneous == ()
    _coboundary_property(b, sols.particular)


def test_solve_coboundary_affine_set():
    b = glb_of("h11")
    sols = solve_coboundary(b)
    assert sols.particular == mv(3, 2, {(0, 1): 2})
    assert len(sols.homogeneous) == 2
    _coboundary_property(b, sols.particular)
    for h in sols.homogeneous:
        _coboundary_property(b, sols.particular + h)


@pytest.mark.parametrize("phi0, x0", [(Form.basis(1, 0), Multivector.zero(1, 1)),
                                      (Form.zero(1, 1), Multivector.basis(1, 0))])
def test_solve_coboundary_in_dimension_one(phi0, x0):
    # Lambda^2 g = 0, so r = 0 is the only candidate and it solves the system
    b = GeneralizedBialgebra(abelian(1), abelian(1), phi0, x0)
    assert check_glb(b).passed
    sols = solve_coboundary(b)
    assert not sols.is_empty and sols.particular.is_zero()
    assert sols.homogeneous == ()


def test_solve_coboundary_requires_valid_input():
    nb = catalog("noncob4_53")
    bad = GeneralizedBialgebra(nb.g, nb.g_star, Form.basis(4, 0), nb.x0)
    with pytest.raises(ValueError):
        solve_coboundary(bad)


def test_coboundary_system_matches_schouten_route():
    # every catalog bialgebra, then seeded quadruples on algebras with mixed
    # denominators, Lie or not, with random phi0 and x0
    cases = catalog_bialgebras()
    assert any(b.g.structure and not b.phi0.is_zero() for b in cases)
    width = lambda b: b.g.dim * (b.g.dim - 1) // 2
    for b in cases:
        report, d_basis = _check_glb(b)
        assert report.passed
        system = rational_system(*_coboundary_system(b, d_basis), width(b))
        assert system == coboundary_system_reference(b)
    for b in seeded_quadruples(random.Random(71)):
        system = rational_system(*_coboundary_system(b, _check_glb(b)[1]), width(b))
        assert system == coboundary_system_reference(b)


def _dense_coboundary_solutions(b):
    """solve_coboundary by the dense route: linalg.solve on the Fraction
    system of coboundary_system_reference, which the reference elimination
    confirms, mapped to 2-vectors."""
    n = b.g.dim
    pairs = list(combinations(range(n), 2))
    system = coboundary_system_reference(b)
    solution = linalg.solve(*system)
    assert solution == solve_reference(*system)
    if solution is None:
        return CoboundarySolutions(None, ())
    to_bivector = lambda coeffs: mv(n, 2, dict(zip(pairs, coeffs)))
    particular, homogeneous = solution
    return CoboundarySolutions(to_bivector(particular), tuple(map(to_bivector, homogeneous)))


def test_solve_coboundary_matches_dense_route():
    # the non-degenerate third-kind series su2^k x R^2 (triple in the first
    # su2, e4 the first R direction), dim 5 to 14, and the catalog bialgebras
    g = SU2
    for k in range(1, 5):
        base = direct_product(g, abelian(2))
        n = base.dim
        for lambdas in ((1, 0, 0), (1, -2, 3)):
            b = build_third_kind(base, vec(n, 0), vec(n, 1), vec(n, 2), vec(n, 3 * k), lambdas)
            sols = solve_coboundary(b)
            assert sols == _dense_coboundary_solutions(b)
            assert sols.particular == third_kind_pair(vec(n, 0), vec(n, 1), vec(n, 2),
                                                      vec(n, 3 * k), lambdas)[0]
        g = direct_product(g, SU2)
    outcomes = []
    for b in catalog_bialgebras():
        sols = solve_coboundary(b)
        assert sols == _dense_coboundary_solutions(b)
        outcomes.append(sols.is_empty)
    assert outcomes == [False, False, False, True, False, False, False]   # noncob4_53


def test_bracket_compat_matches_per_pair_route():
    # check_glb sums d_{*X0} over the structure constants and twists the
    # bracket inline; the reference applies d_{*X0} to each bracket and calls
    # twisted_schouten, which needs a 1-cocycle phi0
    cases = catalog_bialgebras() + [broken_noncob()]
    cases += seeded_quadruples(random.Random(72), cocycle_phi0=True)
    assert sum(bool(check_glb(b).bracket_compat) for b in cases) >= 5
    assert any(b.g.structure and not b.phi0.is_zero() and check_glb(b).bracket_compat
               for b in cases)
    for b in cases:
        assert check_glb(b).bracket_compat == bracket_compat_reference(b), b.g.name


def test_bracket_compat_with_a_non_cocycle_phi0_matches_plain_route():
    # a phi0 that is not a 1-cocycle is reported as a residual, not refused:
    # the reference twists the plain bracket, [e_i, P] - phi0(e_i) P
    nb = catalog("noncob4_53")
    cases = [GeneralizedBialgebra(nb.g, nb.g_star, Form.basis(4, 0), nb.x0)]
    cases += [b for b in seeded_quadruples(random.Random(75))
              if not ce_differential_reference(b.g, b.phi0).is_zero()]
    assert len(cases) >= 9
    assert all(check_glb(b).bracket_compat for b in cases)
    for b in cases:
        assert check_glb(b).bracket_compat == bracket_compat_plain_reference(b), b.g.name



def test_bracket_compat_on_seeded_brackets_matches_both_references():
    # every seeded bracket at dims 0-14 as g, mostly not Lie, so the inputs
    # are mostly not generalized bialgebras; g* is the sparse seeded bracket
    # of the same dimension (the reference's d_* loops over every subset, so
    # a dense g* would cost it seconds per case), and up to dim 8 also the
    # dense one.  A 1-cocycle phi0 of g is compared with
    # bracket_compat_reference, and a seeded phi0, a 1-cocycle or not, with
    # the plain route
    rng = random.Random(2045)
    algebras = seeded_brackets()
    nonzero = non_cocycle = 0
    for g in algebras:
        n = g.dim
        duals = [h for h in algebras if h.dim == n and h.name.startswith(
            ("sparse", "dense") if n <= 8 else "sparse")]
        vector = lambda cls: random_element(rng, cls, n, 1, terms=3)    # noqa: E731
        cocycle = Form.zero(n, min(1, n))
        for row in one_cocycles(g).rows:
            cocycle = cocycle + Form.from_coeffs(row).scale(mixed_fraction(rng))
        for g_star in duals:
            x0 = vector(Multivector) if n else Multivector.zero(0, 0)
            phi0 = vector(Form) if n else Form.zero(0, 0)
            b = GeneralizedBialgebra(g, g_star, cocycle, x0)
            got = check_glb(b).bracket_compat
            assert got == bracket_compat_reference(b), (g.name, g_star.name)
            b = GeneralizedBialgebra(g, g_star, phi0, x0)
            got = check_glb(b).bracket_compat
            assert got == bracket_compat_plain_reference(b), (g.name, g_star.name)
            nonzero += bool(got)
            non_cocycle += not ce_differential(g, phi0).is_zero()
    assert nonzero > 60 and non_cocycle > 60


def test_twisted_ad_matches_schouten_route():
    # _twisted_ad adds sign * e_i.P over den * dphi * (P's denominator) to
    # an accumulator, e_i.P = [e_i, P] - phi0(e_i) P, here through schouten:
    # on each basis 2-vector into an empty one, and on a seeded P with both
    # signs into one that already holds a seeded 2-vector; phi0 a 1-cocycle
    # of g or not
    cases = catalog_bialgebras() + [broken_noncob(),
                                    glb_from_cocycle(heisenberg(2), Form.basis(5, 0))]
    cases += seeded_quadruples(random.Random(76), cocycle_phi0=True)
    cases += seeded_quadruples(random.Random(77))
    assert any(b.phi0._ints()[1] > 1 for b in cases)
    assert any(not ce_differential_reference(b.g, b.phi0).is_zero() for b in cases)
    rng = random.Random(79)
    skipped = 0
    for b in cases:
        g, n = b.g, b.g.dim
        phi, dphi = b.phi0._ints()
        phi = [phi.get((i,), 0) for i in range(n)]
        scale = g._ad[0] * dphi
        as_bivector = lambda acc, den: Multivector.from_terms(     # noqa: E731
            n, 2, {pq: Fraction(v, den) for pq, v in acc.items()})
        for i in range(n):
            x = g.basis_vector(i)
            action = lambda p: schouten(g, x, p) - p.scale(pair(b.phi0, x))    # noqa: E731
            for ac in combinations(range(n), 2):
                image = _twisted_ad(g, phi, dphi, i, {ac: 1}, {})
                assert all(a < c for a, c in image)
                assert as_bivector(image, scale) == action(mv(n, 2, {ac: 1})), (g.name, i, ac)
                if not g._ad[1][i] and not phi[i]:
                    assert image == {}
            skipped += not g._ad[1][i] and not phi[i]
            if n < 2:
                continue
            p, q = (random_element(rng, Multivector, n, 2, terms=3) for _ in range(2))
            (nums, den), (qnums, qden) = p._ints(), q._ints()
            terms = {pq: v * qden for pq, v in nums.items()}      # P over den * qden
            for sign in (1, -1):
                start = {pq: v * scale * den for pq, v in qnums.items()}
                acc = _twisted_ad(g, phi, dphi, i, terms, start, sign)
                assert as_bivector(acc, scale * den * qden) == (
                    q + action(p).scale(sign)), (g.name, i, sign)
    assert skipped >= 5


def test_solve_coboundary_contains_the_extracted_r():
    # bases with phi0 != 0, all but firstkind4's and secondkind4's
    # non-abelian: the r that extraction recovers solves d_{*X0}(e_i) = e_i.r
    rng = random.Random(78)
    g = direct_product(SU2, abelian(2), name="su2xR2")
    cases = [build_third_kind(g, vec(5, 0), vec(5, 1), vec(5, 2), vec(5, 3),
                              [mixed_fraction(rng) or 1 for _ in range(3)]) for _ in range(3)]
    cases.append(build_second_kind(g, vec(5, 0), vec(5, 3), F(2, 3), F(-5, 7), 0))
    cases += [catalog(name) for name in ("firstkind4", "secondkind4", "thirdkind_u2")]
    assert sum(bool(b.g.structure) for b in cases) == 5
    for b in cases:
        assert not b.phi0.is_zero()
        r = classify_compact(b).extraction.pair.r
        sols = solve_coboundary(b)
        assert not sols.is_empty
        pairs = list(combinations(range(b.g.dim), 2))
        offset = [(r - sols.particular).coefficient(t) for t in pairs]
        assert coordinates([[h.coefficient(t) for t in pairs] for h in sols.homogeneous],
                           offset) is not None


def test_contraction_compat_matches_reference():
    cases = catalog_bialgebras() + [broken_noncob()]
    cases += seeded_quadruples(random.Random(76)) + seeded_quadruples(random.Random(77), True)
    assert sum(bool(check_glb(b).contraction_compat) for b in cases) >= 10
    for b in cases:
        assert check_glb(b).contraction_compat == contraction_compat_reference(b), b.g.name


def test_check_glb_kept_sums_match_sums_taken_afresh():
    # the integer sums of check_glb are kept per bialgebra object: a warm
    # object, a cold copy and the reference, which sums everything afresh on
    # each call, give == reports, failing ones included, and == d_basis
    cases = catalog_bialgebras() + [broken_noncob()] + seeded_quadruples(random.Random(78))
    assert sum(not check_glb(b).passed for b in cases) >= 10
    for b in cases:
        assert "_compat" in vars(b)
        cold = replace(b)
        assert "_compat" not in vars(cold)
        assert _check_glb(b) == _check_glb(cold) == check_glb_reference(b), b.g.name


def test_check_glb_makes_its_elements_afresh_on_every_call():
    # two reports of one object share no integer form, with each other or
    # with the kept sums, so no caller can reach the cache through one
    for b in [broken_noncob(), *seeded_quadruples(random.Random(79))]:
        runs = [_check_glb(b) for _ in range(2)]
        forms = [[e._ints()[0] for e in (*d_basis,
                                          *(res for _, res in report.bracket_compat),
                                          *(res for _, res in report.contraction_compat))]
                 for report, d_basis in runs]
        assert forms[0] == forms[1] and forms[0], b.g.name
        kept = [acc for acc, _ in b._compat[0]]
        kept += [entry[1] for entry in (*b._compat[1], *b._compat[2])]
        ids = [{id(nums) for nums in run} for run in forms]
        assert not ids[0] & ids[1] and not (ids[0] | ids[1]) & set(map(id, kept)), b.g.name


def test_pickled_bialgebra_carries_no_cache():
    for b in catalog_bialgebras() + [broken_noncob()]:
        check_glb(b)
        copied = pickle.loads(pickle.dumps(b))
        assert copied == b and "_compat" not in vars(copied)
        assert check_glb(copied) == check_glb(b)


def test_builders_return_the_quadruple_they_checked():
    # build_from_jacobi hands back the object _assemble_dual checked, so a
    # classification of it finds the glb sums already kept
    y = YbData(catalog("u2"), Form.basis(4, 3), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0))
    built = build_from_jacobi(y).bialgebra
    assert "_compat" in vars(built)
    assert build_dual_bracket(y) == built.g_star
    assert built == GeneralizedBialgebra(y.g, built.g_star, y.phi0, y.x0)


def test_dual_bracket_adjoint_route_matches_reference():
    # the library's coad_x alpha = i(x) d alpha against one bracket and one
    # pairing per basis vector, on the Yang-Baxter catalog data and on seeded
    # mixed-denominator 2-vectors r over every quadruple
    rng = random.Random(73)
    cases = [(y.g, y.phi0, y.r, y.x0)
             for y in map(catalog, ("solvable3_51", "h11", "semidirect4_53"))]
    for b in catalog_bialgebras() + [broken_noncob()] + seeded_quadruples(rng):
        r = random_element(rng, Multivector, b.g.dim, 2, terms=3, bound=7)
        cases.append((b.g, b.phi0, r, b.x0))
    for g, phi0, r, x0 in cases:
        assert (dual_bracket_adjoint_route(g, phi0, r, x0)
                == dual_bracket_adjoint_reference(g, phi0, r, x0)), g.name


def dual_route_cases(rng):
    """(g, phi0, r, x0) on the Yang-Baxter catalog data and on seeded
    mixed-denominator 2-vectors r over every quadruple, each also with r = 0,
    x0 = 0 and phi0 = 0."""
    cases = [(y.g, y.phi0, y.r, y.x0)
             for y in map(catalog, ("solvable3_51", "h11", "semidirect4_53"))]
    for b in catalog_bialgebras() + [broken_noncob()] + seeded_quadruples(rng):
        r = random_element(rng, Multivector, b.g.dim, 2, terms=3, bound=7)
        cases.append((b.g, b.phi0, r, b.x0))
    out = []
    for g, phi0, r, x0 in cases:
        n = g.dim
        out += [(g, phi0, r, x0), (g, phi0, Multivector.zero(n, 2), x0),
                (g, phi0, r, Multivector.zero(n, 1)), (g, Form.zero(n, 1), r, x0)]
    return out


def test_dual_bracket_routes_match_both_references():
    # the integer kernel and the once-per-k pointwise route against the
    # per-pair coadjoint route and the per-(i, j, k) pointwise route
    cases = dual_route_cases(random.Random(78))
    assert sum(bool(dual_bracket_adjoint_reference(*case)) for case in cases) >= 40
    for g, phi0, r, x0 in cases:
        expected = dual_bracket_adjoint_reference(g, phi0, r, x0)
        assert dual_bracket_pointwise_reference(g, phi0, r, x0) == expected, g.name
        assert dual_bracket_adjoint_route(g, phi0, r, x0) == expected, g.name
        assert dual_bracket_pointwise_route(g, phi0, r, x0) == expected, g.name


def test_dual_bracket_routes_refuse_malformed_arguments():
    y = catalog("solvable3_51")
    bad = [(y.phi0, mv(4, 2, {(0, 1): 1}), y.x0),      # r of another dimension
           (y.phi0, vec(3, 0), y.x0),                   # r of grade 1
           (y.phi0, y.r, mv(3, 2, {(0, 1): 1})),        # x0 of grade 2
           (Form.basis(4, 0), y.r, y.x0)]               # phi0 of another dimension
    for route in (dual_bracket_adjoint_route, dual_bracket_pointwise_route):
        for phi0, r, x0 in bad:
            with pytest.raises(ValueError):
                route(y.g, phi0, r, x0)


def test_pointwise_route_calls_schouten_once_per_basis_vector(monkeypatch):
    calls = []

    def counting(g, p, q):
        calls.append(p)
        return schouten(g, p, q)

    monkeypatch.setattr(bialgebra, "schouten", counting)
    rng = random.Random(79)
    g = direct_product(SU2, abelian(2), name="su2xR2")
    r = random_element(rng, Multivector, 5, 2, terms=4, bound=7)
    phi0, x0 = Form.basis(5, 3), -vec(5, 0)
    structure = dual_bracket_pointwise_route(g, phi0, r, x0)
    assert len(calls) == g.dim
    assert structure == dual_bracket_pointwise_reference(g, phi0, r, x0)


def sharp_certificate_holds(g, dual, r):
    try:
        _check_sharp_homomorphism(g, dual, r)
    except ValueError as exc:
        assert str(exc) == "sharp map is not a homomorphism; construction is inconsistent"
        return False
    return True


def test_sharp_certificate_matches_reference():
    # duals that pass (the Jacobi families and the extracted compact pairs),
    # each with one structure constant doubled and with a random r
    rng = random.Random(80)
    triples = []
    for g, r, x0 in ((catalog("u2"), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0)),
                     (catalog("gl2r"), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0)),
                     (abelian(4), mv(4, 2, {(0, 1): 1}), -vec(4, 0))):
        phi0 = Form.basis(4, 3) if g.structure else Form.basis(4, 1)
        triples.append((g, build_from_jacobi(YbData(g, phi0, r, x0)).bialgebra.g_star, r))
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        triples.append((b.g, b.g_star, extract_jacobi(b, unit_center_vector(b.g, b.phi0)).pair.r))
    cases = []
    for g, dual, r in triples:
        cases.append((g, dual, r))
        for key, value in dual.structure.items():
            structure = dict(dual.structure)
            structure[key] = value.scale(2)
            cases.append((g, LieAlgebra(dual.name, dual.dim, dual.basis_labels, structure), r))
        cases.append((g, dual, random_element(rng, Multivector, g.dim, 2, terms=3, bound=7)))
    verdicts = [sharp_homomorphism_reference(*case) for case in cases]
    assert sum(verdicts) >= 6 and verdicts.count(False) >= 10
    for case, verdict in zip(cases, verdicts):
        assert sharp_certificate_holds(*case) == verdict, case[0].name


def test_build_from_jacobi_refuses_a_wrong_dual(monkeypatch):
    # a dual that fails the certificate, handed over as if built
    y = YbData(catalog("u2"), Form.basis(4, 3), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0))
    dual = build_dual_bracket(y)
    structure = dict(dual.structure)
    structure[(1, 2)] = structure[(1, 2)].scale(2)
    wrong = LieAlgebra(dual.name, dual.dim, dual.basis_labels, structure)
    monkeypatch.setattr(bialgebra, "_assemble_dual",
                        lambda _: GeneralizedBialgebra(y.g, wrong, y.phi0, y.x0))
    with pytest.raises(ValueError, match="^sharp map is not a homomorphism; "
                                         "construction is inconsistent$"):
        build_from_jacobi(y)


def test_yb_hypotheses_are_checked_by_build_dual_bracket_only(monkeypatch):
    # build_from_jacobi's preconditions imply the hypotheses, so it skips them
    calls = []
    check = bialgebra.check_yb_hypotheses
    monkeypatch.setattr(bialgebra, "check_yb_hypotheses", lambda y: calls.append(y) or check(y))
    y = YbData(catalog("u2"), Form.basis(4, 3), mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0))
    result = build_from_jacobi(y)
    assert calls == []
    assert build_dual_bracket(y) == result.bialgebra.g_star
    assert calls == [y]


def jacobi_yb_data():
    """YbData that meet build_from_jacobi's preconditions: the u2, gl2r and
    abelian(4) Jacobi families at seeded scales, the pairs extracted from the
    catalog's compact bialgebras, and seeded second- and third-kind data on
    su2 x R^2."""
    rng = random.Random(83)
    nonzero = lambda: mixed_fraction(rng) or F(1)
    data = []
    for g in (catalog("u2"), catalog("gl2r"), abelian(4)):
        phi0 = Form.basis(4, 3) if g.structure else Form.basis(4, 1)
        r = mv(4, 2, {(1, 2): 1, (0, 3): 1}) if g.structure else mv(4, 2, {(0, 1): 1})
        for c in (F(1), nonzero(), nonzero()):
            data.append(YbData(g, phi0, r.scale(c), -vec(4, 0).scale(c)))
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        data.append(YbData(b.g, b.phi0, extract_jacobi(b, unit_center_vector(b.g, b.phi0)).pair.r,
                           b.x0))
    g = direct_product(SU2, abelian(2))
    e = [g.basis_vector(i) for i in range(5)]
    for _ in range(4):
        # e1 and e2 commute; phi0 takes the values that i(phi0) r = x0 forces
        c1, c2 = (e[3].scale(nonzero()) + e[4].scale(nonzero()) for _ in range(2))
        e1, e2 = e[rng.randrange(3)].scale(nonzero()) + c1, c2
        lam, lam1, lam2 = nonzero(), mixed_fraction(rng), mixed_fraction(rng)
        try:
            phi0 = bialgebra._solve_cocycle_with_values(
                g, [(e1.coeffs(), lam2 / lam), (e2.coeffs(), -lam1 / lam)])
        except ValueError:
            continue     # c1 and c2 dependent
        data.append(YbData(g, phi0, wedge(e1, e2).scale(lam), e1.scale(lam1) + e2.scale(lam2)))
        e4 = e[3].scale(nonzero()) + e[4].scale(mixed_fraction(rng))
        r, x0 = third_kind_pair(e[0], e[1], e[2], e4, [mixed_fraction(rng) for _ in range(3)])
        phi0 = bialgebra._solve_cocycle_with_values(
            g, [(v.coeffs(), value) for v, value in zip((e[0], e[1], e[2], e4), (0, 0, 0, 1))])
        data.append(YbData(g, phi0, r, x0))
    return data


def test_jacobi_preconditions_imply_the_yb_hypotheses():
    data = jacobi_yb_data()
    for y in data:
        assert check_jacobi(JacobiPair(y.g, y.r, y.x0)).passed
        assert contract(y.phi0, y.r) == y.x0
        assert ce_differential(y.g, y.phi0).is_zero()
        assert check_yb_hypotheses(y).passed, y
    assert len(data) >= 18 and sum(y.g.dim == 5 for y in data) >= 6


def test_sharp_certificate_isomorphism_is_full_even_rank():
    # an isomorphism exactly when the pair's characteristic subspace is all
    # of an even-dimensional g
    flags = []
    for y in jacobi_yb_data():
        n = y.g.dim
        flags.append(n % 2 == 0 and jacobi.rank(JacobiPair(y.g, y.r, y.x0)) == n)
        assert build_from_jacobi(y).certificate == SharpCertificate(True, flags[-1])
    assert any(flags) and not all(flags)


def test_extraction_checks_the_jacobi_pair_once(monkeypatch):
    calls = []

    def counting(jp):
        calls.append(jp)
        return check_jacobi(jp)

    monkeypatch.setattr(bialgebra, "check_jacobi", counting)
    monkeypatch.setattr(jacobi, "check_jacobi", counting)
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        calls.clear()
        extract_jacobi(b, unit_center_vector(b.g, b.phi0))
        assert len(calls) == 1, name


def test_check_glb_is_covariant_under_change_basis():
    # each residual is a tensor: bracket compatibility is bilinear in the pair
    # (e_i, e_j), contraction compatibility linear in e_i, both with vector
    # values, so the moved residuals are the transformed ones
    rng = random.Random(74)
    nb = catalog("noncob4_53")
    cases = catalog_bialgebras() + [
        broken_noncob(),
        GeneralizedBialgebra(nb.g, nb.g_star, nb.phi0, nb.x0 + vec(4, 3)),
        GeneralizedBialgebra(nb.g, nb.g_star, Form.basis(4, 0), nb.x0)]
    failing = 0
    for b in cases:
        n = b.g.dim
        p = random_basis(rng, n)
        p_inv = invert(p)
        # the quadruple in the basis given by the columns of P: g via P, g*
        # via P^-T, phi0 pulled back by P^T and x0 pushed by P^-1
        report = check_glb(b)
        moved = check_glb(GeneralizedBialgebra(
            change_basis(b.g, p), change_basis(b.g_star, transpose(p_inv)),
            induced(transpose(p), b.phi0), induced(p_inv, b.x0)))
        assert moved.passed == report.passed
        failing += not report.passed
        assert moved.phi0_cocycle == induced(transpose(p), report.phi0_cocycle)
        assert moved.x0_cocycle == induced(p_inv, report.x0_cocycle)
        assert moved.pairing == report.pairing
        old = dict(report.bracket_compat)
        expected = []
        for i in range(n):
            for j in range(i + 1, n):
                value = Multivector.zero(n, 2)
                for (a, c), res in old.items():
                    value = value + res.scale(p[a][i] * p[c][j] - p[c][i] * p[a][j])
                value = induced(p_inv, value)
                if not value.is_zero():
                    expected.append(((i, j), value))
        assert moved.bracket_compat == tuple(expected)
        old = dict(report.contraction_compat)
        expected = []
        for i in range(n):
            value = Multivector.zero(n, 1)
            for a, res in old.items():
                value = value + res.scale(p[a][i])
            value = induced(p_inv, value)
            if not value.is_zero():
                expected.append((i, value))
        assert moved.contraction_compat == tuple(expected)
    assert failing == 3


def test_glb_from_cocycle_golden():
    b = glb_from_cocycle(heisenberg(1), Form.basis(3, 0))
    assert not b.g.structure                       # abelian base
    assert b.phi0.is_zero()
    assert b.x0 == vec(3, 0)
    assert dict(b.g_star.structure) == {(0, 1): mv(3, 1, {(2,): 1})}
    assert check_glb(b).passed
    assert classify_compact(b).kind == "phi0-zero-semidirect"


def test_glb_from_cocycle_rejects_noncocycle():
    with pytest.raises(ValueError, match="1-cocycle"):
        glb_from_cocycle(SU2, Form.basis(3, 0))


def test_catalog_glb_entries_pass_and_classify():
    for name, kind in (("firstkind4", "first"), ("secondkind4", "second"),
                       ("thirdkind_u2", "third"), ("noncob4_53", None)):
        b = catalog(name)
        assert check_glb(b).passed
        if kind is not None:
            result = classify_compact(b)
            assert result.kind == kind
            if kind == "third":
                # the classifier does not test h again: h inherits compactness from g
                assert is_compact(result.certificate.characteristic.algebra).compact


def test_build_first_kind_and_classify():
    cases = []
    g4 = abelian(4)
    cases.append((g4, [vec(4, 0), vec(4, 1)], mv(4, 2, {(0, 1): 1}),
                  Form.basis(4, 2)))
    g6 = abelian(6)
    cases.append((g6, [vec(6, i) for i in range(4)],
                  mv(6, 2, {(0, 1): 1, (2, 3): 1}), Form.basis(6, 5)))
    gm = direct_product(SU2, abelian(2))
    cases.append((gm, [vec(5, 0), vec(5, 3)], mv(5, 2, {(0, 3): 1}),
                  Form.basis(5, 4)))
    for g, vectors, r, phi0 in cases:
        b = build_first_kind(g, Subspace.from_elements(vectors), r, phi0)
        assert check_glb(b).passed
        result = classify_compact(b)
        assert result.kind == "first"
        assert result.extraction.pair.r == r
        assert result.extraction.pair.x0.is_zero()
        assert result.certificate.abelian and result.certificate.nondegenerate
        assert result.certificate.characteristic.algebra.dim == len(vectors)


def test_build_first_kind_failure_modes():
    with pytest.raises(ValueError, match="not of compact type"):
        build_first_kind(catalog("sl2r"), Subspace.from_elements([vec(3, 1)]),
                         Multivector.zero(3, 2), Form.basis(3, 0))
    with pytest.raises(ValueError, match="even-dimensional"):
        build_first_kind(abelian(3), Subspace.from_elements([vec(3, 0)]),
                         Multivector.zero(3, 2), Form.basis(3, 2))
    with pytest.raises(ValueError, match="not abelian"):
        build_first_kind(SU2, Subspace.from_elements([vec(3, 0), vec(3, 1)]),
                         mv(3, 2, {(0, 1): 1}), Form.basis(3, 2))
    with pytest.raises(ValueError, match="degenerate"):
        build_first_kind(abelian(4),
                         Subspace.from_elements([vec(4, 0), vec(4, 1)]),
                         Multivector.zero(4, 2), Form.basis(4, 3))
    with pytest.raises(ValueError, match="vanish on h"):
        build_first_kind(abelian(4),
                         Subspace.from_elements([vec(4, 0), vec(4, 1)]),
                         mv(4, 2, {(0, 1): 1}), Form.basis(4, 0))
    with pytest.raises(ValueError, match="phi0 must be nonzero"):
        build_first_kind(abelian(4),
                         Subspace.from_elements([vec(4, 0), vec(4, 1)]),
                         mv(4, 2, {(0, 1): 1}), Form.zero(4, 1))
    with pytest.raises(ValueError) as exc:
        build_first_kind(abelian(4), Subspace.from_elements([vec(4, 0), vec(4, 1)]),
                         mv(4, 2, {(0, 2): 1}), Form.basis(4, 3))
    assert str(exc.value) == ("first-kind hypotheses fail:\n"
                              "  r does not lie in the second exterior power of h")
    with pytest.raises(ValueError) as exc:
        build_first_kind(abelian(6), Subspace.from_elements([vec(6, i) for i in range(4)]),
                         mv(6, 2, {(0, 1): 1}), Form.basis(6, 5))
    assert str(exc.value) == "first-kind hypotheses fail:\n  r is degenerate on h"


def test_build_second_kind_and_classify():
    cases = [(abelian(4), vec(4, 0), vec(4, 1)),
             (direct_product(SU2, abelian(1)), vec(4, 0), vec(4, 3)),
             (direct_product(SU2, abelian(2)), vec(5, 3), vec(5, 4))]
    for g, e1, e2 in cases:
        b = build_second_kind(g, e1, e2, 1, 1, 0)
        assert check_glb(b).passed
        assert b.x0 == e1
        result = classify_compact(b)
        assert result.kind == "second"
        cert = result.certificate
        assert (cert.lam, cert.lam1, cert.lam2) == (1, 1, 0)
        cols = [list(col) for col in zip(*cert.characteristic.inclusion.rows)]
        ambient1 = Multivector.from_coeffs(cols[0])
        ambient2 = Multivector.from_coeffs(cols[1])
        rebuilt_r = wedge(ambient1, ambient2).scale(cert.lam)
        rebuilt_x0 = ambient1.scale(cert.lam1) + ambient2.scale(cert.lam2)
        assert rebuilt_r == result.extraction.pair.r
        assert rebuilt_x0 == result.extraction.pair.x0


def test_build_second_kind_failure_modes():
    g = direct_product(SU2, abelian(1))
    with pytest.raises(ValueError, match="lam must be nonzero"):
        build_second_kind(abelian(4), vec(4, 0), vec(4, 1), 0, 1, 0)
    with pytest.raises(ValueError, match="must commute"):
        build_second_kind(g, vec(4, 0), vec(4, 1), 1, 1, 0)
    with pytest.raises(ValueError, match="linearly independent"):
        build_second_kind(abelian(4), vec(4, 0), vec(4, 0).scale(F(2)), 1, 1, 0)
    with pytest.raises(ValueError, match="not of compact type"):
        build_second_kind(heisenberg(1), vec(3, 0), vec(3, 2), 1, 1, 0)


def test_third_kind_pair_formula():
    e1, e2, e3, e4 = (vec(4, i) for i in range(4))
    r, x0 = third_kind_pair(e1, e2, e3, e4, (1, -2, 3))
    assert r == mv(4, 2, {(1, 2): 1, (0, 3): 1,
                          (0, 2): 2, (1, 3): -2,
                          (0, 1): 3, (2, 3): 3})
    assert x0 == mv(4, 1, {(0,): -1, (1,): 2, (2,): -3})


def test_build_third_kind_and_classify():
    bases = [direct_product(SU2, abelian(k), name=f"su2xR{k}") for k in (1, 2, 3)]
    for g in bases:
        n = g.dim
        b = build_third_kind(g, vec(n, 0), vec(n, 1), vec(n, 2), vec(n, 3),
                             (1, 0, 0))
        assert check_glb(b).passed
        result = classify_compact(b)
        assert result.kind == "third"
        cert = result.certificate
        rebuilt_r, rebuilt_x0 = third_kind_pair(*cert.triple, cert.e4,
                                                cert.lambdas)
        assert rebuilt_r == result.extraction.pair.r
        assert rebuilt_x0 == result.extraction.pair.x0
        assert result.extraction.characteristic.algebra.dim == 4
        assert is_compact(result.extraction.characteristic.algebra).compact


def test_build_third_kind_mixed_lambdas_roundtrip():
    g = direct_product(SU2, abelian(1))
    b = build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 2), vec(4, 3),
                         (1, -2, 3))
    result = classify_compact(b)
    cert = result.certificate
    assert cert.lambdas == (-1, 2, 3)
    assert [v.render(g.basis_labels) for v in cert.triple] == ["-e1", "-e2", "e3"]
    assert is_compact(cert.characteristic.algebra).compact
    rebuilt_r, rebuilt_x0 = third_kind_pair(*cert.triple, cert.e4, cert.lambdas)
    assert rebuilt_r == result.extraction.pair.r
    assert rebuilt_x0 == result.extraction.pair.x0


def rebuilt_from_certificate(b):
    """classify_compact's kind and the builder of that kind called on the
    certificate alone (plus phi0 for the first kind, whose builder takes it)."""
    result = classify_compact(b)
    cert, g = result.certificate, b.g
    if result.kind == "first":
        incl = cert.characteristic.inclusion
        span = Subspace.from_elements([incl.apply_element(vec(incl.domain_dim, i))
                                       for i in range(incl.domain_dim)])
        return result.kind, build_first_kind(g, span, result.extraction.pair.r, b.phi0)
    if result.kind == "second":
        incl = cert.characteristic.inclusion
        return result.kind, build_second_kind(g, incl.apply_element(vec(2, 0)),
                                              incl.apply_element(vec(2, 1)),
                                              cert.lam, cert.lam1, cert.lam2)
    assert result.kind == "third"
    assert is_compact(cert.characteristic.algebra).compact
    return result.kind, build_third_kind(g, *cert.triple, cert.e4, cert.lambdas)


def test_each_certificate_rebuilds_its_input():
    rng = random.Random(2020)
    cases = [(kind, catalog(name)) for kind, name in
             (("first", "firstkind4"), ("second", "secondkind4"), ("third", "thirdkind_u2"))]
    cases += compact_kind_bialgebras(rng, 30)
    cases += [("third", third_kind_series(k, lambdas))
              for k in (1, 2, 3) for lambdas in ((1, 0, 0), (1, -2, 3))]
    for kind, b in cases:
        assert rebuilt_from_certificate(b) == (kind, b)

    # the same builds in seeded dense bases of determinant 1; a third-kind
    # case may instead fail the bounded triple search (ROADMAP item 1), and
    # which ones do is recorded, not avoided
    dense = compact_kind_bialgebras(rng, 45, radius=1) + compact_kind_bialgebras(rng, 45, radius=2)
    dense += [("third", third_kind_series(k, (1, -2, 3), rng, radius))
              for k in (1, 2) for radius in (1, 2) for _ in range(3)]
    missed = []
    for i, (kind, b) in enumerate(dense):
        try:
            assert rebuilt_from_certificate(b) == (kind, b), i
        except ValueError as exc:
            assert kind == "third"
            assert str(exc) == ("no rational standard triple found in dense.char.red "
                                "(searched small integer combinations)")
            missed.append(i)
    # 14 of the 42 third-kind cases: 2/15 and 7/15 on su2 x R^2 at radius 1
    # and 2, then 0/3, 2/3, 1/3 and 3/3 on the su2^k x R^2 series
    assert missed == [2, 38, 50, 56, 62, 68, 83, 86, 89, 93, 95, 96, 99, 101]


def test_third_kind_certificate_fixes_phi0_on_h_only():
    # a third kind bialgebra on su2 x R^2 moved wholesale into a dense
    # unimodular basis (phi0 pulled back by P^T, not solved again): the
    # center of g is larger than that of the characteristic algebra h, so
    # build_third_kind on the certificate gives back (r, x0) and phi0 on h,
    # but another phi0 and g*
    g = direct_product(SU2, abelian(2), name="su2xR2")
    b = build_third_kind(g, vec(5, 0), vec(5, 1), vec(5, 2), vec(5, 3), (1, -2, 3))
    p = unimodular_basis(random.Random(1), 5, 1)
    p_inv = invert(p)
    moved = GeneralizedBialgebra(change_basis(b.g, p, name="dense"),
                                 change_basis(b.g_star, transpose(p_inv)),
                                 induced(transpose(p), b.phi0), induced(p_inv, b.x0))
    result = classify_compact(moved)
    cert = result.certificate
    assert is_compact(cert.characteristic.algebra).compact
    rebuilt = build_third_kind(moved.g, *cert.triple, cert.e4, cert.lambdas)
    pair_of = lambda res: (res.extraction.pair.r, res.extraction.pair.x0)
    assert pair_of(classify_compact(rebuilt)) == pair_of(result)
    assert rebuilt.g == moved.g and rebuilt.x0 == moved.x0
    incl = cert.characteristic.inclusion
    h = [incl.apply_element(vec(incl.domain_dim, j)) for j in range(incl.domain_dim)]
    assert len(h) == 4
    assert [pair(rebuilt.phi0, v) for v in h] == [pair(moved.phi0, v) for v in h]
    assert rebuilt.phi0 != moved.phi0
    assert dict(rebuilt.g_star.structure) != dict(moved.g_star.structure)


def test_build_third_kind_failure_modes():
    g = direct_product(SU2, abelian(1))
    with pytest.raises(ValueError, match="does not close the triple"):
        build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 1), vec(4, 3), (1, 0, 0))
    with pytest.raises(ValueError, match="linearly independent"):
        build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 2),
                         vec(4, 0) + vec(4, 1), (1, 0, 0))
    with pytest.raises(ValueError, match="not all vanish"):
        build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 2), vec(4, 3), (0, 0, 0))
    with pytest.raises(ValueError, match="three entries"):
        build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 2), vec(4, 3), (1, 0))
    with pytest.raises(ValueError, match="does not commute"):
        build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 2),
                         vec(4, 0) + vec(4, 3), (1, 0, 0))


def test_extract_jacobi_catalog_goldens():
    expected = {
        "firstkind4": ("e3", {(0, 1): 1}, None),
        "secondkind4": ("-e2", {(0, 1): 1}, {(0,): 1}),
        "thirdkind_u2": ("e4", {(0, 3): 1, (1, 2): 1}, {(0,): -1}),
    }
    for name, (y0_label, r_terms, x0_terms) in expected.items():
        b = catalog(name)
        y0 = unit_center_vector(b.g, b.phi0)
        assert y0.render(b.g.basis_labels) == y0_label
        ext = extract_jacobi(b, y0)
        n = b.g.dim
        assert ext.pair.r == mv(n, 2, r_terms)
        expected_x0 = Multivector.zero(n, 1) if x0_terms is None else mv(n, 1, x0_terms)
        assert ext.pair.x0 == expected_x0
        assert ext.pair.x0 == b.x0
        assert ext.characteristic.tag == "lcs"


def test_extract_jacobi_rejections():
    b = catalog("firstkind4")
    with pytest.raises(ValueError, match=r"phi0\(y0\) = 1"):
        extract_jacobi(b, vec(4, 0))
    tk = catalog("thirdkind_u2")
    with pytest.raises(ValueError, match="central"):
        extract_jacobi(tk, vec(4, 0))
    nb = catalog("noncob4_53")
    bad = GeneralizedBialgebra(nb.g, nb.g_star, Form.basis(4, 0), nb.x0)
    with pytest.raises(ValueError, match="not a generalized bialgebra"):
        extract_jacobi(bad, vec(4, 3))


def test_unit_center_vector():
    g = direct_product(SU2, abelian(1))
    assert unit_center_vector(g, Form.basis(4, 3)) == vec(4, 3)
    assert unit_center_vector(SU2, Form.basis(3, 0)) is None
    assert unit_center_vector(g, Form.zero(4, 1)) is None
    half = unit_center_vector(abelian(2), Form.from_coeffs([F(2), F(0)]))
    assert half == vec(2, 0).scale(F(1, 2))


def test_su2_triple_golden():
    e1, e2, e3 = su2_triple(SU2)
    assert (e1, e2, e3) == (-vec(3, 0), -vec(3, 1), vec(3, 2))
    assert SU2.bracket(e1, e2) == e3
    assert SU2.bracket(e2, e3) == e1
    assert SU2.bracket(e3, e1) == e2


def test_su2_triple_scaled_algebra():
    scaled = LieAlgebra("scaled", 3, standard_labels(3),
                        {(0, 1): mv(3, 1, {(2,): 2}),
                         (1, 2): mv(3, 1, {(0,): 2}),
                         (0, 2): mv(3, 1, {(1,): -2})})
    e1, e2, e3 = su2_triple(scaled)
    assert scaled.bracket(e1, e2) == e3
    assert scaled.bracket(e2, e3) == e1
    assert scaled.bracket(e3, e1) == e2


def test_su2_triple_rejections():
    with pytest.raises(ValueError, match="dimension 3"):
        su2_triple(abelian(4))
    with pytest.raises(ValueError, match="no rational standard triple"):
        su2_triple(abelian(3))
    with pytest.raises(ValueError) as exc:
        su2_triple(catalog("sl2r"))
    assert str(exc.value) == ("no rational standard triple found in sl2r "
                              "(searched small integer combinations)")


def test_build_semidirect_glb_abelian():
    h = abelian(2)
    h_star = LieAlgebra("ab2*", 2, ("f1", "f2"), {})
    psi = LinearMap.from_rows([[1, 0], [0, 2]])
    b = build_semidirect_glb(h, h_star, psi)
    assert b.g.dim == 3 and b.x0 == vec(3, 2) and b.phi0.is_zero()
    assert dict(b.g_star.structure) == {(1, 2): mv(3, 1, {(1,): 1})}
    assert b.g_star == semidirect_dual_reference(b.g, h_star, psi)
    assert check_glb(b).passed
    result = classify_compact(b)
    assert result.kind == "phi0-zero-semidirect"
    cert = result.certificate
    assert cert.theta0 == Form.basis(3, 2)
    assert cert.psi.rows == psi.rows
    assert cert.subalgebra.dim == 2 and cert.dual_subalgebra.dim == 2


def test_build_semidirect_glb_nonabelian_base():
    h_star = LieAlgebra("su2*", 3, ("f1", "f2", "f3"), {})
    ad1 = LinearMap.from_columns([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    b = build_semidirect_glb(SU2, h_star, ad1)
    assert check_glb(b).passed
    result = classify_compact(b)
    assert result.kind == "phi0-zero-semidirect"
    cert = result.certificate
    assert cert.psi.rows == ad1.rows
    assert cert.theta0 == Form.basis(4, 3)
    assert dict(cert.subalgebra.structure) == dict(SU2.structure)
    assert b.g_star == semidirect_dual_reference(b.g, h_star, ad1)


@pytest.mark.parametrize("a, c", [(0, 0), (1, 2), (Fraction(-1, 2), 3)])
def test_semidirect_glb_over_a_nonabelian_dual_round_trips(a, c):
    # h* = solvable2 is nonabelian, so g* holds h*'s bracket beside the
    # derivation's; psi* - id = [[a, c], [0, 0]] is a derivation of h* for
    # every a, c, and the classification reads h, h* and psi back
    h = abelian(2)
    h_star = LieAlgebra("solvable2*", 2, ("e^1", "e^2"), catalog("solvable2").structure)
    psi = LinearMap.from_rows([[a + 1, c], [0, 1]]).transpose()
    b = build_semidirect_glb(h, h_star, psi)
    assert b.g_star == semidirect_dual_reference(b.g, h_star, psi)
    assert check_glb(b).passed
    result = classify_compact(b)
    assert result.kind == "phi0-zero-semidirect"
    assert result.certificate.psi == psi
    assert result.certificate.dual_subalgebra.rename(h_star.name) == h_star
    assert result.certificate.subalgebra.rename(h.name) == h


def test_build_semidirect_glb_rejections():
    h_star = LieAlgebra("su2*", 3, ("f1", "f2", "f3"), {})
    rotation = LinearMap.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="not a derivation"):
        build_semidirect_glb(SU2, h_star, rotation)
    with pytest.raises(ValueError, match="same dimension"):
        build_semidirect_glb(SU2, LieAlgebra("x", 2, ("f1", "f2"), {}),
                             LinearMap.identity(3))
    # su2 with its own bracket on the dual is no Lie bialgebra, and psi = 0
    # makes psi* - id = -id, no derivation of a nonabelian h*
    su2_dual = LieAlgebra("su2*", 3, SU2.dual_labels, SU2.structure)
    with pytest.raises(ValueError) as exc:
        build_semidirect_glb(SU2, su2_dual, LinearMap.from_rows([[0] * 3] * 3))
    assert str(exc.value) == ("semidirect hypotheses fail:\n"
                              "  (h, h*) is not a Lie bialgebra:\n"
                              "    generalized bialgebra fails:\n"
                              "      bracket compatibility at (e1, e2): e1^e2\n"
                              "      bracket compatibility at (e1, e3): e1^e3\n"
                              "      bracket compatibility at (e2, e3): e2^e3\n"
                              "  psi* - id is not a derivation of h*")


def test_classify_lie_bialgebra_kind():
    zero_dual = LieAlgebra("su2*", 3, ("f1", "f2", "f3"), {})
    b = GeneralizedBialgebra(SU2, zero_dual, Form.zero(3, 1), Multivector.zero(3, 1))
    result = classify_compact(b)
    assert result.kind == "lie-bialgebra"
    assert result.y0 is None and result.certificate is None


def test_classify_rejects_noncompact():
    with pytest.raises(ValueError, match="not of compact type"):
        classify_compact(catalog("noncob4_53"))
    # a compact base with phi0 doubled is refused with the failed residuals
    tk = catalog("thirdkind_u2")
    with pytest.raises(ValueError) as exc:
        classify_compact(GeneralizedBialgebra(tk.g, tk.g_star, tk.phi0.scale(2), tk.x0))
    assert str(exc.value) == ("input is not a generalized bialgebra:\n"
                              "generalized bialgebra fails:\n"
                              "  bracket compatibility at (e2, e4): e1^e2 + e3^e4\n"
                              "  bracket compatibility at (e3, e4): e1^e3 - e2^e4\n"
                              "  contraction identity at e2: e3\n"
                              "  contraction identity at e3: -e2")


def _permute_glb(b, perm):
    n = b.g.dim
    cols = [[Fraction(1 if r == perm[j] else 0) for j in range(n)]
            for r in range(n)]
    return GeneralizedBialgebra(
        change_basis(b.g, cols, name=b.g.name),
        change_basis(b.g_star, cols, name=b.g_star.name),
        Form.from_coeffs([b.phi0.coefficient((perm[j],)) for j in range(n)]),
        Multivector.from_coeffs([b.x0.coefficient((perm[j],)) for j in range(n)]))


def test_classify_kind_stable_under_basis_permutation():
    # relabeling the basis must never change the detected kind
    perms = [(3, 2, 1, 0), (1, 2, 3, 0), (2, 0, 3, 1)]
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        kind = classify_compact(b).kind
        for perm in perms:
            moved = _permute_glb(b, perm)
            assert check_glb(moved).passed
            assert classify_compact(moved).kind == kind


def test_every_catalog_entry_passes_its_validator():
    names = [n for n in catalog_names() if not n.endswith("n)")]
    names += ["abelian(1)", "abelian(4)", "heisenberg(1,1)", "heisenberg(1,2)"]
    for name in names:
        entry = catalog(name)
        if isinstance(entry, GeneralizedBialgebra):
            assert check_glb(entry).passed, name
        elif isinstance(entry, YbData):
            assert entry.g.validate().passed, name
            assert check_yb_hypotheses(entry).passed, name
        else:
            assert entry.validate().passed, name


def _unit(v, phi):
    # v / phi(v), or None when phi(v) = 0
    scale = pair(phi, v)
    return v.scale(Fraction(1) / scale) if scale else None


def test_b_dual_of_cocycle_matches_inverse_route():
    # B^-1 phi / phi(B^-1 phi) for every 1-cocycle phi, B^-1 phi = sum_k
    # phi(z_k) z_k over the center rows; None for the zero cocycle
    for g in compact_algebras():
        b_ref = invariant_scalar_product_reference(g)
        z = center(g)
        cocycles = [list(row) for row in one_cocycles(g).rows]
        cocycles.append([sum(Fraction(k + 2, 3) * row[i] for k, row in enumerate(cocycles))
                         for i in range(g.dim)])
        for phi in map(Form.from_coeffs, cocycles):
            want = _unit(Multivector.from_coeffs(b_dual_reference(b_ref, phi.coeffs())), phi)
            assert _unit_dual(z._reduced, phi) == want, g.name
            assert (want is None) == phi.is_zero(), g.name
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        y = b_dual_reference(invariant_scalar_product_reference(b.g), b.phi0.coeffs())
        assert classify_compact(b).y0 == _unit(Multivector.from_coeffs(y), b.phi0)


def test_b_dual_cocycle_matches_the_fraction_sum_on_seeded_brackets():
    # the integer sum against the Fraction sum of b_dual_sum_reference,
    # normalized, on the center of every seeded bracket, for seeded
    # covectors and for covectors vanishing on the center (None); on the
    # compact ones, in dense unimodular bases, against B^-1 phi for the
    # 1-cocycles phi too
    rng = random.Random(2046)
    compact = wide = nones = 0
    for g in seeded_brackets():
        z = center(g)
        wide += z.rank > 1
        phis = [random_element(rng, Form, g.dim, 1, terms=3) for _ in range(2)] if g.dim else []
        phis += [Form.from_coeffs(row).scale(mixed_fraction(rng) or 1)
                 for row in annihilator(z).rows[:2]]
        for phi in phis:
            got = _unit_dual(z._reduced, phi)
            assert got == _unit(b_dual_sum_reference(z, phi), phi), g.name
            nones += got is None and z.rank > 0
        if is_compact(g).compact:
            compact += 1
            b_ref = invariant_scalar_product_reference(g)
            for row in one_cocycles(g).rows:
                phi = Form.from_coeffs(row).scale(mixed_fraction(rng) or 1)
                want = _unit(Multivector.from_coeffs(b_dual_reference(b_ref, phi.coeffs())), phi)
                assert _unit_dual(z._reduced, phi) == want, g.name
    assert compact >= 4 and wide >= 4 and nones >= 10


def test_cocycle_with_values_matches_the_fraction_system():
    # the integer rows of the table and the constraints give the cocycle of
    # one Fraction system, or both raise: seeded brackets at dims 1-14, the
    # compact algebras (center vectors with prescribed values) and mixed
    # denominators, with one to three seeded or center constraints
    rng = random.Random(2043)
    outcomes = set()
    for g in seeded_brackets() + compact_algebras() + sum(mixed_algebras(), []):
        n = g.dim
        if not n:
            continue
        vectors = [list(r) for r in center(g).rows] + [[mixed_fraction(rng) for _ in range(n)]
                                                       for _ in range(2)]
        for k in (1, 2, 3):
            constraints = [(v, mixed_fraction(rng)) for v in vectors[:k]]
            expected = solve_cocycle_reference(g, constraints)
            try:
                got = bialgebra._solve_cocycle_with_values(g, constraints)
            except ValueError:
                got = None
            assert got == expected, (g.name, constraints)
            outcomes.add(got is None)
    assert outcomes == {True, False}
