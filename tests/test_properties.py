"""Randomized identities: differentials, graded brackets, dual-bracket routes.

Every suite runs at least 200 examples over algebras of dimension at most 5
with element grades at most 3 and small rational coefficients; assertions are
exact equalities of multivectors or structure-constant dictionaries.
"""

from fractions import Fraction
from itertools import combinations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from helpers import coboundary_system_reference, rational_system
from liejacobi.bialgebra import (
    _check_glb,
    _coboundary_system,
    GeneralizedBialgebra,
    YbData,
    build_dual_bracket,
    check_yb_hypotheses,
    dual_bracket_adjoint_route,
    dual_bracket_pointwise_route,
    solve_coboundary,
)
from liejacobi.catalog import catalog, heisenberg
from liejacobi.exterior import Form, Multivector, contract, wedge
from liejacobi.liealg import abelian, coordinates, direct_product, one_cocycles
from liejacobi.schouten import (
    ce_differential,
    schouten,
    twisted_ad,
    twisted_differential,
    twisted_schouten,
)

POOL = [
    catalog("su2"), catalog("u2"), catalog("gl2r"), catalog("sl2r"),
    catalog("solvable2"), catalog("solvable3_51").g,
    catalog("semidirect4_53").g, catalog("noncob4_53").g,
    heisenberg(1), heisenberg(2),
    abelian(2), abelian(3), abelian(4), abelian(5),
    direct_product(catalog("su2"), abelian(2), name="su2xR2"),
]

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
algebras = st.sampled_from(POOL)

LONG = settings(max_examples=200, deadline=None, derandomize=True)
SAMPLED = settings(max_examples=200, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.filter_too_much,
                                          HealthCheck.too_slow])


def element_strategy(dim, grade, cls):
    if grade > dim:
        grade = dim
    tuples = list(combinations(range(dim), grade))
    return st.dictionaries(st.sampled_from(tuples), rationals, max_size=3).map(
        lambda terms: cls.from_terms(dim, grade, terms))


@st.composite
def algebra_with_forms(draw, grades):
    g = draw(algebras)
    picked = [draw(st.integers(min_value=lo, max_value=hi)) for lo, hi in grades]
    return g, [draw(element_strategy(g.dim, k, Form)) for k in picked]


@st.composite
def algebra_with_multivectors(draw, grades):
    g = draw(algebras)
    out = []
    for lo, hi in grades:
        k = draw(st.integers(min_value=lo, max_value=hi))
        out.append(draw(element_strategy(g.dim, k, Multivector)))
    return g, out


def cocycle_strategy(g):
    rows = one_cocycles(g).rows
    if not rows:
        return st.just(Form.zero(g.dim, 1))
    return st.tuples(*[rationals] * len(rows)).map(
        lambda cs: Form.from_coeffs(
            [sum((c * row[i] for c, row in zip(cs, rows)), Fraction(0))
             for i in range(g.dim)]))


@st.composite
def algebra_with_cocycle(draw):
    g = draw(algebras)
    return g, draw(cocycle_strategy(g))


@LONG
@given(algebra_with_forms(grades=[(0, 3)]))
def test_differential_squares_to_zero(data):
    g, (omega,) = data
    assert ce_differential(g, ce_differential(g, omega)).is_zero()


@LONG
@given(algebra_with_cocycle(), st.data())
def test_twisted_differential_squares_to_zero(pair, data):
    g, phi = pair
    grade = data.draw(st.integers(min_value=0, max_value=3))
    omega = data.draw(element_strategy(g.dim, grade, Form))
    once = twisted_differential(g, phi, omega)
    assert twisted_differential(g, phi, once).is_zero()


@LONG
@given(algebra_with_cocycle(), st.data())
def test_phi0_schouten_graded_symmetry(pair, data):
    g, phi0 = pair
    p = data.draw(element_strategy(g.dim, data.draw(st.integers(0, 3)), Multivector))
    q = data.draw(element_strategy(g.dim, data.draw(st.integers(0, 3)), Multivector))
    k, kp = p.grade, q.grade
    lhs = twisted_schouten(g, phi0, p, q)
    rhs = twisted_schouten(g, phi0, q, p).scale(Fraction((-1) ** (k * kp)))
    assert lhs == rhs


@LONG
@given(algebra_with_cocycle(), st.data())
def test_phi0_schouten_modified_leibniz(pair, data):
    g, phi0 = pair
    p = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 3)), Multivector))
    q = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 2)), Multivector))
    w = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 2)), Multivector))
    k, kp = p.grade, q.grade
    lhs = twisted_schouten(g, phi0, p, wedge(q, w))
    rhs = (wedge(twisted_schouten(g, phi0, p, q), w)
           + wedge(q, twisted_schouten(g, phi0, p, w)).scale(
               Fraction((-1) ** (kp * (k + 1))))
           - wedge(wedge(contract(phi0, p), q), w))
    assert lhs == rhs


@LONG
@given(algebra_with_cocycle(), st.data())
def test_phi0_schouten_graded_jacobi(pair, data):
    g, phi0 = pair
    p = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 3)), Multivector))
    q = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 3)), Multivector))
    w = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 3)), Multivector))
    k, kp, kpp = p.grade, q.grade, w.grade
    total = (twisted_schouten(g, phi0, twisted_schouten(g, phi0, p, q), w).scale(
                 Fraction((-1) ** (k * kpp)))
             + twisted_schouten(g, phi0, twisted_schouten(g, phi0, w, p), q).scale(
                 Fraction((-1) ** (kp * kpp)))
             + twisted_schouten(g, phi0, twisted_schouten(g, phi0, q, w), p).scale(
                 Fraction((-1) ** (k * kp))))
    assert total.is_zero()


@LONG
@given(algebra_with_cocycle(), st.data())
def test_twisted_ad_is_representation(pair, data):
    g, phi = pair
    c = data.draw(st.sampled_from([0, 1, 2, Fraction(-1, 2)]))
    x = data.draw(element_strategy(g.dim, 1, Multivector))
    y = data.draw(element_strategy(g.dim, 1, Multivector))
    s = data.draw(element_strategy(g.dim, data.draw(st.integers(1, 3)), Multivector))
    lhs = (twisted_ad(g, phi, c, x, twisted_ad(g, phi, c, y, s))
           - twisted_ad(g, phi, c, y, twisted_ad(g, phi, c, x, s)))
    assert lhs == twisted_ad(g, phi, c, g.bracket(x, y), s)


@LONG
@given(algebra_with_cocycle(), st.data())
def test_dual_bracket_routes_agree(pair, data):
    g, phi0 = pair
    r = data.draw(element_strategy(g.dim, 2, Multivector))
    x0 = data.draw(element_strategy(g.dim, 1, Multivector))
    adjoint = dual_bracket_adjoint_route(g, phi0, r, x0)
    pointwise = dual_bracket_pointwise_route(g, phi0, r, x0)
    assert adjoint == pointwise


def _dual_differential_identity(y, dual):
    # d_* r = [r, r] - 2 x0 ^ r - (i(phi0) r) ^ r, with d_* from the built dual
    lhs = ce_differential(dual, y.r)
    rhs = (schouten(y.g, y.r, y.r) - wedge(y.x0, y.r).scale(2)
           - wedge(contract(y.phi0, y.r), y.r))
    assert lhs == rhs


@LONG
@given(st.sampled_from(["solvable3_51", "h11", "semidirect4_53"]), rationals)
def test_build_output_dual_differential_identity(name, c):
    y = catalog(name)
    scaled = YbData(y.g, y.phi0, y.r.scale(c), y.x0.scale(c))
    assert check_yb_hypotheses(scaled).passed
    dual = build_dual_bracket(scaled)
    _dual_differential_identity(scaled, dual)


@SAMPLED
@given(algebra_with_cocycle(), st.data())
def test_hypothesis_passing_bundles_build_valid_bialgebras(pair, data):
    g, phi0 = pair
    r = data.draw(element_strategy(g.dim, 2, Multivector))
    mode = data.draw(st.sampled_from(["zero", "contracted", "free"]))
    if mode == "zero":
        x0 = Multivector.zero(g.dim, 1)
    elif mode == "contracted":
        x0 = contract(phi0, r)
    else:
        x0 = data.draw(element_strategy(g.dim, 1, Multivector))
    y = YbData(g, phi0, r, x0)
    assume(check_yb_hypotheses(y).passed)
    dual = build_dual_bracket(y)
    assert dual.validate().passed
    b = GeneralizedBialgebra(g, dual, phi0, x0)
    report, d_basis = _check_glb(b)
    assert report.passed
    _dual_differential_identity(y, dual)
    # Yang-Baxter round trip: r solves d_{*X0} = ad_{(phi0,1)}(.)(r)
    system = rational_system(*_coboundary_system(b, d_basis), g.dim * (g.dim - 1) // 2)
    assert system == coboundary_system_reference(b)
    sols = solve_coboundary(b)
    assert not sols.is_empty
    pairs = list(combinations(range(g.dim), 2))
    offset = [(r - sols.particular).coefficient(t) for t in pairs]
    assert coordinates([[h.coefficient(t) for t in pairs] for h in sols.homogeneous],
                       offset) is not None
