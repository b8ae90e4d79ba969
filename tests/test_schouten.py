"""Schouten calculus: differential oracles, bracket identities, twisted operators."""

import random
from fractions import Fraction

import pytest

from helpers import (
    ce_differential_reference,
    dense_element,
    evaluate,
    fm,
    induced,
    mixed_algebras,
    mixed_fraction,
    mv,
    random_basis,
    random_element,
    schouten_reference,
    vec,
)
from liejacobi.catalog import catalog, heisenberg
from liejacobi.exterior import Form, Multivector, contract, pair, wedge
from liejacobi.liealg import LieAlgebra, abelian, change_basis, standard_labels
from liejacobi.linalg import invert, transpose
from liejacobi.schouten import (
    ce_differential,
    check_cocycle,
    schouten,
    twisted_ad,
    twisted_differential,
    twisted_schouten,
)

BAD = LieAlgebra("bad", 3, standard_labels(3),
                 {(0, 1): vec(3, 2), (0, 2): vec(3, 0)})


def test_ce_differential_grade1_oracle():
    # (d eta)(x, y) = -eta([x, y]) on all basis pairs
    for name in ("su2", "sl2r", "solvable2", "h11"):
        entry = catalog(name)
        g = entry if isinstance(entry, LieAlgebra) else entry.g
        n = g.dim
        for i in range(n):
            eta = Form.basis(n, i)
            d_eta = ce_differential(g, eta)
            for a in range(n):
                for b in range(n):
                    x, y = vec(n, a), vec(n, b)
                    assert evaluate(d_eta, x, y) == -pair(eta, g.bracket(x, y))


def _differential_algebras():
    """The mixed-denominator Lie and non-Lie algebras and heisenberg(1,3) in
    a seeded basis, whose table is dense."""
    lie, non_lie = mixed_algebras()
    h = heisenberg(3)
    return lie + non_lie + [change_basis(h, random_basis(random.Random(10), h.dim))]


def test_ce_differential_matches_coefficient_route():
    # the derivation extension against the (k+1)-subset sum, on sparse and
    # fully dense elements of every grade
    rng = random.Random(9)
    for g in _differential_algebras():
        for grade in range(g.dim + 1):
            for cls in (Form, Multivector):
                for w in (random_element(rng, cls, g.dim, grade, terms=3, bound=7),
                          dense_element(rng, cls, g.dim, grade)):
                    assert ce_differential(g, w) == ce_differential_reference(g, w), g.name


def test_ce_differential_of_a_basis_element_is_a_column():
    # d e^m = -sum_{a<b} c_ab^m e^a^e^b, read from the Fraction structure
    for g in _differential_algebras():
        for cls in (Form, Multivector):
            for m in range(g.dim):
                column = {ab: -value.coefficient((m,)) for ab, value in g.structure.items()}
                assert ce_differential(g, cls.basis(g.dim, m)) == cls.from_terms(g.dim, 2, column)


def test_check_cocycle_names_the_first_violation_in_structure_order():
    # structure inserted in reverse basis order, so that the first violating
    # pair in structure order is not the first in sorted order
    rng = random.Random(12)
    g = mixed_algebras()[1][2]
    g = LieAlgebra("reversed", g.dim, g.basis_labels, dict(reversed(g.structure.items())))
    assert list(g.structure) != sorted(g.structure)
    unsorted_first = 0
    for _ in range(20):
        phi = Form.from_coeffs([mixed_fraction(rng) for _ in range(g.dim)])
        values = [((i, j), sum((c * phi.coefficient((k,)) for (k,), c in v.terms.items()),
                               Fraction(0)))
                  for (i, j), v in g.structure.items()]
        bad = [(ij, val) for ij, val in values if val]
        if not bad:
            check_cocycle(g, phi)
            continue
        (i, j), val = bad[0]
        unsorted_first += (i, j) != min(ij for ij, _ in bad)
        li, lj = g.basis_labels[i], g.basis_labels[j]
        with pytest.raises(ValueError) as info:
            check_cocycle(g, phi)
        assert str(info.value) == f"not a 1-cocycle: value {val} on the bracket of ({li}, {lj})"
    assert unsorted_first >= 5


def test_schouten_matches_decomposable_expansion():
    rng = random.Random(13)
    lie, non_lie = mixed_algebras()
    for g in lie + non_lie:
        for _ in range(6):
            p = random_element(rng, Multivector, g.dim, rng.randint(0, 3), terms=2, bound=7)
            q = random_element(rng, Multivector, g.dim, rng.randint(0, 3), terms=2, bound=7)
            assert schouten(g, p, q) == schouten_reference(g, p, q), g.name


def test_schouten_and_ce_differential_are_covariant():
    # in the basis given by the columns of P, multivectors transform by P^-1
    # and forms by P^T; both operations commute with these maps, on Lie and
    # non-Lie brackets alike
    rng = random.Random(31)
    lie, non_lie = mixed_algebras()
    for g in lie + non_lie:
        n = g.dim
        p = random_basis(rng, n)
        to_vectors, to_forms = invert(p), transpose(p)
        moved = change_basis(g, p)
        for _ in range(4):
            a = random_element(rng, Multivector, n, rng.randint(1, 3), terms=2, bound=7)
            b = random_element(rng, Multivector, n, rng.randint(1, 3), terms=2, bound=7)
            assert (schouten(moved, induced(to_vectors, a), induced(to_vectors, b))
                    == induced(to_vectors, schouten(g, a, b))), g.name
            w = random_element(rng, Form, n, rng.randint(0, n), terms=3, bound=7)
            assert (ce_differential(moved, induced(to_forms, w))
                    == induced(to_forms, ce_differential(g, w))), g.name


def test_ce_differential_su2_golden():
    g = catalog("su2")
    assert ce_differential(g, Form.basis(3, 0)) == fm(3, 2, {(1, 2): -1})


def test_ce_differential_abelian_is_zero():
    g = abelian(4)
    rng = random.Random(67)
    for _ in range(20):
        omega = random_element(rng, Form, 4, rng.randint(1, 3))
        assert ce_differential(g, omega).is_zero()


def test_d_squared_zero_on_valid_brackets():
    rng = random.Random(71)
    for name in ("su2", "sl2r", "gl2r", "solvable3_51", "semidirect4_53"):
        entry = catalog(name)
        g = entry if isinstance(entry, LieAlgebra) else entry.g
        for _ in range(10):
            omega = random_element(rng, Form, g.dim, rng.randint(1, 3))
            assert ce_differential(g, ce_differential(g, omega)).is_zero()


def test_d_squared_detects_jacobi_violation():
    eta = Form.basis(3, 2)
    dd = ce_differential(BAD, ce_differential(BAD, eta))
    assert not dd.is_zero()


def test_dual_differential_noncob_golden():
    b = catalog("noncob4_53")
    gs = b.g_star
    d_star = [ce_differential(gs, vec(4, i)) for i in range(4)]
    assert d_star[0].is_zero()
    assert d_star[1].is_zero()
    assert d_star[2] == mv(4, 2, {(0, 1): -1})
    assert d_star[3] == mv(4, 2, {(0, 3): -1})


def test_schouten_reduces_to_bracket_on_vectors():
    rng = random.Random(73)
    for name in ("su2", "sl2r", "solvable2"):
        g = catalog(name)
        for _ in range(15):
            x = random_element(rng, Multivector, g.dim, 1)
            y = random_element(rng, Multivector, g.dim, 1)
            assert schouten(g, x, y) == g.bracket(x, y)


def test_schouten_su2_expansion_golden():
    g = catalog("su2")
    assert schouten(g, vec(3, 0), mv(3, 2, {(1, 2): 1})).is_zero()


def test_schouten_su2_contact_pair_golden():
    g = catalog("su2")
    r = mv(3, 2, {(1, 2): -1})
    x0 = vec(3, 0)
    residual = schouten(g, r, r) - wedge(x0, r).scale(Fraction(2))
    assert residual.is_zero()


def test_schouten_heisenberg_square_golden():
    # [e1^e2, e1^e2] = -2 e1^e2^e3 under the graded-symmetry convention
    h = heisenberg(1)
    r = mv(3, 2, {(0, 1): 1})
    assert schouten(h, r, r) == mv(3, 3, {(0, 1, 2): -2})


def test_twisted_schouten_reduces_when_phi_zero():
    rng = random.Random(79)
    g = catalog("su2")
    zero = Form.zero(3, 1)
    for _ in range(20):
        p = random_element(rng, Multivector, 3, rng.randint(1, 3))
        q = random_element(rng, Multivector, 3, rng.randint(1, 3))
        assert twisted_schouten(g, zero, p, q) == schouten(g, p, q)


def test_twisted_schouten_formula_expansion():
    # [P,Q]_phi = [P,Q] + (-1)^{k+1}(k-1) P ^ i(phi)Q - (k'-1) i(phi)P ^ Q
    y = catalog("solvable3_51")
    g, phi = y.g, y.phi0
    rng = random.Random(83)
    for _ in range(30):
        k = rng.randint(1, 3)
        kp = rng.randint(1, 3)
        p = random_element(rng, Multivector, 3, k)
        q = random_element(rng, Multivector, 3, kp)
        k, kp = p.grade, q.grade
        expected = schouten(g, p, q)
        term = wedge(p, contract(phi, q)).scale(Fraction((-1) ** (k + 1) * (k - 1)))
        expected = expected + term
        expected = expected - wedge(contract(phi, p), q).scale(Fraction(kp - 1))
        assert twisted_schouten(g, phi, p, q) == expected


def test_twisted_schouten_grade1_equals_bracket():
    y = catalog("solvable3_51")
    rng = random.Random(89)
    for _ in range(15):
        x = random_element(rng, Multivector, 3, 1)
        z = random_element(rng, Multivector, 3, 1)
        assert twisted_schouten(y.g, y.phi0, x, z) == y.g.bracket(x, z)


def test_twisted_schouten_grade0_action():
    y = catalog("solvable3_51")
    one = Multivector.from_terms(3, 0, {(): Fraction(1)})
    got = twisted_schouten(y.g, y.phi0, vec(3, 2), one)
    assert got == Multivector.from_terms(3, 0, {(): Fraction(1)})
    assert twisted_schouten(y.g, y.phi0, vec(3, 0), one).is_zero()


def test_twisted_schouten_solvable_lie_derivative_golden():
    # phi0(e1) = 0, so [e1, r]_phi0 = [e1, r]
    y = catalog("solvable3_51")
    assert twisted_schouten(y.g, y.phi0, vec(3, 0), y.r) == schouten(y.g, vec(3, 0), y.r)


def test_twisted_schouten_rejects_non_cocycle():
    g = catalog("su2")     # perfect: only the zero cocycle
    with pytest.raises(ValueError):
        twisted_schouten(g, Form.basis(3, 0), vec(3, 0), vec(3, 1))
    with pytest.raises(ValueError):
        twisted_differential(g, Form.basis(3, 0), Form.basis(3, 1))
    with pytest.raises(ValueError):
        check_cocycle(g, Form.basis(3, 0))


def test_twisted_differential_formula_and_square():
    y = catalog("solvable3_51")
    g, phi = y.g, y.phi0
    rng = random.Random(97)
    for _ in range(25):
        omega = random_element(rng, Form, 3, rng.randint(1, 2))
        d_tw = twisted_differential(g, phi, omega)
        assert d_tw == ce_differential(g, omega) + wedge(phi, omega)
        assert twisted_differential(g, phi, d_tw).is_zero()


def test_twisted_differential_unit_gives_cocycle():
    y = catalog("solvable3_51")
    unit = Form.from_terms(3, 0, {(): Fraction(1)})
    assert twisted_differential(y.g, y.phi0, unit) == y.phi0


def test_twisted_differential_on_dual_with_x0():
    # d_{*X0} P = d_* P + X0 ^ P over the dual bracket source
    b = catalog("noncob4_53")
    rng = random.Random(101)
    for _ in range(20):
        p = random_element(rng, Multivector, 4, rng.randint(1, 2))
        d_tw = twisted_differential(b.g_star, b.x0, p)
        assert d_tw == ce_differential(b.g_star, p) + wedge(b.x0, p)


def test_twisted_ad_weight_matches_definition():
    # ad_{(phi,c)}(X)(s) = [X,s] - (k - c) phi(X) s
    from liejacobi.exterior import pair
    y = catalog("semidirect4_53")
    g, phi = y.g, y.phi0
    rng = random.Random(103)
    for c in (Fraction(0), Fraction(1), Fraction(2)):
        for _ in range(15):
            x = random_element(rng, Multivector, 4, 1)
            s = random_element(rng, Multivector, 4, rng.randint(1, 3))
            k = s.grade
            expected = schouten(g, x, s) - s.scale((k - c) * pair(phi, x))
            assert twisted_ad(g, phi, c, x, s) == expected


def test_twisted_ad_weight_one_is_twisted_bracket():
    y = catalog("semidirect4_53")
    rng = random.Random(107)
    for _ in range(15):
        x = random_element(rng, Multivector, 4, 1)
        s = random_element(rng, Multivector, 4, rng.randint(1, 3))
        assert (twisted_ad(y.g, y.phi0, Fraction(1), x, s)
                == twisted_schouten(y.g, y.phi0, x, s))


def test_twisted_ad_is_representation():
    # ad(X)ad(Y) - ad(Y)ad(X) = ad([X,Y]) for each weight
    y = catalog("semidirect4_53")
    g, phi = y.g, y.phi0
    rng = random.Random(109)
    for c in (Fraction(0), Fraction(1)):
        for _ in range(15):
            x = random_element(rng, Multivector, 4, 1)
            z = random_element(rng, Multivector, 4, 1)
            s = random_element(rng, Multivector, 4, rng.randint(1, 2))
            lhs = (twisted_ad(g, phi, c, x, twisted_ad(g, phi, c, z, s))
                   - twisted_ad(g, phi, c, z, twisted_ad(g, phi, c, x, s)))
            assert lhs == twisted_ad(g, phi, c, g.bracket(x, z), s)


def invariant(g, phi, weight, s):
    """Whether the weighted adjoint action of every basis vector kills s."""
    return all(twisted_ad(g, phi, weight, g.basis_vector(i), s).is_zero() for i in range(g.dim))


def test_is_invariant_examples():
    assert invariant(catalog("su2"), Form.zero(3, 1), Fraction(1), Multivector.zero(3, 2))
    # any bivector on h(1,1): [r,r] - 2 e3^r is ad-invariant
    h = heisenberg(1)
    rng = random.Random(113)
    zero_phi = Form.zero(3, 1)
    for _ in range(15):
        r = random_element(rng, Multivector, 3, 2)
        s = schouten(h, r, r) - wedge(vec(3, 2), r).scale(Fraction(2))
        assert invariant(h, zero_phi, Fraction(1), s)
    # dim-4 semidirect: i(phi0)r - x0 = e3 is ad_{(phi0,0)}-invariant
    y = catalog("semidirect4_53")
    s = contract(y.phi0, y.r) - y.x0
    assert s == vec(4, 2)
    assert invariant(y.g, y.phi0, Fraction(0), s)


def test_graded_symmetry_identity():
    y = catalog("semidirect4_53")
    rng = random.Random(127)
    for _ in range(30):
        p = random_element(rng, Multivector, 4, rng.randint(1, 3))
        q = random_element(rng, Multivector, 4, rng.randint(1, 3))
        sign = Fraction((-1) ** (p.grade * q.grade))
        assert (twisted_schouten(y.g, y.phi0, p, q)
                == twisted_schouten(y.g, y.phi0, q, p).scale(sign))


def test_modified_leibniz_identity():
    # [P, P'^P'']_phi = [P,P']_phi ^ P'' + (-1)^{k'(k+1)} P' ^ [P,P'']_phi
    #                   - i(phi)P ^ P' ^ P''
    y = catalog("solvable3_51")
    g, phi = y.g, y.phi0
    rng = random.Random(131)
    for _ in range(40):
        p = random_element(rng, Multivector, 3, rng.randint(1, 3))
        q = random_element(rng, Multivector, 3, rng.randint(1, 2))
        w = random_element(rng, Multivector, 3, rng.randint(1, 2))
        k, kp = p.grade, q.grade
        lhs = twisted_schouten(g, phi, p, wedge(q, w))
        rhs = wedge(twisted_schouten(g, phi, p, q), w)
        rhs = rhs + wedge(q, twisted_schouten(g, phi, p, w)).scale(
            Fraction((-1) ** (kp * (k + 1))))
        rhs = rhs - wedge(contract(phi, p), wedge(q, w))
        assert lhs == rhs


def test_graded_jacobi_identity():
    y = catalog("semidirect4_53")
    g, phi = y.g, y.phi0
    rng = random.Random(137)
    for _ in range(30):
        p = random_element(rng, Multivector, 4, rng.randint(1, 2))
        q = random_element(rng, Multivector, 4, rng.randint(1, 2))
        w = random_element(rng, Multivector, 4, rng.randint(1, 2))
        k, kp, kpp = p.grade, q.grade, w.grade
        total = twisted_schouten(g, phi, twisted_schouten(g, phi, p, q), w).scale(
            Fraction((-1) ** (k * kpp)))
        total = total + twisted_schouten(
            g, phi, twisted_schouten(g, phi, w, p), q).scale(
            Fraction((-1) ** (kp * kpp)))
        total = total + twisted_schouten(
            g, phi, twisted_schouten(g, phi, q, w), p).scale(
            Fraction((-1) ** (k * kp)))
        assert total.is_zero()
