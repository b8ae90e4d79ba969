"""Jacobi pairs, rank, characteristic subalgebra, contact and l.c.s. dictionaries."""

import random
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    contact_to_jacobi_reference,
    contraction_reference,
    dense_element,
    evaluate,
    evaluate_on,
    flat_contact_reference,
    fm,
    induced,
    jacobi_residuals_reference,
    jacobi_to_contact_reference,
    jacobi_to_lcs_reference,
    lcs_from_contact_times_line,
    lcs_to_jacobi_reference,
    mixed_algebras,
    mixed_fraction,
    mv,
    random_basis,
    random_element,
    unimodular_basis,
    vec,
)
from liejacobi import jacobi, linalg
from liejacobi.bialgebra import YbData, check_yb_hypotheses
from liejacobi.catalog import catalog, catalog_names, heisenberg
from liejacobi.documents import algebras_of
from liejacobi.exterior import Form, Multivector, wedge, wedge_power
from liejacobi.jacobi import (
    ContactStructure,
    JacobiPair,
    LcsStructure,
    characteristic_subalgebra,
    check_jacobi,
    contact_to_jacobi,
    jacobi_to_contact,
    jacobi_to_lcs,
    lcs_to_jacobi,
    rank,
    sharp,
)
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    _antisymmetric,
    _contraction,
    _push,
    _rank,
    abelian,
    change_basis,
    direct_product,
    one_cocycles,
    restrict,
    restrict_bivector,
)
from liejacobi.schouten import ce_differential


def _su2_contact_pair(l1, l2, l3):
    r = mv(3, 2, {(1, 2): l1, (0, 2): -l2, (0, 1): l3})
    x0 = mv(3, 1, {(0,): -l1, (1,): -l2, (2,): -l3})
    return JacobiPair(catalog("su2"), r, x0)


def test_check_jacobi_su2_contact_family():
    for lambdas in ((1, 0, 0), (-1, 0, 0), (0, 2, 0), (1, 1, 1),
                    (Fraction(1, 2), -3, Fraction(2, 5))):
        jp = _su2_contact_pair(*lambdas)
        report = check_jacobi(jp)
        assert report.passed, report.describe()
        assert rank(jp) == 3


def test_check_jacobi_trivial_pair():
    g = catalog("su2")
    jp = JacobiPair(g, Multivector.zero(3, 2), Multivector.zero(3, 1))
    assert check_jacobi(jp).passed
    assert rank(jp) == 0


def test_check_jacobi_semidirect_failure_golden():
    y = catalog("semidirect4_53")
    report = check_jacobi(JacobiPair(y.g, y.r, y.x0))
    assert not report.passed
    assert report.self_residual == mv(4, 3, {(0, 1, 2): 2})
    assert report.vector_residual.is_zero()


def test_check_jacobi_sl2r_family_constraint():
    # r = l1 e2^e3 + l2 e1^e2 - l3 e1^e3, x0 = -(l1 e1 + 2 l2 e2 + 2 l3 e3)
    g = catalog("sl2r")
    for l1, l2, l3 in ((1, 0, 0), (0, 1, 1), (2, 1, -1), (1, 3, 2)):
        r = mv(3, 2, {(1, 2): l1, (0, 1): l2, (0, 2): -l3})
        x0 = mv(3, 1, {(0,): -l1, (1,): -2 * l2, (2,): -2 * l3})
        jp = JacobiPair(g, r, x0)
        assert check_jacobi(jp).passed
        full = l1 * l1 + 4 * l2 * l3 != 0
        assert (rank(jp) == 3) == full


def _residual_cases():
    """Pairs (r, X0), valid or not, on an algebra of each dim 0-14 (su2 and
    heisenberg(1,1) factors and lines, in a seeded mixed-denominator basis
    up to dim 6 and a dense unimodular one above), the seeded non-Lie
    brackets of mixed_algebras and the nonlie shape [e1,e2] = e3,
    [e3,e4] = c e1: r and X0 zero, of the usual or another grade, sparse,
    dense and with 100-digit numerators and denominators; then the catalog's Yang-Baxter
    bundles, the zero pair on every catalog algebra, and the contact pairs
    of the seeded contact forms."""
    rng = random.Random(2031)
    big = lambda den=None: Fraction(rng.randrange(-10 ** 100, 10 ** 100),
                                    den or rng.randrange(1, 10 ** 100))
    su2, line = catalog("su2"), abelian(1)
    algebras = []
    for n in range(15):
        factors = [su2] * (n // 3) + [[], [line], [catalog("solvable2")]][n % 3]
        if n >= 6:
            factors[0] = heisenberg(1)
        g = abelian(0)
        for f in factors:
            g = f if g.dim == 0 else direct_product(g, f)
        if n >= 2:
            g = change_basis(g, random_basis(rng, n) if n < 7 else unimodular_basis(rng, n, 1))
        algebras.append(g)
    v = lambda *coeffs: Multivector.from_coeffs(coeffs)
    algebras += mixed_algebras()[1] + [LieAlgebra("nonlie", 4, ("e1", "e2", "e3", "e4"), {
        (0, 1): v(0, 0, 1, 0), (2, 3): v(Fraction(-7, 3), 0, 0, 0)})]
    out = []
    for g in algebras:
        n = g.dim
        zeros = [(Multivector.zero(n, min(2, n)), Multivector.zero(n, min(1, n))),
                 (Multivector.zero(n, 0), Multivector.zero(n, n))]
        out += [JacobiPair(g, r, x0) for r, x0 in zeros]
        if n < 2:
            continue
        pairs = list(combinations(range(n), 2))
        # above dim 8 the 100-digit coefficients of an element share one
        # denominator: independent ones give a common denominator of some
        # 9000 digits at dim 14, and schouten then takes ~15 s
        den = None if n <= 8 else big().denominator
        r_big = Multivector.from_terms(n, 2, {ij: big(den) for ij in pairs})
        x_big = Multivector.from_coeffs([big(den) for _ in range(n)])
        sparse = lambda: random_element(rng, Multivector, n, 2, terms=3, bound=7)
        x_sparse = random_element(rng, Multivector, n, 1, terms=2, bound=7)
        out += [JacobiPair(g, r, x0) for r, x0 in (
            (zeros[0][0], dense_element(rng, Multivector, n, 1)), (sparse(), zeros[0][1]),
            (sparse(), zeros[1][1]), (sparse(), x_sparse),
            (dense_element(rng, Multivector, n, 2), dense_element(rng, Multivector, n, 1)),
            (r_big, x_big))]
    for name in catalog_names()[:-2]:
        entry = catalog(name)
        if isinstance(entry, YbData):
            out.append(JacobiPair(entry.g, entry.r, entry.x0))
        for g in algebras_of(entry):
            out.append(JacobiPair(g, Multivector.zero(g.dim, 2), Multivector.zero(g.dim, 1)))
    out += [_su2_contact_pair(1, 2, -1)]
    out += [contact_to_jacobi(cs) for cs in _random_contact_structures()]
    return out


def test_jacobi_residuals_match_the_schouten_route():
    # the table route of check_jacobi, and the cubic term and [x0,r] that
    # check_yb_hypotheses reads from it, against schouten, wedge and scale,
    # compared with == and on the grade, which a zero residual also carries.
    # phi0 = 0 is a 1-cocycle on every algebra of positive dimension; the
    # Yang-Baxter check leaves out the 100-digit cases above dim 8 for time
    cases = _residual_cases()
    reports = [check_jacobi(jp) for jp in cases]
    for jp, report in zip(cases, reports):
        reference = [(e.grade, e) for e in jacobi_residuals_reference(jp)]
        assert [(e.grade, e) for e in (report.self_residual, report.vector_residual)] == reference
        n = jp.algebra.dim
        if 1 <= n <= 8:
            yb = check_yb_hypotheses(YbData(jp.algebra, Form.zero(n, 1), jp.r, jp.x0))
            assert [(e.grade, e) for e in (yb.cubic, yb.x0_commutes)] == reference
    assert {jp.algebra.dim for jp in cases} == set(range(15))
    assert 40 <= sum(report.passed for report in reports) < len(cases) - 40


def test_jacobi_report_is_true_exactly_when_it_passes():
    for name, passed in (("solvable3_51", True), ("semidirect4_53", False)):
        y = catalog(name)
        assert bool(check_jacobi(JacobiPair(y.g, y.r, y.x0))) is passed, name


def test_characteristic_span_matches_the_public_subspace_route():
    # _span_with_x0 reduces the integer rows of r and X0 once; the reference
    # spans the columns of the contraction matrix of r, which exterior
    # computes, and X0 through the public Subspace constructor
    cases = _residual_cases()
    valid = 0
    for jp in cases:
        g = jp.algebra
        reference = Subspace(g.dim, contraction_reference(jp.r).transpose().rows + [jp.x0.coeffs()])
        span = jacobi._span_with_x0(jp)
        assert (span, span._reduced) == (reference, reference._reduced)
        assert rank(jp) == reference.rank
        if check_jacobi(jp).passed:
            valid += 1
            cs = characteristic_subalgebra(jp)
            assert cs.subspace == reference
            assert cs.algebra == restrict(g, reference.rows, f"{g.name}.char")
            assert cs.pair.r == restrict_bivector(jp.r, reference.rows)
    assert valid >= 40


def test_sharp_matrix_oracle():
    # beta(#_r alpha) = r(alpha, beta)
    g = abelian(2)
    jp = JacobiPair(g, mv(2, 2, {(0, 1): 1}), Multivector.zero(2, 1))
    m = sharp(jp)
    assert m.apply([Fraction(1), Fraction(0)]) == [Fraction(0), Fraction(1)]
    assert m.apply([Fraction(0), Fraction(1)]) == [Fraction(-1), Fraction(0)]
    zero_pair = JacobiPair(g, Multivector.zero(2, 2), Multivector.zero(2, 1))
    assert all(c == 0 for row in sharp(zero_pair).rows for c in row)


def _two_tensors():
    """Jacobi pairs of two catalog entries, the pairs and the d eta of the
    seeded contact forms in dense mixed-denominator bases, and seeded
    2-vectors and 2-forms at dims 0-14: zero, sparse, dense and with
    100-digit coefficients (below dim 2 only the top-grade zero).  Above
    dim 8 the 100-digit coefficients of one element share a denominator:
    independent ones make the common denominator thousands of digits long
    and the rank eliminations take seconds."""
    y = catalog("solvable3_51")
    out = [_su2_contact_pair(1, 2, -1), JacobiPair(y.g, y.r, y.x0)]
    for cs in _random_contact_structures():
        out += [contact_to_jacobi(cs), ce_differential(cs.algebra, cs.eta)]
    rng = random.Random(2030)
    big = lambda den: Fraction(rng.randrange(-10 ** 100, 10 ** 100),
                               den or rng.randrange(1, 10 ** 100))
    for n in range(15):
        for kind in (Multivector, Form):
            if n < 2:
                out.append(kind.zero(n, n))
                continue
            pairs = list(combinations(range(n), 2))
            sparse = rng.sample(pairs, min(3, len(pairs)))
            den = rng.randrange(1, 10 ** 100) if n > 8 else None
            out += [kind.zero(n, 2),
                    kind.from_terms(n, 2, {ij: mixed_fraction(rng) or 1 for ij in sparse}),
                    dense_element(rng, kind, n, 2),
                    kind.from_terms(n, 2, {ij: big(den) for ij in pairs})]
    return out


def test_sharp_defining_property():
    # beta(#_r alpha) = r(alpha, beta) on every basis pair, and for a 2-form
    # Y(i(X) Omega) = Omega(X, Y); the contraction matrix equals the
    # reference built one contraction per column.  The integer matrix of p
    # is minus that reference over p's denominator, its rank is the
    # reference's, and the push-forward by a seeded matrix M is M v on the
    # reference's rows and on zero (mat_vec), and the map induced on p
    rng = random.Random(2031)
    for obj in _two_tensors():
        p = obj.r if isinstance(obj, JacobiPair) else obj
        n, kind = p.dim, type(p)
        m = _contraction(p) if isinstance(p, Form) else sharp(obj)
        reference = contraction_reference(p)
        assert m == _contraction(p) == reference
        d = p._ints()[1]
        assert ([[Fraction(row.get(j, 0), d) for j in range(n)] for row in _antisymmetric(p)]
                == [[-x for x in row] for row in reference.rows])
        assert _rank(p) == len(linalg.rref(reference.rows)[1])
        matrix = [[mixed_fraction(rng) if rng.random() < 0.7 else 0 for _ in range(n)]
                  for _ in range(n)]
        ints = LinearMap.from_rows(matrix)._ints
        assert _push(ints, p, kind) == induced(matrix, p)
        for v in [kind.zero(n, 1)] + [kind.from_coeffs(row) for row in reference.rows] if n else []:
            assert _push(ints, v, kind) == kind.from_coeffs(linalg.mat_vec(matrix, v.coeffs()))
        for a in range(n):
            image = m.apply([Fraction(1 if i == a else 0) for i in range(n)])
            for b in range(n):
                if p.grade != 2:
                    expected = 0     # the zero of a space without 2-tensors
                elif isinstance(p, Form):
                    expected = evaluate(p, Multivector.basis(n, a), Multivector.basis(n, b))
                else:
                    expected = evaluate_on(p, Form.basis(n, a), Form.basis(n, b))
                assert image[b] == expected


def test_rank_solvable_contact_golden():
    y = catalog("solvable3_51")
    jp = JacobiPair(y.g, y.r, y.x0)
    assert check_jacobi(jp).passed
    assert rank(jp) == 3


def test_rank_even_vs_odd():
    g = abelian(4)
    r = mv(4, 2, {(0, 1): 1})
    assert rank(JacobiPair(g, r, Multivector.zero(4, 1))) == 2
    assert rank(JacobiPair(g, r, vec(4, 2))) == 3
    assert rank(JacobiPair(g, r, vec(4, 0))) == 2     # x0 inside the image


def test_characteristic_subalgebra_zero_pair():
    g = catalog("su2")
    cs = characteristic_subalgebra(
        JacobiPair(g, Multivector.zero(3, 2), Multivector.zero(3, 1)))
    assert cs.algebra.dim == 0
    assert cs.tag == "lcs"


def test_characteristic_subalgebra_rank_one():
    # r = 0, x0 = e5 on heisenberg(1,2): the line through x0, with the
    # top-grade zero as its restricted r
    g = heisenberg(2)
    cs = characteristic_subalgebra(JacobiPair(g, Multivector.zero(5, 2), vec(5, 4)))
    assert cs.subspace.rank == 1 and cs.tag == "contact"
    assert cs.algebra.dim == 1 and not cs.algebra.structure
    assert cs.pair.r.dim == 1 and cs.pair.r.grade == 1 and cs.pair.r.is_zero()
    assert cs.pair.x0 == vec(1, 0)
    assert cs.inclusion.matrix == ((0,), (0,), (0,), (0,), (1,))


def test_characteristic_subalgebra_contact_tag():
    y = catalog("solvable3_51")
    cs = characteristic_subalgebra(JacobiPair(y.g, y.r, y.x0))
    assert cs.algebra.dim == 3
    assert cs.tag == "contact"
    assert check_jacobi(cs.pair).passed


def test_characteristic_subalgebra_second_kind_plane():
    # r = e1^e2, x0 = e1 on a compact algebra with commuting e1, e2
    for g, i, j in ((abelian(4), 0, 1),
                    (direct_product(catalog("su2"), abelian(2)), 3, 4)):
        n = g.dim
        r = Multivector.from_terms(n, 2, {(i, j): Fraction(1)})
        jp = JacobiPair(g, r, vec(n, i))
        assert check_jacobi(jp).passed
        cs = characteristic_subalgebra(jp)
        assert cs.algebra.dim == 2
        assert cs.tag == "lcs"
        assert not cs.algebra.structure     # abelian plane


def test_characteristic_subalgebra_u2_family():
    u2 = catalog("u2")
    r = mv(4, 2, {(1, 2): 1, (0, 3): 1})
    x0 = -vec(4, 0)
    cs = characteristic_subalgebra(JacobiPair(u2, r, x0))
    assert cs.algebra.dim == 4
    assert cs.tag == "lcs"


def test_characteristic_subalgebra_rejects_invalid_pair():
    y = catalog("semidirect4_53")
    with pytest.raises(ValueError):
        characteristic_subalgebra(JacobiPair(y.g, y.r, y.x0))


def test_contact_to_jacobi_su2_golden():
    cs = ContactStructure(catalog("su2"), Form.basis(3, 0))
    jp = contact_to_jacobi(cs)
    assert jp.x0 == vec(3, 0)
    assert jp.r == mv(3, 2, {(1, 2): -1})
    assert check_jacobi(jp).passed


def test_contact_to_jacobi_heisenberg_center_dual():
    h = heisenberg(1)
    cs = ContactStructure(h, Form.basis(3, 2))
    jp = contact_to_jacobi(cs)
    assert jp.x0 == vec(3, 2)
    assert jp.r == mv(3, 2, {(0, 1): -1})
    assert check_jacobi(jp).passed
    assert rank(jp) == 3


def test_contact_roundtrips():
    cases = [ContactStructure(catalog("su2"), Form.basis(3, 0)),
             ContactStructure(heisenberg(1), Form.basis(3, 2)),
             ContactStructure(heisenberg(2), Form.basis(5, 4))]
    y = catalog("solvable3_51")
    cases.append(jacobi_to_contact(JacobiPair(y.g, y.r, y.x0)))
    for cs in cases:
        jp = contact_to_jacobi(cs)
        back = jacobi_to_contact(jp)
        assert back.eta == cs.eta
        again = contact_to_jacobi(back)
        assert again.r == jp.r and again.x0 == jp.x0


def _random_contact_structures():
    """Two seeded contact forms on each of five algebras, each algebra in a
    seeded mixed-denominator basis."""
    rng = random.Random(2027)
    out = []
    for g in (catalog("su2"), catalog("sl2r"), heisenberg(1), heisenberg(2),
              catalog("solvable3_51").g):
        h = change_basis(g, random_basis(rng, g.dim), name=f"{g.name}.mixed")
        found = []
        for _ in range(100):
            try:
                found.append(ContactStructure(h, Form.from_coeffs(
                    [mixed_fraction(rng) for _ in range(h.dim)])))
            except ValueError:
                continue     # eta ^ (d eta)^k = 0
            if len(found) == 2:
                break
        assert len(found) == 2, g.name
        out += found
    return out


def test_contact_roundtrips_on_random_algebras(monkeypatch):
    # the matrix contact_to_jacobi inverts is b_eta(X) = i(X)(d eta) + eta(X) eta
    # (integer rows, column count, row scales) of the integer inverse
    inverted = []
    monkeypatch.setattr(jacobi, "_inverse",
                        lambda *args: inverted.append(args) or linalg._inverse(*args))
    for cs in _random_contact_structures():
        inverted.clear()
        jp = contact_to_jacobi(cs)
        rows, m, scales = inverted[0]
        assert LinearMap.from_rows([[Fraction(row.get(j, 0), s) for j in range(m)]
                                    for row, s in zip(rows, scales)]) == flat_contact_reference(cs)
        assert check_jacobi(jp).passed and rank(jp) == cs.algebra.dim
        assert jacobi_to_contact(jp).eta == cs.eta


def test_lcs_roundtrips_on_random_algebras():
    rng = random.Random(2028)
    cases = []
    # every 2-form on an abelian algebra is closed, so a nondegenerate one is
    # symplectic
    for n in (2, 4, 6):
        for _ in range(100):
            omega = Form.from_terms(n, 2, {ij: mixed_fraction(rng)
                                           for ij in combinations(range(n), 2)})
            try:
                cases.append(LcsStructure(abelian(n), omega, Form.zero(n, 1)))
                break
            except ValueError:
                continue     # degenerate
    # dim 2: any nonzero 2-form with a closed Lee form
    sol = change_basis(catalog("solvable2"), random_basis(rng, 2), name="solvable2.mixed")
    lee = one_cocycles(sol).elements()[0].scale(mixed_fraction(rng) or 1)
    cases.append(LcsStructure(sol, fm(2, 2, {(0, 1): Fraction(-3, 7)}), lee))
    # l.c.s. pairs with a nonzero Lee form from contact pairs times a line
    for cs in _random_contact_structures()[::3]:
        cases.append(jacobi_to_lcs(lcs_from_contact_times_line(contact_to_jacobi(cs))))
    for ls in cases:
        jp = lcs_to_jacobi(ls)
        assert check_jacobi(jp).passed and rank(jp) == ls.algebra.dim
        back = jacobi_to_lcs(jp)
        assert back.omega2 == ls.omega2 and back.lee == ls.lee
    assert len(cases) == 8 and sum(not ls.lee.is_zero() for ls in cases) >= 4


def test_contact_maps_match_the_fraction_route():
    # contact_to_jacobi and jacobi_to_contact against invert, mat_vec and
    # from_columns: seeded rational forms on su2, and 100-digit forms on
    # heisenberg(1,1..3) in dense unimodular frames (dims 3, 5, 7)
    rng = random.Random(2032)
    big = lambda: Fraction(rng.randrange(-10 ** 100, 10 ** 100), rng.randrange(1, 10 ** 100))
    cases = [ContactStructure(catalog("su2"), Form.from_coeffs(
        [mixed_fraction(rng) or 1 for _ in range(3)])) for _ in range(20)]
    for k in (1, 2, 3):
        g = heisenberg(k)
        g = change_basis(g, unimodular_basis(rng, g.dim, 1), name=f"{g.name}.dense")
        cases += [ContactStructure(g, Form.from_coeffs([big() for _ in range(g.dim)]))
                  for _ in range(3)]
    for cs in cases:
        jp = contact_to_jacobi(cs)
        assert (jp.r, jp.x0) == contact_to_jacobi_reference(cs)
        assert jacobi_to_contact(jp).eta == jacobi_to_contact_reference(jp) == cs.eta


def test_lcs_maps_match_the_fraction_route():
    # lcs_to_jacobi and jacobi_to_lcs against invert and mat_vec: seeded
    # dense symplectic forms on abelian(n) for n = 2..16, and l.c.s.
    # structures with a nonzero Lee form from contact pairs times a line
    rng = random.Random(2033)
    cases = []
    for n in range(2, 17, 2):
        omega = Form.from_terms(n, 2, {ij: mixed_fraction(rng) or 1
                                       for ij in combinations(range(n), 2)})
        cases.append(LcsStructure(abelian(n), omega, Form.zero(n, 1)))
    for cs in _random_contact_structures()[::2]:
        cases.append(jacobi_to_lcs(lcs_from_contact_times_line(contact_to_jacobi(cs))))
    for ls in cases:
        jp = lcs_to_jacobi(ls)
        assert (jp.r, jp.x0) == lcs_to_jacobi_reference(ls)
        back = jacobi_to_lcs(jp)
        assert (back.omega2, back.lee) == jacobi_to_lcs_reference(jp) == (ls.omega2, ls.lee)
    assert sum(not ls.lee.is_zero() for ls in cases) >= 4


def test_degenerate_contact_and_lcs_forms_keep_their_messages():
    with pytest.raises(ValueError,
                       match=r"^eta \^ \(d eta\)\^k = 0: not an algebraic contact form$"):
        ContactStructure(abelian(3), Form.basis(3, 0))
    with pytest.raises(ValueError, match=r"^omega2 is degenerate: omega2\^k = 0$"):
        LcsStructure(abelian(4), fm(4, 2, {(0, 1): 1}), Form.zero(4, 1))


def _conformal_forms(g, lee):
    """Basis of the 2-forms omega with d(omega) = lee ^ omega, a linear
    condition on omega for a fixed Lee form."""
    pairs = list(combinations(range(g.dim), 2))
    triples = list(combinations(range(g.dim), 3))
    images = []
    for ij in pairs:
        e = Form.from_terms(g.dim, 2, {ij: 1})
        image = ce_differential(g, e) - wedge(lee, e)
        images.append([image.coefficient(t) for t in triples])
    system = [[image[t] for image in images] for t in range(len(triples))]
    return [Form.from_terms(g.dim, 2, dict(zip(pairs, v))) for v in linalg.nullspace(system)]


def test_lcs_roundtrips_on_seeded_conformal_forms():
    # non-abelian algebras of dim 4 and 6 in seeded mixed-denominator bases,
    # a seeded closed Lee form and a seeded 2-form among those with
    # d(omega) = lee ^ omega that the constructor accepts
    rng = random.Random(2029)
    u2, sol = catalog("u2"), catalog("solvable2")
    nonzero_lee = 0
    for g in (u2, catalog("gl2r"), direct_product(heisenberg(1), abelian(1)),
              direct_product(u2, sol), direct_product(sol, direct_product(sol, sol))):
        g = change_basis(g, random_basis(rng, g.dim), name=f"{g.name}.mixed")
        cocycles = one_cocycles(g).elements()
        found = 0
        for _ in range(60):
            lee = Form.zero(g.dim, 1)
            for c in cocycles:
                lee = lee + c.scale(rng.randint(-2, 2))
            omega = Form.zero(g.dim, 2)
            for f in _conformal_forms(g, lee):
                omega = omega + f.scale(mixed_fraction(rng))
            try:
                ls = LcsStructure(g, omega, lee)
            except ValueError:
                continue     # degenerate
            jp = lcs_to_jacobi(ls)
            assert check_jacobi(jp).passed and rank(jp) == g.dim
            back = jacobi_to_lcs(jp)
            assert (back.omega2, back.lee) == (ls.omega2, ls.lee)
            found += 1
            nonzero_lee += not lee.is_zero()
            if found == 4:
                break
        assert found, g.name
    assert nonzero_lee >= 16


def test_lcs_rank_test_matches_wedge_power():
    # omega^(n/2) != 0 exactly when the flat matrix of omega has full rank, in
    # even dimension n; on an abelian algebra every 2-form is closed, so
    # LcsStructure refuses exactly the degenerate ones
    rng = random.Random(2029)
    counts = {True: 0, False: 0}
    for case in range(240):
        n = (2, 4, 6, 8)[case % 4]
        if case % 3:
            # k decomposable terms: rank 2k at most, so degenerate for k < n/2
            omega = Form.zero(n, 2)
            for _ in range(rng.randint(1, n // 2)):
                a, b = (Form.from_coeffs([mixed_fraction(rng) for _ in range(n)]) for _ in "ab")
                omega = omega + wedge(a, b)
        else:
            omega = Form.from_terms(n, 2, {ij: mixed_fraction(rng)
                                           for ij in combinations(range(n), 2)
                                           if rng.random() < 0.4})
        if omega.is_zero():
            continue
        degenerate = wedge_power(omega, n // 2).is_zero()
        counts[degenerate] += 1
        assert (len(linalg.rref(_contraction(omega).rows)[1]) < n) == degenerate
        try:
            LcsStructure(abelian(n), omega, Form.zero(n, 1))
            assert not degenerate
        except ValueError as exc:
            assert degenerate and str(exc) == "omega2 is degenerate: omega2^k = 0"
    assert sum(counts.values()) >= 200 and min(counts.values()) >= 50


def test_lcs_dense_dim16_skips_the_wedge_power(monkeypatch):
    # nondegeneracy is a rank test: a dense dim-16 form takes no 8th power
    def refuse(*args):
        raise AssertionError("wedge_power called")
    monkeypatch.setattr(jacobi, "wedge_power", refuse)
    rng = random.Random(2030)
    n = 16
    omega = Form.from_terms(n, 2, {ij: mixed_fraction(rng) or 1
                                   for ij in combinations(range(n), 2)})
    ls = LcsStructure(abelian(n), omega, Form.zero(n, 1))
    jp = lcs_to_jacobi(ls)
    assert (jp.r, jp.x0) == lcs_to_jacobi_reference(ls)
    assert rank(jp) == n and jp.x0.is_zero()
    assert jacobi_to_lcs(jp).omega2 == omega
    # the same form with e^16 dropped is degenerate
    cut = Form.from_terms(n, 2, {ij: c for ij, c in omega.terms.items() if n - 1 not in ij})
    with pytest.raises(ValueError, match=r"omega2 is degenerate: omega2\^k = 0"):
        LcsStructure(abelian(n), cut, Form.zero(n, 1))


def test_contact_rejects_degenerate_form():
    with pytest.raises(ValueError):
        ContactStructure(abelian(3), Form.basis(3, 0))
    with pytest.raises(ValueError):
        ContactStructure(catalog("su2"), Form.zero(3, 1))
    # odd pairs of rank 2 and 1: no eta (the system is inconsistent), and
    # more than one
    for jp in (JacobiPair(abelian(3), mv(3, 2, {(0, 1): 1}), Multivector.zero(3, 1)),
               JacobiPair(catalog("su2"), Multivector.zero(3, 2), vec(3, 0))):
        assert check_jacobi(jp).passed and rank(jp) < 3
        with pytest.raises(ValueError, match="^jacobi pair does not have full odd rank$"):
            jacobi_to_contact(jp)


def test_lcs_symplectic_solvable2():
    g = catalog("solvable2")
    ls = LcsStructure(g, fm(2, 2, {(0, 1): -1}), Form.zero(2, 1))
    jp = lcs_to_jacobi(ls)
    assert jp.x0.is_zero()
    assert jp.r == mv(2, 2, {(0, 1): -1})
    assert check_jacobi(jp).passed
    back = jacobi_to_lcs(jp)
    assert back.omega2 == ls.omega2 and back.lee == ls.lee


def test_lcs_u2_family_lee_form():
    # full even rank pair on u(2); its Lee form is -e^4 for phi0 = e^4
    u2 = catalog("u2")
    jp = JacobiPair(u2, mv(4, 2, {(1, 2): 1, (0, 3): 1}), -vec(4, 0))
    assert check_jacobi(jp).passed
    assert rank(jp) == 4
    ls = jacobi_to_lcs(jp)
    assert ls.lee == -Form.basis(4, 3)
    assert ls.omega2 == fm(4, 2, {(0, 3): 1, (1, 2): 1})


def test_lcs_rejects_bad_data():
    g = abelian(4)
    with pytest.raises(ValueError):
        LcsStructure(g, fm(4, 2, {(0, 1): 1}), Form.zero(4, 1))  # degenerate
    # a pair of rank n - 2 on an even algebra, and a full-rank contact pair
    for jp, expected in ((JacobiPair(g, mv(4, 2, {(0, 1): 1}), Multivector.zero(4, 1)), 2),
                         (JacobiPair(catalog("su2"), mv(3, 2, {(1, 2): 1}), -vec(3, 0)), 3)):
        assert check_jacobi(jp).passed and rank(jp) == expected
        with pytest.raises(ValueError, match="^jacobi pair does not have full even rank$"):
            jacobi_to_lcs(jp)
    sol = catalog("solvable2")
    with pytest.raises(ValueError):
        # lee must be a cocycle: e^2 is, e^1 is not ([e1,e2]=e1)
        LcsStructure(sol, fm(2, 2, {(0, 1): -1}), Form.basis(2, 0))


def test_lcs_from_contact_times_line_matches_family():
    su2 = catalog("su2")
    contact_pair = contact_to_jacobi(ContactStructure(su2, -Form.basis(3, 0)))
    lifted = lcs_from_contact_times_line(contact_pair)
    assert lifted.algebra.dim == 4
    assert lifted.r == mv(4, 2, {(1, 2): 1, (0, 3): 1})
    assert lifted.x0 == -vec(4, 0)
    assert check_jacobi(lifted).passed
    assert rank(lifted) == 4
    assert jacobi_to_lcs(lifted).lee == -Form.basis(4, 3)
