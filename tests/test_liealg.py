"""Lie algebra layer: constructors, validation, invariants, constructions."""

import copy
import pickle
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from helpers import (
    ad_matrix,
    bracket_reference,
    compact_algebras,
    fm,
    invariant_scalar_product_reference,
    jacobiator_reference,
    mixed_algebras,
    mv,
    random_fraction,
    vec,
)
from liejacobi.bialgebra import GeneralizedBialgebra, check_glb
from liejacobi.catalog import catalog, catalog_names, heisenberg
from liejacobi.exterior import Multivector
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
    derivations,
    derived_algebra,
    direct_product,
    invariant_scalar_product,
    is_compact,
    is_derivation,
    killing_form,
    one_cocycles,
    restrict,
    restrict_bivector,
    semidirect_by_derivation,
    standard_labels,
)
from liejacobi.linalg import ZERO, identity, mat_mul, transpose


def test_constructor_rejects_malformed_input():
    with pytest.raises(ValueError):
        LieAlgebra("bad", 2, ("e1",), {})                 # label count
    with pytest.raises(ValueError):
        LieAlgebra("bad", 2, ("e1", "e1"), {})            # duplicate labels
    with pytest.raises(ValueError):
        LieAlgebra("bad", 2, ("e1", "e2"), {(1, 0): mv(2, 1, {(0,): 1})})
    with pytest.raises(ValueError):
        LieAlgebra("bad", 2, ("e1", "e2"), {(0, 1): mv(2, 1, {})})  # zero bracket
    with pytest.raises(ValueError):
        LieAlgebra("bad", 2, ("e1", "e2"), {(0, 0): mv(2, 1, {(0,): 1})})


def test_bracket_antisymmetric_and_bilinear():
    g = catalog("su2")
    x = mv(3, 1, {(0,): 2, (1,): -1})
    y = mv(3, 1, {(1,): 3, (2,): Fraction(1, 2)})
    assert g.bracket(x, y) == -g.bracket(y, x)
    z = vec(3, 0)
    assert g.bracket(x + z, y) == g.bracket(x, y) + g.bracket(z, y)
    assert g.bracket(x, x).is_zero()


def test_su2_brackets_cyclic():
    g = catalog("su2")
    e1, e2, e3 = (vec(3, i) for i in range(3))
    assert g.bracket(e1, e2) == e3
    assert g.bracket(e2, e3) == e1
    assert g.bracket(e3, e1) == e2


def test_validate_accepts_catalog_and_flags_seeded_violation():
    for name in ("su2", "sl2r", "u2", "gl2r", "solvable2", "solvable3_51"):
        entry = catalog(name)
        g = entry if isinstance(entry, LieAlgebra) else entry.g
        assert g.validate().passed
    # [e1,e2]=e3, [e1,e3]=e1 breaks Jacobi on (e1,e2,e3)
    bad = LieAlgebra("bad", 3, standard_labels(3),
                     {(0, 1): vec(3, 2), (0, 2): vec(3, 0)})
    report = bad.validate()
    assert not report.passed
    assert report.violations[0][0] == (0, 1, 2)
    assert "fails" in report.describe()


def test_validate_matches_bracket_composition():
    lie, non_lie = mixed_algebras()
    for g in lie + non_lie:
        expected = tuple(((i, j, k), res) for i, j, k in combinations(range(g.dim), 3)
                         if not (res := jacobiator_reference(g, i, j, k)).is_zero())
        assert g.validate().violations == expected, g.name
        assert g.validate().passed == (g in lie)
    # the residuals carry the mixed denominators
    assert any(c.denominator > 1 for g in non_lie for _, res in g.validate().violations
               for c in res.terms.values())


def test_table_holds_integers_over_the_lcm():
    g = LieAlgebra.from_brackets("t", 3, {(0, 1): [Fraction(1, 2), 0, Fraction(5, 7)],
                                          (1, 2): [0, Fraction(2, 3), 0]})
    den, table = g._ad
    assert den == 42
    assert table[0][1] == {0: 21, 2: 30} and table[1][0] == {0: -21, 2: -30}
    assert table[1][2] == {1: 28} and 2 not in table[0]


def test_center_derived_annihilator():
    h = heisenberg(1)
    assert center(h).rank == 1
    assert center(h).contains_element(vec(3, 2))
    assert derived_algebra(h).rank == 1
    assert center(catalog("su2")).rank == 0
    assert derived_algebra(catalog("su2")).rank == 3
    ann = annihilator(derived_algebra(h))
    assert ann.rank == 2 and ann.dual


def test_one_cocycles_are_closed_forms():
    from liejacobi.schouten import ce_differential
    for name in ("su2", "solvable2", "h11", "semidirect4_53"):
        entry = catalog(name)
        g = entry if isinstance(entry, LieAlgebra) else entry.g
        space = one_cocycles(g)
        for row in space.rows:
            from liejacobi.exterior import Form
            phi = Form.from_coeffs(list(row))
            assert ce_differential(g, phi).is_zero()
    assert one_cocycles(catalog("su2")).rank == 0
    assert one_cocycles(abelian(4)).rank == 4


def test_killing_form_su2_is_minus_two_identity():
    k = killing_form(catalog("su2")).rows
    assert k == [[Fraction(-2 if i == j else 0) for j in range(3)] for i in range(3)]


def test_killing_form_symmetric_and_invariant():
    for name in ("sl2r", "gl2r", "solvable2"):
        g = catalog(name)
        k = killing_form(g).rows
        n = g.dim
        assert all(k[i][j] == k[j][i] for i in range(n) for j in range(n))
        # K([x,y],z) + K(y,[x,z]) = 0 on basis triples
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    x, y, z = vec(n, a), vec(n, b), vec(n, c)
                    first = sum(g.bracket(x, y).coefficient((i,)) * k[i][c]
                                for i in range(n))
                    second = sum(g.bracket(x, z).coefficient((i,)) * k[b][i]
                                 for i in range(n))
                    assert first + second == 0


def test_compactness_judgements():
    assert is_compact(catalog("su2")).compact
    assert is_compact(catalog("u2")).compact
    assert is_compact(abelian(4)).compact
    assert not is_compact(catalog("sl2r")).compact
    assert not is_compact(catalog("gl2r")).compact
    assert not is_compact(heisenberg(1)).compact
    assert not is_compact(catalog("solvable2")).compact
    assert "negative definite on derived: False" in is_compact(catalog("sl2r")).describe()


def test_compactness_survives_change_of_basis():
    # congruence must not fool the Killing criterion
    p = [[Fraction(x) for x in row] for row in ((1, 1, 0), (0, 1, 1), (0, 0, 1))]
    twisted = change_basis(catalog("su2"), p, name="su2.skew")
    assert twisted.validate().passed
    assert is_compact(twisted).compact


def test_invariant_scalar_product():
    g = catalog("u2")
    product = invariant_scalar_product(g).rows
    n = g.dim
    for a in range(n):
        for b in range(n):
            assert product[a][b] == product[b][a]
    # positive definite
    from liejacobi.linalg import is_definite
    assert is_definite(product, positive=True)[0]
    # ad-invariance: <[x,y],z> + <y,[x,z]> = 0
    for a in range(n):
        for b in range(n):
            for c in range(n):
                x, y, z = vec(n, a), vec(n, b), vec(n, c)
                first = sum(g.bracket(x, y).coefficient((i,)) * product[i][c]
                            for i in range(n))
                second = sum(g.bracket(x, z).coefficient((i,)) * product[b][i]
                             for i in range(n))
                assert first + second == 0
    with pytest.raises(ValueError):
        invariant_scalar_product(catalog("sl2r"))


def test_invariant_scalar_product_matches_adapted_route():
    # -K + Q^T Q equals the congruence P^-T diag(-K_d, I) P^-1 exactly
    for g in compact_algebras():
        assert invariant_scalar_product(g) == invariant_scalar_product_reference(g), g.name


def test_direct_product_brackets():
    g = direct_product(catalog("su2"), abelian(2))
    assert g.dim == 5
    assert g.validate().passed
    assert g.bracket(vec(5, 0), vec(5, 1)) == vec(5, 2)
    assert g.bracket(vec(5, 0), vec(5, 3)).is_zero()
    assert g.bracket(vec(5, 3), vec(5, 4)).is_zero()
    assert center(g).rank == 2


def test_central_extension_heisenberg():
    h = heisenberg(2)     # dim 5, [e1,e2] = [e3,e4] = e5
    assert h.dim == 5
    assert h.validate().passed
    assert h.bracket(vec(5, 0), vec(5, 1)) == vec(5, 4)
    assert h.bracket(vec(5, 2), vec(5, 3)) == vec(5, 4)
    assert h.bracket(vec(5, 0), vec(5, 2)).is_zero()
    assert center(h).rank == 1
    # non-closed 2-form is rejected
    base = catalog("semidirect4_53").g
    omega = fm(4, 2, {(0, 2): 1})
    with pytest.raises(ValueError):
        central_extension(base, omega)


def test_semidirect_by_derivation():
    base = abelian(3)
    psi = LinearMap.from_rows([[Fraction(1, 2), Fraction(0), Fraction(0)],
                               [Fraction(0), Fraction(1, 2), Fraction(0)],
                               [Fraction(0), Fraction(0), Fraction(1)]])
    assert is_derivation(base, psi)
    g = semidirect_by_derivation(base, psi)
    assert g.dim == 4 and g.validate().passed
    assert g.bracket(vec(4, 0), vec(4, 3)) == vec(4, 0).scale(Fraction(-1, 2))
    assert g.bracket(vec(4, 2), vec(4, 3)) == -vec(4, 2)
    # non-derivations are rejected
    rot = LinearMap.from_rows([[Fraction(0), Fraction(-1), Fraction(0)],
                               [Fraction(1), Fraction(0), Fraction(0)],
                               [Fraction(0), Fraction(0), Fraction(1)]])
    assert not is_derivation(catalog("su2"), rot)
    with pytest.raises(ValueError):
        semidirect_by_derivation(catalog("su2"), rot)


def test_derivations_of_su2_are_inner():
    ders = derivations(catalog("su2"))
    assert len(ders) == 3
    g = catalog("su2")
    for d in ders:
        assert is_derivation(g, d)
    assert len(derivations(abelian(2))) == 4


def test_change_basis_preserves_structure():
    g = catalog("sl2r")
    p = [[Fraction(x) for x in row] for row in ((1, 0, 1), (0, 1, 0), (0, 1, 1))]
    h = change_basis(g, p)
    assert h.validate().passed
    from liejacobi.linalg import determinant
    assert determinant(killing_form(h).rows) == determinant(killing_form(g).rows)


def test_restrict_full_basis_matches_change_basis():
    p = [[1, 0, 1], [0, 1, 0], [0, 1, 1]]
    q = [[1, 1, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 2], [0, 0, 0, 1, 0], [0, 0, 1, 0, 1]]
    for g, cols in ((catalog("su2"), p), (heisenberg(2), q)):
        cols = [[Fraction(x) for x in row] for row in cols]
        h = restrict(g, transpose(cols), "h")
        assert h.structure == change_basis(g, cols).structure
        assert h.basis_labels == standard_labels(g.dim)


def test_restrict_rejects_span_that_is_not_closed():
    with pytest.raises(ValueError, match=r"not bracket-closed: \[e1, e2\] = e3 lies outside"):
        restrict(catalog("su2"), [[1, 0, 0], [0, 1, 0]], "h")


def test_coordinates_and_restrict_bivector():
    basis = [[1, 1, 0], [0, 1, 1]]
    assert coordinates(basis, [2, 5, 3]) == [2, 3]
    assert coordinates(basis, [1, 0, 0]) is None
    # e1 ^ e2 + e1 ^ e3 + e2 ^ e3 = (e1 + e2) ^ (e2 + e3)
    r = mv(3, 2, {(0, 1): 1, (0, 2): 1, (1, 2): 1})
    assert restrict_bivector(r.scale(4), basis) == mv(2, 2, {(0, 1): 4})
    assert restrict_bivector(mv(3, 2, {(0, 1): 1}), basis) is None


def test_restrict_bivector_on_spans_below_two():
    assert restrict_bivector(mv(3, 2, {}), [[1, 1, 0]]) == Multivector.zero(1, 1)
    assert restrict_bivector(mv(3, 2, {}), [[1, 1, 0]]).grade == 1
    assert restrict_bivector(mv(3, 2, {}), []).grade == 0
    assert restrict_bivector(mv(3, 2, {(0, 1): 1}), [[1, 1, 0]]) is None
    assert restrict_bivector(mv(3, 2, {(0, 1): 1}), []) is None


def _catalog_algebras():
    algebras = [heisenberg(n) for n in (1, 2, 3)] + [abelian(3)]
    for name in catalog_names():
        if "(" in name:
            continue
        entry = catalog(name)
        if isinstance(entry, LieAlgebra):
            algebras.append(entry)
        elif isinstance(entry, GeneralizedBialgebra):
            algebras += [entry.g, entry.g_star]
        else:
            algebras.append(entry.g)
    return algebras


def _dense_unimodular(n: int, seed: int):
    """Columns of a dense integer matrix with determinant 1 (lower times upper unit triangular)."""
    rng = random.Random(seed)
    lower, upper = identity(n), identity(n)
    for i in range(n):
        for j in range(i):
            lower[i][j] = Fraction(rng.choice((-2, -1, 1, 2)))
            upper[j][i] = Fraction(rng.choice((-2, -1, 1, 2)))
    return mat_mul(lower, upper)


def _dense_killing(g: LieAlgebra):
    # the reference route: tr(ad_{e_i} ad_{e_j}) through dense matrix products
    ads = [ad_matrix(g, g.basis_vector(i)) for i in range(g.dim)]
    return tuple(tuple(sum((row[t] for t, row in enumerate(mat_mul(ads[i], ads[j]))), ZERO)
                       for j in range(g.dim)) for i in range(g.dim))


def test_killing_form_matches_dense_ad_route():
    su2_r2 = direct_product(catalog("su2"), abelian(2))
    lie, non_lie = mixed_algebras()
    algebras = lie + non_lie + _catalog_algebras() + [
        change_basis(su2_r2, _dense_unimodular(5, 1)),
        change_basis(heisenberg(3), _dense_unimodular(7, 2)),
    ]
    for g in algebras:
        assert killing_form(g).matrix == _dense_killing(g), g.name
    # the dense bases are dense enough to exercise every table entry
    assert all(len(v.terms) > 1 for v in algebras[-1].structure.values())
    assert killing_form(algebras[-2]).is_symmetric()
    assert any(x != 0 for row in killing_form(algebras[-2]).matrix for x in row)
    # the mixed denominators reach the form
    assert any(x.denominator > 1 for g in lie + non_lie for row in killing_form(g).matrix
               for x in row)


def test_bracket_matches_basis_expansion():
    rng = random.Random(7)
    lie, non_lie = mixed_algebras()
    for g in (_catalog_algebras() + [change_basis(heisenberg(2), _dense_unimodular(5, 3))]
              + lie + non_lie):
        for _ in range(5):
            a = [random_fraction(rng) for _ in range(g.dim)]
            b = [random_fraction(rng) for _ in range(g.dim)]
            expected = g.zero_vector()
            for i in range(g.dim):
                for j in range(g.dim):
                    expected = expected + (a[i] * b[j]) * g.bracket_basis(i, j)
            x, y = Multivector.from_coeffs(a), Multivector.from_coeffs(b)
            assert g.bracket(x, y) == expected == bracket_reference(g, x, y), g.name


def test_structure_is_read_only_and_replace_builds_a_new_table():
    g = catalog("su2")
    with pytest.raises(TypeError):
        g.structure[(0, 1)] = vec(3, 0)
    source = {(0, 1): vec(3, 2)}
    h = LieAlgebra("h", 3, standard_labels(3), source)
    source[(0, 2)] = vec(3, 1)          # the algebra keeps its own copy
    assert list(h.structure) == [(0, 1)] and h.bracket(vec(3, 0), vec(3, 2)).is_zero()
    for copied in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert copied == g and copied.bracket(vec(3, 0), vec(3, 1)) == vec(3, 2)
    # the same change as the broken-dual CLI case, after the table was built
    b = catalog("noncob4_53")
    assert check_glb(b).passed
    structure = dict(b.g_star.structure)
    structure[(0, 3)] = structure[(0, 3)].scale(3)
    broken_star = replace(b.g_star, structure=structure)
    assert broken_star.bracket(vec(4, 0), vec(4, 3)) == vec(4, 3).scale(3)
    assert b.g_star.bracket(vec(4, 0), vec(4, 3)) == vec(4, 3)
    assert not check_glb(GeneralizedBialgebra(b.g, broken_star, b.phi0, b.x0)).passed


def test_subspace_membership():
    s = Subspace.from_vectors(3, [[1, 0, 0], [0, 1, 0]])
    assert s.rank == 2
    assert s.contains_element(mv(3, 1, {(0,): 1, (1,): -2}))
    assert not s.contains_element(vec(3, 2))


def test_dual_labels():
    g = catalog("su2")
    assert g.dual_labels == ("e^1", "e^2", "e^3")
