"""Lie algebra layer: constructors, validation, invariants, constructions."""

import copy
import pickle
import random
from dataclasses import replace
from functools import partial
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest

from helpers import (
    ad_matrix,
    annihilator_reference,
    bracket_jacobiator_reference,
    center_reference,
    bracket_reference,
    change_basis_reference,
    compact_algebras,
    contains_reference,
    coordinates_reference,
    dense_frame,
    dense_heisenberg_bialgebras,
    derivations_reference,
    derived_algebra_reference,
    determinant,
    fm,
    invariant_scalar_product_reference,
    is_compact_reference,
    is_definite_reference,
    is_derivation_reference,
    jacobiator_reference,
    jacobiator_sums_reference,
    killing_form_reference,
    mat_vec_reference,
    mixed_algebras,
    mixed_fraction,
    mv,
    random_basis,
    random_element,
    random_fraction,
    restrict_bivector_reference,
    restrict_reference,
    seeded_brackets,
    unimodular_basis,
    vec,
)
from liejacobi.bialgebra import (
    GeneralizedBialgebra,
    YbData,
    _classify_semidirect,
    build_dual_bracket,
    build_semidirect_glb,
    check_glb,
    glb_from_cocycle,
)
from liejacobi.catalog import catalog, catalog_names, heisenberg
from liejacobi import exterior, liealg, linalg
from liejacobi.exterior import Form, Multivector, wedge
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    _gram,
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
from liejacobi.linalg import ONE, ZERO, identity, mat_mul, rref, transpose


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
                         if not (res := bracket_jacobiator_reference(g, i, j, k)).is_zero())
        assert g.validate().violations == expected, g.name
        assert g.validate().passed == (g in lie)
    # the residuals carry the mixed denominators
    assert any(c.denominator > 1 for g in non_lie for _, res in g.validate().violations
               for c in res.terms.values())


def test_validate_matches_per_call_table_sums():
    lie, non_lie = mixed_algebras()
    for g in _catalog_algebras() + lie + non_lie:
        assert g.validate() == jacobiator_reference(g), g.name
    assert all(not g.validate().passed for g in non_lie)


def test_validate_sums_once_and_builds_fresh_residuals(monkeypatch):
    # the sums are kept with the algebra; every call builds its own
    # residual elements, as many as the report holds
    built, sweeps = [], []
    post_init, triples = exterior._Element.__post_init__, liealg.combinations
    def counting(self):
        built.append(self)
        post_init(self)
    def sweep(items, k):
        sweeps.append(k)
        return triples(items, k)
    monkeypatch.setattr(exterior._Element, "__post_init__", counting)
    monkeypatch.setattr(liealg, "combinations", sweep)
    for g in mixed_algebras()[1]:
        sweeps.clear()
        reports, counts = [], []
        for _ in range(3):
            built.clear()
            reports.append(g.validate())
            counts.append(len(built))
        assert sweeps == [3]            # one pass over the basis triples
        assert counts == [len(reports[0].violations)] * 3 and counts[0] > 0
        assert reports[0] == reports[1] == reports[2] == jacobiator_reference(g)
        for a, b in zip(reports[0].violations, reports[1].violations):
            assert a[1] is not b[1]


def test_copies_sum_their_own_jacobiator():
    g = mixed_algebras()[1][0]
    g.validate()
    sums = g._jacobiator
    structure = dict(g.structure)
    structure[(0, 1)] = structure[(0, 1)].scale(2)
    copies = [g.rename("renamed"), replace(g, name="replaced"),
              pickle.loads(pickle.dumps(g)), replace(g, structure=structure)]
    for h in copies:
        assert "_jacobiator" not in vars(h)
        assert h.validate() == jacobiator_reference(h)
        assert h._jacobiator is not sums
    assert [h._jacobiator == sums for h in copies] == [True, True, True, False]
    assert copies[0].validate().describe().startswith("renamed:")


def _packing_inputs():
    """(Lie algebras, other brackets) for the packed Jacobi sums: seeded
    sparse and dense brackets of dims 0-9, Lie algebras of dims 0-9 as given
    and in seeded dense bases, 100-digit numerators over one 100-digit
    denominator, and brackets whose every structure constant is M, or +-M
    with a Jacobi sum near the slot bound."""
    rng = random.Random(2019)
    su2 = catalog("su2")
    lie = [abelian(n) for n in range(10)]
    for g in (su2, catalog("u2"), heisenberg(2), direct_product(su2, abelian(3)), heisenberg(3),
              direct_product(direct_product(su2, su2), abelian(2)), heisenberg(4)):
        lie += [g, change_basis(g, random_basis(rng, g.dim), name=f"{g.name}.dense")]
    other = []
    den = rng.randrange(10 ** 99, 10 ** 100)
    big = lambda: Fraction(rng.choice((-1, 1)) * rng.randrange(10 ** 99, 10 ** 100), den)
    for dim in range(10):
        for name, p, coeff in (("sparse", 0.3, lambda: mixed_fraction(rng)),
                               ("dense", 1.0, lambda: mixed_fraction(rng)),
                               ("digits", 1.0, big)):
            structure = {}
            for ij in combinations(range(dim), 2):
                v = Multivector.from_coeffs([coeff() if rng.random() < p else 0
                                             for _ in range(dim)])
                if not v.is_zero():
                    structure[ij] = v
            other.append(LieAlgebra(f"{name}{dim}", dim, standard_labels(dim), structure))
        for m in (1, 7, 10 ** 100 - 1):
            rows = {ij: [m] * dim for ij in combinations(range(dim), 2)}
            other.append(LieAlgebra.from_brackets(f"all{m}.{dim}", dim, rows))
            if dim >= 3:
                # signs that make component 0 of the sum on (e1, e2, e3)
                # (3 dim - 5) m^2, against the slot bound 3 dim m^2
                rows[(0, 1)] = [m, m, m] + [-m] * (dim - 3)
                rows[(1, 2)] = [m] + [-m] * (dim - 1)
                other.append(LieAlgebra.from_brackets(f"signed{m}.{dim}", dim, rows))
    return lie, other


def test_packed_jacobi_sums_match_the_triple_loop():
    # the sums taken on packed rows equal, entry for entry, the ones summed
    # one product at a time, on inputs built like the coboundary-solve
    # benchmark's and on every catalog algebra and dual too
    lie, other = _packing_inputs()
    lie += [g for pair in dense_heisenberg_bialgebras(range(6)) for g in pair]
    # the duals of the catalog bialgebras are among _catalog_algebras
    entries = [catalog(name) for name in catalog_names() if "(" not in name]
    lie += _catalog_algebras() + [build_dual_bracket(entry) for entry in entries
                                  if isinstance(entry, YbData)]
    for g in lie + other:
        assert g._jacobiator == jacobiator_sums_reference(g), g.name
    assert all(g._jacobiator == () for g in lie)
    failing = [g for g in other if g._jacobiator]
    assert {g.name for g in failing} >= {f"{name}{dim}" for name in ("dense", "digits")
                                         for dim in range(3, 10)}
    # the inputs reach near the slot bound and past 198 digits
    signed = next(g for g in failing if g.name == "signed7.9")
    assert signed._jacobiator[0][1][0] == 22 * 7 ** 2
    digits = next(g for g in failing if g.name == "digits9")
    assert max(abs(v) for _, acc in digits._jacobiator for v in acc.values()) > 10 ** 198
    for g in failing:
        assert g.validate() == jacobiator_reference(g), g.name
        assert not g.validate().passed


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


def test_center_matches_reference():
    # the center solved on integer rows of the table equals the nullspace of
    # the bracket components, as the same reduced Subspace, on Lie algebras
    # and on seeded brackets that are not Lie
    algebras = (compact_algebras() + _catalog_algebras() + sum(mixed_algebras(), [])
                + [abelian(n) for n in range(4)] + [LieAlgebra("zero", 0, ())])
    for g in algebras:
        assert center(g) == center_reference(g), g.name
    assert {center(abelian(n)).rank for n in range(4)} == {0, 1, 2, 3}


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


def test_reports_are_true_exactly_when_they_pass():
    non_lie = LieAlgebra.from_brackets("bad", 3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
    assert bool(catalog("su2").validate()) is True and bool(non_lie.validate()) is False
    assert bool(is_compact(catalog("u2"))) is True
    assert bool(is_compact(catalog("sl2r"))) is False


def test_linear_map_integer_form_matches_fraction_products():
    # a map keeps the integer form of its matrix from construction, and its
    # products share one int kernel with mat_vec; the references multiply
    # Fractions entry by entry, on small mixed denominators, on independent
    # 100-digit numerators and denominators, and on maps with no rows
    # (0 x n) or no columns (n x 0)
    rng = random.Random(47)
    big = lambda: Fraction(rng.randrange(-10 ** 100, 10 ** 100), rng.randrange(1, 10 ** 100))
    for entry in (lambda: mixed_fraction(rng), lambda: big() if rng.random() < 0.7 else ZERO):
        for rows, cols in ((3, 3), (4, 2), (2, 5), (1, 1), (5, 1)):
            a = [[entry() for _ in range(cols)] for _ in range(rows)]
            f = LinearMap.from_rows(a)
            den = lcm(*(x.denominator for row in a for x in row))
            assert f._ints == (den, tuple(tuple(x.numerator * (den // x.denominator) for x in row)
                                          for row in a))
            for v in ([entry() for _ in range(cols)], [ZERO] * cols,
                      [Fraction(10 ** 90 + 1, 7)] + [ZERO] * (cols - 1)):
                image = mat_vec_reference(a, v)
                assert f.apply(v) == linalg.mat_vec(a, v) == image
                assert all(type(x) is Fraction for x in f.apply(v))
                for cls in (Multivector, Form):
                    assert f.apply_element(cls.from_coeffs(v)) == cls.from_coeffs(image)
                w = [entry() for _ in range(rows)]
                assert f.transpose().apply(w) == mat_vec_reference(transpose(a), w)
                if rows == cols:
                    assert f.value(w, v) == sum((x * y for x, y in zip(w, image)), ZERO)
    with pytest.raises(ValueError):
        f.apply_element(Multivector.from_terms(2, 2, {(0, 1): 1}))
    for n in (1, 3):
        no_rows, no_columns = LinearMap.from_rows([]), LinearMap.from_rows([[]] * n)
        assert no_rows._ints == (1, ()) and no_columns._ints == (1, ((),) * n)
        v = [big() for _ in range(n)]
        assert no_rows.apply(v) == linalg.mat_vec([], v) == []
        assert no_columns.apply([]) == linalg.mat_vec([[]] * n, []) == [ZERO] * n
        assert no_rows.apply_element(Multivector.from_coeffs(v)) == Multivector.zero(0, 0)
        assert no_columns.apply_element(Form.zero(0, 0)) == Form.zero(n, 1)
        assert no_columns.transpose() == no_rows


def test_gram_matrices_and_killing_pivots_match_fraction_route():
    verdicts = set()
    for g in compact_algebras() + mixed_algebras()[0]:
        report = is_compact(g)
        verdicts.add(report.killing_definite)
        k = killing_form(g)
        vectors = [list(r) for r in report.derived.rows]
        gram = [[sum((v[i] * k.matrix[i][j] * w[j] for i in range(g.dim) for j in range(g.dim)),
                     ZERO) for w in vectors] for v in vectors]
        den, ints = _gram(g, report.derived._reduced)
        assert [[Fraction(x, den) for x in row] for row in ints] == gram
        assert ((report.killing_definite, list(report.killing_pivots))
                == is_definite_reference(gram, positive=False))
    assert verdicts == {True, False}


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
    # -K + Q^T Q equals the congruence P^-T diag(-K_d, I) P^-1 exactly, on
    # the compact algebras in their own, seeded rational and dense
    # unimodular bases
    su2 = catalog("su2")
    dense = [change_basis(g, _dense_unimodular(g.dim, seed), name=f"{g.name}.dense")
             for seed, g in enumerate((su2, catalog("u2"), direct_product(su2, abelian(2)),
                                       direct_product(direct_product(su2, su2), abelian(2))))]
    for g in compact_algebras() + dense:
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


def test_derivations_match_the_element_route():
    # the Leibniz rows read from the table against the element route, on
    # Lie and non-Lie brackets: the same basis, and the same verdict on it
    # and on a seeded matrix
    rng = random.Random(131)
    lie, non_lie = mixed_algebras()
    named = _catalog_algebras() + [build_dual_bracket(catalog(name)) for name in
                                   ("solvable3_51", "h11", "semidirect4_53")]
    algebras = named + lie + non_lie + [abelian(n) for n in range(4)]
    algebras += [change_basis(g, random_basis(rng, g.dim), name=f"{g.name}.mixed")
                 for g in named]
    assert len(algebras) == 60
    for g in algebras:
        ders = derivations(g)
        assert ders == derivations_reference(g), g.name
        n = g.dim
        seeded = LinearMap.from_rows([[mixed_fraction(rng) for _ in range(n)] for _ in range(n)])
        for psi in ders + [seeded]:
            assert is_derivation(g, psi) == is_derivation_reference(g, psi), g.name


def test_is_derivation_needs_a_matrix_of_the_algebra_dimension():
    su2 = catalog("su2")
    for rows in (identity(2), identity(4), identity(3)[:2]):
        with pytest.raises(ValueError, match="^a derivation of su2 needs a 3 x 3 matrix$"):
            is_derivation(su2, LinearMap.from_rows(rows))
    with pytest.raises(ValueError, match="3 x 3"):
        semidirect_by_derivation(su2, LinearMap.identity(2))


def test_change_basis_preserves_structure():
    g = catalog("sl2r")
    p = [[Fraction(x) for x in row] for row in ((1, 0, 1), (0, 1, 0), (0, 1, 1))]
    h = change_basis(g, p)
    assert h.validate().passed
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


def test_maps_and_bases_of_the_wrong_shape_raise():
    # each of these once returned a value: a different matrix, an image in
    # the wrong dimension, a truncated sum or coordinates of a truncated
    # vector; the basis solvers raised IndexError.  A map built directly
    # from ragged rows once kept them as its integer form
    g = catalog("su2")
    for call in (lambda: LinearMap.from_rows([[1, 2], [3], [4, 5]]),
                 lambda: LinearMap(((1, 2), (3,)))._ints,
                 lambda: LinearMap(((1, 2), (3,), (4, 5, 6)))._ints,
                 lambda: LinearMap(((1,), (2, 3))).apply([1]),
                 lambda: LinearMap.from_columns([[1], [2, 3]]),
                 lambda: LinearMap.identity(3).apply_element(Multivector.from_coeffs([1, 2])),
                 lambda: LinearMap.identity(3).apply_element(Multivector.zero(2, 1)),
                 lambda: LinearMap.from_rows([[1, 2, 3]]).apply([1, 2]),
                 lambda: LinearMap.identity(2).add(LinearMap.identity(3)),
                 lambda: LinearMap.identity(2).value([1, 2], [1, 2, 3]),
                 lambda: LinearMap.identity(2).value([1, 2, 3], [1, 2]),
                 lambda: coordinates([[1, 0, 0]], [1, 0]),
                 lambda: coordinates([[1, 0]], [1, 0, 0]),
                 lambda: restrict(g, [[1, 0]], "short"),
                 lambda: restrict(g, [[1, 0, 0, 0]], "long"),
                 lambda: change_basis(abelian(3), [[1, 0], [0, 1], [0, 0]]),
                 lambda: change_basis(g, [[1, 0, 0], [0, 1], [0, 0, 1]]),
                 lambda: restrict_bivector(mv(3, 2, {(0, 1): 1}), [[1, 0], [0, 1]]),
                 lambda: restrict_bivector(mv(3, 2, {(0, 1): 1}), [[1, 0, 0], [0, 1, 0, 0]])):
        with pytest.raises(ValueError):
            call()
    # a map or basis with no rows keeps its results
    assert coordinates([], [0, 0, 0]) == [] and coordinates([], [1, 0, 0]) is None
    assert restrict_bivector(Multivector.zero(3, 2), []) == Multivector.zero(0, 0)
    assert LinearMap.from_rows([]).apply([1, 2]) == []
    assert LinearMap.from_rows([]).apply_element(Multivector.from_coeffs([1, 2])).dim == 0
    assert LinearMap.from_rows([]).value([], [1, 2]) == 0
    # well-shaped inputs are unchanged
    assert LinearMap(((1, 2), (3, 4)))._ints == (1, ((1, 2), (3, 4)))
    assert LinearMap.identity(2).value([1, 2], [3, 4]) == 11
    assert LinearMap.identity(2).add(LinearMap.identity(2)) == LinearMap.identity(2).scale(2)


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
    k = killing_form(algebras[-2]).rows
    assert k == transpose(k)
    assert any(x != 0 for row in k for x in row)
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
    s = Subspace(3, [[1, 0, 0], [0, 1, 0]])
    assert s.rank == 2
    assert s.contains_element(mv(3, 1, {(0,): 1, (1,): -2}))
    assert not s.contains_element(vec(3, 2))


def test_subspace_checks_element_kinds():
    # a covector is no member of a subspace of vectors, nor a vector of a
    # dual one, and one subspace is spanned by elements of one kind and
    # dimension
    z = center(catalog("u2"))
    with pytest.raises(TypeError):
        z.contains_element(Form.basis(4, 3))
    with pytest.raises(TypeError):
        one_cocycles(catalog("u2")).contains_element(Multivector.basis(4, 3))
    with pytest.raises(TypeError):
        Subspace.from_elements([Form.basis(4, 0), Multivector.basis(4, 1)])
    with pytest.raises(TypeError):
        Subspace.from_elements([Multivector.basis(4, 0), Form.basis(4, 1)])
    with pytest.raises(ValueError):
        Subspace.from_elements([Multivector.basis(4, 0), Multivector.basis(3, 1)])
    with pytest.raises(ValueError):
        z.contains_element(Multivector.basis(3, 0))
    with pytest.raises(ValueError):
        z.contains_element(mv(4, 2, {(0, 1): 1}))
    with pytest.raises(ValueError):
        Subspace.from_elements([Multivector.basis(4, 0), mv(4, 2, {(0, 1): 1})])
    assert z.contains_element(Multivector.basis(4, 3))
    assert z.contains_element(Multivector.zero(4, 2))      # zero is of every grade
    s = Subspace.from_elements([Form.basis(4, 0), Form.zero(4, 3), Form.basis(4, 1)])
    assert s.dual and s.rank == 2
    assert s.contains_element(Form.basis(4, 1)) and not s.contains_element(Form.basis(4, 2))


def test_dual_labels():
    g = catalog("su2")
    assert g.dual_labels == ("e^1", "e^2", "e^3")


# One left inverse per basis: coordinates, restrict, restrict_bivector and
# change_basis read the integer form of L from linalg._inverse on the matrix
# B of the basis and accept L v only when B (L v) == v.  They must agree exactly with the
# reference routes in helpers, which solve one system per vector or 2-vector.

def _outcome(fn, *args):
    # the result, or the message of the ValueError raised
    try:
        return fn(*args)
    except ValueError as exc:
        return str(exc)


def _basis_cases():
    """(algebra, basis): catalog algebras, heisenberg(1, n) and seeded
    mixed-denominator algebras, each with the identity, a seeded
    mixed-denominator and a dense unimodular family, the first 0, 1, 2 and
    n - 1 vectors of each (spans that are mostly not bracket-closed), and the
    rows of the center and the derived algebra."""
    rng = random.Random(61)
    su2_r2 = direct_product(catalog("su2"), abelian(2))
    cases = []
    for g in (_catalog_algebras() + mixed_algebras()[0]
              + [change_basis(su2_r2, _dense_unimodular(5, 4))]):
        n = g.dim
        for family in (identity(n), transpose(random_basis(rng, n)),
                       transpose(_dense_unimodular(n, n))):
            cases += [(g, [list(v) for v in family[:k]]) for k in sorted({0, 1, 2, n - 1, n})]
        cases += [(g, [list(r) for r in s.rows]) for s in (center(g), derived_algebra(g))]
    return cases


def _same_bivector(got, want):
    return got == want and (got is None or (got.dim, got.grade) == (want.dim, want.grade))


def test_coordinate_solvers_match_reference_routes():
    rng = random.Random(62)
    closed = opened = inside = outside = wedge_inside = wedge_outside = 0
    for g, basis in _basis_cases():
        n, k = g.dim, len(basis)
        got = _outcome(restrict, g, basis, "h")
        assert got == _outcome(restrict_reference, g, basis, "h"), (g.name, basis)
        closed += isinstance(got, LieAlgebra)
        opened += isinstance(got, str)
        if k == n:
            cols = transpose(basis)
            assert change_basis(g, cols) == change_basis_reference(g, cols)
            assert change_basis(g, cols, "moved") == change_basis_reference(g, cols, "moved")
        weights = [mixed_fraction(rng) for _ in basis]
        combination = [sum((w * b[i] for w, b in zip(weights, basis)), ZERO) for i in range(n)]
        for v in (combination, [mixed_fraction(rng) for _ in range(n)], [ZERO] * n):
            got = coordinates(basis, v)
            assert got == coordinates_reference(basis, v), (g.name, basis, v)
            inside += got is not None and any(v)
            outside += got is None
        if n < 2:
            continue
        vectors = [Multivector.from_coeffs(b) for b in basis]
        wedges = Multivector.zero(n, 2)
        for a, c in combinations(range(k), 2):
            wedges = wedges + wedge(vectors[a], vectors[c]).scale(mixed_fraction(rng))
        for r in (wedges, random_element(rng, Multivector, n, 2, terms=3), Multivector.zero(n, 2)):
            got = restrict_bivector(r, basis)
            assert _same_bivector(got, restrict_bivector_reference(r, basis)), (g.name, basis, r)
            wedge_inside += got is not None and not r.is_zero()
            wedge_outside += got is None
    assert min(closed, opened, inside, outside, wedge_inside, wedge_outside) > 20


def test_coordinate_solvers_keep_their_small_cases():
    # families of 0 and 1 vectors, and the witness of a span that is not closed
    su2 = catalog("su2")
    assert coordinates([], [0, 0, 0]) == [] and coordinates([], [0, 1, 0]) is None
    assert coordinates([[0, 2, 0]], [0, 1, 0]) == [Fraction(1, 2)]
    assert coordinates([[0, 2, 0]], [1, 1, 0]) is None
    assert restrict(su2, [], "h") == LieAlgebra("h", 0, (), {})
    assert restrict(su2, [[1, 1, 0]], "h") == LieAlgebra("h", 1, ("e1",), {})
    with pytest.raises(ValueError, match=r"^span is not bracket-closed: \[e1 \+ e2, e3\] = "
                                         r"e1 - e2 lies outside$"):
        restrict(su2, [[1, 1, 0], [0, 0, 1]], "h")


def test_dependent_families_raise():
    su2 = catalog("su2")
    for basis in ([[1, 2, 0], [2, 4, 0]], [[0, 0, 0]], [[1, 0, 0], [0, 1, 0], [1, 1, 0]]):
        for call in (lambda: coordinates(basis, [1, 2, 0]), lambda: restrict(su2, basis, "h"),
                     lambda: restrict_bivector(mv(3, 2, {}), basis)):
            with pytest.raises(ValueError, match="^matrix is singular$"):
                call()
    with pytest.raises(ValueError, match="^matrix is singular$"):
        change_basis(su2, [[1, 2, 0], [2, 4, 0], [0, 0, 1]])


def test_restrict_pair_matches_the_three_restrictions():
    # one left inverse for the bracket, a 2-vector and a vector
    g = change_basis(direct_product(catalog("su2"), abelian(2)), _dense_unimodular(5, 4))
    basis = [list(r) for r in derived_algebra(g).rows + center(g).rows[:1]]
    vectors = [Multivector.from_coeffs(b) for b in basis]
    r_in = wedge(vectors[0], vectors[3]) + wedge(vectors[1], vectors[2]).scale(Fraction(-2, 3))
    for r, x0 in ((r_in, vectors[2].scale(3) - vectors[0]),
                  (wedge(vec(5, 0), vec(5, 1)), g.basis_vector(4)),
                  (Multivector.zero(5, 2), g.zero_vector())):
        inclusion, h, r_h, x0_h = liealg._restrict_pair(g, basis, "h", r, x0)
        assert inclusion == LinearMap.from_columns(basis)
        assert h == restrict_reference(g, basis, "h")
        assert _same_bivector(r_h, restrict_bivector_reference(r, basis))
        coords = coordinates_reference(basis, x0.coeffs())
        assert x0_h == (None if coords is None else Multivector.from_coeffs(coords))


def test_each_basis_is_eliminated_once(monkeypatch):
    calls = []
    kernel = linalg._echelon

    def counted(rows, stop):
        calls.append(stop)
        return kernel(rows, stop)

    def eliminations(fn, *args):
        start = len(calls)
        fn(*args)
        return len(calls) - start

    g = change_basis(direct_product(catalog("su2"), abelian(2)), _dense_unimodular(5, 4))
    basis = [list(r) for r in derived_algebra(g).rows + center(g).rows[:1]]
    vectors = [Multivector.from_coeffs(b) for b in basis]
    r = wedge(vectors[0], vectors[3]) + wedge(vectors[1], vectors[2])
    monkeypatch.setattr(linalg, "_echelon", counted)
    assert eliminations(coordinates, basis, g.bracket(vectors[0], vectors[1]).coeffs()) == 1
    assert eliminations(restrict, g, basis, "h") == 1
    assert eliminations(restrict_bivector, r, basis) == 1
    assert eliminations(change_basis, g, _dense_unimodular(5, 6)) == 1
    assert eliminations(liealg._restrict_pair, g, basis, "h", r, vectors[2]) == 1
    # _classify_semidirect eliminates its adapted basis once, besides the
    # invariant product, the kernel of theta0 and the rebuilt bialgebra
    zero_dual = LieAlgebra("su2*", 3, ("f1", "f2", "f3"), {})
    ad1 = LinearMap.from_columns([[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    semidirect = [glb_from_cocycle(heisenberg(1), Form.basis(3, 0)),
                  build_semidirect_glb(catalog("su2"), zero_dual, ad1)]
    for b in semidirect:
        cert = _classify_semidirect(b)
        others = (eliminations(invariant_scalar_product, b.g)
                  + eliminations(linalg.nullspace, [cert.theta0.coeffs()])
                  + eliminations(build_semidirect_glb, cert.subalgebra, cert.dual_subalgebra,
                                 cert.psi))
        assert eliminations(_classify_semidirect, b) == others + 1


def test_subspace_contains_matches_the_rank_route(monkeypatch):
    rng = random.Random(63)
    seen = set()
    for n in (1, 2, 3, 5):
        for k in (0, 1, n):
            vectors = [[mixed_fraction(rng) or ONE for _ in range(n)] for _ in range(k)]
            s = Subspace(n, vectors)
            rows = [list(r) for r in s.rows]
            seen.add((n, s.rank))
            weights = [mixed_fraction(rng) for _ in vectors]
            inside = [sum((w * v[i] for w, v in zip(weights, vectors)), ZERO) for i in range(n)]
            candidates = [inside, [mixed_fraction(rng) for _ in range(n)], [ZERO] * n, *rows]
            for v in candidates:
                assert s.contains(v) == (len(rref(rows + [v])[1]) == s.rank), (rows, v)
    assert {(5, 0), (5, 1), (5, 5), (3, 3)} <= seen
    u2_center = center(catalog("u2"))
    calls = []
    monkeypatch.setattr(linalg, "_echelon", lambda *args: calls.append(args))
    assert u2_center.contains([0, 0, 0, 7]) and not u2_center.contains([1, 0, 0, 7])
    assert not calls


def test_subspace_checks_lengths_and_reduces_its_rows():
    s = Subspace(3, [[1, 2, 0], [0, 0, 1]])
    for v in ([1, 2], [1, 2, 0, 0]):
        with pytest.raises(ValueError, match="vector length"):
            s.contains(v)
    with pytest.raises(ValueError, match="vector length"):
        Subspace(3, ((1, 2),))
    assert Subspace(3, s.rows) == s and Subspace(3, ()).contains([0, 0, 0])
    assert replace(s, dual=True).rows == s.rows
    # rows given to the constructor directly are reduced, so contains holds for any rows
    for rows in ([[2, 4, 0], [0, 0, 3]],                    # pivots not 1
                 [[0, 0, 1], [1, 2, 0], [0, 0, 0]],         # pivots decreasing, a zero row
                 [[1, 2, 1], [0, 0, 1]]):                   # not reduced above a pivot
        direct = Subspace(3, tuple(tuple(r) for r in rows))
        assert direct == s and direct.rows == s.rows
        assert direct.contains([3, 6, -1]) and not direct.contains([0, 1, 0])


# The integer routes of the compactness test, the subspaces and the frames
# against the Fraction references in helpers, with ==: seeded brackets at
# dims 0-14 (sparse, dense, 100-digit and compact in dense bases), the
# compact, catalog and mixed-denominator algebras and the zero algebra.

def _integer_route_algebras():
    # n32, free 2-step nilpotent on three generators, has center = derived
    # algebra of dims 3 + 3 = 6: they add up to dim 6 but do not split g
    n32 = LieAlgebra.from_brackets("n32", 6, {(0, 1): [0, 0, 0, 1, 0, 0], (0, 2): [0, 0, 0, 0, 1, 0],
                                              (1, 2): [0, 0, 0, 0, 0, 1]})
    return (seeded_brackets() + compact_algebras() + _catalog_algebras()
            + sum(mixed_algebras(), []) + [LieAlgebra("zero", 0, ()), n32])


def _members(rng, s):
    # a combination of the rows, a seeded vector, zero and the first rows
    rows = [list(r) for r in s.rows]
    inside = [sum((mixed_fraction(rng) * r[i] for r in rows), ZERO) for i in range(s.dim)]
    return [inside, [mixed_fraction(rng) for _ in range(s.dim)], [ZERO] * s.dim, *rows[:2]]


def test_integer_subspaces_and_compactness_match_fraction_references():
    rng = random.Random(2041)
    verdicts, members, overlaps = set(), set(), 0
    for g in _integer_route_algebras():
        report = is_compact(g)      # center(g) and derived_algebra(g) with the pivots
        assert report == is_compact_reference(g), g.name
        assert killing_form(g) == killing_form_reference(g), g.name
        verdicts.add((report.splits, report.killing_definite))
        overlaps += report.center.rank + report.derived.rank == g.dim and not report.splits
        for s in (report.center, report.derived, annihilator(report.derived)):
            assert annihilator(s) == annihilator_reference(s), g.name
            for v in _members(rng, s):
                members.add(s.contains(v))
                assert s.contains(v) == contains_reference(s, v), (g.name, v)
    assert verdicts == {(True, True), (True, False), (False, False)}
    assert members == {True, False} and overlaps


def test_frames_match_fraction_references():
    # coordinates and restrict on the derived and center rows, a dense
    # unimodular basis and its first two vectors, of each seeded bracket
    # (test_coordinate_solvers_match_reference_routes covers the others)
    rng = random.Random(2042)
    closed = opened = inside = outside = 0
    for g in seeded_brackets():
        n = g.dim
        full = unimodular_basis(rng, n, 1)
        for basis in ([list(r) for r in derived_algebra(g).rows], [list(r) for r in center(g).rows],
                      full, full[:2]):
            got = _outcome(restrict, g, basis, "h")
            assert got == _outcome(restrict_reference, g, basis, "h"), (g.name, basis)
            closed += isinstance(got, LieAlgebra)
            opened += isinstance(got, str)
            for v in _members(rng, Subspace(n, basis))[:2] if n else ():
                coords = coordinates(basis, v)
                assert coords == coordinates_reference(basis, v), (g.name, basis, v)
                inside += coords is not None
                outside += coords is None
    assert min(closed, opened, inside, outside) > 20


# Each invariant of an algebra is computed once, on integer data kept in
# private caches of the LieAlgebra, and every call builds its report,
# Subspace or LinearMap afresh from them.  A cold algebra, a warm one and the
# Fraction references in helpers must agree with ==, and the readers of the
# shared rows must leave the caches as they found them.

_CACHES = ("_killing", "_center", "_derived", "_compactness")
_READERS = (is_compact, center, derived_algebra, killing_form, one_cocycles,
            partial(_outcome, invariant_scalar_product))


def _invariants(g):
    return tuple(read(g) for read in _READERS)


def _invariant_references(g):
    # invariant_scalar_product_reference reads is_compact, so only on a copy
    d, report = derived_algebra_reference(g), is_compact_reference(g)
    product = (invariant_scalar_product_reference(g) if report.compact
               else f"{g.name} is not of compact type")
    return (report, center_reference(g), d, killing_form_reference(g),
            annihilator_reference(d), product)


def _cache_algebras():
    """The catalog and mixed-denominator Lie algebras, su2^k x R^m in a
    dense integer basis for k <= 3 and m <= 2, and the non-compact sl2r,
    heisenberg and solvable algebras."""
    rng = random.Random(2043)
    dense = []
    for k in (1, 2, 3):
        for m in (0, 1, 2):
            g = abelian(m)
            for _ in range(k):
                g = direct_product(catalog("su2"), g)
            dense.append(dense_frame(rng, g, 1)[0])
    return (_catalog_algebras() + mixed_algebras()[0] + dense
            + [catalog("sl2r"), heisenberg(1), catalog("solvable2")])


def test_cached_invariants_match_cold_and_reference_routes():
    verdicts = set()
    for g in map(replace, _cache_algebras()):     # catalog algebras may be warm already
        assert set(_CACHES).isdisjoint(vars(g)), g.name
        cold = tuple(read(replace(g)) for read in _READERS)    # one fresh copy each
        assert cold == _invariant_references(replace(g)), g.name
        first = _invariants(g)
        kept = copy.deepcopy({name: vars(g)[name] for name in _CACHES})
        z, d = center(g), derived_algebra(g)
        for s in (z, d):
            annihilator(s)
            s.contains([1] * g.dim)
            _gram(g, s._reduced)
        assert isinstance(_outcome(restrict, g, [list(r) for r in d.rows], "d"), LieAlgebra)
        second = _invariants(g)
        assert first == cold == second, g.name
        assert {name: vars(g)[name] for name in _CACHES} == kept, g.name
        assert not any(a is b for a, b in zip(first, second) if not isinstance(a, str)), g.name
        verdicts.add(first[0].compact)
    assert verdicts == {True, False}


def test_copies_start_with_empty_invariant_caches():
    g = direct_product(catalog("su2"), abelian(2))
    report, k = is_compact(g), killing_form(g)
    assert set(_CACHES) <= set(vars(g))
    for h in (g.rename("renamed"), replace(g, name="replaced"), pickle.loads(pickle.dumps(g))):
        assert set(_CACHES).isdisjoint(vars(h)), h.name
        assert replace(is_compact(h), algebra=g) == report and killing_form(h) == k
        assert all(vars(h)[name] is not vars(g)[name] for name in _CACHES), h.name
    flat = replace(g, structure={})
    assert set(_CACHES).isdisjoint(vars(flat))
    assert is_compact(flat) == is_compact_reference(flat) and center(flat).rank == 5
