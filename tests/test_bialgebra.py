"""Dual-bracket construction, bialgebra checks, builders and classification."""

from fractions import Fraction

import pytest

from helpers import (
    b_dual_reference,
    compact_algebras,
    fm,
    invariant_scalar_product_reference,
    mv,
    vec,
)
from liejacobi.bialgebra import (
    _b_dual_cocycle,
    GeneralizedBialgebra,
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
from liejacobi.catalog import catalog, catalog_names, heisenberg
from liejacobi.exterior import Form, Multivector, pair, wedge
from liejacobi.jacobi import ContactStructure, contact_to_jacobi
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    abelian,
    center,
    change_basis,
    direct_product,
    one_cocycles,
    standard_labels,
)
from liejacobi.schouten import ce_differential, schouten

F = Fraction
SU2 = catalog("su2")


def glb_of(name):
    y = catalog(name)
    return GeneralizedBialgebra(y.g, build_dual_bracket(y), y.phi0, y.x0)


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


def test_solve_coboundary_requires_valid_input():
    nb = catalog("noncob4_53")
    bad = GeneralizedBialgebra(nb.g, nb.g_star, Form.basis(4, 0), nb.x0)
    with pytest.raises(ValueError):
        solve_coboundary(bad)


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
            assert classify_compact(b).kind == kind


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


def test_build_third_kind_mixed_lambdas_roundtrip():
    g = direct_product(SU2, abelian(1))
    b = build_third_kind(g, vec(4, 0), vec(4, 1), vec(4, 2), vec(4, 3),
                         (1, -2, 3))
    result = classify_compact(b)
    cert = result.certificate
    assert cert.lambdas == (-1, 2, 3)
    assert [v.render(g.basis_labels) for v in cert.triple] == ["-e1", "-e2", "e3"]
    rebuilt_r, rebuilt_x0 = third_kind_pair(*cert.triple, cert.e4, cert.lambdas)
    assert rebuilt_r == result.extraction.pair.r
    assert rebuilt_x0 == result.extraction.pair.x0


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


def test_build_semidirect_glb_abelian():
    h = abelian(2)
    h_star = LieAlgebra("ab2*", 2, ("f1", "f2"), {})
    psi = LinearMap.from_rows([[1, 0], [0, 2]])
    b = build_semidirect_glb(h, h_star, psi)
    assert b.g.dim == 3 and b.x0 == vec(3, 2) and b.phi0.is_zero()
    assert dict(b.g_star.structure) == {(1, 2): mv(3, 1, {(1,): 1})}
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


def test_build_semidirect_glb_rejections():
    h_star = LieAlgebra("su2*", 3, ("f1", "f2", "f3"), {})
    rotation = LinearMap.from_rows([[0, -1, 0], [1, 0, 0], [0, 0, 1]])
    with pytest.raises(ValueError, match="not a derivation"):
        build_semidirect_glb(SU2, h_star, rotation)
    with pytest.raises(ValueError, match="same dimension"):
        build_semidirect_glb(SU2, LieAlgebra("x", 2, ("f1", "f2"), {}),
                             LinearMap.identity(3))


def test_classify_lie_bialgebra_kind():
    zero_dual = LieAlgebra("su2*", 3, ("f1", "f2", "f3"), {})
    b = GeneralizedBialgebra(SU2, zero_dual, Form.zero(3, 1), Multivector.zero(3, 1))
    result = classify_compact(b)
    assert result.kind == "lie-bialgebra"
    assert result.y0 is None and result.certificate is None


def test_classify_rejects_noncompact():
    with pytest.raises(ValueError, match="not of compact type"):
        classify_compact(catalog("noncob4_53"))


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


def test_b_dual_of_cocycle_matches_inverse_route():
    # B^-1 phi = sum_k phi(z_k) z_k over the center rows, for every 1-cocycle phi
    for g in compact_algebras():
        b_ref = invariant_scalar_product_reference(g)
        z = center(g)
        cocycles = [list(row) for row in one_cocycles(g).rows]
        cocycles.append([sum(Fraction(k + 2, 3) * row[i] for k, row in enumerate(cocycles))
                         for i in range(g.dim)])
        for phi in cocycles:
            assert _b_dual_cocycle(z, Form.from_coeffs(phi)).coeffs() == b_dual_reference(b_ref, phi)
    for name in ("firstkind4", "secondkind4", "thirdkind_u2"):
        b = catalog(name)
        y = b_dual_reference(invariant_scalar_product_reference(b.g), b.phi0.coeffs())
        scale = pair(b.phi0, Multivector.from_coeffs(y))
        assert classify_compact(b).y0 == Multivector.from_coeffs([c / scale for c in y])
