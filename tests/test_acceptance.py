"""Acceptance gate: seven end-to-end criteria with tolerance-zero comparisons.

Each criterion prints exactly one PASS or FAIL line on the real stdout so the
gate is readable straight off a pytest run, captured or not.
"""

import functools
from fractions import Fraction
from itertools import product

from helpers import mv, vec
from liejacobi.bialgebra import (
    YbData,
    build_dual_bracket,
    build_first_kind,
    build_from_jacobi,
    build_second_kind,
    build_third_kind,
    check_glb,
    classify_compact,
    glb_from_cocycle,
    solve_coboundary,
    third_kind_pair,
)
from liejacobi.catalog import catalog
from liejacobi.exterior import Form, Multivector, wedge
from liejacobi.jacobi import ContactStructure, JacobiPair, check_jacobi, contact_to_jacobi
from liejacobi.liealg import (
    LieAlgebra,
    Subspace,
    abelian,
    direct_product,
    is_compact,
    killing_form,
    standard_labels,
)


def _line(num: int, status: str, label: str) -> None:
    print(f"ACCEPTANCE {num}: {status} - {label}", flush=True)


def criterion(num: int, label: str):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                _line(num, "FAIL", label)
                raise
            _line(num, "PASS", label)
        return run
    return wrap


def _frozen(structure):
    return tuple(sorted((key, tuple(sorted(v.terms.items())))
                        for key, v in structure.items()))


def _signature(b):
    return (b.g.dim, _frozen(b.g.structure), _frozen(b.g_star.structure),
            tuple(sorted(b.phi0.terms.items())),
            tuple(sorted(b.x0.terms.items())))


@criterion(1, "dual brackets built from the three catalog bundles match the goldens")
def test_golden_dual_brackets():
    expected = {
        "solvable3_51": {(0, 2): mv(3, 1, {(2,): -1}),
                         (1, 2): mv(3, 1, {(2,): 1})},
        "h11": {(0, 2): mv(3, 1, {(0,): -3}),
                (1, 2): mv(3, 1, {(1,): -3})},
        "semidirect4_53": {(2, 3): mv(4, 1, {(3,): 1})},
    }
    for name, structure in expected.items():
        dual = build_dual_bracket(catalog(name))
        assert dict(dual.structure) == structure, name


@criterion(2, "seven constructions give six distinct bialgebras, residuals all zero")
def test_six_distinct_bialgebras():
    su2 = catalog("su2")
    r_family = mv(4, 2, {(1, 2): 1, (0, 3): 1})
    built = [
        catalog("noncob4_53"),
        build_first_kind(abelian(4),
                         Subspace.from_elements([vec(4, 0), vec(4, 1)]),
                         mv(4, 2, {(0, 1): 1}), Form.basis(4, 2)),
        build_second_kind(abelian(4), vec(4, 0), vec(4, 1), 1, 1, 0),
        build_third_kind(direct_product(su2, abelian(1), name="su2xR"),
                         vec(4, 0), vec(4, 1), vec(4, 2), vec(4, 3), (1, 0, 0)),
        glb_from_cocycle(catalog("h11").g, Form.basis(3, 0)),
        build_from_jacobi(YbData(catalog("u2"), Form.basis(4, 3),
                                 r_family, -vec(4, 0))).bialgebra,
        build_from_jacobi(YbData(catalog("gl2r"), Form.basis(4, 3),
                                 r_family, -vec(4, 0))).bialgebra,
    ]
    signatures = set()
    for b in built:
        report = check_glb(b)
        assert report.passed
        assert report.phi0_cocycle.is_zero() and report.x0_cocycle.is_zero()
        assert report.bracket_compat == () and report.contraction_compat == ()
        assert report.pairing == 0
        signatures.add(_signature(b))
    assert len(signatures) == 6


@criterion(3, "the non-coboundary example admits no potential r")
def test_coboundary_infeasible():
    sols = solve_coboundary(catalog("noncob4_53"))
    assert sols.is_empty
    assert sols.particular is None and sols.homogeneous == ()


@criterion(4, "all 124 contact covectors on su(2) reproduce the closed-form pair")
def test_su2_contact_sweep():
    su2 = catalog("su2")
    count = 0
    for mu in product(range(-2, 3), repeat=3):
        if mu == (0, 0, 0):
            continue
        count += 1
        norm = Fraction(sum(m * m for m in mu))
        eta = Form.from_coeffs([Fraction(m) for m in mu])
        jp = contact_to_jacobi(ContactStructure(su2, eta))
        lam = [Fraction(-m, 1) / norm for m in mu]
        assert jp.r == Multivector.from_terms(3, 2, {
            (1, 2): lam[0], (2, 0): lam[1], (0, 1): lam[2]})
        assert jp.x0 == Multivector.from_coeffs([Fraction(m) / norm for m in mu])
        assert check_jacobi(jp).passed
    assert count == 124


@criterion(5, "first/second/third classification round-trips on three bases each")
def test_classification_roundtrips():
    su2 = catalog("su2")

    first_cases = [
        (abelian(4), [vec(4, 0), vec(4, 1)], mv(4, 2, {(0, 1): 1}),
         Form.basis(4, 2)),
        (abelian(6), [vec(6, i) for i in range(4)],
         mv(6, 2, {(0, 1): 1, (2, 3): 1}), Form.basis(6, 5)),
        (direct_product(su2, abelian(2)), [vec(5, 0), vec(5, 3)],
         mv(5, 2, {(0, 3): 1}), Form.basis(5, 4)),
    ]
    for g, vectors, r, phi0 in first_cases:
        b = build_first_kind(g, Subspace.from_elements(vectors), r, phi0)
        result = classify_compact(b)
        assert result.kind == "first"
        assert result.extraction.pair.r == r
        assert result.extraction.pair.x0.is_zero()

    second_cases = [
        (abelian(4), vec(4, 0), vec(4, 1)),
        (direct_product(su2, abelian(1)), vec(4, 0), vec(4, 3)),
        (direct_product(su2, abelian(2)), vec(5, 3), vec(5, 4)),
    ]
    for g, e1, e2 in second_cases:
        b = build_second_kind(g, e1, e2, 1, 1, 0)
        result = classify_compact(b)
        assert result.kind == "second"
        assert result.extraction.pair.r == wedge(e1, e2)
        assert result.extraction.pair.x0 == e1

    for k in (1, 2, 3):
        g = direct_product(su2, abelian(k), name=f"su2xR{k}")
        n = g.dim
        b = build_third_kind(g, vec(n, 0), vec(n, 1), vec(n, 2), vec(n, 3),
                             (1, 0, 0))
        result = classify_compact(b)
        assert result.kind == "third"
        r, x0 = third_kind_pair(vec(n, 0), vec(n, 1), vec(n, 2), vec(n, 3),
                                (1, 0, 0))
        assert result.extraction.pair.r == r
        assert result.extraction.pair.x0 == x0


@criterion(6, "randomized identity suites are wired with at least 200 exact cases each")
def test_property_suite_configuration():
    import test_properties as props

    names = [
        "test_differential_squares_to_zero",
        "test_twisted_differential_squares_to_zero",
        "test_phi0_schouten_graded_symmetry",
        "test_phi0_schouten_modified_leibniz",
        "test_phi0_schouten_graded_jacobi",
        "test_twisted_ad_is_representation",
        "test_dual_bracket_routes_agree",
        "test_build_output_dual_differential_identity",
        "test_hypothesis_passing_bundles_build_valid_bialgebras",
    ]
    for name in names:
        fn = getattr(props, name)
        assert fn._hypothesis_internal_use_settings.max_examples >= 200, name
    assert max(g.dim for g in props.POOL) <= 5


@criterion(7, "negative controls fail with the exact expected residuals")
def test_negative_controls():
    y = catalog("semidirect4_53")
    report = check_jacobi(JacobiPair(y.g, y.r, y.x0))
    assert not report.passed
    assert report.self_residual == mv(4, 3, {(0, 1, 2): 2})
    assert report.vector_residual.is_zero()

    seeded = LieAlgebra("seeded", 3, standard_labels(3), {
        (0, 1): vec(3, 2), (0, 2): vec(3, 0)})
    bad = seeded.validate()
    assert not bad.passed
    assert bad.violations[0][0] == (0, 1, 2)

    assert not is_compact(catalog("sl2r")).compact
    assert is_compact(catalog("su2")).compact
    killing = [list(row) for row in killing_form(catalog("su2")).rows]
    assert killing == [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
