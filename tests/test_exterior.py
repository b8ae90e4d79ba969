"""Exterior algebra oracles: permutation signs, determinant pairing, contraction."""

import itertools
import random
from fractions import Fraction

import pytest

from helpers import cov, fm, mv, random_element, vec
from liejacobi.exterior import (
    Form,
    Multivector,
    contract,
    evaluate,
    evaluate_on,
    numerators,
    pair,
    sort_index,
    wedge,
    wedge_power,
)


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_sort_index_matches_permutation_sign():
    for n in (2, 3, 4):
        for perm in itertools.permutations(range(n)):
            idx, sign = sort_index(perm)
            assert idx == tuple(range(n))
            assert sign == _perm_sign(perm)
    assert sort_index((1, 1))[1] == 0     # repeated index collapses


def test_wedge_of_basis_vectors_carries_permutation_sign():
    dim = 5
    for perm in itertools.permutations(range(4)):
        product = vec(dim, perm[0])
        for i in perm[1:]:
            product = wedge(product, vec(dim, i))
        expected = mv(dim, 4, {tuple(range(4)): _perm_sign(perm)})
        assert product == expected


def test_from_terms_normalizes_and_drops_repeats():
    e = mv(4, 2, {(2, 1): 1})
    assert e == mv(4, 2, {(1, 2): -1})
    assert Multivector.from_terms(4, 2, {(1, 1): Fraction(5)}).is_zero()


def test_wedge_graded_commutativity():
    rng = random.Random(41)
    for _ in range(60):
        dim = rng.randint(2, 5)
        a = random_element(rng, Multivector, dim, rng.randint(1, 3))
        b = random_element(rng, Multivector, dim, rng.randint(1, 3))
        sign = Fraction((-1) ** (a.grade * b.grade))
        assert wedge(a, b) == wedge(b, a).scale(sign)


def test_wedge_associativity_and_bilinearity():
    rng = random.Random(43)
    for _ in range(60):
        dim = rng.randint(2, 5)
        a = random_element(rng, Multivector, dim, rng.randint(1, 2))
        b = random_element(rng, Multivector, dim, rng.randint(1, 2))
        c = random_element(rng, Multivector, dim, rng.randint(1, 2))
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        b_same = random_element(rng, Multivector, dim, a.grade)
        assert wedge(a + b_same, c) == wedge(a, c) + wedge(b_same, c)


def test_wedge_beyond_dimension_is_zero():
    a = mv(3, 2, {(0, 1): 1})
    b = mv(3, 2, {(1, 2): 1})
    assert wedge(a, b).is_zero()
    assert wedge(a, b).grade == 3      # clamped at the dimension


def test_wedge_power():
    omega = fm(4, 2, {(0, 1): 1, (2, 3): 1})
    assert wedge_power(omega, 2) == fm(4, 4, {(0, 1, 2, 3): 2})
    assert wedge_power(omega, 0) == Form.from_terms(4, 0, {(): Fraction(1)})


def test_pair_is_evaluation_determinant():
    # <a^1 ^ ... ^ a^k, v_1 ^ ... ^ v_k> = det [a^i(v_j)]
    rng = random.Random(47)
    for _ in range(40):
        dim = rng.randint(2, 5)
        k = rng.randint(1, min(3, dim))
        forms = [random_element(rng, Form, dim, 1) for _ in range(k)]
        vectors = [random_element(rng, Multivector, dim, 1) for _ in range(k)]
        alpha = forms[0]
        for f in forms[1:]:
            alpha = wedge(alpha, f)
        p = vectors[0]
        for v in vectors[1:]:
            p = wedge(p, v)
        matrix = [[pair(f, v) for v in vectors] for f in forms]
        det = Fraction(0)
        for perm in itertools.permutations(range(k)):
            prod = Fraction(_perm_sign(perm))
            for i in range(k):
                prod *= matrix[i][perm[i]]
            det += prod
        assert pair(alpha, p) == det


def test_pair_rejects_mismatched_grades():
    with pytest.raises(ValueError):
        pair(cov(3, 0), mv(3, 2, {(0, 1): 1}))


def test_contract_componentwise_oracle():
    # i(e^j) acts per index with an alternating sign
    dim = 5
    for idx in itertools.combinations(range(dim), 3):
        p = Multivector.from_terms(dim, 3, {idx: Fraction(1)})
        for j in range(dim):
            got = contract(cov(dim, j), p)
            if j not in idx:
                assert got.is_zero()
            else:
                pos = idx.index(j)
                rest = tuple(i for i in idx if i != j)
                expected = Multivector.from_terms(
                    dim, 2, {rest: Fraction((-1) ** pos)})
                assert got == expected


def test_contract_is_wedge_adjoint():
    # <i(a)P, beta> = <a ^ beta, P> for a 1-form a
    rng = random.Random(53)
    for _ in range(50):
        dim = rng.randint(2, 5)
        k = rng.randint(1, min(3, dim))
        a = random_element(rng, Form, dim, 1)
        p = random_element(rng, Multivector, dim, k)
        beta = random_element(rng, Form, dim, k - 1)
        assert pair(beta, contract(a, p)) == pair(wedge(a, beta), p)


def test_contract_antiderivation_on_decomposables():
    rng = random.Random(59)
    for _ in range(50):
        dim = rng.randint(2, 5)
        a = random_element(rng, Form, dim, 1)
        p = random_element(rng, Multivector, dim, rng.randint(1, 2))
        q = random_element(rng, Multivector, dim, rng.randint(1, 2))
        lhs = contract(a, wedge(p, q))
        rhs = (wedge(contract(a, p), q)
               + wedge(p, contract(a, q)).scale(Fraction((-1) ** p.grade)))
        assert lhs == rhs


def test_evaluate_agrees_with_pair():
    rng = random.Random(61)
    for _ in range(40):
        dim = rng.randint(2, 4)
        omega = random_element(rng, Form, dim, 2)
        x = random_element(rng, Multivector, dim, 1)
        y = random_element(rng, Multivector, dim, 1)
        assert evaluate(omega, x, y) == pair(omega, wedge(x, y))


def test_evaluate_on_vectors():
    p = mv(3, 2, {(0, 1): 2})
    assert evaluate_on(p, cov(3, 0), cov(3, 1)) == 2
    assert evaluate_on(p, cov(3, 1), cov(3, 0)) == -2


def test_element_arithmetic_and_zero_handling():
    a = mv(3, 2, {(0, 1): 1, (1, 2): -2})
    assert a - a == Multivector.zero(3, 2)
    assert (a + (-a)).is_zero()
    assert a.scale(Fraction(0)).is_zero()
    assert a.coefficient((1, 2)) == -2
    assert a.coefficient((0, 2)) == 0


def test_numerators_share_one_denominator():
    terms = {(0,): Fraction(1, 2), (1,): Fraction(-1, 3), (2,): Fraction(5, 7), (3,): Fraction(4)}
    assert numerators(terms) == ({(0,): 21, (1,): -14, (2,): 30, (3,): 168}, 42)
    assert numerators({}) == ({}, 1)


def test_grade_mixing_rejected():
    with pytest.raises(ValueError):
        mv(3, 1, {(0,): 1}) + mv(3, 2, {(0, 1): 1})


def test_render_uses_labels():
    labels = ["e1", "e2", "e3"]
    assert mv(3, 2, {(0, 1): 1, (1, 2): -1}).render(labels) == "e1^e2 - e2^e3"
    assert Multivector.zero(3, 2).render(labels) == "0"
    assert mv(3, 1, {(0,): Fraction(1, 2)}).render(labels) == "1/2*e1"
