"""Exterior algebra oracles: permutation signs, determinant pairing, contraction."""

import copy
import itertools
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from helpers import (
    add_reference,
    contract_reference,
    cov,
    evaluate,
    evaluate_on,
    fm,
    mv,
    pair_reference,
    random_element,
    random_fraction,
    scale_reference,
    vec,
    wedge_reference,
)
from liejacobi.catalog import catalog
from liejacobi.exterior import (
    Form,
    Multivector,
    contract,
    pair,
    sort_index,
    wedge,
    wedge_power,
)
from liejacobi.schouten import schouten


def test_scalar_value_and_str():
    # scalar_value reads a grade-0 element or any zero, and str renders with
    # the default labels e1, e2, ...
    assert Multivector.scalar(3, "5/2").scalar_value() == Fraction(5, 2)
    assert Form.scalar(2, 0).scalar_value() == 0
    assert Multivector.zero(3, 2).scalar_value() == 0
    for e in (vec(3, 1), cov(3, 0)):
        with pytest.raises(ValueError, match="not a scalar"):
            e.scalar_value()
    assert str(mv(3, 2, {(0, 1): Fraction(1, 2), (1, 2): -3})) == "1/2*e1^e2 - 3*e2^e3"
    assert str(fm(3, 1, {(2,): Fraction(-2, 3)})) == "-2/3*e3"
    assert str(Form.zero(3, 2)) == "0"


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


def test_contract_with_a_zero_of_any_grade_gives_zero():
    rng = random.Random(54)
    for dim in (2, 3, 4):
        for k in range(1, dim + 1):
            p = random_element(rng, Multivector, dim, k)
            omega = random_element(rng, Form, dim, k)
            for grade in range(dim + 1):
                assert contract(Form.zero(dim, grade), p) == Multivector.zero(dim, k - 1)
                assert contract(Multivector.zero(dim, grade), omega) == Form.zero(dim, k - 1)
    with pytest.raises(ValueError, match="grade-1"):
        contract(fm(3, 2, {(0, 1): 1}), mv(3, 2, {(0, 1): 1}))


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
    # the tests' evaluation of a 2-form, the pairing with x ^ y, against
    # omega(x, y) = sum_{i<j} omega_ij (x^i y^j - x^j y^i)
    rng = random.Random(61)
    for _ in range(40):
        dim = rng.randint(2, 4)
        omega = random_element(rng, Form, dim, 2)
        x = random_element(rng, Multivector, dim, 1)
        y = random_element(rng, Multivector, dim, 1)
        xs, ys = x.coeffs(), y.coeffs()
        expected = sum((c * (xs[i] * ys[j] - xs[j] * ys[i])
                        for (i, j), c in omega.terms.items()), Fraction(0))
        assert evaluate(omega, x, y) == pair(omega, wedge(x, y)) == expected


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
    assert Multivector(4, 1, terms)._ints() == ({(0,): 21, (1,): -14, (2,): 30, (3,): 168}, 42)
    assert Multivector.zero(4, 1)._ints() == ({}, 1)


def _assert_canonical(e):
    # the kept integer form is the one a fresh element computes from its terms
    nums, den = e._ints()
    assert (nums, den) == type(e)(e.dim, e.grade, dict(e.terms))._ints()
    assert den == lcm(1, *(c.denominator for c in e.terms.values()))
    assert gcd(den, *nums.values()) == 1


def test_kernels_match_fraction_reference_routes():
    rng = random.Random(67)
    for _ in range(150):
        dim = rng.randint(2, 5)
        cls = rng.choice((Multivector, Form))
        other = Form if cls is Multivector else Multivector
        mixed = lambda kind, grade: random_element(rng, kind, dim, grade, terms=3, bound=7)
        a = mixed(cls, rng.randint(0, 3))
        b = mixed(cls, rng.randint(0, 3))
        same = mixed(cls, a.grade)
        one = mixed(other, 1)
        c = random_fraction(rng, 7)
        results = [(wedge(a, b), wedge_reference(a, b)),
                   (a + same, add_reference(a, same)),
                   (a - same, add_reference(a, scale_reference(same, -1))),
                   (-a, scale_reference(a, -1)),
                   (a.scale(c), scale_reference(a, c)),
                   (contract(one, a), contract_reference(one, a))]
        for got, expected in results:
            assert got == expected and got.grade == expected.grade
            _assert_canonical(got)
        form, vector = (a, mixed(Multivector, a.grade)) if cls is Form \
            else (mixed(Form, a.grade), a)
        assert pair(form, vector) == pair_reference(form, vector)


def test_terms_are_read_only_and_copied():
    d = {(0,): 1}
    m = Multivector(2, 1, d)
    d[(1,)] = Fraction(0)
    d[(0,)] = Fraction(5)
    assert dict(m.terms) == {(0,): 1}
    assert m.coeffs() == [1, 0]
    with pytest.raises(TypeError):
        m.terms[(1,)] = Fraction(1)
    with pytest.raises(TypeError):
        wedge(vec(3, 0), vec(3, 1)).terms[(0, 2)] = Fraction(1)


def test_elements_survive_pickle_and_deepcopy():
    p = mv(4, 2, {(0, 1): Fraction(1, 2), (2, 3): Fraction(-5, 3)})
    f = fm(4, 1, {(1,): Fraction(2, 7)})
    # kernel outputs too, pickled before their terms are built
    kernel = (p - p.scale(3), contract(f, p), wedge(f, f), Form._from_ints(4, 1, {(2,): 6}, 4))
    for e in (p, f, Form.zero(4, 2)) + kernel:
        for copied in (pickle.loads(pickle.dumps(e)), copy.deepcopy(e)):
            assert type(copied) is type(e) and copied == e and copied.grade == e.grade
            assert copied._ints() == e._ints() and copied.terms == e.terms
            with pytest.raises(TypeError):
                copied.terms[(0, 1)] = Fraction(1)
    assert pickle.loads(pickle.dumps(p)) + p == p.scale(2)


def _seeded_terms(rng, dim, grade, digits):
    # random coefficients with up to `digits` digits on some of the indices
    bound = 10 ** digits
    indices = list(itertools.combinations(range(dim), grade))
    return {idx: Fraction(rng.choice((-1, 1)) * rng.randint(1, bound), rng.randint(1, bound))
            for idx in rng.sample(indices, rng.randint(0, len(indices)))}


def test_integer_built_elements_equal_fraction_built():
    rng = random.Random(71)
    cases = [(Multivector, 3, 2, {}), (Form, 0, 0, {}), (Multivector, 2, 0, {(): Fraction(-7, 3)})]
    for _ in range(120):
        dim = rng.randint(0, 6)
        cls, grade = rng.choice((Multivector, Form)), rng.randint(0, dim)
        cases.append((cls, dim, grade, _seeded_terms(rng, dim, grade, rng.choice((1, 3, 100)))))
    assert any(len(str(c.numerator)) > 90 for *_, terms in cases for c in terms.values())
    for cls, dim, grade, terms in cases:
        # the same coefficients over an unreduced scale, with zero entries
        scale = lcm(*(c.denominator for c in terms.values())) * rng.randint(1, 10 ** 6)
        acc = {idx: c.numerator * (scale // c.denominator) for idx, c in terms.items()}
        if grade:
            acc[tuple(range(grade))] = acc.get(tuple(range(grade)), 0)
        built = cls._from_ints(dim, grade, acc, scale)
        expected = cls(dim, grade, terms)
        assert built._terms is None
        assert built == expected and built.grade == expected.grade
        assert built._ints() == expected._ints()
        assert built.terms == expected.terms and dict(built.terms) == terms
        _assert_canonical(built)
        assert built.terms is built.terms     # built once, then kept
        with pytest.raises(TypeError):
            built.terms[(0,) * grade] = Fraction(1)


def test_integer_form_is_validated():
    for grade, acc in ((1, {(3,): 1}), (1, {(-1,): 2}), (2, {(1, 0): 1}), (2, {(0,): 1})):
        with pytest.raises(ValueError):
            Multivector._from_ints(3, grade, acc, 2)
    with pytest.raises(ValueError, match="grade 4 out of range"):
        Form._from_ints(3, 4, {}, 1)
    # _from_ints drops a zero entry; a held form with one is refused
    assert Multivector._from_ints(3, 1, {(0,): 0, (1,): 2}, 4) == mv(3, 1, {(1,): Fraction(1, 2)})
    with pytest.raises(ValueError, match="zero coefficients must be dropped"):
        object.__new__(Multivector)._hold(3, 1, ({(0,): 0}, 1))
    with pytest.raises(ValueError, match="zero coefficients must be dropped"):
        Multivector(3, 1, {(0,): Fraction(0)})


def test_zero_tests_and_equality_leave_terms_unbuilt():
    g = catalog("su2")
    r = Multivector._from_ints(3, 2, {(1, 2): 1}, 1)
    x0 = -g.basis_vector(0)
    residual = schouten(g, r, r) - wedge(x0, r).scale(2)
    assert residual.is_zero()
    assert schouten(g, x0, r) == Multivector.zero(3, 2)
    x, y = g.basis_vector(0), g.basis_vector(1)
    outputs = schouten(g, x, y), g.bracket(x, y), contract(Form.basis(3, 1), r)
    assert outputs[0] == outputs[1] and outputs[0] != -outputs[1]
    assert outputs[2] + x0.scale(0) == g.basis_vector(2)
    for e in (residual, r, x0, x, y) + outputs:
        assert e._terms is None


def test_repr_is_unchanged():
    assert repr(mv(3, 2, {(0, 1): Fraction(1, 2), (1, 2): -2})) == (
        "Multivector(dim=3, grade=2, terms=mappingproxy("
        "{(0, 1): Fraction(1, 2), (1, 2): Fraction(-2, 1)}))")
    assert repr(Form._from_ints(2, 1, {(1,): 6}, 4)) == (
        "Form(dim=2, grade=1, terms=mappingproxy({(1,): Fraction(3, 2)}))")
    assert repr(Form.zero(2, 2)) == "Form(dim=2, grade=2, terms=mappingproxy({}))"


def test_grade_mixing_rejected():
    with pytest.raises(ValueError):
        mv(3, 1, {(0,): 1}) + mv(3, 2, {(0, 1): 1})


def test_render_uses_labels():
    labels = ["e1", "e2", "e3"]
    assert mv(3, 2, {(0, 1): 1, (1, 2): -1}).render(labels) == "e1^e2 - e2^e3"
    assert Multivector.zero(3, 2).render(labels) == "0"
    assert mv(3, 1, {(0,): Fraction(1, 2)}).render(labels) == "1/2*e1"
