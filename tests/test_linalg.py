"""Exact linear algebra over Fraction: oracles against independent recomputation."""

import random
from fractions import Fraction

import pytest

from liejacobi.linalg import (
    determinant,
    identity,
    invert,
    is_definite,
    mat_mul,
    mat_vec,
    nullspace,
    rank,
    rref,
    solve,
    transpose,
)


def _random_matrix(rng, rows, cols, bound=4):
    return [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def test_rref_idempotent_and_pivots_unit():
    rng = random.Random(11)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        m, pivots = rref(a)
        again, pivots2 = rref(m)
        assert again == m and pivots2 == pivots
        for r, c in enumerate(pivots):
            assert m[r][c] == 1
            # pivot columns are cleared above and below
            assert all(m[i][c] == 0 for i in range(len(m)) if i != r)


def _dense_rref(a):
    # the textbook elimination, rewriting every entry of every updated row
    m = [row[:] for row in a]
    pivots, r = [], 0
    for c in range(len(m[0]) if m else 0):
        pivot_row = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                m[i] = [x - m[i][c] * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def test_rref_on_sparse_rows_matches_dense_elimination():
    # tall, mostly zero systems like the coboundary solve, including zero
    # rows, zero columns and pivot rows with a single nonzero entry
    rng = random.Random(31)
    for _ in range(60):
        rows, cols = rng.randint(1, 12), rng.randint(1, 6)
        density = rng.choice((0.0, 0.1, 0.25, 0.5))
        a = [[Fraction(rng.randint(-3, 3) or 1, rng.randint(1, 3)) if rng.random() < density
              else Fraction(0) for _ in range(cols)] for _ in range(rows)]
        before = [row[:] for row in a]
        assert rref(a) == _dense_rref(a)
        assert a == before          # the input is not touched
    unit = [[Fraction(0), Fraction(2), Fraction(0)], [Fraction(1), Fraction(4), Fraction(0)],
            [Fraction(0), Fraction(0), Fraction(0)]]
    assert rref(unit) == ([[1, 0, 0], [0, 1, 0], [0, 0, 0]], [0, 1])


def test_solve_satisfies_system_and_nullspace():
    rng = random.Random(7)
    for _ in range(60):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        a = _random_matrix(rng, rows, cols)
        x_true = [Fraction(rng.randint(-3, 3)) for _ in range(cols)]
        b = mat_vec(a, x_true)
        result = solve(a, b)
        assert result is not None         # consistent by construction
        particular, homogeneous = result
        assert mat_vec(a, particular) == b
        for h in homogeneous:
            assert all(v == 0 for v in mat_vec(a, h))
        assert len(homogeneous) == cols - rank(a)


def test_solve_detects_inconsistency():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(a, [Fraction(1), Fraction(3)]) is None
    assert solve(a, [Fraction(1), Fraction(2)]) is not None


def test_nullspace_dimension_matches_rank():
    rng = random.Random(23)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = nullspace(a)
        assert len(basis) == len(a[0]) - rank(a)
        for v in basis:
            assert all(entry == 0 for entry in mat_vec(a, v))


def test_invert_roundtrip_and_singular():
    rng = random.Random(5)
    found = 0
    while found < 25:
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        if determinant(a) == 0:
            continue
        found += 1
        assert mat_mul(a, invert(a)) == identity(n)
    with pytest.raises(ValueError):
        invert([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])


def test_determinant_against_permutation_expansion():
    def perm_det(a):
        n = len(a)
        total = Fraction(0)
        import itertools
        for perm in itertools.permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            prod = Fraction(sign)
            for i in range(n):
                prod *= a[i][perm[i]]
            total += prod
        return total

    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n)
        assert determinant(a) == perm_det(a)


def test_determinant_multiplicative():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(1, 4)
        a, b = _random_matrix(rng, n, n), _random_matrix(rng, n, n)
        assert determinant(mat_mul(a, b)) == determinant(a) * determinant(b)


def test_is_definite_on_congruent_diagonals():
    # P^T D P keeps the signature of D for invertible P
    rng = random.Random(29)
    for _ in range(20):
        n = rng.randint(1, 4)
        p = None
        while p is None or determinant(p) == 0:
            p = _random_matrix(rng, n, n)
        d = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            d[i][i] = Fraction(rng.randint(1, 4))
        pos = mat_mul(transpose(p), mat_mul(d, p))
        neg = [[-x for x in row] for row in pos]
        assert is_definite(pos, positive=True)[0]
        assert is_definite(neg, positive=False)[0]
        assert not is_definite(pos, positive=False)[0]
        assert not is_definite(neg, positive=True)[0]


def test_is_definite_rejects_semidefinite():
    a = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]]
    assert not is_definite(a, positive=True)[0]
    indefinite = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(-1)]]
    assert not is_definite(indefinite, positive=True)[0]
    assert not is_definite(indefinite, positive=False)[0]
