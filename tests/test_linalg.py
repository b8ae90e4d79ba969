"""Exact linear algebra over the rationals: the integer kernel against the
Fraction reference routes, sympy and independent recomputation."""

import random
from fractions import Fraction
from math import lcm

import pytest

from helpers import (
    determinant,
    is_definite_reference,
    mat_vec_reference,
    mixed_fraction,
    nullspace_reference,
    rational_system,
    rref_reference,
    solve_reference,
)
from liejacobi import linalg
from liejacobi.bialgebra import _check_glb, _coboundary_system, build_third_kind
from liejacobi.catalog import catalog
from liejacobi.exterior import Multivector
from liejacobi.liealg import abelian, direct_product
from liejacobi.linalg import (
    ONE,
    ZERO,
    _definite,
    identity,
    invert,
    is_definite,
    mat_mul,
    mat_vec,
    nullspace,
    rref,
    solve,
    solve_rows,
    transpose,
)


def _random_matrix(rng, rows, cols, bound=4):
    return [[Fraction(rng.randint(-bound, bound), rng.randint(1, 3))
             for _ in range(cols)] for _ in range(rows)]


def test_frac_reads_strings_ints_and_fractions():
    assert linalg.frac("-3/6") == Fraction(-1, 2) and type(linalg.frac("-3/6")) is Fraction
    assert linalg.frac("7") == 7 and type(linalg.frac(7)) is Fraction
    half = Fraction(1, 2)
    assert linalg.frac(half) is half
    with pytest.raises(ValueError):
        linalg.frac("one half")
    with pytest.raises(TypeError):
        linalg.frac(0.5)


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
        assert len(homogeneous) == cols - len(rref(a)[1])


def test_solve_detects_inconsistency():
    a = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve(a, [Fraction(1), Fraction(3)]) is None
    assert solve(a, [Fraction(1), Fraction(2)]) is not None


def test_nullspace_dimension_matches_rank():
    rng = random.Random(23)
    for _ in range(40):
        a = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        basis = nullspace(a)
        assert len(basis) == len(a[0]) - len(rref(a)[1])
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


# The integer kernel against the Fraction reference routes, compared with ==
# and checked to return Fraction entries, on mixed-denominator,
# rank-deficient, tall sparse, empty and 100-digit inputs.

def _huge(rng):
    return Fraction(rng.randrange(-10 ** 100, 10 ** 100), rng.randrange(1, 10 ** 100))


def _oracle_matrices():
    rng = random.Random(2026)
    mats = [[[]], [[ZERO, ZERO]], [[ZERO] * 3, [ZERO] * 3], [[Fraction(5)]]]
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        a = [[mixed_fraction(rng) for _ in range(cols)] for _ in range(rows)]
        if rows > 2 and rng.random() < 0.5:
            a[-1] = [2 * x - y / 3 for x, y in zip(a[0], a[1])]    # rank deficient
        mats.append(a)
    for density in (0.05, 0.2):
        mats.append([[mixed_fraction(rng) if rng.random() < density else ZERO
                      for _ in range(12)] for _ in range(60)])
    # the coboundary system of an abelian base: a zero 147 x 21 coefficient
    # block with a right-hand side that is nonzero in 129 of 147 rows
    rhs = [ZERO] * 18 + [mixed_fraction(rng) or Fraction(1) for _ in range(129)]
    rng.shuffle(rhs)
    mats.append([[ZERO] * 21 + [x] for x in rhs])
    for rows, cols in ((3, 3), (4, 6), (6, 6)):
        mats.append([[_huge(rng) for _ in range(cols)] for _ in range(rows)])
    return mats


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


def test_kernel_matches_fraction_reference():
    outcomes = set()
    for a in _oracle_matrices():
        m, pivots = rref(a)
        assert (m, pivots) == rref_reference(a), a
        assert _all_fractions(m)
        assert nullspace(a) == nullspace_reference(a)
        assert _all_fractions(nullspace(a))
        if len(a[0]) < 2:
            continue
        # the last column as the right-hand side of the other columns
        coeffs, b = [row[:-1] for row in a], [row[-1] for row in a]
        for rhs in (b, [ZERO] * len(b)):
            got = solve(coeffs, rhs)
            assert got == solve_reference(coeffs, rhs), a
            if got is not None:
                assert _all_fractions([got[0]]) and _all_fractions(got[1])
            outcomes.add(got is None)
    assert outcomes == {True, False}


def test_empty_inputs():
    assert rref([]) == ([], [])
    assert nullspace([]) == []
    assert invert([]) == []
    assert solve([], []) == ([], []) and solve([], [Fraction(1)]) is None
    assert mat_vec([], [Fraction(1)]) == []
    assert is_definite([], positive=True) == (True, [])


def test_ragged_rows_and_mismatched_right_hand_sides_raise():
    # each of these once read a short row as zero-padded, or dropped or
    # ignored entries, and returned a wrong answer or raised IndexError
    for call in (lambda: rref([[1, 2], [3]]),
                 lambda: invert([[1, 2], [3]]), lambda: nullspace([[1, 2], [3, 4, 5]]),
                 lambda: rref([[1], [2, 3]]), lambda: transpose([[1], [2, 3]]),
                 lambda: solve([[1, 0], [0, 1]], [1]), lambda: solve([[1, 0]], [1, 5]),
                 lambda: solve([[1, 0], [0]], [1, 2]),
                 lambda: mat_vec([[1, 2, 3]], [1, 1]), lambda: mat_vec([[1]], [1, 1]),
                 lambda: mat_mul([[1, 2, 3]], [[1], [2]]), lambda: mat_mul([[1]], [[1, 2], [3]]),
                 lambda: mat_mul([[1, 2]], [[1], [2, 3]]),
                 lambda: is_definite([[1, 0, 0], [0, 1, 0]], True),
                 lambda: is_definite([[1, 0], [0]], True),
                 lambda: _definite([[1, 0, 0], [0, 1, 0]], 1, True),
                 lambda: _definite([[1], [0, 1]], 1, False)):
        with pytest.raises(ValueError):
            call()
    # well-shaped inputs are unchanged, and the pivots of the integer
    # definiteness test do not depend on the common denominator it is given
    assert solve([[1, 0], [0, 1]], [1, 2]) == ([ONE, Fraction(2)], [])
    assert invert([[1, 2], [3, 4]]) == [[-2, 1], [Fraction(3, 2), Fraction(-1, 2)]]
    assert mat_vec([[1, 2], [3, 4]], [1, 1]) == [3, 7]
    assert mat_mul([[1, 2]], [[1], [2]]) == [[5]]
    assert is_definite([[2, 1], [1, 2]], True) == (True, [2, Fraction(3, 2)])
    assert _definite([[4, 2], [2, 4]], 2, True) == (True, [2, Fraction(3, 2)])
    assert _definite([[-6, 0], [0, 3]], 3, False) == (False, [-2])


def test_mat_vec_matches_fraction_reference():
    rng = random.Random(41)
    for a in _oracle_matrices():
        cols = len(a[0])
        for v in ([mixed_fraction(rng) for _ in range(cols)], [ZERO] * cols,
                  [_huge(rng) if rng.random() < 0.3 else ZERO for _ in range(cols)]):
            got = mat_vec(a, v)
            assert got == mat_vec_reference(a, v)
            assert _all_fractions([got])


def _symmetric_cases():
    rng = random.Random(43)
    cases = []
    for _ in range(60):
        n = rng.randint(1, 5)
        big = rng.random() < 0.2
        p = [[_huge(rng) if big else mixed_fraction(rng) for _ in range(n)] for _ in range(n)]
        d = [rng.choice((-2, -1, 0, 1, 3)) for _ in range(n)]
        if rng.random() < 0.5:
            d = [abs(x) or 1 for x in d] if rng.random() < 0.5 else [-abs(x) or -1 for x in d]
        cases.append([[sum(p[k][i] * d[k] * p[k][j] for k in range(n)) for j in range(n)]
                      for i in range(n)])
    return cases


def test_is_definite_matches_fraction_reference():
    verdicts = set()
    for a in _symmetric_cases():
        for positive in (True, False):
            got = is_definite(a, positive)
            assert got == is_definite_reference(a, positive)
            assert all(type(x) is Fraction for x in got[1])
            verdicts.add((positive, got[0], len(got[1]) > 1))
    # definite and indefinite verdicts of both signs, with several pivots
    assert {(True, True, True), (False, True, True), (True, False, True),
            (False, False, True)} <= verdicts


# sympy, installed for the tests only, as an independent oracle

def _sympy_matrix(sympy, a):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])


def _from_sympy(x):
    return Fraction(int(x.p), int(x.q))


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    square = {True: 0, False: 0}     # invertible or singular square inputs seen
    for a in _oracle_matrices():
        if not a[0]:
            continue
        s = _sympy_matrix(sympy, a)
        m, pivots = s.rref()
        assert rref(a) == ([[_from_sympy(x) for x in m.row(i)] for i in range(m.rows)],
                           list(pivots)), a
        assert nullspace(a) == [[_from_sympy(x) for x in v] for v in s.nullspace()], a
        if len(a) == len(a[0]):
            invertible = s.rank() == len(a)
            square[invertible] += 1
            if invertible:
                inv = s.inv()
                assert invert(a) == [[_from_sympy(x) for x in inv.row(i)] for i in range(inv.rows)]
            else:
                with pytest.raises(ValueError):
                    invert(a)
    assert min(square.values()) > 0


def test_tall_invert_is_the_left_inverse_of_sympy_rref():
    # L = the first m rows of the reduced [B | I] for an n x m matrix B of
    # independent columns, so L B = I; dependent columns and wide matrices raise
    sympy = pytest.importorskip("sympy")
    rng = random.Random(73)
    outcomes = {True: 0, False: 0}
    for _ in range(80):
        n = rng.randint(1, 6)
        m = rng.randint(1, n + 1)
        b = [[mixed_fraction(rng) for _ in range(m)] for _ in range(n)]
        if m > 1 and rng.random() < 0.3:
            for row in b:
                row[-1] = row[0] * 3 - row[1] if m > 2 else row[0] * 2
        s = _sympy_matrix(sympy, b)
        independent = s.rank() == m
        outcomes[independent] += 1
        if not independent:
            with pytest.raises(ValueError, match="^matrix is singular$"):
                invert(b)
            continue
        reduced = sympy.Matrix.hstack(s, sympy.eye(n)).rref()[0]
        left = invert(b)
        assert left == [[_from_sympy(reduced[i, m + j]) for j in range(n)] for i in range(m)]
        assert mat_mul(left, b) == identity(m)
    assert min(outcomes.values()) > 10
    assert invert([[], []]) == []


# solve_rows: sparse integer rows of [a | b], the right-hand side in column
# cols, against solve on the same system as Fractions, the reference
# elimination and sympy

def _integer_rows(rng, a, b):
    """[a | b] as sparse integer rows: each row over the lcm of its
    denominators, times a random factor so that rows carry a content."""
    rows = []
    for row, bi in zip(a, b):
        entries = [*row, bi]
        den = lcm(*(x.denominator for x in entries))
        f = rng.choice((1, -1)) * rng.randint(1, 6)
        rows.append({j: x.numerator * (den // x.denominator) * f
                     for j, x in enumerate(entries) if x})
    return rows


def _solve_cases():
    """(a, b): the oracle matrices with their last column as b, as a zero b
    and as b = a x for a random x; then all-zero coefficient blocks."""
    rng = random.Random(14)
    cases = []
    for m in _oracle_matrices():
        if len(m[0]) < 2:
            continue
        a, b = [row[:-1] for row in m], [row[-1] for row in m]
        x = [mixed_fraction(rng) for _ in a[0]]
        cases += [(a, b), (a, [ZERO] * len(b)), (a, mat_vec(a, x))]
    for rows, cols in ((1, 1), (3, 2), (5, 4)):
        zero = [[ZERO] * cols for _ in range(rows)]
        cases += [(zero, [ZERO] * rows), (zero, [mixed_fraction(rng) or ONE for _ in range(rows)])]
    return cases


def _kinds(a, b, want):
    """Which of the covered kinds of system (a, b) is."""
    kinds = {"inconsistent" if want is None else "consistent"}
    if want is not None and want[1] and len(a) >= len(a[0]):
        kinds.add("rank deficient")
    if not any(x for row in a for x in row):
        kinds.add("zero coefficients")
    if any(abs(x.numerator) > 10 ** 90 for row in a for x in row):
        kinds.add("100 digits " + ("inconsistent" if want is None else "consistent"))
    return kinds


def test_solve_rows_matches_solve_and_reference():
    rng = random.Random(41)
    seen = set()
    for a, b in _solve_cases():
        want = solve_reference(a, b)
        rows = _integer_rows(rng, a, b)
        copies = [dict(row) for row in rows]
        got = solve_rows(rows, len(a[0]))
        assert got == want == solve(a, b), (a, b)
        assert rows == copies           # the caller's rows are left as they were
        if got is not None:
            assert _all_fractions([got[0]]) and _all_fractions(got[1])
        seen |= _kinds(a, b, want)
    assert seen == {"consistent", "inconsistent", "rank deficient", "zero coefficients",
                    "100 digits consistent", "100 digits inconsistent"}


def test_solve_rows_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(43)
    for a, b in _solve_cases():
        cols = len(a[0])
        m, pivots = _sympy_matrix(sympy, [[*row, bi] for row, bi in zip(a, b)]).rref()
        got = solve_rows(_integer_rows(rng, a, b), cols)
        if cols in pivots:
            assert got is None, (a, b)
            continue
        x = [ZERO] * cols
        for r, pc in enumerate(pivots):
            x[pc] = _from_sympy(m[r, cols])
        null = [[_from_sympy(v) for v in h] for h in _sympy_matrix(sympy, a).nullspace()]
        assert got == (x, null), (a, b)


def _third_kind_system(k):
    """The coboundary system of the third-kind bialgebra on su2^k x R^2
    (triple in the first su2, e4 the first R direction): (rows, scales, width)."""
    g = catalog("su2")
    for _ in range(k - 1):
        g = direct_product(g, catalog("su2"))
    g = direct_product(g, abelian(2))
    v = lambda i: Multivector.basis(g.dim, i)
    b = build_third_kind(g, v(0), v(1), v(2), v(3 * k), (1, -2, 3))
    return (*_coboundary_system(b, _check_glb(b)[1]), g.dim * (g.dim - 1) // 2)


def test_solve_rows_on_a_tall_system():
    # the 1274 x 92 system of the dim-14 third-kind bialgebra, consistent as
    # built and inconsistent once one right-hand side entry moves
    rows, scales, width = _third_kind_system(4)
    assert (len(rows), width + 1) == (1274, 92)
    a, b = rational_system(rows, scales, width)
    got = solve_rows(rows, width)
    assert got is not None and got == solve(a, b) == solve_reference(a, b)
    k = next(k for k, row in enumerate(rows) if width in row)
    rows[k] = {**rows[k], width: rows[k][width] + scales[k]}
    b[k] += 1
    assert solve_reference(a, b) is None
    assert solve_rows(rows, width) is None and solve(a, b) is None


def test_inconsistent_solve_stops_at_the_right_hand_side(monkeypatch):
    # once the right-hand side column leads, no row is eliminated at it
    eliminate, columns = linalg._eliminate, []
    def recording(row, pivot, c):
        columns.append(c)
        return eliminate(row, pivot, c)
    monkeypatch.setattr(linalg, "_eliminate", recording)
    rng = random.Random(47)
    inconsistent = 0
    for a, b in _solve_cases():
        cols = len(a[0])
        for got in (solve_rows(_integer_rows(rng, a, b), cols), solve(a, b)):
            assert (got is None) == (solve_reference(a, b) is None)
            if got is None:
                inconsistent += 1
                assert cols not in columns
            columns.clear()
    assert inconsistent > 100
    # the coboundary shape: a zero 147 x 21 block, 129 right-hand sides
    rhs = [ZERO] * 18 + [mixed_fraction(rng) or ONE for _ in range(129)]
    assert solve([[ZERO] * 21 for _ in rhs], rhs) is None
    assert columns == []
