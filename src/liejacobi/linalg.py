"""Exact linear algebra over the rationals, computed with integers.

Matrices are lists of rows and vectors are lists; entries are
fractions.Fraction (ints are accepted), and every result entry is a Fraction.

One fraction-free elimination kernel, `_echelon`, works on sparse integer
rows {column: nonzero int}; rref, rank, row_space_basis, nullspace, solve,
solve_rows and the integer left inverse `_inverse` read their answers from
it.  A Fraction matrix enters the kernel through one front end that scales
each row's nonzero entries to integers by the lcm of their denominators;
solve_rows and _inverse take rows that are integers already, as
solve_coboundary and the contact and l.c.s. maps of jacobi build them from
integer forms, solve_rows with the right-hand side in column cols and
_inverse with a scale per row, returning the inverse as integers over one
denominator.  invert, the left inverse that liealg computes once per basis,
is the Fraction view of _inverse.  The kernel eliminates by
cross-multiplication and divides every updated row by its content, so no
row carries a common factor.
Rows wait in buckets keyed by their leading column: a column no row starts
at costs nothing, and solve and solve_rows stop as soon as the smallest
leading column left is the right-hand side's, since the system is then
inconsistent.  Fractions are built only for the output, each entry of a
pivot row over its pivot.  The reduced row echelon form is unique, so this
is exactly the form that elimination over Fraction gives.  mat_vec sums in
int too, and the LDL^T of is_definite uses Bareiss's exact division
(Math. Comp. 22, 1968).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

Matrix = list[list[Fraction]]
Vector = list[Fraction]

ZERO = Fraction(0)
ONE = Fraction(1)


def frac(x) -> Fraction:
    """Coerce ints, strings like "p/q" and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as a rational number")


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO] * cols for _ in range(rows)]


def identity(n: int) -> Matrix:
    m = zeros(n, n)
    for i in range(n):
        m[i][i] = ONE
    return m


def transpose(a: Matrix) -> Matrix:
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        for j in range(m):
            out[i][j] = sum((a[i][t] * b[t][j] for t in range(k)), ZERO)
    return out


def _integers(xs) -> tuple[list[int], int]:
    """(nums, den): den is the lcm of the denominators of the rationals xs
    and nums[i] = xs[i] * den."""
    den = lcm(*[x.denominator for x in xs])
    return [x.numerator * (den // x.denominator) for x in xs], den


def _sparse(v) -> tuple[list[int], list[int], int]:
    """(support, nums, den): the indices of the nonzero entries of v and
    those entries as integers over den, the lcm of their denominators."""
    support = [j for j, x in enumerate(v) if x]
    nums, den = _integers([v[j] for j in support])
    return support, nums, den


def mat_vec(a: Matrix, v: Vector) -> Vector:
    """a v, summed in int over the nonzero entries of v only."""
    support, nums, den = _sparse(v)
    out = []
    for row in a:
        ints, d = _integers([row[j] for j in support])
        out.append(Fraction(sum(map(mul, ints, nums)), d * den))
    return out


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict[int, int], pivot: dict[int, int], c: int) -> dict[int, int]:
    """Primitive form of pivot[c] * row - row[c] * pivot, which is zero at c;
    the two factors are first divided by their gcd."""
    g = gcd(pivot[c], row[c])
    p, f = pivot[c] // g, row[c] // g
    out = {j: p * x for j, x in row.items()} if p != 1 else dict(row)
    for j, y in pivot.items():
        v = out.get(j, 0) - f * y
        if v:
            out[j] = v
        else:
            del out[j]
    return _primitive(out) if out else out


def _rows(a: Matrix):
    """The rows of a as sparse integer rows {column: nonzero int}: each row's
    nonzero entries scaled by the lcm of their denominators (zero rows
    dropped)."""
    for row in a:
        support, nums, _ = _sparse(row)
        if support:
            yield dict(zip(support, nums))


def _echelon(rows, stop: int) -> tuple[list[dict[int, int]], list[int]] | None:
    """Reduced echelon form of sparse integer rows {column: nonzero int}:
    (rows, pivots), with rows[k] a primitive row whose entries over
    rows[k][pivots[k]] are row k of the reduced row echelon form.  None as
    soon as a row leads at column `stop`, once every column below it is
    eliminated."""
    waiting: dict[int, list[dict[int, int]]] = {}    # leading column -> rows
    for row in rows:
        if row:
            waiting.setdefault(min(row), []).append(row)
    out: list[dict[int, int]] = []
    pivots: list[int] = []
    while waiting:
        c = min(waiting)
        if c == stop:
            return None
        bucket = waiting.pop(c)
        shortest = min(bucket, key=len)
        pivot = _primitive(shortest)    # eliminated rows come out primitive anyway
        for row in bucket:
            if row is not shortest:
                row = _eliminate(row, pivot, c)
                if row:
                    waiting.setdefault(min(row), []).append(row)
        out = [_eliminate(row, pivot, c) if c in row else row for row in out]
        out.append(pivot)
        pivots.append(c)
    return out, pivots


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (new matrix, pivot column list)."""
    if not a:
        return [], []
    cols = len(a[0])
    rows, pivots = _echelon(_rows(a), cols)
    out = []
    for row, c in zip(rows, pivots):
        v = [ZERO] * cols
        p = row[c]
        for j, x in row.items():
            v[j] = Fraction(x, p)
        out.append(v)
    return out + zeros(len(a) - len(out), cols), pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def row_space_basis(a: Matrix) -> Matrix:
    """Nonzero rows of the reduced echelon form: a canonical basis of the row space."""
    m, pivots = rref(a)
    return m[:len(pivots)]


def _null_basis(rows: list[dict[int, int]], pivots: list[int], cols: int) -> list[Vector]:
    """Nullspace basis of the first cols columns of an integer reduced
    echelon form from _echelon, one vector per free column below cols."""
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[fc] = ONE
        for row, pc in zip(rows, pivots):
            v[pc] = Fraction(-row.get(fc, 0), row[pc])
        basis.append(v)
    return basis


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {x : a x = 0}, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    return _null_basis(*_echelon(_rows(a), cols), cols)


def solve(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """Full solution set of a x = b: (particular, nullspace basis), or None if inconsistent."""
    if not a:
        return ([], []) if all(x == 0 for x in b) else None
    cols = len(a[0])
    return solve_rows(_rows([*row, bi] for row, bi in zip(a, b)), cols)


def solve_rows(rows, cols: int) -> tuple[Vector, list[Vector]] | None:
    """solve on integer rows: rows are sparse {column: nonzero int} rows of
    [a | b], the right-hand side in column cols, and the result is what
    solve returns on the same rows as Fractions.

    One elimination of [a | b], which stops when the right-hand side
    column leads a row (inconsistent).  For a consistent system its first
    columns are the reduced echelon form of a, so they also give the
    nullspace.
    """
    reduced = _echelon(rows, cols)
    if reduced is None:
        return None
    rows, pivots = reduced
    x = [ZERO] * cols
    for row, pc in zip(rows, pivots):
        x[pc] = Fraction(row.get(cols, 0), row[pc])
    return x, _null_basis(rows, pivots, cols)


def _inverse(rows: list[dict[int, int]], m: int, scales: list[int]) -> tuple[int, list[list[int]]]:
    """(den, L): L / den is the left inverse (L B = I) of the matrix B of m
    independent columns whose row i is rows[i] / scales[i], rows being sparse
    integer rows {column: nonzero int}; else ValueError.  [B | I] scaled by
    scales[i] in row i is the integer matrix [rows | diag(scales)], with the
    same reduced echelon form, whose first m rows hold L."""
    n = len(rows)
    reduced, pivots = _echelon([{**row, m + i: s} for i, (row, s) in enumerate(zip(rows, scales))],
                               m + n)
    if pivots[:m] != list(range(m)):
        raise ValueError("matrix is singular")
    reduced = reduced[:m]
    den = lcm(*(row[k] for k, row in enumerate(reduced)))
    return den, [[row.get(m + j, 0) * (den // row[k]) for j in range(n)]
                 for k, row in enumerate(reduced)]


def invert(a: Matrix) -> Matrix:
    """Left inverse L (L B = I) of a matrix B of independent columns, the
    inverse for square B; else ValueError.  The Fraction view of _inverse."""
    m = len(a[0]) if a else 0
    sparse = [_sparse(row) for row in a]
    den, rows = _inverse([dict(zip(support, nums)) for support, nums, _ in sparse], m,
                         [d for _, _, d in sparse])
    return [[Fraction(x, den) for x in row] for row in rows]


def is_definite(a: Matrix, positive: bool) -> tuple[bool, list[Fraction]]:
    """Decide (positive or negative) definiteness of a symmetric rational matrix.

    Runs an LDL^T elimination with symmetric pivoting.  Completing with all
    pivots of the required sign certifies definiteness (congruence with a
    definite diagonal matrix); a definite matrix always offers a usable
    diagonal pivot at every step, so hitting none disproves definiteness.
    Returns (verdict, pivot list as witness).

    The elimination runs on den * a, den the lcm of the denominators, with
    Bareiss's exact division by the previous pivot prev: the Schur
    complement of a is then m / (prev * den), entry by entry.
    """
    n = len(a)
    nums, den = _integers([x for row in a for x in row])
    m = [nums[i * n:(i + 1) * n] for i in range(n)]
    alive = list(range(n))
    pivots: list[Fraction] = []
    prev = 1
    while alive:
        k = next((i for i in alive if m[i][i] and ((m[i][i] > 0) == (prev > 0)) == positive),
                 None)
        if k is None:
            return False, pivots
        p = m[k][k]
        pivots.append(Fraction(p, prev * den))
        alive.remove(k)
        row_k = m[k]
        for i in alive:
            row, f = m[i], m[i][k]
            for j in alive:
                row[j] = (p * row[j] - f * row_k[j]) // prev
        prev = p
    return True, pivots
