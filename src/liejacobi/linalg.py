"""Exact linear algebra over the rationals, computed with integers.

Matrices are lists of rows and vectors are lists; the public functions take
fractions.Fraction entries (ints are accepted) and return Fractions, and the
private integer entry points, which the other modules call, integers.

One fraction-free elimination kernel, `_echelon`, works on sparse integer
rows {column: nonzero int}; rref, rank, row_space_basis, nullspace, solve,
solve_rows, the integer nullspace rows `_null_rows` and the integer left
inverse `_inverse` read their answers from it.  `_reduced` reads the
Fraction rows of the reduced echelon form from it, and the nullspace
bases of nullspace and solve are the Fraction view of `_null_rows`.  A
Fraction matrix enters the kernel through one front end, `_rows`, that
refuses a row of another length than the first with ValueError and scales
each row's nonzero entries to integers by the lcm of their denominators;
solve_rows and _inverse take rows that are integers already, as
solve_coboundary and the contact and l.c.s. maps of jacobi build them from
integer forms, solve_rows with the right-hand side in column cols and
_inverse with a scale per row, returning the inverse as integers over one
denominator.  liealg reads the left inverse of a basis from _inverse, and
invert is its Fraction view.  The kernel eliminates by
cross-multiplication and divides every updated row by its content, so no
row carries a common factor.
Rows wait in buckets keyed by their leading column: a column no row starts
at costs nothing, and solve and solve_rows stop as soon as the smallest
leading column left is the right-hand side's, since the system is then
inconsistent.  Fractions are built only for the output, each entry of a
pivot row over its pivot.  The reduced row echelon form is unique, so this
is exactly the form that elimination over Fraction gives.  `_dense` puts a
whole matrix over one denominator, for the LDL^T of is_definite (`_definite`,
Bareiss's exact division, Math. Comp. 22, 1968) and for `_mat_vec`, the one
int product of mat_vec and of liealg's linear maps.  A matrix or vector of
the wrong shape raises ValueError everywhere.
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
    if any(len(row) != len(a[0]) for row in a):
        raise ValueError("matrix rows must have equal length")
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b; a row of a with another number of entries than b has rows, or
    rows of b of unequal length, raise ValueError."""
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    if any(len(row) != k for row in a) or any(len(row) != m for row in b):
        raise ValueError("matrix shapes do not match")
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


def _dense(a) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(den, rows): the rows of the rational matrix a, of any lengths, as
    integers over den, the lcm of all its denominators."""
    nums, den = _integers([x for row in a for x in row])
    it = iter(nums)
    return den, tuple(tuple(next(it) for _ in row) for row in a)


def _mat_vec(matrix: tuple, v: Vector) -> Vector:
    """M v for the integer form (den, rows) of a matrix M, summed in int
    over the nonzero entries of v only."""
    den, rows = matrix
    support, nums, d = _sparse(v)
    return [Fraction(sum(map(mul, [row[j] for j in support], nums)), den * d) for row in rows]


def mat_vec(a: Matrix, v: Vector) -> Vector:
    """a v, summed in int by _mat_vec; a row of a with another number of
    entries than v raises ValueError."""
    if any(len(row) != len(v) for row in a):
        raise ValueError(f"every row must have {len(v)} entries")
    return _mat_vec(_dense(a), v)


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


def _rows(a: Matrix, cols: int) -> tuple[list[dict[int, int]], list[int]]:
    """(rows, scales): the rows of a as sparse integer rows {column: nonzero
    int}, row i's nonzero entries times scales[i], the lcm of their
    denominators.  The one shape check of the Fraction front ends: a row
    that does not have cols entries raises ValueError."""
    rows, scales = [], []
    for row in a:
        if len(row) != cols:
            raise ValueError(f"every row must have {cols} entries")
        support, nums, den = _sparse(row)
        rows.append(dict(zip(support, nums)))
        scales.append(den)
    return rows, scales


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
    rows, pivots = _echelon(_rows(a, cols)[0], cols)
    return _reduced(rows, pivots, cols) + zeros(len(a) - len(rows), cols), pivots


def _reduced(rows: list[dict[int, int]], pivots: list[int], cols: int) -> Matrix:
    """The nonzero rows of the reduced row echelon form that _echelon's
    (rows, pivots) of cols columns stand for: each entry of a pivot row over
    its pivot."""
    return [[Fraction(row[j], row[c]) if j in row else ZERO for j in range(cols)]
            for row, c in zip(rows, pivots)]


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def row_space_basis(a: Matrix) -> Matrix:
    """Nonzero rows of the reduced echelon form: a canonical basis of the row space."""
    m, pivots = rref(a)
    return m[:len(pivots)]


def _null_rows(rows: list[dict[int, int]], pivots: list[int], cols: int) -> list[dict[int, int]]:
    """A nullspace basis of the first cols columns of an integer reduced
    echelon form from _echelon as sparse integer rows, one per free column
    fc below cols: 1 at fc and -row[fc] / row[pc] at the pivot column pc of
    each row, all times the lcm of the pivots of the rows that meet fc."""
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        hits = [(row, pc) for row, pc in zip(rows, pivots) if fc in row]
        den = lcm(*(row[pc] for row, pc in hits))
        basis.append({fc: den, **{pc: -row[fc] * (den // row[pc]) for row, pc in hits}})
    return basis


def _null_basis(rows: list[dict[int, int]], pivots: list[int], cols: int) -> list[Vector]:
    """Nullspace basis of the first cols columns of an integer reduced
    echelon form from _echelon, one vector per free column below cols: the
    Fraction view of _null_rows, each vector over its entry at its free
    column."""
    basis = []
    for fc, row in zip((c for c in range(cols) if c not in pivots), _null_rows(rows, pivots, cols)):
        v = [ZERO] * cols
        for j, x in row.items():
            v[j] = Fraction(x, row[fc])
        basis.append(v)
    return basis


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {x : a x = 0}, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    return _null_basis(*_echelon(_rows(a, cols)[0], cols), cols)


def solve(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """Full solution set of a x = b: (particular, nullspace basis), or None if
    inconsistent.  b needs one entry per row of a, else ValueError."""
    if not a:
        return ([], []) if all(x == 0 for x in b) else None
    if len(b) != len(a):
        raise ValueError(f"the right-hand side must have {len(a)} entries")
    cols = len(a[0])
    return solve_rows(_rows([[*row, bi] for row, bi in zip(a, b)], cols + 1)[0], cols)


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
    rows, scales = _rows(a, m)
    den, rows = _inverse(rows, m, scales)
    return [[Fraction(x, den) for x in row] for row in rows]


def is_definite(a: Matrix, positive: bool) -> tuple[bool, list[Fraction]]:
    """Decide (positive or negative) definiteness of a symmetric rational matrix.

    Runs an LDL^T elimination with symmetric pivoting.  Completing with all
    pivots of the required sign certifies definiteness (congruence with a
    definite diagonal matrix); a definite matrix always offers a usable
    diagonal pivot at every step, so hitting none disproves definiteness.
    Returns (verdict, pivot list as witness); a matrix that is not square
    raises ValueError.  The Fraction front end of _definite.
    """
    den, rows = _dense(a)
    return _definite(rows, den, positive)


def _definite(rows: list[list[int]], den: int, positive: bool) -> tuple[bool, list[Fraction]]:
    """is_definite of the matrix rows / den, for integer rows and den > 0.

    The elimination runs on rows and den divided by their common gcd, so on
    the lcm of the matrix's denominators whatever den is given, with
    Bareiss's exact division by the previous pivot prev: the Schur
    complement of rows / den is then m / (prev * den), entry by entry.
    """
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("a definiteness test needs a square matrix")
    g = gcd(den, *(x for row in rows for x in row))
    den //= g
    m = [[x // g for x in row] for row in rows]
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
