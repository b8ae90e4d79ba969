"""Exact linear algebra over the rationals.

Matrices are lists of rows, entries are fractions.Fraction.  Sizes here are
tiny (algebra dimensions rarely exceed 8), so plain Gaussian elimination is
the right tool; no care is taken about asymptotics.
"""

from __future__ import annotations

from fractions import Fraction

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


def copy_matrix(a: Matrix) -> Matrix:
    return [row[:] for row in a]


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


def mat_vec(a: Matrix, v: Vector) -> Vector:
    return [sum((row[j] * v[j] for j in range(len(v))), ZERO) for row in a]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (new matrix, pivot column list)."""
    m = copy_matrix(a)
    if not m:
        return m, []
    rows, cols = len(m), len(m[0])
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = ONE / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(cols)]
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def row_space_basis(a: Matrix) -> Matrix:
    """Nonzero rows of the reduced echelon form: a canonical basis of the row space."""
    m, pivots = rref(a)
    return [m[i] for i in range(len(pivots))]


def nullspace(a: Matrix) -> list[Vector]:
    """Basis of {x : a x = 0}, one vector per free column."""
    if not a:
        return []
    cols = len(a[0])
    m, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ZERO] * cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: Vector) -> tuple[Vector, list[Vector]] | None:
    """Full solution set of a x = b: (particular, nullspace basis), or None if inconsistent."""
    if not a:
        return ([], []) if all(x == 0 for x in b) else None
    cols = len(a[0])
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    m, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, pc in enumerate(pivots):
        x[pc] = m[r][cols]
    return x, nullspace(a)


def invert(a: Matrix) -> Matrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(a)
    aug = [a[i][:] + identity(n)[i] for i in range(n)]
    m, pivots = rref(aug)
    if pivots[: n if len(pivots) >= n else len(pivots)] != list(range(n)):
        raise ValueError("matrix is singular")
    return [m[i][n:] for i in range(n)]


def determinant(a: Matrix) -> Fraction:
    """Determinant by Gaussian elimination with Fraction pivots on a copy."""
    n = len(a)
    m = copy_matrix(a)
    det = ONE
    for c in range(n):
        pivot_row = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            m[c], m[pivot_row] = m[pivot_row], m[c]
            det = -det
        det *= m[c][c]
        inv = ONE / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [m[i][j] - f * m[c][j] for j in range(n)]
    return det


def is_definite(a: Matrix, positive: bool) -> tuple[bool, list[Fraction]]:
    """Decide (positive or negative) definiteness of a symmetric rational matrix.

    Runs an LDL^T elimination with symmetric pivoting.  Completing with all
    pivots of the required sign certifies definiteness (congruence with a
    definite diagonal matrix); a definite matrix always offers a usable
    diagonal pivot at every step, so hitting none disproves definiteness.
    Returns (verdict, pivot list as witness).
    """
    n = len(a)
    m = copy_matrix(a)
    alive = list(range(n))
    pivots: list[Fraction] = []
    want = 1 if positive else -1
    while alive:
        k = next((i for i in alive if (m[i][i] > 0) == (want > 0) and m[i][i] != 0), None)
        if k is None:
            return False, pivots
        d = m[k][k]
        pivots.append(d)
        alive.remove(k)
        row_k = m[k][:]     # snapshot: the updates below must not see the zeroing
        for i in alive:
            f = m[i][k] / d
            if f != 0:
                for j in alive:
                    m[i][j] -= f * row_k[j]
            m[i][k] = ZERO
            m[k][i] = ZERO
    return True, pivots
