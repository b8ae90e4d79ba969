"""Shared shorthand for building exact elements in tests, seeded algebras with
mixed denominators, and Fraction reference routes for the structure-constant
kernels and the invariant scalar product."""

import random
from fractions import Fraction
from itertools import combinations

from liejacobi.catalog import catalog, heisenberg
from liejacobi.exterior import Form, Multivector, wedge
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    abelian,
    change_basis,
    direct_product,
    is_compact,
    killing_form,
    standard_labels,
)
from liejacobi.linalg import determinant, invert, mat_mul, mat_vec, transpose, zeros


def mv(dim, grade, terms):
    """Multivector literal: terms maps index tuples to ints/Fractions."""
    return Multivector.from_terms(dim, grade,
                                  {idx: Fraction(c) for idx, c in terms.items()})


def fm(dim, grade, terms):
    return Form.from_terms(dim, grade,
                           {idx: Fraction(c) for idx, c in terms.items()})


def vec(dim, i):
    return Multivector.basis(dim, i)


def cov(dim, i):
    return Form.basis(dim, i)


def random_fraction(rng: random.Random, bound=3) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_element(rng: random.Random, cls, dim, grade, terms=2, bound=3):
    """Sparse random element with small rational coefficients; grade clamps to dim."""
    grade = min(grade, dim)
    out = cls.zero(dim, grade)
    for _ in range(terms):
        idx = tuple(sorted(rng.sample(range(dim), grade)))
        out = out + cls.from_terms(dim, grade, {idx: random_fraction(rng, bound)})
    return out


# Algebras whose structure constants have mixed coprime denominators, so that
# the common denominator of the integer structure-constant table is a real
# lcm.  Random constants almost never satisfy the Jacobi identity; basis
# changes of catalog algebras give Lie inputs with the same denominators.

def mixed_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 7)))


def mixed_algebras():
    """(Lie algebras, non-Lie brackets), seeded, with mixed denominators."""
    rng = random.Random(2001)
    lie = []
    for g in (catalog("su2"), catalog("sl2r"), catalog("u2"), heisenberg(2),
              catalog("semidirect4_53").g):
        p = None
        while p is None or determinant(p) == 0:
            p = [[mixed_fraction(rng) for _ in range(g.dim)] for _ in range(g.dim)]
        lie.append(change_basis(g, p, name=f"{g.name}.mixed"))
    non_lie = []
    for dim in (3, 4, 4, 5, 6):
        structure = {}
        for ij in combinations(range(dim), 2):
            v = Multivector.from_coeffs([mixed_fraction(rng) for _ in range(dim)])
            if not v.is_zero():
                structure[ij] = v
        non_lie.append(LieAlgebra(f"random{dim}", dim, standard_labels(dim), structure))
    return lie, non_lie


# Reference routes for the integer structure-constant kernels.  They read the
# Fraction structure mapping directly and never touch the integer table, so
# the library's fast paths are checked against an independent computation.

def bracket_reference(g, x, y):
    """[x, y] by bilinear expansion over g.structure, in Fraction arithmetic."""
    out = g.zero_vector()
    for (i, j), value in g.structure.items():
        c = x.coefficient((i,)) * y.coefficient((j,)) - x.coefficient((j,)) * y.coefficient((i,))
        out = out + value.scale(c)
    return out


def ad_matrix(g, x):
    """Matrix of ad_x = [x, .] over the basis (columns are images), from
    reference brackets."""
    cols = [bracket_reference(g, x, g.basis_vector(j)).coeffs() for j in range(g.dim)]
    return [[cols[j][i] for j in range(g.dim)] for i in range(g.dim)]


def jacobiator_reference(g, i, j, k):
    """[[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] by bracket composition."""
    ei, ej, ek = map(g.basis_vector, (i, j, k))
    br = lambda x, y: bracket_reference(g, x, y)
    return br(br(ei, ej), ek) + br(br(ej, ek), ei) + br(br(ek, ei), ej)


def ce_differential_reference(source, element):
    """(d w)(x_0..x_k) = sum_{a<b} (-1)^{a+b} w([x_a, x_b], x_0..no a..no b..x_k),
    read coefficient by coefficient."""
    n, k = source.dim, element.grade
    if element.is_zero() or k >= n:
        return type(element).zero(n, min(k + 1, n))
    acc = {}
    for big in combinations(range(n), k + 1):
        total = Fraction(0)
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                value = source.structure.get((big[a], big[b]))    # big is increasing
                if value is None:
                    continue
                rest = big[:a] + big[a + 1:b] + big[b + 1:]
                for (m,), c in value.terms.items():
                    total += (-1) ** (a + b) * c * element.coefficient((m,) + rest)
        if total:
            acc[big] = total
    return type(element)(n, k + 1, acc)


def schouten_reference(g, p, q):
    """Schouten bracket on decomposables, (-1)^{k+1} sum_{i,j} (-1)^{i+j}
    [x_i, y_j] ^ (rest of p) ^ (rest of q), with reference brackets."""
    k, kp = p.grade, q.grade
    out = Multivector.zero(g.dim, min(max(k + kp - 1, 0), g.dim))
    if k == 0 or kp == 0:
        return out
    for pi, a in p.terms.items():
        for qi, b in q.terms.items():
            for ipos in range(k):
                for jpos in range(kp):
                    term = bracket_reference(g, g.basis_vector(pi[ipos]), g.basis_vector(qi[jpos]))
                    for idx in pi[:ipos] + pi[ipos + 1:] + qi[:jpos] + qi[jpos + 1:]:
                        term = wedge(term, g.basis_vector(idx))
                    sign = (-1) ** (k + 1 + ipos + jpos)
                    out = out + term.scale(sign * a * b)
    return out


# Reference routes for the invariant scalar product B of a compact-type
# algebra and for B-duals of covectors: the adapted-basis congruence and a
# matrix inverse, which the library replaced by closed forms.

def compact_algebras():
    """Compact-type algebras: su2, u2, the bases of the three compact catalog
    bialgebras, su2 x R^2 and su2 x su2 x R^2, each also in a seeded rational
    basis."""
    rng = random.Random(2002)
    su2 = catalog("su2")
    out = []
    for g in (su2, catalog("u2"), *(catalog(name).g for name in
                                    ("firstkind4", "secondkind4", "thirdkind_u2")),
              direct_product(su2, abelian(2)), direct_product(direct_product(su2, su2), abelian(2))):
        p = None
        while p is None or determinant(p) == 0:
            p = [[mixed_fraction(rng) for _ in range(g.dim)] for _ in range(g.dim)]
        out += [g, change_basis(g, p, name=f"{g.name}.mixed")]
    return out


def invariant_scalar_product_reference(g):
    """P^-T diag(-K_d, I) P^-1, where the columns of P are the derived rows,
    then the center rows, and K_d is the Killing form on the derived rows."""
    report = is_compact(g)
    basis = [list(r) for r in report.derived.rows] + [list(r) for r in report.center.rows]
    nd, n = report.derived.rank, g.dim
    k = killing_form(g).rows
    b_adapted = zeros(n, n)
    for i in range(n):
        for j in range(n):
            if i < nd and j < nd:
                b_adapted[i][j] = -sum(basis[i][a] * k[a][c] * basis[j][c]
                                       for a in range(n) for c in range(n))
            elif i == j:
                b_adapted[i][j] = Fraction(1)
    p_inv = invert(transpose(basis))
    return LinearMap.from_rows(mat_mul(transpose(p_inv), mat_mul(b_adapted, p_inv)))


def b_dual_reference(b_form, covector):
    """Vector v with B(v, .) = covector, by inverting the matrix of B."""
    return mat_vec(invert(b_form.rows), list(covector))
