"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra stores brackets of basis pairs (i, j) for i < j only; the rest
follows by antisymmetry.  Each algebra also keeps one table of its structure
constants, built once from that read-only mapping: integers N_ij^k over one
common denominator den (the lcm of all the algebra's denominators), with
c_ij^k = N_ij^k / den.  The bracket, the Jacobi identity, the Killing form
and the Schouten and Chevalley-Eilenberg sums are summed from it in int
arithmetic, with one Fraction built per output coefficient.  Structural
computations (center, derived algebra, cocycles, derivations, compactness)
reduce to exact rational linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from liejacobi import linalg
from liejacobi.exterior import Form, Multivector, evaluate, wedge
from liejacobi.linalg import ZERO, Matrix, frac

# Largest algebra dimension accepted from documents and catalog names.  The
# Jacobi check is O(dim^3) and derivations solves for dim^2 unknowns, so an
# unbounded dimension lets one input run for hours; the paper's examples
# have dim <= 4 and the scaling series stop near 12.
MAX_DIM = 32

# Largest number of decimal digits in a document rational's numerator or
# denominator, and in the common denominator of one algebra's or element's
# coefficients, which would otherwise grow with their number.  It bounds the
# integers the structure-constant kernels start from.
MAX_DIGITS = 100


def dual_label(label: str) -> str:
    """Dual basis label: e1 -> e^1, x -> x^."""
    head = label.rstrip("0123456789")
    tail = label[len(head):]
    return f"{head}^{tail}" if tail else f"{label}^"


def standard_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


@dataclass(frozen=True)
class LieAlgebra:
    """Lie algebra over the rationals, described by structure constants.

    structure maps (i, j) with i < j to the bracket [e_i, e_j] as a grade-1
    multivector; absent pairs bracket to zero.  Construction copies it into a
    read-only mapping, so the integer structure-constant table `_ad`, built
    on first use, cannot go stale; dataclasses.replace builds a new algebra
    with its own table.  Construction does not check the Jacobi identity;
    use validate() for that.
    """

    name: str
    dim: int
    basis_labels: tuple[str, ...]
    structure: Mapping[tuple[int, int], Multivector] = field(default_factory=dict)

    def __post_init__(self):
        if len(self.basis_labels) != self.dim:
            raise ValueError("label count does not match dimension")
        if len(set(self.basis_labels)) != self.dim:
            raise ValueError("basis labels must be distinct")
        for (i, j), value in self.structure.items():
            if not (0 <= i < j < self.dim):
                raise ValueError(f"structure key {(i, j)} must satisfy 0 <= i < j < dim")
            if not isinstance(value, Multivector) or value.dim != self.dim or value.grade != 1:
                raise ValueError(f"structure value for {(i, j)} must be a grade-1 multivector")
            if value.is_zero():
                raise ValueError("zero brackets must be omitted")
        object.__setattr__(self, "structure", MappingProxyType(dict(self.structure)))

    def __reduce__(self):
        # a mappingproxy cannot be pickled; copy and pickle through the constructor
        return (LieAlgebra, (self.name, self.dim, self.basis_labels, dict(self.structure)))

    @cached_property
    def _ad(self) -> tuple[int, tuple[dict[int, dict[int, int]], ...]]:
        """(den, table): table[i][j] maps k to the integer N_ij^k, where
        c_ij^k = N_ij^k / den, for both orders of every nonzero pair; zero
        pairs are absent and den is the lcm of all the denominators."""
        # built from the values' private integer forms: a public call made only
        # on first use would make the traced calls of one operation depend on
        # whether the table was already built
        den = 1
        for value in self.structure.values():
            den = lcm(den, value._ints()[1])
        table: tuple[dict, ...] = tuple({} for _ in range(self.dim))
        for (i, j), value in self.structure.items():
            nums, d = value._ints()
            row = {k: num * (den // d) for (k,), num in nums.items()}
            table[i][j] = row
            table[j][i] = {k: -num for k, num in row.items()}
        return den, table

    @classmethod
    def from_brackets(cls, name: str, dim: int, brackets: Mapping[tuple[int, int], Iterable],
                      labels: tuple[str, ...] | None = None) -> "LieAlgebra":
        """Build from {(i, j): coefficient list} with i < j."""
        structure = {}
        for (i, j), coeffs in brackets.items():
            v = Multivector.from_coeffs(list(coeffs))
            if v.dim != dim:
                raise ValueError("coefficient list length must equal dim")
            if not v.is_zero():
                structure[(i, j)] = v
        return cls(name, dim, labels or standard_labels(dim), structure)

    @property
    def dual_labels(self) -> tuple[str, ...]:
        return tuple(dual_label(x) for x in self.basis_labels)

    def zero_vector(self) -> Multivector:
        return Multivector.zero(self.dim, 1)

    def basis_vector(self, i: int) -> Multivector:
        return Multivector.basis(self.dim, i)

    def basis_form(self, i: int) -> Form:
        return Form.basis(self.dim, i)

    def _vector(self, acc: dict[int, int], scale: int) -> Multivector:
        # the grade-1 element sum_k (acc[k] / scale) e_k
        return Multivector._from_ints(self.dim, 1, {(k,): v for k, v in acc.items()}, scale)

    def bracket_basis(self, i: int, j: int) -> Multivector:
        den, table = self._ad
        return self._vector(table[i].get(j, {}), den)

    def bracket(self, x: Multivector, y: Multivector) -> Multivector:
        """Bilinear extension of the basis brackets to grade-1 elements."""
        if x.grade != 1 or y.grade != 1:
            raise ValueError("bracket arguments must have grade 1")
        den, table = self._ad
        xs, dx = x._ints()
        ys, dy = y._ints()
        acc: dict[int, int] = {}
        for (i,), a in xs.items():
            row = table[i]
            for (j,), b in ys.items():
                terms = row.get(j)
                if terms is None:
                    continue
                ab = a * b
                for k, c in terms.items():
                    acc[k] = acc.get(k, 0) + ab * c
        return self._vector(acc, dx * dy * den)

    def validate(self) -> "ValidationReport":
        """Check the Jacobi identity on all basis triples.

        The residual [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] has
        e_m-coefficient sum_l c_ab^l c_lc^m over the three cyclic (a, b, c),
        summed as integers over den^2.
        """
        den, table = self._ad
        violations = []
        for i, j, k in combinations(range(self.dim), 3):
            acc: dict[int, int] = {}
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for l, x in table[a].get(b, {}).items():
                    for m, y in table[l].get(c, {}).items():
                        acc[m] = acc.get(m, 0) + x * y
            res = self._vector(acc, den * den)
            if not res.is_zero():
                violations.append(((i, j, k), res))
        return ValidationReport(self, tuple(violations))

    def rename(self, name: str) -> "LieAlgebra":
        return LieAlgebra(name, self.dim, self.basis_labels, self.structure)


@dataclass(frozen=True)
class ValidationReport:
    algebra: LieAlgebra
    violations: tuple[tuple[tuple[int, int, int], Multivector], ...]

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return f"{self.algebra.name}: Jacobi identity holds on all basis triples"
        lines = [f"{self.algebra.name}: Jacobi identity fails on {len(self.violations)} triple(s)"]
        labels = self.algebra.basis_labels
        for (i, j, k), res in self.violations:
            lines.append(f"  ({labels[i]},{labels[j]},{labels[k]}): residual {res.render(list(labels))}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Subspace:
    """Subspace of an algebra or of its dual, kept in reduced echelon form."""

    dim: int
    rows: tuple[tuple[Fraction, ...], ...]
    dual: bool = False

    @classmethod
    def from_vectors(cls, dim: int, vectors: Iterable[Iterable], dual: bool = False) -> "Subspace":
        mat = [[frac(c) for c in v] for v in vectors]
        for row in mat:
            if len(row) != dim:
                raise ValueError("vector length must equal the ambient dimension")
        basis = linalg.row_space_basis(mat)
        return cls(dim, tuple(tuple(r) for r in basis), dual)

    @classmethod
    def from_elements(cls, elements: Iterable) -> "Subspace":
        elems = list(elements)
        if not elems:
            raise ValueError("need at least one element to infer the ambient space")
        dual = isinstance(elems[0], Form)
        return cls.from_vectors(elems[0].dim, [e.coeffs() for e in elems], dual)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, coeffs: Iterable) -> bool:
        v = [frac(c) for c in coeffs]
        mat = [list(r) for r in self.rows]
        return linalg.rank(mat + [v]) == self.rank

    def contains_element(self, e) -> bool:
        if e.grade != 1 and not e.is_zero():
            raise ValueError("membership is defined for grade-1 elements")
        return self.contains(e.coeffs() if not e.is_zero() else [ZERO] * self.dim)

    def elements(self) -> list:
        cls = Form if self.dual else Multivector
        return [cls.from_coeffs(r) for r in self.rows]


def annihilator(s: Subspace) -> Subspace:
    """All covectors (or vectors, if s is dual) vanishing on s."""
    rows = [list(r) for r in s.rows]
    basis = linalg.nullspace(rows) if rows else [list(r) for r in linalg.identity(s.dim)]
    return Subspace.from_vectors(s.dim, basis, dual=not s.dual)


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}."""
    rows = []
    for j in range(g.dim):
        ad_cols = [g.bracket_basis(i, j).coeffs() for i in range(g.dim)]
        for component in range(g.dim):
            rows.append([ad_cols[i][component] for i in range(g.dim)])
    basis = linalg.nullspace(rows) if rows else []
    return Subspace.from_vectors(g.dim, basis)


def derived_algebra(g: LieAlgebra) -> Subspace:
    """Span of all brackets [e_i, e_j]."""
    vectors = [v.coeffs() for v in g.structure.values()]
    return Subspace.from_vectors(g.dim, vectors)


def one_cocycles(g: LieAlgebra) -> Subspace:
    """Covectors vanishing on the derived algebra: the closed 1-forms."""
    return annihilator(derived_algebra(g))


@dataclass(frozen=True)
class LinearMap:
    """Linear map between coordinate spaces; matrix columns are basis images."""

    matrix: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "LinearMap":
        return cls(tuple(tuple(frac(c) for c in row) for row in rows))

    @classmethod
    def from_columns(cls, cols: Iterable[Iterable]) -> "LinearMap":
        cols = [list(c) for c in cols]
        return cls.from_rows(linalg.transpose([[frac(x) for x in c] for c in cols]))

    @classmethod
    def identity(cls, n: int) -> "LinearMap":
        return cls.from_rows(linalg.identity(n))

    @property
    def rows(self) -> Matrix:
        return [list(r) for r in self.matrix]

    @property
    def domain_dim(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    @property
    def codomain_dim(self) -> int:
        return len(self.matrix)

    def apply(self, coeffs: Iterable) -> list[Fraction]:
        return linalg.mat_vec(self.matrix, [frac(c) for c in coeffs])

    def apply_element(self, e):
        if e.is_zero():
            return type(e).zero(self.codomain_dim, 1)
        return type(e).from_coeffs(self.apply(e.coeffs()))

    def transpose(self) -> "LinearMap":
        return LinearMap.from_rows(linalg.transpose(self.rows))

    def add(self, other: "LinearMap") -> "LinearMap":
        return LinearMap.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c) -> "LinearMap":
        f = frac(c)
        return LinearMap.from_rows([[f * x for x in row] for row in self.rows])

    def is_symmetric(self) -> bool:
        return self.rows == linalg.transpose(self.rows)

    def value(self, x_coeffs: Iterable, y_coeffs: Iterable) -> Fraction:
        """Bilinear form value when the matrix is square: x^T M y."""
        my = self.apply(y_coeffs)
        return sum((frac(a) * b for a, b in zip(x_coeffs, my)), ZERO)


def is_derivation(g: LieAlgebra, psi: LinearMap) -> bool:
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = psi.apply_element(g.bracket_basis(i, j))
            rhs = (g.bracket(psi.apply_element(g.basis_vector(i)), g.basis_vector(j))
                   + g.bracket(g.basis_vector(i), psi.apply_element(g.basis_vector(j))))
            if lhs != rhs:
                return False
    return True


def derivations(g: LieAlgebra) -> list[LinearMap]:
    """Basis of the derivation algebra, by solving the Leibniz constraints."""
    n = g.dim
    rows = []
    # unknowns: psi[a][b] flattened as a * n + b
    for i in range(n):
        for j in range(i + 1, n):
            cij = g.bracket_basis(i, j).coeffs()
            for component in range(n):
                row = [ZERO] * (n * n)
                for b in range(n):
                    # psi applied to [e_i, e_j]
                    row[component * n + b] += cij[b]
                for a in range(n):
                    # [psi e_i, e_j] contributes psi[a][i] [e_a, e_j]
                    row[a * n + i] -= g.bracket_basis(a, j).coeffs()[component]
                    # [e_i, psi e_j] contributes psi[a][j] [e_i, e_a]
                    row[a * n + j] -= g.bracket_basis(i, a).coeffs()[component]
                rows.append(row)
    if not rows:
        basis = [list(r) for r in linalg.identity(n * n)]
    else:
        basis = linalg.nullspace(rows)
    maps = []
    for flat in basis:
        maps.append(LinearMap.from_rows([[flat[a * n + b] for b in range(n)] for a in range(n)]))
    return maps


def killing_form(g: LieAlgebra) -> LinearMap:
    """K(x, y) = trace(ad_x ad_y), as a symmetric matrix over the basis.

    Summed from the integer table: K_ij = sum_{m,l} N_im^l N_jl^m / den^2.
    """
    n = g.dim
    den, table = g._ad
    k = linalg.zeros(n, n)
    for i in range(n):
        for j in range(i, n):
            tr = 0
            for m, terms in table[i].items():   # [e_i, e_m] = sum_l c_im^l e_l
                for l, a in terms.items():
                    back = table[j].get(l)      # [e_j, e_l] = sum_m c_jl^m e_m
                    if back is not None and m in back:
                        tr += a * back[m]
            k[i][j] = k[j][i] = Fraction(tr, den * den)
    return LinearMap.from_rows(k)


@dataclass(frozen=True)
class CompactnessReport:
    """Outcome of the compactness test g = Z(g) + [g, g] with definite Killing form."""

    algebra: LieAlgebra
    center: Subspace
    derived: Subspace
    splits: bool
    killing_definite: bool
    killing_pivots: tuple[Fraction, ...]

    @property
    def compact(self) -> bool:
        return self.splits and self.killing_definite

    def __bool__(self) -> bool:
        return self.compact

    def describe(self) -> str:
        return (f"{self.algebra.name}: center dim {self.center.rank}, derived dim {self.derived.rank}, "
                f"direct sum: {self.splits}, Killing negative definite on derived: {self.killing_definite}")


def _restrict_bilinear(b: LinearMap, vectors: list[list[Fraction]]) -> Matrix:
    """Gram matrix v^T B w over the vectors, with B w computed once per w."""
    images = [b.apply(w) for w in vectors]
    return [[sum((x * y for x, y in zip(v, bw)), ZERO) for bw in images] for v in vectors]


def is_compact(g: LieAlgebra) -> CompactnessReport:
    """Compact type: the center and derived algebra span g independently and
    the Killing form is negative definite on the derived algebra."""
    z = center(g)
    d = derived_algebra(g)
    splits = (z.rank + d.rank == g.dim
              and linalg.rank([list(r) for r in z.rows + d.rows]) == g.dim)
    k = killing_form(g)
    restricted = _restrict_bilinear(k, [list(r) for r in d.rows])
    definite, pivots = linalg.is_definite(restricted, positive=False)
    return CompactnessReport(g, z, d, splits, definite, tuple(pivots))


def invariant_scalar_product(g: LieAlgebra) -> LinearMap:
    """Ad-invariant positive definite product on a compact-type algebra.

    Minus the Killing form on the derived algebra, the standard product on the
    chosen center basis, and the two blocks orthogonal to each other.  The
    Killing form vanishes on the center, so B = -K + Q^T Q, where Q holds the
    center rows of the inverse of the adapted basis (derived rows, then
    center rows).
    """
    report = is_compact(g)
    if not report.compact:
        raise ValueError(f"{g.name} is not of compact type")
    basis = [list(r) for r in report.derived.rows] + [list(r) for r in report.center.rows]
    q = linalg.invert(linalg.transpose(basis))[report.derived.rank:]
    k = killing_form(g).matrix
    n = g.dim
    return LinearMap.from_rows(
        [[sum((row[i] * row[j] for row in q), -k[i][j]) for j in range(n)] for i in range(n)])


def direct_product(g: LieAlgebra, h: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Product algebra on fresh labels e1..e_{m+n}; blocks do not interact."""
    n = g.dim + h.dim
    structure: dict[tuple[int, int], Multivector] = {}
    for (i, j), v in g.structure.items():
        structure[(i, j)] = Multivector.from_coeffs(v.coeffs() + [ZERO] * h.dim)
    for (i, j), v in h.structure.items():
        structure[(i + g.dim, j + g.dim)] = Multivector.from_coeffs([ZERO] * g.dim + v.coeffs())
    return LieAlgebra(name or f"{g.name}(+){h.name}", n, standard_labels(n), structure)


def abelian(n: int, name: str | None = None) -> LieAlgebra:
    return LieAlgebra(name or f"abelian({n})", n, standard_labels(n), {})


def central_extension(h: LieAlgebra, omega: Form, name: str | None = None) -> LieAlgebra:
    """Extension of h by a central line, twisted by a closed 2-form.

    [(x, a), (y, b)] = ([x, y], -omega(x, y)).  omega must be a 2-cocycle of
    h (closed for the Chevalley-Eilenberg differential).
    """
    from liejacobi.schouten import ce_differential

    if omega.dim != h.dim or (omega.grade != 2 and not omega.is_zero()):
        raise ValueError("omega must be a 2-form on h")
    if not ce_differential(h, omega).is_zero():
        raise ValueError("omega is not closed, so the extension would not be a Lie algebra")
    n = h.dim + 1
    structure: dict[tuple[int, int], Multivector] = {}
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            head = h.bracket_basis(i, j).coeffs()
            tail = -evaluate(omega, h.basis_vector(i), h.basis_vector(j))
            v = Multivector.from_coeffs(head + [tail])
            if not v.is_zero():
                structure[(i, j)] = v
    return LieAlgebra(name or f"{h.name}+center", n, standard_labels(n), structure)


def semidirect_by_derivation(h: LieAlgebra, psi: LinearMap, name: str | None = None) -> LieAlgebra:
    """h extended by a line acting through a derivation:
    [(x, a), (y, b)] = ([x, y] + a psi(y) - b psi(x), 0)."""
    if psi.codomain_dim != h.dim or psi.domain_dim != h.dim:
        raise ValueError("psi must be an endomorphism of h")
    if not is_derivation(h, psi):
        raise ValueError("psi is not a derivation of h")
    n = h.dim + 1
    structure: dict[tuple[int, int], Multivector] = {}
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            v = Multivector.from_coeffs(h.bracket_basis(i, j).coeffs() + [ZERO])
            if not v.is_zero():
                structure[(i, j)] = v
        # [e_i, e_{n}] = -psi(e_i)
        v = Multivector.from_coeffs([-c for c in psi.apply([ZERO] * i + [Fraction(1)] + [ZERO] * (h.dim - i - 1))] + [ZERO])
        if not v.is_zero():
            structure[(i, h.dim)] = v
    return LieAlgebra(name or f"{h.name}:line", n, standard_labels(n), structure)


def change_basis(g: LieAlgebra, columns: Matrix, name: str | None = None) -> LieAlgebra:
    """Structure constants in a new basis; columns are the new basis vectors."""
    p = [list(r) for r in columns]
    p_inv = linalg.invert(p)
    n = g.dim
    structure: dict[tuple[int, int], Multivector] = {}
    for i in range(n):
        for j in range(i + 1, n):
            fi = Multivector.from_coeffs([p[r][i] for r in range(n)])
            fj = Multivector.from_coeffs([p[r][j] for r in range(n)])
            br = g.bracket(fi, fj)
            v = Multivector.from_coeffs(linalg.mat_vec(p_inv, br.coeffs()))
            if not v.is_zero():
                structure[(i, j)] = v
    return LieAlgebra(name or g.name, n, standard_labels(n), structure)


def coordinates(basis: Sequence[Sequence], v: Iterable) -> list[Fraction] | None:
    """Coordinates of v in the given independent vectors, or None outside their span."""
    v = list(v)
    sol = linalg.solve([[b[i] for b in basis] for i in range(len(v))], v)
    return None if sol is None else sol[0]


def restrict(g: LieAlgebra, basis: Sequence[Sequence], name: str) -> LieAlgebra:
    """Bracket of g on the span of independent vectors, in that basis.

    A span that is not bracket-closed raises ValueError naming the witness
    bracket.
    """
    vectors = [Multivector.from_coeffs(b) for b in basis]
    m = len(basis)
    structure: dict[tuple[int, int], Multivector] = {}
    for a in range(m):
        for b in range(a + 1, m):
            bracket = g.bracket(vectors[a], vectors[b])
            coords = coordinates(basis, bracket.coeffs())
            if coords is None:
                labels = g.basis_labels
                raise ValueError(
                    f"span is not bracket-closed: [{vectors[a].render(labels)}, "
                    f"{vectors[b].render(labels)}] = {bracket.render(labels)} lies outside")
            value = Multivector.from_coeffs(coords)
            if not value.is_zero():
                structure[(a, b)] = value
    return LieAlgebra(name, m, standard_labels(m), structure)


def restrict_bivector(r: Multivector, basis: Iterable[Iterable]) -> Multivector | None:
    """Coordinates of r in the wedge basis of independent vectors, or None
    when r does not lie in the second exterior power of their span.

    A span of fewer than two vectors holds only r = 0, returned as the
    top-grade zero Multivector.zero(m, m), the convention wedge uses.
    """
    vectors = [Multivector.from_coeffs(b) for b in basis]
    if len(vectors) < 2:
        return Multivector.zero(len(vectors), len(vectors)) if r.is_zero() else None
    pairs = list(combinations(range(len(vectors)), 2))
    wedges = [wedge(vectors[a], vectors[b]) for a, b in pairs]
    ambient = list(combinations(range(r.dim), 2))
    coords = coordinates([[w.coefficient(idx) for idx in ambient] for w in wedges],
                         [r.coefficient(idx) for idx in ambient])
    if coords is None:
        return None
    return Multivector.from_terms(len(vectors), 2, dict(zip(pairs, coords)))
