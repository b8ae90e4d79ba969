"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra stores brackets of basis pairs (i, j) for i < j only; the rest
follows by antisymmetry.  Each algebra also keeps one table of its structure
constants, built once from that read-only mapping: integers N_ij^k over one
common denominator den (the lcm of all the algebra's denominators), with
c_ij^k = N_ij^k / den, and a column view of it listing the nonzero N_ij^k
of each k.  The bracket, the Jacobi identity, the Killing form, the Schouten
and Chevalley-Eilenberg sums and the bialgebra compatibility residuals are
summed from them in int arithmetic; an element result keeps the sums as its
integer form, and the Killing form builds one Fraction per entry.  The
Jacobi identity is summed once per algebra and kept with the table;
validate builds its report from those sums on every call.  They are taken
on packed rows, one int with one w-bit slot per coefficient (Kronecker
substitution); w = bit_length(3 n M^2) + 2, for M the largest |N_ij^k|,
keeps every slot inside +-2^(w-1), so the packing is exact.
Structural computations (center, derived algebra, cocycles, derivations,
compactness) reduce to the integer kernel of linalg, the center and the
derivations on integer rows read from the table.  A linear map applies
its matrix, kept as integers over one common denominator, in int
arithmetic too.  The one matrix of a 2-vector or 2-form p is
`_contraction`, x -> i(x)p read from p's terms: the sharp map, the contact
and l.c.s. flat maps and the dual-bracket kernels all read it.  Every change of coordinates
(coordinates, restrict, restrict_bivector, change_basis, a Jacobi pair's
restriction) eliminates its basis B once for its left inverse L, and
accepts L v only when B (L v) == v.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from liejacobi import linalg
from liejacobi.exterior import Form, Multivector, _check_argument
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
    read-only mapping, so the integer structure-constant table `_ad`, its
    column view `_columns` and the Jacobi sums `_jacobiator`, built on first
    use, cannot go stale; dataclasses.replace, rename and pickling build a
    new algebra with its own.  Construction does not check the Jacobi
    identity; use validate() for that.
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

    @cached_property
    def _columns(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Column view of `_ad`: columns[k] lists (i, j, N_ij^k) for i < j,
        one entry per nonzero c_ij^k, over the same den."""
        # read from the table only, for the reason given in _ad
        columns: tuple[list, ...] = tuple([] for _ in range(self.dim))
        for i, row in enumerate(self._ad[1]):
            for j, terms in row.items():
                if i < j:
                    for k, num in terms.items():
                        columns[k].append((i, j, num))
        return tuple(tuple(col) for col in columns)

    @cached_property
    def _jacobiator(self) -> tuple[tuple[tuple[int, int, int], dict[int, int]], ...]:
        """((i, j, k), {m: N}) for each basis triple i < j < k whose residual
        [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] = sum_m N e_m / den^2
        is nonzero: N is sum_l N_ab^l N_lc^m over the three cyclic (a, b, c).

        The sums are taken on packed rows, one int holding one w-bit slot per
        coefficient.  With M = max |N_ab^c| and w = bit_length(3 n M^2) + 2,
        every slot value stays strictly inside +-2^(w-1) (a slot of
        [[e_a,e_b],e_c] is at most n M^2, one of a Jacobi sum at most
        3 n M^2), so packing and unpacking are exact.  packed[l] is ad(e_l),
        with N_lc^m in slot c n + m.  pairs[a n + b], for a < b only, is
        full + sum_l N_ab^l packed[l], where full puts 2^(w-1) in every
        slot: its slots are then nonnegative, and its block c (shifted by
        w n c, masked to n w bits) is [[e_a,e_b],e_c] plus bias, the
        2^(w-1) of each slot of one block.  For i < j < k, block k of
        pairs[i n + j] plus block i of pairs[j n + k] less block j of
        pairs[i n + k] is sum_m (N + 2^(w-1)) 2^(w m), inside [0, 2^(w n)),
        so masking the sum of the three shifted rows gives it: the triple
        passes exactly when it equals bias and is otherwise decoded into n
        signed slots.
        """
        # read from the table only, for the reason given in _ad
        n = self.dim
        table = self._ad[1]
        big = 0                     # M: the table holds -N beside every N
        for row in table:
            for terms in row.values():
                for v in terms.values():
                    if v > big:
                        big = v
        if n < 3 or not big:
            return ()
        w = (3 * n * big * big).bit_length() + 2
        span = w * n                # one block of n slots
        half = 1 << (w - 1)
        slot = (1 << w) - 1
        mask = (1 << span) - 1
        bias = mask // slot * half  # 2^(w-1) in each slot of a block
        full = ((1 << span * n) - 1) // slot * half     # ... of n blocks
        packed = []
        for row in table:
            q = 0
            for c, terms in row.items():
                block = 0
                for m, v in terms.items():
                    block += v << (w * m)
                q += block << (span * c)
            packed.append(q)
        pairs = [full] * (n * n)
        for a, row in enumerate(table):
            for b, terms in row.items():
                if a < b:
                    t = full
                    for l, x in terms.items():
                        t += x * packed[l]
                    pairs[a * n + b] = t
        entries = []
        for i, j, k in combinations(range(n), 3):
            s = ((pairs[i * n + j] >> span * k) + (pairs[j * n + k] >> span * i)
                 - (pairs[i * n + k] >> span * j)) & mask
            if s != bias:
                acc = []
                for _ in range(n):
                    acc.append((s & slot) - half)
                    s >>= w
                entries.append(((i, j, k), dict(enumerate(acc))))
        return tuple(entries)

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

        The residuals are the sums of `_jacobiator`, made elements afresh on
        every call.
        """
        den = self._ad[0]
        return ValidationReport(self, tuple((ijk, self._vector(acc, den * den))
                                            for ijk, acc in self._jacobiator))

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
    """Subspace of an algebra or of its dual; the constructor reduces its rows."""

    dim: int
    rows: tuple[tuple[Fraction, ...], ...]
    dual: bool = False

    def __post_init__(self):
        mat = [[frac(c) for c in v] for v in self.rows]
        if any(len(row) != self.dim for row in mat):
            raise ValueError("vector length must equal the ambient dimension")
        object.__setattr__(self, "rows", tuple(tuple(r) for r in linalg.row_space_basis(mat)))

    @classmethod
    def from_elements(cls, elements: Iterable) -> "Subspace":
        """The span of grade-1 elements of one kind and dimension, read from
        the first; the rest must match it."""
        elems = list(elements)
        if not elems:
            raise ValueError("need at least one element to infer the ambient space")
        kind = Form if isinstance(elems[0], Form) else Multivector
        for e in elems:
            _check_argument("element", e, kind, elems[0].dim, 1)
        return cls(elems[0].dim, [e.coeffs() for e in elems], kind is Form)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, coeffs: Iterable) -> bool:
        # rows in reduced echelon form: v is in the span iff v - sum_k v[p_k] row_k = 0
        v = [frac(c) for c in coeffs]
        if len(v) != self.dim:
            raise ValueError("vector length must equal the ambient dimension")
        for row in self.rows:
            c = v[next(j for j, x in enumerate(row) if x)]
            v = [x - c * y for x, y in zip(v, row)]
        return not any(v)

    def contains_element(self, e) -> bool:
        """Membership of a form in a dual subspace or of a multivector in
        another, of grade 1 or zero."""
        _check_argument("e", e, Form if self.dual else Multivector, self.dim, 1)
        return self.contains(e.coeffs())

    def elements(self) -> list:
        cls = Form if self.dual else Multivector
        return [cls.from_coeffs(r) for r in self.rows]


def annihilator(s: Subspace) -> Subspace:
    """All covectors (or vectors, if s is dual) vanishing on s."""
    rows = [list(r) for r in s.rows]
    basis = linalg.nullspace(rows) if rows else [list(r) for r in linalg.identity(s.dim)]
    return Subspace(s.dim, basis, dual=not s.dual)


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}: the solutions of sum_i x_i N_ij^k = 0,
    one integer row {i: N_ij^k} of the table per (j, k)."""
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for i, row in enumerate(g._ad[1]):
        for j, terms in row.items():
            for k, v in terms.items():
                rows.setdefault((j, k), {})[i] = v
    return Subspace(g.dim, linalg.solve_rows(rows.values(), g.dim)[1])


def derived_algebra(g: LieAlgebra) -> Subspace:
    """Span of all brackets [e_i, e_j]."""
    vectors = [v.coeffs() for v in g.structure.values()]
    return Subspace(g.dim, vectors)


def one_cocycles(g: LieAlgebra) -> Subspace:
    """Covectors vanishing on the derived algebra: the closed 1-forms."""
    return annihilator(derived_algebra(g))


@dataclass(frozen=True)
class LinearMap:
    """Linear map between coordinate spaces; matrix columns are basis images.

    The matrix is read-only, so its integer form `_ints`, built on first
    use, cannot go stale.
    """

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

    @cached_property
    def _ints(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        """(den, rows): the matrix as integers over one common denominator
        den, the lcm of its denominators."""
        nums, den = linalg._integers([x for row in self.matrix for x in row])
        n = self.domain_dim
        return den, tuple(tuple(nums[i * n:(i + 1) * n]) for i in range(self.codomain_dim))

    def apply(self, coeffs: Iterable) -> list[Fraction]:
        support, nums, d = linalg._sparse([frac(c) for c in coeffs])
        den, rows = self._ints
        return [Fraction(sum(map(mul, [row[j] for j in support], nums)), den * d) for row in rows]

    def apply_element(self, e):
        grade = min(1, self.codomain_dim)    # the grade-0 zero in dimension 0
        if e.is_zero():
            return type(e).zero(self.codomain_dim, grade)
        if e.grade != 1:
            raise ValueError("a linear map applies to grade-1 elements")
        nums, d = e._ints()
        den, rows = self._ints
        acc = {(i,): sum(row[k] * x for (k,), x in nums.items()) for i, row in enumerate(rows)}
        return type(e)._from_ints(self.codomain_dim, grade, acc, den * d)

    def transpose(self) -> "LinearMap":
        return LinearMap.from_rows(linalg.transpose(self.rows))

    def add(self, other: "LinearMap") -> "LinearMap":
        return LinearMap.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c) -> "LinearMap":
        f = frac(c)
        return LinearMap.from_rows([[f * x for x in row] for row in self.rows])

    def value(self, x_coeffs: Iterable, y_coeffs: Iterable) -> Fraction:
        """Bilinear form value when the matrix is square: x^T M y."""
        my = self.apply(y_coeffs)
        return sum((frac(a) * b for a, b in zip(x_coeffs, my)), ZERO)


def _leibniz_rows(g: LieAlgebra) -> list[dict[int, int]]:
    """The Leibniz rule psi[e_i, e_j] - [psi e_i, e_j] - [e_i, psi e_j] = 0 as
    one integer row {a * n + b: N} per i < j and component m over the
    unknowns psi[a][b], read from the table (den cancels)."""
    n = g.dim
    table = g._ad[1]
    rows = []
    for i, j in combinations(range(n), 2):
        for m in range(n):
            row = {m * n + k: v for k, v in table[i].get(j, {}).items()}
            # -[psi e_i, e_j] - [e_i, psi e_j] = sum_a psi[a][i] [e_j, e_a] - psi[a][j] [e_i, e_a]
            for s, t, sign in ((j, i, 1), (i, j, -1)):
                for a, terms in table[s].items():
                    if m in terms:
                        row[a * n + t] = row.get(a * n + t, 0) + sign * terms[m]
            rows.append({c: v for c, v in row.items() if v})
    return rows


def is_derivation(g: LieAlgebra, psi: LinearMap) -> bool:
    """Whether psi, an n x n matrix, satisfies the Leibniz rule on g."""
    if psi.codomain_dim != g.dim or psi.domain_dim != g.dim:
        raise ValueError(f"a derivation of {g.name} needs a {g.dim} x {g.dim} matrix")
    flat = [x for row in psi._ints[1] for x in row]
    return not any(sum(v * flat[c] for c, v in row.items()) for row in _leibniz_rows(g))


def derivations(g: LieAlgebra) -> list[LinearMap]:
    """Basis of the derivation algebra, by solving the Leibniz rows."""
    n = g.dim
    return [LinearMap.from_rows([flat[a * n:(a + 1) * n] for a in range(n)])
            for flat in linalg.solve_rows(_leibniz_rows(g), n * n)[1]]


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
    """Gram matrix v^T B w over the vectors, summed in int with B w computed
    once per w."""
    den, rows = b._ints
    ints = [linalg._integers(v) for v in vectors]
    images = [[sum(map(mul, row, nums)) for row in rows] for nums, _ in ints]
    return [[Fraction(sum(map(mul, nv, bw)), den * dv * dw) for bw, (_, dw) in zip(images, ints)]
            for nv, dv in ints]


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

    _check_argument("omega", omega, Form, h.dim, 2)
    if not ce_differential(h, omega).is_zero():
        raise ValueError("omega is not closed, so the extension would not be a Lie algebra")
    n = h.dim + 1
    structure: dict[tuple[int, int], Multivector] = {}
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            head = h.bracket_basis(i, j).coeffs()
            tail = -omega.coefficient((i, j))      # -omega(e_i, e_j)
            v = Multivector.from_coeffs(head + [tail])
            if not v.is_zero():
                structure[(i, j)] = v
    return LieAlgebra(name or f"{h.name}+center", n, standard_labels(n), structure)


def semidirect_by_derivation(h: LieAlgebra, psi: LinearMap, name: str | None = None) -> LieAlgebra:
    """h extended by a line acting through a derivation:
    [(x, a), (y, b)] = ([x, y] + a psi(y) - b psi(x), 0)."""
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


def _frame(basis: Sequence[Sequence], n: int) -> tuple[LinearMap, LinearMap]:
    """(B, L): B has the n-vectors of basis as its columns and L = invert(B)
    is its left inverse, the one elimination of the basis."""
    columns = LinearMap.from_rows([[b[i] for b in basis] for i in range(n)])
    return columns, LinearMap.from_rows(linalg.invert(columns.rows))


def _contraction(p: Multivector | Form) -> LinearMap:
    """The map x -> i(x)p of a 2-vector or 2-form p, read from its terms:
    entry [b][a] = p^ab = -entry [a][b], so column j is the contraction of
    the j-th basis element of the opposite kind into p."""
    n = p.dim
    rows = [[ZERO] * n for _ in range(n)]
    for (a, b), c in p.terms.items():
        rows[b][a], rows[a][b] = c, -c
    return LinearMap(tuple(map(tuple, rows)))


def _push(matrix: LinearMap | tuple, p: Multivector | Form) -> Multivector:
    """sum p^ij (M e_i) ^ (M e_j) for a 2-vector or 2-form p and a matrix M of
    k rows, given as a LinearMap or as its integer form (den, rows), summed
    in int; the zero of grade k when k < 2."""
    nums, dp = p._ints()
    den, rows = matrix._ints if isinstance(matrix, LinearMap) else matrix
    k = len(rows)
    acc = {(a, b): sum(v * (rows[a][i] * rows[b][j] - rows[a][j] * rows[b][i])
                       for (i, j), v in nums.items()) for a, b in combinations(range(k), 2)}
    return Multivector._from_ints(k, min(k, 2), acc, dp * den * den)


def _in_span(frame: tuple[LinearMap, LinearMap], e: Multivector, push) -> Multivector | None:
    # e in the new coordinates, pushed by L (LinearMap.apply_element for a
    # vector, _push for a 2-vector), accepted only when B pushes it back to e
    value = push(frame[1], e)
    return value if push(frame[0], value) == e else None


def _restrict(g: LieAlgebra, basis: Sequence[Sequence], name: str,
              frame: tuple[LinearMap, LinearMap]) -> LieAlgebra:
    # restrict, reading coordinates from the frame of the basis
    vectors = [Multivector.from_coeffs(b) for b in basis]
    structure: dict[tuple[int, int], Multivector] = {}
    for a, b in combinations(range(len(vectors)), 2):
        bracket = g.bracket(vectors[a], vectors[b])
        value = _in_span(frame, bracket, LinearMap.apply_element)
        if value is None:
            labels = g.basis_labels
            raise ValueError(
                f"span is not bracket-closed: [{vectors[a].render(labels)}, "
                f"{vectors[b].render(labels)}] = {bracket.render(labels)} lies outside")
        if not value.is_zero():
            structure[(a, b)] = value
    return LieAlgebra(name, len(vectors), standard_labels(len(vectors)), structure)


def _restrict_pair(g: LieAlgebra, basis: Sequence[Sequence], name: str, r: Multivector,
                   x0: Multivector) -> tuple:
    # (B, restrict(g, basis, name), r_h, x0_h) from one left inverse: r and
    # x0 in the new coordinates (None outside the span) and B mapping back
    frame = _frame(basis, g.dim)
    return (frame[0], _restrict(g, basis, name, frame), _in_span(frame, r, _push),
            _in_span(frame, x0, LinearMap.apply_element))


def change_basis(g: LieAlgebra, columns: Matrix, name: str | None = None) -> LieAlgebra:
    """Structure constants in a new basis; columns are the new basis vectors.
    This is restrict on a full family; singular columns raise ValueError."""
    return restrict(g, linalg.transpose(columns), name or g.name)


def coordinates(basis: Sequence[Sequence], v: Iterable) -> list[Fraction] | None:
    """Coordinates of v in the given independent vectors, or None outside
    their span; a dependent family raises ValueError."""
    v = list(v)
    value = _in_span(_frame(basis, len(v)), Multivector.from_coeffs(v), LinearMap.apply_element)
    return None if value is None else [value.coefficient((i,)) for i in range(value.dim)]


def restrict(g: LieAlgebra, basis: Sequence[Sequence], name: str) -> LieAlgebra:
    """Bracket of g on the span of independent vectors, in that basis.

    A span that is not bracket-closed raises ValueError naming the first
    witness bracket; a dependent family raises ValueError too.
    """
    return _restrict(g, basis, name, _frame(basis, g.dim))


def restrict_bivector(r: Multivector, basis: Iterable[Iterable]) -> Multivector | None:
    """Coordinates of r in the wedge basis of independent vectors, or None
    when r does not lie in the second exterior power of their span; a
    dependent family raises ValueError.

    A span of fewer than two vectors holds only r = 0, returned as the
    top-grade zero Multivector.zero(m, m), the convention wedge uses.
    """
    return _in_span(_frame([list(b) for b in basis], r.dim), r, _push)
