"""Finite-dimensional Lie algebras given by rational structure constants.

A LieAlgebra stores brackets of basis pairs (i, j) for i < j only; the rest
follows by antisymmetry.  Each algebra also keeps one table of its structure
constants, built once from that read-only mapping: integers N_ij^k over one
common denominator den (the lcm of all the algebra's denominators), with
c_ij^k = N_ij^k / den, and a column view of it listing the nonzero N_ij^k
of each k.  The bracket, the Jacobi identity, the Killing form, the Schouten
and Chevalley-Eilenberg sums and the bialgebra compatibility residuals are
summed from them in int arithmetic; an element result keeps the sums as its
integer form, and killing_form is the Fraction view of the sums of
`_killing`.  The Jacobi identity, the Killing sums, the center, the derived
algebra, the compactness decision and the Leibniz rows of the derivations
are computed once per algebra and kept with the table; validate,
killing_form, center, derived_algebra, is_compact, is_derivation and
derivations build their output from them on every call.  The Jacobi sums
are taken on packed rows, one int with one w-bit slot per coefficient
(Kronecker substitution); w = bit_length(3 n M^2) + 2, for M the largest
|N_ij^k|, keeps every slot inside +-2^(w-1), so the packing is exact.
Structural computations (center, derived algebra, cocycles, derivations,
compactness) reduce to the integer kernel of linalg on integer rows read
from the table; a Subspace keeps the integer rows its Fraction rows are
read from, for membership and the compactness test, and `_in_rows` is the
one membership test in reduced integer rows, which Subspace.contains and
bialgebra's centrality test of y0 share.  The one matrix of a
2-tensor p is `_antisymmetric`, integer rows with row a = #_p e^a: `_rank`
counts its pivots and the sharp map's `_contraction` is its Fraction view.
The one push-forward, `_push`, applies a matrix's integer form to a vector
or 2-tensor, as every linear map and change of coordinates (coordinates,
restrict, change_basis, a Jacobi pair's restriction) does.  Every basis,
invariant_scalar_product's too (no bialgebra step reads that map: they
take the center from `_center`), is eliminated once by `_frame` into the
integer forms of its matrix B and left inverse L, from linalg._inverse,
except pivoted integer rows, each nonzero at its own pivot and zero at the
others' (a Subspace's reduced rows, or linalg._null_rows at their free
columns): `_pivot_frame` reads B from the rows and takes for L the choice
of the pivot coordinates, with no elimination.
A change of coordinates accepts L v only when B (L v) == v.
Algebras built from smaller ones, and bialgebra's semidirect classification
reading them back, move vectors between dimensions by one inclusion `_embed`.
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
from liejacobi.linalg import ZERO, Matrix, _echelon, frac

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
    read-only mapping, so the caches built on first use cannot go stale:
    the integer structure-constant table `_ad`, its column view `_columns`,
    the Jacobi sums `_jacobiator`, the Killing sums `_killing`, the reduced
    integer rows `_center` and `_derived`, the compactness decision
    `_compactness` and the Leibniz rows `_leibniz` of the derivations.
    dataclasses.replace, rename and pickling build a new algebra with its
    own.  The caches hold only integers (and the LDL^T
    pivots) and make no public call, so the public calls of an operation do
    not depend on whether they are filled.  Construction does not check the
    Jacobi identity; use validate() for that.
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

    @cached_property
    def _killing(self) -> tuple[int, list[list[int]]]:
        """(den^2, K): the Killing form is K / den^2, for K_ij = sum_{m,l}
        N_im^l N_jl^m summed in int from the integer table."""
        # read from the table only, for the reason given in _ad
        n = self.dim
        den, table = self._ad
        k = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                tr = 0
                for m, terms in table[i].items():   # [e_i, e_m] = sum_l c_im^l e_l
                    for l, a in terms.items():
                        back = table[j].get(l)      # [e_j, e_l] = sum_m c_jl^m e_m
                        if back is not None and m in back:
                            tr += a * back[m]
                k[i][j] = k[j][i] = tr
        return den * den, k

    @cached_property
    def _center(self) -> tuple[list[dict[int, int]], list[int]]:
        """The reduced integer rows (_echelon's (rows, pivots)) of the
        center {x : [x, y] = 0 for all y}: the solutions of sum_i x_i N_ij^k
        = 0, one integer row {i: N_ij^k} of the table per (j, k)."""
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for i, row in enumerate(self._ad[1]):
            for j, terms in row.items():
                for k, v in terms.items():
                    rows.setdefault((j, k), {})[i] = v
        return _kernel(_echelon(rows.values(), self.dim), self.dim)

    @cached_property
    def _derived(self) -> tuple[list[dict[int, int]], list[int]]:
        """The reduced integer rows of the derived algebra, the span of the
        brackets [e_i, e_j]: the integer rows of the table."""
        return _echelon(_bracket_rows(self), self.dim)

    @cached_property
    def _compactness(self) -> tuple[bool, bool, tuple]:
        """(splits, definite, pivots) of is_compact, decided on integer rows:
        the pivots of `_center` and `_derived` stacked, and the LDL^T of the
        integer Gram matrix `_gram` of the Killing form on `_derived`, whose
        pivots are the only Fractions kept."""
        n = self.dim
        stacked = self._center[0] + self._derived[0]
        splits = len(stacked) == n and len(_echelon(stacked, n)[1]) == n
        den, gram = _gram(self, self._derived)
        definite, pivots = linalg._definite(gram, den, positive=False)
        return splits, definite, tuple(pivots)

    @cached_property
    def _leibniz(self) -> tuple[dict[int, int], ...]:
        """The Leibniz rule psi[e_i, e_j] - [psi e_i, e_j] - [e_i, psi e_j] = 0
        as one integer row {a * n + b: N} per i < j and component m over the
        unknowns psi[a][b], read from the table (den cancels).  is_derivation
        and derivations read the rows and must not change them."""
        n = self.dim
        table = self._ad[1]
        rows = []
        for i, j in combinations(range(n), 2):
            for m in range(n):
                row = {m * n + k: v for k, v in table[i].get(j, {}).items()}
                # -[psi e_i, e_j] - [e_i, psi e_j]
                #     = sum_a psi[a][i] [e_j, e_a] - psi[a][j] [e_i, e_a]
                for s, t, sign in ((j, i, 1), (i, j, -1)):
                    for a, terms in table[s].items():
                        if m in terms:
                            row[a * n + t] = row.get(a * n + t, 0) + sign * terms[m]
                rows.append({c: v for c, v in row.items() if v})
        return tuple(rows)

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
    """Subspace of an algebra or of its dual.  The constructor reduces its
    rows; `_reduced` keeps the integer (rows, pivots) of linalg._echelon
    that `rows` are read from, and membership reads those.  `_from_echelon`
    builds a Subspace from integer rows reduced once, with no second pass."""

    dim: int
    rows: tuple[tuple[Fraction, ...], ...]
    dual: bool = False

    def __post_init__(self):
        mat = [[frac(c) for c in v] for v in self.rows]
        if any(len(row) != self.dim for row in mat):
            raise ValueError("vector length must equal the ambient dimension")
        self._hold(_echelon(linalg._rows(mat, self.dim)[0], self.dim))

    def _hold(self, reduced: tuple[list[dict[int, int]], list[int]]) -> None:
        object.__setattr__(self, "rows", tuple(map(tuple, linalg._reduced(*reduced, self.dim))))
        object.__setattr__(self, "_reduced", reduced)

    @classmethod
    def _from_echelon(cls, dim: int, reduced: tuple, dual: bool = False) -> "Subspace":
        # reduced is the output of _echelon on rows of dim columns
        space = object.__new__(cls)
        object.__setattr__(space, "dim", dim)
        object.__setattr__(space, "dual", dual)
        space._hold(reduced)
        return space

    @classmethod
    def from_elements(cls, elements: Iterable) -> "Subspace":
        """The span of grade-1 elements of one kind and dimension, read from
        the first; the rest must match it."""
        elems = list(elements)
        if not elems:
            raise ValueError("need at least one element to infer the ambient space")
        kind = Form if isinstance(elems[0], Form) else Multivector
        n = elems[0].dim
        for e in elems:
            _check_argument("element", e, kind, n, 1)
        rows = [{k: v for (k,), v in e._ints()[0].items()} for e in elems]
        return cls._from_echelon(n, _echelon(rows, n), kind is Form)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, coeffs: Iterable) -> bool:
        v = [frac(c) for c in coeffs]
        if len(v) != self.dim:
            raise ValueError("vector length must equal the ambient dimension")
        support, nums, _ = linalg._sparse(v)
        return _in_rows(self._reduced, dict(zip(support, nums)))

    def contains_element(self, e) -> bool:
        """Membership of a form in a dual subspace or of a multivector in
        another, of grade 1 or zero."""
        _check_argument("e", e, Form if self.dual else Multivector, self.dim, 1)
        return self.contains(e.coeffs())

    def elements(self) -> list:
        cls = Form if self.dual else Multivector
        return [cls.from_coeffs(r) for r in self.rows]


def _in_rows(reduced: tuple[list[dict[int, int]], list[int]], w: dict[int, int]) -> bool:
    """Whether the integer row w lies in the span of the reduced integer
    rows (rows, pivots): they are zero at each other's pivots, so it does iff
    eliminating w at every pivot by its row leaves zero."""
    for row, c in zip(*reduced):
        if c in w:
            w = linalg._eliminate(w, row, c)
    return not w


def _kernel(reduced: tuple[list[dict[int, int]], list[int]], n: int) -> tuple:
    """The reduced integer rows of {x : R x = 0}, for R the integer reduced
    rows of n columns."""
    return _echelon(linalg._null_rows(*reduced, n), n)


def annihilator(s: Subspace) -> Subspace:
    """All covectors (or vectors, if s is dual) vanishing on s."""
    return Subspace._from_echelon(s.dim, _kernel(s._reduced, s.dim), not s.dual)


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}, read from the rows `g._center`."""
    return Subspace._from_echelon(g.dim, g._center)


def _bracket_rows(g: LieAlgebra) -> list[dict[int, int]]:
    """The brackets [e_i, e_j], i < j, as the integer rows {k: N_ij^k} of
    the table; the caller must not change them."""
    return [terms for i, row in enumerate(g._ad[1]) for j, terms in row.items() if i < j]


def derived_algebra(g: LieAlgebra) -> Subspace:
    """Span of all brackets [e_i, e_j], read from the rows `g._derived`."""
    return Subspace._from_echelon(g.dim, g._derived)


def one_cocycles(g: LieAlgebra) -> Subspace:
    """Covectors vanishing on the derived algebra: the closed 1-forms."""
    return annihilator(derived_algebra(g))


@dataclass(frozen=True)
class LinearMap:
    """Linear map between coordinate spaces; matrix columns are basis images.

    Construction checks the rows and keeps `_ints`, the integer form
    linalg._dense of the read-only matrix, which products with the map read.
    Rows of unequal length, and a vector or map of another shape than the
    map's, raise ValueError; a map with no rows records no domain, so it
    takes vectors of any length.
    """

    matrix: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if any(len(row) != self.domain_dim for row in self.matrix):
            raise ValueError("matrix rows must have equal length")
        object.__setattr__(self, "_ints", linalg._dense(self.matrix))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable]) -> "LinearMap":
        return cls(tuple(tuple(frac(c) for c in row) for row in rows))

    @classmethod
    def from_columns(cls, cols: Iterable[Iterable]) -> "LinearMap":
        return cls.from_rows(linalg.transpose([list(c) for c in cols]))

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

    def _check_length(self, n: int, expected: int) -> None:
        if self.matrix and n != expected:
            raise ValueError(f"expected a vector of length {expected}, not {n}")

    def apply(self, coeffs: Iterable) -> list[Fraction]:
        v = [frac(c) for c in coeffs]
        self._check_length(len(v), self.domain_dim)
        return linalg._mat_vec(self._ints, v)

    def apply_element(self, e):
        self._check_length(e.dim, self.domain_dim)
        grade = min(1, self.codomain_dim)    # the grade-0 zero in dimension 0
        if e.is_zero():
            return type(e).zero(self.codomain_dim, grade)
        if e.grade != 1:
            raise ValueError("a linear map applies to grade-1 elements")
        return _push(self._ints, e, type(e))

    def transpose(self) -> "LinearMap":
        return LinearMap.from_rows(linalg.transpose(self.rows))

    def add(self, other: "LinearMap") -> "LinearMap":
        if (self.codomain_dim, self.domain_dim) != (other.codomain_dim, other.domain_dim):
            raise ValueError("only maps of the same shape add")
        return LinearMap.from_rows(
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)])

    def scale(self, c) -> "LinearMap":
        f = frac(c)
        return LinearMap.from_rows([[f * x for x in row] for row in self.rows])

    def value(self, x_coeffs: Iterable, y_coeffs: Iterable) -> Fraction:
        """Bilinear form value when the matrix is square: x^T M y."""
        x = [frac(a) for a in x_coeffs]
        self._check_length(len(x), self.codomain_dim)
        return sum(map(mul, x, self.apply(y_coeffs)), ZERO)


def is_derivation(g: LieAlgebra, psi: LinearMap) -> bool:
    """Whether psi, an n x n matrix, satisfies the Leibniz rule on g."""
    if psi.codomain_dim != g.dim or psi.domain_dim != g.dim:
        raise ValueError(f"a derivation of {g.name} needs a {g.dim} x {g.dim} matrix")
    flat = [x for row in psi._ints[1] for x in row]
    return not any(sum(v * flat[c] for c, v in row.items()) for row in g._leibniz)


def derivations(g: LieAlgebra) -> list[LinearMap]:
    """Basis of the derivation algebra, by solving the Leibniz rows."""
    n = g.dim
    return [LinearMap.from_rows([flat[a * n:(a + 1) * n] for a in range(n)])
            for flat in linalg.solve_rows(g._leibniz, n * n)[1]]


def killing_form(g: LieAlgebra) -> LinearMap:
    """K(x, y) = trace(ad_x ad_y), as a symmetric matrix over the basis: the
    Fraction view of the integer sums `g._killing`."""
    den, k = g._killing
    return LinearMap.from_rows([[Fraction(x, den) for x in row] for row in k])


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


def _gram(g: LieAlgebra, reduced: tuple) -> tuple[int, list[list[int]]]:
    """(den, G): the Killing form on the reduced rows of a subspace, given
    by the integer (rows, pivots) of _echelon, is G / den.  With s the lcm
    of the pivots, the rows scaled to v_a = s times reduced row a are
    integers and G_ab = v_a^T K v_b, K w summed once per w."""
    den, k = g._killing
    rows, pivots = reduced
    s = lcm(*(row[c] for row, c in zip(rows, pivots)))
    vectors = [{j: x * (s // row[c]) for j, x in row.items()} for row, c in zip(rows, pivots)]
    images = [[sum(kr[j] * x for j, x in w.items()) for kr in k] for w in vectors]
    return den * s * s, [[sum(x * kw[i] for i, x in v.items()) for kw in images] for v in vectors]


def is_compact(g: LieAlgebra) -> CompactnessReport:
    """Compact type: the center and derived algebra span g independently and
    the Killing form is negative definite on the derived algebra.  The
    decision is `g._compactness`, made once per algebra on integer rows; the
    report is built afresh on every call."""
    return CompactnessReport(g, center(g), derived_algebra(g), *g._compactness)


def invariant_scalar_product(g: LieAlgebra) -> LinearMap:
    """Ad-invariant positive definite product on a compact-type algebra.

    Minus the Killing form on the derived algebra, the standard product on the
    chosen center basis, and the two blocks orthogonal to each other.  The
    Killing form vanishes on the center, so B = -K + Q^T Q, where Q holds the
    center rows of the left inverse of the adapted basis (derived rows, then
    center rows), read from its `_frame`, and K is `g._killing`.
    """
    report = is_compact(g)
    if not report.compact:
        raise ValueError(f"{g.name} is not of compact type")
    n = g.dim
    dq, rows = _frame(report.derived.rows + report.center.rows, n)[1]
    q = rows[report.derived.rank:]
    dk, k = g._killing
    return LinearMap.from_rows(
        [[Fraction(dk * sum(row[i] * row[j] for row in q) - dq * dq * k[i][j], dk * dq * dq)
          for j in range(n)] for i in range(n)])


def _embed(v: Multivector, n: int, offset: int = 0) -> Multivector:
    """The grade-1 vector v in dimension n, index i moved to i + offset, on
    the integer form; a term landing outside 0..n-1 raises ValueError."""
    nums, den = v._ints()
    return Multivector._from_ints(n, 1, {(i + offset,): x for (i,), x in nums.items()}, den)


def direct_product(g: LieAlgebra, h: LieAlgebra, name: str | None = None) -> LieAlgebra:
    """Product algebra on fresh labels e1..e_{m+n}; blocks do not interact."""
    n = g.dim + h.dim
    structure = {key: _embed(v, n) for key, v in g.structure.items()}
    structure.update({(i + g.dim, j + g.dim): _embed(v, n, g.dim)
                      for (i, j), v in h.structure.items()})
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
    brackets = {key: _embed(v, n) for key, v in h.structure.items()}
    zero, last = Multivector.zero(n, 1), Multivector.basis(n, h.dim)
    structure: dict[tuple[int, int], Multivector] = {}
    for key in sorted(brackets.keys() | omega.terms.keys()):
        v = brackets.get(key, zero) - omega.coefficient(key) * last   # -omega(e_i, e_j) e_n
        if not v.is_zero():
            structure[key] = v
    return LieAlgebra(name or f"{h.name}+center", n, standard_labels(n), structure)


def semidirect_by_derivation(h: LieAlgebra, psi: LinearMap, name: str | None = None) -> LieAlgebra:
    """h extended by a line acting through a derivation:
    [(x, a), (y, b)] = ([x, y] + a psi(y) - b psi(x), 0)."""
    if not is_derivation(h, psi):
        raise ValueError("psi is not a derivation of h")
    n = h.dim + 1
    structure = {key: _embed(v, n) for key, v in h.structure.items()}
    for i in range(h.dim):
        v = -_embed(psi.apply_element(h.basis_vector(i)), n)     # [e_i, e_n] = -psi(e_i)
        if not v.is_zero():
            structure[(i, h.dim)] = v
    return LieAlgebra(name or f"{h.name}:line", n, standard_labels(n),
                      dict(sorted(structure.items())))


def _frame(basis: Sequence[Sequence], n: int) -> tuple[tuple, tuple]:
    """(B, L): the integer forms (den, rows) of the matrix B whose columns
    are the n-vectors of basis and of its left inverse L, read from
    linalg._inverse, the one elimination of the basis.  A basis vector of
    another length raises ValueError."""
    if any(len(b) != n for b in basis):
        raise ValueError(f"basis vectors must have length {n}")
    den, rows = linalg._dense([[frac(b[i]) for b in basis] for i in range(n)])
    return (den, rows), linalg._inverse([{j: x for j, x in enumerate(row) if x} for row in rows],
                                        len(basis), [den] * n)


def _pivot_frame(rows: list[dict[int, int]], pivots: list[int], n: int) -> tuple[tuple, tuple]:
    """The frame (B, L) of integer rows of n columns, each nonzero at its own
    pivot and zero at the others' (a Subspace's reduced rows, or _null_rows
    at its free columns), with no elimination: B holds the rows over their
    pivot entries as columns, over the lcm of those entries, and L, which
    picks the pivot coordinates, is a left inverse."""
    den = lcm(1, *(row[c] for row, c in zip(rows, pivots)))
    scaled = [(row, den // row[c]) for row, c in zip(rows, pivots)]
    return ((den, tuple(tuple(row.get(i, 0) * f for row, f in scaled) for i in range(n))),
            (1, tuple(tuple(int(i == c) for i in range(n)) for c in pivots)))


def _antisymmetric(p: Multivector | Form) -> list[dict[int, int]]:
    """The one matrix of a 2-vector or 2-form p: the sparse integer rows of
    its antisymmetric matrix R, R[i][j] the numerator of p^ij over the
    denominator of p, so that row a is #_p e^a."""
    rows: list[dict[int, int]] = [{} for _ in range(p.dim)]
    for (i, j), v in p._ints()[0].items():
        rows[i][j], rows[j][i] = v, -v
    return rows


def _rank(p: Multivector | Form) -> int:
    """Rank of the matrix of a 2-tensor p: the pivots of its integer rows."""
    return len(_echelon(_antisymmetric(p), p.dim)[1])


def _contraction(p: Multivector | Form) -> LinearMap:
    """The map x -> i(x)p of a 2-vector or 2-form p, -R over the denominator
    of p for R = _antisymmetric(p): column a is the contraction of the a-th
    basis element of the opposite kind into p."""
    d = p._ints()[1]
    return LinearMap(tuple(tuple(Fraction(-row[j], d) if j in row else ZERO for j in range(p.dim))
                           for row in _antisymmetric(p)))


def _push(matrix: tuple, p: Multivector | Form, kind: type):
    """The kind element M p for the integer form (den, rows) of a matrix M of
    k rows, summed in int: M v for a vector, sum p^ij (M e_i) ^ (M e_j) for a
    2-tensor, and for a zero of another grade the zero vector.  The grade is
    capped at k, the top grade."""
    den, rows = matrix
    nums, dp = p._ints()
    k = len(rows)
    if p.grade == 2:
        acc = {(a, b): sum(v * (rows[a][i] * rows[b][j] - rows[a][j] * rows[b][i])
                           for (i, j), v in nums.items()) for a, b in combinations(range(k), 2)}
        return kind._from_ints(k, min(k, 2), acc, dp * den * den)
    acc = {(i,): sum(row[j] * x for (j,), x in nums.items()) for i, row in enumerate(rows)}
    return kind._from_ints(k, min(k, 1), acc, dp * den)


def _in_span(frame: tuple[tuple, tuple], e: Multivector) -> Multivector | None:
    # e in the new coordinates, pushed by L, accepted only when B pushes it
    # back to e
    value = _push(frame[1], e, type(e))
    return value if _push(frame[0], value, type(e)) == e else None


def _restrict(g: LieAlgebra, name: str, frame: tuple[tuple, tuple]) -> LieAlgebra:
    # restrict to the span of the columns of the frame's B, reading
    # coordinates from the frame
    den, rows = frame[0]
    vectors = [Multivector._from_ints(g.dim, 1, {(i,): x for i, x in enumerate(column)}, den)
               for column in zip(*rows)]
    structure: dict[tuple[int, int], Multivector] = {}
    for a, b in combinations(range(len(vectors)), 2):
        bracket = g.bracket(vectors[a], vectors[b])
        value = _in_span(frame, bracket)
        if value is None:
            labels = g.basis_labels
            raise ValueError(
                f"span is not bracket-closed: [{vectors[a].render(labels)}, "
                f"{vectors[b].render(labels)}] = {bracket.render(labels)} lies outside")
        if not value.is_zero():
            structure[(a, b)] = value
    return LieAlgebra(name, len(vectors), standard_labels(len(vectors)), structure)


def _restrict_pair(g: LieAlgebra, sub: Subspace, name: str, r: Multivector,
                  x0: Multivector) -> tuple:
    # (B, the bracket of g on sub in the basis sub.rows, r_h, x0_h) from the
    # pivot frame of sub: r and x0 in the new coordinates (None outside the
    # span) and B mapping back
    frame = _pivot_frame(*sub._reduced, sub.dim)
    inclusion = LinearMap(tuple(tuple(row[i] for row in sub.rows) for i in range(g.dim)))
    return inclusion, _restrict(g, name, frame), _in_span(frame, r), _in_span(frame, x0)


def change_basis(g: LieAlgebra, columns: Matrix, name: str | None = None) -> LieAlgebra:
    """Structure constants in a new basis; columns are the new basis vectors.
    This is restrict on a full family; singular columns, or a matrix that is
    not dim x dim, raise ValueError."""
    if len(columns) != g.dim or any(len(row) != g.dim for row in columns):
        raise ValueError(f"a change of basis of {g.name} needs a {g.dim} x {g.dim} matrix")
    return restrict(g, linalg.transpose(columns), name or g.name)


def coordinates(basis: Sequence[Sequence], v: Iterable) -> list[Fraction] | None:
    """Coordinates of v in the given independent vectors, or None outside
    their span; a dependent family raises ValueError."""
    v = list(v)
    value = _in_span(_frame(basis, len(v)), Multivector.from_coeffs(v))
    return None if value is None else [value.coefficient((i,)) for i in range(value.dim)]


def restrict(g: LieAlgebra, basis: Sequence[Sequence], name: str) -> LieAlgebra:
    """Bracket of g on the span of independent vectors, in that basis.

    A span that is not bracket-closed raises ValueError naming the first
    witness bracket; a dependent family raises ValueError too.
    """
    return _restrict(g, name, _frame(basis, g.dim))
