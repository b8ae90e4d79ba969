"""Sparse exterior algebra over a fixed finite-dimensional space.

Multivectors and forms are maps from strictly increasing index tuples to
nonzero rational coefficients.  All normalization (index sorting, sign
bookkeeping, dropping zeros) happens at construction, so equality is plain
dictionary comparison.  A grade-0 element is a scalar stored under the empty
index; an empty term map is the zero element of any grade.  `numerators`
writes a term map as integers over one common denominator, the form in
which the structure-constant kernels take their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping

from liejacobi.linalg import ZERO, frac

Index = tuple[int, ...]


def numerators(terms: Mapping[object, Fraction]) -> tuple[dict, int]:
    """The terms as integers over one common denominator.

    Returns (nums, den) with terms[k] == nums[k] / den and den the lcm of
    the denominators (1 for no terms).  The structure-constant kernels sum
    products of such numerators in int arithmetic and build one Fraction
    per output coefficient, instead of one per multiply-add.
    """
    # folded one denominator at a time: lcm(*...) allocates an argument
    # tuple per call, and on dense dim-7 inputs those made the resident set
    # of a long run grow op after op
    den = 1
    for c in terms.values():
        den = lcm(den, c.denominator)
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def sort_index(idx: Iterable[int]) -> tuple[Index, int]:
    """Sort an index tuple, counting transpositions.

    Returns (sorted tuple, sign); sign is 0 when an index repeats.
    """
    seq = list(idx)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return tuple(seq), 0
    return tuple(seq), sign


def merge_sorted(a: Index, b: Index) -> tuple[Index, int]:
    """Merge two sorted disjoint index tuples, tracking the shuffle sign.

    Returns (merged tuple, sign), sign 0 when the tuples intersect.
    """
    out: list[int] = []
    sign = 1
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            return (), 0
        if a[i] < b[j]:
            out.append(a[i])
            i += 1
        else:
            # b[j] jumps over the len(a)-i remaining entries of a
            if (len(a) - i) % 2:
                sign = -sign
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out), sign


@dataclass(frozen=True, eq=False)
class _Element:
    """Shared implementation for multivectors and forms."""

    dim: int
    grade: int
    terms: Mapping[Index, Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if not 0 <= self.grade <= self.dim:
            raise ValueError(f"grade {self.grade} out of range for dimension {self.dim}")
        for idx, c in self.terms.items():
            if len(idx) != self.grade:
                raise ValueError(f"index {idx} does not match grade {self.grade}")
            if list(idx) != sorted(set(idx)):
                raise ValueError(f"index {idx} is not strictly increasing")
            if any(not 0 <= i < self.dim for i in idx):
                raise ValueError(f"index {idx} out of range for dimension {self.dim}")
            if c == 0:
                raise ValueError("zero coefficients must be dropped")

    @classmethod
    def zero(cls, dim: int, grade: int = 0):
        return cls(dim, grade, {})

    @classmethod
    def scalar(cls, dim: int, value) -> "_Element":
        c = frac(value)
        return cls(dim, 0, {(): c} if c != 0 else {})

    @classmethod
    def basis(cls, dim: int, i: int):
        """The i-th basis element, as a grade-1 element."""
        return cls(dim, 1, {(i,): Fraction(1)})

    @classmethod
    def from_terms(cls, dim: int, grade: int, raw: Mapping[Iterable[int], object]):
        """Build from possibly unsorted index tuples, normalizing signs."""
        acc: dict[Index, Fraction] = {}
        for idx, c in raw.items():
            coeff = frac(c)
            if coeff == 0:
                continue
            key, sign = sort_index(idx)
            if sign == 0:
                continue
            acc[key] = acc.get(key, ZERO) + sign * coeff
        return cls(dim, grade, {k: v for k, v in acc.items() if v != 0})

    @classmethod
    def from_coeffs(cls, coeffs: Iterable) -> "_Element":
        """Grade-1 element from a coefficient list over the basis."""
        cs = [frac(c) for c in coeffs]
        return cls(len(cs), 1, {(i,): c for i, c in enumerate(cs) if c != 0})

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, idx: Iterable[int]) -> Fraction:
        key, sign = sort_index(idx)
        if sign == 0:
            return ZERO
        return sign * self.terms.get(key, ZERO)

    def coeffs(self) -> list[Fraction]:
        """Coefficient list over the basis; grade 1 only."""
        if self.grade != 1:
            raise ValueError("coefficient lists only make sense at grade 1")
        return [self.terms.get((i,), ZERO) for i in range(self.dim)]

    def scalar_value(self) -> Fraction:
        if self.grade != 0 and not self.is_zero():
            raise ValueError("not a scalar")
        return self.terms.get((), ZERO)

    def __eq__(self, other) -> bool:
        if type(self) is not type(other) or self.dim != other.dim:
            return NotImplemented
        if not self.terms and not other.terms:
            return True
        return self.grade == other.grade and dict(self.terms) == dict(other.terms)

    __hash__ = None  # type: ignore[assignment]

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        self._check_compatible(other)
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.grade != other.grade:
            raise ValueError(f"cannot add grade {self.grade} to grade {other.grade}")
        acc = dict(self.terms)
        for idx, c in other.terms.items():
            v = acc.get(idx, ZERO) + c
            if v == 0:
                acc.pop(idx, None)
            else:
                acc[idx] = v
        return type(self)(self.dim, self.grade, acc)

    def __neg__(self):
        return type(self)(self.dim, self.grade, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        f = frac(c)
        if f == 0:
            return type(self).zero(self.dim, self.grade)
        return type(self)(self.dim, self.grade, {k: f * v for k, v in self.terms.items()})

    def __rmul__(self, c):
        return self.scale(c)

    def render(self, labels: list[str] | tuple[str, ...] | None = None) -> str:
        """Human-readable sum of wedge monomials."""
        if self.is_zero():
            return "0"
        if labels is None:
            labels = [f"e{i + 1}" for i in range(self.dim)]
        parts = []
        for idx in sorted(self.terms):
            c = self.terms[idx]
            mono = "^".join(labels[i] for i in idx) if idx else "1"
            if c == 1 and idx:
                s = mono
            elif c == -1 and idx:
                s = f"-{mono}"
            else:
                s = f"{c}*{mono}" if idx else str(c)
            parts.append(s)
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __str__(self) -> str:
        return self.render()


class Multivector(_Element):
    """Alternating contravariant tensor over the chosen basis."""


class Form(_Element):
    """Alternating covariant tensor over the dual of the chosen basis."""


def wedge(a: _Element, b: _Element) -> _Element:
    """Exterior product, graded-commutative: a^b = (-1)^{|a||b|} b^a."""
    a._check_compatible(b)
    grade = a.grade + b.grade
    if grade > a.dim:
        return type(a).zero(a.dim, a.dim)
    acc: dict[Index, Fraction] = {}
    for ia, ca in a.terms.items():
        for ib, cb in b.terms.items():
            merged, sign = merge_sorted(ia, ib)
            if sign == 0:
                continue
            v = acc.get(merged, ZERO) + sign * ca * cb
            if v == 0:
                acc.pop(merged, None)
            else:
                acc[merged] = v
    return type(a)(a.dim, grade, acc)


def wedge_power(a: _Element, k: int) -> _Element:
    """k-fold wedge of a with itself; k = 0 gives the scalar 1."""
    out = type(a).scalar(a.dim, 1)
    for _ in range(k):
        out = wedge(out, a)
    return out


def contract(one: _Element, target: _Element) -> _Element:
    """Interior product of a grade-1 element of the opposite kind into target.

    i(phi)(x_1^...^x_k) = sum_j (-1)^{j+1} phi(x_j) x_1^...(drop j)...^x_k,
    so on decomposable pairs i(phi)(x^y) = phi(x) y - phi(y) x.  Works both
    ways: a form contracting a multivector and a vector contracting a form.
    The result has the kind of target and one grade less; contracting a
    grade-0 target gives zero.
    """
    if type(one) is type(target):
        raise TypeError("contraction needs a grade-1 element of the opposite kind")
    if one.dim != target.dim:
        raise ValueError("dimension mismatch")
    if one.grade != 1:
        raise ValueError("can only contract with a grade-1 element")
    if target.grade == 0:
        return type(target).zero(target.dim, 0)
    acc: dict[Index, Fraction] = {}
    for idx, c in target.terms.items():
        for pos, i in enumerate(idx):
            ci = one.terms.get((i,), ZERO)
            if ci == 0:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            sign = -1 if pos % 2 else 1
            v = acc.get(rest, ZERO) + sign * ci * c
            if v == 0:
                acc.pop(rest, None)
            else:
                acc[rest] = v
    return type(target)(target.dim, target.grade - 1, acc)


def pair(omega: Form, p: Multivector) -> Fraction:
    """Full pairing of a form with a multivector of the same grade.

    On basis elements this is the determinant of the evaluation deltas, which
    for canonically sorted indices is 1 exactly when the indices agree.
    """
    if not isinstance(omega, Form) or not isinstance(p, Multivector):
        raise TypeError("pair expects (Form, Multivector)")
    if omega.dim != p.dim:
        raise ValueError("dimension mismatch")
    if omega.is_zero() or p.is_zero():
        return ZERO
    if omega.grade != p.grade:
        raise ValueError("grade mismatch")
    total = ZERO
    for idx, c in omega.terms.items():
        total += c * p.terms.get(idx, ZERO)
    return total


def evaluate(omega: Form, *vectors: Multivector) -> Fraction:
    """omega(X_1, ..., X_k) as the pairing with X_1 ^ ... ^ X_k."""
    if len(vectors) != omega.grade:
        raise ValueError("argument count must match the grade")
    if omega.grade == 0:
        return omega.scalar_value()
    prod = vectors[0]
    for v in vectors[1:]:
        prod = wedge(prod, v)
    return pair(omega, prod)


def evaluate_on(p: Multivector, *forms: Form) -> Fraction:
    """P(alpha_1, ..., alpha_k): the mirror of evaluate."""
    if len(forms) != p.grade:
        raise ValueError("argument count must match the grade")
    if p.grade == 0:
        return p.scalar_value()
    prod = forms[0]
    for f in forms[1:]:
        prod = wedge(prod, f)
    return pair(prod, p)
