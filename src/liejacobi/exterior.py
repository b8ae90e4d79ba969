"""Sparse exterior algebra over a fixed finite-dimensional space.

Multivectors and forms are maps from strictly increasing index tuples to
nonzero rational coefficients.  All normalization (index sorting, sign
bookkeeping, dropping zeros) happens at construction.  A grade-0 element is
a scalar stored under the empty index; an empty term map is the zero element
of any grade.

An element is held as its integer form: the numerators over D, the lcm of
the reduced denominators of its coefficients (D = 1 for zero).  The form is
canonical, so equality, `is_zero` and element arithmetic read it directly.
`terms`, the read-only map from index to Fraction, is built from the form
on first read and then kept; the public constructor, `from_terms`,
`from_coeffs` and pickling take Fractions and compute the form at once.
The form is private to the library, not to this module.  Its readers, with
`_ints`, and builders, with `_from_ints`, outside this module are:
  - `liealg`: the integer structure-constant table `_ad`, its column view
    `_columns`, `_vector`, the Jacobi check `validate`, the one matrix of
    a 2-tensor `_antisymmetric`, the one push-forward `_push`, the
    integer rows of `Subspace.from_elements` and the one inclusion
    `_embed` of a smaller algebra's vectors in an algebra built from it;
  - `schouten`: `schouten`, `ce_differential` and `check_cocycle`;
  - `bialgebra`: `_check_glb` (d_{*X0} and the compatibility residuals,
    read from the tables of g, g*: their integer sums are kept per
    bialgebra object in `GeneralizedBialgebra._compat` and made into
    elements afresh on each call), whose `_bracket_compat` applies the
    action kernel `_twisted_ad` (X.P = [X, P] - phi0(X) P, from the table
    of g) to the terms of each d_{*X0}(e_i) only, `_coboundary_system`
    (the integer rows of solve_coboundary, that action on each basis
    2-vector and the forms of d_{*X0}(e_i)), the dual vector
    `_unit_dual` of a cocycle (from phi and the integer center rows),
    the adjoint kernel `dual_bracket_adjoint_route` (the dual bracket from
    the columns of g and the forms of phi0, X0) and the certificate
    `_check_sharp_homomorphism` (-#_r a homomorphism g* -> g, from both
    tables); both read r as the rows of `liealg._antisymmetric(r)`;
  - `jacobi`: the residuals of `check_jacobi`, summed from the table, and
    the contact and l.c.s. maps, which invert and solve integer rows of
    eta, d eta, omega2, r and X0.
The kernels here, element arithmetic and the structure-constant sums of
`liealg`, `schouten`, `bialgebra` and `jacobi` sum in int arithmetic and return
results through `_Element._from_ints`, which reduces the sums by one gcd
and keeps them as the form: a kernel output whose terms nobody reads, such
as a residual that is only tested for zero, never builds a Fraction.

An element input of a fixed kind, dimension and grade (the entries of a
generalized bialgebra, of Yang-Baxter data and of a Jacobi pair, a contact,
l.c.s. or cocycle form, the twist of a central extension, the spanning
elements of a subspace and a candidate member) is checked by one
rule, `_check_argument`: an element of the wrong kind raises TypeError; one
of another dimension, a zero element where a nonzero one is needed, or a
nonzero element of another grade raises ValueError.  Zero is of every grade.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping

from liejacobi.linalg import ZERO, frac

Index = tuple[int, ...]

_set = object.__setattr__


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


@dataclass(frozen=True, eq=False, init=False, repr=False)
class _Element:
    """Shared implementation for multivectors and forms.

    Every constructor sets the integer form `_form` = (nums, den) through
    `_hold`.  The public constructor copies `terms` into a read-only
    mapping, so a caller's later change to its dict cannot reach the
    element.
    """

    dim: int
    grade: int

    _terms = None    # the read-only Fraction map, once built; see terms

    def __init__(self, dim: int, grade: int, terms: Mapping[Index, Fraction] | None = None):
        terms = dict(terms or {})
        den = lcm(*(c.denominator for c in terms.values()))
        self._hold(dim, grade, ({idx: c.numerator * (den // c.denominator)
                                 for idx, c in terms.items()}, den))
        _set(self, "_terms", MappingProxyType(terms))

    @classmethod
    def _from_ints(cls, dim: int, grade: int, acc: dict, scale: int):
        """The element with coefficients acc[idx] / scale, scale > 0; zero
        entries of acc are dropped."""
        nums = {idx: v for idx, v in acc.items() if v}
        g = scale
        for v in nums.values():
            if g == 1:
                break
            g = gcd(g, v)
        if g != 1:
            scale //= g
            nums = {idx: v // g for idx, v in nums.items()}
        return object.__new__(cls)._hold(dim, grade, (nums, scale))

    def _hold(self, dim: int, grade: int, form: tuple[dict, int]):
        # the state every constructor sets, validated like any other element
        _set(self, "dim", dim)
        _set(self, "grade", grade)
        _set(self, "_form", form)
        self.__post_init__()
        return self

    def _ints(self) -> tuple[dict, int]:
        """(nums, den) with terms[idx] == nums[idx] / den, den the lcm of the
        reduced denominators; the caller must not change nums."""
        return self._form

    @property
    def terms(self) -> Mapping[Index, Fraction]:
        """Read-only map from index to coefficient, built from the integer
        form on first read and then kept."""
        terms = self._terms
        if terms is None:
            nums, den = self._form
            terms = MappingProxyType({idx: Fraction(v, den) for idx, v in nums.items()})
            _set(self, "_terms", terms)
        return terms

    def __post_init__(self):
        # validation of every element, whichever constructor built it, on the
        # integer form: the terms' indices, and a zero numerator for each zero
        # coefficient
        dim, grade = self.dim, self.grade
        if not 0 <= grade <= dim:
            raise ValueError(f"grade {grade} out of range for dimension {dim}")
        for idx, c in self._form[0].items():
            if len(idx) != grade:
                raise ValueError(f"index {idx} does not match grade {grade}")
            for t in range(1, grade):
                if idx[t - 1] >= idx[t]:
                    raise ValueError(f"index {idx} is not strictly increasing")
            # increasing, so the first and last entries bound the rest
            if grade and (idx[0] < 0 or idx[-1] >= dim):
                raise ValueError(f"index {idx} out of range for dimension {dim}")
            if not c:
                raise ValueError("zero coefficients must be dropped")

    def __reduce__(self):
        # a mappingproxy cannot be pickled; copy and pickle through the constructor
        return (type(self), (self.dim, self.grade, dict(self.terms)))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(dim={self.dim!r}, grade={self.grade!r}, "
                f"terms={self.terms!r})")

    @classmethod
    def zero(cls, dim: int, grade: int = 0):
        return cls._from_ints(dim, grade, {}, 1)

    @classmethod
    def scalar(cls, dim: int, value) -> "_Element":
        c = frac(value)
        return cls(dim, 0, {(): c} if c != 0 else {})

    @classmethod
    def basis(cls, dim: int, i: int):
        """The i-th basis element, as a grade-1 element."""
        return cls._from_ints(dim, 1, {(i,): 1}, 1)

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
        """Grade-1 element from a coefficient list over the basis; the empty
        list gives the grade-0 zero of dimension 0, which has no grade 1."""
        cs = [frac(c) for c in coeffs]
        return cls(len(cs), min(1, len(cs)), {(i,): c for i, c in enumerate(cs) if c != 0})

    def is_zero(self) -> bool:
        return not self._form[0]

    def coefficient(self, idx: Iterable[int]) -> Fraction:
        key, sign = sort_index(idx)
        if sign == 0:
            return ZERO
        return sign * self.terms.get(key, ZERO)

    def coeffs(self) -> list[Fraction]:
        """Coefficient list over the basis; grade 1 only, zero being of every
        grade."""
        if self.grade != 1 and not self.is_zero():
            raise ValueError("coefficient lists only make sense at grade 1")
        terms = self.terms
        return [terms.get((i,), ZERO) for i in range(self.dim)]

    def scalar_value(self) -> Fraction:
        if self.grade != 0 and not self.is_zero():
            raise ValueError("not a scalar")
        return self.terms.get((), ZERO)

    def __eq__(self, other) -> bool:
        # the integer form is canonical, so equal elements have equal forms
        if type(self) is not type(other) or self.dim != other.dim:
            return NotImplemented
        a, b = self._form, other._form
        if not a[0] and not b[0]:
            return True
        return self.grade == other.grade and a == b

    __hash__ = None  # type: ignore[assignment]

    def _check_compatible(self, other):
        if type(self) is not type(other):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.dim != other.dim:
            raise ValueError("dimension mismatch")

    def __add__(self, other):
        return self._add(other, 1)

    def __sub__(self, other):
        return self._add(other, -1)

    def _add(self, other, sign: int):
        # self + sign * other
        self._check_compatible(other)
        na, da = self._form
        nb, db = other._form
        if not na:
            return other if sign == 1 else -other
        if not nb:
            return self
        if self.grade != other.grade:
            raise ValueError(f"cannot add grade {self.grade} to grade {other.grade}")
        scale = lcm(da, db)
        fa, fb = scale // da, sign * (scale // db)
        acc = {idx: v * fa for idx, v in na.items()}
        for idx, v in nb.items():
            acc[idx] = acc.get(idx, 0) + v * fb
        return type(self)._from_ints(self.dim, self.grade, acc, scale)

    def __neg__(self):
        nums, den = self._form
        return type(self)._from_ints(self.dim, self.grade, {idx: -v for idx, v in nums.items()},
                                     den)

    def scale(self, c):
        f = frac(c)
        if f == 0:
            return type(self).zero(self.dim, self.grade)
        nums, den = self._form
        p = f.numerator
        return type(self)._from_ints(self.dim, self.grade, {k: p * v for k, v in nums.items()},
                                     den * f.denominator)

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


def _check_argument(name: str, e, kind: type, dim: int, grade: int, nonzero: bool = False) -> None:
    """Refuse the input e unless it is a `kind` element of dimension dim
    that has the given grade, or is zero and nonzero is not set."""
    if not isinstance(e, kind):
        raise TypeError(f"{name} must be a {kind.__name__.lower()}")
    if e.dim != dim:
        raise ValueError(f"{name} must have dimension {dim}")
    if e.is_zero():
        if nonzero:
            raise ValueError(f"{name} must be nonzero")
    elif e.grade != grade:
        raise ValueError(f"{name} must have grade {grade}")


def wedge(a: _Element, b: _Element) -> _Element:
    """Exterior product, graded-commutative: a^b = (-1)^{|a||b|} b^a."""
    a._check_compatible(b)
    grade = a.grade + b.grade
    if grade > a.dim:
        return type(a).zero(a.dim, a.dim)
    na, da = a._ints()
    nb, db = b._ints()
    acc: dict[Index, int] = {}
    for ia, ca in na.items():
        for ib, cb in nb.items():
            merged, sign = merge_sorted(ia, ib)
            if sign:
                acc[merged] = acc.get(merged, 0) + sign * ca * cb
    return type(a)._from_ints(a.dim, grade, acc, da * db)


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
    grade-0 target, or contracting with a zero of any grade (zero counts as
    every grade, as in _check_argument), gives zero.
    """
    if type(one) is type(target):
        raise TypeError("contraction needs a grade-1 element of the opposite kind")
    if one.dim != target.dim:
        raise ValueError("dimension mismatch")
    if one.grade != 1 and not one.is_zero():
        raise ValueError("can only contract with a grade-1 element")
    if target.grade == 0:
        return type(target).zero(target.dim, 0)
    n1, d1 = one._ints()
    if not n1:
        return type(target).zero(target.dim, target.grade - 1)
    nt, dt = target._ints()
    acc: dict[Index, int] = {}
    for idx, c in nt.items():
        for pos, i in enumerate(idx):
            ci = n1.get((i,))
            if ci is None:
                continue
            rest = idx[:pos] + idx[pos + 1 :]
            v = ci * c
            acc[rest] = acc.get(rest, 0) + (-v if pos % 2 else v)
    return type(target)._from_ints(target.dim, target.grade - 1, acc, d1 * dt)


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
    no, do = omega._ints()
    np_, dp = p._ints()
    total = 0
    for idx, c in no.items():
        v = np_.get(idx)
        if v is not None:
            total += c * v
    return Fraction(total, do * dp)
