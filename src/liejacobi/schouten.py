"""Schouten brackets, Chevalley-Eilenberg differentials, and their twists.

Conventions (for P of grade k, P' of grade k', all identities exact):
  [P, P'] = (-1)^{k k'} [P', P]
  [P, P'^P''] = [P, P']^P'' + (-1)^{k'(k+1)} P'^[P, P'']   (untwisted)
and the twisted bracket by a closed 1-form phi adds the correction
  [P, P']_phi = [P, P'] + (-1)^{k+1}(k-1) P^(i(phi)P') - (k'-1) (i(phi)P)^P'.
On grade-1 arguments both brackets restrict to the Lie bracket; a grade-0
argument makes the untwisted bracket vanish (the algebra sits over a point).

The twisted operations (twisted_schouten, twisted_differential, twisted_ad)
are defined for a closed twisting 1-form only: each one checks it with
check_cocycle and raises ValueError otherwise.

schouten, ce_differential and check_cocycle sum over the algebra's integer
structure-constant table: they read their arguments' integer forms
(numerators over a common denominator, see exterior), sum the products in int
arithmetic, and keep the sums as the integer form of the output, whose
Fraction terms are built only if read.  schouten and ce_differential split
each term of their arguments once per call (`_split`); schouten merges each
pair of remainders once and inserts the bracket's index with bisect.
ce_differential is the derivation extension of d e^m = -sum_{a<b} c_ab^m
e^a^e^b over the table's columns (LieAlgebra._columns), driven by the terms
of its argument: d of a basis element is one column, read with no sum over
the basis.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction

from liejacobi.exterior import Form, Multivector, _Element, contract, merge_sorted, pair, wedge
from liejacobi.liealg import LieAlgebra
from liejacobi.linalg import ZERO, frac


def schouten(g: LieAlgebra, p: Multivector, q: Multivector) -> Multivector:
    """Schouten bracket of multivectors, the biderivation extending the bracket.

    On decomposables it expands as
      (-1)^{k+1} sum_{i,j} (-1)^{i+j} [x_i, y_j] ^ x_1..(no i)..x_k ^ y_1..(no j)..y_{k'}
    which is the unique extension satisfying the module conventions.
    """
    if not isinstance(p, Multivector) or not isinstance(q, Multivector):
        raise TypeError("schouten expects multivectors")
    if p.dim != g.dim or q.dim != g.dim:
        raise ValueError("dimension mismatch with the algebra")
    k, kp = p.grade, q.grade
    out_grade = min(max(k + kp - 1, 0), g.dim)
    if k == 0 or kp == 0:
        return Multivector.zero(g.dim, out_grade)
    front = 1 if k % 2 else -1  # (-1)^{k+1}
    den, table = g._ad
    ps, dp = p._ints()
    qs, dq = q._ints()
    q_parts = _split(qs)
    merged: dict[tuple, tuple] = {}     # (rest_p, rest_q) -> merge_sorted(rest_p, rest_q)
    acc: dict[tuple[int, ...], int] = {}
    for i, a, rest_p in _split(ps):
        row = table[i]
        for j, b, rest_q in q_parts:
            bracket = row.get(j)
            if bracket is None:
                continue
            key = (rest_p, rest_q)
            hit = merged.get(key)
            if hit is None:
                hit = merged[key] = merge_sorted(rest_p, rest_q)
            rest, merge_sign = hit
            if merge_sign == 0:
                continue
            base = front * merge_sign * a * b
            for m, c in bracket.items():
                if m in rest:
                    continue
                # e_m^rest sorted: e_m passes pos entries of rest
                pos = bisect(rest, m)
                t = base * c
                full = rest[:pos] + (m,) + rest[pos:]
                acc[full] = acc.get(full, 0) + (-t if pos % 2 else t)
    return Multivector._from_ints(g.dim, out_grade, acc, dp * dq * den)


def _split(nums: dict) -> list[tuple[int, int, tuple[int, ...]]]:
    """(x, (-1)^pos v, the index without x) for each entry x, at position
    pos, of each index of an integer form {index: v}."""
    return [(x, -v if pos % 2 else v, idx[:pos] + idx[pos + 1:])
            for idx, v in nums.items() for pos, x in enumerate(idx)]


def check_cocycle(source: LieAlgebra, cocycle: _Element) -> None:
    """cocycle must vanish on all brackets of the source algebra; the first
    violating bracket in `structure` order is named."""
    if cocycle.grade != 1 and not cocycle.is_zero():
        raise ValueError("cocycle must have grade 1")
    if cocycle.is_zero():
        return
    den, table = source._ad
    nums, dc = cocycle._ints()
    for i, j in source.structure:
        total = sum(c * nums.get((k,), 0) for k, c in table[i][j].items())
        if total:
            li, lj = source.basis_labels[i], source.basis_labels[j]
            raise ValueError(f"not a 1-cocycle: value {Fraction(total, den * dc)} "
                             f"on the bracket of ({li}, {lj})")


def twisted_schouten(g: LieAlgebra, phi: Form, p: Multivector, q: Multivector) -> Multivector:
    """Schouten bracket twisted by a closed 1-form phi.

    Adds the two contraction corrections to the plain bracket; for grade-1
    arguments with a grade-0 second slot this reduces to multiplication by
    phi(X), the anchor of the twist.  phi must be a 1-cocycle of g: it is
    checked, and a violation raises ValueError.
    """
    check_cocycle(g, phi)
    k, kp = p.grade, q.grade
    out = schouten(g, p, q)
    if not p.is_zero() and not contract(phi, q).is_zero():
        sign = (1 if (k + 1) % 2 == 0 else -1) * (k - 1)
        if sign:
            out = out + wedge(p, contract(phi, q)).scale(sign)
    if kp != 1 and not contract(phi, p).is_zero():
        out = out - wedge(contract(phi, p), q).scale(kp - 1)
    return out


def ce_differential(source: LieAlgebra, element: _Element) -> _Element:
    """Chevalley-Eilenberg differential over a point.

    The bracket lives on `source`; `element` is an alternating k-linear
    function on it (a Form when source brackets vectors, a Multivector when
    source is a dual algebra bracketing covectors).  Degree k goes to k+1:
      (d w)(x_0, .., x_k) = sum_{i<j} (-1)^{i+j} w([x_i, x_j], x_0, ..no i..no j.., x_k).
    It is summed as the derivation extension of d e^m = -sum_{a<b} c_ab^m e^a^e^b,
      d(e^{i_0}^..^e^{i_{k-1}}) = sum_p (-1)^p d(e^{i_p}) ^ (the rest),
    term by term over the element, reading column m of the table.
    """
    n = source.dim
    if element.dim != n:
        raise ValueError("dimension mismatch with the algebra")
    k = element.grade
    if element.is_zero() or k >= n:
        return type(element).zero(n, min(k + 1, n))
    columns = source._columns
    nums, dw = element._ints()
    acc: dict[tuple[int, ...], int] = {}
    for m, v, rest in _split(nums):     # v = (-1)^p nums[idx], m at position p
        for a, b, c in columns[m]:
            if a in rest or b in rest:
                continue
            # e^a^e^b^rest sorted: e^b passes pb entries of rest, e^a passes pa
            pa, pb = bisect(rest, a), bisect(rest, b)
            full = rest[:pa] + (a,) + rest[pa:pb] + (b,) + rest[pb:]
            t = v * c
            acc[full] = acc.get(full, 0) + (t if (pa + pb) % 2 else -t)
    return type(element)._from_ints(n, k + 1, acc, dw * source._ad[0])


def twisted_differential(source: LieAlgebra, cocycle: _Element, element: _Element) -> _Element:
    """d_twisted = d + cocycle ^ . ; squares to zero exactly because the
    twisting element is a 1-cocycle of source: it is checked, and a violation
    raises ValueError."""
    if type(cocycle) is not type(element):
        raise TypeError("cocycle and element must live on the same side")
    check_cocycle(source, cocycle)
    return ce_differential(source, element) + wedge(cocycle, element)


def twisted_ad(g: LieAlgebra, phi: Form, weight, x: Multivector, s: Multivector) -> Multivector:
    """Weighted adjoint action on grade-k multivectors:
    x . s = [x, s] - (k - weight) phi(x) s.  Weight 1 matches the twisted
    Schouten bracket with a grade-1 first argument."""
    check_cocycle(g, phi)
    if x.grade != 1 and not x.is_zero():
        raise ValueError("the acting element must have grade 1")
    k = s.grade
    factor = (frac(k) - frac(weight)) * pair(phi, x) if not x.is_zero() else ZERO
    out = schouten(g, x, s)
    if factor != 0:
        out = out - s.scale(factor)
    return out
