"""Schouten brackets, Chevalley-Eilenberg differentials, and their twists.

Conventions (for P of grade k, P' of grade k', all identities exact):
  [P, P'] = (-1)^{k k'} [P', P]
  [P, P'^P''] = [P, P']^P'' + (-1)^{k'(k+1)} P'^[P, P'']   (untwisted)
and the twisted bracket by a closed 1-form phi adds the correction
  [P, P']_phi = [P, P'] + (-1)^{k+1}(k-1) P^(i(phi)P') - (k'-1) (i(phi)P)^P'.
On grade-1 arguments both brackets restrict to the Lie bracket; a grade-0
argument makes the untwisted bracket vanish (the algebra sits over a point).

schouten and ce_differential sum over the algebra's integer structure-constant
table: their arguments are written as integers over a common denominator
(exterior.numerators), the products are summed in int arithmetic, and one
Fraction is built per output coefficient.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from liejacobi.exterior import (Form, Multivector, _Element, contract, merge_sorted,
                                numerators, pair, wedge)
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
    out = Multivector.zero(g.dim, out_grade)
    if k == 0 or kp == 0:
        return out
    front = 1 if k % 2 else -1  # (-1)^{k+1}
    den, table = g._ad
    ps, dp = numerators(p.terms)
    qs, dq = numerators(q.terms)
    acc: dict[tuple[int, ...], int] = {}
    for pi, a in ps.items():
        for qi, b in qs.items():
            for ipos in range(k):
                for jpos in range(kp):
                    bracket = table[pi[ipos]].get(qi[jpos])
                    if bracket is None:
                        continue
                    pos_sign = -1 if (ipos + jpos) % 2 else 1
                    rest_p = pi[:ipos] + pi[ipos + 1:]
                    rest_q = qi[:jpos] + qi[jpos + 1:]
                    rest, merge_sign = merge_sorted(rest_p, rest_q)
                    if merge_sign == 0:
                        continue
                    base = front * pos_sign * merge_sign * a * b
                    for m, c in bracket.items():
                        full, ins_sign = merge_sorted((m,), rest)
                        if ins_sign == 0:
                            continue
                        acc[full] = acc.get(full, 0) + base * ins_sign * c
    scale = dp * dq * den
    return Multivector(g.dim, out_grade, {idx: Fraction(v, scale) for idx, v in acc.items() if v})


def check_cocycle(source: LieAlgebra, cocycle: _Element) -> None:
    """cocycle must vanish on all brackets of the source algebra."""
    if cocycle.grade != 1 and not cocycle.is_zero():
        raise ValueError("cocycle must have grade 1")
    coeffs = cocycle.coeffs() if not cocycle.is_zero() else [ZERO] * source.dim
    for (i, j), v in source.structure.items():
        val = sum((c * x for c, x in zip(v.coeffs(), coeffs)), ZERO)
        if val != 0:
            li, lj = source.basis_labels[i], source.basis_labels[j]
            raise ValueError(f"not a 1-cocycle: value {val} on the bracket of ({li}, {lj})")


def twisted_schouten(g: LieAlgebra, phi: Form, p: Multivector, q: Multivector,
                     verify_cocycle: bool = True) -> Multivector:
    """Schouten bracket twisted by a closed 1-form phi.

    Adds the two contraction corrections to the plain bracket; for grade-1
    arguments with a grade-0 second slot this reduces to multiplication by
    phi(X), the anchor of the twist.  Callers that report cocycle failures
    themselves can pass verify_cocycle=False to keep the formula total.
    """
    if verify_cocycle:
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
    """
    n = source.dim
    if element.dim != n:
        raise ValueError("dimension mismatch with the algebra")
    k = element.grade
    if element.is_zero() or k >= n:
        return type(element).zero(n, min(k + 1, n))
    den, table = source._ad
    nums, dw = numerators(element.terms)
    scale = dw * den
    acc: dict[tuple[int, ...], Fraction] = {}
    for big in combinations(range(n), k + 1):
        total = 0
        for a in range(k + 1):
            for b in range(a + 1, k + 1):
                bracket = table[big[a]].get(big[b])
                if bracket is None:
                    continue
                rest = big[:a] + big[a + 1:b] + big[b + 1:]
                pos_sign = -1 if (a + b) % 2 else 1
                for m, c in bracket.items():
                    # w(e_m, rest) = ins_sign * w(full), full the sorted index
                    full, ins_sign = merge_sorted((m,), rest)
                    if ins_sign:
                        total += pos_sign * ins_sign * c * nums.get(full, 0)
        if total:
            acc[big] = Fraction(total, scale)
    return type(element)(n, k + 1, acc)


def twisted_differential(source: LieAlgebra, cocycle: _Element, element: _Element,
                         verify_cocycle: bool = True) -> _Element:
    """d_twisted = d + cocycle ^ . ; squares to zero exactly because the
    twisting element is a closed 1-form (checked eagerly by default)."""
    if type(cocycle) is not type(element):
        raise TypeError("cocycle and element must live on the same side")
    if verify_cocycle:
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


def is_invariant(g: LieAlgebra, phi: Form, weight, s: Multivector) -> bool:
    """True when the weighted adjoint action of every basis element kills s."""
    return all(twisted_ad(g, phi, weight, g.basis_vector(i), s).is_zero()
               for i in range(g.dim))
