"""Algebraic Jacobi pairs, their rank theory, and the contact/l.c.s. dictionaries.

A Jacobi pair on a Lie algebra g is a 2-vector r and a vector X0 with
  [r, r] = 2 X0 ^ r   and   [X0, r] = 0.
Rank counts the characteristic subspace im(#_r) + <X0>, which is always a
subalgebra; odd rank restricts to a contact form, even rank to a locally
conformal symplectic (l.c.s.) pair.  The conversions here are exact inverses
of each other and every constructor re-verifies the defining identities.
Every matrix of a 2-tensor here, #_r and the flat maps of omega2 and d eta,
is liealg's `_contraction`, and `_inverse_tensor` reads r or omega2 back
from the inverse of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from liejacobi.exterior import (Form, Multivector, _check_argument, contract, pair, wedge,
                                wedge_power)
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    _contraction,
    _push,
    _restrict_pair,
    abelian,
    direct_product,
)
from liejacobi import linalg
from liejacobi.linalg import ZERO, invert, mat_vec, solve
from liejacobi.schouten import ce_differential, schouten


@dataclass(frozen=True)
class JacobiPair:
    """Candidate pair (r, X0) on an algebra; check_jacobi decides validity."""

    algebra: LieAlgebra
    r: Multivector
    x0: Multivector

    def __post_init__(self):
        _check_argument("r", self.r, Multivector, self.algebra.dim, 2)
        _check_argument("x0", self.x0, Multivector, self.algebra.dim, 1)


@dataclass(frozen=True)
class JacobiReport:
    pair: JacobiPair
    self_residual: Multivector     # [r,r] - 2 X0^r
    vector_residual: Multivector   # [X0,r]

    @property
    def passed(self) -> bool:
        return self.self_residual.is_zero() and self.vector_residual.is_zero()

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        labels = self.pair.algebra.basis_labels
        if self.passed:
            return "jacobi pair: both defining identities hold"
        return (
            "jacobi pair fails:\n"
            f"  [r,r] - 2*x0^r = {self.self_residual.render(labels)}\n"
            f"  [x0,r] = {self.vector_residual.render(labels)}"
        )


def check_jacobi(jp: JacobiPair) -> JacobiReport:
    """Evaluate both defining identities and report the exact residuals."""
    g = jp.algebra
    self_res = schouten(g, jp.r, jp.r) - wedge(jp.x0, jp.r).scale(2)
    vec_res = schouten(g, jp.x0, jp.r)
    return JacobiReport(jp, self_res, vec_res)


def sharp(obj: JacobiPair | Multivector) -> LinearMap:
    """Matrix of #_r : g* -> g, fixed by beta(#_r(alpha)) = r(alpha, beta)."""
    r = obj.r if isinstance(obj, JacobiPair) else obj
    if not isinstance(r, Multivector):
        raise TypeError("sharp expects a jacobi pair or a 2-vector")
    if not r.is_zero() and r.grade != 2:
        raise ValueError("sharp is defined for 2-vectors")
    return _contraction(r)


def _inverse_tensor(p: Multivector | Form, kind: type) -> tuple:
    """(q, M^-1) for M = _contraction(p): q is the 2-tensor of the given kind
    with _contraction(q) = -M^-1, read as q^ij = -M^-1[j][i]."""
    minv = invert(_contraction(p).rows)
    terms = {(i, j): -minv[j][i] for i, j in combinations(range(p.dim), 2) if minv[j][i]}
    return kind.from_terms(p.dim, 2, terms), minv


def _span_with_x0(jp: JacobiPair) -> Subspace:
    # #_r is antisymmetric, so its rows span its image
    vectors = sharp(jp).rows
    vectors.append(jp.x0.coeffs())
    return Subspace(jp.algebra.dim, vectors)


def rank(jp: JacobiPair) -> int:
    """Dimension of the characteristic subspace im(#_r) + <X0>."""
    return _span_with_x0(jp).rank


@dataclass(frozen=True)
class CharacteristicSubalgebra:
    """Characteristic subalgebra of a Jacobi pair with the pair restricted to it.

    `tag` records the induced structure: "contact" for odd dimension, "lcs"
    for even.  `inclusion` maps restricted coordinates back into the ambient
    algebra (columns are the subspace basis).
    """

    subspace: Subspace
    algebra: LieAlgebra
    pair: JacobiPair
    tag: str
    inclusion: LinearMap


def characteristic_subalgebra(jp: JacobiPair) -> CharacteristicSubalgebra:
    """im(#_r) + <X0> with the bracket, r and X0 re-expressed in its basis.

    The subspace is provably bracket-closed for every valid Jacobi pair, so a
    closure failure is reported as an error carrying the witness bracket.
    """
    report = check_jacobi(jp)
    if not report.passed:
        raise ValueError("not a jacobi pair:\n" + report.describe())
    return _characteristic_checked(jp)


def _characteristic_checked(jp: JacobiPair) -> CharacteristicSubalgebra:
    # characteristic_subalgebra after check_jacobi(jp) has passed
    g = jp.algebra
    sub = _span_with_x0(jp)
    inclusion, restricted, r_h, x0_h = _restrict_pair(g, sub.rows, f"{g.name}.char", jp.r, jp.x0)
    # r and x0 live in the subspace whenever the pair is valid
    if r_h is None:
        raise ValueError("r does not lie in the second exterior power of the characteristic subspace")
    if x0_h is None:
        raise ValueError("x0 does not lie in the characteristic subspace")
    tag = "contact" if sub.rank % 2 else "lcs"
    return CharacteristicSubalgebra(sub, restricted, JacobiPair(restricted, r_h, x0_h), tag,
                                    inclusion)


@dataclass(frozen=True)
class ContactStructure:
    """A 1-form eta on an odd-dimensional algebra with eta ^ (d eta)^k != 0."""

    algebra: LieAlgebra
    eta: Form

    def __post_init__(self):
        n = self.algebra.dim
        if n % 2 == 0:
            raise ValueError("contact structures need odd dimension")
        _check_argument("eta", self.eta, Form, n, 1, nonzero=True)
        k = n // 2
        volume = wedge(self.eta, wedge_power(ce_differential(self.algebra, self.eta), k))
        if volume.is_zero():
            raise ValueError("eta ^ (d eta)^k = 0: not an algebraic contact form")


@dataclass(frozen=True)
class LcsStructure:
    """A nondegenerate 2-form with Lee 1-form: omega2^k != 0, d(omega2) = lee ^ omega2."""

    algebra: LieAlgebra
    omega2: Form
    lee: Form

    def __post_init__(self):
        n = self.algebra.dim
        if n % 2:
            raise ValueError("l.c.s. structures need even dimension")
        _check_argument("omega2", self.omega2, Form, n, 2, nonzero=True)
        _check_argument("lee", self.lee, Form, n, 1)
        # omega2^k != 0 exactly when the flat map has full rank
        if linalg.rank(_contraction(self.omega2).rows) < n:
            raise ValueError("omega2 is degenerate: omega2^k = 0")
        if not ce_differential(self.algebra, self.lee).is_zero():
            raise ValueError("lee form is not a 1-cocycle")
        residual = ce_differential(self.algebra, self.omega2) - wedge(self.lee, self.omega2)
        if not residual.is_zero():
            raise ValueError("d(omega2) != lee ^ omega2")


def contact_to_jacobi(cs: ContactStructure) -> JacobiPair:
    """Reeb vector and 2-vector of a contact form: X0 = b^{-1}(eta), r = d eta pulled back."""
    g, eta = cs.algebra, cs.eta
    d_eta = ce_differential(g, eta)
    # b_eta(X) = i(X)(d eta) + eta(X) eta: the contraction of d eta plus eta (x) eta
    e = eta.coeffs()
    binv = invert([[c + a * b for c, b in zip(row, e)]
                   for a, row in zip(e, _contraction(d_eta).matrix)])
    x0 = Multivector.from_coeffs(mat_vec(binv, e))
    if not contract(x0, d_eta).is_zero() or pair(eta, x0) != 1:
        raise ValueError("flat map inversion did not produce the Reeb vector")
    # r(e^i, e^j) = d eta(b^{-1} e^i, b^{-1} e^j)
    jp = JacobiPair(g, _push(LinearMap.from_columns(binv), d_eta), x0)
    report = check_jacobi(jp)
    if not report.passed:
        raise ValueError("contact data produced an invalid pair:\n" + report.describe())
    return jp


def jacobi_to_contact(jp: JacobiPair) -> ContactStructure:
    """Inverse of contact_to_jacobi for pairs of full odd rank.

    eta is the unique 1-form vanishing on im(#_r) with eta(X0) = 1.
    """
    g = jp.algebra
    rows = sharp(jp).rows     # spans im(#_r), #_r being antisymmetric
    rhs = [ZERO for _ in rows]
    rows.append(jp.x0.coeffs())
    rhs.append(Fraction(1))
    # for odd n, #_r has rank at most n - 1, so eta exists and is unique
    # exactly when im(#_r) + <X0> is everything: one elimination decides both
    sol = solve(rows, rhs) if g.dim % 2 else None
    if sol is None or sol[1]:
        raise ValueError("jacobi pair does not have full odd rank")
    eta = Form.from_coeffs(sol[0])
    cs = ContactStructure(g, eta)
    back = contact_to_jacobi(cs)
    if back.r != jp.r or back.x0 != jp.x0:
        raise ValueError("contact reconstruction failed to invert the pair")
    return cs


def lcs_to_jacobi(ls: LcsStructure) -> JacobiPair:
    """X0 = b^{-1}(lee) and r with #_r = -b^{-1} for the 2-form's flat map b."""
    g = ls.algebra
    r, binv = _inverse_tensor(ls.omega2, Multivector)
    jp = JacobiPair(g, r, Multivector.from_coeffs(mat_vec(binv, ls.lee.coeffs())))
    report = check_jacobi(jp)
    if not report.passed:
        raise ValueError("l.c.s. data produced an invalid pair:\n" + report.describe())
    return jp


def jacobi_to_lcs(jp: JacobiPair) -> LcsStructure:
    """Inverse of lcs_to_jacobi for pairs of full even rank: b = -#_r^{-1}."""
    g = jp.algebra
    # #_r has even rank, so the pair has full even rank exactly when #_r is
    # invertible; for odd n it never is
    try:
        omega2, sinv = _inverse_tensor(jp.r, Form)
    except ValueError:
        raise ValueError("jacobi pair does not have full even rank") from None
    lee = Form.from_coeffs([-c for c in mat_vec(sinv, jp.x0.coeffs())])
    ls = LcsStructure(g, omega2, lee)
    back = lcs_to_jacobi(ls)
    if back.r != jp.r or back.x0 != jp.x0:
        raise ValueError("l.c.s. reconstruction failed to invert the pair")
    return ls


def lcs_from_contact_times_line(jp: JacobiPair, name: str | None = None) -> JacobiPair:
    """Extend a full-rank contact pair on h to an l.c.s. pair on h x R.

    The product algebra gets r = r_h + e_new ^ X0 with the same X0; the
    result has full even rank.
    """
    h = jp.algebra
    n = h.dim
    if n % 2 == 0 or rank(jp) != n:
        raise ValueError("input pair must have full odd rank")
    g = direct_product(h, abelian(1), name=name or f"{h.name}xR")
    r_ext = Multivector.from_terms(n + 1, 2, dict(jp.r.terms))
    x0_ext = Multivector.from_terms(n + 1, 1, dict(jp.x0.terms))
    line = Multivector.basis(n + 1, n)
    ext = JacobiPair(g, r_ext + wedge(line, x0_ext), x0_ext)
    report = check_jacobi(ext)
    if not report.passed:
        raise ValueError("product construction produced an invalid pair:\n" + report.describe())
    return ext
