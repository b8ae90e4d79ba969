"""Algebraic Jacobi pairs, their rank theory, and the contact/l.c.s. dictionaries.

A Jacobi pair on a Lie algebra g is a 2-vector r and a vector X0 with
  [r, r] = 2 X0 ^ r   and   [X0, r] = 0.
Rank counts the characteristic subspace im(#_r) + <X0>, which is always a
subalgebra; odd rank restricts to a contact form, even rank to a locally
conformal symplectic (l.c.s.) pair.  The conversions here are exact inverses
of each other and every constructor re-verifies the defining identities; a
conversion failing on a pair that is not a Jacobi pair reports its residuals.

check_jacobi and the conversions work on integer forms (see exterior):
`_jacobi_residuals`, which bialgebra's Yang-Baxter check reads too, sums
[r,r] - 2 X0^r and [X0,r] in int from the structure-constant table.  A
2-tensor is read as liealg's one matrix of it, the sparse integer rows of
`_antisymmetric`: the characteristic subspace is reduced from the rows of r
and X0 by `_echelon`, the l.c.s. rank test counts the pivots of omega2's,
contact_to_jacobi adds eta (x) eta to those of d eta and inverts the flat
map with linalg's integer inverse, `_inverse_tensor` reads r or omega2
back from the integer inverse of the other's matrix for the l.c.s. maps,
and jacobi_to_contact solves integer rows of #_r and X0.  The inverses are
applied by liealg's `_push`.  No Fraction matrix is built except by the
public sharp map, the Fraction view `_contraction` of that matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from liejacobi.exterior import (Form, Multivector, _check_argument, contract, pair, wedge,
                                wedge_power)
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    _Report,
    _antisymmetric,
    _contraction,
    _push,
    _rank,
    _require,
    _restrict_pair,
)
from liejacobi.linalg import _echelon, _inverse, solve_rows
from liejacobi.schouten import ce_differential


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
class JacobiReport(_Report):
    pair: JacobiPair
    self_residual: Multivector     # [r,r] - 2 X0^r
    vector_residual: Multivector   # [X0,r]

    _rows = (("self_residual", "self_residual", "  [r,r] - 2*x0^r = {}"),
             ("vector_residual", "vector_residual", "  [x0,r] = {}"))
    _verdict = ("jacobi pair: both defining identities hold", "jacobi pair fails:")
    _show_zero = True       # a failure lists both residuals, a zero one too


def check_jacobi(jp: JacobiPair) -> JacobiReport:
    """Evaluate both defining identities and report the exact residuals."""
    return JacobiReport(jp, *_jacobi_residuals(jp.algebra, jp.r, jp.x0))


def _jacobi_residuals(g: LieAlgebra, r: Multivector, x0: Multivector) -> tuple:
    """([r,r] - 2 X0^r, [X0,r]), summed in int from the table of g.

    With R the antisymmetric matrix of r and C_m[i][k] = N_ik^m, the matrices
    T_m = R^T C_m R give [r,r]^abc = -2 (T_a[b][c] + T_b[c][a] + T_c[a][b]),
    and X0^r is x^a R[b][c] + x^b R[c][a] + x^c R[a][b] at abc.  [X0,r] is
    ad X0 acting on r, A R + R A^T for A[m][i] = sum_k x^k N_ki^m, whose
    entry [a][b] with a < b is P[a][b] - P[b][a] for P = A R.  A zero
    residual has the grade that the Schouten bracket and the wedge give
    it: that of X0^r for the first, of [X0,r] for the second.
    """
    n = g.dim
    den, table = g._ad
    rows = _antisymmetric(r)
    dr = r._ints()[1]
    xs, dx = x0._ints()
    x = {i: v for (i,), v in xs.items()}
    # u[m, i] is row i of C_m R and t[m, b, c] = T_m[b][c], over den dr^2
    u: dict[tuple, dict[int, int]] = {}
    for i, row in enumerate(table):
        if rows[i]:
            for k, bracket in row.items():
                for m, c in bracket.items():
                    um = u.setdefault((m, i), {})
                    for col, v in rows[k].items():
                        um[col] = um.get(col, 0) + c * v
    # T_m is antisymmetric, and only its entries [b][c] with b < c and
    # m, b, c distinct are read
    t: dict[tuple, int] = {}
    for (m, i), um in u.items():
        for b, v in rows[i].items():
            if b != m:
                for c, w in um.items():
                    if b < c and c != m:
                        t[m, b, c] = t.get((m, b, c), 0) + v * w
    self_acc = {}
    for a, b, c in combinations(range(n), 3):
        rr = t.get((a, b, c), 0) - t.get((b, a, c), 0) + t.get((c, a, b), 0)
        wedged = (x.get(a, 0) * rows[b].get(c, 0) + x.get(b, 0) * rows[c].get(a, 0)
                  + x.get(c, 0) * rows[a].get(b, 0))
        self_acc[a, b, c] = -2 * (rr * dx + wedged * dr * den)
    # P = A R, over den dx dr
    p: dict[tuple, int] = {}
    for k, xk in x.items():
        for i, bracket in table[k].items():
            for m, c in bracket.items():
                f = xk * c
                for j, v in rows[i].items():
                    p[m, j] = p.get((m, j), 0) + f * v
    vec_acc: dict[tuple, int] = {}
    for (m, j), v in p.items():
        if m != j:
            key, v = ((m, j), v) if m < j else ((j, m), -v)
            vec_acc[key] = vec_acc.get(key, 0) + v
    grade = 3 if any(self_acc.values()) else min(x0.grade + r.grade, n)
    return (Multivector._from_ints(n, grade, self_acc, dr * dr * den * dx),
            Multivector._from_ints(n, min(max(x0.grade + r.grade - 1, 0), n), vec_acc,
                                   den * dx * dr))


def sharp(obj: JacobiPair | Multivector) -> LinearMap:
    """Matrix of #_r : g* -> g, fixed by beta(#_r(alpha)) = r(alpha, beta)."""
    r = obj.r if isinstance(obj, JacobiPair) else obj
    if not isinstance(r, Multivector):
        raise TypeError("sharp expects a jacobi pair or a 2-vector")
    if not r.is_zero() and r.grade != 2:
        raise ValueError("sharp is defined for 2-vectors")
    return _contraction(r)


def _inverse_tensor(p: Multivector | Form, kind: type) -> tuple:
    """(q, L): L = (den, rows) is the integer form of the inverse of the
    matrix R of p (`_antisymmetric` over p's denominator), and q is the
    2-tensor of the given kind whose matrix is L^T = -L, read as
    q^ij = L[j][i]; a singular R raises ValueError."""
    inverse = _inverse(_antisymmetric(p), p.dim, [p._ints()[1]] * p.dim)
    den, rows = inverse
    terms = {(i, j): rows[j][i] for i, j in combinations(range(p.dim), 2)}
    return kind._from_ints(p.dim, 2, terms, den), inverse


def _span_with_x0(jp: JacobiPair) -> Subspace:
    # row a of the matrix of r is #_r e^a, so the rows span im(#_r)
    n = jp.algebra.dim
    rows = _antisymmetric(jp.r) + [{i: v for (i,), v in jp.x0._ints()[0].items()}]
    return Subspace._from_echelon(n, _echelon(rows, n))


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
    _require(check_jacobi(jp), "not a jacobi pair")
    return _characteristic_checked(jp)


def _characteristic_checked(jp: JacobiPair) -> CharacteristicSubalgebra:
    # characteristic_subalgebra after check_jacobi(jp) has passed
    g = jp.algebra
    sub = _span_with_x0(jp)
    inclusion, restricted, r_h, x0_h = _restrict_pair(g, sub, f"{g.name}.char", jp.r, jp.x0)
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
        if _rank(self.omega2) < n:
            raise ValueError("omega2 is degenerate: omega2^k = 0")
        if not ce_differential(self.algebra, self.lee).is_zero():
            raise ValueError("lee form is not a 1-cocycle")
        residual = ce_differential(self.algebra, self.omega2) - wedge(self.lee, self.omega2)
        if not residual.is_zero():
            raise ValueError("d(omega2) != lee ^ omega2")


def contact_to_jacobi(cs: ContactStructure) -> JacobiPair:
    """Reeb vector and 2-vector of a contact form: X0 = b^{-1}(eta), r = d eta pulled back."""
    g, eta = cs.algebra, cs.eta
    n = g.dim
    d_eta = ce_differential(g, eta)
    # b_eta(X) = i(X)(d eta) + eta(X) eta: the contraction of d eta plus
    # eta (x) eta, in integers over dd de^2
    nums, de = eta._ints()
    dd = d_eta._ints()[1]
    e = [nums.get((i,), 0) for i in range(n)]
    rows = []
    for a, row in zip(e, _antisymmetric(d_eta)):
        entries = {j: a * dd * b - row.get(j, 0) * de * de for j, b in enumerate(e)}
        rows.append({j: c for j, c in entries.items() if c})
    binv = _inverse(rows, n, [dd * de * de] * n)
    x0 = _push(binv, eta, Multivector)
    if not contract(x0, d_eta).is_zero() or pair(eta, x0) != 1:
        raise ValueError("flat map inversion did not produce the Reeb vector")
    # r(e^i, e^j) = d eta(b^{-1} e^i, b^{-1} e^j): d eta pushed by the
    # transpose of b^{-1}
    jp = JacobiPair(g, _push((binv[0], list(zip(*binv[1]))), d_eta, Multivector), x0)
    _require(check_jacobi(jp), "contact data produced an invalid pair")
    return jp


def jacobi_to_contact(jp: JacobiPair) -> ContactStructure:
    """Inverse of contact_to_jacobi for pairs of full odd rank.

    eta is the unique 1-form vanishing on im(#_r) with eta(X0) = 1.
    """
    g = jp.algebra
    n = g.dim
    # integer rows of [a | b], the right-hand side in column n: eta vanishes
    # on the rows of the antisymmetric matrix of r, which span im(#_r), and
    # takes 1 at X0
    rows = _antisymmetric(jp.r)
    nums, dx = jp.x0._ints()
    rows.append({**{i: v for (i,), v in nums.items()}, n: dx})
    # for odd n, #_r has rank at most n - 1, so eta exists and is unique
    # exactly when im(#_r) + <X0> is everything: one elimination decides both
    sol = solve_rows(rows, n) if n % 2 else None
    if sol is None or sol[1]:
        raise ValueError("jacobi pair does not have full odd rank")
    try:
        cs = ContactStructure(g, Form.from_coeffs(sol[0]))
        back = contact_to_jacobi(cs)
        if back.r != jp.r or back.x0 != jp.x0:
            raise ValueError("contact reconstruction failed to invert the pair")
    except ValueError:
        _require(check_jacobi(jp), "not a jacobi pair")
        raise
    return cs


def lcs_to_jacobi(ls: LcsStructure) -> JacobiPair:
    """X0 = b^{-1}(lee) and r with #_r = -b^{-1} for the 2-form's flat map b."""
    g = ls.algebra
    # b^{-1} = -L for the inverse L of the antisymmetric matrix of omega2
    r, inverse = _inverse_tensor(ls.omega2, Multivector)
    jp = JacobiPair(g, r, -_push(inverse, ls.lee, Multivector))
    _require(check_jacobi(jp), "l.c.s. data produced an invalid pair")
    return jp


def jacobi_to_lcs(jp: JacobiPair) -> LcsStructure:
    """Inverse of lcs_to_jacobi for pairs of full even rank: b = -#_r^{-1}."""
    g = jp.algebra
    # #_r has even rank, so the pair has full even rank exactly when #_r is
    # invertible; for odd n it never is
    try:
        omega2, inverse = _inverse_tensor(jp.r, Form)
    except ValueError:
        raise ValueError("jacobi pair does not have full even rank") from None
    # lee = -#_r^{-1} X0 = L X0 for the inverse L of the antisymmetric matrix of r
    try:
        ls = LcsStructure(g, omega2, _push(inverse, jp.x0, Form))
        back = lcs_to_jacobi(ls)
        if back.r != jp.r or back.x0 != jp.x0:
            raise ValueError("l.c.s. reconstruction failed to invert the pair")
    except ValueError:
        _require(check_jacobi(jp), "not a jacobi pair")
        raise
    return ls
