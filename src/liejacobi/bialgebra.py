"""Generalized Lie bialgebras: verification, constructors, and classification.

A generalized Lie bialgebra pairs a Lie algebra g carrying a 1-cocycle phi0
with a Lie algebra structure on g* carrying a 1-cocycle X0 in g, subject to
three compatibility conditions (check_glb).  The constructors here either
assemble the dual bracket from Yang-Baxter-type data, transplant a cocycle
onto an abelian base, or instantiate the three compact kinds; the
classification walks the opposite direction and certifies which kind a
compact example belongs to.  The Yang-Baxter check reads [r,r] - 2 x0^r and
[x0,r] from jacobi's `_jacobi_residuals`, as check_jacobi does.  The
compatibility sums of check_glb are kept per bialgebra object as integers
and made into elements afresh on each call, so a check of an object that
a builder has checked sums nothing again; the builders return the object
they checked.  Classification, extraction and the kind builders read the
center of g one way, from its cached integer rows `g._center`, and decide
compactness from `g._compactness`: y0 is `_unit_dual` of phi0 on those
rows, y0 is central when `liealg._in_rows` eliminates it to zero by them,
unit_center_vector sums phi0 on them in int, and the semidirect theta0 is
the 1-cocycle with prescribed values on them.  On success none of these
builds a compactness report, a center Subspace or the invariant product.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product
from math import isqrt, lcm

from liejacobi.exterior import Form, Multivector, _check_argument, contract, pair, wedge
from liejacobi.jacobi import (
    _characteristic_checked,
    _jacobi_residuals,
    CharacteristicSubalgebra,
    JacobiPair,
    check_jacobi,
)
from liejacobi.liealg import (
    LieAlgebra,
    LinearMap,
    Subspace,
    ValidationReport,
    _antisymmetric,
    _bracket_rows,
    _embed,
    _frame,
    _in_rows,
    _in_span,
    _pivot_frame,
    _push,
    _rank,
    _restrict,
    abelian,
    coordinates,
    direct_product,
    dual_label,
    is_compact,
    is_derivation,
    killing_form,
    semidirect_by_derivation,
    standard_labels,
)
from liejacobi.linalg import ZERO, _null_rows, _reduced, _sparse, nullspace, solve_rows
from liejacobi.schouten import (
    check_cocycle,
    ce_differential,
    schouten,
    twisted_ad,
    twisted_differential,
)


@dataclass(frozen=True)
class GeneralizedBialgebra:
    """Quadruple ((g, phi0), (g*, x0)); check_glb decides validity.

    The integer sums of check_glb are kept in the private cache `_compat`,
    built on first use; dataclasses.replace and pickling build a new
    quadruple with its own.  Like the caches of LieAlgebra, it holds only
    integers and makes no public call.
    """

    g: LieAlgebra
    g_star: LieAlgebra
    phi0: Form
    x0: Multivector

    def __post_init__(self):
        if self.g.dim != self.g_star.dim:
            raise ValueError("g and g* must have the same dimension")
        _check_argument("phi0", self.phi0, Form, self.g.dim, 1)
        _check_argument("x0", self.x0, Multivector, self.g.dim, 1)

    def __reduce__(self):
        # pickle the four fields only, so that a copy starts with no cache
        return (GeneralizedBialgebra, (self.g, self.g_star, self.phi0, self.x0))

    @cached_property
    def _compat(self) -> tuple[tuple, tuple, tuple]:
        """(d_basis, bracket, contraction): the integer forms (acc, scale) of
        d_{*X0}(e_i) from _d_basis, and the nonzero residuals of
        _bracket_compat as ((i, j), acc, scale) and of _contraction_compat
        as (i, acc, scale)."""
        # integers only, read from private forms and tables, for the reason
        # given in LieAlgebra._ad; _check_glb makes the elements afresh
        phi, dphi = self.phi0._ints()
        phi = [phi.get((i,), 0) for i in range(self.g.dim)]     # phi0(e_i) = phi[i] / dphi
        d_basis = _d_basis(self)
        return (d_basis, _bracket_compat(self.g, phi, dphi, d_basis),
                _contraction_compat(self, phi, dphi))


def _nested(intro: str, report) -> str:
    """intro, then report.describe() two spaces deeper than intro on every
    line: the one layout of a report inside another report's entries."""
    indent = "\n" + " " * (len(intro) - len(intro.lstrip(" ")) + 2)
    return intro + indent + report.describe().replace("\n", indent)


@dataclass(frozen=True)
class GlbReport:
    bialgebra: GeneralizedBialgebra
    primal: ValidationReport
    dual: ValidationReport
    phi0_cocycle: Form              # d phi0 over g
    x0_cocycle: Multivector         # d_* x0 over g*
    bracket_compat: tuple           # ((i, j), residual 2-vector) entries, nonzero only
    pairing: Fraction               # phi0(x0)
    contraction_compat: tuple       # (i, residual vector) entries, nonzero only

    @property
    def passed(self) -> bool:
        return (self.primal.passed and self.dual.passed
                and self.phi0_cocycle.is_zero() and self.x0_cocycle.is_zero()
                and not self.bracket_compat and self.pairing == 0
                and not self.contraction_compat)

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return "generalized bialgebra: all conditions hold"
        g = self.bialgebra.g
        labels, duals = g.basis_labels, self.bialgebra.g_star.basis_labels
        lines = ["generalized bialgebra fails:"]
        if not self.primal.passed:
            lines.append(_nested("  base algebra:", self.primal))
        if not self.dual.passed:
            lines.append(_nested("  dual algebra:", self.dual))
        if not self.phi0_cocycle.is_zero():
            lines.append(f"  d(phi0) = {self.phi0_cocycle.render(duals)}")
        if not self.x0_cocycle.is_zero():
            lines.append(f"  d_*(x0) = {self.x0_cocycle.render(labels)}")
        for (i, j), res in self.bracket_compat:
            lines.append(f"  bracket compatibility at ({labels[i]}, {labels[j]}): "
                         f"{res.render(labels)}")
        if self.pairing != 0:
            lines.append(f"  phi0(x0) = {self.pairing}")
        for i, res in self.contraction_compat:
            lines.append(f"  contraction identity at {labels[i]}: {res.render(labels)}")
        return "\n".join(lines)


def check_glb(b: GeneralizedBialgebra) -> GlbReport:
    """Verify both cocycle conditions and the three compatibility identities."""
    return _check_glb(b)[0]


def _check_glb(b: GeneralizedBialgebra) -> tuple[GlbReport, list[Multivector]]:
    # check_glb, also handing over d_basis[i] = d_{*X0}(e_i).  The integer
    # sums are kept in b._compat and made elements afresh on every call; an
    # element is built only for a nonzero residual.
    g, gs, n = b.g, b.g_star, b.g.dim
    d_forms, bracket, contraction = b._compat
    d_basis = [Multivector._from_ints(n, min(2, n), acc, scale) for acc, scale in d_forms]
    return GlbReport(b, g.validate(), gs.validate(), ce_differential(g, b.phi0),
                     ce_differential(gs, b.x0),
                     tuple((ij, Multivector._from_ints(n, 2, acc, scale))
                           for ij, acc, scale in bracket),
                     pair(b.phi0, b.x0),
                     tuple((i, Multivector._from_ints(n, 1, acc, scale))
                           for i, acc, scale in contraction)), d_basis


def _d_basis(b: GeneralizedBialgebra) -> tuple[tuple[dict, int], ...]:
    """The integer forms (acc, scale) of d_{*X0}(e_i) = d_*(e_i) + X0^e_i,
    d_{*X0}(e_i) = sum acc[a, c] e_a^e_c / scale, where
    d_*(e_i) = -sum_{a<b} c*_ab^i e_a^e_b is column i of the table of g*."""
    dens = b.g_star._ad[0]
    xs, dx = b.x0._ints()
    out = []
    for i, column in enumerate(b.g_star._columns):
        acc = {(a, c): -dx * v for a, c, v in column}
        for (l,), v in xs.items():
            if l != i:
                key, v = ((l, i), v) if l < i else ((i, l), -v)
                acc[key] = acc.get(key, 0) + dens * v
        out.append((acc, dens * dx))
    return tuple(out)


def _twisted_ad(g: LieAlgebra, phi: list[int], dphi: int, s: int, terms: dict,
                acc: dict, sign: int = 1) -> dict:
    """Add sign times e_s.P to acc and return acc, for the action
    X.P = [X, P] - phi0(X) P of g on 2-vectors, phi0(e_s) = phi[s] / dphi,
    and P = sum terms[a, c] e_a^e_c (a < c) over an integer form: with
      e_s.(e_a^e_c) = [e_s, e_a]^e_c + e_a^[e_s, e_c] - phi0(e_s) e_a^e_c,
    acc[p, q] gains the integers N with e_s.P = sum N e_p^e_q over den * dphi
    times the denominator of the terms.  Only the support of P is read."""
    den, table = g._ad
    row = table[s]
    twist = -den * phi[s] * sign
    for (a, c), v in terms.items():
        if twist:
            acc[a, c] = acc.get((a, c), 0) + twist * v
        v *= sign * dphi
        for m, x in row.get(a, {}).items():     # [e_s, e_a]^e_c
            if m != c:
                key, x = ((m, c), x) if m < c else ((c, m), -x)
                acc[key] = acc.get(key, 0) + v * x
        for m, x in row.get(c, {}).items():     # e_a^[e_s, e_c]
            if m != a:
                key, x = ((a, m), x) if a < m else ((m, a), -x)
                acc[key] = acc.get(key, 0) + v * x
    return acc


def _bracket_compat(g: LieAlgebra, phi: list[int], dphi: int, d_basis) -> tuple:
    """((i, j), acc, scale) entries, nonzero only, of the residuals
      d_{*X0}[e_i, e_j] - e_i.d_basis[j] + e_j.d_basis[i] = acc / scale,
    d_basis the integer forms of _d_basis, with the action of _twisted_ad
    applied to the terms of d_basis only and d_{*X0} linear:
    d_{*X0}[e_i, e_j] = sum_k c_ij^k d_basis[k].  twisted_schouten refuses
    a phi0 that is not a 1-cocycle; this states that failure as a residual.
    Summed as integers over den * L * dphi, L the lcm of the d_basis
    scales."""
    den, table = g._ad
    scale = lcm(1, *(dd for _, dd in d_basis))
    d = [{idx: v * (scale // dd) for idx, v in nums.items()} for nums, dd in d_basis]
    entries = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            acc: dict[tuple[int, int], int] = {}
            for k, c in table[i].get(j, {}).items():
                c *= dphi
                for idx, v in d[k].items():
                    acc[idx] = acc.get(idx, 0) + c * v
            for s, t, sign in ((i, j, -1), (j, i, 1)):
                if table[s] or phi[s]:      # else e_s acts by zero
                    _twisted_ad(g, phi, dphi, s, d[t], acc, sign)
            if any(acc.values()):
                entries.append(((i, j), acc, den * scale * dphi))
    return tuple(entries)


def _contraction_compat(b: GeneralizedBialgebra, phi: list[int], dphi: int) -> tuple:
    """(i, acc, scale) entries, nonzero only, of the residuals
    i(phi0) d_*(e_i) + [X0, e_i] = sum acc[(m,)] e_m / scale, where
    i(phi0)(e_a^e_b) = phi0(e_a) e_b - phi0(e_b) e_a.  Summed as integers
    over den * den* * dphi * dx from the two tables."""
    den, table = b.g._ad
    dens = b.g_star._ad[0]
    xs, dx = b.x0._ints()
    entries = []
    for i, column in enumerate(b.g_star._columns):
        acc: dict[int, int] = {}
        for a, c, v in column:
            v *= den * dx
            acc[c] = acc.get(c, 0) - v * phi[a]
            acc[a] = acc.get(a, 0) + v * phi[c]
        for (l,), v in xs.items():
            v *= dens * dphi
            for m, x in table[l].get(i, {}).items():
                acc[m] = acc.get(m, 0) + v * x
        if any(acc.values()):
            entries.append((i, {(m,): v for m, v in acc.items()}, den * dens * dphi * dx))
    return tuple(entries)


@dataclass(frozen=True)
class YbData:
    """Inputs for the Yang-Baxter-type construction of the dual bracket."""

    g: LieAlgebra
    phi0: Form
    r: Multivector
    x0: Multivector

    def __post_init__(self):
        _check_route_args(self.g, self.phi0, self.r, self.x0)


@dataclass(frozen=True)
class YbReport:
    data: YbData
    cubic: Multivector              # [r,r] - 2 x0^r (not required to vanish)
    cubic_invariance: tuple         # (i, residual 3-vector), nonzero only
    x0_commutes: Multivector        # [x0, r]
    vector: Multivector             # i(phi0) r - x0 (not required to vanish)
    vector_invariance: tuple        # (i, residual vector), nonzero only

    @property
    def passed(self) -> bool:
        return (not self.cubic_invariance and self.x0_commutes.is_zero()
                and not self.vector_invariance)

    def __bool__(self) -> bool:
        return self.passed

    def describe(self) -> str:
        if self.passed:
            return "yang-baxter hypotheses hold"
        labels = self.data.g.basis_labels
        lines = ["yang-baxter hypotheses fail:"]
        for i, res in self.cubic_invariance:
            lines.append(f"  [r,r]-2*x0^r not invariant at {labels[i]}: {res.render(labels)}")
        if not self.x0_commutes.is_zero():
            lines.append(f"  [x0,r] = {self.x0_commutes.render(labels)}")
        for i, res in self.vector_invariance:
            lines.append(f"  i(phi0)r - x0 not invariant at {labels[i]}: {res.render(labels)}")
        return "\n".join(lines)


def check_yb_hypotheses(y: YbData) -> YbReport:
    """The three hypotheses: cubic term invariant for weight 1, [x0,r] = 0,
    and i(phi0)r - x0 invariant for weight 0.

    phi0 must be a 1-cocycle; that is a precondition of the construction,
    not one of the reported checks, so a violation raises.
    """
    g = y.g
    check_cocycle(g, y.phi0)
    cubic, x0_commutes = _jacobi_residuals(g, y.r, y.x0)
    vector = contract(y.phi0, y.r) - y.x0
    cubic_entries = []
    vector_entries = []
    for i in range(g.dim):
        x = g.basis_vector(i)
        res3 = twisted_ad(g, y.phi0, 1, x, cubic)
        if not res3.is_zero():
            cubic_entries.append((i, res3))
        res1 = twisted_ad(g, y.phi0, 0, x, vector)
        if not res1.is_zero():
            vector_entries.append((i, res1))
    return YbReport(y, cubic, tuple(cubic_entries), x0_commutes, vector, tuple(vector_entries))


def _check_route_args(g: LieAlgebra, phi0: Form, r: Multivector, x0: Multivector) -> None:
    # the dual-bracket routes take their arguments apart by index, so a wrong
    # dimension or grade must be refused before it can be misread
    _check_argument("phi0", phi0, Form, g.dim, 1)
    _check_argument("r", r, Multivector, g.dim, 2)
    _check_argument("x0", x0, Multivector, g.dim, 1)


def dual_bracket_adjoint_route(g: LieAlgebra, phi0: Form, r: Multivector,
                               x0: Multivector) -> dict:
    """Dual structure constants via coadjoint operators:
    [a,b]* = coad_{#r b} a - coad_{#r a} b + r(a,b) phi0 + i(x0)(a^b),
    with coad_x alpha = -alpha([x, .]) = i(x) d alpha.

    Summed as integers from the table's columns: d e^i = -sum_{a<b} c_ab^i
    e^a^e^b, i(s)(e^a^e^b) = s_a e^b - s_b e^a and (#_r e^j)_m = r(e^j, e^m),
    read from the rows of the matrix of r over its denominator dr, all over
    den * dr * dphi * dx."""
    _check_route_args(g, phi0, r, x0)
    n = g.dim
    den = g._ad[0]
    columns = g._columns
    dr = r._ints()[1]
    rr = _antisymmetric(r)    # rr[a] = #_r e^a over dr
    phis, dphi = phi0._ints()
    xs, dx = x0._ints()
    x = [xs.get((m,), 0) for m in range(n)]
    f_coad, f_phi, f_x = dphi * dx, den * dx, den * dr * dphi
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            acc = [0] * n
            # coad_{#r e^j} e^i - coad_{#r e^i} e^j, coad_s e^k = i(s) d e^k
            for k, s, sign in ((i, rr[j], f_coad), (j, rr[i], -f_coad)):
                for a, b, c in columns[k]:
                    c *= sign
                    acc[b] -= c * s.get(a, 0)
                    acc[a] += c * s.get(b, 0)
            r_ij = rr[i].get(j, 0) * f_phi
            if r_ij:
                for (m,), v in phis.items():
                    acc[m] += r_ij * v
            acc[j] += x[i] * f_x
            acc[i] -= x[j] * f_x
            if any(acc):
                structure[(i, j)] = Multivector._from_ints(
                    n, 1, {(m,): v for m, v in enumerate(acc)}, den * dr * dphi * dx)
    return structure


def dual_bracket_pointwise_route(g: LieAlgebra, phi0: Form, r: Multivector,
                                 x0: Multivector) -> dict:
    """Dual structure constants by evaluation on basis vectors:
    [a,b]*(X) = -[X,r](a,b) + r(a,b) phi0(X) + a(x0) b(X) - b(x0) a(X),
    with [e_k, r] computed once per k, over the nonzero terms only."""
    _check_route_args(g, phi0, r, x0)
    n = g.dim
    brackets = [schouten(g, g.basis_vector(k), r).terms for k in range(n)]
    x = x0.terms
    structure = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [-b[(i, j)] if (i, j) in b else ZERO for b in brackets]
            r_ij = r.terms.get((i, j))
            if r_ij:
                for (k,), v in phi0.terms.items():
                    coeffs[k] += r_ij * v
            if (i,) in x:
                coeffs[j] += x[(i,)]
            if (j,) in x:
                coeffs[i] -= x[(j,)]
            value = Multivector.from_coeffs(coeffs)
            if not value.is_zero():
                structure[(i, j)] = value
    return structure


def build_dual_bracket(y: YbData) -> LieAlgebra:
    """Assemble the dual Lie algebra from Yang-Baxter data.

    Requires the hypotheses to pass; the result is cross-checked against the
    pointwise evaluation route, and the assembled quadruple must pass
    check_glb, which also checks the Jacobi identity of the dual bracket.
    """
    report = check_yb_hypotheses(y)
    if not report.passed:
        raise ValueError(report.describe())
    return _assemble_dual(y).g_star


def _assemble_dual(y: YbData) -> GeneralizedBialgebra:
    """The quadruple of build_dual_bracket once the hypotheses are known to
    hold: both routes, their comparison and check_glb, which fills the
    quadruple's cache."""
    g = y.g
    structure = dual_bracket_adjoint_route(g, y.phi0, y.r, y.x0)
    other = dual_bracket_pointwise_route(g, y.phi0, y.r, y.x0)
    if structure != other:
        raise ValueError("dual bracket routes disagree; construction is inconsistent")
    b = GeneralizedBialgebra(g, LieAlgebra(f"{g.name}*", g.dim, g.dual_labels, structure),
                             y.phi0, y.x0)
    glb_report = check_glb(b)
    if not glb_report.passed:
        raise ValueError("assembled pair is not a generalized bialgebra:\n"
                         + glb_report.describe())
    return b


@dataclass(frozen=True)
class SharpCertificate:
    """Certificate that -#_r intertwines the dual and primal brackets."""

    homomorphism: bool
    isomorphism: bool


@dataclass(frozen=True)
class JacobiBuildResult:
    bialgebra: GeneralizedBialgebra
    certificate: SharpCertificate


def build_from_jacobi(y: YbData) -> JacobiBuildResult:
    """Dual bracket from a Jacobi pair with i(phi0) r = x0.

    Beyond the generalized-bialgebra conditions this certifies that -#_r is
    a Lie algebra homomorphism g* -> g, an isomorphism when the pair has
    full even rank.
    """
    g = y.g
    failures = []
    jp = JacobiPair(g, y.r, y.x0)
    jacobi_report = check_jacobi(jp)
    if not jacobi_report.passed:
        failures.append(_nested("  (r, x0) is not a jacobi pair:", jacobi_report))
    vector = contract(y.phi0, y.r) - y.x0
    if not vector.is_zero():
        failures.append(f"  i(phi0) r - x0 = {vector.render(g.basis_labels)}")
    if not ce_differential(g, y.phi0).is_zero():
        failures.append("  phi0 is not a 1-cocycle")
    if failures:
        raise ValueError("\n".join(["jacobi construction preconditions fail:", *failures]))
    # these preconditions make the three Yang-Baxter hypotheses hold
    bialgebra = _assemble_dual(y)
    _check_sharp_homomorphism(g, bialgebra.g_star, y.r)
    # #_r has even rank, so an even-dimensional pair has full rank exactly
    # when #_r does
    full_even = g.dim % 2 == 0 and _rank(y.r) == g.dim
    return JacobiBuildResult(bialgebra, SharpCertificate(True, full_even))


def _check_sharp_homomorphism(g: LieAlgebra, dual: LieAlgebra, r: Multivector) -> None:
    """Raise unless #_r [e^i, e^j]* = -[#_r e^i, #_r e^j] for all i < j.
    With #_r e^a = sum_m R[a][m] e_m / dr, R the matrix of r over its
    denominator dr, both sides are summed as integers over den* * den * dr^2
    from the two tables."""
    dr = r._ints()[1]
    rr = _antisymmetric(r)
    dens, dual_table = dual._ad
    den, table = g._ad
    n = g.dim
    for i in range(n):
        for j in range(i + 1, n):
            acc = [0] * n
            for k, c in dual_table[i].get(j, {}).items():
                c *= den * dr
                for m, v in rr[k].items():
                    acc[m] += c * v
            for a, u in rr[i].items():
                for b, terms in table[a].items():
                    uv = dens * u * rr[j].get(b, 0)
                    if uv:
                        for m, c in terms.items():
                            acc[m] += uv * c
            if any(acc):
                raise ValueError("sharp map is not a homomorphism; construction is inconsistent")


@dataclass(frozen=True)
class CoboundarySolutions:
    """Affine set of 2-vectors r solving d_{*X0} = ad_{(phi0,1)}(.)(r)."""

    particular: Multivector | None
    homogeneous: tuple

    @property
    def is_empty(self) -> bool:
        return self.particular is None


def solve_coboundary(b: GeneralizedBialgebra) -> CoboundarySolutions:
    """Decide whether the twisted dual differential is exact.

    Solves the linear system d_{*X0}(e_i) = [e_i, r] - phi0(e_i) r over the
    coefficients of r; the full affine solution set is returned because the
    generator is never unique.
    """
    report, d_basis = _check_glb(b)
    if not report.passed:
        raise ValueError("input is not a generalized bialgebra:\n" + report.describe())
    n = b.g.dim
    unknowns = list(combinations(range(n), 2))
    solution = solve_rows(_coboundary_system(b, d_basis)[0], len(unknowns))
    if solution is None:
        return CoboundarySolutions(None, tuple())
    particular, homogeneous = solution
    def to_bivector(coeffs):    # grade min(2, n), as in _d_basis: r = 0 when n < 2
        return Multivector.from_terms(n, min(2, n), {unknowns[k]: coeffs[k]
                                             for k in range(len(unknowns)) if coeffs[k] != 0})
    return CoboundarySolutions(to_bivector(particular),
                               tuple(to_bivector(h) for h in homogeneous))


def _coboundary_system(b: GeneralizedBialgebra,
                       d_basis: list[Multivector]) -> tuple[list[dict[int, int]], list[int]]:
    """(rows, scales) of e_i.r = d_basis[i] over the coefficients of r, with
    the action of _twisted_ad applied to each basis 2-vector: one sparse
    integer row {column: int} per i and target e_p^e_q, one column per
    e_a^e_c, both in combinations order, and the right-hand side in column
    width, the number of pairs.  rows[k] over scales[k] is the equation: the
    action over den * dphi and d_basis[i] over its denominator dd_i give row
    (i, pq) = {col(ac): x * dd_i, width: num_pq * den * dphi} over
    den * dphi * dd_i."""
    g = b.g
    pairs = list(combinations(range(g.dim), 2))
    position = {t: k for k, t in enumerate(pairs)}
    width = len(pairs)
    phi, dphi = b.phi0._ints()
    phi = [phi.get((i,), 0) for i in range(g.dim)]
    scale = g._ad[0] * dphi
    rows: list[dict[int, int]] = []
    scales: list[int] = []
    for i, d in enumerate(d_basis):
        nums, dd = d._ints()
        block_rows: list[dict[int, int]] = [{} for _ in pairs]
        if g._ad[1][i] or phi[i]:       # else e_i acts by zero
            for col, ac in enumerate(pairs):
                for pq, x in _twisted_ad(g, phi, dphi, i, {ac: 1}, {}).items():
                    if x:
                        block_rows[position[pq]][col] = x * dd
        for pq, v in nums.items():
            block_rows[position[pq]][width] = v * scale
        rows += block_rows
        scales += [scale * dd] * width
    return rows, scales


def glb_from_cocycle(g: LieAlgebra, phi: Form) -> GeneralizedBialgebra:
    """Transplant g's bracket to the dual side of an abelian base.

    The base algebra is abelian of the same dimension, the dual carries g's
    structure constants, phi0 = 0 and x0 = phi; phi must be a 1-cocycle of g
    for the dual cocycle condition to hold.
    """
    n = g.dim
    _check_argument("phi", phi, Form, n, 1)
    check_cocycle(g, phi)
    base = abelian(n, name=f"{g.name}.base")
    dual = LieAlgebra(f"{g.name}.cocycle*", n, tuple(dual_label(l) for l in base.basis_labels),
                      g.structure)
    b = GeneralizedBialgebra(base, dual, Form.zero(n, 1),
                             Multivector.from_coeffs(phi.coeffs()))
    report = check_glb(b)
    if not report.passed:
        raise ValueError("cocycle construction failed:\n" + report.describe())
    return b


def _solve_cocycle_with_values(g: LieAlgebra, constraints: list) -> Form:
    """Deterministic 1-cocycle of g taking prescribed values on given vectors.

    `constraints` is a list of (vector coefficients, value) pairs; raises if
    the combined linear system has no solution.  The system is solved on
    integer rows: phi0 vanishes on the bracket rows of the table, and each
    constraint is one row with its value in column dim.
    """
    rows = _bracket_rows(g)
    for coeffs, value in constraints:
        support, nums, _ = _sparse([*coeffs, value])
        rows.append(dict(zip(support, nums)))
    sol = solve_rows(rows, g.dim)
    if sol is None:
        raise ValueError("no 1-cocycle satisfies the prescribed values")
    return Form.from_coeffs(sol[0])


def _require_compact(g: LieAlgebra) -> None:
    # decided by the cached g._compactness; is_compact's report only
    # describes a failure
    splits, definite, _ = g._compactness
    if not (splits and definite):
        raise ValueError(f"{g.name} is not of compact type: " + is_compact(g).describe())


def build_first_kind(g: LieAlgebra, h: Subspace, r: Multivector,
                     phi0: Form) -> GeneralizedBialgebra:
    """Compact kind with x0 = 0: abelian even-dimensional h, r nondegenerate
    on h, phi0 a nonzero 1-cocycle vanishing on h."""
    _require_compact(g)
    n = g.dim
    failures = []
    basis_vectors = h.elements()
    m = h.rank
    if m % 2:
        failures.append("h must be even-dimensional")
    for a in range(m):
        for b in range(a + 1, m):
            if not g.bracket(basis_vectors[a], basis_vectors[b]).is_zero():
                failures.append(f"h is not abelian (witness pair {a + 1}, {b + 1})")
                break
    if r.is_zero():
        if m:
            failures.append("r is degenerate on h")
    else:
        restricted = _in_span(_pivot_frame(*h._reduced, h.dim), r)    # r in the basis h.rows
        if restricted is None:
            failures.append("r does not lie in the second exterior power of h")
        else:
            # nondegeneracy on h: the matrix of the restricted r must be invertible
            if _rank(restricted) != m:
                failures.append("r is degenerate on h")
    if phi0.is_zero():
        failures.append("phi0 must be nonzero")
    if any(pair(phi0, v) != 0 for v in basis_vectors):
        failures.append("phi0 must vanish on h")
    if not ce_differential(g, phi0).is_zero():
        failures.append("phi0 is not a 1-cocycle")
    if failures:
        raise ValueError("first-kind hypotheses fail:\n  " + "\n  ".join(failures))
    return build_from_jacobi(YbData(g, phi0, r, g.zero_vector())).bialgebra


def build_second_kind(g: LieAlgebra, e1: Multivector, e2: Multivector,
                      lam, lam1, lam2) -> GeneralizedBialgebra:
    """Compact kind with r = lam e1^e2 and x0 = lam1 e1 + lam2 e2 for a
    commuting independent pair; phi0 is the cocycle forced by i(phi0) r = x0."""
    _require_compact(g)
    lam, lam1, lam2 = Fraction(lam), Fraction(lam1), Fraction(lam2)
    failures = []
    if lam == 0:
        failures.append("lam must be nonzero")
    if not g.bracket(e1, e2).is_zero():
        failures.append("e1 and e2 must commute")
    if Subspace.from_elements([e1, e2]).rank != 2:
        failures.append("e1 and e2 must be linearly independent")
    if failures:
        raise ValueError("second-kind hypotheses fail:\n  " + "\n  ".join(failures))
    r = wedge(e1, e2).scale(lam)
    x0 = e1.scale(lam1) + e2.scale(lam2)
    phi0 = _solve_cocycle_with_values(g, [(e1.coeffs(), lam2 / lam),
                                          (e2.coeffs(), -lam1 / lam)])
    return build_from_jacobi(YbData(g, phi0, r, x0)).bialgebra


def _check_su2_triple(g: LieAlgebra, e1: Multivector, e2: Multivector,
                      e3: Multivector) -> list:
    failures = []
    for (a, b, c, la, lb) in (((e1, e2, e3, "e1", "e2")),
                              ((e2, e3, e1, "e2", "e3")),
                              ((e3, e1, e2, "e3", "e1"))):
        if g.bracket(a, b) != c:
            failures.append(f"[{la}, {lb}] does not close the triple")
    return failures


def third_kind_pair(e1: Multivector, e2: Multivector, e3: Multivector,
                    e4: Multivector, lambdas) -> tuple[Multivector, Multivector]:
    """The (r, x0) family attached to a triple and a transverse vector:
    r = l1 (e2^e3 - e4^e1) - l2 (e1^e3 + e4^e2) + l3 (e1^e2 - e4^e3),
    x0 = -(l1 e1 + l2 e2 + l3 e3)."""
    l1, l2, l3 = (Fraction(v) for v in lambdas)
    r = ((wedge(e2, e3) - wedge(e4, e1)).scale(l1)
         - (wedge(e1, e3) + wedge(e4, e2)).scale(l2)
         + (wedge(e1, e2) - wedge(e4, e3)).scale(l3))
    x0 = -(e1.scale(l1) + e2.scale(l2) + e3.scale(l3))
    return r, x0


def build_third_kind(g: LieAlgebra, e1: Multivector, e2: Multivector,
                     e3: Multivector, e4: Multivector, lambdas) -> GeneralizedBialgebra:
    """Compact kind built on a standard triple [e1,e2]=e3, [e2,e3]=e1,
    [e3,e1]=e2 plus a commuting e4; phi0 vanishes on the triple and takes the
    value 1 on e4."""
    _require_compact(g)
    if len(lambdas) != 3:
        raise ValueError("lambdas must have three entries")
    l1, l2, l3 = (Fraction(v) for v in lambdas)
    failures = _check_su2_triple(g, e1, e2, e3)
    for i, v in enumerate((e1, e2, e3)):
        if not g.bracket(e4, v).is_zero():
            failures.append(f"e4 does not commute with triple entry {i + 1}")
    if Subspace.from_elements([e1, e2, e3, e4]).rank != 4:
        failures.append("e1..e4 must be linearly independent")
    if (l1, l2, l3) == (0, 0, 0):
        failures.append("lambdas must not all vanish")
    if failures:
        raise ValueError("third-kind hypotheses fail:\n  " + "\n  ".join(failures))
    r, x0 = third_kind_pair(e1, e2, e3, e4, (l1, l2, l3))
    phi0 = _solve_cocycle_with_values(g, [(e1.coeffs(), ZERO), (e2.coeffs(), ZERO),
                                          (e3.coeffs(), ZERO), (e4.coeffs(), Fraction(1))])
    return build_from_jacobi(YbData(g, phi0, r, x0)).bialgebra


@dataclass(frozen=True)
class ExtractionResult:
    pair: JacobiPair
    characteristic: CharacteristicSubalgebra


def extract_jacobi(b: GeneralizedBialgebra, y0: Multivector) -> ExtractionResult:
    """Recover the Jacobi pair of a generalized bialgebra from a central y0
    with phi0(y0) = 1: r = -d_{*x0}(y0), then x0 = i(phi0) r and the dual
    bracket must coincide with the one rebuilt from (r, x0, phi0)."""
    report = check_glb(b)
    if not report.passed:
        raise ValueError("input is not a generalized bialgebra:\n" + report.describe())
    _check_argument("y0", y0, Multivector, b.g.dim, 1)
    return _extract_checked(b, y0)


def _extract_checked(b: GeneralizedBialgebra, y0: Multivector) -> ExtractionResult:
    # extract_jacobi after check_glb(b) has passed, y0 a vector of g
    g = b.g
    if not _in_rows(g._center, {i: v for (i,), v in y0._ints()[0].items()}):
        raise ValueError("y0 must be central in g")
    if pair(b.phi0, y0) != 1:
        raise ValueError("y0 must satisfy phi0(y0) = 1")
    r = -twisted_differential(b.g_star, b.x0, y0)    # x0 is a 1-cocycle: check_glb passed
    if contract(b.phi0, r) != b.x0:
        raise ValueError("extraction failed: i(phi0) r differs from x0")
    jp = JacobiPair(g, r, b.x0)
    jacobi_report = check_jacobi(jp)
    if not jacobi_report.passed:
        raise ValueError("extraction failed:\n" + jacobi_report.describe())
    rebuilt = dual_bracket_adjoint_route(g, b.phi0, r, b.x0)
    if rebuilt != dict(b.g_star.structure):
        raise ValueError("extraction failed: dual bracket does not match the rebuilt one")
    return ExtractionResult(jp, _characteristic_checked(jp))


def unit_center_vector(g: LieAlgebra, phi0: Form) -> Multivector | None:
    """Deterministic central vector with phi0-value 1, if one exists:
    z / phi0(z) for the first reduced center row z with phi0(z) != 0.
    Read in int from the integer rows w of `g._center`: for phi0 = P / d,
    z / phi0(z) = d w / P(w), built as d P(w) w over P(w)^2 > 0."""
    _check_argument("phi0", phi0, Form, g.dim, 1)
    nums, d = phi0._ints()
    for w in g._center[0]:
        value = sum(v * w.get(i, 0) for (i,), v in nums.items())
        if value:
            return Multivector._from_ints(g.dim, 1, {(i,): d * value * x for i, x in w.items()},
                                          value * value)
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    a, b = q.numerator, q.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


def _candidate_vectors(dim: int):
    """Integer coefficient vectors of max-norm 1 or 2 in a deterministic
    order: by max-norm, then lexicographically."""
    for radius in (1, 2):
        for t in product(range(-radius, radius + 1), repeat=dim):
            if max(map(abs, t)) == radius:
                yield t


def su2_triple(g: LieAlgebra) -> tuple[Multivector, Multivector, Multivector]:
    """Search a 3-dimensional compact algebra for a standard triple.

    Looks for E1 with Killing square -2, then for E2 with Killing square -2
    in the Killing-orthogonal plane of E1, and keeps the first E1, E2,
    E3 = [E1, E2] that closes the triple.  The search is bounded: E1 and E2
    are rational multiples of small integer vectors, so it can miss a triple
    that exists, and failure raises with a diagnostic.
    """
    if g.dim != 3:
        raise ValueError("triple search requires dimension 3")
    k = killing_form(g)

    def normalize(coeffs):
        v = [Fraction(c) for c in coeffs]
        norm = k.value(v, v)
        if norm == 0:
            return None
        t = _rational_sqrt(Fraction(-2) / norm)
        if t is None:
            return None
        return [t * c for c in v]

    for cand in _candidate_vectors(3):
        v1 = normalize(cand)
        if v1 is None:
            continue
        e1 = Multivector.from_coeffs(v1)
        # K v1 = v1^T K, K being symmetric; K(v1, v1) = -2, so this is a plane
        complement = nullspace([k.apply(v1)])
        for mix in _candidate_vectors(2):
            combo = [mix[0] * complement[0][i] + mix[1] * complement[1][i] for i in range(3)]
            v2 = normalize(combo)
            if v2 is None:
                continue
            e2 = Multivector.from_coeffs(v2)
            e3 = g.bracket(e1, e2)
            if not _check_su2_triple(g, e1, e2, e3):
                return e1, e2, e3
    raise ValueError(f"no rational standard triple found in {g.name} "
                     "(searched small integer combinations)")


@dataclass(frozen=True)
class FirstKindCertificate:
    characteristic: CharacteristicSubalgebra
    abelian: bool
    nondegenerate: bool


@dataclass(frozen=True)
class SecondKindCertificate:
    characteristic: CharacteristicSubalgebra
    lam: Fraction
    lam1: Fraction
    lam2: Fraction


@dataclass(frozen=True)
class ThirdKindCertificate:
    """The triple, e4 and lambdas of a third-kind bialgebra, read on its
    characteristic algebra h.  They fix (r, X0) and phi0 on h only: when the
    center of g is larger than h's, build_third_kind on them can return
    another phi0, and so another g*, than the classified input's."""

    characteristic: CharacteristicSubalgebra
    triple: tuple          # (E1, E2, E3) in ambient coordinates
    e4: Multivector        # transverse central vector, ambient coordinates
    lambdas: tuple


@dataclass(frozen=True)
class SemidirectCertificate:
    theta0: Form
    subalgebra: LieAlgebra
    dual_subalgebra: LieAlgebra
    psi: LinearMap
    inclusion: LinearMap   # columns embed the subalgebra into g


@dataclass(frozen=True)
class ClassificationResult:
    kind: str
    y0: Multivector | None
    extraction: ExtractionResult | None
    certificate: object | None

    def describe(self) -> str:
        return f"kind: {self.kind}"


def _unit_dual(center: tuple, phi: Form) -> Multivector | None:
    """v / phi(v) for the v with B(v, .) = phi, B the invariant scalar product
    and phi a 1-cocycle, or None when phi(v) = 0.  phi kills [g, g], and B is
    the identity on the RREF center rows z_k and orthogonal to [g, g], so
    v = sum_k phi(z_k) z_k and phi(v) = sum_k phi(z_k)^2.  Summed in int from
    the integer reduced center rows (rows, pivots): with s the lcm of the
    pivots, w_k = s z_k is an integer row, and for phi = P / dphi,
    v / phi(v) = dphi sum_k P(w_k) w_k / sum_k P(w_k)^2."""
    nums, dphi = phi._ints()
    rows, pivots = center
    s = lcm(1, *(row[c] for row, c in zip(rows, pivots)))
    acc: dict[tuple[int], int] = {}
    norm = 0
    for row, c in zip(rows, pivots):
        w = {i: x * (s // row[c]) for i, x in row.items()}
        value = sum(v * w.get(i, 0) for (i,), v in nums.items())
        norm += value * value
        for i, x in w.items():
            acc[(i,)] = acc.get((i,), 0) + dphi * value * x
    return Multivector._from_ints(phi.dim, 1, acc, norm) if norm else None


def _classify_third(b: GeneralizedBialgebra, extraction: ExtractionResult) -> ThirdKindCertificate:
    # Three checks certify the result: su2_triple's triple passes
    # _check_su2_triple, e4 spans the 1-dimensional center of h, and
    # third_kind_pair(triple, e4, lambdas) is the characteristic pair (r, x0).
    # h is compact with no second test: the invariant positive definite
    # form of the compact g restricts to it.  The lee form is -phi0 on h, so
    # e4 is the unit dual vector of phi0 on h, and ker(lee) = ker(phi0 on h).
    char = extraction.characteristic
    h, incl, n = char.algebra, char.inclusion, char.algebra.dim
    den, rows = incl._ints
    phi_h = _push((den, tuple(zip(*rows))), b.phi0, Form)
    e4_res = _unit_dual(h._center, phi_h)
    if len(h._center[1]) != 1 or e4_res is None:
        raise ValueError("restricted algebra does not have the expected 1-dimensional center")

    # ker(lee) = h' = [h, h]: lee is nonzero on the 4-dimensional h, so this
    # holds when h' has 3 pivots and lee vanishes on its rows.  The null rows
    # of the one row phi_h (its own reduced echelon form), read at their free
    # columns, are the basis nullspace([phi_h.coeffs()]) that fixes the
    # coordinates of h'.
    nums = {i: v for (i,), v in phi_h._ints()[0].items()}
    derived_rows, derived_pivots = h._derived
    if len(derived_pivots) != 3 or any(sum(v * row.get(i, 0) for i, v in nums.items())
                                       for row in derived_rows):
        raise ValueError("kernel of the lee form does not match the derived algebra")
    pivot = min(nums)
    frame = _pivot_frame(_null_rows([nums], [pivot], n), [c for c in range(n) if c != pivot], n)
    h_prime = _restrict(h, f"{h.name}.red", frame)
    triple_h = tuple(_push(frame[0], t, Multivector) for t in su2_triple(h_prime))
    lam_coords = coordinates([(-t).coeffs() for t in triple_h], char.pair.x0.coeffs())
    if lam_coords is None:
        raise ValueError("x0 does not lie in the span of the triple")
    lambdas = tuple(lam_coords)
    r_expected, x0_expected = third_kind_pair(*triple_h, e4_res, lambdas)
    if r_expected != char.pair.r or x0_expected != char.pair.x0:
        raise ValueError("restricted pair does not take the standard three-parameter form")
    return ThirdKindCertificate(char, tuple(map(incl.apply_element, triple_h)),
                                incl.apply_element(e4_res), lambdas)


def _classify_semidirect(b: GeneralizedBialgebra) -> SemidirectCertificate:
    g, gs = b.g, b.g_star
    n = g.dim
    # theta0 = B(x0, .) / B(x0, x0) for the invariant scalar product B, which
    # is the identity on the reduced center rows z_l and orthogonal to
    # [g, g].  x0 is central (check_glb passed with phi0 = 0), so
    # x0 = sum_l c_l z_l for c_l its entry at the pivot of z_l, and theta0 is
    # the 1-cocycle with theta0(z_l) = c_l / |c|^2.
    c = [b.x0.coefficient((p,)) for p in g._center[1]]
    norm = sum(x * x for x in c)
    theta0 = _solve_cocycle_with_values(g, [(z, x / norm)
                                            for z, x in zip(_reduced(*g._center, n), c)])
    kernel_rows = nullspace([theta0.coeffs()])      # theta0(x0) = 1: a hyperplane
    m = n - 1

    # adapted coordinates: the kernel basis, then x0.  The dual basis is the
    # rows of the left inverse L, and B^T is the left inverse of L^T.  x0 is
    # central in g and a 1-cocycle of g*, so no bracket reaches the last basis
    # vector (_embed would refuse one that did).
    adapted = kernel_rows + [b.x0.coeffs()]
    frame = _frame(adapted, n)
    primal = _restrict(g, g.name, frame)
    # the dual frame: L^T has the dual basis as its columns, B^T is its inverse
    dual = _restrict(gs, gs.name, tuple((den, list(zip(*rows))) for den, rows in reversed(frame)))
    # h and h* are the leading blocks: the brackets of the first m basis
    # vectors, and Psi* - id maps e^a to the mixed bracket [e^a, e^m]*
    block = lambda adapted: {(a, c): _embed(value, m)
                             for (a, c), value in adapted.structure.items() if c < m}
    h = LieAlgebra(f"{g.name}.factor", m, standard_labels(m), block(primal))
    h_star = LieAlgebra(f"{h.name}*", m, h.dual_labels, block(dual))
    zero = Multivector.zero(m, 1)
    psi = LinearMap.from_rows([_embed(dual.structure.get((a, m), zero), m).coeffs()
                               for a in range(m)]).add(LinearMap.identity(m))

    rebuilt = build_semidirect_glb(h, h_star, psi)
    if primal.structure != rebuilt.g.structure or dual.structure != rebuilt.g_star.structure:
        raise ValueError("semidirect reconstruction does not match the input")
    inclusion = LinearMap.from_columns(kernel_rows)
    return SemidirectCertificate(theta0, h, h_star, psi, inclusion)


def classify_compact(b: GeneralizedBialgebra) -> ClassificationResult:
    """Decide which compact family a generalized bialgebra belongs to.

    phi0 = x0 = 0 is an ordinary Lie bialgebra.  For phi0 != 0 the invariant
    scalar product singles out a central y0 with phi0(y0) = 1; extraction
    then yields a Jacobi pair whose rank decides first (x0 = 0), second
    (rank 2) or third (rank 4) kind, each with its certificate.  For
    phi0 = 0, x0 != 0 the algebra splits off the line through x0 and the
    dual is a semidirect product encoded by a derivation.
    """
    _require_compact(b.g)
    report = check_glb(b)
    if not report.passed:
        raise ValueError("input is not a generalized bialgebra:\n" + report.describe())
    return _classify_checked(b)


def _classify_checked(b: GeneralizedBialgebra) -> ClassificationResult:
    # classify_compact after b.g has been found compact and check_glb(b) has
    # passed
    if b.phi0.is_zero() and b.x0.is_zero():
        return ClassificationResult("lie-bialgebra", None, None, None)
    if b.phi0.is_zero():
        return ClassificationResult("phi0-zero-semidirect", None, None, _classify_semidirect(b))

    y0 = _unit_dual(b.g._center, b.phi0)
    if y0 is None:
        raise ValueError("phi0 vanishes on its dual vector; no unit central vector exists")
    extraction = _extract_checked(b, y0)
    char = extraction.characteristic
    m = char.subspace.rank

    if b.x0.is_zero():
        h = char.algebra
        abelian_ok = not h.structure
        nondeg = _rank(char.pair.r) == m
        if not abelian_ok or not nondeg:
            raise ValueError("extraction contradicts the first-kind normal form")
        return ClassificationResult("first", y0, extraction,
                                    FirstKindCertificate(char, abelian_ok, nondeg))
    if m == 2:
        lam = char.pair.r.coefficient((0, 1))
        lam1, lam2 = char.pair.x0.coeffs()
        return ClassificationResult("second", y0, extraction,
                                    SecondKindCertificate(char, lam, lam1, lam2))
    if m == 4:
        return ClassificationResult("third", y0, extraction, _classify_third(b, extraction))
    raise ValueError(f"characteristic rank {m} does not occur for compact algebras")


def build_semidirect_glb(h: LieAlgebra, h_star: LieAlgebra,
                         psi: LinearMap) -> GeneralizedBialgebra:
    """Extend a Lie bialgebra (h, h*) by a line using a derivation psi.

    The base is the direct product h x R; the dual bracket is
    [(a, s), (b, t)]* = ([a, b]* - s (psi* - id) b + t (psi* - id) a, 0)
    with x0 the new coordinate vector and phi0 = 0.
    """
    m = h.dim
    if h_star.dim != m:
        raise ValueError("h and h* must have the same dimension")
    failures = []
    base_report = check_glb(GeneralizedBialgebra(h, h_star, Form.zero(m, 1),
                                                 Multivector.zero(m, 1)))
    if not base_report.passed:
        failures.append(_nested("  (h, h*) is not a Lie bialgebra:", base_report))
    if not is_derivation(h, psi):
        failures.append("  psi is not a derivation of h")
    # [e^a, e^m]* = (psi* - id) e^a: g* is h* extended by the derivation id - psi*
    derivation = LinearMap.identity(m).add(psi.transpose().scale(-1))
    if not is_derivation(h_star, derivation):
        failures.append("  psi* - id is not a derivation of h*")
    if failures:
        raise ValueError("\n".join(["semidirect hypotheses fail:", *failures]))

    g = direct_product(h, abelian(1), name=f"{h.name}xR")
    g_star = LieAlgebra(f"{g.name}*", g.dim, g.dual_labels,
                        semidirect_by_derivation(h_star, derivation).structure)
    b = GeneralizedBialgebra(g, g_star, Form.zero(g.dim, 1), Multivector.basis(g.dim, m))
    report = check_glb(b)
    if not report.passed:
        raise ValueError("semidirect construction failed:\n" + report.describe())
    return b
